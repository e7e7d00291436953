"""Guards on the package's public API."""

import inspect

import gauss_hodge
from gauss_hodge import identities


def _signatures():
    """(name, signature) of every callable in gauss_hodge.__all__, and of each
    public method of its classes."""
    for name in gauss_hodge.__all__:
        obj = getattr(gauss_hodge, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue  # the error types take messages, and builtin ones no signature
        yield name, inspect.signature(obj)
        if inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", inspect.signature(member)


def test_no_public_callable_takes_an_exact_flag():
    """Every value is a QC or a Fraction: no second scalar path is selected by
    an ``exact`` argument anywhere in the public API."""
    checked = dict(_signatures())
    assert "ScalarField" in checked and "solve_poincare_lelong" in checked
    assert "PForm.to_json" in checked
    assert [name for name, sig in checked.items() if "exact" in sig.parameters] == []


def test_no_identity_check_takes_a_tolerance():
    """Every identity holds exactly on exact data, data read from doubles
    included, so each public callable of identities compares with == and
    none takes a tolerance."""
    checked = {name: inspect.signature(obj) for name, obj in vars(identities).items()
               if not name.startswith("_") and callable(obj)
               and getattr(obj, "__module__", None) == identities.__name__}
    assert "conjugation_identities_check" in checked and "bochner_identity_report" in checked
    assert [name for name, sig in checked.items() if "tolerance" in sig.parameters] == []
