"""The basis boundary: only fields and calculus name a basis's norms,
ladder rules or conversion tables.  Every other module reads them from a field's type (its
sq_norm, a form's field_type), so it works over He_d and H_{p,q} alike.  The wedge and
contraction steps stay inside calculus: every operator and adjoint is built there.  The
writers hand each rational to ``number`` as its integers, in both modes."""

import ast
from pathlib import Path

import gauss_hodge

BASIS_INTERNALS = {"hermite_sq_norm_vector", "ito_sq_norm_vector", "_index_rule",
                   "_index_rules", "he_to_complex_hermite", "complex_hermite_to_he",
                   "_binomial_row"}
OWNERS = {"fields", "calculus"}
CALCULUS_INTERNALS = {"_wedge", "_contract"}


def _named(tree) -> set:
    """The names a module imports, and the attributes it reads, e.g. fields._index_rules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _leaks(internals: set, owners: set) -> dict:
    """The internals each module outside ``owners`` names, for those that name any."""
    package = Path(gauss_hodge.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {path.stem for path in modules} >= owners | {"identities", "cli"}
    leaks = {path.stem: sorted(_named(ast.parse(path.read_text(encoding="utf-8"))) & internals)
             for path in modules if path.stem not in owners}
    return {stem: names for stem, names in leaks.items() if names}


def test_only_fields_and_calculus_name_the_basis_internals():
    assert _leaks(BASIS_INTERNALS, OWNERS) == {}


def test_only_calculus_names_the_wedge_and_contraction():
    assert _leaks(CALCULUS_INTERNALS, {"calculus"}) == {}


WRITERS = {"to_json", "render_value"}
FRACTION_READS = {"re", "im", "real", "imag", "Fraction"}


def test_writers_write_each_rational_from_its_integers():
    """No to_json in the package, and not render_value, reads a value's
    Fraction parts (.re, .im, .real, .imag) or names Fraction: each rational
    reaches the writer as (num, den)."""
    package = Path(gauss_hodge.__file__).parent
    seen, reads = set(), {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in WRITERS:
                seen.add(f"{path.stem}.{node.name}")
                names = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
                names |= {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
                if names & FRACTION_READS:
                    reads[f"{path.stem}.{node.name}:{node.lineno}"] = sorted(names & FRACTION_READS)
    assert {"scalars.render_value", "fields.to_json", "solver.to_json", "bridge.to_json"} <= seen
    assert reads == {}
