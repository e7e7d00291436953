"""Fuzzing main: arbitrary JSON documents and mutated valid files given to
--input, arbitrary JSON lines given to report, and arbitrary potential
expressions, must exit 0, 1 or 2, never with a traceback.

Integers drawn here stay small.  A large degree or capacity is valid input
whose solve takes long, which is not what these tests look for.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gauss_hodge.calculus import ComplexForm, PForm
from gauss_hodge.cli import main
from gauss_hodge.fields import ScalarField
from gauss_hodge.scalars import fraction_str, to_double

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

COMMANDS = {
    "d": ["solve", "--equation", "d", "--input"],
    "dbar": ["solve", "--equation", "dbar", "--input"],
    "lelong": ["lelong", "--input"],
}

# keys of the file layouts, so that mutations also reach valid-looking shapes
KEYS = ["n", "p", "m", "frame", "components", "entries", "index", "field",
        "max_total_degree", "scalar", "coeffs", "deg", "re", "im"]

leaves = (st.none() | st.booleans() | st.integers(-2, 7)
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from(["0", "1/2", "-3", "1/0", "x", "dz", "dzbar", "real",
                             "complex"])
          | st.text(max_size=4))
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def _field(kind: str) -> ScalarField:
    return ScalarField(2, 4, kind, {(1, 0): 1, (0, 2): -1})


def _valid_documents() -> list:
    """One exact and one float file for each command's input layout."""
    docs = []
    for number in (fraction_str, to_double):
        docs.append(("d", PForm(2, 2, 4, "real",
                                {(1, 2): _field("real")}).to_json(number)))
        docs.append(("dbar", ComplexForm.from_layout(
            (0, 1), [_field("complex")]).to_json(number)))
        docs.append(("lelong", ComplexForm.from_layout(
            (1, 1), [[ScalarField(2, 4, "complex", {(0, 0): 1})]]).to_json(number)))
    return docs


VALID = _valid_documents()


def _mutate(node, draw):
    """Replace, delete or descend into one entry of a JSON tree."""
    if isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        action = draw(st.sampled_from(["descend", "replace", "delete"]))
        if action == "delete":
            del node[key]
        elif action == "replace":
            node[key] = draw(json_values)
        else:
            node[key] = _mutate(node[key], draw)
        return node
    return draw(json_values)


def _run(tmp_path, capsys, command: str, document) -> None:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    code = main(COMMANDS[command] + [str(path), "--output", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(COMMANDS))
@FUZZ
@given(document=json_values)
def test_arbitrary_json_never_crashes(tmp_path, capsys, command, document):
    _run(tmp_path, capsys, command, document)


@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_mutated_valid_files_never_crash(tmp_path, capsys, data):
    command, document = data.draw(st.sampled_from(VALID))
    document = copy.deepcopy(document)
    for _ in range(data.draw(st.integers(1, 3))):
        document = _mutate(document, data.draw)
    _run(tmp_path, capsys, command, document)


@pytest.mark.parametrize("command, document", VALID)
def test_valid_seed_files_solve(tmp_path, capsys, command, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert main(COMMANDS[command] + [str(path), "--output", str(tmp_path / "o.json")]) == 0


@FUZZ
@given(lines=st.lists(json_values, max_size=4), csv=st.booleans())
def test_arbitrary_report_lines_never_crash(tmp_path, capsys, lines, csv):
    path = tmp_path / "report.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    argv = ["report", "--input", str(path)]
    code = main(argv + ["--output", str(tmp_path / "out.csv")] if csv else argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.startswith("report: ") and len(err.strip().splitlines()) == 1


POTENTIAL_TOKENS = ["z", "z1", "z2", "z0", "conj", "(", ")", "+", "-", "*", "/", "**",
                    "^", "i", "0", "1", "2", "12", " ", "x", "99999",
                    "9" * 400]  # too large for a double: float mode must refuse it


@settings(FUZZ, max_examples=60)
@given(expression=st.lists(st.sampled_from(POTENTIAL_TOKENS), max_size=12).map("".join),
       n=st.integers(1, 2), mode=st.sampled_from(["exact", "float"]))
def test_arbitrary_potentials_never_crash(tmp_path, capsys, expression, n, mode):
    code = main(["lelong", "--from-potential", expression, "--n", str(n), "--degree", "6",
                 "--mode", mode, "--output", str(tmp_path / "out.json")])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
