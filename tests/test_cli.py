import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gauss_hodge
from gauss_hodge import cli
from gauss_hodge.calculus import ComplexForm, PForm, exterior_d
from gauss_hodge.cli import main
from gauss_hodge.solver import solve_d_min_norm
from gauss_hodge.fields import ScalarField
from gauss_hodge.scalars import fraction_str, to_double


@pytest.fixture
def dx1dx2_file(tmp_path):
    one = ScalarField.constant(1, 2, 6)
    f = PForm(2, 2, 6, components={(1, 2): one})
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()))
    return path


def test_verify_exit_zero(tmp_path):
    out = tmp_path / "report.jsonl"
    code = main(["verify", "--mode", "exact", "--n", "1", "--degree", "6",
                 "--trials", "2", "--seed", "7", "--output", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[-1]["summary"] is True
    assert lines[-1]["failed"] == 0
    assert all(r["pass"] for r in lines[:-1])


def test_verify_usage_error_capacity():
    assert main(["verify", "--degree", "0"]) == 2


def test_verify_usage_error_unknown_flag():
    assert main(["verify", "--bogus"]) == 2


def test_verify_float_mode(tmp_path):
    out = tmp_path / "report.jsonl"
    code = main(["verify", "--mode", "float", "--n", "1", "--degree", "6",
                 "--trials", "2", "--seed", "5", "--tolerance", "1e-10",
                 "--output", str(out)])
    assert code == 0


def test_verify_determinism(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    args = ["verify", "--n", "2", "--degree", "6", "--trials", "3", "--seed", "11"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_d(dx1dx2_file, tmp_path):
    out = tmp_path / "solution.json"
    code = main(["solve", "--equation", "d", "--input", str(dx1dx2_file),
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["ratio"] == "1/4"
    assert payload["report"]["bound_constant"] == "1/4"
    assert payload["report"]["bound_satisfied"] is True
    # solution round-trips as a 1-form
    sol = PForm.from_json(payload["solution"])
    assert sol.p == 1


def test_solve_dbar(tmp_path):
    g = ComplexForm.from_layout((0, 1), [ScalarField.constant(1, 2, 6, "complex")])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    out = tmp_path / "solution.json"
    code = main(["solve", "--equation", "dbar", "--input", str(path),
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["ratio"] == "1"
    assert payload["report"]["bound_constant"] == "2"


def test_solve_mode_float_lowers_exact_input(dx1dx2_file, tmp_path):
    out = tmp_path / "solution.json"
    code = main(["solve", "--equation", "d", "--mode", "float",
                 "--input", str(dx1dx2_file), "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    # float mode reports numbers, not fraction strings
    assert payload["report"]["ratio"] == 0.25
    assert payload["report"]["bound_constant"] == 0.25


def test_solve_mode_exact_rejects_float_input(tmp_path):
    f = PForm(2, 2, 6, "real", components={(1, 2): ScalarField(2, 6, "real", {(0, 0): 1})})
    path = tmp_path / "f_float.json"
    path.write_text(json.dumps(f.to_json(to_double)))
    assert main(["solve", "--equation", "d", "--mode", "exact",
                 "--input", str(path)]) == 2
    # without --mode the float input solves in float mode
    assert main(["solve", "--equation", "d", "--input", str(path)]) == 0


def test_solve_rejects_nonclosed(tmp_path):
    x3 = ScalarField.coordinate(3, 3, 6)
    bad = PForm(3, 2, 6, components={(1, 2): x3})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    assert main(["solve", "--equation", "d", "--input", str(path)]) == 1


def test_solve_mode_float_on_an_exact_file_needs_it_exactly_closed(tmp_path, capsys):
    """The input file picks the gate, not --mode: an exact file that is not
    closed fails in float mode too, however small its residual, and its
    residual stays a fraction."""
    field = ScalarField(3, 6, "real", {(0, 0, 0): 1, (0, 0, 1): Fraction(1, 10 ** 15)})
    f = PForm(3, 2, 6, components={(1, 2): field})
    path = tmp_path / "nearly_closed.json"
    path.write_text(json.dumps(f.to_json()))
    assert main(["solve", "--equation", "d", "--mode", "float", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solve: input is not closed: du = f needs df = 0")
    assert f"(residual_sq={exterior_d(f).norm_sq()})" in err


@pytest.mark.parametrize("equation", ["d", "dbar"])
def test_solve_float_overflow_is_not_certified(tmp_path, capsys, equation):
    # the solve is exact, but the input norm^2 of 1e308 is beyond the double
    # range, so float mode cannot write the report; a float solve once
    # printed "ratio 0.0 vs bound 0.25; pass" and wrote bound_satisfied true
    big = ScalarField(2, 6, "complex" if equation == "dbar" else "real",
                      {(0, 0): Fraction(1e308)})
    form = ComplexForm.from_layout((0, 1), [big]) if equation == "dbar" else \
        PForm(2, 2, 6, "real", components={(1, 2): big})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(form.to_json(to_double)))
    out = tmp_path / "solution.json"
    assert main(["solve", "--equation", equation, "--input", str(path),
                 "--output", str(out)]) == 1
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()  # no report, so no bound_satisfied true


def test_solve_float_nonclosed_input_whose_norm_underflows(tmp_path, capsys):
    # f = c He_3(x2) dx1 with c = 1e-162: c^2 underflows a double, so a float
    # ||f||^2 once read 0.0; exactly, ||df||^2 = 6 ||f||^2
    field = ScalarField(2, 6, "real", {(0, 3): Fraction(1e-162)})
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(PForm(2, 1, 6, "real",
                                     components={(1,): field}).to_json(to_double)))
    assert main(["solve", "--equation", "d", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solve: input is not closed: du = f needs df = 0")
    assert len(err.strip().splitlines()) == 1
    # the exact residual in short scientific notation, not hundreds of digits
    assert len(err) < 200 and "(residual_sq=2.88e-322)" in err


def test_float_solve_writes_the_correctly_rounded_solution(tmp_path):
    """f = c He_1(x1) dx1^dx2 with c = 1e-300 read from a double: u is c times
    the exact solution for c = 1, each coefficient rounded once."""
    def form(c):
        field = ScalarField(2, 6, "real", {(1, 0): c})
        return PForm(2, 2, 6, "real", components={(1, 2): field})

    path, out = tmp_path / "f.json", tmp_path / "u.json"
    path.write_text(json.dumps(form(Fraction(1e-300)).to_json(to_double)))
    assert main(["solve", "--equation", "d", "--input", str(path), "--output", str(out)]) == 0
    got = json.loads(out.read_text())["solution"]
    unit = solve_d_min_norm(form(1))[0].to_json()
    assert len(got["components"]) == len(unit["components"]) == 2
    for mine, exact in zip(got["components"], unit["components"]):
        assert mine["index"] == exact["index"]
        pairs = zip(mine["field"]["coeffs"], exact["field"]["coeffs"], strict=True)
        for entry, want in pairs:
            assert entry["deg"] == want["deg"]
            assert entry["re"] == float(Fraction(want["re"]) * Fraction(1e-300))
            assert entry["im"] == 0.0


def test_solve_missing_input_is_usage_error(tmp_path):
    limit = sys.get_int_max_str_digits()
    assert main(["solve", "--equation", "d", "--input",
                 str(tmp_path / "missing.json")]) == 2
    assert sys.get_int_max_str_digits() == limit  # main gives the caller's limit back


def _input_document(command: str) -> dict:
    """A valid one-term input file for ``command``: dx1^dx2 on R^2 for solve
    --equation d, dzbar on C^1 for dbar, dz ^ dzbar on C^1 for lelong."""
    one = ScalarField.constant(1, 2, 6, "complex")
    if command == "d":
        return PForm(2, 2, 6, components={(1, 2): ScalarField.constant(1, 2, 6)}).to_json()
    if command == "dbar":
        return ComplexForm.from_layout((0, 1), [one]).to_json()
    return ComplexForm.from_layout((1, 1), [[one]]).to_json()


def _one_term_text(command: str, **entry) -> str:
    """_input_document(command) as JSON, its one coefficient entry overridden."""
    data = _input_document(command)
    if command == "lelong":
        field = data["entries"][0][0]
    else:
        field = data["components"][0]
        if command == "d":
            field = field["field"]
    field["coeffs"][0].update(entry)
    return json.dumps(data)


SOLVE_D = ["solve", "--equation", "d", "--input"]
SOLVE_DBAR = ["solve", "--equation", "dbar", "--input"]


@pytest.mark.parametrize("argv, text", [
    (SOLVE_D, "[1, 2]"),
    (SOLVE_DBAR, "[1, 2]"),
    (["lelong", "--input"], "[1, 2]"),
    (SOLVE_D, _one_term_text("d", re="1/0")),
    (SOLVE_D, _one_term_text("d", deg=None)),
    (SOLVE_D, _one_term_text("d", re=float("nan"), im=0.0)),
    (SOLVE_D, _one_term_text("d", re=float("inf"), im=0.0)),
    (SOLVE_DBAR, _one_term_text("dbar", re=1.0, im=float("-inf"))),
    (["lelong", "--n", "1", "--degree", "8", "--from-potential", "z**99999"], None),
    (SOLVE_D, _one_term_text("d", deg=[9, 0])),
    (["lelong", "--n", "1", "--degree", "6", "--from-potential", "z*conj(z)/0"], None),
    (["lelong", "--n", "1", "--degree", "6", "--mode", "float", "--from-potential",
      "9" * 400 + "*z*conj(z)"], None),
    (["lelong", "--n", "1", "--degree", "6", "--mode", "float", "--from-potential",
      "z*conj(z)/" + "9" * 400], None),
    (["lelong", "--n", "1", "--degree", "6", "--from-potential", "z**\u0663*conj(z)"], None),
], ids=["list-d", "list-dbar", "list-lelong", "zero-denominator", "null-degree",
        "nan", "inf", "minus-inf-imag", "potential-degree", "degree-above-capacity",
        "potential-division-by-zero", "float-potential-huge-factor",
        "float-potential-huge-divisor", "potential-arabic-indic-digit"])
def test_bad_input_is_usage_error(tmp_path, capsys, argv, text):
    if text is not None:
        path = tmp_path / "bad.json"
        path.write_text(text)
        argv = argv + [str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(argv[0] + ": ")


BAD_FILE = "bad input {path}: DomainError: "


@pytest.mark.parametrize("argv, text, code, message", [
    (["lelong", "--input"],
     json.dumps({"n": 1, "entries": [[{"m": 2, "max_total_degree": 4, "scalar": "complex",
                                       "coeffs": [{"deg": [4, 0], "re": "1", "im": "0"}]}]]}),
     1, "pipeline needs capacity 6 (two above the data degree 4), have 4 (required capacity 6)"),
    (SOLVE_D[:-1] + ["--tolerance", "0", "--input"], json.dumps(_input_document("d")),
     2, "tolerance must be in (0, 1)"),
    (SOLVE_D[:-1] + ["--tolerance", "1.5", "--input"], json.dumps(_input_document("d")),
     2, "tolerance must be in (0, 1)"),
    (SOLVE_D, _one_term_text("d", im="1"), 2, BAD_FILE + "nonzero imaginary part in a real field"),
    (SOLVE_D, json.dumps({"n": 0, "p": 1, "components": []}),
     2, BAD_FILE + "ambient dimension must be >= 1, got 0"),
    (SOLVE_D, json.dumps({"n": 2, "p": 0, "components": []}), 2, "du = f needs f of degree >= 1"),
    (SOLVE_DBAR, json.dumps({**_input_document("dbar"), "n": 2}),
     2, BAD_FILE + "n is 2, but the layout is for n = 1"),
], ids=["lelong-capacity", "tolerance-zero", "tolerance-above-one", "real-field-imaginary",
        "dimension-zero", "d-of-a-function", "dbar-n-not-the-layout"])
def test_refusals_name_their_cause(tmp_path, capsys, argv, text, code, message):
    """Refusals of bad settings and bad files, each with its exit code and
    its whole stderr line."""
    path = tmp_path / "in.json"
    path.write_text(text)
    assert main(argv + [str(path)]) == code
    assert capsys.readouterr().err == f"{argv[0]}: {message.format(path=path)}\n"


INPUT_ARGV = {"d": SOLVE_D, "dbar": SOLVE_DBAR, "lelong": ["lelong", "--input"]}
D_FIELD = ("components", 0, "field")


@pytest.mark.parametrize("command, path, value", [
    ("d", ("components", 0, "index"), [1.7, 2]),
    ("d", ("components", 0, "index"), ["1", "2"]),
    ("d", D_FIELD + ("coeffs", 0, "deg"), [0.9, 0]),
    ("d", D_FIELD + ("coeffs", 0, "deg"), [True, False]),
    ("d", ("n",), 2.5),
    ("d", ("p",), 2.0),
    ("d", D_FIELD + ("m",), "2"),
    ("d", D_FIELD + ("max_total_degree",), 6.9),
    ("dbar", ("n",), 1.0),
    ("lelong", ("n",), True),
], ids=["index-float", "index-string", "deg-float", "deg-bool", "n-float", "p-float",
        "m-string", "capacity-float", "dbar-n-float", "lelong-n-bool"])
def test_counts_and_labels_must_be_json_integers(tmp_path, capsys, command, path, value):
    """int() once read 1.7 as 1, "1" as 1 and true as 1, so each of these
    files solved, the deg-bool one as a different form."""
    data = _input_document(command)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(data))
    assert main(INPUT_ARGV[command] + [str(file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{INPUT_ARGV[command][0]}: bad input {file}: DomainError: ")
    assert "integer" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("part, value", [("re", True), ("im", False)])
@pytest.mark.parametrize("command", ["d", "dbar", "lelong"])
def test_coefficient_parts_must_not_be_json_bools(tmp_path, capsys, command, part, value):
    """true and false were once read as 1 and 0 and counted as JSON numbers,
    so each of these files, the form of the exact original, solved as a
    float file."""
    file = tmp_path / "bool.json"
    file.write_text(_one_term_text(command, **{part: value}))
    assert main(INPUT_ARGV[command] + [str(file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{INPUT_ARGV[command][0]}: bad input {file}: DomainError: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("repeated", ["deg", "index"])
def test_repeated_entries_are_usage_errors(tmp_path, capsys, repeated):
    """A second coefficient of one degree vector, or a second component of one
    index, was once read over the first instead of refused."""
    data = _input_document("d")
    entries = data["components"] if repeated == "index" else \
        data["components"][0]["field"]["coeffs"]
    entries.append(json.loads(json.dumps(entries[0])))
    file = tmp_path / "twice.json"
    file.write_text(json.dumps(data))
    assert main(SOLVE_D + [str(file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"solve: bad input {file}: DomainError: ")
    assert "appears twice" in err


@pytest.mark.parametrize("argv", [SOLVE_D, ["lelong", "--input"], ["report", "--input"]],
                         ids=["solve", "lelong", "report"])
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: bad input {path}: RecursionError: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("empty", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_solve_form_with_an_empty_component(tmp_path, capsys, exact, empty):
    """An empty coefficient list sits in a form of either mode, which the
    other fields set."""
    fields = {(1,): ScalarField(3, 6, "real", {(0, 0, 0): 1}),
              (2,): ScalarField(3, 6, "real", {(0, 0, 0): -1}),
              (3,): ScalarField(3, 6, "real", {(0, 0, 0): 1})}
    data = PForm(3, 1, 6, "real", fields).to_json(fraction_str if exact else to_double)
    data["components"][empty]["field"]["coeffs"] = []
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "solution.json"
    assert main(["solve", "--equation", "d", "--input", str(path), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads(out.read_text())
    parts = [e["re"] for c in payload["solution"]["components"] for e in c["field"]["coeffs"]]
    assert parts and all(isinstance(v, str if exact else float) for v in parts)
    assert isinstance(payload["report"]["ratio"], str if exact else float)


@pytest.mark.parametrize("data", [
    b'[1, 2]\n',
    b'{"check": "dd_zero", "pass": true}\n["not", "a", "record"]\n',
    b'\xff\xfe\n',
    b'{"check": {}}\n',
    b'{"check": "dd_zero", "pass": true}\n{"check": 3, "pass": true}\n',
    b'{"check": "dd_zero"\n',
    b'{}\n',
    b'{"equation": "ddbar", "measure": "normalized Gaussian pi^(-m/2) exp(-|x|^2) dx", '
    b'"report": {"final_ratio": "1/2"}, "solution": {"m": 2, "coeffs": []}}\n',
], ids=["list", "list-after-record", "invalid-utf8", "dict-check", "int-check", "truncated",
        "empty-object", "solve-payload"])
def test_report_bad_input_is_usage_error(tmp_path, capsys, data):
    path = tmp_path / "r.jsonl"
    path.write_bytes(data)
    assert main(["report", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"report: bad input {path}: ")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_constant_to_a_huge_power_is_fast(tmp_path):
    # the power is taken by squaring, so 1**100000 costs 17 squarings
    start = time.perf_counter()
    assert main(["lelong", "--from-potential", "z*conj(z) + 1**100000", "--n", "1",
                 "--degree", "8", "--output", str(tmp_path / "out.json")]) == 0
    assert time.perf_counter() - start < 1.0


# an integer of 5001 digits, beyond Python's default int <-> str limit
HUGE = "1" + "0" * 4999 + "1"


@pytest.mark.parametrize("source", ["potential", "input"])
def test_exact_values_of_any_size_are_read_and_written(tmp_path, source):
    """A solve whose input or output holds more digits than the interpreter's
    default limit exits 0, and main gives the caller's limit back."""
    out = tmp_path / "out.json"
    if source == "potential":
        argv = ["lelong", "--from-potential", "10**5000*z*conj(z)", "--n", "1",
                "--degree", "4"]
    else:
        path = tmp_path / "f11.json"
        path.write_text(_one_term_text("lelong", re=f"{HUGE}/7"))
        argv = ["lelong", "--input", str(path)]
    limit = sys.get_int_max_str_digits()
    assert main(argv + ["--output", str(out)]) == 0
    assert sys.get_int_max_str_digits() == limit
    assert json.loads(out.read_text())["report"]["final"]["bound_satisfied"] is True
    assert max(map(len, out.read_text().split('"'))) > 5000


@pytest.mark.parametrize("argv", [
    ["solve", "--equation", "d", "--n", "2"],
    ["solve", "--equation", "d", "--degree", "8"],
    ["solve", "--equation", "d", "--trials", "1"],
    ["solve", "--equation", "d", "--seed", "0"],
    ["lelong", "--from-potential", "z*conj(z)", "--trials", "1"],
    ["lelong", "--from-potential", "z*conj(z)", "--seed", "0"],
])
def test_unused_options_are_rejected(dx1dx2_file, argv):
    if argv[0] == "solve":
        argv = argv + ["--input", str(dx1dx2_file)]
    assert main(argv) == 2


def test_lelong_from_potential(tmp_path):
    out = tmp_path / "lelong.json"
    code = main(["lelong", "--from-potential", "z*conj(z)", "--n", "1",
                 "--degree", "6", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["final"]["bound_satisfied"] is True
    assert payload["report"]["final"]["residual"] == "0"
    assert payload["from_potential"] == "z*conj(z)"


# JSON trees as json.dumps accepts them: every leaf type, ints of any size,
# the extreme and signed doubles, strings with control and non-ASCII
# characters, tuples next to lists, and empty containers
json_leaves = (st.none() | st.booleans() | st.integers()
               | st.integers(-10 ** 300, 10 ** 300)
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([5e-324, -5e-324, 1.7976931348623157e308, -0.0, 0.0])
               | st.text() | st.sampled_from(["", "\x00\x1f\t\n\r\"\\/", "\u00a0é—\u2028😀"]))
json_trees = st.recursive(
    json_leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_trees)
def test_solution_writer_matches_json_dumps(tree):
    assert cli._json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_solution_writer_refuses_non_finite_floats(value):
    for tree in (value, [1, value], {"re": value}):
        with pytest.raises(ValueError):
            cli._json_text(tree)
        with pytest.raises(ValueError):
            json.dumps(tree, allow_nan=False)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("potential", ["z*\tconj(z)\n", "z*\u00a0conj(z)"])
def test_lelong_file_is_json_dumps_of_its_payload(tmp_path, mode, potential):
    """Whitespace that the potential tokenizer skips is echoed into
    from_potential, and the file still reads as json.dumps writes it."""
    out = tmp_path / "out.json"
    assert main(["lelong", "--from-potential", potential, "--n", "1", "--degree", "4",
                 "--mode", mode, "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert payload["from_potential"] == potential
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_solve_file_is_json_dumps_of_its_payload(dx1dx2_file, tmp_path, mode):
    out = tmp_path / "out.json"
    assert main(["solve", "--equation", "d", "--input", str(dx1dx2_file), "--mode", mode,
                 "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_lelong_from_form_file(tmp_path):
    f = ComplexForm.from_layout((1, 1), [[ScalarField.constant(1, 2, 6, "complex")]])
    path = tmp_path / "f11.json"
    path.write_text(json.dumps(f.to_json()))
    out = tmp_path / "sol.json"
    assert main(["lelong", "--input", str(path), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["final_ratio"] == "1"


def test_lelong_input_ignores_the_sizes_it_does_not_read(tmp_path, capsys):
    """--n and --degree size a --from-potential only: lelong --input takes
    its sizes from the file, so out-of-range values there change nothing."""
    f = ComplexForm.from_layout((1, 1), [[ScalarField.constant(1, 2, 6, "complex")]])
    path = tmp_path / "f11.json"
    path.write_text(json.dumps(f.to_json()))
    runs = []
    for k, sizes in enumerate(([], ["--degree", "1", "--n", "0"])):
        out = tmp_path / f"sol{k}.json"
        assert main(["lelong", "--input", str(path), "--output", str(out)] + sizes) == 0
        runs.append((out.read_bytes(), capsys.readouterr()))
    assert runs[0] == runs[1]
    # a potential still needs them in range
    for sizes, message in ((["--n", "1", "--degree", "1"], "capacity (--degree) must be >= 2"),
                           (["--n", "0", "--degree", "4"], "n must be >= 1")):
        assert main(["lelong", "--from-potential", "z*conj(z)"] + sizes) == 2
        assert capsys.readouterr().err == f"lelong: {message}\n"


def test_lelong_float_input_with_zero_entry(tmp_path):
    # ddbar of z1 zbar1 z2 has the zero entry (2, 2); it serializes as an
    # empty coefficient list, which once read back as exact mode
    from gauss_hodge.calculus import ddbar
    from gauss_hodge.potentials import parse_potential
    f = ddbar(parse_potential("z1*conj(z1)*z2", 2, 5))
    assert f.coefficient((2,), (2,)).is_zero()
    path = tmp_path / "f11.json"
    path.write_text(json.dumps(f.to_json(to_double)))
    out = tmp_path / "sol.json"
    assert main(["lelong", "--input", str(path), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["final"]["bound_satisfied"] is True
    assert payload["report"]["final"]["residual"] == 0.0


def test_lelong_zero_form(tmp_path):
    f = ComplexForm(1, (1, 1), 6)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(f.to_json()))
    out = tmp_path / "sol.json"
    assert main(["lelong", "--input", str(path), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["final"]["ratio"] == "0"
    assert payload["solution"]["coeffs"] == []


def test_lelong_rejects_nonclosed(tmp_path):
    from conftest import zzbar_poly_field
    e = zzbar_poly_field(2, 6, {((0, 0), (1, 0)): 1})
    z = ScalarField.zero(4, 6, "complex")
    f = ComplexForm.from_layout((1, 1), [[z, e], [z, z]])
    path = tmp_path / "bad11.json"
    path.write_text(json.dumps(f.to_json()))
    assert main(["lelong", "--input", str(path)]) == 1


def test_lelong_float_input_with_nonclosed_imaginary_part(tmp_path, capsys):
    # f = i Re(zbar1 dz1 ^ dzbar2): f1 = 0 and f2 is not closed, so the d solve
    # of f2 refuses it
    from conftest import zzbar_poly_field
    from gauss_hodge.bridge import decompose_11, recompose_11
    e = zzbar_poly_field(2, 6, {((0, 0), (1, 0)): 1})
    z = ScalarField.zero(4, 6, "complex")
    h1, _ = decompose_11(ComplexForm.from_layout((1, 1), [[z, e], [z, z]]))
    f = recompose_11(PForm(4, 2, 6), h1)
    path = tmp_path / "bad11.json"
    path.write_text(json.dumps(f.to_json(to_double)))
    assert main(["lelong", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lelong: input is not closed: du = f needs df = 0")


def _run_fresh(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(gauss_hodge.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "gauss_hodge.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_main_reuses_its_parser_without_leaking_state(tmp_path, capsys, monkeypatch):
    """main builds its parser once per process; a usage error followed by a
    valid run writes the bytes and exit codes of two fresh processes."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to it
    assert cli._build_parser() is cli._build_parser()
    runs = [["lelong", "--from-potential", "z*conj(z)", "--seed", "0"],
            ["lelong", "--n", "2", "--degree", "5", "--from-potential",
             "z1*conj(z2)**2 + 3*z2*conj(z2)"]]
    codes = []
    for k, argv in enumerate(runs):
        here, there = tmp_path / f"here{k}.json", tmp_path / f"there{k}.json"
        codes.append(main(argv + ["--output", str(here)]))
        out, err = capsys.readouterr()
        fresh = _run_fresh(argv + ["--output", str(there)])
        assert (codes[-1], out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert here.exists() == there.exists() == (codes[-1] == 0)
        if here.exists():
            assert here.read_bytes() == there.read_bytes()
    assert codes == [2, 0]


def test_verify_failure_exit_and_first_record(tmp_path, monkeypatch, capsys):
    # exercise the failure plumbing: a failing record forces exit 1 and is
    # printed first
    import gauss_hodge.cli as cli

    def fake_trial(config, trial):
        return [{"trial": trial, "check": "synthetic", "pass": trial != 1}]

    monkeypatch.setattr(cli, "_verify_trial", fake_trial)
    out = tmp_path / "r.jsonl"
    code = main(["verify", "--n", "1", "--degree", "6", "--trials", "3",
                 "--seed", "0", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert '"check": "synthetic"' in err and '"trial": 1' in err
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[-1]["failed"] == 1


def test_report_summary_and_csv(tmp_path, capsys):
    report = tmp_path / "r.jsonl"
    assert main(["verify", "--n", "1", "--degree", "6", "--trials", "2",
                 "--seed", "7", "--output", str(report)]) == 0
    csv_path = tmp_path / "r.csv"
    assert main(["report", "--input", str(report), "--output", str(csv_path)]) == 0
    captured = capsys.readouterr().out
    assert "summary:" in captured
    header = csv_path.read_text().splitlines()[0]
    for field in ("check", "pass", "trial", "seed"):
        assert field in header
    # one CSV row per JSONL record
    assert len(csv_path.read_text().splitlines()) == \
        len(report.read_text().splitlines()) + 1


def test_report_missing_file(capsys):
    assert main(["report", "--input", "/nonexistent/file.jsonl"]) == 2
    assert capsys.readouterr().err.startswith("report: bad input: FileNotFoundError")


@pytest.mark.parametrize("command", ["verify", "solve", "lelong", "report"])
def test_file_errors_name_their_path(tmp_path, capsys, dx1dx2_file, command):
    """An --output that cannot be written was once reported as bad input, and
    neither it nor a missing --input was named: each now exits 2 with one
    line naming its path (verify reads no file)."""
    records = tmp_path / "r.jsonl"
    assert main(["verify", "--n", "1", "--degree", "2", "--trials", "1",
                 "--output", str(records)]) == 0
    argv = {"verify": ["verify", "--n", "1", "--degree", "2", "--trials", "1"],
            "solve": SOLVE_D + [str(dx1dx2_file)],
            "lelong": ["lelong", "--from-potential", "z*conj(z)", "--n", "1", "--degree", "4"],
            "report": ["report", "--input", str(records)]}[command]
    out = tmp_path / "no-such-dir" / "out"
    capsys.readouterr()
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err == (f"{command}: cannot write {out}: "
                                       "No such file or directory\n")
    if command != "verify":
        missing = tmp_path / "missing.json"
        reads = {"solve": SOLVE_D, "lelong": ["lelong", "--input"],
                 "report": ["report", "--input"]}[command]
        assert main(reads + [str(missing)]) == 2
        assert capsys.readouterr().err == (f"{command}: bad input: FileNotFoundError: "
                                           f"cannot read {missing}: No such file or directory\n")


def test_version_flag():
    assert main(["--version"]) == 0


def test_lelong_of_a_pluriharmonic_potential_writes_zero_stages(tmp_path):
    """ddbar of z1 + conj(z2) + z1 z2 + 3 is zero: u = 0, every stage report
    is zero with its bound constant, and no conjugation ratio is written."""
    out = tmp_path / "out.json"
    assert main(["lelong", "--from-potential", "z1 + conj(z2) + z1*z2 + 3", "--n", "2",
                 "--degree", "4", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["solution"]["coeffs"] == []
    report = data["report"]
    assert report["conjugation_ratios"] == {}
    zero = {"residual": "0", "input_norm_sq": "0", "output_norm_sq": "0", "ratio": "0",
            "bound_satisfied": True, "blocks_solved": 0}
    bounds = {"d_solve_re": "1/4", "d_solve_im": "1/4", "dbar_solve_re": "2",
              "dbar_solve_im": "2"}
    assert report["stages"] == {stage: {**zero, "bound_constant": bound}
                                for stage, bound in bounds.items()}
    assert report["final"] == {**zero, "bound_constant": "2"}
    assert report["final_ratio"] == "0"
