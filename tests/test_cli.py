import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gauss_hodge
from gauss_hodge import cli
from gauss_hodge.calculus import ComplexForm, PForm
from gauss_hodge.cli import main
from gauss_hodge.fields import ScalarField


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
    f = PForm(2, 2, 6, "real", False,
              components={(1, 2): ScalarField(2, 6, "real", False, {(0, 0): 1.0})})
    path = tmp_path / "f_float.json"
    path.write_text(json.dumps(f.to_json()))
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


@pytest.mark.parametrize("equation", ["d", "dbar"])
def test_solve_float_overflow_is_not_certified(tmp_path, capsys, equation):
    # 1e308 squared overflows the input norm to inf; the old path printed
    # "ratio 0.0 vs bound 0.25; pass" and wrote bound_satisfied true
    big = ScalarField(2, 6, "complex" if equation == "dbar" else "real", False,
                      {(0, 0): 1e308})
    form = ComplexForm.from_layout((0, 1), [big]) if equation == "dbar" else \
        PForm(2, 2, 6, "real", False, components={(1, 2): big})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(form.to_json()))
    out = tmp_path / "solution.json"
    assert main(["solve", "--equation", equation, "--input", str(path),
                 "--output", str(out)]) == 1
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()  # no report, so no bound_satisfied true


def test_solve_float_nonclosed_input_whose_norm_underflows(tmp_path, capsys):
    # f = c He_3(x2) dx1 with c = 1e-162: c^2 underflows, so ||f||^2 reads 0.0,
    # while df = -6c He_2(x2) dx1^dx2 keeps a nonzero subnormal norm^2
    field = ScalarField(2, 6, "real", False, {(0, 3): 1e-162})
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(PForm(2, 1, 6, "real", False,
                                     components={(1,): field}).to_json()))
    assert main(["solve", "--equation", "d", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solve: input is not closed: du = f needs df = 0")
    assert len(err.strip().splitlines()) == 1


def test_solve_missing_input_is_usage_error(tmp_path):
    assert main(["solve", "--equation", "d", "--input",
                 str(tmp_path / "missing.json")]) == 2


def _input_document(command: str) -> dict:
    """A valid one-term input file for ``command``: dx1^dx2 on R^2 for solve
    --equation d, dzbar on C^1 for dbar, dz ^ dzbar on C^1 for lelong."""
    one = ScalarField.constant(1, 2, 6, "complex")
    if command == "d":
        return PForm(2, 2, 6, components={(1, 2): ScalarField.constant(1, 2, 6)}).to_json()
    if command == "dbar":
        return ComplexForm.from_layout((0, 1), [one]).to_json()
    return ComplexForm.from_layout((1, 1), [[one]]).to_json()


def _one_term_text(equation: str, **entry) -> str:
    """A one-term input for solve --equation as JSON, its coefficient entry
    overridden: dx1^dx2 for d, dzbar for dbar."""
    data = _input_document(equation)
    field = data["components"][0]
    if equation == "d":
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
], ids=["list-d", "list-dbar", "list-lelong", "zero-denominator", "null-degree",
        "nan", "inf", "minus-inf-imag", "potential-degree", "degree-above-capacity",
        "potential-division-by-zero", "float-potential-huge-factor",
        "float-potential-huge-divisor"])
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
    """An empty coefficient list takes the mode of its form's other fields."""
    one = 1 if exact else 1.0
    fields = {(1,): ScalarField(3, 6, "real", exact, {(0, 0, 0): one}),
              (2,): ScalarField(3, 6, "real", exact, {(0, 0, 0): -one}),
              (3,): ScalarField(3, 6, "real", exact, {(0, 0, 0): one})}
    data = PForm(3, 1, 6, "real", exact, fields).to_json()
    data["components"][empty]["field"]["coeffs"] = []
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "solution.json"
    assert main(["solve", "--equation", "d", "--input", str(path), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert PForm.from_json(json.loads(out.read_text())["solution"]).exact == exact


@pytest.mark.parametrize("data", [
    b'[1, 2]\n',
    b'{"check": "dd_zero", "pass": true}\n["not", "a", "record"]\n',
    b'\xff\xfe\n',
    b'{"check": {}}\n',
    b'{"check": "dd_zero", "pass": true}\n{"check": 3, "pass": true}\n',
    b'{"check": "dd_zero"\n',
], ids=["list", "list-after-record", "invalid-utf8", "dict-check", "int-check", "truncated"])
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


def test_lelong_from_form_file(tmp_path):
    f = ComplexForm.from_layout((1, 1), [[ScalarField.constant(1, 2, 6, "complex")]])
    path = tmp_path / "f11.json"
    path.write_text(json.dumps(f.to_json()))
    out = tmp_path / "sol.json"
    assert main(["lelong", "--input", str(path), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["final_ratio"] == "1"


def test_lelong_float_input_with_zero_entry(tmp_path):
    # ddbar of z1 zbar1 z2 has the zero entry (2, 2); it serializes as an
    # empty coefficient list, which once read back as exact mode
    from gauss_hodge.calculus import ddbar
    from gauss_hodge.potentials import parse_potential
    f = ddbar(parse_potential("z1*conj(z1)*z2", 2, 5, exact=False))
    assert f.coefficient((2,), (2,)).is_zero()
    path = tmp_path / "f11.json"
    path.write_text(json.dumps(f.to_json()))
    out = tmp_path / "sol.json"
    assert main(["lelong", "--input", str(path), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["final"]["bound_satisfied"] is True


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
    f = recompose_11(PForm(4, 2, 6), h1).to_float()
    path = tmp_path / "bad11.json"
    path.write_text(json.dumps(f.to_json()))
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


def test_version_flag():
    assert main(["--version"]) == 0
