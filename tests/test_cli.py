import json
import time

import pytest

from gauss_hodge.calculus import ComplexForm, PForm
from gauss_hodge.cli import main
from gauss_hodge.fields import ScalarField
from gauss_hodge.multiindex import MultiIndex


@pytest.fixture
def dx1dx2_file(tmp_path):
    one = ScalarField.constant(1, 2, 6)
    f = PForm(2, 2, 6, components={MultiIndex((1, 2), 2): one})
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
              components={MultiIndex((1, 2), 2): ScalarField(2, 6, "real", False,
                                                             {(0, 0): 1.0})})
    path = tmp_path / "f_float.json"
    path.write_text(json.dumps(f.to_json()))
    assert main(["solve", "--equation", "d", "--mode", "exact",
                 "--input", str(path)]) == 2
    # without --mode the float input solves in float mode
    assert main(["solve", "--equation", "d", "--input", str(path)]) == 0


def test_solve_rejects_nonclosed(tmp_path):
    x3 = ScalarField.coordinate(3, 3, 6)
    bad = PForm(3, 2, 6, components={MultiIndex((1, 2), 3): x3})
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
        PForm(2, 2, 6, "real", False, components={MultiIndex((1, 2), 2): big})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(form.to_json()))
    out = tmp_path / "solution.json"
    assert main(["solve", "--equation", equation, "--input", str(path),
                 "--output", str(out)]) == 1
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()  # no report, so no bound_satisfied true


def test_solve_missing_input_is_usage_error(tmp_path):
    assert main(["solve", "--equation", "d", "--input",
                 str(tmp_path / "missing.json")]) == 2


def _one_term_text(equation: str, **entry) -> str:
    """A one-term input for solve --equation as JSON, its coefficient entry
    overridden: dx1^dx2 for d, dzbar for dbar."""
    if equation == "d":
        one = ScalarField.constant(1, 2, 6)
        data = PForm(2, 2, 6, components={MultiIndex((1, 2), 2): one}).to_json()
        field = data["components"][0]["field"]
    else:
        data = ComplexForm.from_layout((0, 1), [ScalarField.constant(1, 2, 6, "complex")]).to_json()
        field = data["components"][0]
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
], ids=["list-d", "list-dbar", "list-lelong", "zero-denominator", "null-degree",
        "nan", "inf", "minus-inf-imag", "potential-degree", "degree-above-capacity"])
def test_bad_input_is_usage_error(tmp_path, capsys, argv, text):
    if text is not None:
        path = tmp_path / "bad.json"
        path.write_text(text)
        argv = argv + [str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


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


def test_report_missing_file():
    assert main(["report", "--input", "/nonexistent/file.jsonl"]) == 2


def test_version_flag():
    assert main(["--version"]) == 0
