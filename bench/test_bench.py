"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench
"""

import hashlib
import json
import shutil
import subprocess
from fractions import Fraction

import pytest

import run
from workloads import WORKLOADS, CheckFailed, Workload, lelong_check, verify_check

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = [name for name, _, aggregate, _ in run.LAYER_METRICS
          if aggregate in ("calls", "counts")]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    inputs = WORKLOADS[name].inputs
    assert inputs(7, 60) == inputs(7, 60)
    assert inputs(7, 60) == inputs(7, 90)[:60]
    assert inputs(7, 60) != inputs(8, 60)


def test_both_lelong_modes_draw_the_same_potentials():
    exact = WORKLOADS["lelong-exact"].inputs(5, 9)
    floating = WORKLOADS["lelong-float"].inputs(5, 9)
    assert [argv + ["--mode", "float"] for argv in exact] == floating


def test_benchmark_json_names_the_workloads():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, section):
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "lelong-float", "--seed", "3",
                                "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_a_bad_op_is_counted_as_failed(tmp_path):
    good = WORKLOADS["lelong-exact"].inputs(1, 1)[0]
    bad = ["lelong", "--from-potential", "z/z", "--n", "1", "--degree", "6"]
    mini = Workload("mini", lambda seed, count: [good, bad, good, bad], lelong_check(True),
                    True, 4, 4)
    rounds = run.timed_run(run.fresh_cli(), mini, mini.inputs(0, 4), tmp_path / "op.out",
                           seconds=0)
    ops = [op for r in rounds for op in r]
    assert [op.failure is None for op in ops] == [True, False, True, False]
    assert ops[1].failure.startswith("exit 2")
    assert run.result(True, ops, {}) == {"correct": False, "attempted": 4, "failed": 2,
                                         "metrics": {}}


def test_bracket_pairs_each_op_with_the_kernel_times_around_it(monkeypatch):
    monkeypatch.setattr(run, "time_reference_kernel", lambda: 7.0)
    ops = [run.Op(1.0, kernel_s, None, None) for kernel_s in (1.0, 3.0, 5.0)]
    run.bracket(ops)
    assert [op.kernel_s for op in ops] == [2.0, 4.0, 6.0]


@pytest.mark.parametrize("name, pass_ops", [("lelong-exact", 3), ("verify-exact", 1)])
def test_counts_repeat_on_one_seed(tmp_path, name, pass_ops):
    w = WORKLOADS[name]
    small = Workload(w.name, w.inputs, w.check, w.exact, pass_ops, pass_ops)
    inputs = small.inputs(4, pass_ops)

    def counts():
        ops, totals, *_ = run.traced_run(run.fresh_cli(), small, inputs,
                                         tmp_path / "op.out", seconds=0)
        assert all(op.failure is None for op in ops)
        return run.layer_metrics(totals, pass_ops, [1.0], [1.0], [1.0])

    first, second = counts(), counts()
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["fields.construct.count"] > 0 and first["scalars.QC.count"] > 0


# sha256 of the outputs of the first ops of seed 1, written by the package as
# it stood when the benchmark was defined. A change that keeps every answer
# keeps these bytes.
EXPECTED_DIGESTS = {
    "lelong-exact": (3, "5dd8f5a65e48beb57ec52ff6563cbbdf75dfc540753b7a85018562c94e75247a"),
    "verify-exact": (1, "406e3741da9c71e0db0a8c72feb18c86ec3ad61b0b99885646ceb1f2b6c588cc"),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_DIGESTS))
def test_exact_outputs_are_unchanged(tmp_path, name):
    count, expected = EXPECTED_DIGESTS[name]
    w = WORKLOADS[name]
    cli = run.fresh_cli()
    h = hashlib.sha256()
    for argv in w.inputs(1, count):
        op = run.run_op(cli, argv, tmp_path / "op.out", w.check)
        assert op.failure is None, op.failure
        h.update(op.output)
    assert h.hexdigest() == expected


def _edited(data: bytes, edit) -> bytes:
    payload = json.loads(data)
    edit(payload)
    return json.dumps(payload).encode()


def test_checks_reject_wrong_answers(tmp_path):
    out = tmp_path / "op.out"
    cli = run.fresh_cli()
    lelong = WORKLOADS["lelong-exact"]
    data = run.run_op(cli, lelong.inputs(2, 1)[0], out, lelong.check).output
    lelong.check(data)

    def shift_solution(p):
        entry = p["solution"]["coeffs"][-1]
        entry["re"] = str(Fraction(entry["re"]) + Fraction(1, 7))

    for edit in (lambda p: p["report"]["final"].update(residual="1/3"),
                 lambda p: p["report"].update(final_ratio="5/2"),
                 lambda p: p["report"]["stages"]["dbar_solve_im"].update(bound_satisfied=False),
                 shift_solution):
        with pytest.raises(CheckFailed):
            lelong.check(_edited(data, edit))

    verify = WORKLOADS["verify-exact"]
    lines = run.run_op(cli, verify.inputs(2, 1)[0], out, verify.check).output.splitlines()
    verify_check(b"\n".join(lines))
    with pytest.raises(CheckFailed):
        verify_check(b"\n".join(lines[:-1] + [_edited(lines[-1], lambda s: s.update(failed=1))]))


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "lelong-exact", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
