"""Benchmark for gauss-hodge: one caller running ``cli.main`` ops in a closed loop.

Run from the repository root:

    python3 bench/run.py --workload lelong-exact --seed 1 --seconds 36 --trace 0

Each op starts when the previous one returns; no threads are started and
GAUSS_HODGE_THREADS is unset, so the numbers describe the program rather than
the scheduler. Every op's output is checked. The workloads are defined in
workloads.py and explained, with the metrics, in PROVENANCE.md.

``--trace 0`` runs the seed's inputs in rounds, each input once per round, for
``--seconds`` and at least one whole round, and prints the end-to-end metrics.
Every op is scaled to a fixed host speed: a reference kernel that never
changes is timed before each op, with the garbage collector off, and an op's
time is multiplied by the kernel's nominal time over the mean of the kernel
times just before and just after it. The host this was built on runs at a
speed that changes from one tenth of a second to the next, and a kernel timed
next to an op slows with it. Percentiles are over the scaled times of all
ops. The first round's outputs are checked by the workload; every later op
must write the same bytes as the first round did for its input.
``--trace 1`` alternates untraced and traced passes over the first inputs for
``--seconds`` and prints the per-layer metrics (spans.py). The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from spans import PACKAGE, Tracer
from workloads import WORKLOADS, CheckFailed, Workload

Check = Callable[[bytes], None]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 11
MAX_SECONDS = 120  # the timed phase stops here whatever else, so a run ends within 180 s

# Fastest reference_kernel() time on the machine described in PROVENANCE.md.
# Changing it rescales every time metric, so it stays fixed.
REFERENCE_NOMINAL_MS = 16.0

# (metric, unit, aggregate, span or count name). "self" and "inclusive" are
# scaled span times in ms per op in the fastest traced pass; "calls" and
# "counts" are totals over one pass; "overhead" compares the fastest scaled
# traced and untraced passes.
LAYER_METRICS = (
    ("cli.self_ms", "ms", "self", "cli"),
    ("potentials.parse_potential.ms", "ms", "inclusive", "potentials.parse_potential"),
    ("calculus.ddbar.ms", "ms", "inclusive", "calculus.ddbar"),
    ("calculus.exterior_d.ms", "ms", "inclusive", "calculus.exterior_d"),
    ("calculus.codifferential.ms", "ms", "inclusive", "calculus.codifferential"),
    ("calculus.dbar_adjoint.ms", "ms", "inclusive", "calculus.dbar_adjoint"),
    ("calculus.dbar_function.ms", "ms", "inclusive", "calculus.dbar_function"),
    ("calculus.type_purity.ms", "ms", "inclusive", "calculus.type_purity"),
    ("calculus.wirtinger.ms", "ms", "inclusive", "calculus.wirtinger"),
    ("bridge.decompose_11.ms", "ms", "inclusive", "bridge.decompose_11"),
    ("bridge.split_bidegree.ms", "ms", "inclusive", "bridge.split_bidegree"),
    ("bridge.pipeline.self_ms", "ms", "self", "bridge.pipeline"),
    ("solver.d_solve.self_ms", "ms", "self", "solver.d_solve"),
    ("solver.dbar_solve.self_ms", "ms", "self", "solver.dbar_solve"),
    ("solver.d_solve.calls", "count", "calls", "solver.d_solve"),
    ("solver.dbar_solve.calls", "count", "calls", "solver.dbar_solve"),
    ("solver.blocks_solved", "count", "counts", "solver.blocks_solved"),
    ("identities.dual_basis.ms", "ms", "inclusive", "identities.dual_basis"),
    ("identities.dual_basis.ddbar_calls", "count", "counts",
     "identities.dual_basis.ddbar_calls"),
    ("identities.adjoint_report.self_ms", "ms", "self", "identities.adjoint_report"),
    ("identities.bochner.ms", "ms", "inclusive", "identities.bochner"),
    ("identities.d_norm_expansion.ms", "ms", "inclusive", "identities.d_norm_expansion"),
    ("identities.conjugation.ms", "ms", "inclusive", "identities.conjugation"),
    ("randomforms.ms", "ms", "inclusive", "randomforms"),
    ("fields.construct.count", "count", "counts", "fields.construct"),
    ("fields.multiply.ms", "ms", "inclusive", "fields.multiply"),
    ("fields.norm_sq.ms", "ms", "inclusive", "fields.norm_sq"),
    ("fields.weighted_inner.ms", "ms", "inclusive", "fields.weighted_inner"),
    ("scalars.QC.count", "count", "counts", "scalars.QC"),
    ("trace.overhead_frac", "frac", "overhead", None),
)

END_TO_END_UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Op:
    """Outcome of one op: its wall time, the reference kernel's time next to
    it (just before it, or after bracket() the mean of the times before and
    after it), why it failed (or None), and what it wrote."""

    seconds: float
    kernel_s: float
    failure: str | None
    output: bytes | None

    @property
    def scaled_ms(self) -> float:
        """The op's time in ms at the nominal host speed."""
        return self.seconds * REFERENCE_NOMINAL_MS / self.kernel_s


def reference_kernel() -> dict:
    """A fixed product of two sparse polynomials with Fraction coefficients,
    shaped like the package's exact field products. Its code never changes,
    so its speed measures the host, not the program."""
    a = {(i, j, k): Fraction(i + 1, j + k + 1)
         for i in range(5) for j in range(5) for k in range(3)}
    b = {(i, j, k): Fraction(k + 2, i + j + 1)
         for i in range(4) for j in range(3) for k in range(4)}
    product: dict = {}
    for da, va in a.items():
        for db, vb in b.items():
            key = tuple(x + y for x, y in zip(da, db))
            product[key] = product.get(key, 0) + va * vb
    return product


def time_reference_kernel() -> float:
    """Seconds for one reference_kernel() call. The garbage collector is off
    meanwhile, so the program's heap and collector state do not enter the time."""
    gc.disable()
    try:
        start = perf_counter()
        reference_kernel()
        return perf_counter() - start
    finally:
        gc.enable()


def fresh_cli():
    """Import gauss_hodge.cli from the checkout's sources, discarding any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    return importlib.import_module(PACKAGE + ".cli")


def run_op(cli, argv: list[str], out_path: Path, check: Check) -> Op:
    """One ``cli.main`` call, with the reference kernel timed just before it;
    it fails if it raises, exits non-zero or fails ``check``."""
    out_path.unlink(missing_ok=True)
    sink = io.StringIO()
    kernel_s = time_reference_kernel()
    start = perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv + ["--output", str(out_path)])
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return Op(perf_counter() - start, kernel_s, f"raised {exc!r}", None)
    seconds = perf_counter() - start
    if code != 0:
        return Op(seconds, kernel_s, f"exit {code}: {sink.getvalue().strip()}", None)
    output = out_path.read_bytes()
    try:
        check(output)
    except (CheckFailed, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return Op(seconds, kernel_s, f"check: {exc!r}", output)
    return Op(seconds, kernel_s, None, output)


def bracket(ops: list[Op]):
    """Set each op's kernel time to the mean of the kernel times just before
    and just after it: the next op's, or one more for the last op. The ops
    must be in the order they ran, one after another."""
    after = [op.kernel_s for op in ops[1:]] + [time_reference_kernel()]
    for op, kernel_s in zip(ops, after):
        op.kernel_s = (op.kernel_s + kernel_s) / 2


def same_as(first: Op) -> Check:
    """The check of a repeated input: the bytes of ``first``, its checked first run."""

    def check(data: bytes):
        if first.failure is not None or data != first.output:
            raise CheckFailed("output differs from the checked first run of this input")

    return check


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.output or b"")
    return h.hexdigest()


def set_up(workload: Workload, seed: int, out_path: Path):
    """Import, input generation and one untimed warm-up op, repeated; the last
    import and inputs are kept. Each set-up's time is scaled by the kernel
    time taken just before its warm-up op. Returns (cli, inputs, warm-up ops,
    median scaled seconds)."""
    times, warm_ups = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = fresh_cli()
        inputs = workload.inputs(seed, workload.pool)
        prepared = perf_counter() - start
        warm_up = run_op(cli, inputs[0], out_path, workload.check)
        warm_ups.append(warm_up)
        times.append((prepared + warm_up.seconds) * REFERENCE_NOMINAL_MS
                     / (1000 * warm_up.kernel_s))
    return cli, inputs, warm_ups, statistics.median(times)


def timed_run(cli, workload: Workload, inputs: list[list[str]], out_path: Path,
              seconds: float) -> list[list[Op]]:
    """Run the inputs in rounds, in order, for ``seconds`` and at least one
    whole round (never past MAX_SECONDS). Returns each round's bracketed ops,
    the last round possibly cut short. Only the first round's outputs are
    kept, so memory does not grow with the number of rounds."""
    rounds: list[list[Op]] = []
    start = perf_counter()
    while True:
        ops: list[Op] = []
        rounds.append(ops)
        for k, argv in enumerate(inputs):
            elapsed = perf_counter() - start
            if elapsed >= MAX_SECONDS or (elapsed >= seconds and len(rounds) > 1):
                bracket([op for r in rounds for op in r])
                return rounds
            if len(rounds) == 1:
                ops.append(run_op(cli, argv, out_path, workload.check))
            else:
                ops.append(run_op(cli, argv, out_path, same_as(rounds[0][k])))
                ops[-1].output = None


def end_to_end_metrics(ops: list[Op], setup_s: float, scaled: bool = True) -> dict:
    ms = [op.scaled_ms if scaled else op.seconds * 1000 for op in ops]
    return {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[-1],
        "ops_per_s": 1000 * len(ms) / sum(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced_run(cli, workload: Workload, inputs: list[list[str]], out_path: Path,
               seconds: float):
    """Alternate untraced and traced passes over the first ``pass_ops`` inputs
    for ``seconds`` (at least one of each). Spans are recorded on the first
    traced pass only. The first pass is checked by the workload and every
    later pass against it; only the first pass keeps its outputs. Returns
    (ops, per-pass span totals, per-pass scaled untraced and traced ms, per-pass
    scale of span times, tracer). A pass's span times are scaled by the median
    kernel time of its traced ops."""
    pass_inputs = inputs[:workload.pass_ops]
    tracer = Tracer()
    first: list[Op] = []
    ops: list[Op] = []
    totals, passes = [], []
    start = perf_counter()
    while not totals or perf_counter() - start < seconds:
        plain = [run_op(cli, argv, out_path, same_as(first[k]) if first else workload.check)
                 for k, argv in enumerate(pass_inputs)]
        first = first or plain
        tracer.record = not totals
        traced = []
        tracer.install()
        try:
            for k, argv in enumerate(pass_inputs):
                tracer.op = k
                traced.append(run_op(cli, argv, out_path, same_as(first[k])))
        finally:
            tracer.uninstall()
        totals.append(tracer.take_totals())
        passes.append((plain, traced))
        for op in traced + (plain if plain is not first else []):
            op.output = None
        ops += plain + traced
    bracket(ops)
    plain_ms = [sum(op.scaled_ms for op in plain) for plain, _ in passes]
    traced_ms = [sum(op.scaled_ms for op in traced) for _, traced in passes]
    scales = [REFERENCE_NOMINAL_MS / statistics.median(op.kernel_s for op in traced)
              for _, traced in passes]
    return ops, totals, plain_ms, traced_ms, scales, tracer


def layer_metrics(totals: list[dict], pass_ops: int, plain_ms: list[float],
                  traced_ms: list[float], scales: list[float]) -> dict:
    metrics = {}
    for name, _, aggregate, key in LAYER_METRICS:
        if aggregate == "overhead":
            metrics[name] = min(traced_ms) / min(plain_ms) - 1
        elif aggregate in ("calls", "counts"):
            metrics[name] = totals[0][aggregate][key]
        else:
            metrics[name] = min(t[aggregate][key] * scale
                                for t, scale in zip(totals, scales)) / pass_ops
    return metrics


def units(metrics: dict) -> dict:
    unit = dict(END_TO_END_UNITS)
    unit.update({name: u for name, u, _, _ in LAYER_METRICS})
    return {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()}


def result(correct: bool, ops: list[Op], metrics: dict) -> dict:
    """The result record; ``correct`` also requires that no op failed."""
    failures = [(k, op.failure) for k, op in enumerate(ops) if op.failure]
    for k, failure in failures[:3]:
        print(f"op {k} failed: {failure}", file=sys.stderr)
    return {"correct": correct and not failures, "attempted": len(ops),
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"bench: no {PACKAGE} sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("GAUSS_HODGE_THREADS", None)
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"op-{os.getpid()}.out"
    print(f"env: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    try:
        cli, inputs, warm_ups, setup_s = set_up(workload, args.seed, out_path)
        correct = result(True, warm_ups, {})["correct"]
        if args.trace:
            ops, totals, plain_ms, traced_ms, scales, tracer = traced_run(
                cli, workload, inputs, out_path, args.seconds)
            metrics = layer_metrics(totals, workload.pass_ops, plain_ms, traced_ms, scales)
            spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            counts_repeat = all(t["calls"] == totals[0]["calls"]
                                and t["counts"] == totals[0]["counts"] for t in totals)
            correct = correct and counts_repeat
            print(f"trace: {len(totals)} traced passes of {workload.pass_ops} ops; "
                  f"counts repeat: {counts_repeat}; "
                  f"hermite calls: {totals[0]['counts']['hermite.calls']}; "
                  f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
        else:
            rounds = timed_run(cli, workload, inputs, out_path, args.seconds)
            ops = [op for r in rounds for op in r]
            metrics = end_to_end_metrics(ops, setup_s)
            raw = end_to_end_metrics(ops, setup_s, scaled=False)
            beyond = len(ops) - math.ceil(0.9 * len(ops))
            print(f"samples: {len(ops)} ops in {sum(1 for r in rounds if r)} rounds over "
                  f"{len(inputs)} inputs; p50 and p90 are over all ops, {beyond} beyond p90")
            kernel_ms = 1000 * statistics.median(op.kernel_s for op in ops)
            print(f"host: reference kernel median {kernel_ms:.2f} ms around an op, "
                  f"nominal {REFERENCE_NOMINAL_MS:.2f} ms; unscaled p50 "
                  f"{raw['op_ms_p50']:.2f} ms, p90 {raw['op_ms_p90']:.2f} ms, "
                  f"ops/s {raw['ops_per_s']:.3f}")
        if workload.exact:
            print(f"digest: sha256 {digest(ops[:workload.pass_ops])} "
                  f"over the outputs of the first {workload.pass_ops} ops")
    finally:
        out_path.unlink(missing_ok=True)
    print(json.dumps(result(correct, ops, units(metrics))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
