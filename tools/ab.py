"""Alternating A/B runs of the benchmark: a git ref against this checkout.

Run from anywhere inside the repository:

    python3 tools/ab.py REF --workload lelong-exact --pairs 10 --seed 7 --seed 11

With ``--record PATH`` it also writes the summary as JSON (see record), a
perf trajectory file to keep with the change.

REF (a commit, branch or tag) is extracted with ``git archive`` into a
temporary directory, so the repository's .git is only read.  Each pair runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in that tree (base) and once in this checkout (change); the side that
goes first alternates from pair to pair, and pair k uses the k-th seed given,
cycling.  For every workload and end-to-end metric of BENCHMARK.json it then
prints each side's median with its quartiles, the number of pairs the change
won, and a verdict:

    gain   the change won at least 9 in 10 of the pairs, and its median is
           better than the base's by more than the base's quartile spread;
    worse  its median is worse than the base's by more than the metric's
           ``bound`` in BENCHMARK.json times the base median;
    -      neither.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of the values, by the inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(row: dict, direction: str, bound=None) -> str:
    """"gain", "worse" or "-" for one summary row (see the module docstring);
    without a bound a row is never "worse"."""
    (bq1, bm, bq3), (_, cm, _) = row["base"], row["change"]
    gained = (bm - cm) if direction == "lower" else (cm - bm)
    if 10 * row["won"] >= 9 * row["pairs"] and gained > bq3 - bq1:
        return "gain"
    if bound is not None and -gained > bound * abs(bm):
        return "worse"
    return "-"


def summarize(pairs: list, better: dict, bounds=None) -> dict:
    """Per metric of ``better`` (name -> "lower" or "higher"), over the
    (base, change) pairs of metric maps: {"base": (q1, median, q3),
    "change": (q1, median, q3), "won": pairs where the change is strictly
    better, "pairs": pairs that have the metric on both sides, "verdict":
    see verdict, with the bound of ``bounds`` (name -> bound)}."""
    out = {}
    for name, direction in better.items():
        both = [(b[name], c[name]) for b, c in pairs if name in b and name in c]
        if not both:
            continue
        sign = 1 if direction == "lower" else -1
        row = out[name] = {"base": quartiles([b for b, _ in both]),
                           "change": quartiles([c for _, c in both]),
                           "won": sum(1 for b, c in both if sign * (c - b) < 0),
                           "pairs": len(both)}
        row["verdict"] = verdict(row, direction, (bounds or {}).get(name))
    return out


def format_summary(workload: str, summary: dict) -> str:
    lines = [f"{workload}:"]
    for name, row in summary.items():
        (bq1, bm, bq3), (cq1, cm, cq3) = row["base"], row["change"]
        change = f"{100 * (cm - bm) / bm:+.1f}%" if bm else "n/a"
        lines.append(f"  {name}: base {bm:.4g} [{bq1:.4g}, {bq3:.4g}]  "
                     f"change {cm:.4g} [{cq1:.4g}, {cq3:.4g}]  {change}  "
                     f"won {row['won']}/{row['pairs']}  {row['verdict']}")
    return "\n".join(lines)


def record(refs: dict, seeds: list, pairs: int, seconds: float, summaries: dict) -> dict:
    """The JSON record of one run: the refs compared ({"base": ..., "change":
    ...}), the seeds, pairs and seconds per run, and per workload and metric
    the summary row of summarize: base and change quartiles (q1, median,
    q3), the pairs won, the pairs and the verdict."""
    return {"refs": refs, "seeds": seeds, "pairs": pairs, "seconds": seconds,
            "workloads": summaries}


def describe(*args: str) -> str:
    """``git describe --always`` of a ref, or with --dirty of the checkout."""
    return subprocess.run(["git", "-C", str(ROOT), "describe", "--always", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


def extract(ref: str, into: Path):
    """The files of ``ref`` under ``into``, by git archive."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one bench/run.py run in ``tree``; a run that
    fails or reports an incorrect op raises RuntimeError."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"bench in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"bench in {tree}: {result['failed']} failed ops, "
                           f"correct={result['correct']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", help="the base: a git commit, branch or tag")
    parser.add_argument("--workload", action="append",
                        help="a workload of bench/workloads.py (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append",
                        help="bench seed (repeatable, cycled over the pairs; default: 7)")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the summary as JSON to this path")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"] if "bound" in m}
    seeds = args.seed or [7]
    summaries = {}
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base = Path(tmp)
        extract(args.ref, base)
        for workload in workloads:
            pairs = []
            for k in range(args.pairs):
                seed = seeds[k % len(seeds)]
                order = [base, ROOT] if k % 2 == 0 else [ROOT, base]
                runs = {tree: run_bench(tree, workload, seed, args.seconds) for tree in order}
                pairs.append((runs[base], runs[ROOT]))
                print(f"{workload} pair {k + 1}/{args.pairs} seed {seed}: op_ms_p50 "
                      f"base {runs[base].get('op_ms_p50')} change {runs[ROOT].get('op_ms_p50')}",
                      file=sys.stderr, flush=True)
            summaries[workload] = summarize(pairs, better, bounds)
            print(format_summary(workload, summaries[workload]), flush=True)
    if args.record is not None:
        refs = {"base": describe(args.ref), "change": describe("--dirty")}
        args.record.write_text(json.dumps(record(refs, seeds, args.pairs, args.seconds,
                                                 summaries), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
