"""Byte identity of the CLI: one sha256 over what a fixed list of commands writes.

Run from anywhere inside the repository:

    python3 tools/digest.py          # the digest of this checkout
    python3 tools/digest.py REF      # the same commands under REF too; exit 1 if they differ

The commands are every workload's pool in bench/workloads.py for the seeds
in SEEDS, ``verify --mode float``, ``solve --equation d``, ``solve
--equation dbar`` and ``lelong --input`` each on an exact and a float file,
``lelong`` on a potential whose ddbar is zero, ``lelong --input`` on a zero
(1,1)-form in an exact file and in a float file of explicit zero entries, a
solve of a form that is not closed and ``lelong --input`` on an exact and a
float (1,1)-form that are not closed (exit 1), a solve of a file that is not
JSON (exit 2), and ``report --input`` on a verify JSON-lines file (exit 0,
writing its CSV), on an empty file (exit 1) and on a line that is not a check
(exit 2).  The input files are written once, from a fixed seed, by this
checkout's package, into a temporary directory that is every command's
working directory; each is named by its role, and every command writes its
``--output`` to OUTPUT there, so no temporary path reaches the digest.  For
each command in order, its argv, its exit code, its stdout and stderr and its
output bytes go into the hash.

REF (a commit, branch or tag) is extracted with tools/ab.py's ``extract``.
Each side runs all the commands in one child process that imports the
package from that tree's ``src``.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)
INPUT_SEED = 20240817
OUTPUT = "output"
REPORT_INPUTS = ("verify.jsonl", "empty.jsonl", "not-a-check.jsonl")


def _load(name: str, path: Path):
    """The module at ``path``, imported under ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def commands() -> list[list[str]]:
    """The argv lists, in order; file arguments are names in the working directory."""
    workloads = _load("digest_workloads", ROOT / "bench" / "workloads.py").WORKLOADS
    out = [argv for w in workloads.values() for seed in SEEDS
           for argv in w.inputs(seed, w.pool)]
    out.append(["verify", "--mode", "float", "--n", "2", "--degree", "6",
                "--trials", "2", "--seed", "7"])
    for mode in ("exact", "float"):
        out += [["solve", "--equation", "d", "--input", f"d-{mode}.json"],
                ["solve", "--equation", "dbar", "--input", f"dbar-{mode}.json"],
                ["lelong", "--input", f"ddbar-{mode}.json"]]
    out += [["lelong", "--from-potential", "z1 + conj(z2) + z1*z2 + 3", "--n", "2",
             "--degree", "4"],
            ["lelong", "--input", "ddbar-zero-exact.json"],
            ["lelong", "--input", "ddbar-zero-float.json"],
            ["solve", "--equation", "d", "--input", "not-closed.json"],
            ["lelong", "--input", "ddbar-open-exact.json"],
            ["lelong", "--input", "ddbar-open-float.json"],
            ["solve", "--equation", "d", "--input", "not-json.json"]]
    out += [["report", "--input", name] for name in REPORT_INPUTS]
    return out


def _write_inputs():
    """The input files of commands(), in the working directory: closed forms
    for d, dbar and ddbar, each exact and then scaled by 1/3 and rounded to
    doubles, a zero (1,1)-form, exact and as doubles that write each entry's
    zero, a 2-form that is not closed, a (1,1)-form that is not closed, the
    doubles of its real part times 2^-40 plus i/3 times a closed real
    (1,1)-form, open only in its small real part, a file that is not JSON, and
    REPORT_INPUTS: a verify report, an empty file and a record with no check."""
    from gauss_hodge.calculus import ComplexForm
    from gauss_hodge.cli import main
    from gauss_hodge.randomforms import (random_closed_complexform11, random_closed_pform,
                                         random_complexform11, random_dbar_closed_form01,
                                         random_pform)
    from gauss_hodge.scalars import QC, fraction_str, to_double

    rng = random.Random(INPUT_SEED)
    forms = {"d": random_closed_pform(rng, 3, 2, 8, 3),
             "dbar": random_dbar_closed_form01(rng, 2, 8, 3),
             "ddbar": random_closed_complexform11(rng, 2, 8, 4)[1]}
    for role, form in forms.items():
        Path(f"{role}-exact.json").write_text(json.dumps(form.to_json(fraction_str)))
        Path(f"{role}-float.json").write_text(
            json.dumps(form.scale(Fraction(1, 3)).to_json(to_double)))
    zero = ComplexForm(2, (1, 1), 8).to_json(fraction_str)
    Path("ddbar-zero-exact.json").write_text(json.dumps(zero))
    for entry in (entry for row in zero["entries"] for entry in row):
        entry["coeffs"] = [{"deg": [0, 0, 0, 0], "re": 0.0, "im": 0.0},
                           {"deg": [2, 0, 1, 1], "re": 0.0, "im": -0.0}]
    Path("ddbar-zero-float.json").write_text(json.dumps(zero))
    Path("not-closed.json").write_text(json.dumps(random_pform(rng, 3, 2, 8, 3).to_json()))
    opened = random_complexform11(rng, 2, 8, 3)
    closed = random_closed_complexform11(rng, 2, 8, 4)[1]
    Path("ddbar-open-exact.json").write_text(json.dumps(opened.to_json(fraction_str)))
    small, large = ((f + f.conjugate()).scale(s) for f, s in (
        (opened, Fraction(1, 2 ** 41)), (closed, QC(0, Fraction(1, 6)))))
    Path("ddbar-open-float.json").write_text(json.dumps((small + large).to_json(to_double)))
    Path("not-json.json").write_text("{")
    with redirect_stdout(io.StringIO()):  # stdout carries the child's result
        main(["verify", "--n", "2", "--degree", "4", "--trials", "2", "--seed", "3",
              "--output", REPORT_INPUTS[0]])
    Path(REPORT_INPUTS[1]).write_text("")
    Path(REPORT_INPUTS[2]).write_text('{"trial": 0, "pass": true}\n')


def _run_commands(argvs: list) -> dict:
    """Run each argv through cli.main here; {"digest": hex sha256, "codes": exit codes}."""
    from gauss_hodge.cli import main

    digest = hashlib.sha256()
    codes = []
    output = Path(OUTPUT)
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--output", OUTPUT])
        written = b"+" + output.read_bytes() if output.exists() else b"-"
        output.unlink(missing_ok=True)
        codes.append(code)
        for part in (json.dumps(argv).encode(), str(code).encode(),
                     out.getvalue().encode(), err.getvalue().encode(), written):
            digest.update(len(part).to_bytes(8, "big") + part)
    return {"digest": digest.hexdigest(), "codes": codes}


def _child(src: Path, workdir: Path, request: dict) -> dict:
    """One child process with ``src`` first on its path, run in ``workdir``."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(src)],
                          cwd=workdir, input=json.dumps(request), capture_output=True,
                          text=True)
    if proc.returncode:
        raise RuntimeError(f"child for {src} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def write_inputs(src: Path, workdir: Path):
    """Write the input files of commands() into ``workdir`` with the package in ``src``."""
    _child(src, workdir, {"write_inputs": True})


def run(src: Path, argvs: list, workdir: Path) -> dict:
    """{"digest", "codes"} of the commands under the package in ``src``."""
    return _child(src, workdir, {"commands": argvs})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", nargs="?", help="a git commit, branch or tag to compare with")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        sys.path.insert(0, args.child)
        request = json.load(sys.stdin)
        if request.get("write_inputs"):
            _write_inputs()
            result = {}
        else:
            result = _run_commands(request["commands"])
        print(json.dumps(result))
        return 0

    argvs = commands()
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        workdir = Path(tmp) / "work"
        workdir.mkdir()
        write_inputs(ROOT / "src", workdir)
        sides = {"this checkout": ROOT / "src"}
        if args.ref:
            base = Path(tmp) / "base"
            _load("digest_ab", ROOT / "tools" / "ab.py").extract(args.ref, base)
            sides[args.ref] = base / "src"
        digests = set()
        for name, src in sides.items():
            result = run(src, argvs, workdir)
            counts = {code: result["codes"].count(code) for code in sorted(set(result["codes"]))}
            print(f"{result['digest']}  {name}: {len(argvs)} commands, exit codes {counts}")
            digests.add(result["digest"])
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
