"""Batch driver: seeded random suites, single solves, and report handling.

Commands
    verify   run the invariant suite over seeded random forms
    solve    solve du = f or dbar u = g from a serialized form
    lelong   run the ddbar pipeline on a (1,1)-form or a potential
    report   summarize a JSON-lines report and export CSV

Exit codes: 0 success, 1 check/solve failure, 2 usage or config error.
Reports are JSON-lines, one record per check plus a summary record; records
are sorted by trial so identical (config, seed) runs are byte-identical.

Both modes compute exactly and verify compares every identity with ==; the
mode is how numbers are written: fraction strings, or each result rounded
once to a double (a value beyond the double range exits 1 with no output).
The input file picks the gate of a solve: a file of JSON numbers, read at
their exact double values, solves within --tolerance, as it may be closed
only up to the rounding of its doubles; any other input must be exactly closed.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import json
import math
import random
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .bridge import (decompose_11, recompose_11, solve_poincare_lelong_full,
                     split_bidegree)
from .calculus import ComplexForm, PForm, codifferential, ddbar, exterior_d
from .errors import DegreeOverflowError, GaussHodgeError, NotClosedError
from .fields import REAL
from .identities import (bochner_identity_report, conjugation_identities_check,
                         d_norm_expansion_report, ddbar_adjoint_identity_report)
from .potentials import parse_potential
from .randomforms import (random_complex_function, random_complexform11,
                          random_pform)
from .scalars import fraction_str, render_value, to_double
from .solver import solve_d_min_norm, solve_dbar_min_norm

MEASURE_NOTE = "normalized Gaussian pi^(-m/2) exp(-|x|^2) dx"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _number(mode: str | None):
    """How a rational is written: the nearest double in float mode, else a fraction string."""
    return to_double if mode == "float" else fraction_str


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_trial(args, trial: int) -> list[dict]:
    rng = random.Random(args.seed * 1_000_003 + trial)
    cap = args.degree
    n = args.n
    number = _number(args.mode)
    records: list[dict] = []

    def rec(check: str, ok: bool, **extra):
        row = {"trial": trial, "check": check, "pass": bool(ok)}
        for key, val in extra.items():
            row[key] = render_value(val, number)
        records.append(row)

    data_degree = max(0, cap - 2)

    # real-side invariants on R^n, cycling the form degree
    for p in range(0, min(n, 3)):
        u = random_pform(rng, n, p, cap, data_degree, REAL)
        du = exterior_d(u)
        ddu_sq = exterior_d(du).norm_sq()
        rec("dd_zero", ddu_sq == 0, n=n, p=p, residual_sq=ddu_sq)

        alpha = random_pform(rng, n, p + 1, cap, data_degree, REAL)
        lhs = du.weighted_inner(alpha)
        rhs = u.weighted_inner(codifferential(alpha))
        rec("adjoint_duality", lhs == rhs, n=n, p=p, lhs=lhs, rhs=rhs)

        expansion = d_norm_expansion_report(alpha)
        rec("d_norm_expansion", expansion.equal, n=n, p=p,
            lhs=expansion.lhs, rhs=expansion.rhs)

        bochner = bochner_identity_report(alpha)
        rec("bochner_identity", bochner.identity_holds, n=n, p=p,
            lhs=bochner.lhs_adjoint + bochner.lhs_d,
            rhs=bochner.rhs_hessian + bochner.rhs_gradient)
        rec("coercivity_margin", bochner.coercivity_margin >= 0, n=n, p=p,
            margin=bochner.coercivity_margin)

    # complex-side invariants on C^n
    f11 = random_complexform11(rng, n, cap, data_degree)
    f1, f2 = decompose_11(f11)
    f11_sq = f11.norm_sq()
    lhs = f1.norm_sq() + f2.norm_sq()
    rhs = 4 * f11_sq
    rec("decompose_norm_identity", lhs == rhs, n=n, lhs=lhs, rhs=rhs)
    back = recompose_11(f1, f2)
    diff_sq = (back - f11).norm_sq()
    rec("decompose_roundtrip", diff_sq == 0, n=n, residual_sq=diff_sq)

    v = random_pform(rng, 2 * n, 1, cap, data_degree, REAL)
    v10, v01 = split_bidegree(v)
    lhs = v10.norm_sq()
    quarter = v.norm_sq() / 4
    rec("split_norm_identity", lhs == quarter == v01.norm_sq(), n=n, lhs=lhs, rhs=quarter)

    u_c = random_complex_function(rng, n, cap, data_degree)
    ca, cb, cc = conjugation_identities_check(u_c)
    rec("conjugation_dbar", ca, n=n)
    rec("mixed_partials_anticommute", cb, n=n)
    rec("ddbar_composes", cc, n=n)

    small_degree = max(0, min(data_degree, 3))
    alpha11 = random_complexform11(rng, n, cap, small_degree)
    adj = ddbar_adjoint_identity_report(alpha11)
    rec("ddbar_adjoint_duality", adj.duality_exact, n=n)
    rec("ddbar_adjoint_identity_report", True, n=n, lhs=adj.lhs, rhs=adj.rhs,
        discrepancy=adj.discrepancy)

    return records


def cmd_verify(args) -> int:
    """Run the invariant suite with the parsed verify arguments."""
    mode = args.mode or "exact"
    records = [row for t in range(args.trials) for row in _verify_trial(args, t)]
    records.sort(key=lambda r: (r["trial"], r["check"]))
    failed = [r for r in records if not r["pass"]]
    summary = {
        "summary": True,
        "command": "verify",
        "mode": mode,
        "n": args.n,
        "degree": args.degree,
        "trials": args.trials,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "measure": MEASURE_NOTE,
        "checks": len(records),
        "passed": len(records) - len(failed),
        "failed": len(failed),
    }
    _write("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records + [summary]), args.output)
    if failed:
        print(f"verify: {len(failed)} check(s) failed; first: "
              f"{json.dumps(failed[0], sort_keys=True)}", file=sys.stderr)
        return EXIT_FAIL
    print(f"verify: {len(records)} checks passed "
          f"({args.trials} trials, mode={mode}, n={args.n})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    """Solve the --equation of the parsed solve arguments on its --input."""
    if args.equation == "d":
        read, solve = PForm.from_json, solve_d_min_norm
    else:
        read = functools.partial(ComplexForm.from_json, bidegree=(0, 1))
        solve = solve_dbar_min_norm
    form, mode, gate = _read_form(args, read)
    u, report = _solve(solve, form, gate)
    rendered = _write_solution(args.output, mode, args.equation, u, report)
    ok = report.bound_satisfied
    print(f"solve {args.equation}: ratio {rendered['ratio']} vs bound "
          f"{rendered['bound_constant']}; "
          f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# lelong
# ---------------------------------------------------------------------------


def cmd_lelong(args) -> int:
    """Run the ddbar pipeline on the parsed --input or --from-potential."""
    if args.from_potential is not None:
        # ddbar of a potential is exactly closed, so it solves at gate 0
        mode = args.mode or "exact"
        form, gate = ddbar(parse_potential(args.from_potential, args.n, args.degree,
                                           double_literals=mode == "float")), 0
    else:
        form, mode, gate = _read_form(args, functools.partial(
            ComplexForm.from_json, bidegree=(1, 1)))
    u, report = _solve(solve_poincare_lelong_full, form, gate)
    rendered = _write_solution(args.output, mode, "ddbar", u, report, args.from_potential)
    ok = report.final.bound_satisfied
    print(f"lelong: final ratio {rendered['final_ratio']} vs bound 2; "
          f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _records(text: str) -> list[dict]:
    """The records of a JSON-lines report, one per non-blank line: JSON
    objects with a string "check" or with "summary": true."""
    rows = [json.loads(line) for line in text.split("\n") if line.strip()]
    for row in rows:
        if not isinstance(row, dict) or not (isinstance(row.get("check"), str)
                                             or row.get("summary") is True):
            raise TypeError('each line must be an object with a string "check" or "summary": true')
    return rows


def cmd_report(input_path: str, output: str | None) -> int:
    rows = _read_input(input_path, _records)
    if not rows:
        print("report: input is empty", file=sys.stderr)
        return EXIT_FAIL
    checks = [r for r in rows if not r.get("summary")]
    summaries = [r for r in rows if r.get("summary")]

    by_check: dict[str, list[dict]] = {}
    for r in checks:
        by_check.setdefault(r["check"], []).append(r)
    print(f"report: {len(checks)} check records, {len(summaries)} summary record(s)")
    for name in sorted(by_check):
        group = by_check[name]
        passed = sum(1 for r in group if r.get("pass"))
        print(f"  {name}: {passed}/{len(group)} pass")
    if summaries:
        s = summaries[-1]
        print(f"  summary: passed={s.get('passed')} failed={s.get('failed')} "
              f"mode={s.get('mode')} seed={s.get('seed')}")

    if output:
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=sorted({key for r in rows for key in r}),
                                restval="")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: json.dumps(v) if isinstance(v, (dict, list)) else v
                             for k, v in r.items()})
        _write(text.getvalue(), output, newline="")
        print(f"report: wrote CSV to {output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _read_input(path: str, decode):
    """decode(text) of an --input file.  A file that cannot be read and
    malformed content, including a coefficient degree above its field's own
    capacity, are usage errors (ValueError) naming the path."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"bad input: {type(exc).__name__}: cannot read {path}: "
                         f"{exc.strerror}") from None
    with fh:
        try:
            return decode(fh.read())
        except (AttributeError, DegreeOverflowError, IndexError, KeyError, RecursionError,
                TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad input {path}: {type(exc).__name__}: {exc}") from None


def _has_numbers(tree) -> bool:
    """Whether a form file writes any coefficient part ("re" or "im") as a
    JSON number rather than a fraction string, which makes it a float file."""
    if isinstance(tree, dict):
        return (any(not isinstance(tree[key], str) for key in ("re", "im") if key in tree)
                or any(_has_numbers(value) for value in tree.values()))
    return isinstance(tree, list) and any(_has_numbers(value) for value in tree)


def _read_form(args, read):
    """(form, mode, gate) of the --input file: the form read(data), the mode
    of the file unless --mode was given (--mode float writes exact input as
    doubles, --mode exact refuses a float file), and the gate of its solve:
    --tolerance for a float file, 0 for an exact one."""
    def decode(text):
        data = json.loads(text)
        return read(data), _has_numbers(data)

    form, numbers = _read_input(args.input, decode)
    if numbers and args.mode == "exact":
        raise ValueError("--mode exact cannot be applied to float-mode input")
    mode = args.mode or ("float" if numbers else "exact")
    return form, mode, args.tolerance if numbers else 0


def _solve(solve, form, gate: float):
    """solve(form, gate).  A NotClosedError names its residual_sq: a fraction,
    or for a float file (gate > 0) three significant digits of the exact value."""
    try:
        return solve(form, gate)
    except NotClosedError as exc:
        r = exc.residual_norm_sq
        digits = decimal.Context(prec=3, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
        shown = f"{digits.divide(r.numerator, r.denominator):.2e}" if gate else r
        raise NotClosedError(f"{exc} (residual_sq={shown})", r) from None


def _write(text: str, output: str | None, newline: str | None = None):
    """Write text to --output, else stdout; a failed write names the file (ValueError)."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror}") from None


def _write_solution(output: str | None, mode: str, equation: str, u, report,
                    potential: str | None = None) -> dict:
    """Write a solve's file to ``output`` (stdout if None), its numbers in
    ``mode``: equation, measure, u, report and the potential u came from, if
    any.  Returns the report as written."""
    number = _number(mode)
    rendered = report.to_json(number)
    payload = {"equation": equation, "measure": MEASURE_NOTE,
               "solution": u.to_json(number), "report": rendered}
    if potential is not None:
        payload["from_potential"] = potential
    _write(_json_text(payload) + "\n", output)
    return rendered


def _json_text(tree) -> str:
    """json.dumps(tree, sort_keys=True, indent=2) of a tree whose dict keys
    are strings, except that a NaN or an infinity raises ValueError, as with
    allow_nan=False.  json.dumps runs its pure-Python encoder whenever it
    indents; here every string goes through the C function that json quotes
    with, and ints and floats are written as their repr, as json writes them."""
    chunks: list[str] = []
    _indented(tree, "\n", chunks.append)
    return "".join(chunks)


def _indented(value, newline: str, out):
    """Pass the text of ``value`` to ``out`` in pieces (see _json_text);
    ``newline`` is the line break and indent of the line it starts on.  The
    common leaves, a string in a dict and an int in a list, are written by
    their container."""
    if isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            head = sep + encode_basestring_ascii(key) + ": "
            if isinstance(item, str):
                out(head + encode_basestring_ascii(item))
            else:
                out(head)
                _indented(item, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            if type(item) is int:
                out(sep + int.__repr__(item))
            else:
                out(sep)
                _indented(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(value, str):
        out(encode_basestring_ascii(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="gauss-hodge",
        description="Exactly verified weighted exterior calculus and solvers "
                    "under the Gaussian weight.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--mode", choices=("exact", "float"), default=None,
                       help="how numbers are written; the arithmetic is exact in "
                            "both: exact writes fraction strings, float writes each "
                            "result rounded once to a double (default: exact; "
                            "solve/lelong take the mode of their input file)")
        p.add_argument("--tolerance", type=float, default=1e-10,
                       help="relative tolerance of the closedness and residual "
                            "gates for an input file that holds JSON numbers; any "
                            "other input, and every verify identity, requires "
                            "equality")
        p.add_argument("--output", default=None, help="report file path")

    def add_size(p: argparse.ArgumentParser):
        p.add_argument("--n", type=int, default=2,
                       help="real dimension for d-suites, complex dimension for "
                            "dbar/lelong suites")
        p.add_argument("--degree", type=int, default=8,
                       help="Hermite capacity (max total degree)")

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    add_common(p_verify)
    add_size(p_verify)
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)

    p_solve = sub.add_parser("solve", help="solve du=f or dbar u=g from a JSON form")
    add_common(p_solve)
    p_solve.add_argument("--equation", choices=("d", "dbar"), required=True)
    p_solve.add_argument("--input", required=True)

    p_lelong = sub.add_parser("lelong", help="solve ddbar u = f")
    add_common(p_lelong)
    add_size(p_lelong)
    group = p_lelong.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", default=None, help="(1,1)-form JSON file")
    group.add_argument("--from-potential", default=None,
                       help="potential expression, e.g. 'z*conj(z)'")

    p_report = sub.add_parser("report", help="summarize a JSONL report, export CSV")
    p_report.add_argument("--input", required=True)
    p_report.add_argument("--output", default=None, help="CSV output path")
    return parser


def main(argv=None) -> int:
    """Run one command.  Every failure prints one stderr line starting with
    the command name: bad input or configuration exits 2, an input that is
    not closed, a capacity overflow or a failed certificate exits 1."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    # exact values of any size; the caller's int <-> str digit limit comes back
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.command == "report":
            return cmd_report(args.input, args.output)
        # the first out-of-range setting among those the command reads;
        # lelong --input reads its sizes from the file
        if getattr(args, "from_potential", "") is not None:
            for key, low, name in (("n", 1, "n"), ("degree", 2, "capacity (--degree)"),
                                   ("trials", 1, "trials")):
                if getattr(args, key, low) < low:
                    raise ValueError(f"{name} must be >= {low}")
        if not (0 < args.tolerance < 1):
            raise ValueError("tolerance must be in (0, 1)")
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_lelong(args)
    except NotClosedError as exc:
        code, message = EXIT_FAIL, f"input is not closed: {exc}"
    except DegreeOverflowError as exc:
        code, message = EXIT_FAIL, f"{exc} (required capacity {exc.required_capacity})"
    except ValueError as exc:  # bad input or configuration, DomainError included
        code, message = EXIT_USAGE, str(exc)
    except OSError as exc:  # one that no file path names, such as writing stdout
        code, message = EXIT_USAGE, f"I/O error: {exc.strerror or exc}"
    except GaussHodgeError as exc:
        code, message = EXIT_FAIL, str(exc)
    finally:
        sys.set_int_max_str_digits(limit)
    print(f"{args.command}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
