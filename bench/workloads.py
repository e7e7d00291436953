"""The benchmark's workloads: seeded argv lists for ``cli.main`` and the check of
what each op wrote.

An op is one ``cli.main(argv + ["--output", path])`` call. The argv of every
op is generated here from the workload seed alone; the program sees nothing
else. Why each workload exists is recorded in PROVENANCE.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

# (complex dimension n, potential degree D): the ROADMAP baseline sizes. D is
# also the Hermite capacity (--degree), which is exactly what the pipeline
# needs: f = ddbar w has degree D - 2 and the solves need two above that.
LELONG_SIZES = ((1, 6), (2, 5), (3, 4))
MONOMIALS = 3
MAX_COEFFICIENT = 9
# Every seed's potentials use the same SHAPES_PER_SIZE sets of monomial
# exponents for each size, in turn; the seed picks the coefficients and
# relabels the variables. An op's cost depends mostly on the shapes, so runs
# on different seeds do the same work while each run still covers many
# shapes (PROVENANCE.md gives the measurements).
SHAPES_PER_SIZE = 16

# The CLI's default --tolerance; the float ops do not override it.
FLOAT_TOLERANCE = 1e-10
# Largest coefficient of ddbar(u - w), relative to the largest of ddbar w,
# that the independent check accepts from a float solution u.
FLOAT_SOLUTION_TOLERANCE = 1e-6

VERIFY_N = 2
VERIFY_DEGREE = 8
VERIFY_TRIALS = 2
# Each verify trial writes 5 records per real form degree p < min(n, 3) and 8
# complex-side records; the summary record comes last.
VERIFY_CHECKS = VERIFY_TRIALS * (5 * min(VERIFY_N, 3) + 8)


class CheckFailed(Exception):
    """An op exited 0 but its output does not satisfy the workload's check."""


@dataclass(frozen=True)
class Workload:
    """One named op mix.

    ``inputs(seed, count)`` returns the first ``count`` argv lists of the
    seed's op sequence. ``check(data)`` raises CheckFailed unless ``data``, the
    bytes an op wrote, is a correct answer. ``exact`` marks workloads whose
    output bytes are digested. A timed run takes ``pool`` inputs; the digest
    and each trace pass cover the first ``pass_ops`` of them.
    """

    name: str
    inputs: Callable[[int, int], list[list[str]]]
    check: Callable[[bytes], None]
    exact: bool
    pool: int
    pass_ops: int


def _variable(n: int, j: int, conjugated: bool) -> str:
    name = "z" if n == 1 else f"z{j}"
    return f"conj({name})" if conjugated else name


def _monomial(rng: random.Random, n: int, degree: int) -> tuple:
    """Exponents of z^a conj(z)^b with |a| + |b| = degree and |a|, |b| >= 1."""
    holomorphic = rng.randint(1, degree - 1)
    exponents: dict[tuple[bool, int], int] = {}
    for conjugated, count in ((False, holomorphic), (True, degree - holomorphic)):
        for _ in range(count):
            key = (conjugated, rng.randint(1, n))
            exponents[key] = exponents.get(key, 0) + 1
    return tuple(sorted(exponents.items()))


@lru_cache(maxsize=None)
def _shapes(n: int, degree: int) -> tuple:
    """SHAPES_PER_SIZE sets of MONOMIALS distinct monomials, the same for every seed."""
    rng = random.Random(f"lelong shapes {n} {degree}")
    shapes = []
    while len(shapes) < SHAPES_PER_SIZE:
        monomials: set[tuple] = set()
        while len(monomials) < MONOMIALS:
            monomials.add(_monomial(rng, n, degree))
        shapes.append(tuple(sorted(monomials)))
    return tuple(shapes)


def potential(rng: random.Random, n: int, shape: tuple) -> str:
    """The monomials of ``shape`` with variables relabelled by a random
    permutation and coefficients in +-1..9.

    Every monomial has a z factor and a conj(z) factor, so no nonzero
    combination of them is pluriharmonic and f = ddbar w is never zero. The
    degree is fixed at the capacity because an op's cost depends mostly on it;
    a fixed degree keeps the cost of a run steady from seed to seed.
    """
    relabel = rng.sample(range(1, n + 1), n)
    terms = []
    for monomial in shape:
        coefficient = rng.randint(1, MAX_COEFFICIENT) * rng.choice((1, -1))
        factors = "*".join(_variable(n, j, conjugated) + (f"**{e}" if e > 1 else "")
                           for (conjugated, j), e in sorted(
                               ((conjugated, relabel[j - 1]), e)
                               for (conjugated, j), e in monomial))
        terms.append(f"{coefficient}*{factors}")
    return " + ".join(terms).replace("+ -", "- ")


def lelong_inputs(mode: str) -> Callable[[int, int], list[list[str]]]:
    """Ops cycling through LELONG_SIZES; both modes draw the same potentials from a seed."""

    def inputs(seed: int, count: int) -> list[list[str]]:
        rng = random.Random(seed)
        out = []
        for k in range(count):
            n, degree = LELONG_SIZES[k % len(LELONG_SIZES)]
            shape = _shapes(n, degree)[k // len(LELONG_SIZES) % SHAPES_PER_SIZE]
            argv = ["lelong", "--from-potential", potential(rng, n, shape),
                    "--n", str(n), "--degree", str(degree)]
            if mode == "float":
                argv += ["--mode", "float"]
            out.append(argv)
        return out

    return inputs


def verify_inputs(seed: int, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [["verify", "--mode", "exact", "--n", str(VERIFY_N), "--degree", str(VERIFY_DEGREE),
             "--trials", str(VERIFY_TRIALS), "--seed", str(rng.randrange(2 ** 31))]
            for _ in range(count)]


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# The independent check of a lelong solution. It shares no code with the
# package: polynomials in the real coordinates x_1..x_2n, where
# z_j = x_{2j-1} + i x_{2j}, are dicts from exponent tuples to complex
# rationals, written as (re, im) pairs of Fractions.

def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, (ar, ai) in p.items():
        for eb, (br, bi) in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            cr, ci = out.get(e, (0, 0))
            out[e] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
    return out


def _poly_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, (qr, qi) in q.items():
        cr, ci = out.get(e, (0, 0))
        out[e] = (cr + sign * qr, ci + sign * qi)
    return out


def _partial(p: dict, axis: int) -> dict:
    out = {}
    for e, (cr, ci) in p.items():
        if e[axis]:
            lowered = e[:axis] + (e[axis] - 1,) + e[axis + 1:]
            out[lowered] = (cr * e[axis], ci * e[axis])
    return out


def _ddbar_entry(p: dict, j: int, k: int) -> dict:
    """4 d^2 p / dz_j dzbar_k for 0-based j, k:
    (d_xj d_xk + d_yj d_yk) + i (d_xj d_yk - d_yj d_xk)."""
    xj, yj, xk, yk = 2 * j, 2 * j + 1, 2 * k, 2 * k + 1
    real = _poly_add(_partial(_partial(p, xj), xk), _partial(_partial(p, yj), yk))
    imag = _poly_add(_partial(_partial(p, xj), yk), _partial(_partial(p, yj), xk), -1)
    return _poly_add(real, {e: (-ci, cr) for e, (cr, ci) in imag.items()})


@lru_cache(maxsize=None)
def _hermite(k: int) -> tuple:
    """Coefficients of the physicists' Hermite polynomial H_k, lowest power first:
    H_0 = 1, H_1 = 2x, H_{k+1} = 2x H_k - 2k H_{k-1}."""
    if k == 0:
        return (1,)
    if k == 1:
        return (0, 2)
    h, prev = _hermite(k - 1), _hermite(k - 2)
    return tuple(2 * (h[i - 1] if i else 0) - 2 * (k - 1) * (prev[i] if i < len(prev) else 0)
                 for i in range(k + 1))


def _solution_poly(field: dict) -> dict:
    """The polynomial of a written ScalarField: a sum of c_d prod_i H_{d_i}(x_i)."""
    out: dict = {}
    for entry in field["coeffs"]:
        term = {(): (Fraction(entry["re"]), Fraction(entry["im"]))}
        for k in entry["deg"]:
            term = {e + (power,): (cr * h, ci * h)
                    for e, (cr, ci) in term.items()
                    for power, h in enumerate(_hermite(k)) if h}
        out = _poly_add(out, term)
    return out


def _potential_poly(text: str, n: int) -> dict:
    """The polynomial of a potential written by potential(): terms
    ``c*f*f...`` joined by " + " and " - ", each factor z, zj or conj(...),
    possibly raised to a power."""
    out: dict = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coefficient, *factors = term.replace("**", "^").split("*")
        poly = {(0,) * (2 * n): (Fraction(int(coefficient)), Fraction(0))}
        for factor in factors:
            base, _, power = factor.partition("^")
            conjugated = base.startswith("conj(")
            j = int(base.strip("conj()z") or 1) - 1
            x, y = [0] * (2 * n), [0] * (2 * n)
            x[2 * j], y[2 * j + 1] = 1, 1
            linear = {tuple(x): (Fraction(1), Fraction(0)),
                      tuple(y): (Fraction(0), Fraction(-1 if conjugated else 1))}
            for _ in range(int(power or 1)):
                poly = _poly_mul(poly, linear)
        out = _poly_add(out, poly)
    return out


def _size(c: tuple) -> Fraction:
    return abs(c[0]) + abs(c[1])


def solution_check(payload: dict, exact: bool):
    """ddbar u = ddbar w for the written solution u and the potential w, so
    u - w is pluriharmonic: exactly in exact mode, and in float mode up to
    FLOAT_SOLUTION_TOLERANCE of the largest coefficient of ddbar w."""
    field = payload["solution"]
    n = field["m"] // 2
    u = _solution_poly(field)
    w = _potential_poly(payload["from_potential"], n)
    scale = max(_size(c) for j in range(n) for k in range(n)
                for c in _ddbar_entry(w, j, k).values())
    _require(scale > 0, "ddbar w is zero")
    difference = _poly_add(u, w, -1)
    worst = max((_size(c) for j in range(n) for k in range(n)
                 for c in _ddbar_entry(difference, j, k).values()), default=0)
    limit = 0 if exact else FLOAT_SOLUTION_TOLERANCE * scale
    _require(worst <= limit, f"ddbar(u - w) has a coefficient of size {float(worst):.3g}")


def lelong_check(exact: bool) -> Callable[[bytes], None]:
    """Every stage bound holds, the residual vanishes (exact) or is within
    tol^2 of the input norm (float), the final ratio is at most 2, and the
    solution passes solution_check."""

    def check(data: bytes):
        payload = json.loads(data)
        report = payload["report"]
        for stage, rep in report["stages"].items():
            _require(rep["bound_satisfied"] is True, f"stage {stage} bound not satisfied")
        final = report["final"]
        _require(final["bound_satisfied"] is True, "final bound not satisfied")
        if exact:
            _require(final["residual"] == "0", f"exact residual {final['residual']!r} != '0'")
            ratio = Fraction(report["final_ratio"])
        else:
            _require(final["residual"] <= FLOAT_TOLERANCE ** 2 * final["input_norm_sq"],
                     f"float residual {final['residual']!r} above tol^2 * input_norm_sq")
            ratio = report["final_ratio"]
        _require(ratio <= 2, f"final_ratio {report['final_ratio']!r} > 2")
        solution_check(payload, exact)

    return check


def verify_check(data: bytes):
    """The summary record reports no failed check out of the expected count."""
    lines = data.decode("utf-8").splitlines()
    summary = json.loads(lines[-1])
    _require(summary.get("summary") is True, "last record is not the summary")
    _require(summary["failed"] == 0, f"{summary['failed']} check(s) failed")
    _require(summary["checks"] == VERIFY_CHECKS,
             f"{summary['checks']} checks, expected {VERIFY_CHECKS}")
    _require(len(lines) == VERIFY_CHECKS + 1, f"{len(lines)} records written")


WORKLOADS = {w.name: w for w in (
    Workload("lelong-exact", lelong_inputs("exact"), lelong_check(True), True, 48, 12),
    Workload("lelong-float", lelong_inputs("float"), lelong_check(False), False, 96, 30),
    Workload("verify-exact", verify_inputs, verify_check, True, 24, 6),
)}
