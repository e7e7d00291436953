"""Byte-identity guard: outputs of fixed runs are pinned by sha256.

Exact arithmetic has one answer, so a change to how an operator sums its
terms must not move a single byte of what ``lelong`` and ``verify`` write.
The C1..C3 digests were taken from the package before the operators were
fused into one accumulation each; the ``-sums`` digests were taken before
potentials were parsed as z/zbar monomials and the dbar inverse became one
cached rule per degree vector.

Float mode computes exactly too and rounds each written value once to the
nearest double, so its output is the exact output rounded and has one
answer as well; ``test_float_lelong_agrees_with_exact`` and
``test_float_verify_is_the_exact_verify_rounded`` check that value by value.
The float ``lelong`` digests were re-pinned when float mode stopped
computing in double arithmetic: every value moved to the correctly rounded
exact one (C3 happened to be unchanged).  The float ``verify`` digests did
not move, since verify's integer data and its values are exact in doubles.
The ``verify`` digests on C^1 and C^3 were taken before the ddbar adjoint
display read its second derivatives from one table.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from gauss_hodge.cli import main

LELONG_DIGESTS = {
    "C1": (["--n", "1", "--degree", "6", "--from-potential",
            "z**3*conj(z)**3 - 3*z**3*conj(z) + 2/3*z*conj(z)**4 + i*z*conj(z)**2"],
           "456905fe61d82072d8911c1a461d244c1c6d69652e787d2aa60c8873483084f5"),
    "C2": (["--n", "2", "--degree", "5", "--from-potential",
            "z1**2*conj(z2)**2*conj(z1) - 5*z1*z2*conj(z2)**2"
            " + (2-i)/7*z2**2*conj(z1)**2 + z1*conj(z1)"],
           "e4b308471f549bc512ecb28921b6270ea8529eefa9560f4b04ac9c503da046ab"),
    "C3": (["--n", "3", "--degree", "4", "--from-potential",
            "z1*z2*conj(z3)**2 + 3*z3*conj(z1)*conj(z2)"
            " - i/2*z2**2*conj(z2)*conj(z3) + z1*conj(z1)*z3*conj(z3)"],
           "b65d47e0f6b8f25aa04f969ba1ca419bdec71537ec333809edcc1e7f681ce6e9"),
    # conj of a sum, a power of a sum, division by a constant and unary minus
    "C1-sums": (["--n", "1", "--degree", "6", "--from-potential",
                 "conj(z + 2*z**2)**2*(z - i)**2/3 - (z*conj(z) + 1)**3/5"],
                "60a3f62a4055c775134fec692036b0688d16282f08ecfca2fcd8522283aa7463"),
    "C2-sums": (["--n", "2", "--degree", "5", "--from-potential",
                 "conj(z1 + i*z2)**2*(z1 - 2*z2)**2*z1/7 + -(z1*conj(z2) - i)**2/3"],
                "c4c45cd78fcc499a9f237a19fbf7b4ae37f77c44f4f4eb01445e3ea84de94147"),
    "C3-sums": (["--n", "3", "--degree", "4", "--from-potential",
                 "conj(z1 + z2 - i*z3)**2*(z2 + 3*z3)**2/6 - (z1*conj(z1) + z3)**2/2"],
                "9e8f9191d1226aac8dfaa4caaceb424594f59b551765b1f50906ba8cb5db536b"),
}

FLOAT_LELONG_DIGESTS = {
    "C1": "4c12faf44625cdaa2bf3f8d2e79b652374b2c53e32611c8d04a22903b6bf3ec1",
    "C2": "b99dcccd9df153bf1288dc8bf77396c465a2f6631743b82f980ea564481e760b",
    "C3": "2f84c817d2224fe01d623a30bbc3b8f1eadcd30937f7ea123626daf69b0f1b9b",
    "C1-sums": "c41728e255e8bf98cd1786173d10a44c6e671215fcbfa38bee33b3fabba91e03",
    "C2-sums": "9d6775bdc76cb1a18a70caa7aa163f58b93a2af8aaaa140e8aa35b552e2e6dad",
    "C3-sums": "d4aff68ff06e18635bd433db40f21a1e11a0ad933eb07354872e693120001f96",
}

# n -> (exact digest, float digest) of verify --n n --degree 6 --trials 2 --seed 3;
# the ddbar adjoint display reads its index permutations differently only
# from n = 2 on, and asymmetrically from n = 3
VERIFY_DIGESTS = {
    1: ("a5748706ca459c594a813fc3d7258cf80f598f4a933d06e65772fe32e7c90c01",
        "4b35f8a0c555af3b181661885a5822355f3b8bd76c45d1fb518b23844a2ae0a1"),
    2: ("99a80188c528c374169661216840741fd5d8c5c87c2f1c0d098b0041ded65d8e",
        "6c0ab3ba65eeb3a7e42c3277a12568e2fe5be0784254817f5eda76b04b4eff02"),
    3: ("fdbde4e5266f84032dcf91d839374ee5f4e7555049793b5c65f4288f9343bb94",
        "81c8cb54d06eb557ee54f7db5c6674d4d6585e34e4b965e7f19add67dcc817de"),
}


def _verify_argv(n: int) -> list:
    return ["verify", "--n", str(n), "--degree", "6", "--trials", "2", "--seed", "3"]


def _digest(tmp_path, argv) -> str:
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("space", sorted(LELONG_DIGESTS))
def test_exact_lelong_output_bytes_are_pinned(tmp_path, space):
    argv, expected = LELONG_DIGESTS[space]
    assert _digest(tmp_path, ["lelong", "--mode", "exact"] + argv) == expected


@pytest.mark.parametrize("space", sorted(FLOAT_LELONG_DIGESTS))
def test_float_lelong_output_bytes_are_pinned(tmp_path, space):
    argv = LELONG_DIGESTS[space][0]
    assert _digest(tmp_path, ["lelong", "--mode", "float"] + argv) == FLOAT_LELONG_DIGESTS[space]


def test_exact_verify_output_bytes_are_pinned(tmp_path):
    assert _digest(tmp_path, _verify_argv(2) + ["--mode", "exact"]) == VERIFY_DIGESTS[2][0]


def test_float_verify_output_bytes_are_pinned(tmp_path):
    assert _digest(tmp_path, _verify_argv(2) + ["--mode", "float"]) == VERIFY_DIGESTS[2][1]


@pytest.mark.parametrize("n", [1, 3])
def test_exact_verify_output_bytes_are_pinned_on_c1_and_c3(tmp_path, n):
    assert _digest(tmp_path, _verify_argv(n) + ["--mode", "exact"]) == VERIFY_DIGESTS[n][0]


@pytest.mark.parametrize("n", [1, 3])
def test_float_verify_output_bytes_are_pinned_on_c1_and_c3(tmp_path, n):
    assert _digest(tmp_path, _verify_argv(n) + ["--mode", "float"]) == VERIFY_DIGESTS[n][1]


def _output(tmp_path, argv: list) -> str:
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 0
    return out.read_text()


def _lelong_payload(tmp_path, mode: str, space: str) -> dict:
    return json.loads(_output(tmp_path, ["lelong", "--mode", mode] + LELONG_DIGESTS[space][0]))


def _rounded(value):
    """An exact output value as float output writes it: each fraction string
    rounded once to the nearest double; labels, counts and flags as they are."""
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, str):
        return float(Fraction(value))
    return value


@pytest.mark.parametrize("space", sorted(LELONG_DIGESTS))
def test_float_lelong_agrees_with_exact(tmp_path, space):
    """Every solution coefficient and every stage norm of float lelong is the
    exact value rounded once, on the pinned potentials."""
    exact = _lelong_payload(tmp_path, "exact", space)
    floating = _lelong_payload(tmp_path, "float", space)
    assert floating["solution"]["coeffs"] == _rounded(exact["solution"]["coeffs"])
    assert floating["report"] == _rounded(exact["report"])
    for key in ("equation", "measure", "from_potential"):
        assert floating[key] == exact[key]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_float_verify_is_the_exact_verify_rounded(tmp_path, n):
    """Each record of verify --mode float is the exact record with every
    value rounded once; the check name, n and p stay labels, and the summary
    differs only in its mode."""
    exact = [json.loads(line) for line in
             _output(tmp_path, _verify_argv(n) + ["--mode", "exact"]).splitlines()]
    floating = [json.loads(line) for line in
                _output(tmp_path, _verify_argv(n) + ["--mode", "float"]).splitlines()]
    assert len(floating) == len(exact)
    for got, want in zip(floating[:-1], exact[:-1]):
        assert got == {k: v if k in ("check", "n", "p") else _rounded(v)
                       for k, v in want.items()}
    assert floating[-1] == dict(exact[-1], mode="float")
