"""The summary of tools/ab.py on fixed results; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_summary_medians_quartiles_and_wins():
    base = [{"op_ms_p50": v, "ops_per_s": 1000 / v} for v in (2.0, 2.4, 2.8, 3.2, 2.6)]
    change = [{"op_ms_p50": v, "ops_per_s": 1000 / v} for v in (1.8, 2.5, 2.5, 3.0, 2.6)]
    change[2]["only_change"] = 1.0
    summary = ab.summarize(list(zip(base, change)),
                           {"op_ms_p50": "lower", "ops_per_s": "higher", "only_change": "lower"})
    assert set(summary) == {"op_ms_p50", "ops_per_s"}
    p50 = summary["op_ms_p50"]
    assert p50["base"] == pytest.approx((2.4, 2.6, 2.8))
    assert p50["change"] == pytest.approx((2.5, 2.5, 2.6))
    # pairs 1, 3 and 4 are faster, pair 2 slower and pair 5 a tie
    assert (p50["won"], p50["pairs"]) == (3, 5)
    assert summary["ops_per_s"]["won"] == 3
    assert summary["ops_per_s"]["base"][1] == pytest.approx(1000 / 2.6)
    text = ab.format_summary("lelong-exact", summary)
    assert text.splitlines()[0] == "lelong-exact:"
    assert "won 3/5" in text and "-3.8%" in text


def test_quartiles_of_one_value():
    assert ab.quartiles([2.5]) == (2.5, 2.5, 2.5)
