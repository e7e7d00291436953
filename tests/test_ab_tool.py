"""The summary of tools/ab.py on fixed results; no benchmark is run."""

import importlib.util
import json
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


def _pairs(base, change, name="op_ms_p50"):
    return [({name: b}, {name: c}) for b, c in zip(base, change)]


# median 2.245, quartiles 2.2225 and 2.2675: a spread of 0.045
BASE = [2.20, 2.22, 2.24, 2.25, 2.26, 2.28, 2.30, 2.21, 2.27, 2.23]


def test_verdict_gain_needs_nine_in_ten_and_the_median_past_the_spread():
    faster = [b - 0.10 for b in BASE]
    row = ab.summarize(_pairs(BASE, faster), {"op_ms_p50": "lower"}, {"op_ms_p50": 0.25})
    assert row["op_ms_p50"]["verdict"] == "gain"
    assert ab.format_summary("w", row).endswith("won 10/10  gain")
    # 8 of 10 pairs won: no gain, though the median moved as far
    eight = faster[:8] + [b + 0.01 for b in BASE[8:]]
    assert ab.summarize(_pairs(BASE, eight), {"op_ms_p50": "lower"})["op_ms_p50"][
        "verdict"] == "-"
    # every pair won, but the median moved less than the base's quartile spread
    close = [b - 0.01 for b in BASE]
    assert ab.summarize(_pairs(BASE, close), {"op_ms_p50": "lower"})["op_ms_p50"][
        "verdict"] == "-"
    # a higher-is-better metric gains upward
    rates = ab.summarize(_pairs([1000 / b for b in BASE], [1000 / c for c in faster],
                                "ops_per_s"), {"ops_per_s": "higher"})
    assert rates["ops_per_s"]["verdict"] == "gain"


def test_verdict_worse_is_past_the_bound_times_the_base_median():
    median = 2.245
    row = ab.summarize(_pairs(BASE, [median * 1.26] * 10), {"op_ms_p50": "lower"},
                       {"op_ms_p50": 0.25})["op_ms_p50"]
    assert row["verdict"] == "worse"
    # within the bound, or with no bound known, it is not
    assert ab.summarize(_pairs(BASE, [median * 1.24] * 10), {"op_ms_p50": "lower"},
                        {"op_ms_p50": 0.25})["op_ms_p50"]["verdict"] == "-"
    assert ab.summarize(_pairs(BASE, [median * 2] * 10),
                        {"op_ms_p50": "lower"})["op_ms_p50"]["verdict"] == "-"
    # lower is worse for a higher-is-better metric
    assert ab.summarize(_pairs([100.0] * 10, [89.0] * 10, "peak"), {"peak": "higher"},
                        {"peak": 0.1})["peak"]["verdict"] == "worse"



def test_record_is_the_summary_as_json():
    pairs = _pairs(BASE, [b - 0.10 for b in BASE])
    summary = ab.summarize(pairs, {"op_ms_p50": "lower"}, {"op_ms_p50": 0.25})
    refs = {"base": "abc1234", "change": "def5678-dirty"}
    out = json.loads(json.dumps(ab.record(refs, [7, 11], 10, 6.0, {"lelong-float": summary})))
    assert set(out) == {"refs", "seeds", "pairs", "seconds", "workloads"}
    assert (out["refs"], out["seeds"], out["pairs"], out["seconds"]) == (refs, [7, 11], 10, 6.0)
    assert list(out["workloads"]) == ["lelong-float"]
    row = out["workloads"]["lelong-float"]["op_ms_p50"]
    assert set(row) == {"base", "change", "won", "pairs", "verdict"}
    assert row["base"] == pytest.approx([2.2225, 2.245, 2.2675])
    assert row["change"] == pytest.approx([2.1225, 2.145, 2.1675])
    assert (row["won"], row["pairs"], row["verdict"]) == (10, 10, "gain")


def test_record_flag_is_parsed_as_a_path(monkeypatch, tmp_path):
    """--record writes the record; with --pairs 0 no benchmark runs."""
    monkeypatch.setattr(ab, "extract", lambda ref, into: None)
    monkeypatch.setattr(ab, "describe", lambda *args: "base" if args == ("HEAD",) else "change")
    path = tmp_path / "record.json"
    assert ab.main(["HEAD", "--workload", "lelong-exact", "--pairs", "0",
                    "--record", str(path)]) == 0
    out = json.loads(path.read_text())
    assert out["refs"] == {"base": "base", "change": "change"}
    assert out["workloads"] == {"lelong-exact": {}} and out["pairs"] == 0
