"""``scripts/ab_bench.py``'s per-metric verdict, on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
SPEC = importlib.util.spec_from_file_location("ab_bench", PATH)
ab_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_bench)

TIGHT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
WIDE = [60.0, 118.0, 70.0, 110.0, 65.0, 115.0, 69.0, 100.0, 75.0, 112.0]


@pytest.mark.parametrize(
    "base, change, want",
    [
        (TIGHT, [b - 5.0 for b in TIGHT], "gain"),
        (TIGHT, [b + 30.0 for b in TIGHT], "worse than bound"),
        (TIGHT, [b + 1.0 for b in TIGHT], "within bound"),
        # base quartiles about [67, 113] on a median near 90: wider than 25%
        (WIDE, [b + 1.0 for b in WIDE], "unresolved"),
        (WIDE, [b - 2.0 for b in WIDE[::-1]], "unresolved"),
        # every change run beats every base run, by less than the base's spread
        (WIDE, [59.0 - 0.1 * k for k in range(10)], "within bound"),
    ],
    ids=["gain", "worse", "within", "unresolved", "unresolved-median-better", "all-better"],
)
def test_verdict_names_each_outcome(base, change, want):
    assert ab_bench.verdict(list(zip(base, change)), "lower", 0.25) == want


def test_verdict_of_a_higher_is_better_metric_mirrors_lower():
    pairs = [(b, b + 5.0) for b in TIGHT]
    assert ab_bench.verdict(pairs, "higher", 0.25) == "gain"
    assert ab_bench.verdict([(c, b) for b, c in pairs], "lower", 0.25) == "gain"
    assert ab_bench.verdict([(b, b * 0.5) for b in TIGHT], "higher", 0.25) == "worse than bound"
    assert ab_bench.summarize(pairs, "higher")[2] == len(pairs)
