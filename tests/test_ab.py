"""The bootstrap interval that tools/ab.py reports beside each median ratio."""

import importlib.util
import random
import statistics
from pathlib import Path

spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def test_the_interval_brackets_the_median_ratio_and_repeats_under_its_seed():
    rng = random.Random(1)
    base = [rng.gauss(10.0, 1.0) for _ in range(60)]
    head = [0.95 * b + rng.gauss(0.0, 0.3) for b in base]
    low, high = ab.interval(base, head, random.Random(0))
    assert low < statistics.median(head) / statistics.median(base) - 1.0 < high < 0.0
    assert ab.interval(base, head, random.Random(0)) == [low, high]
    assert ab.interval(base, base, random.Random(0)) == [0.0, 0.0]
