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


def test_the_verdict_is_a_change_only_when_every_round_agrees():
    # one round's interval covers that round's noise, not the drift between rounds: a gain in one round and a loss in
    # the next is no verdict, however narrow either interval
    def rounds(*intervals):
        return [{"ci95": list(interval)} for interval in intervals]

    assert ab.verdict(rounds((-0.25, -0.2), (-0.22, -0.19), (-0.3, -0.01))) == "faster"
    assert ab.verdict(rounds((0.01, 0.05), (0.02, 0.03))) == "slower"
    assert ab.verdict(rounds((0.016, 0.035), (-0.036, -0.019))) == "inconsistent"
    assert ab.verdict(rounds((-0.2, -0.1), (-0.1, 0.0))) == "inconsistent"  # an interval that reaches 0


def test_src_lines_is_the_wc_total_of_the_package_modules(tmp_path):
    # wc -l counts newlines: a last line without one is not counted, and only the package's own *.py files are
    (tmp_path / "one.py").write_text("import numpy\n\nX = 1\n")
    (tmp_path / "two.py").write_text("def f():\n    return 2")
    (tmp_path / "notes.txt").write_text("not a module\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "three.py").write_text("Y = 3\n")
    assert ab.src_lines(tmp_path) == 4
