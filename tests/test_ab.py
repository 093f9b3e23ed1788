"""tools/ab.py: the benchmark's claim rule over paired rounds, its rounds in fresh processes, and its line count."""

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))  # a spawned round imports ab by name
import ab  # noqa: E402

BASE = [10.0 + 0.1 * i for i in range(10)]  # round medians; quartiles 10.175 and 10.725, so the IQR is 0.55


def test_the_verdict_is_the_claim_rule_over_the_rounds():
    # nine tenths of the rounds won and a median gap beyond the base's IQR is a change, in either direction
    assert ab.verdict(BASE, [b - 1.0 for b in BASE]) == "faster"
    assert ab.verdict(BASE, [b + 1.0 for b in BASE]) == "slower"
    assert ab.verdict(BASE, [b - 1.0 for b in BASE[:9]] + [BASE[9] + 0.01]) == "faster"  # nine of ten suffice
    assert ab.verdict(BASE, [b + 1.0 for b in BASE[:9]] + [BASE[9] - 0.01]) == "slower"
    # eight of ten won is too few, however far apart the medians
    assert ab.verdict(BASE, [b - 5.0 for b in BASE[:8]] + [b + 0.01 for b in BASE[8:]]) == "unresolved"
    assert ab.verdict(BASE, [b + 5.0 for b in BASE[:8]] + [b - 0.01 for b in BASE[8:]]) == "unresolved"
    # every round won, but the medians lie within the base's IQR of each other
    assert ab.verdict(BASE, [b - 0.5 for b in BASE]) == "unresolved"
    assert ab.verdict(BASE, [b + 0.5 for b in BASE]) == "unresolved"
    # fewer than ten rounds decide nothing
    assert ab.verdict(BASE[:9], [b - 1.0 for b in BASE[:9]]) == "unresolved"
    assert ab.verdict(BASE[:9], [b + 1.0 for b in BASE[:9]]) == "unresolved"


def test_a_tied_round_counts_for_neither_side():
    # a tie is no loss: nine wins and a tie are nine tenths; but it is no win either: eight wins and two ties are not
    assert ab.verdict(BASE, [b - 1.0 for b in BASE[:9]] + BASE[9:]) == "faster"
    assert ab.verdict(BASE, [b + 1.0 for b in BASE[:9]] + BASE[9:]) == "slower"
    assert ab.verdict(BASE, [b - 1.0 for b in BASE[:8]] + BASE[8:]) == "unresolved"
    assert ab.verdict(BASE, [b + 1.0 for b in BASE[:8]] + BASE[8:]) == "unresolved"


def test_a_round_runs_in_its_own_process_and_a_different_output_stops_the_run(tmp_path):
    package = ab.ROOT / "src" / "jtrwa"
    result = ab.compare("table1", 0, 2, 2, (package, package))
    assert sorted(result["results"]) == ["pass", "table1"]
    for row in result["results"].values():
        assert len(row["base_ms"]) == len(row["head_ms"]) == 2 and row["verdict"] == "unresolved"
    assert "jtrwa_head" not in sys.modules  # the trees were loaded in the rounds' processes only
    changed = shutil.copytree(package, tmp_path / "jtrwa", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "cli.py"
    cli.write_text(cli.read_text().replace('"%.9g"', '"%.8g"'))
    with pytest.raises(SystemExit, match="outputs differ on `jtrwa table1"):
        ab.compare("table1", 0, 1, 1, (changed, package))


def test_src_lines_is_the_wc_total_of_the_package_modules(tmp_path):
    # wc -l counts newlines: a last line without one is not counted, and only the package's own *.py files are
    (tmp_path / "one.py").write_text("import numpy\n\nX = 1\n")
    (tmp_path / "two.py").write_text("def f():\n    return 2")
    (tmp_path / "notes.txt").write_text("not a module\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "three.py").write_text("Y = 3\n")
    assert ab.src_lines(tmp_path) == 4
