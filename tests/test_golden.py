"""Golden CLI output: each command reruns in-process against a saved fixture.

The fixtures under tests/golden/ hold the stdout (`<name>.out`) and stderr
(`<name>.err`) of the commands below as produced by the dense-product
operator assembly, so any change to how operators are built must leave
the printed results unchanged.  The `--help`, json and pretty fixtures
were saved before the commands were declared through `command()`; they
pin every command and option name, default, help text and output format.
When `diagonalize` began solving sector by sector, the three table1
fixtures were regenerated (numeric cells moved by at most 4e-14, the text
is unchanged) and so was spectrum-nonhermitian (the same rows, reordered
by imaginary part within each level of equal real part).  When table1 began
exiting 1 on a row that does not converge, its summary gained one
`converged` entry, and table1.err, table1-json.out, table1-json.err and
table1-pretty.out were regenerated for that entry alone.  When the table1
gate came to cover E0 and E1, help-table1 was regenerated for the two
reworded strings (the command's description and `--tol`).
Outputs listed as BYTES must match byte for byte.  The NUMERIC ones
carry eigensolver round-off (imaginary parts of real levels, residual
norms near machine precision) that differs between BLAS builds; their
cells are compared to 1e-12 instead.

Regenerate fixtures with `PYTHONPATH=src python tests/test_golden.py [NAME ...]`:
the named ones only, every fixture when no name is given.
"""

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from jtrwa.cli import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
TOL = 1e-12

BYTES = {
    "table1": (["table1"], 1),
    "converge": (["converge", "--kappa2", "0.5"], 0),
    "spectrum-full": (["spectrum", "--total-nmax", "40", "--kappa2", "0.37"], 0),
    "spectrum-rwa": (["spectrum", "--model", "rwa", "--total-nmax", "20", "--kappa2", "0.37"], 0),
    "spectrum-rotated": (
        ["spectrum", "--model", "rotated", "--total-nmax", "20", "--kappa2", "0.37"], 0),
    "table1-json": (["table1", "--kappa2", "0.5", "--format", "json"], 0),
    "table1-pretty": (["table1", "--kappa2", "0.5", "--format", "pretty"], 0),
    "help": (["--help"], 0),
    **{
        f"help-{name}": ([name, "--help"], 0)
        for name in ("table1", "spectrum", "converge", "transform-residual", "pseudoherm", "reality-scan")
    },
}
NUMERIC = {
    "spectrum-nonhermitian": (
        ["spectrum", "--model", "nonhermitian", "--total-nmax", "20", "--gamma", "0.3"], 0),
    "pseudoherm": (["pseudoherm"], 0),
    "reality-scan": (["reality-scan"], 0),
    "transform-residual": (["transform-residual"], 0),
}


def _run(args):
    # a fixed terminal width keeps the --help fixtures independent of the terminal running the tests
    return CliRunner().invoke(cli, args, catch_exceptions=False, terminal_width=80)


def _cells(text):
    return [cell for line in text.splitlines() for cell in line.replace(" = ", ",").split(",")]


def _same_cell(got, want):
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return abs(g - w) <= TOL * max(1.0, abs(w))


@pytest.mark.parametrize("name", sorted(BYTES))
def test_output_is_byte_identical(name):
    args, code = BYTES[name]
    result = _run(args)
    assert result.exit_code == code
    assert result.stdout == (GOLDEN / f"{name}.out").read_text()
    assert result.stderr == (GOLDEN / f"{name}.err").read_text()


@pytest.mark.parametrize("name", sorted(NUMERIC))
def test_output_matches_numerically(name):
    args, code = NUMERIC[name]
    result = _run(args)
    assert result.exit_code == code
    for stream in ("out", "err"):
        got = _cells(getattr(result, f"std{stream}"))
        want = _cells((GOLDEN / f"{name}.{stream}").read_text())
        assert len(got) == len(want)
        bad = [(g, w) for g, w in zip(got, want) if not _same_cell(g, w)]
        assert not bad, f"{name}.{stream}: {bad[:5]}"


if __name__ == "__main__":
    FIXTURES = {**BYTES, **NUMERIC}
    if unknown := sorted(set(sys.argv[1:]) - set(FIXTURES)):
        sys.exit(f"unknown fixture {', '.join(unknown)}; known: {', '.join(sorted(FIXTURES))}")
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or FIXTURES:
        result = _run(FIXTURES[name][0])
        (GOLDEN / f"{name}.out").write_text(result.stdout)
        (GOLDEN / f"{name}.err").write_text(result.stderr)
        print(f"{name}: exit {result.exit_code}")
