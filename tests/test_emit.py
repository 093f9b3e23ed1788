"""Column-wise table emission: its bytes equal the row-by-row oracle, and every command hands `_emit` equal columns."""

import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from row_emit import emit_rows

from jtrwa import cli as cli_module
from jtrwa.cli import FORMATS, cli

SRC = Path(__file__).resolve().parent.parent / "src"

# signed zeros, non-finite values, the extremes of float64, and pairs that print alike at 9 significant digits
SPECIAL_FLOATS = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308, 1.0, 1.0 + 1e-12,
    2 / 3, 2 / 3 + 1e-13, 123456789.0, 123456789.4, 0.29856252, 0.298562521,
)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)
MIXED = st.one_of(st.none(), TEXT, st.booleans(), FLOATS, INTS)
CELLS = {"float": FLOATS, "int": INTS, "bool": st.booleans(), "mixed": MIXED}
DTYPES = {"float": np.float64, "int": np.int64, "bool": np.bool_}
NAMES = st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True), min_size=1, max_size=5, unique=True)
SUMMARIES = st.dictionaries(st.from_regex(r"[a-z_]{1,8}", fullmatch=True), MIXED, max_size=3)


@st.composite
def tables(draw):
    """A table as `_emit` takes it: float, int and bool columns as lists or arrays, mixed columns as lists."""
    count = draw(st.integers(min_value=0, max_value=12))
    columns = {}
    for name in draw(NAMES):
        kind = draw(st.sampled_from(sorted(CELLS)))
        values = draw(st.lists(CELLS[kind], min_size=count, max_size=count))
        if kind in DTYPES and draw(st.booleans()):
            values = np.array(values, dtype=DTYPES[kind])
        columns[name] = values
    return columns


def _rows(columns):
    """The table as the row dicts of the oracle, holding Python scalars as the commands once built them."""
    values = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


def _emitted(columns, summary, fmt, out=None):
    """The stdout and stderr bytes of `_emit` on one table, run as a command."""

    @click.command()
    def probe():
        cli_module._emit("probe", columns, summary, 0, fmt, out)

    result = CliRunner().invoke(probe, catch_exceptions=False)
    assert result.exit_code == 0
    return result.stdout_bytes, result.stderr_bytes


@settings(max_examples=150, deadline=None)
@given(columns=tables(), summary=SUMMARIES, fmt=st.sampled_from(FORMATS))
def test_column_emission_equals_the_row_oracle(columns, summary, fmt):
    table, errors = emit_rows("probe", _rows(columns), summary, fmt)
    assert _emitted(columns, summary, fmt) == (table.encode(), errors.encode())
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "table"
        assert _emitted(columns, summary, fmt, str(out)) == (b"", errors.encode())
        assert out.read_bytes() == table.encode()


def test_float_columns_print_every_special_value_as_the_oracle():
    columns = {"as_list": list(SPECIAL_FLOATS), "as_array": np.array(SPECIAL_FLOATS), "index": np.arange(17)}
    for fmt in FORMATS:
        table, errors = emit_rows("probe", _rows(columns), {}, fmt)
        assert _emitted(columns, {}, fmt) == (table.encode(), errors.encode())
    csv = _emitted(columns, {}, "csv")[0].decode().splitlines()
    assert [line.split(",")[0] for line in csv[1:6]] == ["0", "-0", "nan", "inf", "-inf"]


SMALL_RUNS = {
    "table1": ["--kappa2", "0.5"],
    "spectrum": ["--nmax", "2", "--kappa2", "0.3"],
    "converge": ["--kappa2", "0.5", "--grid", "4:8:4"],
    "transform-residual": ["--nmax", "4"],
    "pseudoherm": ["--nmax", "3"],
    "reality-scan": ["--nmax", "3", "--grid", "0:0.1:0.05"],
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_every_command_hands_emit_equal_columns_named_as_the_header(monkeypatch, command):
    calls = []
    emit = cli_module._emit

    def recording(name, columns, *args):
        calls.append((name, columns))
        return emit(name, columns, *args)

    monkeypatch.setattr(cli_module, "_emit", recording)
    result = CliRunner().invoke(cli, [command, *SMALL_RUNS[command]], catch_exceptions=False)
    assert result.exit_code in (0, 1)
    [(name, columns)] = calls
    lengths = {len(column) for column in columns.values()}
    assert name == command and len(lengths) == 1 and lengths != {0}
    lines = result.stdout.splitlines()
    assert lines[0] == ",".join(columns) and len(lines) == 1 + lengths.pop()


def test_spectrum_csv_cells_are_the_json_values_at_nine_digits():
    args = ["spectrum", "--total-nmax", "60", "--kappa2", "0.5"]
    csv = CliRunner().invoke(cli, args, catch_exceptions=False).stdout.splitlines()
    rows = json.loads(CliRunner().invoke(cli, [*args, "--format", "json"], catch_exceptions=False).stdout)["rows"]
    header = csv[0].split(",")
    assert header == list(rows[0]) and len(csv) == 1 + len(rows) == 1 + 61 * 62
    for line, row in zip(csv[1:], rows):
        assert line.split(",") == ["%.9g" % row[name] for name in header]


class _RecordingStream(io.StringIO):
    """A text stream that records each write, with the stream it went to."""

    def __init__(self, writes):
        super().__init__()
        self.writes = writes

    def write(self, text):
        self.writes.append((self, text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_summary_notes_reach_stderr_in_one_write(monkeypatch, fmt):
    writes = []
    stdout, stderr = _RecordingStream(writes), _RecordingStream(writes)
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["table1", "--kappa2", "0.5", "--format", fmt], prog_name="jtrwa")
    assert exit_.value.code == 0
    # the table, then its three notes at once
    assert writes == [(stdout, stdout.getvalue()), (stderr, stderr.getvalue())]
    assert stderr.getvalue().count("\n") == 3


def test_the_module_entry_point_prints_the_table1_golden_output():
    # a process of its own, as a user runs it: real stdout and stderr, not CliRunner's captured streams
    golden = Path(__file__).resolve().parent / "golden"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-m", "jtrwa", "table1"], capture_output=True, env=env, timeout=300)
    assert result.returncode == 1  # the documented kappa^2 = 0.4 misprint
    assert result.stdout == (golden / "table1.out").read_bytes()
    assert result.stderr == (golden / "table1.err").read_bytes()
