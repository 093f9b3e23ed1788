"""Tests of the benchmark itself: inputs, output checks and the tracer.

Run with `python3 -m pytest bench -q` from the repository root.
"""

from __future__ import annotations

import csv
import io

import pytest
from click.testing import CliRunner

import checks
from jtrwa import cli as cli_module
from spans import Tracer
from workloads import WORKLOADS, Op, ops_for_pass


def invoke(args):
    result = CliRunner().invoke(cli_module.cli, list(args))
    return result.exit_code, result.stdout, result.stderr


def judge(op, exit_code, stdout, stderr):
    return checks.check(op, exit_code, stdout, stderr, None)


def shift(stdout: str, row: int, column: str, delta: float) -> str:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    rows[row][column] = "%.9g" % (float(rows[row][column]) + delta)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def sizes(ops):
    """Everything of an op list except the drawn couplings: commands, cutoffs, grid lengths."""
    return [
        (op.command, op.params.get("cutoff"), len(op.params.get("grid", ())), op.levels_reported)
        for op in ops
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    for pass_index in range(3):
        assert ops_for_pass(workload, 7, pass_index) == ops_for_pass(workload, 7, pass_index)


@pytest.mark.parametrize("workload", ["large-cutoff", "symmetry-suite"])
def test_other_seed_changes_couplings_not_sizes(workload):
    a, b = ops_for_pass(workload, 1, 0), ops_for_pass(workload, 2, 0)
    assert [op.args for op in a] != [op.args for op in b]
    assert all(pa.params != pb.params for pa, pb in zip(a, b))
    assert sizes(a) == sizes(b)


def test_table1_seed_sets_only_the_row_order():
    orders = {tuple(op.params["kappa2"] for op in ops_for_pass("table1", s, 0)) for s in range(5)}
    assert len(orders) > 1
    assert all(sorted(order) == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] for order in orders)


@pytest.mark.parametrize(
    "model, args, params",
    [
        ("full", ("--kappa2", "0.37"), {"kappa2": 0.37, "gamma": 0.0}),
        ("nonhermitian", ("--model", "nonhermitian", "--gamma", "0.31"), {"kappa2": 0.0, "gamma": 0.31}),
    ],
)
def test_checker_rejects_one_shifted_eigenvalue(model, args, params):
    op = Op("spectrum", ("spectrum", "--total-nmax", "8", *args), {"model": model, "cutoff": 8, **params})
    exit_code, stdout, stderr = invoke(op.args)
    assert judge(op, exit_code, stdout, stderr).ok
    shifted = shift(stdout, 40, "re_energy", 1e-6)
    assert not judge(op, exit_code, shifted, stderr).ok


def test_checker_rejects_shifted_table1_row():
    op = Op("table1", ("table1", "--kappa2", "0.3"), {"kappa2": 0.3})
    exit_code, stdout, stderr = invoke(op.args)
    assert judge(op, exit_code, stdout, stderr).ok
    assert not judge(op, exit_code, shift(stdout, 0, "e_exact_computed", 1e-2), stderr).ok


def test_checker_requires_the_known_misprint():
    op = Op("table1", ("table1", "--kappa2", "0.4"), {"kappa2": 0.4})
    exit_code, stdout, stderr = invoke(op.args)
    verdict = judge(op, exit_code, stdout, stderr)
    assert verdict.ok and verdict.misprints == 1
    published = shift(stdout, 1, "e_exact_computed", 1.36373 - 1.42602)
    assert not judge(op, exit_code, published, stderr).ok


def test_checker_fails_usage_errors_exceptions_and_unreadable_output():
    op = Op("spectrum", ("spectrum", "--model", "second-order", "--total-nmax", "4"),
            {"model": "second-order", "cutoff": 4})
    assert not judge(op, 2, "", "Error: bad\n").ok
    assert not checks.check(op, 1, "", "", RuntimeError("boom")).ok
    row1 = Op("table1", ("table1", "--kappa2", "0.3"), {"kappa2": 0.3})
    assert not judge(row1, 0, "kappa2,level\n0.3,ground\n0.3,excited\n", "").ok


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_tracer_covers_cli_models(tracer):
    assert all(getattr(builder, "__traced__", False) for builder in cli_module.MODELS.values())
    with tracer.operation(0, 0):
        exit_code, _, _ = invoke(["spectrum", "--model", "rotated", "--nmax", "3"])
    assert exit_code == 0
    names = [span[0] for span in tracer.spans]
    assert "models.build" in names and "spectra.diagonalize.hermitian" in names
    assert "fockspace.validate" in names


def test_uninstall_restores_the_program(tracer):
    tracer.uninstall()
    assert not any(getattr(b, "__traced__", False) for b in cli_module.MODELS.values())
    from jtrwa import fockspace, transforms

    assert not hasattr(fockspace.OperatorMatrix.validate, "__traced__")
    assert not hasattr(transforms.expm, "__traced__")


def test_span_self_times_add_up_to_totals(tracer):
    with tracer.operation(0, 0):
        invoke(["pseudoherm", "--nmax", "3"])
    with tracer.operation(1, 0):
        invoke(["transform-residual", "--nmax", "4"])
    own = tracer.self_times()
    roots = [end - start for name, start, end, parent, _ in tracer.spans if parent < 0]
    assert len(roots) == 2 and len(tracer.spans) > 10
    assert min(own) >= 0
    assert sum(own) == pytest.approx(sum(roots), rel=1e-9)
    per_pass = tracer.per_pass()[0]
    assert per_pass["transforms.expm.s"] > 0 and per_pass["pseudoherm.metric_check.s"] > 0
