"""Seeded inputs of the three benchmark workloads.

A workload is a list of CLI invocations (operations) that is run once per
pass.  The seed and the pass index draw the couplings (kappa^2, gamma)
inside each command's valid domain; they never change a cutoff or the
length of a grid, so every seed asks for the same amount of work.
omega and omega0 stay at each command's CLI default.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("table1", "large-cutoff", "symmetry-suite")

# The published benchmark rows (jtrwa.reference.TABLE1_KAPPA2).  Kept here
# so that inputs can be drawn without importing the program.
TABLE1_KAPPA2 = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

FULL_CUTOFF = 40  # total-number cutoff of the Hermitian spectrum (dim 1722)
NONHERM_CUTOFF = 30  # total-number cutoff of the general spectrum (dim 992)
PER_MODE_NMAX = 8  # CLI default per-mode basis of the symmetry commands (dim 162)

REALITY_STEP = 0.005  # step of the reality-scan default grid 0:0.5:0.005
REALITY_POINTS = 101
PSEUDOHERM_POINTS = 3
RESIDUAL_POINTS = 4
RESIDUAL_GUARD = 0.08  # residual_study guard 0.1*min|omega +/- omega0| at omega0 = 0.2
REALITY_K = 4  # reality-scan --k-low default


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the output check needs to know about it."""

    command: str
    args: tuple[str, ...]
    params: dict = field(default_factory=dict)
    levels_reported: int = 0  # levels the command reports or consumes


def total_number_dim(n: int) -> int:
    return (n + 1) * (n + 2)


def arange_grid(start: float, stop: float, step: float) -> list[float]:
    """The grid `jtrwa` builds from "start:stop:step" (inclusive arange)."""
    count = math.ceil((stop + 0.5 * step - start) / step)
    return [start + k * step for k in range(count)]


def _grid(start: float, stop: float, step: float, points: int) -> tuple[str, list[float]]:
    values = arange_grid(start, stop, step)
    if len(values) != points:
        raise ValueError(f"grid {start}:{stop}:{step} has {len(values)} points, not {points}")
    return f"{start!r}:{stop!r}:{step!r}", values


def _table1(rng: random.Random) -> list[Op]:
    rows = list(TABLE1_KAPPA2)
    rng.shuffle(rows)
    return [
        Op("table1", ("table1", "--kappa2", repr(k2)), {"kappa2": k2}, levels_reported=2)
        for k2 in rows
    ]


def _large_cutoff(rng: random.Random) -> list[Op]:
    kappa2 = rng.uniform(0.1, 1.0)
    gamma = rng.uniform(0.05, 0.5)
    full_dim = total_number_dim(FULL_CUTOFF)
    nonherm_dim = total_number_dim(NONHERM_CUTOFF)
    return [
        Op(
            "spectrum",
            ("spectrum", "--total-nmax", str(FULL_CUTOFF), "--kappa2", repr(kappa2)),
            {"model": "full", "cutoff": FULL_CUTOFF, "kappa2": kappa2, "gamma": 0.0},
            levels_reported=full_dim,
        ),
        Op(
            "spectrum",
            ("spectrum", "--model", "nonhermitian", "--total-nmax", str(NONHERM_CUTOFF),
             "--gamma", repr(gamma)),
            {"model": "nonhermitian", "cutoff": NONHERM_CUTOFF, "kappa2": 0.0, "gamma": gamma},
            levels_reported=nonherm_dim,
        ),
    ]


def _exceptional_points(nmax: int) -> list[float]:
    """gamma where a 2x2 block of the imaginary-coupling model is defective (omega = 1)."""
    return [1.0 / math.sqrt(8.0 * (n1 + 1)) for n1 in range(nmax + 1)]


def _symmetry_suite(rng: random.Random) -> list[Op]:
    offset = rng.uniform(0.0, REALITY_STEP)
    scan_arg, scan = _grid(offset, 0.5 + offset, REALITY_STEP, REALITY_POINTS)

    # At an exceptional point eig has O(sqrt(eps)) error, which the closure
    # tolerance of `pseudoherm` (1e-10) cannot absorb; 1e-6 away it is ~1e-12.
    # The default grid 0.1:0.3:0.1 avoids them, and so do the drawn grids.
    while True:
        start, step = rng.uniform(0.05, 0.15), rng.uniform(0.05, 0.1)
        herm_arg, gammas = _grid(start, start + 2 * step, step, PSEUDOHERM_POINTS)
        if all(abs(g - ep) > 1e-6 for g in gammas for ep in _exceptional_points(PER_MODE_NMAX)):
            break

    step = rng.uniform(0.01, 0.02)
    start = rng.uniform(0.005, RESIDUAL_GUARD - 3 * step - 1e-3)
    residual_arg, kappas = _grid(start, start + 3 * step, step, RESIDUAL_POINTS)

    dim = 2 * (PER_MODE_NMAX + 1) ** 2
    return [
        Op("reality-scan", ("reality-scan", "--grid", scan_arg),
           {"grid": scan, "step": REALITY_STEP}, levels_reported=REALITY_K * REALITY_POINTS),
        Op("pseudoherm", ("pseudoherm", "--grid", herm_arg),
           {"grid": gammas}, levels_reported=dim * PSEUDOHERM_POINTS),
        Op("transform-residual", ("transform-residual", "--grid", residual_arg),
           {"grid": kappas}),
    ]


_BUILDERS = {"table1": _table1, "large-cutoff": _large_cutoff, "symmetry-suite": _symmetry_suite}


def ops_for_pass(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The operations of one pass; the same (workload, seed, pass) gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}/{pass_index}"))
