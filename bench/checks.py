"""Output checks: every operation's output is compared with an oracle.

An operation fails when it raises, exits 2, or fails its check.  The
spectra of the large-cutoff workload are compared with eigenvalues the
checker computes itself from the basis arithmetic of the model, sector by
sector (the full model conserves n1 - n2 + sigma0/2; the imaginary-coupling
model splits into 2x2 blocks), so the check does not trust the program's
own assembly or solver.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from jtrwa.reference import EXACT_TOL, RWA_FIT_TOL, published_row

from workloads import Op

# The converged first-excited energy at kappa^2 = 0.4 (reference.py): the
# published 1.36373 is a misprint, so exactly this entry must miss EXACT_TOL.
MISPRINT_KAPPA2 = 0.4
MISPRINT_CONVERGED = 1.42602
IDENTITY_TOL = 1e-12
CLOSURE_TOL = 1e-10
SLOPE_RANGE = (2.7, 3.3)
ABS_FLOOR = 1e-10  # eigensolver error allowance for values near zero


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    misprints: int = 0  # table1 entries that miss their published value

    @property
    def ok(self) -> bool:
        return not self.problems


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def parse_summary(text: str) -> dict[str, str]:
    """The `key = value` summary lines a command writes to stderr."""
    summary = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            summary[key.strip()] = value.strip()
    return summary


def printed_ulp(value: float) -> float:
    """One unit in the last place of a value printed with 9 significant digits."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - 8)


def _round9(value: float) -> float:
    return float("%.9g" % value)


# ----------------------------------------------------------------- oracles


def _total_number_states(n: int) -> list[tuple[int, int, int]]:
    return [(s, n1, n2) for s in (1, -1) for n1 in range(n + 1) for n2 in range(n + 1 - n1)]


def _sector_eigenvalues(states, sector_key, diagonal, hops, hermitian) -> np.ndarray:
    """Eigenvalues of an operator given by its diagonal and its hops, one sector at a time.

    hops(state) yields (target_state, amplitude) for H[target, state].
    """
    sectors = defaultdict(list)
    for state in states:
        sectors[sector_key(state)].append(state)
    levels = []
    for members in sectors.values():
        position = {state: i for i, state in enumerate(members)}
        block = np.diag([complex(diagonal(state)) for state in members])
        for state, col in position.items():
            for target, amplitude in hops(state):
                row = position.get(target)
                if row is not None:
                    block[row, col] += amplitude
        if hermitian:
            levels.extend(np.linalg.eigvalsh(block))
        else:
            levels.extend(np.linalg.eigvals(block))
    return np.asarray(levels, dtype=np.complex128)


def full_model_levels(omega: float, omega0: float, kappa: float, n: int) -> np.ndarray:
    """Spectrum of omega(n1+n2+1) + omega0 s0 + kappa[(a1 + a2+) s+ + h.c.], total cutoff n."""

    def hops(state):
        s, n1, n2 = state
        if s == -1:  # sigma+ raises the spin; a1 lowers n1, a2+ raises n2
            yield (1, n1 - 1, n2), kappa * math.sqrt(n1)
            yield (1, n1, n2 + 1), kappa * math.sqrt(n2 + 1)
        else:  # the adjoint terms
            yield (-1, n1 + 1, n2), kappa * math.sqrt(n1 + 1)
            yield (-1, n1, n2 - 1), kappa * math.sqrt(n2)

    return _sector_eigenvalues(
        _total_number_states(n),
        lambda st: 2 * (st[1] - st[2]) + st[0],
        lambda st: omega * (st[1] + st[2] + 1) + omega0 * st[0],
        hops,
        hermitian=True,
    )


def nonhermitian_levels(omega: float, omega0: float, gamma: float, n: int) -> np.ndarray:
    """Spectrum of the Jaynes-Cummings form with coupling i sqrt(2) gamma on mode 1."""
    coupling = 1j * math.sqrt(2.0) * gamma

    def hops(state):
        s, n1, n2 = state
        if s == -1:
            yield (1, n1 - 1, n2), coupling * math.sqrt(n1)
        else:
            yield (-1, n1 + 1, n2), coupling * math.sqrt(n1 + 1)

    return _sector_eigenvalues(
        _total_number_states(n),
        lambda st: (st[1] + (st[0] + 1) // 2, st[2]),
        lambda st: omega * (st[1] + st[2] + 1) + omega0 * st[0],
        hops,
        hermitian=False,
    )


def trace_formula(omega: float, omega0: float, n: int) -> float:
    """Tr H from the basis formula: the couplings are off-diagonal in both models."""
    return sum(omega * (n1 + n2 + 1) + omega0 * s for s, n1, n2 in _total_number_states(n))


# ------------------------------------------------------------------ checks


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= printed_ulp(b) + ABS_FLOOR


def _spectral_mismatches(printed: np.ndarray, reference: np.ndarray) -> int:
    """Count entries of two spectra that differ beyond print precision, after sorting both."""

    def key(z):
        return (_round9(z.real), _round9(z.imag))

    a = sorted(printed, key=key)
    b = sorted(reference, key=key)
    return sum(
        1 for x, y in zip(a, b) if not (_close(x.real, y.real) and _close(x.imag, y.imag))
    )


def check_spectrum(op: Op, rows) -> list[str]:
    p = op.params
    n, omega, omega0 = p["cutoff"], 1.0, 0.0
    dim = (n + 1) * (n + 2)
    problems = []
    if len(rows) != dim:
        return [f"{len(rows)} levels, expected {dim}"]
    if [int(r["index"]) for r in rows] != list(range(dim)):
        problems.append("index column is not 0..dim-1")
    values = np.array([complex(float(r["re_energy"]), float(r["im_energy"])) for r in rows])

    total, trace = complex(values.sum()), trace_formula(omega, omega0, n)
    allowance = sum(printed_ulp(v.real) + printed_ulp(v.imag) for v in values) + ABS_FLOOR * dim
    if abs(total - trace) > allowance:
        problems.append(f"sum of levels {total:.12g} != Tr H {trace:.12g}")

    if p["model"] == "full":
        if np.abs(values.imag).max() > ABS_FLOOR:
            problems.append("Hermitian spectrum is not real")
        reference = full_model_levels(omega, omega0, math.sqrt(p["kappa2"]), n)
    else:
        if _spectral_mismatches(values, values.conj()):
            problems.append("spectrum is not closed under complex conjugation")
        reference = nonhermitian_levels(omega, omega0, p["gamma"], n)
    bad = _spectral_mismatches(values, reference)
    if bad:
        problems.append(f"{bad} levels differ from the sector oracle")
    return problems


def check_table1(op: Op, rows, exit_code: int, verdict: Verdict) -> None:
    kappa2 = op.params["kappa2"]
    published = published_row(kappa2)
    if published is None or len(rows) != 2:
        verdict.problems.append(f"expected 2 published rows for kappa2={kappa2}, got {len(rows)}")
        return
    for level, row in enumerate(rows):
        name = ("ground", "excited")[level]
        if row["level"] != name or not _close(float(row["kappa2"]), kappa2):
            verdict.problems.append(f"row {level} is not the {name} level at kappa2={kappa2}")
            continue
        exact = float(row["e_exact_computed"])
        pub_rwa, pub_exact = published[2 * level], published[2 * level + 1]
        if abs(float(row["e_rwa_fit"]) - pub_rwa) > RWA_FIT_TOL:
            verdict.problems.append(f"RWA fit {row['e_rwa_fit']} misses {pub_rwa} at kappa2={kappa2}")
        if abs(exact - pub_exact) <= EXACT_TOL:
            if kappa2 == MISPRINT_KAPPA2 and name == "excited":
                verdict.problems.append("the known kappa2=0.4 misprint no longer shows")
            continue
        verdict.misprints += 1
        if not (kappa2 == MISPRINT_KAPPA2 and name == "excited"):
            verdict.problems.append(f"exact {name} energy {exact} misses {pub_exact} at kappa2={kappa2}")
        elif abs(exact - MISPRINT_CONVERGED) > 1e-5:
            verdict.problems.append(f"kappa2=0.4 excited energy {exact} != converged {MISPRINT_CONVERGED}")
    expected_exit = 1 if kappa2 == MISPRINT_KAPPA2 else 0
    if exit_code != expected_exit:
        verdict.problems.append(f"table1 --kappa2 {kappa2} exited {exit_code}, expected {expected_exit}")


def _grid_matches(rows, column: str, grid) -> bool:
    return len(rows) == len(grid) and all(
        _close(float(r[column]), g) for r, g in zip(rows, grid)
    )


def check_reality_scan(op: Op, rows, summary) -> list[str]:
    if not _grid_matches(rows, "gamma", op.params["grid"]):
        return ["gamma column does not match the requested grid"]
    threshold = summary.get("detected_threshold")
    expected = 1.0 / math.sqrt(8.0)  # (omega - 2 omega0)/sqrt(8) at the CLI defaults
    if threshold in (None, "none") or abs(float(threshold) - expected) > op.params["step"] + 1e-9:
        return [f"detected threshold {threshold} not within one step of {expected:.6f}"]
    return []


def check_pseudoherm(op: Op, rows) -> list[str]:
    if not _grid_matches(rows, "gamma", op.params["grid"]):
        return ["gamma column does not match the requested grid"]
    problems = []
    for row in rows:
        for column in ("sigma0_residual", "parity_residual", "combined_commutator", "pt_residual"):
            if not float(row[column]) <= IDENTITY_TOL:
                problems.append(f"{column} = {row[column]} at gamma={row['gamma']}")
        if not float(row["conjugation_closure"]) <= CLOSURE_TOL:
            problems.append(f"conjugation_closure = {row['conjugation_closure']} at gamma={row['gamma']}")
    return problems


def check_transform_residual(op: Op, rows, summary) -> list[str]:
    if not _grid_matches(rows, "kappa", op.params["grid"]):
        return ["kappa column does not match the requested grid"]
    slope = float(summary.get("fitted_slope", "nan"))
    if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        return [f"fitted slope {slope} outside {SLOPE_RANGE}"]
    if not all(float(r["residual_fro"]) > 0 for r in rows):
        return ["a residual norm is not positive"]
    return []


def check(op: Op, exit_code: int, stdout: str, stderr: str, raised: BaseException | None) -> Verdict:
    """Judge one operation from its exit code, its CSV on stdout and its summary on stderr."""
    verdict = Verdict()
    if raised is not None:
        verdict.problems.append(f"raised {type(raised).__name__}: {raised}")
        return verdict
    if exit_code == 2:
        verdict.problems.append(f"usage error: {stderr.strip().splitlines()[-1:]}")
        return verdict
    try:
        _check_output(op, exit_code, parse_csv(stdout), parse_summary(stderr), verdict)
    except (KeyError, ValueError, TypeError) as exc:  # output not in the documented format
        verdict.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return verdict


def _check_output(op: Op, exit_code: int, rows, summary, verdict: Verdict) -> None:
    if op.command == "table1":
        check_table1(op, rows, exit_code, verdict)
    elif exit_code != 0:
        verdict.problems.append(f"exited {exit_code}")
    elif op.command == "spectrum":
        verdict.problems += check_spectrum(op, rows)
    elif op.command == "reality-scan":
        verdict.problems += check_reality_scan(op, rows, summary)
    elif op.command == "pseudoherm":
        verdict.problems += check_pseudoherm(op, rows)
    elif op.command == "transform-residual":
        verdict.problems += check_transform_residual(op, rows, summary)
    else:
        verdict.problems.append(f"no check for command {op.command!r}")

