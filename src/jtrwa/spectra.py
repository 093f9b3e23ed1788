"""Eigensolvers, cutoff-convergence sweeps, and the closed-form level formulas.

diagonalize solves sector by sector: it reads OperatorMatrix.blocks(), the
blocks of the operator's pattern; a model operator's are its model's
conserved-quantity sectors at every coupling (J = n1 - n2 + sigma0/2 for the
full model, 2x2 Jaynes-Cummings blocks for the rotated and imaginary-coupling
forms), found once per (basis, model), and scattered straight from the
triplets, real where the operator's values are: no dim x dim array is formed.
Its eigenvalues come from block_eigenvalues (eigvalsh under a validated
Hermitian hint, else a closed form up to 2x2, in complex arithmetic, and
eigvals), its eigenvectors from eigh or eig; the dense solve of the whole
matrix is the test oracle.  Asked for its k
lowest levels only (levels=k, as converge_ground asks), it solves only the
blocks whose Gershgorin lower bound can reach them, lowest bound first, and the
full solve is that path's oracle.  An operator that commutes with the spin flip
with the mode swap, (s, n1, n2) -> (-s, n2, n1) (OperatorMatrix.twins(): the
full model at omega0 = 0 on a mode-symmetric basis, which maps J onto -J), has
its blocks in twin pairs: diagonalize solves one block of each pair, on every
path and with vectors too, and gives the twin its eigenpairs (the eigenvalues
bit for bit); a levels round takes whole pairs (at each cutoff of the benchmark
table, J = +-1/2 and +-3/2 in one round).
block_eigenvalues solves blocks (members, stack) unsorted, for one operator or
a grid of them (a pass of pseudoherm.gamma_grids); the dense solve of the whole
matrix is its oracle.  Eigenvalues are sorted by real part, then imaginary
part, where real parts within LEVEL_GAP * radius of each other (the spectral
radius, or a bound on it) are one level: exactly degenerate levels are ordered
by imaginary part, not round-off, and the order scales with the spectrum.
A spectrum with no imaginary part is in that order once sorted by real part.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .fockspace import Basis, BasisSpec, Hermiticity, OperatorMatrix, SPIN_DOWN, SPIN_UP, make_basis
from .models import ModelParams

DEGENERACY_GAP = 1e-6
LEVEL_GAP = 1e-9  # times the scale (level_order); far above eigensolver round-off, far below level spacings


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with optional eigenvectors and convergence metadata.

    A spectrum asked for its lowest levels (diagonalize(..., levels=k))
    records k in `levels` and holds only the blocks that were solved: every
    eigenvalue up to its k-th lowest distinct level, and the rest of those
    blocks, so it answers for its k lowest levels only.  cutoff_history
    holds (cutoff, ground_energy) pairs recorded by converge_ground; the
    converged flag is honest (False when the schedule ran out before the
    tolerance was met).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    residual_norms: np.ndarray | None = None
    converged: bool = True
    cutoff_history: tuple[tuple[int, float], ...] = ()
    levels: int | None = None  # None: every eigenvalue
    lowest: tuple[float, ...] = ()  # its `levels` lowest levels, where diagonalize found them on its way

    @property
    def ground_energy(self) -> float:
        """Smallest real part: within a LEVEL_GAP level the order is by imaginary part, not by real part."""
        return float(self.eigenvalues.real.min())

    def lowest_levels(self, count: int) -> list[float]:
        """The `count` lowest distinct levels (fewer if the spectrum runs out of them), as lowest_levels gives them.

        A spectrum of its lowest `levels` only cannot tell the levels above them, and raises when asked for more.
        """
        if self.levels is not None and count > self.levels:
            raise ValueError(f"the spectrum holds its {self.levels} lowest levels only, not {count}")
        return list(self.lowest[:count]) if self.lowest else lowest_levels(self.eigenvalues.real, count)

    def first_excited_energy(self) -> float:
        """Smallest real part above the ground level by more than DEGENERACY_GAP.

        With a degenerate ground multiplet this skips the whole multiplet,
        which is the convention used for the benchmark table.
        """
        found = self.lowest_levels(2)
        if len(found) < 2:
            raise ValueError("no level above the ground multiplet within the spectrum")
        return found[1]


def lowest_levels(real: np.ndarray, count: int) -> list[float]:
    """The `count` lowest distinct levels of the real parts `real`, fewer if it runs out of them.

    The first is the smallest real part, and each next one the smallest that lies above the last by more than
    DEGENERACY_GAP: a degenerate multiplet is one level.
    """
    real, found, at = real if (real[:-1] <= real[1:]).all() else np.sort(real), [], 0  # Hermitian spectra come sorted
    while len(found) < count and at < real.size:
        found.append(float(real[at]))
        at = np.searchsorted(real, real[at] + DEGENERACY_GAP, side="right")
    return found


def level_order(vals: np.ndarray, scale=None) -> np.ndarray:
    """Indices sorting by level (real parts chained within LEVEL_GAP), then imaginary part; conjugates share a level.

    Each row of a (G, n) array is ordered on its own.  The gap is LEVEL_GAP * `scale`, `scale` one per row, else its
    largest |value|, so it scales with the spectrum; a bound on the radius gives a part the whole's levels.
    """
    by_real = np.argsort(vals.real, axis=-1, kind="stable")
    if not vals.imag.any():  # a stable lexsort on a constant key over non-decreasing levels is the identity
        return by_real
    ordered = np.take_along_axis(vals, by_real, axis=-1)
    gap = LEVEL_GAP * np.asarray(np.abs(vals).max(axis=-1, initial=0.0) if scale is None else scale)[..., None]
    level = np.cumsum(np.diff(ordered.real, axis=-1, prepend=ordered.real[..., :1]) > gap, axis=-1)
    return np.take_along_axis(by_real, np.lexsort((ordered.imag, level), axis=-1), axis=-1)


def block_eigenvalues(blocks: Iterable[tuple[np.ndarray, np.ndarray]], hermitian: bool = False) -> np.ndarray:
    """Unsorted eigenvalues of blocks (members, stack), from blocks() or assemble_blocks: (n,), or (G, n) for a grid.

    The one solver of eigenvalues alone.  Hermitian stacks (`hermitian`, the hint validated by the caller) go to one
    stacked eigvalsh per size, as given, real or complex.  Of a general stack, a 1x1 block is its entry, a 2x2 block
    [[a, b], [c, d]] is m +/- sqrt(((a - d)/2)^2 + bc) with m = (a + d)/2, in complex arithmetic, on the block divided
    by its largest |entry| (so that no square overflows and none that matters underflows), and any other size goes to
    one stacked eigvals per size.  The dense solve of the whole matrix is its oracle.
    """
    found = [_stack_eigenvalues(stack, hermitian).reshape(-1, *stack.shape[3:]) for _, stack in blocks]
    return np.concatenate(found).T  # a grid axis trails until the end


def _stack_eigenvalues(stack: np.ndarray, hermitian: bool) -> np.ndarray:
    """The eigenvalues (count, n, ...) of a stack of blocks (count, n, n, ...), as block_eigenvalues solves them."""
    if hermitian or stack.shape[1] > 2:  # LAPACK wants the matrix axes last
        solve = np.linalg.eigvalsh if hermitian else np.linalg.eigvals
        return solve(stack) if stack.ndim == 3 else np.moveaxis(solve(np.moveaxis(stack, (1, 2), (-2, -1))), -1, 1)
    if stack.shape[1] == 1:
        return stack[:, 0]
    stack, scale = stack.astype(np.complex128, copy=False), np.abs(stack).max(axis=(1, 2))  # roots may be imaginary
    (a, b), (c, d) = np.moveaxis(stack / np.where(scale > 0, scale, 1.0)[:, None, None], (1, 2), (0, 1))
    mean, root = (a + d) / 2, np.sqrt(((a - d) / 2) ** 2 + b * c)
    return scale[:, None] * np.stack((mean - root, mean + root), axis=1)


def diagonalize(op: OperatorMatrix, want_vectors: bool = False, levels: int | None = None) -> Spectrum:
    """Spectrum of an operator, solved block by block: the full spectrum, or the blocks that hold its lowest levels.

    The blocks of the pattern (the conserved-quantity sectors) of one size come as one stack from op.blocks(), solved
    as block_eigenvalues solves them, or by one stacked eigh or eig for vectors; one block is the dense solve.  A
    Hermitian hint is validated before eigvalsh or eigh is trusted with the matrix (op.validate(), unscanned where its
    builder proved the hint exact).  Solver non-convergence propagates as numpy.linalg.LinAlgError.  Eigenpair
    residuals ||Hv - lambda v|| are computed block by block when vectors are requested.

    An operator that op.twins() pairs (commuting exactly with the spin flip with the mode swap) has only one block of
    each twin pair solved, the lower-positioned, in every round and with vectors too, and the twin takes its eigenpairs
    on the states the swap maps them to: at total cutoff 40, 861 of the 1722 states.

    With `levels` = k (no vectors) it solves only the blocks that can hold the k lowest distinct levels
    (lowest_levels), in rounds of at most k blocks, or of k twin pairs (keyed by the lower of their blocks' bounds,
    which may differ by an ulp), lowest Gershgorin bound first: the k lowest, then those whose bound is at most L, the
    k-th lowest level found so far (+inf while fewer are found), plus LEVEL_GAP relative to the Gershgorin bound on the
    spectral radius, since round-off may set a computed eigenvalue that far below its block's bound.  Both bounds come
    from op.block_bounds(), two row sums of one |entry|.  L only falls, so every block left unsolved lies above it:
    the spectrum holds whole blocks, among them every eigenvalue whose real part is at most L.  A Hermitian one keeps
    the last round's levels (Spectrum.lowest).
    """
    if levels is not None and (want_vectors or levels < 1):
        raise ValueError(f"levels takes a count >= 1 and no eigenvectors, got levels={levels}")
    if op.triplets[2].ndim > 1:
        raise ValueError("diagonalize takes one operator, not a grid: block_eigenvalues solves a grid's blocks")
    dim, hermitian = op.dimension, op.hint is Hermiticity.HERMITIAN
    vals, solved = np.empty(dim, dtype=np.complex128), np.zeros(dim, dtype=bool)
    vecs, residuals = (np.zeros((dim, dim), dtype=np.complex128), np.empty(dim)) if want_vectors else (None, None)
    if hermitian:
        op.validate()
    twins = op.twins()
    chosen = None if twins is None else (twins.twin >= np.arange(twins.twin.size)).nonzero()[0]  # one of each pair
    if levels is not None:
        bounds, radius = op.block_bounds()
        reach = LEVEL_GAP * radius  # an overflowing radius widens the reach to every block
        if twins is not None:  # a pair is keyed by the lower bound of its blocks (their row sums may differ by an ulp)
            bounds = np.minimum(bounds, bounds[twins.twin])
        left = np.arange(bounds.size) if chosen is None else chosen  # the unsolved blocks or pairs
        left = left[np.argsort(bounds[left], kind="stable")]  # lowest bound first
        chosen, left = left[:levels], left[levels:]
    while True:
        for members, stack in op.blocks(chosen):
            if want_vectors:
                w, v = (np.linalg.eigh if hermitian else np.linalg.eig)(stack)
                residual = np.linalg.norm(stack @ v - v * w[:, None, :], axis=1)
            else:
                w = _stack_eigenvalues(stack, hermitian).astype(np.complex128)  # cast once for the twin's placement too
            # the twin block, on the states the state map gives, has the same entries and so the same eigenpairs
            for at in (members,) if twins is None else (members, twins.state[members]):
                vals[at], solved[at] = w, True
                if want_vectors:
                    vecs[at[:, :, None], at[:, None, :]], residuals[at] = v, residual
        if levels is None:
            break
        found = lowest_levels(np.sort(vals[solved].real, kind="stable"), levels)  # as Spectrum.eigenvalues holds them
        top = (found[-1] if len(found) == levels else np.inf) + reach
        take = min(levels, np.searchsorted(bounds[left], top, "right"))
        if not take:
            break
        chosen, left = left[:take], left[take:]
    vals = vals[solved]
    order = level_order(vals)
    if want_vectors:
        vecs, residuals = vecs[:, order], residuals[order]
    lowest = tuple(found) if levels is not None and hermitian else ()  # level_order sorts these by real part alone
    return Spectrum(vals[order], eigenvectors=vecs, residual_norms=residuals, levels=levels, lowest=lowest)


def total_number_schedule(cutoffs: Iterable[int]) -> list[BasisSpec]:
    return [BasisSpec.total_number(int(n)) for n in cutoffs]


def converge_ground(
    builder: Callable[[ModelParams, Basis], OperatorMatrix],
    params: ModelParams,
    cutoff_schedule: Sequence[BasisSpec],
    tol: float = 1e-8,
    levels: int | None = None,
) -> Spectrum:
    """Re-diagonalize on growing cutoffs until the `levels` lowest distinct levels settle.

    With `levels` given, each cutoff solves only the blocks that can hold
    those levels (diagonalize(..., levels=levels)); None solves every block
    and gates the ground level alone.  Stops at the first cutoff where each
    gated level agrees with the previous cutoff's within `tol`; if the
    schedule is exhausted first, the spectrum of the last cutoff is
    returned with converged=False and the full history, which records the
    ground energy per cutoff.  A schedule of fewer than two cutoffs cannot
    converge and is rejected.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol}")
    schedule = list(cutoff_schedule)
    if len(schedule) < 2:
        raise ValueError(f"cutoff schedule needs two or more cutoffs, got {len(schedule)}")
    if any(b.dimension <= a.dimension for a, b in zip(schedule, schedule[1:])):
        raise ValueError("cutoff schedule must be strictly ascending in dimension")

    history: list[tuple[int, float]] = []
    previous: list[float] = []
    for spec in schedule:
        spectrum = diagonalize(builder(params, make_basis(spec)), levels=levels)
        history.append((spec.cutoff, spectrum.ground_energy))
        found = spectrum.lowest_levels(levels or 1)
        converged = len(found) == len(previous) and all(abs(a - b) <= tol for a, b in zip(found, previous))
        if converged:
            break
        previous = found
    return replace(spectrum, converged=converged, cutoff_history=tuple(history))


class Branch(Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class RwaLevel:
    """Closed-form level label: total boson number j, index n in 0..2j, branch."""

    j: int
    n: int
    branch: Branch

    def __post_init__(self) -> None:
        if self.j < 0:
            raise ValueError(f"j must be >= 0, got {self.j}")
        if not 0 <= self.n <= 2 * self.j:
            raise ValueError(f"n must lie in 0..2j = 0..{2 * self.j}, got {self.n}")


def rwa_energy(level: RwaLevel, params: ModelParams) -> float:
    """Closed-form eigenvalue (j+1) omega +/- (1/2) sqrt(8 kappa^2 (n+1) + (omega - 2 omega0)^2)."""
    return _rwa_energy(level.j, level.n, 1.0 if level.branch is Branch.PLUS else -1.0, params.real_kappa(), params)


def _rwa_energy(j: int, n: int, sign: float, kappa: float, params: ModelParams) -> float:
    """rwa_energy of the level (j, n) on the branch of `sign`, with no RwaLevel to build (the ladder's probes)."""
    detuning = params.omega - 2.0 * params.omega0
    return float((j + 1) * params.omega + 0.5 * sign * np.sqrt(8.0 * kappa**2 * (n + 1) + detuning**2))


def rwa_level_ladder(params: ModelParams, count: int) -> list[float]:
    """The `count` lowest distinct closed-form energies (degeneracy gap 1e-6).

    The levels of shell j ascend along its minus branch from n = 2j down to 0, then along its plus branch, and its
    lowest level f(j) = (j+1) omega - (1/2) sqrt(8 kappa^2 (2j+1) + (omega - 2 omega0)^2) is convex in j.  So the
    shells are merged outward from the minimum of f, each once its f(j) can be the next level, and the work grows
    with count and the degeneracies, not with kappa.
    """
    kappa, detuning = params.real_kappa(), params.omega - 2.0 * params.omega0
    kappa2, omega2, detuning2 = kappa * kappa, params.omega * params.omega, detuning * detuning  # inf on overflow
    # the run of shells at the minimum whose levels round alike grows as kappa^2 / omega^2: 3450 levels at 1e10
    if not (kappa2 <= 1e10 * omega2 and max(omega2, detuning2) < np.inf):
        raise ValueError(f"the closed-form ladder takes kappa^2 / omega^2 <= 1e10 and finite squares, got kappa^2 = "
                         f"{kappa2:g}, omega^2 = {omega2:g}, (omega - 2 omega0)^2 = {detuning2:g}")

    def level(j: int, i: int) -> float:  # the i-th lowest level of shell j
        n, sign = (2 * j - i, -1.0) if i <= 2 * j else (i - 2 * j - 1, 1.0)
        energy = _rwa_energy(j, n, sign, kappa, params)
        if not np.isfinite(energy):  # the merge below would never pass a level of -inf
            raise ValueError(f"the closed-form level of shell j = {j} overflows at kappa^2 = {kappa2:g}")
        return energy

    # f'(j) = 0 where sqrt(8 kappa^2 (2j+1) + detuning^2) = 4 kappa^2 / omega
    stationary = kappa2 / omega2 - detuning2 / (16.0 * kappa2) - 0.5 if kappa2 else 0.0
    left = right = min((int(max(stationary, 0.0)), int(max(stationary, 0.0)) + 1), key=lambda j: level(j, 0))
    heap, distinct = [(level(left, 0), left, 0)], []
    while len(distinct) < count:
        while not heap or level(right + 1, 0) <= heap[0][0]:
            right += 1
            heapq.heappush(heap, (level(right, 0), right, 0))
        while left > 0 and level(left - 1, 0) <= heap[0][0]:
            left -= 1
            heapq.heappush(heap, (level(left, 0), left, 0))
        energy, j, i = heapq.heappop(heap)
        if i < 4 * j + 1:
            heapq.heappush(heap, (level(j, i + 1), j, i + 1))
        if not distinct or energy > distinct[-1] + DEGENERACY_GAP:
            distinct.append(energy)
    return distinct


class BlockSolution(NamedTuple):
    """Eigenpair of one 2x2 coupled block of the Jaynes-Cummings form."""

    e_plus: complex
    e_minus: complex
    coeff_plus: tuple[complex, complex]
    coeff_minus: tuple[complex, complex]


def block_solve(n1: int, n2: int, params: ModelParams) -> BlockSolution:
    """Diagonalize the 2x2 block spanned by |up, n1, n2> and |down, n1+1, n2>.

    Diagonal entries omega(n1+n2+1) + omega0 and omega(n1+n2+2) - omega0,
    off-diagonal sqrt(2) kappa sqrt(n1+1).  Returns both eigenvalues with
    their normalized (c1, c2) coefficient pairs.  Complex kappa is allowed
    (the block is then complex symmetric and the principal square root
    selects the branches).

    Note the block mean is (n1+n2+3/2) omega while rwa_energy centers the
    same discriminant on (j+1) omega; the half-quantum offset between the
    two evaluators is deliberate and left visible.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("occupation numbers must be non-negative")
    d1 = params.omega * (n1 + n2 + 1) + params.omega0
    d2 = params.omega * (n1 + n2 + 2) - params.omega0
    v = np.sqrt(2.0) * complex(params.kappa) * np.sqrt(n1 + 1)
    mean = 0.5 * (d1 + d2)
    half_gap = 0.5 * np.sqrt(complex((d1 - d2) ** 2 + 4.0 * v * v))
    e_plus = mean + half_gap
    e_minus = mean - half_gap

    def coefficients(energy: complex) -> tuple[complex, complex]:
        c = np.array([v, energy - d1], dtype=np.complex128)
        if np.abs(c).max() < 1e-14:
            c = np.array([1.0, 0.0]) if abs(energy - d1) <= abs(energy - d2) else np.array([0.0, 1.0])
        c = c / np.linalg.norm(c)
        return complex(c[0]), complex(c[1])

    if abs(v) == 0.0:
        # uncoupled block: eigenvectors are the basis vectors
        plus_first = d1 >= d2
        coeff_plus = (1.0 + 0.0j, 0.0j) if plus_first else (0.0j, 1.0 + 0.0j)
        coeff_minus = (0.0j, 1.0 + 0.0j) if plus_first else (1.0 + 0.0j, 0.0j)
        return BlockSolution(complex(e_plus), complex(e_minus), coeff_plus, coeff_minus)
    return BlockSolution(
        complex(e_plus), complex(e_minus), coefficients(e_plus), coefficients(e_minus)
    )


def assemble_eigenstate(
    n1: int, n2: int, c1: complex, c2: complex, basis: Basis
) -> np.ndarray:
    """Embed the two-component block state into the full basis.

    The state is c1 |up, n1, n2> + c2 |down, n1+1, n2>; the coefficients
    must already be normalized.  Components outside the cutoff are
    rejected rather than silently dropped.
    """
    if abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) > 1e-10:
        raise ValueError("block coefficients must satisfy |c1|^2 + |c2|^2 = 1")
    if not basis.contains(SPIN_UP, n1, n2) or not basis.contains(SPIN_DOWN, n1 + 1, n2):
        raise ValueError(f"block (n1={n1}, n2={n2}) does not fit inside the basis cutoff")
    state = np.zeros(basis.dimension, dtype=np.complex128)
    state[basis.index((SPIN_UP, SPIN_DOWN), (n1, n1 + 1), n2)] = c1, c2
    return state


def benchmark_rwa_energy(level_index: int, params: ModelParams) -> float:
    """Empirical closed form reproducing the published benchmark RWA column.

    E(m) = (m+2) omega - sqrt(omega^2 + (m+2) kappa^2) for level m in {0, 1}
    (ground, first excited).  It matches every published entry of the
    zero-splitting benchmark to 1e-4; note it is NOT what rwa_energy gives
    at small quantum numbers, and the disagreement is reported, not hidden.
    """
    if level_index not in (0, 1):
        raise ValueError(f"level_index must be 0 (ground) or 1 (first excited), got {level_index}")
    kappa = params.real_kappa()
    m = level_index
    return float((m + 2) * params.omega - np.sqrt(params.omega**2 + (m + 2) * kappa**2))
