"""Discrete symmetry operators and spectral reality analysis of the
imaginary-coupling Hamiltonian.

The combined parity/time-reversal map used by check_pt follows the
convention in which time reversal flips every spin component and both
boson quadrature signs, so that parity and time reversal cancel on the
ladder operators.  Its net action conjugates all entries, swaps the two
spin-diagonal blocks, and negates the spin-flip blocks.  That map is a
well-defined antilinear superoperator but is not the conjugation by any
single matrix; the plain -i sigma_y K time reversal exchanges raising and
lowering operators instead and does NOT leave the number-conserving
coupling invariant.

No check reads a dense matrix or forms the union of two patterns: a residual
pairs each entry of h with its image (transposed, or moved by PT) through
partners found once per pattern (OperatorMatrix.difference), and the
conjugation closure pairs each spectrum of a pass with its conjugate in level
order.  Each check takes one operator (a float) or a grid (G floats).

Both gamma commands take passes from gamma_grids, building no operator and
calling no LAPACK per gamma: pseudoherm assembles a pass whole (models.assemble
at an array of gammas), reality_scan only the blocks that can hold its k lowest
levels (gershgorin, assemble_blocks).  spectra.block_eigenvalues solves them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fockspace import HINT_TOL, Basis, OperatorMatrix, diagonal_op
from .models import ModelParams, assemble_blocks, gershgorin
from .spectra import LEVEL_GAP, block_eigenvalues, level_order

REALITY_TOL = 1e-8  # reality detection threshold in units of omega, two orders above solver dust
GRID_STATES = 1 << 17  # grid points x basis states in a pass of gamma_grids: memory stays flat in grid size


def parity_op(basis: Basis) -> OperatorMatrix:
    """Boson parity (-1)^(n1+n2), identity on spin; squares to the identity."""
    return diagonal_op(basis, (-1.0) ** (basis.n1 + basis.n2))


def pt_transform(h: OperatorMatrix) -> OperatorMatrix:
    """Combined parity/time-reversal image of h (see module docstring), on its triplets.

    An entry between states of one spin moves to the partner states, the same (n1, n2) with the other spin,
    conjugated; a spin-flip entry stays in place, conjugated and negated.
    """
    basis, (rows, cols, values) = h.basis, h.triplets
    partner, same = basis.spin_partner, basis.spin[rows] == basis.spin[cols]
    rows, cols = (np.where(same, partner[k], k) for k in (rows, cols))
    return OperatorMatrix.from_triplets(h.basis, rows, cols, np.where(same, values.T, -values.T).conj().T)


def _norms(values: np.ndarray) -> float | list[float]:
    """Frobenius norm of one operator's values (nnz,), or per column of a grid's (nnz, G), summed alike for any G."""
    return np.linalg.norm(np.ascontiguousarray(values.T), axis=-1).tolist()


def check_pt(h: OperatorMatrix) -> float | list[float]:
    """Frobenius norm of (PT) h (PT)^-1 - h under the combined map, on h's positions and the images it lacks.

    For the imaginary-coupling Hamiltonian the image differs from h only in
    the sign of the omega0 sigma0 term, so the residual equals
    2|omega0| sqrt(dim) and vanishes at omega0 = 0.
    """
    return _norms(h.difference(h.triplets[2], pt_transform(h).triplets[2], pt_transform))


def check_pseudo_hermitian(h: OperatorMatrix, eta: OperatorMatrix) -> float | list[float]:
    """Frobenius norm of eta h eta^-1 - h^dagger, d_i h_ij / d_j - conj(h_ji) for a diagonal metric eta = diag(d)."""
    if h.basis != eta.basis:
        raise ValueError("Hamiltonian and metric live on different bases")
    rows, cols, values = eta.triplets
    dev = np.abs(eta.difference(values, values.conj())).max(initial=0.0)
    if not dev <= HINT_TOL:
        raise ValueError(f"metric is not Hermitian (deviation {dev:.3e})")
    if np.any(rows != cols):
        raise ValueError("metric is not diagonal; only diagonal metrics are supported")
    d = np.zeros(eta.dimension, dtype=values.dtype)
    d[rows] = values
    if not 0 < np.abs(d).max() <= 1e12 * np.abs(d).min():  # condition number max|d| / min|d|
        raise ValueError("metric is singular or numerically non-invertible")
    rows, cols, values = h.triplets
    return _norms(h.difference((d[rows] * values.T / d[cols]).T, values.conj()))


def check_combined_symmetry(h: OperatorMatrix) -> float | list[float]:
    """Frobenius norm of the commutator [h, P sigma0].

    Pseudo-Hermiticity with respect to two metrics implies symmetry under
    their ratio; for the imaginary-coupling Hamiltonian P sigma0 commutes
    with h for every gamma.  With P sigma0 = diag(g) it is h_ij (g_j - g_i).
    """
    g = h.basis.spin * (-1.0) ** (h.basis.n1 + h.basis.n2)
    rows, cols, values = h.triplets
    return _norms((values.T * (g[cols] - g[rows])).T)


def conjugation_closure(eigenvalues: np.ndarray) -> float | list[float]:
    """Largest distance between the imaginary parts of a spectrum and its conjugate, in level order; per row of (G, n).

    Conjugate partners share a level, so a closed spectrum lists the same imaginary parts as its conjugate
    level by level.  Real parts agree within a level by construction; pairing whole values would mismatch
    wherever two distinct real levels fall into one LEVEL_GAP chain.
    """
    vals = np.asarray(eigenvalues, dtype=np.complex128)
    imag = [np.take_along_axis(v.imag, level_order(v), axis=-1) for v in (vals, vals.conj())]
    return np.abs(imag[0] - imag[1]).max(axis=-1, initial=0.0).tolist()


@dataclass(frozen=True)
class RealityReport:
    """Reality of the k lowest-by-real-part levels across a gamma grid.

    detected_threshold is the first grid value whose low-lying spectrum
    acquires an imaginary part beyond REALITY_TOL * omega, or None if
    reality survives the whole scanned range.
    """

    gamma_values: tuple[float, ...]
    max_imag_lowk: tuple[float, ...]
    k: int
    detected_threshold: float | None

    def __post_init__(self) -> None:
        if len(self.gamma_values) != len(self.max_imag_lowk):
            raise ValueError("gamma grid and imaginary-part lists must have equal length")


def gamma_grids(basis: Basis, gamma_grid) -> list[np.ndarray]:
    """A gamma grid, checked at once, in passes of GRID_STATES grid points x basis states (the default grids in one)."""
    gammas = np.array([float(g) for g in gamma_grid])
    if not gammas.size:
        raise ValueError("gamma grid must not be empty")
    if not (np.isfinite(gammas) & (gammas >= 0)).all():
        raise ValueError("gamma values must be finite and non-negative")
    if np.any(np.diff(gammas) <= 0):
        raise ValueError("gamma grid must be strictly ascending")
    rows = max(1, GRID_STATES // basis.dimension)
    return np.split(gammas, range(rows, gammas.size, rows))


def reality_scan(params_template: ModelParams, basis: Basis, gamma_grid, k: int = 4) -> RealityReport:
    """Solve the imaginary-coupling Hamiltonian on a gamma grid, pass by pass of gamma_grids, where its k lowest lie.

    Records max |Im| over the k lowest-by-real-part eigenvalues per grid
    point and detects the first reality-breaking gamma.  The lowest coupled
    block breaks at gamma^2 = (omega - 2 omega0)^2 / 8, which the detected
    threshold matches to within one grid step.

    A pass solves at all its gammas the blocks of the k lowest bounds (models.gershgorin), then in rounds each block
    whose bound lies within n + 1 level gaps of the k-th lowest real part, n the eigenvalues solved: its level ends
    n - k gaps above it at most.  Gaps are relative to gershgorin's bound on the spectral radius, whatever is solved.
    """
    if not 1 <= k <= basis.dimension:
        raise ValueError(f"k must lie in 1..{basis.dimension}, the basis dimension, got {k}")

    gammas, max_imag = [], []
    for chunk in gamma_grids(basis, gamma_grid):
        lower, scale = gershgorin(basis, "nonhermitian", params_template, chunk)  # (blocks, G), (G,)
        reach = np.sort(lower, axis=0)[:k][-1]  # the k-th lowest bound per gamma, or the highest with fewer blocks
        unsolved, vals = np.ones(len(lower), dtype=bool), np.empty((chunk.size, 0), dtype=np.complex128)
        while (new := np.flatnonzero(unsolved & (lower <= reach).any(axis=1))).size:
            unsolved[new] = False
            blocks = assemble_blocks(basis, "nonhermitian", params_template, chunk, new)
            vals = np.concatenate((vals, block_eigenvalues(blocks)), axis=1)
            reach = np.partition(vals.real, k - 1)[:, k - 1] + (vals.shape[1] + 1) * LEVEL_GAP * scale
        gammas += chunk.tolist()
        max_imag += np.abs(np.take_along_axis(vals, level_order(vals, scale)[:, :k], -1).imag).max(-1).tolist()
    threshold = next((g for g, worst in zip(gammas, max_imag) if worst > REALITY_TOL * params_template.omega), None)
    return RealityReport(tuple(gammas), tuple(max_imag), k, threshold)
