"""Numerical realization of the decoupling similarity transform and mode rotation.

The generator T removes the counter-rotating mode-2 coupling to first order and
replaces it with the co-rotating one; conjugating the full Hamiltonian H with
exp(T) reproduces the explicit second-order form H2 up to a remainder that is
third order in the coupling.  residual_study measures that remainder over its
whole coupling grid in one pass: T, H and H2 are assembled once each as grid
operators (models.assemble), one stacked expm exponentiates each distinct block
of T once (unitary eigendecomposition of an anti-Hermitian matrix; Moler & Van
Loan, SIAM Rev. 45, 3 (2003)), and exp(T) H exp(-T) is formed on triplets, one
pair of T blocks at a time.  T conserves n1 and acts alike on every n1, and H
couples n1 only to n1 and n1 +/- 1, so the pairs are few and small (at per-mode
cutoff 8 the 72 blocks of four couplings are 8 distinct matrices); which
entries fall in which pair, and the blocks of the kept remainder, are found
once per pattern (OperatorMatrix.layout).  No step forms a dim x dim matrix:
the largest arrays are the remainder's parity blocks, whose Hermitian parts
spectra.block_eigenvalues solves one coupling at a time for the spectral norm.
Real operators are transformed in real arithmetic (expm keeps a real dtype).
The mode rotation is built the same way, per block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fockspace import HINT_TOL, Basis, OperatorMatrix, Truncation, interior
from .models import ModelParams, assemble, spin_ladder_detunings
from .spectra import block_eigenvalues


@dataclass(frozen=True)
class TransformReport:
    """Remainder norms over a coupling grid and the fitted power-law exponent.

    residual_norms are Frobenius norms (the fit input); the spectral norms
    are recorded alongside since the exponent is norm-insensitive.
    """

    kappa_values: tuple[float, ...]
    residual_norms: tuple[float, ...]
    residual_norms_spectral: tuple[float, ...]
    fitted_slope: float

    def __post_init__(self) -> None:
        if not (len(self.kappa_values) == len(self.residual_norms) == len(self.residual_norms_spectral)):
            raise ValueError("grid and residual lists must have equal length")


def decoupling_generator(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Anti-Hermitian generator of the counter-rotating decoupling transform.

    T = kappa/(omega + 2 omega0) (sigma+ a2+ - sigma- a2)
      - kappa/(omega - 2 omega0) (sigma- a2+ - sigma+ a2)

    The denominators are the spin-flip detunings of the sigma0 = diag(1,-1)
    convention; each bracket pairs an operator with minus its adjoint, so T
    is anti-Hermitian for real kappa.
    """
    return assemble(basis, "generator", params, params.kappa)


def _from_blocks(basis: Basis, parts) -> OperatorMatrix:
    """The operator with the block values[p] on the rows row_members[p] and columns col_members[p] of each part.

    A part is (row_members (P, a), col_members (P, b), values (P, a, b, ...)).  Every entry is kept, zeros included.
    """
    rows, cols, values = [], [], []
    for row_members, col_members, block in parts:
        r, c = np.broadcast_arrays(row_members[:, :, None], col_members[:, None, :])
        rows.append(r.ravel())
        cols.append(c.ravel())
        values.append(block.reshape(-1, *block.shape[3:]))
    if not rows:
        return OperatorMatrix.from_triplets(basis, np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, complex))
    return OperatorMatrix.from_triplets(basis, np.concatenate(rows), np.concatenate(cols), np.concatenate(values))


def mode_rotation(basis: Basis) -> OperatorMatrix:
    """Unitary pi/4 rotation mixing the two modes, exp[(pi/4)(a1+ a2 - a2+ a1)], built per block as triplets.

    Its generator conserves the total boson number, so in a total-number
    basis the rotation closes exactly and the conjugation identities
    U (a1+a2) U^-1 = sqrt(2) a1 and U (n1+n2) U^-1 = n1+n2 hold to machine
    precision.  A per-mode basis only satisfies them away from the cutoff
    boundary; that case is allowed but warned about.
    """
    if basis.spec.truncation is not Truncation.TOTAL_NUMBER:
        warnings.warn(
            "mode rotation on a per-mode basis suffers boundary truncation errors; "
            "use a total-number basis for exact closure",
            stacklevel=2,
        )
    blocks = assemble(basis, "rotation", None, np.pi / 4.0).blocks()
    return _from_blocks(basis, [(members, members, expm(stack)) for members, stack in blocks])


def expm(m: np.ndarray) -> np.ndarray:
    """exp(m) = V exp(-i w) V^dagger of an anti-Hermitian m (or stack) with i m = V w V^dagger; any other m raises.
    Each distinct matrix of a stack (by its bytes: +0.0 and -0.0 differ) is solved once, bit for bit as if alone.  A
    real m has a real exp(m), so its dtype stays real."""
    if not (dev := np.abs(m + np.swapaxes(m, -1, -2).conj()).max(initial=0.0)) <= HINT_TOL:
        raise ValueError(f"expm takes anti-hermitian matrices only: max|m + m^dagger| = {dev:.3e} > {HINT_TOL:g}")
    flat = np.ascontiguousarray(m).reshape(-1, m.shape[-1] ** 2)
    items = flat.view((np.void, flat.itemsize * flat.shape[1])).ravel()  # each matrix as one item of its bytes
    _, first, copies = np.unique(items, return_index=True, return_inverse=True)
    w, v = np.linalg.eigh(1j * flat[first].reshape(-1, *m.shape[-2:]))
    e = ((v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj())[copies].reshape(m.shape)
    return e.real if np.isrealobj(m) else e


def _pair_layout(generator: OperatorMatrix, *terms: OperatorMatrix) -> list[tuple]:
    """Per pair of G's block sizes (a, b) that the terms (h, or h and minus) couple, from positions alone: the states
    of the pairs of blocks (first, second) coupled, and each term's entries k there and stack slots (pair, i, j)."""
    members = [m for m, _ in generator.blocks()]
    group, block, slot = (np.empty(generator.dimension, dtype=np.intp) for _ in range(3))  # of each state
    for g, m in enumerate(members):
        group[m], block[m], slot[m] = g, np.arange(len(m))[:, None], range(m.shape[1])
    rows, cols = (np.concatenate([op.triplets[i] for op in terms]) for i in (0, 1))
    starts = np.cumsum([0] + [op.triplets[0].size for op in terms])  # the entries of each term, one after another
    pair_group = group[rows] * len(members) + group[cols]
    order, layout = np.argsort(pair_group, kind="stable"), []
    for k in np.split(order, np.flatnonzero(np.diff(pair_group[order])) + 1) if rows.size else ():
        a, b = group[rows[k[0]]], group[cols[k[0]]]
        pairs, pair = np.unique(block[rows[k]] * len(members[b]) + block[cols[k]], return_inverse=True)
        first, second = np.divmod(pairs, len(members[b]))
        on = [(start <= k) & (k < end) for start, end in zip(starts, starts[1:])]
        at = [(k[t] - start, (pair[t], slot[rows[k[t]]], slot[cols[k[t]]])) for t, start in zip(on, starts)]
        layout.append((members[a][first], members[b][second], a, b, first, second, at))
    return layout


def _transformed_pairs(generator: OperatorMatrix, h: OperatorMatrix, minus: OperatorMatrix | None = None):
    """exp(G) h exp(-G) - minus on each pair (a, b) of blocks of G that h or minus couples, as E_a h_ab E_b^dagger.

    Yields, per pair of block sizes, (row_members (P, a), col_members (P, b), values (P, a, b, G)); a grid operator
    (values (nnz, G)) carries its G columns through, one operator is a grid of one.  Every block of G is
    exponentiated at every grid point by one stacked expm per block size; real operators are transformed in real
    arithmetic, where exp(G) is real.  Which entries go where is found once per pattern (_pair_layout).
    """
    ops = [op for op in (generator, h, minus) if op is not None]
    if any(op.basis != h.basis for op in ops):
        raise ValueError("generator and Hamiltonian live on different bases")
    exps = [expm(np.moveaxis(stack.reshape(*stack.shape[:3], -1), 3, 1)) for _, stack in generator.blocks()]
    values = [v if v.ndim > 1 else v[:, None] for v in (op.triplets[2] for op in ops[1:])]  # (nnz, G), also if empty
    for row_members, col_members, a, b, first, second, at in generator.layout(_pair_layout, *ops[1:]):
        ea, eb = exps[a][first], exps[b][second]  # (P, G, size, size)
        x = np.zeros((len(first), values[0].shape[1], ea.shape[2], eb.shape[2]), dtype=np.result_type(ea, *values))
        (k, (pair, i, j)), *rest = at
        x[pair, :, i, j] = values[0][k]
        product = ea @ x @ np.swapaxes(eb, -1, -2).conj()
        for k, (pair, i, j) in rest:
            product[pair, :, i, j] -= values[1][k]
        yield row_members, col_members, np.moveaxis(product, 1, -1)


def conjugate(generator: OperatorMatrix, h: OperatorMatrix) -> OperatorMatrix:
    """Similarity transform exp(G) H exp(-G) for an anti-Hermitian generator G, as triplets.

    exp(-G) is the adjoint of the unitary exp(G).  Both are taken on G.blocks(), by one stacked `expm` per block size
    (which rejects blocks that are not anti-Hermitian), and applied one pair of blocks at a time: the result holds
    every entry of each pair of blocks of G that H couples.  A grid of generators and Hamiltonians (values (nnz, G))
    gives the grid of transforms.
    """
    one = h.triplets[2].ndim == generator.triplets[2].ndim == 1  # one operator, not a grid
    parts = _transformed_pairs(generator, h)
    return _from_blocks(h.basis, ((r, c, v[..., 0] if one else v) for r, c, v in parts))


def residual_study(params_template: ModelParams, basis: Basis, kappa_grid) -> TransformReport:
    """Measure the transform remainder over a coupling grid and fit its order.

    residual(kappa) = || P [exp(T) H exp(-T) - H_second_order] P ||
    with P projecting out the top two occupation layers of the truncation
    (conjugation leaks amplitude to the boundary; the operator identity is
    a bulk statement).  The fitted log-log slope is expected near 3.  The
    whole grid is one pass over grid operators; the spectral norm is the
    largest |eigenvalue| of the Hermitian part of each parity block of the
    remainder (Hermitian up to round-off), one coupling at a time.
    """
    kappas = [float(k) for k in kappa_grid]
    if len(kappas) < 2:
        raise ValueError(f"kappa grid needs two or more couplings for a slope, got {len(kappas) or 'an empty grid'}")
    if not np.isfinite(kappas).all():
        raise ValueError("kappa grid must be finite")
    if any(k <= 0 for k in kappas):
        raise ValueError("kappa grid must be strictly positive")
    if any(b <= a for a, b in zip(kappas, kappas[1:])):
        raise ValueError("kappa grid must be strictly ascending")
    # at the guard's edge the fitted slope measured 2.97-3.00 for omega0 in {-0.35, 0, 0.2, 0.3, 1}
    plus, minus = spin_ladder_detunings(params_template)
    guard = 0.15 * min(abs(plus), abs(minus))
    if kappas[-1] > guard + 1e-12:
        raise ValueError(
            f"kappa grid exceeds the weak-coupling guard {guard:.4g}; "
            "the remainder fit is only meaningful well below resonance"
        )

    if not interior(basis, margin=2).any():
        raise ValueError("the remainder is measured 2 layers inside the cutoff, where this basis has no state")
    generator, h, second = (assemble(basis, model, params_template, np.array(kappas))
                            for model in ("generator", "full", "second-order"))
    kept, inside = generator.layout(_remainder_layout, h, second)
    with np.errstate(over="ignore", invalid="ignore"):  # a remainder that overflows is rejected below
        parts = _transformed_pairs(generator, h, second)
        core = kept.with_values(np.concatenate([v.reshape(-1, v.shape[3]) for _, _, v in parts])[inside], kept.hint)
        scale = np.abs(core.triplets[2]).max(axis=0, initial=0.0)  # per coupling, so no square overflows
        fro = scale * np.linalg.norm(core.triplets[2] / np.where(scale > 0, scale, 1.0), axis=0)
    if not (finite := np.isfinite(fro)).all():  # a finite Frobenius norm bounds every entry and the spectral norm
        kappa = kappas[np.argmin(finite)]
        raise ValueError(f"the transform remainder at kappa = {kappa:g} overflows: its norm is not finite")
    spectral = [_spectral_norm(core.with_values(column, core.hint)) for column in core.triplets[2].T]

    slope = float(np.polyfit(np.log(kappas), np.log(fro), 1)[0])
    return TransformReport(tuple(kappas), tuple(fro.tolist()), tuple(spectral), slope)


def _remainder_layout(generator: OperatorMatrix, h: OperatorMatrix, second: OperatorMatrix):
    """The remainder 2 layers inside the cutoff: an operator on its positions, and which pair entries those are."""
    rows, cols = (np.concatenate([np.broadcast_arrays(r[:, :, None], c[:, None, :])[axis].ravel()
                                  for r, c, *_ in generator.layout(_pair_layout, h, second)]) for axis in (0, 1))
    keep = interior(generator.basis, margin=2)
    inside = np.flatnonzero(keep[rows] & keep[cols])
    return OperatorMatrix.from_triplets(generator.basis, rows[inside], cols[inside], np.empty((inside.size, 0))), inside


def _spectral_norm(op: OperatorMatrix) -> float:
    """Largest |eigenvalue| of op's Hermitian part (real where op is real), its blocks solved by block_eigenvalues."""
    halves = ((members, 0.5 * stack) for members, stack in op.blocks())  # halved first, so that no sum overflows
    parts = ((members, half + half.conj().swapaxes(1, 2)) for members, half in halves)
    return float(np.abs(block_eigenvalues(parts, hermitian=True)).max())
