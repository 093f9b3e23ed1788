"""Truncated spin-1/2 x two-mode Fock space and its elementary operators.

Basis convention: states |s, n1, n2> are ordered spin-major (all spin-up
states first, then all spin-down), then lexicographically by (n1, n2).
With sigma_0 = diag(1, -1) the spin-up block therefore occupies the first
half of every matrix.

Two truncation schemes are supported:

* per-mode: independent cutoffs n1 <= n_max_1, n2 <= n_max_2;
* total-number: a shared bound n1 + n2 <= N, which closes exactly under
  any operation that conserves the total boson number.

A Basis holds the quantum numbers of its states as three read-only integer
arrays, spin, n1 and n2, in that order, and inverts them by offset arithmetic;
make_basis builds one per spec and shares it.  Operators are assembled sparse,
as Terms: sums of products of ladder, Pauli and identity column maps (models
caches a model's terms per basis as one operator, a column of values per term),
and held in an OperatorMatrix as (rows, cols, values) triplets.  Its blocks()
are the blocks of their pattern (the conserved-quantity sectors), all or a
chosen few, read by the eigensolver, the transforms and the checks;
block_bounds() bounds each block's spectrum from below and the spectral radius
from above (Gershgorin, through block_minima), and difference() pairs each entry
with its image under the transpose or another involution of positions: the one
formula of validate()'s m -/+ m^dagger and the other checks.  twins() pairs
the blocks that the spin flip with the mode swap, (s, n1, n2) -> (-s, n2, n1),
maps onto each other, where the operator commutes with it exactly.  Either
scan, O(nnz), is skipped where the builder has proved its answer (with_values:
exact, paired, as models.assemble does from its terms' structure, found once
per basis and model).  A model operator holds its model's positions, zeros
included, and their layout (blocks, chosen blocks, partner and swap maps,
layouts with other patterns: layout()), found once (with_values) and kept in a
bounded cache.  Triplets are the only way to build an operator (from_triplets);
no module reads the dense view `entries`, the tests' oracle.

All constructed operators carry a reference to their basis and are
immutable after construction (their arrays are marked read-only), so
they can be shared freely between concurrent workers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

SPIN_UP = 1
SPIN_DOWN = -1
HINT_TOL = 1e-12  # largest accepted max|m -/+ m^dagger| of an operator hinted (anti-)Hermitian
LAYOUTS = 16  # layouts kept per pattern (_Plan.once): chosen block sets, partner maps, layouts with other patterns


class Truncation(Enum):
    PER_MODE = "per-mode"
    TOTAL_NUMBER = "total-number"


class Hermiticity(Enum):
    """Advisory structure hint for an operator matrix, validated on demand."""

    HERMITIAN = "hermitian"
    ANTI_HERMITIAN = "anti-hermitian"
    GENERAL = "general"


@dataclass(frozen=True)
class BasisSpec:
    """Defining data of a truncated basis.

    For TOTAL_NUMBER truncation both per-mode fields hold the shared bound.
    """

    truncation: Truncation
    n_max_1: int
    n_max_2: int

    def __post_init__(self) -> None:
        for name in ("n_max_1", "n_max_2"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.truncation is Truncation.TOTAL_NUMBER and self.n_max_1 != self.n_max_2:
            raise ValueError("total-number truncation uses a single shared cutoff")

    @classmethod
    def per_mode(cls, n_max_1: int, n_max_2: int | None = None) -> "BasisSpec":
        if n_max_2 is None:
            n_max_2 = n_max_1
        return cls(Truncation.PER_MODE, n_max_1, n_max_2)

    @classmethod
    def total_number(cls, n_max: int) -> "BasisSpec":
        return cls(Truncation.TOTAL_NUMBER, n_max, n_max)

    @property
    def cutoff(self) -> int:
        """Single identifying cutoff: the total bound, or max per-mode cutoff."""
        return max(self.n_max_1, self.n_max_2)

    @property
    def dimension(self) -> int:
        if self.truncation is Truncation.PER_MODE:
            return 2 * (self.n_max_1 + 1) * (self.n_max_2 + 1)
        n = self.n_max_1
        return (n + 1) * (n + 2)  # 2 * (n+1)(n+2)/2


@dataclass(frozen=True, eq=False)
class Basis:
    """Enumerated basis: state k is |spin[k], n1[k], n2[k]>, in the canonical order; the arrays are read-only."""

    spec: BasisSpec
    spin: np.ndarray
    n1: np.ndarray
    n2: np.ndarray

    @property
    def dimension(self) -> int:
        return self.spin.size

    def index(self, spin, n1, n2):
        """Position of |spin, n1, n2> by offset arithmetic, elementwise on arrays; raises ValueError if outside."""
        spec, total = self.spec, self.spec.truncation is Truncation.TOTAL_NUMBER
        spin, n1, n2 = map(np.asarray, (spin, n1, n2))
        below = n1 * (spec.n_max_2 + 1) - (n1 * (n1 - 1) // 2 if total else 0)  # same-spin states of smaller n1
        k = (spin == SPIN_DOWN) * (self.dimension // 2) + below + n2
        at = k.clip(0, self.dimension - 1)  # a state is inside when its position holds it
        if not np.all((k == at) & (self.spin[at] == spin) & (self.n1[at] == n1) & (self.n2[at] == n2)):
            raise ValueError(f"state (s={spin}, n1={n1}, n2={n2}) outside basis")
        return k[()]

    def contains(self, spin: int, n1: int, n2: int) -> bool:
        try:
            return bool(self.index(spin, n1, n2) >= 0)
        except ValueError:
            return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Basis) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)


@lru_cache(maxsize=16)
def make_basis(spec: BasisSpec) -> Basis:
    """The quantum numbers of the basis states of `spec` in the fixed canonical order, built once per spec and shared
    (a Basis is frozen and its arrays are read-only)."""
    n1, n2 = (axis.ravel() for axis in np.indices((spec.n_max_1 + 1, spec.n_max_2 + 1)))
    if spec.truncation is Truncation.TOTAL_NUMBER:
        inside = n1 + n2 <= spec.n_max_1
        n1, n2 = n1[inside], n2[inside]
    return Basis(spec, *_read_only(np.repeat((SPIN_UP, SPIN_DOWN), n1.size), np.tile(n1, 2), np.tile(n2, 2)))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _summed(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """(rows, cols, values) of a dim x dim matrix in row-major order, the values at one position summed in order."""
    positions, slot = np.unique(rows * dim + cols, return_inverse=True)
    summed = np.zeros((positions.size, *values.shape[1:]), dtype=values.dtype)
    np.add.at(summed, slot, values)
    return positions // dim, positions % dim, summed


def _sectors(rows: np.ndarray, cols: np.ndarray, dim: int) -> list[np.ndarray]:
    """Members of every block of one size as a (count, size) index array, per size.

    The blocks are the connected components of the symmetrized pattern (rows, cols) of a dim x dim
    matrix (min-label propagation with pointer jumping); entries between blocks are zero.
    """
    src, dst = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    labels = np.arange(dim)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, src, labels[dst])
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    _, block, counts = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.lexsort((labels, counts[block]))
    sizes, numbers = np.unique(counts, return_counts=True)
    ends = np.cumsum(sizes * numbers)
    return [order[end - size * number:end].reshape(number, size) for size, number, end in zip(sizes, numbers, ends)]


# Theta on a pattern it maps onto itself: its state map (an involution), per triplet the index of the triplet at its
# Theta-image, and per block (in the order blocks() gives them) its twin.
Swap = namedtuple("Swap", "state partner twin")


class _Plan:
    """The layout that the positions (rows, cols) of a dim x dim operator decide, each part found on first use.

    Shared by every operator on those positions (with_values), so it is found once per pattern.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, basis: Basis) -> None:
        self.rows, self.cols, self.basis, self.dim, self.found = rows, cols, basis, basis.dimension, {}

    def once(self, key, find):
        """find(), kept under `key` (hashable, held by the cache) with the last LAYOUTS others found on this pattern."""
        if key not in self.found:  # find() may keep layouts of its own first
            self.found[key] = find()
            self.found = dict(list(self.found.items())[-LAYOUTS:])
        return self.found[key]

    @cached_property
    def sizes(self) -> list[tuple]:
        """Per block size: the (count, size) members, its triplets (indices, a slice) and (block, row, col) slots."""
        rows, cols, dim = self.rows, self.cols, self.dim
        sectors = _sectors(rows, cols, dim)
        group, block, slot = (np.empty(dim, dtype=np.intp) for _ in range(3))  # of each state
        for g, members in enumerate(sectors):
            group[members], block[members], slot[members] = g, np.arange(len(members))[:, None], range(members.shape[1])
        counts = np.bincount(group[rows], minlength=len(sectors))
        by_group = np.split(np.argsort(group[rows], kind="stable"), np.cumsum(counts)[:-1])
        return [(members, k, (block[rows[k]], slot[rows[k]], slot[cols[k]])) for members, k in zip(sectors, by_group)]

    @cached_property
    def first(self) -> np.ndarray:
        """Where each size's blocks start among all blocks, in the order blocks() gives them, then the block count."""
        return np.cumsum([0] + [len(members) for members, _, _ in self.sizes])

    @cached_property
    def states(self) -> tuple[np.ndarray, np.ndarray]:
        """The states of every block, block after block in that order, and the position where each block starts."""
        states = np.concatenate([members.ravel() for members, _, _ in self.sizes])
        width = np.concatenate([np.full(len(members), members.shape[1]) for members, _, _ in self.sizes])
        return states, np.cumsum(width) - width

    def chosen(self, chosen: np.ndarray) -> list[tuple]:
        """`sizes` for the blocks `chosen` alone (positions among all blocks), renumbered; a size with none drops."""
        marked = np.zeros(self.first[-1], dtype=bool)
        marked[chosen] = True
        picked = []
        for g in np.flatnonzero(np.logical_or.reduceat(marked, self.first[:-1])):
            members, k, (block, row, col) = self.sizes[g]
            pick = marked[self.first[g]:self.first[g + 1]]
            on, renumber = pick[block], np.cumsum(pick) - 1  # the new stack position of each kept block
            picked.append((members[pick], k[on], (renumber[block[on]], row[on], col[on])))
        return picked

    def partners(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per position (rows[k], cols[k]), the index of the triplet there and whether there is one (the positions of
        the triplets are distinct, as in every operator the package builds)."""
        keys, wanted = self.rows * self.dim + self.cols, rows * self.dim + cols
        order = np.argsort(keys)
        partner = order[np.searchsorted(keys, wanted, sorter=order).clip(max=keys.size - 1)]
        return partner, keys[partner] == wanted

    @cached_property
    def swap(self) -> Swap | None:
        """Theta, the spin flip with the mode swap (s, n1, n2) -> (-s, n2, n1), where it maps the pattern onto itself
        (on a mode-symmetric basis, every triplet's Theta-image a triplet; else None), and so each block onto a block,
        its twin."""
        basis = self.basis
        if basis.spec.n_max_1 != basis.spec.n_max_2:
            return None
        state = basis.index(-basis.spin, basis.n2, basis.n1)
        partner, found = self.partners(state[self.rows], state[self.cols])
        if not found.all():
            return None
        states, starts = self.states
        block = np.empty(self.dim, dtype=np.intp)  # of each state
        block[states] = np.repeat(np.arange(starts.size), np.diff(starts, append=self.dim))
        return Swap(state, partner, block[state[states[starts]]])


class OperatorMatrix:
    """Complex matrix tagged with its basis and a structure hint, held as (rows, cols, values) triplets.

    Builders hand over those triplets, exact zeros included (`from_triplets`, `with_values`): there is no other
    constructor.  The dense view `entries`, built on first read, serves tests only.
    """

    exact = paired = False  # proved by the builder (with_values); else validate() and twins() scan the values

    @classmethod
    def from_triplets(cls, basis: Basis, rows, cols, values, hint=Hermiticity.GENERAL) -> "OperatorMatrix":
        """The operator with the entry values[k] at (rows[k], cols[k]), which it takes ownership of."""
        op = cls.__new__(cls)
        op.basis, op.hint, op.triplets = basis, hint, _read_only(rows, cols, values)
        return op

    def with_values(self, values, hint: Hermiticity, exact=False, paired=False) -> "OperatorMatrix":
        """The operator with `values` at this one's positions, in their order, sharing its blocks and transpose map.

        `values` of shape (nnz, G) make a grid of G operators, one per column, which blocks() and validate() keep.
        A builder that has proved it passes `exact` (real values, exactly (anti-)Hermitian as `hint` says: validate() is
        0.0) and `paired` (each value its Theta-partner's: twins() is the swap), unchecked and not inherited.
        """
        op = OperatorMatrix.from_triplets(self.basis, *self.triplets[:2], values, hint)
        op._plan, op.exact, op.paired = self._plan, exact, paired
        return op

    @cached_property
    def entries(self) -> np.ndarray:
        rows, cols, values = self.triplets
        m = np.zeros((self.dimension,) * 2, dtype=np.complex128)
        m[rows, cols] = values
        return _read_only(m)[0]

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    @cached_property
    def _plan(self) -> _Plan:
        return _Plan(*self.triplets[:2], self.basis)

    def layout(self, find, *others: "OperatorMatrix"):
        """find(self, *others), a layout that the positions of this operator and of `others` decide and their values do
        not, found once per pattern of each and kept with this one's (_Plan.once); shared: do not modify."""
        return self._plan.once((find, *(other._plan for other in others)), lambda: find(self, *others))

    def difference(self, values: np.ndarray, image: np.ndarray, move=None) -> np.ndarray:
        """A - B, A with values[k] at this operator's k-th position and B with image[k] where `move` (an involution of
        positions, as a map of operators; the transpose if None) moves it: on A's positions, then B's, but no zeros."""
        plan = self._plan
        moved = (lambda: (plan.cols, plan.rows)) if move is None else lambda: move(self).triplets[:2]
        partner, found = plan.once(move, lambda: plan.partners(*moved()))
        on = found.reshape(-1, *(1,) * (values.ndim - 1))
        difference = np.concatenate((values - np.where(on, image[partner], 0.0), -image[~found]))
        return difference[np.any(difference != 0, axis=tuple(range(1, values.ndim)))]

    def twins(self) -> Swap | None:
        """Theta (the spin flip with the mode swap) where this operator commutes with it, else None: its pattern maps
        onto itself (_Plan.swap, found once) and every value equals its Theta-partner's exactly, in every column of a
        grid (`paired`, or checked per call, O(nnz)).  Then a block and its twin (J and -J of the full model at
        omega0 = 0) are equal entry for entry under the state map, so they have the same eigenpairs."""
        swap, values = self._plan.swap, self.triplets[2]
        return swap if swap is not None and (self.paired or np.array_equal(values, values[swap.partner])) else None

    def blocks(self, chosen: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(members, stack) per block size, ascending: stack[b] is the block on the states members[b].

        Values of shape (nnz, G), a grid of operators on one pattern, give stacks of shape (count, size, size, G).
        The blocks (found once) are the connected components of the pattern of the triplets, so they hold every entry;
        a stack is scattered when it is reached, since all at once would take 87 MB at total cutoff 200.  `chosen`
        (positions among all blocks) keeps only those blocks, still one stack per size; a size with none is skipped.
        diagonalize chooses one block of each twin pair (twins()) this way.
        """
        values, plan = self.triplets[2], self._plan
        chosen = None if chosen is None else np.asarray(chosen, dtype=np.intp)  # its layout found once per set
        layout = plan.sizes if chosen is None else plan.once(chosen.tobytes(), lambda: plan.chosen(chosen))
        for members, k, slots in layout:
            stack = np.zeros((*members.shape, members.shape[1], *values.shape[1:]), dtype=np.complex128)
            stack[slots] = values[k]
            yield members, stack

    def block_minima(self, per_state: np.ndarray) -> np.ndarray:
        """The least of `per_state` (dim, ...) over the states of each block, (blocks, ...) in the order blocks() gives
        them; nan reads as -inf.  The one reduction of a per-state bound to the blocks: one reduceat for one operator,
        and for a grid (dim, G) one min per block size, which skips reduceat's cost per segment and column."""
        per_state, plan = np.where(np.isnan(per_state), -np.inf, per_state), self._plan
        if per_state.ndim == 1:
            states, starts = plan.states
            return np.minimum.reduceat(per_state[states], starts)
        return np.concatenate([per_state[members].min(axis=1) for members, _, _ in plan.sizes])

    def block_bounds(self) -> tuple[np.ndarray, float]:
        """A lower bound on the real parts of the eigenvalues of each block, in the order blocks() gives them, and
        max_i sum_j |m_ij|, bounding the spectral radius: models.gershgorin's (lower, scale), two row sums of |entry|.

        Gershgorin: beta_b = min over the rows i of block b of (Re m_ii - sum_{j != i} |m_ij|), which holds for any
        complex matrix.  A row whose radius overflows gives its block -inf, and the spectral radius bound +inf.
        """
        rows, cols, values = self.triplets
        with np.errstate(over="ignore", invalid="ignore"):
            magnitude = np.abs(values)
            per_row = np.bincount(rows, np.where(rows == cols, values.real, -magnitude), minlength=self.dimension)
            radius = np.bincount(rows, magnitude, minlength=self.dimension).max(initial=0.0)
        return self.block_minima(per_row), radius

    def validate(self) -> float:
        """Check the structure hint; returns the deviation max|m -/+ m^dagger| (0.0 unscanned where `exact`), raises if
        violated: of one operator or a grid (values (nnz, G)), by difference(), as the metric check measures it."""
        if self.hint is Hermiticity.GENERAL or self.exact:
            return 0.0
        values, sign = self.triplets[2], 1.0 if self.hint is Hermiticity.HERMITIAN else -1.0  # m = sign m^dagger
        dev = np.abs(self.difference(values, sign * values.conj())).max(initial=0.0)
        if not dev <= HINT_TOL:
            raise ValueError(f"matrix violates {self.hint.value} hint: deviation {dev:.3e} > {HINT_TOL:.1e}")
        return float(dev)


def diagonal_op(basis: Basis, d) -> OperatorMatrix:
    """The Hermitian diagonal operator diag(d), held as the triplets of its nonzero entries."""
    k = np.flatnonzero(d)
    return OperatorMatrix.from_triplets(basis, k, k, np.asarray(d, dtype=np.complex128)[k], Hermiticity.HERMITIAN)


class Term:
    """Sum of monomials, each a partial column map: column j goes to row target[j] times value[j].

    Target -1 leaves the basis; the extra last column is that outside state
    (target -1, value 0), so a product chases indices with no special case.
    """

    def __init__(self, monomials) -> None:
        self.monomials = tuple(monomials)

    def __matmul__(self, other: "Term") -> "Term":
        return Term((t1[t2], v1[t2] * v2) for t1, v1 in self.monomials for t2, v2 in other.monomials)

    def __add__(self, other: "Term") -> "Term":
        return Term(self.monomials + other.monomials)

    def __sub__(self, other: "Term") -> "Term":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "Term":
        return Term((t, scalar * v) for t, v in self.monomials)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) in row-major order; entries at one position are summed in monomial order."""
        dim = self.monomials[0][0].size - 1
        rows = np.concatenate([t[:-1] for t, _ in self.monomials])
        values = np.concatenate([v[:-1] for _, v in self.monomials])
        keep = rows >= 0
        return _summed(rows[keep], np.tile(np.arange(dim), len(self.monomials))[keep], values[keep], dim)


ElementaryOps = namedtuple("ElementaryOps", "a1 a1d a2 a2d sp sm s0 eye")


def elementary_ops(basis: Basis) -> ElementaryOps:
    """Ladder, Pauli and identity operators of `basis` as terms, with no per-state loop.

    a|n> = sqrt(n)|n-1> per mode, sigma_plus|down> = |up> and sigma_0 =
    diag(spin), each the identity on the other factors; every dagger (a1d,
    a2d, sm) is the conjugate transpose of its partner.  The state that a
    ladder or spin flip reaches is found by `basis.index`.
    """
    dim, spin, n1, n2 = basis.dimension, basis.spin, basis.n1, basis.n2

    def term(cols, rows, values) -> Term:
        target, value = np.full(dim + 1, -1), np.zeros(dim + 1)
        target[cols], value[cols] = rows, values
        return Term([(target, value)])

    def with_adjoint(cols, rows, values) -> tuple[Term, Term]:  # column k to row rows[k], and back; real values
        return term(cols, rows, values), term(rows, cols, values)

    k1, k2, kd, every = np.flatnonzero(n1), np.flatnonzero(n2), np.flatnonzero(spin == SPIN_DOWN), np.arange(dim)
    return ElementaryOps(
        *with_adjoint(k1, basis.index(spin[k1], n1[k1] - 1, n2[k1]), np.sqrt(n1[k1])),
        *with_adjoint(k2, basis.index(spin[k2], n1[k2], n2[k2] - 1), np.sqrt(n2[k2])),
        *with_adjoint(kd, basis.index(SPIN_UP, n1[kd], n2[kd]), 1.0),
        term(every, every, spin),
        term(every, every, 1.0),
    )


def boson_ops(basis: Basis, mode: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Annihilation and creation matrices for one mode.

    a|n> = sqrt(n)|n-1> within the cutoff; the creation matrix is the exact
    conjugate transpose of the annihilation matrix.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    ops = elementary_ops(basis)
    pair = (ops.a1, ops.a1d) if mode == 1 else (ops.a2, ops.a2d)
    return tuple(OperatorMatrix.from_triplets(basis, *term.triplets()) for term in pair)


def pauli_ops(basis: Basis) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """(sigma_plus, sigma_minus, sigma_0), each tensored with the boson identity."""
    ops = elementary_ops(basis)
    sigma_plus, sigma_minus = (OperatorMatrix.from_triplets(basis, *term.triplets()) for term in (ops.sp, ops.sm))
    return sigma_plus, sigma_minus, diagonal_op(basis, basis.spin)


def interior(basis: Basis, margin: int) -> np.ndarray:
    """Mask of the states that lie `margin` or more occupation layers inside the truncation."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    spec = basis.spec
    if spec.truncation is Truncation.TOTAL_NUMBER:
        return basis.n1 + basis.n2 <= spec.n_max_1 - margin
    return (basis.n1 <= spec.n_max_1 - margin) & (basis.n2 <= spec.n_max_2 - margin)


def interior_projector(basis: Basis, margin: int = 1) -> OperatorMatrix:
    """Projector that drops the top `margin` occupation layers of the truncation.

    Operator identities of the untruncated algebra hold exactly on this
    interior; errors accumulate only in the discarded boundary layers.
    """
    return diagonal_op(basis, interior(basis, margin))
