"""Truncated spin-1/2 x two-mode Fock space and its elementary operators.

Basis convention: states |s, n1, n2> are ordered spin-major (all spin-up
states first, then all spin-down), then lexicographically by (n1, n2).
With sigma_0 = diag(1, -1) the spin-up block therefore occupies the first
half of every matrix.

Two truncation schemes are supported:

* per-mode: independent cutoffs n1 <= n_max_1, n2 <= n_max_2;
* total-number: a shared bound n1 + n2 <= N, which closes exactly under
  any operation that conserves the total boson number.

A Basis holds the quantum numbers of its states as three read-only
integer arrays, spin, n1 and n2, in that order.  Operators are assembled
sparse, as Terms: sums of products of ladder, Pauli and identity column
maps built by index arithmetic on those arrays (models caches their
triplets per basis), and held in an OperatorMatrix as the (rows, cols,
values) triplets of their nonzeros, which the sector eigensolver reads;
the dense view is built only for the dense consumers (conjugation, metric
checks).  Diagonal operators (sigma_0, parity, the conserved
excitation number) are formulas of the arrays.

All constructed operators carry a reference to their basis and are
immutable after construction (their arrays are marked read-only), so
they can be shared freely between concurrent workers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

SPIN_UP = 1
SPIN_DOWN = -1


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
    """Enumerated basis: state k is |spin[k], n1[k], n2[k]>, in the canonical order.

    The three quantum-number arrays are read-only.  The tuple view `states`
    and the state -> position map behind `index`/`contains` are built on
    first use.
    """

    spec: BasisSpec
    spin: np.ndarray
    n1: np.ndarray
    n2: np.ndarray

    @property
    def dimension(self) -> int:
        return self.spin.size

    @cached_property
    def states(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self.spin.tolist(), self.n1.tolist(), self.n2.tolist()))

    @cached_property
    def _index(self) -> dict:
        return dict(zip(self.states, range(self.dimension)))

    def index(self, spin: int, n1: int, n2: int) -> int:
        try:
            return self._index[(spin, n1, n2)]
        except KeyError:
            raise ValueError(f"state (s={spin}, n1={n1}, n2={n2}) outside basis") from None

    def contains(self, spin: int, n1: int, n2: int) -> bool:
        return (spin, n1, n2) in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Basis) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)


def make_basis(spec: BasisSpec) -> Basis:
    """The quantum numbers of the basis states of `spec` in the fixed canonical order."""
    n1, n2 = (axis.ravel() for axis in np.indices((spec.n_max_1 + 1, spec.n_max_2 + 1)))
    if spec.truncation is Truncation.TOTAL_NUMBER:
        inside = n1 + n2 <= spec.n_max_1
        n1, n2 = n1[inside], n2[inside]
    return Basis(spec, *_read_only(np.repeat((SPIN_UP, SPIN_DOWN), n1.size), np.tile(n1, 2), np.tile(n2, 2)))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


class OperatorMatrix:
    """Complex matrix tagged with its basis and a structure hint, held as the (rows, cols, values) of its nonzeros.

    Builders hand over those triplets (`from_triplets`); the constructor keeps a read-only copy of the dense
    matrix it is given as `entries`.  Each view is built from the other on first read: the triplets feed the
    sector solver, the dense view the dense consumers (conjugation, metric checks).  All arrays are read-only.
    """

    def __init__(self, basis: Basis, entries: np.ndarray, hint: Hermiticity = Hermiticity.GENERAL) -> None:
        entries = np.array(entries, dtype=np.complex128)
        if entries.shape != (basis.dimension,) * 2:
            raise ValueError(f"entries shape {entries.shape} does not match basis dimension {basis.dimension}")
        self.basis, self.hint, self.entries = basis, hint, _read_only(entries)[0]

    @classmethod
    def from_triplets(cls, basis: Basis, rows, cols, values, hint=Hermiticity.GENERAL) -> "OperatorMatrix":
        """The operator with the entry values[k] at (rows[k], cols[k]), which it takes ownership of."""
        op = cls.__new__(cls)
        op.basis, op.hint, op.triplets = basis, hint, _read_only(rows, cols, values)
        return op

    @cached_property
    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, cols = np.nonzero(self.entries)
        return _read_only(rows, cols, self.entries[rows, cols])

    @cached_property
    def entries(self) -> np.ndarray:
        rows, cols, values = self.triplets
        m = np.zeros((self.dimension,) * 2, dtype=np.complex128)
        m[rows, cols] = values
        return _read_only(m)[0]

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, self.entries.conj().T, self.hint)

    def validate(self, tol: float = 1e-12, blocks=None) -> float:
        """Check the structure hint; returns the deviation, raises if violated.

        `blocks` may hold or yield stacked (count, size, size) diagonal blocks that contain every nonzero.
        """
        if self.hint is Hermiticity.GENERAL:
            return 0.0
        # max |m -/+ m^dagger| over the nonzeros, or the blocks: entries zero in m and m^dagger add 0
        if blocks is None:
            rows, cols, values = self.triplets
            pairs = [(values, self.entries[cols, rows].conj())]
        else:
            pairs = ((stack, stack.conj().swapaxes(1, 2)) for stack in blocks)
        hermitian = self.hint is Hermiticity.HERMITIAN
        dev = max(np.abs(entry - mirror if hermitian else entry + mirror).max(initial=0.0)
                  for entry, mirror in pairs)
        if dev > tol:
            raise ValueError(f"matrix violates {self.hint.value} hint: deviation {dev:.3e} > {tol:.1e}")
        return float(dev)


def identity_op(basis: Basis) -> OperatorMatrix:
    return OperatorMatrix(basis, np.eye(basis.dimension), Hermiticity.HERMITIAN)


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
        cols = np.tile(np.arange(dim), len(self.monomials))[keep]
        positions, slot = np.unique(rows[keep] * dim + cols, return_inverse=True)
        summed = np.zeros(positions.size, dtype=values.dtype)
        np.add.at(summed, slot, values[keep])
        return positions // dim, positions % dim, summed

    def dense(self) -> np.ndarray:
        rows, cols, values = self.triplets()
        m = np.zeros((self.monomials[0][0].size - 1,) * 2, dtype=np.complex128)
        m[rows, cols] = values
        return m


ElementaryOps = namedtuple("ElementaryOps", "a1 a1d a2 a2d sp sm s0 eye")


def elementary_ops(basis: Basis) -> ElementaryOps:
    """Ladder, Pauli and identity operators of `basis` as terms, with no per-state loop.

    a|n> = sqrt(n)|n-1> per mode, sigma_plus|down> = |up> and sigma_0 =
    diag(spin), each the identity on the other factors; every dagger (a1d,
    a2d, sm) is the conjugate transpose of its partner.  In the basis order,
    lowering n2 steps one state back, lowering n1 steps back over the states
    with n1 - 1 (of the same spin), and raising the spin over half the basis.
    """
    spec, dim = basis.spec, basis.dimension
    spin, n1, n2 = basis.spin, basis.n1, basis.n2
    shrinks = spec.truncation is Truncation.TOTAL_NUMBER  # then N + 1 - m states have n1 = m

    def term(cols, rows, values) -> Term:
        target, value = np.full(dim + 1, -1), np.zeros(dim + 1)
        target[cols], value[cols] = rows, values
        return Term([(target, value)])

    def step_back(cols, step, values) -> tuple[Term, Term]:  # column k to row k - step; real values
        return term(cols, cols - step, values), term(cols - step, cols, values)

    k1, k2, kd, every = np.flatnonzero(n1), np.flatnonzero(n2), np.flatnonzero(spin == SPIN_DOWN), np.arange(dim)
    return ElementaryOps(
        *step_back(k1, spec.n_max_2 + 1 - shrinks * (n1[k1] - 1), np.sqrt(n1[k1])),
        *step_back(k2, 1, np.sqrt(n2[k2])),
        *step_back(kd, dim // 2, 1.0),
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
    ann = OperatorMatrix(basis, (ops.a1 if mode == 1 else ops.a2).dense())
    return ann, ann.dagger()


def pauli_ops(basis: Basis) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """(sigma_plus, sigma_minus, sigma_0), each tensored with the boson identity."""
    ops = elementary_ops(basis)
    sigma_plus = OperatorMatrix(basis, ops.sp.dense())
    return sigma_plus, sigma_plus.dagger(), OperatorMatrix(basis, ops.s0.dense(), Hermiticity.HERMITIAN)


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
    return OperatorMatrix(basis, np.diag(interior(basis, margin)), Hermiticity.HERMITIAN)
