"""Hamiltonian builders for the two-level, two-mode vibronic model.

Every model is affine in its parameters: a short table of sparse terms
(products of the elementary operators of fockspace.elementary_ops), each
scaled by a coefficient such as omega, omega0, kappa or kappa^2/(omega +
2 omega0).  The terms are built once per (basis, model) as numpy (rows, cols,
values) triplets in a bounded cache (model_terms), with the union of their
positions as the model's pattern, whose blocks (its sectors) are found once.
So a coupling scan on one basis only scales cached terms: assemble sums
coefficient * term onto the pattern, exact zeros included, with no dim x dim
array, and decides the Hermiticity hint.  Each model's coefficients are
written once, in COEFFICIENTS, as functions of its coupling: a number gives
a builder's operator, an array of couplings a grid (coefficient_grid), on
which transforms.residual_study runs.  Builders are pure functions of
(params, basis) returning an immutable OperatorMatrix, and are safe to call
concurrently.

Convention: sigma_0 = diag(1, -1), so the bare spin splitting is
2*omega0 and the spin-flip ladder frequencies relative to the boson
quantum are omega +/- 2*omega0.  The decoupling transformation is
singular on that resonance; builders that need its denominators reject
omega = +/-2*omega0 with a ResonanceError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fockspace import Basis, ElementaryOps, Hermiticity, OperatorMatrix, Term, diagonal_op, elementary_ops


class ResonanceError(ValueError):
    """Raised when a requested transform denominator omega +/- 2*omega0 vanishes."""


@dataclass(frozen=True)
class ModelParams:
    """Physical constants: oscillator frequency, level splitting, couplings.

    kappa is the (complex-capable) coupling of the real-coupling builders;
    gamma >= 0 is the magnitude of the purely imaginary coupling used by
    the non-Hermitian variant.
    """

    omega: float
    omega0: float = 0.0
    kappa: complex = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega", "omega0", "kappa", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")

    def real_kappa(self) -> float:
        kappa = complex(self.kappa)
        if kappa.imag != 0.0:
            raise ValueError(f"operation requires a real coupling, got kappa={kappa}")
        return kappa.real


def spin_ladder_detunings(params: ModelParams) -> tuple[float, float]:
    """The two spin-flip detunings (omega + 2*omega0, omega - 2*omega0).

    These are the denominators of the decoupling generator and of the
    second-order coupling corrections.  Raises ResonanceError when either
    vanishes; weak coupling additionally wants |kappa| well below both.
    """
    plus = params.omega + 2.0 * params.omega0
    minus = params.omega - 2.0 * params.omega0
    tol = 1e-12 * params.omega
    if abs(plus) <= tol or abs(minus) <= tol:
        raise ResonanceError(
            f"omega = -/+ 2*omega0 is resonant (omega={params.omega}, omega0={params.omega0}); "
            "the decoupling transform is singular there"
        )
    return plus, minus


TERM_CACHE_SIZE = 16  # (basis, model) entries; each holds O(nnz) sparse terms and the pattern's blocks


def _free(o: ElementaryOps) -> tuple[Term, Term]:
    """The terms scaled by omega and omega0: N + 1 and sigma0."""
    return o.a1d @ o.a1 + o.a2d @ o.a2 + o.eye, o.s0


# Each model as its sparse terms; its builder gives one coefficient per term, in this order.
_TERMS = {
    "full": lambda o: (*_free(o), (o.a1 + o.a2d) @ o.sp + (o.a1d + o.a2) @ o.sm),
    "rwa": lambda o: (*_free(o), (o.a1 + o.a2) @ o.sp + (o.a1d + o.a2d) @ o.sm),
    "jaynes-cummings": lambda o: (*_free(o), o.a1 @ o.sp + o.a1d @ o.sm),
    "second-order": lambda o: (
        *_TERMS["rwa"](o),
        (o.a1d @ o.a2d + o.a1 @ o.a2) @ o.s0,
        (o.a1d @ o.a2 + o.a2d @ o.a1) @ o.s0,  # a2+ a1 is the truncated adjoint of a1+ a2
        (o.a2d @ o.a2d + o.a2 @ o.a2 + 2.0 * (o.a2d @ o.a2)) @ o.s0,
        o.sp @ o.sm,
        o.sm @ o.sp,
    ),
    "generator": lambda o: (o.sp @ o.a2d - o.sm @ o.a2, o.sm @ o.a2d - o.sp @ o.a2),
    "rotation": lambda o: (o.a1d @ o.a2 - o.a2d @ o.a1,),
}


@lru_cache(maxsize=TERM_CACHE_SIZE)
def model_terms(basis: Basis, model: str) -> tuple[OperatorMatrix, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The pattern of `model` on `basis` (ones on the union of its term positions), and per term (slots, values).

    Built on first use and shared: do not modify.
    """
    dim = basis.dimension
    terms = [term.triplets() for term in _TERMS[model](elementary_ops(basis))]
    keys = [rows * dim + cols for rows, cols, _ in terms]
    union = np.unique(np.concatenate(keys))
    pattern = OperatorMatrix.from_triplets(basis, union // dim, union % dim, np.ones(union.size, dtype=np.complex128))
    return pattern, tuple((np.searchsorted(union, key), t[2]) for key, t in zip(keys, terms))


def assemble(basis: Basis, model: str, coefficients) -> OperatorMatrix:
    """Sum of coefficient * term over the cached terms of `model`, in table order, on its pattern, with its hint.

    A (G, terms) array of coefficients gives the grid of G operators, values of shape (nnz, G), one column each: the
    grid axis trails, so that a single operator takes numpy's fast 1-D indexing path unchanged.
    """
    pattern, terms = model_terms(basis, model)
    shape = (pattern.triplets[2].size,)
    if isinstance(coefficients, np.ndarray) and coefficients.ndim == 2:  # per term, a column of G coefficients
        shape, coefficients = (*shape, len(coefficients)), coefficients.T
    summed = np.zeros(shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for coefficient, (slot, values) in zip(coefficients, terms, strict=True):
            summed[slot] += np.multiply.outer(values, coefficient)
    if not np.isfinite(summed).all():
        raise ValueError(f"the {model} operator has an entry that is not finite: a parameter is too large")
    real = Hermiticity.ANTI_HERMITIAN if model in ("generator", "rotation") else Hermiticity.HERMITIAN
    return pattern.with_values(summed, Hermiticity.GENERAL if np.iscomplex(coefficients).any() else real)


def _coupled(params: ModelParams, coupling) -> tuple:
    return params.omega, params.omega0, coupling


def _generator(params: ModelParams, kappa) -> tuple:
    plus, minus = spin_ladder_detunings(params)
    return kappa / plus, -(kappa / minus)


def _second_order(params: ModelParams, kappa) -> tuple:
    plus, minus = spin_ladder_detunings(params)
    k2 = kappa * kappa
    return (params.omega, params.omega0, kappa,
            k2 / plus, k2 / minus, params.omega * k2 / (plus * minus), k2 / minus, -(k2 / plus))


# Per model, its coefficients (one per term, in _TERMS order) at params and a coupling: a number gives one operator's,
# an array of couplings the rows of a grid (coefficient_grid).
COEFFICIENTS = {
    "full": _coupled,
    "rwa": _coupled,
    "jaynes-cummings": _coupled,
    "second-order": _second_order,
    "generator": _generator,
}


def coefficient_grid(model: str, params: ModelParams, couplings) -> np.ndarray:
    """The (G, terms) coefficients of `model` at params with each of the G `couplings` in turn, for assemble."""
    return np.column_stack(np.broadcast_arrays(*COEFFICIENTS[model](params, np.asarray(couplings))))


def build_full_jt(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Full vibronic Hamiltonian with both rotating and counter-rotating coupling.

    H = omega (a1+a1 + a2+a2 + 1) + omega0 sigma0
        + kappa [(a1 + a2+) sigma+ + (a1+ + a2) sigma-]
    """
    return assemble(basis, "full", COEFFICIENTS["full"](params, params.kappa))


def build_rwa(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Rotating-wave form: both modes couple through number-conserving terms only."""
    return assemble(basis, "rwa", COEFFICIENTS["rwa"](params, params.kappa))


def build_rotated(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Jaynes-Cummings form reached from the RWA Hamiltonian by the mode rotation.

    Only mode 1 couples, with strength sqrt(2)*kappa; mode 2 is a spectator.
    """
    return assemble(basis, "jaynes-cummings", COEFFICIENTS["jaynes-cummings"](params, np.sqrt(2.0) * params.kappa))


def build_nonhermitian(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Jaynes-Cummings form with purely imaginary coupling i*gamma.

    Not Hermitian for gamma > 0: the adjoint is the same builder with
    gamma -> -gamma.
    """
    coefficients = COEFFICIENTS["jaynes-cummings"](params, 1j * np.sqrt(2.0) * params.gamma)
    return assemble(basis, "jaynes-cummings", coefficients)


def build_nonhermitian_grid(params: ModelParams, basis: Basis, gammas: np.ndarray) -> OperatorMatrix:
    """build_nonhermitian at every gamma of `gammas` (params.gamma aside): one grid operator, values (nnz, G)."""
    with np.errstate(over="ignore"):  # assemble rejects an entry that overflows
        coupling = 1j * np.sqrt(2.0) * gammas
    return assemble(basis, "jaynes-cummings", coefficient_grid("jaynes-cummings", params, coupling))


def build_second_order(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Second-order effective Hamiltonian produced by the decoupling transform.

    This is the rotating-wave Hamiltonian plus every second-order coupling
    correction, assembled term by term; the third-order remainder is
    deliberately not constructed (transforms.residual_study measures it).
    """
    return assemble(basis, "second-order", COEFFICIENTS["second-order"](params, params.kappa))


def conserved_excitation_op(basis: Basis) -> OperatorMatrix:
    """Diagonal conserved quantity n1 - n2 + sigma0/2 of the full Hamiltonian.

    Half-integer eigenvalues; commutes with build_full_jt for any params and
    labels its degenerate sectors.
    """
    return diagonal_op(basis, basis.n1 - basis.n2 + 0.5 * basis.spin)
