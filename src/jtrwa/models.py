"""Hamiltonian builders for the two-level, two-mode vibronic model.

Every model is affine in its parameters: a short table of sparse terms
(products of the elementary operators of fockspace.elementary_ops), each
scaled by a coefficient such as omega, omega0, kappa or kappa^2/(omega +
2 omega0).  The terms are built once per (basis, model) as numpy (rows, cols,
values) triplets in a bounded cache (model_terms), so a coupling scan on one
basis only scales cached terms; each builder sums coefficient * term over the
union of their positions and keeps the nonzeros, with no dim x dim array.
Builders are pure functions of (params, basis) returning an immutable
OperatorMatrix, and are safe to call concurrently.

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

from .fockspace import Basis, ElementaryOps, Hermiticity, OperatorMatrix, Term, elementary_ops


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


TERM_CACHE_SIZE = 16  # (basis, model) entries; each holds O(nnz) sparse terms


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
def model_terms(basis: Basis, model: str) -> tuple[np.ndarray, np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Union (rows, cols) of the term positions of `model` on `basis`, and per term (index into it, values).

    Built on first use and shared: do not modify.
    """
    dim = basis.dimension
    terms = [term.triplets() for term in _TERMS[model](elementary_ops(basis))]
    keys = [rows * dim + cols for rows, cols, _ in terms]
    union = np.unique(np.concatenate(keys))
    return union // dim, union % dim, tuple((np.searchsorted(union, key), t[2]) for key, t in zip(keys, terms))


def assemble(basis: Basis, model: str, coefficients, hint: Hermiticity) -> OperatorMatrix:
    """Sum of coefficient * term over the cached terms of `model`, in table order, as nonzero triplets."""
    rows, cols, terms = model_terms(basis, model)
    summed = np.zeros(rows.size, dtype=np.complex128)
    for coefficient, (slot, values) in zip(coefficients, terms, strict=True):
        summed[slot] += coefficient * values
    keep = summed != 0  # a zero coupling leaves no entry, so its sectors split as in the dense pattern
    return OperatorMatrix.from_triplets(basis, rows[keep], cols[keep], summed[keep], hint)


def _coupling_hint(coupling: complex) -> Hermiticity:
    return Hermiticity.HERMITIAN if complex(coupling).imag == 0.0 else Hermiticity.GENERAL


def build_full_jt(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Full vibronic Hamiltonian with both rotating and counter-rotating coupling.

    H = omega (a1+a1 + a2+a2 + 1) + omega0 sigma0
        + kappa [(a1 + a2+) sigma+ + (a1+ + a2) sigma-]
    """
    return assemble(basis, "full", (params.omega, params.omega0, params.kappa), _coupling_hint(params.kappa))


def build_rwa(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Rotating-wave form: both modes couple through number-conserving terms only."""
    return assemble(basis, "rwa", (params.omega, params.omega0, params.kappa), _coupling_hint(params.kappa))


def build_rotated(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Jaynes-Cummings form reached from the RWA Hamiltonian by the mode rotation.

    Only mode 1 couples, with strength sqrt(2)*kappa; mode 2 is a spectator.
    """
    coefficients = (params.omega, params.omega0, np.sqrt(2.0) * params.kappa)
    return assemble(basis, "jaynes-cummings", coefficients, _coupling_hint(params.kappa))


def build_nonhermitian(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Jaynes-Cummings form with purely imaginary coupling i*gamma.

    Not Hermitian for gamma > 0: the adjoint is the same builder with
    gamma -> -gamma.
    """
    coefficients = (params.omega, params.omega0, 1j * np.sqrt(2.0) * params.gamma)
    hint = Hermiticity.HERMITIAN if params.gamma == 0.0 else Hermiticity.GENERAL
    return assemble(basis, "jaynes-cummings", coefficients, hint)


def build_second_order(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Second-order effective Hamiltonian produced by the decoupling transform.

    This is the rotating-wave Hamiltonian plus every second-order coupling
    correction, assembled term by term; the third-order remainder is
    deliberately not constructed (transforms.residual_study measures it).
    """
    plus, minus = spin_ladder_detunings(params)
    k2 = params.kappa * params.kappa
    coefficients = (params.omega, params.omega0, params.kappa,
                    k2 / plus, k2 / minus, params.omega * k2 / (plus * minus), k2 / minus, -(k2 / plus))
    return assemble(basis, "second-order", coefficients, _coupling_hint(params.kappa))


def conserved_excitation_op(basis: Basis) -> OperatorMatrix:
    """Diagonal conserved quantity n1 - n2 + sigma0/2 of the full Hamiltonian.

    Half-integer eigenvalues; commutes with build_full_jt for any params and
    labels its degenerate sectors.
    """
    return OperatorMatrix(basis, np.diag(basis.n1 - basis.n2 + 0.5 * basis.spin), Hermiticity.HERMITIAN)
