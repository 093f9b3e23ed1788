"""Hamiltonian builders for the two-level, two-mode vibronic model.

Every builder is a pure function of (params, basis) returning an
OperatorMatrix; results are immutable and safe to build concurrently.
The operator expressions are sparse products of the elementary CSR
matrices of fockspace.sparse_ops, densified once into the result.

Convention: sigma_0 = diag(1, -1), so the bare spin splitting is
2*omega0 and the spin-flip ladder frequencies relative to the boson
quantum are omega +/- 2*omega0.  The decoupling transformation is
singular on that resonance; builders that need its denominators reject
omega = +/-2*omega0 with a ResonanceError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fockspace import Basis, Hermiticity, OperatorMatrix, SparseOps, sparse_ops


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


def _free_part(params: ModelParams, o: SparseOps) -> sparse.sparray:
    number = o.a1d @ o.a1 + o.a2d @ o.a2
    return params.omega * (number + sparse.eye_array(number.shape[0])) + params.omega0 * o.s0


def _coupling_hint(coupling: complex) -> Hermiticity:
    return Hermiticity.HERMITIAN if complex(coupling).imag == 0.0 else Hermiticity.GENERAL


def build_full_jt(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Full vibronic Hamiltonian with both rotating and counter-rotating coupling.

    H = omega (a1+a1 + a2+a2 + 1) + omega0 sigma0
        + kappa [(a1 + a2+) sigma+ + (a1+ + a2) sigma-]
    """
    o = sparse_ops(basis)
    h = _free_part(params, o) + params.kappa * ((o.a1 + o.a2d) @ o.sp + (o.a1d + o.a2) @ o.sm)
    return OperatorMatrix(basis, h.toarray(), _coupling_hint(params.kappa))


def _rwa(params: ModelParams, o: SparseOps) -> sparse.sparray:
    return _free_part(params, o) + params.kappa * ((o.a1 + o.a2) @ o.sp + (o.a1d + o.a2d) @ o.sm)


def build_rwa(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Rotating-wave form: both modes couple through number-conserving terms only."""
    return OperatorMatrix(basis, _rwa(params, sparse_ops(basis)).toarray(), _coupling_hint(params.kappa))


def build_rotated(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Jaynes-Cummings form reached from the RWA Hamiltonian by the mode rotation.

    Only mode 1 couples, with strength sqrt(2)*kappa; mode 2 is a spectator.
    """
    o = sparse_ops(basis)
    h = _free_part(params, o) + np.sqrt(2.0) * params.kappa * (o.a1 @ o.sp + o.a1d @ o.sm)
    return OperatorMatrix(basis, h.toarray(), _coupling_hint(params.kappa))


def build_nonhermitian(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Jaynes-Cummings form with purely imaginary coupling i*gamma.

    Not Hermitian for gamma > 0: the adjoint is the same builder with
    gamma -> -gamma.
    """
    o = sparse_ops(basis)
    h = _free_part(params, o) + 1j * np.sqrt(2.0) * params.gamma * (o.a1 @ o.sp + o.a1d @ o.sm)
    hint = Hermiticity.HERMITIAN if params.gamma == 0.0 else Hermiticity.GENERAL
    return OperatorMatrix(basis, h.toarray(), hint)


def build_second_order(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Second-order effective Hamiltonian produced by the decoupling transform.

    This is the rotating-wave Hamiltonian plus every second-order coupling
    correction, assembled term by term; the third-order remainder is
    deliberately not constructed (transforms.residual_study measures it).
    """
    plus, minus = spin_ladder_detunings(params)
    o = sparse_ops(basis)
    a1, a1d, a2, a2d, sp, sm, s0 = o
    k2 = params.kappa * params.kappa

    h = _rwa(params, o)
    h += (k2 / plus) * (a1d @ a2d + a1 @ a2) @ s0
    h += (k2 / minus) * (a1d @ a2 + a2d @ a1) @ s0  # a2+ a1 is the truncated adjoint of a1+ a2
    h += (params.omega * k2 / (plus * minus)) * (a2d @ a2d + a2 @ a2 + 2.0 * (a2d @ a2)) @ s0
    h += (k2 / minus) * (sp @ sm) - (k2 / plus) * (sm @ sp)
    return OperatorMatrix(basis, h.toarray(), _coupling_hint(params.kappa))


def conserved_excitation_op(basis: Basis) -> OperatorMatrix:
    """Diagonal conserved quantity n1 - n2 + sigma0/2 of the full Hamiltonian.

    Half-integer eigenvalues; commutes with build_full_jt for any params and
    labels its degenerate sectors.
    """
    diag = np.array([n1 - n2 + 0.5 * spin for (spin, n1, n2) in basis.states])
    return OperatorMatrix(basis, np.diag(diag), Hermiticity.HERMITIAN)
