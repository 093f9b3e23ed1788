"""Numerical realization of the decoupling similarity transform and mode rotation.

The generator removes the counter-rotating mode-2 coupling to first order
and replaces it with the co-rotating one; conjugating the full Hamiltonian
with its exponential reproduces the explicit second-order form up to a
remainder that is third order in the coupling.  residual_study measures
that remainder on a coupling grid and fits its power law.  Both generators are
anti-Hermitian, so each is exponentiated sector by sector by unitary
eigendecomposition (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fockspace import Basis, Hermiticity, OperatorMatrix, Truncation, interior
from .models import ModelParams, assemble, build_full_jt, build_second_order, spin_ladder_detunings
from .spectra import _blocks, _sectors


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
    basis: Basis

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
    plus, minus = spin_ladder_detunings(params)
    hint = Hermiticity.ANTI_HERMITIAN if complex(params.kappa).imag == 0.0 else Hermiticity.GENERAL
    return assemble(basis, "generator", (params.kappa / plus, -(params.kappa / minus)), hint)


def mode_rotation(basis: Basis) -> OperatorMatrix:
    """Unitary pi/4 rotation mixing the two modes, exp[(pi/4)(a1+ a2 - a2+ a1)].

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
    sectors, stacks = _blocks(assemble(basis, "rotation", (np.pi / 4.0,), Hermiticity.ANTI_HERMITIAN))
    u = np.zeros((basis.dimension,) * 2, dtype=np.complex128)
    for members, stack in zip(sectors, stacks()):
        u[members[:, :, None], members[:, None, :]] = expm(stack)
    return OperatorMatrix(basis, u)


def expm(m: np.ndarray) -> np.ndarray:
    """exp(m) = V exp(-i w) V^dagger of an anti-Hermitian m (or stack) with i m = V w V^dagger; any other m raises."""
    if (dev := np.abs(m + np.swapaxes(m, -1, -2).conj()).max(initial=0.0)) > 1e-12:
        raise ValueError(f"expm takes anti-hermitian matrices only: max|m + m^dagger| = {dev:.3e} > 1e-12")
    w, v = np.linalg.eigh(1j * m)
    return (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def conjugate(generator: OperatorMatrix, h: OperatorMatrix) -> OperatorMatrix:
    """Similarity transform exp(G) H exp(-G) for an anti-Hermitian generator G.

    exp(-G) is the adjoint of the unitary exp(G), which is taken and applied sector by sector of G's
    nonzero pattern: one stacked `expm` per block size, no dim x dim x dim product.
    """
    if generator.basis != h.basis:
        raise ValueError("generator and Hamiltonian live on different bases")
    if generator.hint is not Hermiticity.ANTI_HERMITIAN:
        raise ValueError(f"conjugate takes an anti-hermitian generator, got a {generator.hint.value} hint")
    sectors, stacks = _blocks(generator)
    generator.validate(blocks=stacks())
    exps = [expm(block) for block in stacks()]
    m = h.entries
    for _ in range(2):  # E H^dagger, then E (E H^dagger)^dagger = E H E^dagger
        m = m.conj().T
        for members, e in zip(sectors, exps):
            m[members] = e @ m[members]
    return OperatorMatrix(h.basis, m)


def residual_study(
    params_template: ModelParams,
    basis: Basis,
    kappa_grid,
) -> TransformReport:
    """Measure the transform remainder over a coupling grid and fit its order.

    residual(kappa) = || P [exp(T) H exp(-T) - H_second_order] P ||
    with P projecting out the top two occupation layers of the truncation
    (conjugation leaks amplitude to the boundary; the operator identity is
    a bulk statement).  The fitted log-log slope is expected near 3.
    """
    kappas = [float(k) for k in kappa_grid]
    if len(kappas) < 2:
        raise ValueError(f"kappa grid needs two or more couplings for a slope, got {len(kappas) or 'an empty grid'}")
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

    keep = interior(basis, margin=2)
    if not keep.any():
        raise ValueError("the remainder is measured 2 layers inside the cutoff, where this basis has no state")
    fro: list[float] = []
    spectral: list[float] = []
    for kappa in kappas:
        params = replace(params_template, kappa=kappa)
        transformed = conjugate(decoupling_generator(params, basis), build_full_jt(params, basis)).entries
        core = (transformed - build_second_order(params, basis).entries)[np.ix_(keep, keep)]
        fro.append(float(np.linalg.norm(core, "fro")))
        blocks = (core[members[:, :, None], members[:, None, :]] for members in _sectors(*np.nonzero(core), len(core)))
        spectral.append(max(float(np.linalg.norm(block, 2, axis=(1, 2)).max()) for block in blocks))

    slope = float(np.polyfit(np.log(kappas), np.log(fro), 1)[0])
    return TransformReport(tuple(kappas), tuple(fro), tuple(spectral), slope, basis)
