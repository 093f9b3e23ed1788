"""Hamiltonian builders for the two-level, two-mode vibronic model.

Every model is affine in its parameters: a short table of sparse terms (products
of the elementary operators of fockspace.elementary_ops), each scaled by a
coefficient such as omega, omega0, kappa or kappa^2/(omega + 2 omega0).  Each
model is declared once, in MODELS: its terms, and one function of (params,
coupling) that gives its coefficients, the sqrt(2) of the rotated form and the
i sqrt(2) of the imaginary-coupling form folded in.  The terms are built once
per (basis, model) in a bounded cache (model_terms) in one sorted pass over all
their monomials (fockspace's Term.columns), as one operator on the union of
their positions, a column of values per term, whose blocks (the model's sectors)
are found once and bounded at any coupling by gershgorin.  So a coupling scan on
one basis only scales cached terms: assemble sums coefficient * term in table
order, with no dim x dim array, and decides the dtype, real at real
coefficients, and the Hermiticity hint, which the terms' structure (found with
them) then proves exact, sparing validate(); assemble_blocks sums the same on
chosen blocks, bit for bit.  A number as coupling gives one operator, an array
of couplings a grid (as in transforms.residual_study and the gamma commands).
The builders, its one-line forms at params' own coupling, are pure and
thread-safe functions of (params, basis) returning an immutable OperatorMatrix.

Convention: sigma_0 = diag(1, -1), so the bare spin splitting is
2*omega0 and the spin-flip ladder frequencies relative to the boson
quantum are omega +/- 2*omega0.  The decoupling transformation is
singular on that resonance; builders that need its denominators reject
omega = +/-2*omega0 with a ResonanceError.
"""

from __future__ import annotations

from collections import namedtuple
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


TERM_CACHE_SIZE = 16  # (basis, model) entries; each holds its terms as (nnz, terms) values and their blocks

# A model: its sparse terms on the elementary operators, and its coefficients at (params, coupling), one per term in
# that order.  A number as coupling gives one operator's coefficients, an array of G couplings columns of G.
Model = namedtuple("Model", "terms coefficients anti_hermitian", defaults=(False,))


def _free(o: ElementaryOps) -> tuple[Term, Term]:
    """The terms scaled by omega and omega0: N + 1 and sigma0."""
    return o.a1d @ o.a1 + o.a2d @ o.a2 + o.eye, o.s0


def _rwa(o: ElementaryOps) -> tuple[Term, ...]:
    return *_free(o), (o.a1 + o.a2) @ o.sp + (o.a1d + o.a2d) @ o.sm


def _jaynes_cummings(o: ElementaryOps) -> tuple[Term, ...]:
    return *_free(o), o.a1 @ o.sp + o.a1d @ o.sm


def _second_order(params: ModelParams, kappa) -> tuple:
    plus, minus = spin_ladder_detunings(params)
    k2 = kappa * kappa
    return (params.omega, params.omega0, kappa,
            k2 / plus, k2 / minus, params.omega * k2 / (plus * minus), k2 / minus, -(k2 / plus))


def _generator(params: ModelParams, kappa) -> tuple:
    plus, minus = spin_ladder_detunings(params)
    return kappa / plus, -(kappa / minus)


# Every model under its CLI name, and the decoupling generator and the mode rotation: rotated couples mode 1 with
# sqrt(2) kappa, nonhermitian with i sqrt(2) gamma.
MODELS = {
    "full": Model(lambda o: (*_free(o), (o.a1 + o.a2d) @ o.sp + (o.a1d + o.a2) @ o.sm),
                  lambda p, kappa: (p.omega, p.omega0, kappa)),
    "rwa": Model(_rwa, lambda p, kappa: (p.omega, p.omega0, kappa)),
    "rotated": Model(_jaynes_cummings, lambda p, kappa: (p.omega, p.omega0, np.sqrt(2.0) * kappa)),
    "nonhermitian": Model(_jaynes_cummings, lambda p, gamma: (p.omega, p.omega0, 1j * np.sqrt(2.0) * gamma)),
    "second-order": Model(lambda o: (
        *_rwa(o),
        (o.a1d @ o.a2d + o.a1 @ o.a2) @ o.s0,
        (o.a1d @ o.a2 + o.a2d @ o.a1) @ o.s0,  # a2+ a1 is the truncated adjoint of a1+ a2
        (o.a2d @ o.a2d + o.a2 @ o.a2 + 2.0 * (o.a2d @ o.a2)) @ o.s0,
        o.sp @ o.sm,
        o.sm @ o.sp,
    ), _second_order),
    "generator": Model(lambda o: (o.sp @ o.a2d - o.sm @ o.a2, o.sm @ o.a2d - o.sp @ o.a2), _generator,
                       anti_hermitian=True),
    "rotation": Model(lambda o: (o.a1d @ o.a2 - o.a2d @ o.a1,), lambda _, angle: (angle,), anti_hermitian=True),
}


@lru_cache(maxsize=TERM_CACHE_SIZE)
def model_terms(basis: Basis, model: str) -> tuple[OperatorMatrix, tuple, tuple[bool, list[bool]]]:
    """The terms of `model` on `basis`: one operator on the union of their positions, values (nnz, terms) a column per
    term (zeros where it has none), all real; per row and term its diagonal entry and off-diagonal |entry| sum, (dim,
    terms); and whether every column is exactly (anti-)Hermitian, as the model is, and which equal their Theta-image.

    Built on first use and shared: do not modify.
    """
    rows, cols, values = Term.columns(MODELS[model].terms(elementary_ops(basis)))
    on, (diagonal, radius) = rows == cols, np.zeros((2, basis.dimension, values.shape[1]))
    diagonal[rows[on]] = values[on]
    np.add.at(radius, rows[~on], np.abs(values[~on]))
    op, sign = OperatorMatrix.from_triplets(basis, rows, cols, values), -1.0 if MODELS[model].anti_hermitian else 1.0
    exact = not op.difference(values, sign * values).size  # of real columns the transpose is the adjoint
    return op, (diagonal, radius), (exact, [op.with_values(column, op.hint).twins() is not None for column in values.T])


def _term_sum(model: str, params: ModelParams | None, coupling, terms: np.ndarray) -> tuple[np.ndarray, tuple]:
    """sum_t c_t terms[..., t] at params and `coupling` (a trailing grid axis for an array), from zeros in table order,
    checked finite; and the coefficients c_t.  The coupling reaches the coefficients as given."""
    grid = np.shape(coupling)
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = MODELS[model].coefficients(params, coupling)
        summed = np.zeros((*terms.shape[:-1], *grid), dtype=np.result_type(terms, *coefficients))
        for t, coefficient in zip(range(terms.shape[-1]), coefficients, strict=True):
            summed += np.multiply(terms[(..., t, *(None,) * len(grid))], coefficient)  # a grid axis trails
    if not np.isfinite(summed).all():
        raise ValueError(f"the {model} operator has an entry that is not finite: a parameter is too large")
    return summed, coefficients


def assemble(basis: Basis, model: str, params: ModelParams | None, coupling) -> OperatorMatrix:
    """The operator of `model` at params and `coupling`, on its terms' positions, with its hint.  A number gives one
    operator; a 1-D array of G couplings the grid of G operators, values (nnz, G), one column each: the grid axis
    trails, so that a single operator takes numpy's fast 1-D indexing path unchanged.  Real coefficients give real
    values (the sum's real parts) and the model's hint, else general; on exactly (anti-)Hermitian real columns
    (model_terms) they sum to the same floats at a position and its transpose (negated: rounding is symmetric), so the
    operator is exact, and a coefficient of exactly 0 on every column that Theta does not keep leaves it paired."""
    terms, _, (exact, symmetric) = model_terms(basis, model)
    summed, coefficients = _term_sum(model, params, coupling, terms.triplets[2])
    real = not any(np.count_nonzero(np.imag(coefficient)) for coefficient in coefficients)
    summed = np.ascontiguousarray(summed.real) if real else summed
    hint = Hermiticity.ANTI_HERMITIAN if MODELS[model].anti_hermitian else Hermiticity.HERMITIAN
    paired = all(kept or not np.count_nonzero(coefficient) for kept, coefficient in zip(symmetric, coefficients))
    return terms.with_values(summed, hint if real else Hermiticity.GENERAL, exact and real, paired)


def assemble_blocks(basis: Basis, model: str, params: ModelParams | None, coupling, blocks) -> list[tuple]:
    """(members, stack) per block size of the blocks `blocks` of `model`'s operator (their positions, as in
    gershgorin), as OperatorMatrix.blocks(blocks) gives them: each entry summed as in the whole operator (assemble)."""
    terms = model_terms(basis, model)[0]
    return [(members, _term_sum(model, params, coupling, stack)[0]) for members, stack in terms.blocks(blocks)]


def gershgorin(basis: Basis, model: str, params: ModelParams | None, coupling) -> tuple[np.ndarray, np.ndarray]:
    """Per block of `model`'s pattern, its Gershgorin lower bound, and max_i (|h_ii| + sum_{j != i} |h_ij|), a bound on
    the spectral radius, at params and `coupling` ((blocks, G) and (G,) for G), from two products of the coefficients
    c_t with the per-row term data (model_terms): sum_t c_t d_t and sum_t |c_t| r_t.  The latter is the radius, or
    above it where two terms share a position, so the bound is block_bounds()' or below it.  A block with a radius
    that overflows or an entry that is not finite gives -inf."""
    terms, (diagonal, radius), _ = model_terms(basis, model)
    grid = np.shape(coupling)
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = np.stack([np.broadcast_to(c, grid) for c in MODELS[model].coefficients(params, coupling)])
        diagonal, radius = diagonal @ coefficients, radius @ np.abs(coefficients)
        lower = terms.block_minima(np.where(np.isfinite(diagonal), diagonal.real - radius, -np.inf))
        return lower, (np.abs(diagonal) + radius).max(axis=0)


def build_full_jt(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Full vibronic Hamiltonian with both rotating and counter-rotating coupling.

    H = omega (a1+a1 + a2+a2 + 1) + omega0 sigma0
        + kappa [(a1 + a2+) sigma+ + (a1+ + a2) sigma-]
    """
    return assemble(basis, "full", params, params.kappa)


def build_rwa(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Rotating-wave form: both modes couple through number-conserving terms only."""
    return assemble(basis, "rwa", params, params.kappa)


def build_rotated(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Jaynes-Cummings form reached from the RWA Hamiltonian by the mode rotation.

    Only mode 1 couples, with strength sqrt(2)*kappa; mode 2 is a spectator.
    """
    return assemble(basis, "rotated", params, params.kappa)


def build_nonhermitian(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Jaynes-Cummings form with purely imaginary coupling i*gamma.

    Not Hermitian for gamma > 0: the adjoint is the same builder with
    gamma -> -gamma.
    """
    return assemble(basis, "nonhermitian", params, params.gamma)


def build_second_order(params: ModelParams, basis: Basis) -> OperatorMatrix:
    """Second-order effective Hamiltonian produced by the decoupling transform.

    This is the rotating-wave Hamiltonian plus every second-order coupling
    correction, assembled term by term; the third-order remainder is
    deliberately not constructed (transforms.residual_study measures it).
    """
    return assemble(basis, "second-order", params, params.kappa)


def conserved_excitation_op(basis: Basis) -> OperatorMatrix:
    """Diagonal conserved quantity n1 - n2 + sigma0/2 of the full Hamiltonian.

    Half-integer eigenvalues; commutes with build_full_jt for any params and
    labels its degenerate sectors.
    """
    return diagonal_op(basis, basis.n1 - basis.n2 + 0.5 * basis.spin)
