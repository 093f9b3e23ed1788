import contextlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from dense import adjoint, dense_op, subtract
from hypothesis import given, settings, strategies as st

from jtrwa import (
    BasisSpec,
    ModelParams,
    OperatorMatrix,
    boson_ops,
    build_full_jt,
    build_nonhermitian,
    check_combined_symmetry,
    check_pseudo_hermitian,
    check_pt,
    conjugation_closure,
    diagonalize,
    make_basis,
    parity_op,
    pauli_ops,
    pt_transform,
    reality_scan,
)
from jtrwa import pseudoherm
from jtrwa.fockspace import HINT_TOL, diagonal_op
from jtrwa.cli import parse_grid
from jtrwa.models import assemble, gershgorin, model_terms
from jtrwa.pseudoherm import REALITY_TOL
from jtrwa.spectra import block_eigenvalues, level_order

BASIS = make_basis(BasisSpec.per_mode(8, 3))


def _h(gamma, omega0=0.0):
    return build_nonhermitian(ModelParams(omega=1.0, omega0=omega0, gamma=gamma), BASIS)


def test_parity_flips_ladder_operators():
    p = parity_op(BASIS).entries
    p_inv = np.linalg.inv(p)
    for mode in (1, 2):
        a, a_dag = boson_ops(BASIS, mode)
        assert np.abs(p @ a.entries @ p_inv + a.entries).max() <= 1e-14
        assert np.abs(p @ a_dag.entries @ p_inv + a_dag.entries).max() <= 1e-14


def test_parity_leaves_spin_invariant_and_squares_to_identity():
    p = parity_op(BASIS).entries
    sp, sm, s0 = pauli_ops(BASIS)
    for sigma in (sp, sm, s0):
        assert np.abs(p @ sigma.entries @ p - sigma.entries).max() == 0.0
    assert np.array_equal(p @ p, np.eye(BASIS.dimension))


def test_pt_residual_equals_twice_the_splitting_term():
    h = _h(0.2, omega0=0.3)
    expected = 2.0 * 0.3 * np.sqrt(BASIS.dimension)  # Frobenius norm of 2*omega0*sigma0
    assert check_pt(h) == pytest.approx(expected, abs=1e-10)


def test_pt_residual_vanishes_at_zero_splitting():
    assert check_pt(_h(0.2, omega0=0.0)) <= 1e-12
    assert check_pt(_h(0.45, omega0=0.0)) <= 1e-12


def test_pt_transform_conjugates_and_negates_offdiagonal_blocks():
    # for a real symmetric coupling block the map flips its sign, so the
    # residual of the real-coupling model is twice the coupling norm
    kappa = 0.4
    h = build_full_jt(ModelParams(omega=1.0, omega0=0.0, kappa=kappa), BASIS)
    a1, _ = boson_ops(BASIS, 1)
    _, a2d = boson_ops(BASIS, 2)
    half = BASIS.dimension // 2
    boson_block = (a1.entries + a2d.entries)[:half, :half]
    expected = np.sqrt(8.0) * kappa * np.linalg.norm(boson_block, "fro")
    assert check_pt(h) == pytest.approx(expected, rel=1e-12)


def _dense_pt(m):
    # reference: the four spin blocks of the dense matrix, diagonal blocks swapped, off-diagonal ones negated
    half = len(m) // 2
    out = np.empty_like(m)
    out[:half, :half] = m[half:, half:].conj()
    out[half:, half:] = m[:half, :half].conj()
    out[:half, half:] = -m[:half, half:].conj()
    out[half:, :half] = -m[half:, :half].conj()
    return out


@pytest.mark.parametrize("spec", [BasisSpec.per_mode(2, 1), BasisSpec.total_number(4), BasisSpec.per_mode(8, 3)])
def test_pt_transform_equals_the_dense_block_formula(spec):
    basis = make_basis(spec)
    rng = np.random.default_rng(3)
    shape = (basis.dimension,) * 2
    m = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.4)
    np.fill_diagonal(m, 0.0)  # exact zeros on the diagonal; the random pattern is not PT-invariant
    h = dense_op(basis, m)
    assert np.array_equal(pt_transform(h).entries, _dense_pt(m))
    assert check_pt(h) == pytest.approx(np.linalg.norm(_dense_pt(m) - m, "fro"), rel=1e-12, abs=0.0)


def test_pt_transform_is_an_involution():
    h = _h(0.3, omega0=0.2)
    twice = pt_transform(pt_transform(h))
    assert np.abs(twice.entries - h.entries).max() <= 1e-14


@pytest.mark.parametrize("gamma", [0.1, 0.2, 0.3, 0.6])
def test_sigma0_pseudo_hermiticity(gamma):
    _, _, s0 = pauli_ops(BASIS)
    assert check_pseudo_hermitian(_h(gamma, omega0=0.25), s0) <= 1e-12


@pytest.mark.parametrize("gamma", [0.1, 0.2, 0.3, 0.6])
def test_parity_pseudo_hermiticity(gamma):
    assert check_pseudo_hermitian(_h(gamma, omega0=0.25), parity_op(BASIS)) <= 1e-12


def test_hermitian_hamiltonian_identity_metric():
    h = build_full_jt(ModelParams(omega=1.0, omega0=0.2, kappa=0.3), BASIS)
    assert check_pseudo_hermitian(h, diagonal_op(BASIS, np.ones(BASIS.dimension))) <= 1e-12


def test_singular_metric_rejected():
    from jtrwa import Hermiticity

    singular = dense_op(BASIS, np.zeros((BASIS.dimension,) * 2), Hermiticity.HERMITIAN)
    with pytest.raises(ValueError, match="singular"):
        check_pseudo_hermitian(_h(0.2), singular)


def test_non_hermitian_metric_rejected():
    m = np.eye(BASIS.dimension, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        check_pseudo_hermitian(_h(0.2), dense_op(BASIS, m))


def test_non_diagonal_metric_rejected():
    m = np.eye(BASIS.dimension, dtype=complex)
    m[0, 1] = m[1, 0] = 0.5
    with pytest.raises(ValueError, match="not diagonal"):
        check_pseudo_hermitian(_h(0.2), dense_op(BASIS, m))


def test_elementwise_metric_checks_match_the_dense_formulas():
    h = _h(0.3, omega0=0.25).entries + 0.01 * np.triu(np.ones((BASIS.dimension,) * 2))
    op = dense_op(BASIS, h)
    d = np.random.default_rng(2).uniform(0.5, 2.0, BASIS.dimension) * np.sign(np.diag(parity_op(BASIS).entries))
    dense = np.linalg.norm(np.diag(d) @ h @ np.linalg.inv(np.diag(d)) - h.conj().T, "fro")
    assert abs(check_pseudo_hermitian(op, dense_op(BASIS, np.diag(d))) - dense) <= 1e-12 * dense
    g = parity_op(BASIS).entries @ pauli_ops(BASIS)[2].entries
    assert check_combined_symmetry(op) == pytest.approx(np.linalg.norm(h @ g - g @ h, "fro"), rel=1e-14)


def test_metric_checks_leave_the_dense_views_unbuilt():
    # the checks read the blocks and triplets of h and of the metric
    h = _h(0.3, omega0=0.25)
    metrics = (parity_op(BASIS), pauli_ops(BASIS)[2], diagonal_op(BASIS, np.ones(BASIS.dimension)))
    for eta in metrics:
        check_pseudo_hermitian(h, eta)
    check_combined_symmetry(h)
    check_pt(h)
    assert not any("entries" in vars(op) for op in (h, *metrics))


@pytest.mark.parametrize("spec", [BasisSpec.per_mode(5, 3), BasisSpec.total_number(8)],
                         ids=lambda spec: spec.truncation.value)
@pytest.mark.parametrize("omega0", [0.0, 0.2, -0.3])
@pytest.mark.parametrize("model, builder, coupling", [("nonhermitian", build_nonhermitian, "gamma"),
                                                      ("full", build_full_jt, "kappa")])  # a nonzero metric residual
def test_grid_checks_equal_the_scalar_checks_per_coupling(spec, omega0, model, builder, coupling):
    basis, params = make_basis(spec), ModelParams(omega=1.0, omega0=omega0)
    couplings = np.array([0.0, 0.05, 0.2, 0.35, 0.6])
    grid = assemble(basis, model, params, couplings)
    scalars = [builder(replace(params, **{coupling: c}), basis) for c in couplings.tolist()]
    metrics = (pauli_ops(basis)[2], parity_op(basis))
    checks = [*(lambda h, eta=eta: check_pseudo_hermitian(h, eta) for eta in metrics),
              check_combined_symmetry, check_pt]
    for check in checks:
        columns = check(grid)
        assert isinstance(columns, list) and len(columns) == couplings.size
        np.testing.assert_allclose(columns, [check(h) for h in scalars], rtol=1e-14, atol=0.0)
        assert isinstance(check(scalars[0]), float)
    if model == "full":
        assert min(check_pseudo_hermitian(grid, metrics[0])[1:]) > 0.1


def test_symmetry_checks_scatter_no_block(monkeypatch):
    # the metric checks, the commutator and the PT residual work on triplets, for one operator and for a grid
    h, grid = _h(0.3, omega0=0.25), assemble(BASIS, "nonhermitian", ModelParams(omega=1.0), np.array([0.1, 0.3]))
    monkeypatch.setattr(OperatorMatrix, "blocks", _raise_on_call)
    for op in (h, grid):
        check_pseudo_hermitian(op, parity_op(BASIS))
        check_pseudo_hermitian(op, pauli_ops(BASIS)[2])
        check_combined_symmetry(op)
        check_pt(op)


def _raise_on_call(*_args, **_kwargs):
    raise AssertionError("a block was scattered")


def test_metric_hermiticity_is_checked_before_diagonality():
    m = np.eye(BASIS.dimension, dtype=complex)
    m[0, 1], m[1, 0] = 0.5, 0.5 + 1e-9j  # neither Hermitian nor diagonal
    with pytest.raises(ValueError, match=r"^metric is not Hermitian \(deviation 1\.000e-09\)$"):
        check_pseudo_hermitian(_h(0.2), dense_op(BASIS, m))


@pytest.mark.parametrize("gamma", [0.0, 0.2, 0.5])
def test_combined_symmetry_commutes(gamma):
    assert check_combined_symmetry(_h(gamma, omega0=0.3)) <= 1e-12


def test_combined_symmetry_for_real_coupling_model():
    h = build_full_jt(ModelParams(omega=1.0, omega0=0.2, kappa=0.4), BASIS)
    assert check_combined_symmetry(h) <= 1e-12


def test_combined_symmetry_broken_by_displacement_term():
    a1, a1d = boson_ops(BASIS, 1)
    h = build_full_jt(ModelParams(omega=1.0, omega0=0.0, kappa=0.3), BASIS)
    perturbed = dense_op(BASIS, h.entries + 0.05 * (a1.entries + a1d.entries))
    assert check_combined_symmetry(perturbed) > 1e-3


@pytest.mark.parametrize(
    "model, params, basis",
    [pytest.param(build_nonhermitian, ModelParams(omega=1.0, gamma=g), BASIS, id=str(g)) for g in (0.1, 0.3, 0.45, 0.6)]
    + [
        # two distinct real levels 1.7e-8 apart fall into one LEVEL_GAP chain
        pytest.param(build_nonhermitian, ModelParams(omega=1.0, omega0=0.1, gamma=0.1),
                     make_basis(BasisSpec.total_number(20)), id="nonhermitian-total-20-omega0-0.1"),
        # complex levels that a lexicographic sort (np.sort_complex) pairs 7.67 apart
        pytest.param(build_full_jt, ModelParams(omega=1.0, kappa=0.7j),
                     make_basis(BasisSpec.total_number(30)), id="full-total-30-kappa-0.7i"),
    ],
)
def test_spectrum_closed_under_conjugation(model, params, basis):
    spectrum = diagonalize(model(params, basis))
    assert conjugation_closure(spectrum.eigenvalues) <= 1e-10


def test_empty_spectrum_is_closed_under_conjugation():
    assert conjugation_closure(np.array([])) == 0.0


def test_reality_scan_detects_block_threshold():
    grid = np.arange(0.0, 0.5 + 1e-12, 0.005)
    report = reality_scan(ModelParams(omega=1.0, omega0=0.0), BASIS, grid, k=2)
    assert report.detected_threshold is not None
    assert abs(report.detected_threshold - 1.0 / np.sqrt(8.0)) <= 0.005
    assert report.max_imag_lowk[0] <= 1e-12  # gamma = 0 row
    assert report.k == 2


def test_reality_scan_default_k_matches_block_threshold():
    grid = np.arange(0.30, 0.40 + 1e-12, 0.005)
    report = reality_scan(ModelParams(omega=1.0, omega0=0.0), BASIS, grid, k=4)
    assert abs(report.detected_threshold - 1.0 / np.sqrt(8.0)) <= 0.005


def test_reality_scan_reports_absent_threshold():
    report = reality_scan(ModelParams(omega=1.0, omega0=0.0), BASIS, [0.0, 0.1, 0.2], k=4)
    assert report.detected_threshold is None
    assert max(report.max_imag_lowk) <= 1e-10


def test_reality_scan_validation():
    params = ModelParams(omega=1.0)
    with pytest.raises(ValueError):
        reality_scan(params, BASIS, [], k=2)
    with pytest.raises(ValueError):
        reality_scan(params, BASIS, [0.2, 0.1], k=2)
    with pytest.raises(ValueError):
        reality_scan(params, BASIS, [0.1, 0.2], k=0)
    with pytest.raises(ValueError):
        reality_scan(params, BASIS, [-0.1, 0.2], k=2)
    for grid in ([0.1, np.inf], [np.nan], [0.0, np.nan, 0.2], [0.0, 1.5e308]):  # the last overflows an entry
        with pytest.raises(ValueError, match="finite"):
            reality_scan(params, BASIS, grid, k=2)


def test_reality_scan_in_several_passes_equals_one_pass(monkeypatch):
    params, grid = ModelParams(omega=1.0, omega0=0.1), np.linspace(0.0, 0.5, 23)
    whole = reality_scan(params, BASIS, grid)
    monkeypatch.setattr(pseudoherm, "GRID_STATES", 5 * BASIS.dimension)  # passes of five grid points
    assert reality_scan(params, BASIS, grid) == whole
    assert whole.detected_threshold is not None


def test_gamma_grids_checks_the_whole_grid_before_the_first_pass():
    for grid, message in (([], "empty"), ([0.1, -0.1], "non-negative"), ([0.1, np.nan], "finite"),
                          ([0.2, 0.1], "ascending")):
        with pytest.raises(ValueError, match=message):
            pseudoherm.gamma_grids(BASIS, grid)


def _reality_by_diagonalize(params, basis, gammas, k):
    # reference: the per-gamma loop, one diagonalize (LAPACK on every block) per grid point
    max_imag = [float(np.abs(diagonalize(build_nonhermitian(replace(params, gamma=g), basis)).eigenvalues[:k].imag).max())
                for g in gammas]
    return max_imag, next((g for g, m in zip(gammas, max_imag) if m > REALITY_TOL), None)


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from([BasisSpec.per_mode(5, 2), BasisSpec.total_number(6)]),
    omega0=st.sampled_from([0.0, 0.2, 0.5]),
    near=st.lists(st.tuples(st.integers(0, 5), st.floats(1e-3, 0.5), st.sampled_from([-1.0, 1.0])), max_size=6),
    anywhere=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e200, 1e300])), max_size=3),
    k=st.integers(1, 6),
)
def test_grid_solver_equals_diagonalize_per_gamma(spec, omega0, near, anywhere, k):
    # the block of n1 breaks at its exceptional point |omega - 2 omega0| / sqrt(8 (n1 + 1)), where both solvers
    # err by sqrt(eps); gammas lie on both sides of them, 1e-3..0.5 of the way off, and no nearer to any other one.
    # At omega0 = 0.5 every block is degenerate and they are all 0.
    basis, params = make_basis(spec), ModelParams(omega=1.0, omega0=omega0)
    exceptional = abs(1.0 - 2.0 * omega0) / np.sqrt(8.0 * (np.arange(7) + 1))
    points = [exceptional[n1] * (1.0 + side * d) for n1, d, side in near]
    gammas = np.unique([g for g in (0.0, *points, *anywhere) if np.all(np.abs(g - exceptional) >= 1e-3 * exceptional)])
    grid = assemble(basis, "nonhermitian", params, gammas)
    vals = block_eigenvalues(grid.blocks())
    assert vals.shape == (gammas.size, basis.dimension)
    tol = []
    for values, row, gamma in zip(grid.triplets[2].T, vals, gammas):
        h = build_nonhermitian(replace(params, gamma=gamma), basis)
        assert np.array_equal(values, h.triplets[2])
        tol.append(1e-13 * np.abs(values).max())
        assert np.abs(row[level_order(row)] - diagonalize(h).eigenvalues).max() <= tol[-1]
    report = reality_scan(params, basis, gammas, k=k)
    max_imag, threshold = _reality_by_diagonalize(params, basis, gammas, k)
    assert np.all(np.abs(np.subtract(report.max_imag_lowk, max_imag)) <= tol)
    assert report.detected_threshold == threshold


def _reality_by_whole_pass(params, basis, gammas, k):
    # oracle: every block of a pass solved, then level-ordered on the same scale, the Gershgorin spectral radius bound
    max_imag = []
    for chunk in pseudoherm.gamma_grids(basis, gammas):
        vals = block_eigenvalues(assemble(basis, "nonhermitian", params, chunk).blocks())
        order = level_order(vals, gershgorin(basis, "nonhermitian", params, chunk)[1])[:, :k]
        max_imag += np.abs(np.take_along_axis(vals, order, axis=-1).imag).max(axis=-1).tolist()
    return max_imag, next((g for g, m in zip(gammas, max_imag) if m > REALITY_TOL), None)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([BasisSpec.per_mode(5, 2), BasisSpec.per_mode(2, 4), BasisSpec.total_number(6)]),
    omega0=st.sampled_from([0.0, 0.2, 0.5, -0.3]),
    k=st.integers(1, 8),
    anywhere=st.lists(st.floats(0.0, 1.0), max_size=4),
)
def test_reality_scan_equals_the_whole_pass_bit_for_bit(spec, omega0, k, anywhere):
    # every exceptional point |omega - 2 omega0| / sqrt(8 (n1 + 1)) of the basis, exactly and 1e-12 to either side,
    # where the real parts of a block lie within a level gap; and 1e200, where every real part is one level
    basis, params = make_basis(spec), ModelParams(omega=1.0, omega0=omega0)
    exceptional = abs(1.0 - 2.0 * omega0) / np.sqrt(8.0 * (np.arange(basis.n1.max()) + 1))
    gammas = np.unique(np.r_[exceptional, exceptional - 1e-12, exceptional + 1e-12, anywhere, 1e200].clip(min=0.0))
    report = reality_scan(params, basis, gammas, k=k)
    max_imag, threshold = _reality_by_whole_pass(params, basis, gammas, k)
    assert report.max_imag_lowk == tuple(max_imag)
    assert report.detected_threshold == threshold


@pytest.mark.parametrize("offset", [0.0, 0.0013, 0.0025, 0.0049])
def test_reality_scan_solves_at_most_14_of_the_162_states_of_the_bench_grid(monkeypatch, offset):
    # the benchmark's reality-scan: 101 gammas from an offset within one step, per-mode cutoff 8, k = 4, in one pass
    solved, solve = [], pseudoherm.block_eigenvalues

    def recording(blocks):
        solved.append(sum(members.size for members, _ in blocks))
        return solve(blocks)

    monkeypatch.setattr(pseudoherm, "block_eigenvalues", recording)
    basis, gammas = make_basis(BasisSpec.per_mode(8)), offset + 0.005 * np.arange(101)
    report = reality_scan(ModelParams(omega=1.0), basis, gammas)
    assert basis.dimension == 162 and 4 <= sum(solved) <= 14
    assert report.max_imag_lowk == tuple(_reality_by_whole_pass(ModelParams(omega=1.0), basis, gammas, 4)[0])


def test_reality_scan_at_total_cutoff_100_peaks_at_or_below_21_mib():
    # the whole-pass assembly of a default grid at dimension 10 302 peaked at 21.06 MiB, terms cached
    basis, params, grid = make_basis(BasisSpec.total_number(100)), ModelParams(omega=1.0), parse_grid("0:0.5:0.005")
    model_terms(basis, "nonhermitian")
    tracemalloc.start()
    try:
        reality_scan(params, basis, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 21 * 2**20


@pytest.mark.parametrize("spec, omega0, gamma, k", [
    # each |down, 0, n2> lies 5e-10 above the real part of a broken pair of its n1 + n2, in its level: the bound of
    # that 1x1 block (its entry) lies above the k-th lowest real part, within the margin of level gaps
    (BasisSpec.per_mode(3, 2), -0.5 - 5e-10, 1.0, 2),
    # at the exceptional point 1/sqrt(8) the real parts of the blocks of n1 = 0 split by round-off near the level gap:
    # one level on the Gershgorin bound of the spectral radius, two on the largest |eigenvalue| solved
    (BasisSpec.total_number(6), 0.0, 1.0 / np.sqrt(8.0), 5),
])
def test_reality_scan_solves_the_k_lowest_of_the_whole_spectrum_in_its_order(monkeypatch, spec, omega0, gamma, k):
    lowest = []

    def recording(vals, scale=None):
        positions = level_order(vals, scale)
        lowest.append(np.take_along_axis(vals, positions[:, :k], axis=-1))
        return positions

    monkeypatch.setattr(pseudoherm, "level_order", recording)
    basis, params, gammas = make_basis(spec), ModelParams(omega=1.0, omega0=omega0), np.array([gamma])
    reality_scan(params, basis, gammas, k=k)
    every = block_eigenvalues(assemble(basis, "nonhermitian", params, gammas).blocks())
    order = level_order(every, gershgorin(basis, "nonhermitian", params, gammas)[1])
    assert np.array_equal(lowest[0], np.take_along_axis(every, order[:, :k], axis=-1))


def _norms_of(op):
    return np.linalg.norm(np.ascontiguousarray(op.triplets[2].T), axis=-1).tolist()


def _union_checks(h, eta):
    """The residuals by subtraction on the union of two patterns (tests/dense.py), the checks' oracle."""
    rows, cols, values = h.triplets
    d = np.zeros(h.dimension, dtype=complex)
    d[eta.triplets[0]] = eta.triplets[2]
    scaled = OperatorMatrix.from_triplets(h.basis, rows, cols, (d[rows] * values.T / d[cols]).T)
    return _norms_of(subtract(pt_transform(h), h)), _norms_of(subtract(scaled, adjoint(h)))


def _closed(h, image):
    """Whether the pattern of h holds the image of each of its positions."""
    keys = set(zip(*(k.tolist() for k in h.triplets[:2])))
    return set(zip(*(k.tolist() for k in image.triplets[:2]))) <= keys


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from([BasisSpec.per_mode(1, 1), BasisSpec.per_mode(2, 1), BasisSpec.total_number(2)]),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.05, 0.6),
    grid=st.sampled_from([None, 1, 3]),
    symmetric=st.booleans(),
    cancel=st.booleans(),
)
def test_checks_equal_the_union_subtraction_oracle(spec, seed, density, grid, symmetric, cancel):
    # asymmetric patterns hold entries whose transpose or PT partner is absent; a symmetric one with exact cancellations
    # (an entry equal to its partner's image) drops zeros as the union does, and then the residuals agree bit for bit
    basis, rng = make_basis(spec), np.random.default_rng(seed)
    n = basis.dimension
    shape = (n, n) if grid is None else (n, n, grid)

    def mask(p):  # a random pattern, the same in every column of a grid
        return (rng.random((n, n)) < p).reshape(n, n, *shape[2:] and (1,))

    m = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * mask(density)
    if symmetric:
        m = m + np.swapaxes(m, 0, 1).conj() * mask(0.5)
    if cancel:
        m = 0.5 * (m + np.swapaxes(m, 0, 1).conj())  # h^dagger = h: every transpose residual cancels exactly
    rows, cols = np.nonzero(np.any(m != 0, axis=tuple(range(2, m.ndim))) | np.eye(n, dtype=bool))
    h = OperatorMatrix.from_triplets(basis, rows, cols, m[rows, cols])
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    eta = diagonal_op(basis, d)
    pt, metric = _union_checks(h, eta)
    for got, want, closed in ((check_pt(h), pt, _closed(h, pt_transform(h))),
                              (check_pseudo_hermitian(h, eta), metric, symmetric and cancel)):
        assert isinstance(got, float if grid is None else list)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        if closed:
            assert got == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.02, 0.3), scale=st.sampled_from([1e-13, 1e-9, 1.0]))
def test_metric_hermiticity_check_equals_the_union_oracle(seed, density, scale):
    # a diagonal metric plus entries whose transposed partner may be absent: it is rejected with the deviation that
    # the union difference eta - eta^dagger gives, or passed where that deviation is within HINT_TOL
    rng, n = np.random.default_rng(seed), BASIS.dimension
    m = np.diag(rng.uniform(0.5, 2.0, n)) + scale * rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
    eta = dense_op(BASIS, m)
    dev = np.abs(subtract(eta, adjoint(eta)).triplets[2]).max(initial=0.0)
    if dev > HINT_TOL:
        message = re.escape(f"metric is not Hermitian (deviation {dev:.3e})")
    else:
        message = "metric is not diagonal" if np.any(m != np.diag(np.diag(m))) else None
    with pytest.raises(ValueError, match=f"^{message}") if message else contextlib.nullcontext():
        check_pseudo_hermitian(_h(0.2), eta)


def test_pseudoherm_command_forms_no_union_of_patterns(monkeypatch):
    # once the model's terms are cached, no check sums triplets on the union of two patterns
    from click.testing import CliRunner
    from jtrwa import fockspace
    from jtrwa.cli import cli

    first = CliRunner().invoke(cli, ["pseudoherm", "--omega0", "0.3"])
    monkeypatch.setattr(fockspace, "_summed", _raise_on_call)
    again = CliRunner().invoke(cli, ["pseudoherm", "--omega0", "0.3"])
    assert again.exit_code == first.exit_code == 0 and again.exception is None
    assert (again.stdout, again.stderr) == (first.stdout, first.stderr)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4), n=st.integers(0, 8), real_rows=st.lists(st.booleans()))
def test_closure_of_a_pass_equals_the_closure_of_each_row(seed, rows, n, real_rows):
    # closed rows and open ones, rows with imaginary parts and rows with none (whose level order is the real order)
    rng, vals = np.random.default_rng(seed), []
    for r in range(rows):
        z = rng.normal(size=n) + 1j * rng.normal(size=n) * rng.integers(0, 2, size=n)
        z = z.real + 0j if r < len(real_rows) and real_rows[r] else z
        vals.append(np.r_[z, z.conj()] if r % 2 else np.r_[z, rng.normal(size=n) + 1j * rng.normal(size=n)])
    closure = conjugation_closure(np.array(vals))
    assert isinstance(closure, list) and closure == [conjugation_closure(row) for row in vals]
    assert all(isinstance(conjugation_closure(row), float) for row in vals)
