import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jtrwa import (
    BasisSpec,
    ModelParams,
    ResonanceError,
    boson_ops,
    build_full_jt,
    build_second_order,
    build_nonhermitian,
    build_rwa,
    build_rotated,
    conjugate,
    decoupling_generator,
    diagonalize,
    identity_op,
    interior_projector,
    make_basis,
    mode_rotation,
    residual_study,
)
from jtrwa import transforms
from jtrwa.spectra import _sectors

STUDY_PARAMS = ModelParams(omega=1.0, omega0=0.2)
STUDY_GRID = (0.01, 0.02, 0.04, 0.08)


def _kron_generator(omega, omega0, kappa):
    """Hand construction on spin (x) mode1 (x) mode2 with n_max = 1 per mode."""
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = sp.T
    eye2 = np.eye(2)
    a = np.array([[0, 1], [0, 0]], dtype=complex)  # single-excitation ladder
    ad = a.T
    t = kappa / (omega + 2 * omega0) * (
        np.kron(sp, np.kron(eye2, ad)) - np.kron(sm, np.kron(eye2, a))
    )
    t -= kappa / (omega - 2 * omega0) * (
        np.kron(sm, np.kron(eye2, ad)) - np.kron(sp, np.kron(eye2, a))
    )
    return t


def test_generator_matches_hand_construction_at_toy_size():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    params = ModelParams(omega=1.0, omega0=0.2, kappa=0.3)
    t = decoupling_generator(params, basis).entries
    assert np.abs(t - _kron_generator(1.0, 0.2, 0.3)).max() <= 1e-14


def test_generator_closed_form_at_zero_splitting():
    # at omega0 = 0 the generator collapses to kappa*(s+ - s-)(a2+ + a2)
    basis = make_basis(BasisSpec.per_mode(2, 2))
    params = ModelParams(omega=1.0, omega0=0.0, kappa=0.3)
    from jtrwa import pauli_ops

    sp, sm, _ = pauli_ops(basis)
    a2, a2d = boson_ops(basis, 2)
    expected = 0.3 * (sp.entries - sm.entries) @ (a2d.entries + a2.entries)
    assert np.abs(decoupling_generator(params, basis).entries - expected).max() <= 1e-14


def test_generator_zero_coupling_vanishes():
    basis = make_basis(BasisSpec.per_mode(2, 2))
    t = decoupling_generator(ModelParams(omega=1.0, omega0=0.2, kappa=0.0), basis)
    assert np.abs(t.entries).max() == 0.0


def test_generator_is_anti_hermitian_for_real_coupling():
    basis = make_basis(BasisSpec.per_mode(3, 3))
    t = decoupling_generator(ModelParams(omega=1.0, omega0=0.3, kappa=0.45), basis)
    assert np.abs(t.entries + t.entries.conj().T).max() <= 1e-14


def test_generator_rejects_resonance():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    with pytest.raises(ResonanceError):
        decoupling_generator(ModelParams(omega=1.0, omega0=0.5, kappa=0.1), basis)


def test_mode_rotation_identities_close_in_total_basis():
    basis = make_basis(BasisSpec.total_number(10))
    u = mode_rotation(basis).entries
    a1, a1d = boson_ops(basis, 1)
    a2, a2d = boson_ops(basis, 2)
    u_inv = u.conj().T
    assert np.abs(u @ (a1.entries + a2.entries) @ u_inv - np.sqrt(2) * a1.entries).max() <= 1e-12
    assert np.abs(
        u @ (a1d.entries + a2d.entries) @ u_inv - np.sqrt(2) * a1d.entries
    ).max() <= 1e-12
    total = a1d.entries @ a1.entries + a2d.entries @ a2.entries
    assert np.abs(u @ total @ u_inv - total).max() <= 1e-12


def test_mode_rotation_is_unitary():
    basis = make_basis(BasisSpec.total_number(8))
    u = mode_rotation(basis).entries
    assert np.abs(u.conj().T @ u - np.eye(basis.dimension)).max() <= 1e-12


def test_mode_rotation_maps_rwa_to_rotated_form():
    basis = make_basis(BasisSpec.total_number(9))
    params = ModelParams(omega=1.0, omega0=0.15, kappa=0.3)
    u = mode_rotation(basis).entries
    image = u @ build_rwa(params, basis).entries @ u.conj().T
    assert np.abs(image - build_rotated(params, basis).entries).max() <= 1e-12


def test_mode_rotation_warns_on_per_mode_basis():
    basis = make_basis(BasisSpec.per_mode(3, 3))
    with pytest.warns(UserWarning, match="boundary"):
        mode_rotation(basis)


def test_exponential_of_generator_is_unitary():
    from scipy.linalg import expm

    basis = make_basis(BasisSpec.per_mode(5, 5))
    t = decoupling_generator(ModelParams(omega=1.0, omega0=0.25, kappa=0.5), basis)
    e = expm(t.entries)
    eye = np.eye(basis.dimension)
    assert np.linalg.norm(e.conj().T @ e - eye) <= 1e-10


@pytest.mark.parametrize("spec", [BasisSpec.per_mode(8, 8), BasisSpec.total_number(9)])
@pytest.mark.parametrize("kappa", [0.37, 0.0])
def test_blockwise_expm_matches_dense_expm(spec, kappa):
    from scipy.linalg import expm

    t = decoupling_generator(ModelParams(omega=1.0, omega0=0.2, kappa=kappa), make_basis(spec))
    assert np.abs(transforms.expm(t.entries) - expm(t.entries)).max() <= 1e-14


def test_expm_rejects_a_matrix_that_is_not_anti_hermitian():
    # complex kappa gives a generator with no unitary exponential; the eigh formula would be wrong for it
    t = decoupling_generator(ModelParams(omega=1.0, omega0=0.2, kappa=0.3 - 0.2j), make_basis(BasisSpec.per_mode(3)))
    with pytest.raises(ValueError, match="anti-hermitian"):
        transforms.expm(t.entries)
    with pytest.raises(ValueError, match="anti-hermitian"):
        transforms.expm(np.stack([np.zeros((2, 2)), np.eye(2)]))


def test_conjugate_rejects_a_general_generator():
    basis = make_basis(BasisSpec.per_mode(3))
    params = ModelParams(omega=1.0, omega0=0.2, kappa=0.3 - 0.2j)
    with pytest.raises(ValueError, match="anti-hermitian generator, got a general hint"):
        conjugate(decoupling_generator(params, basis), build_full_jt(params, basis))


@settings(max_examples=40, deadline=None)
@given(
    omega0=st.floats(-0.4, 0.4),  # keeps the detunings 1 +/- 2 omega0 at least 0.2 from resonance
    kappa=st.floats(-0.6, 0.6),
    total=st.booleans(),
    cutoff=st.integers(1, 7),  # round-off grows with |H|; at cutoff 9 it reached 8e-14
    model=st.sampled_from([build_full_jt, build_nonhermitian]),
)
def test_conjugate_matches_the_dense_oracle(omega0, kappa, total, cutoff, model):
    from scipy.linalg import expm

    basis = make_basis(BasisSpec.total_number(cutoff) if total else BasisSpec.per_mode(cutoff))
    params = ModelParams(omega=1.0, omega0=omega0, kappa=kappa, gamma=abs(kappa))
    t, h = decoupling_generator(params, basis), model(params, basis)
    e = expm(t.entries)
    assert np.abs(conjugate(t, h).entries - e @ h.entries @ e.conj().T).max() <= 1e-13


def test_conjugate_with_zero_generator_is_identity():
    basis = make_basis(BasisSpec.per_mode(2, 2))
    params = ModelParams(omega=1.0, omega0=0.1, kappa=0.2)
    h = build_full_jt(params, basis)
    zero = decoupling_generator(ModelParams(omega=1.0, omega0=0.1, kappa=0.0), basis)
    assert np.abs(conjugate(zero, h).entries - h.entries).max() <= 1e-13


def test_conjugate_preserves_spectrum_for_anti_hermitian_generator():
    basis = make_basis(BasisSpec.per_mode(4, 4))
    params = ModelParams(omega=1.0, omega0=0.2, kappa=0.4)
    h = build_full_jt(params, basis)
    t = decoupling_generator(params, basis)
    before = np.sort(diagonalize(h).eigenvalues.real)
    transformed = conjugate(t, h)
    after = np.sort(np.linalg.eigvals(transformed.entries).real)
    assert np.abs(before - after).max() <= 1e-10


def test_conjugate_rejects_basis_mismatch():
    h = identity_op(make_basis(BasisSpec.per_mode(2, 2)))
    g = identity_op(make_basis(BasisSpec.per_mode(3, 3)))
    with pytest.raises(ValueError, match="different bases"):
        conjugate(g, h)


def test_zero_coupling_residual_vanishes():
    basis = make_basis(BasisSpec.per_mode(4, 4))
    params = ModelParams(omega=1.0, omega0=0.2, kappa=0.0)
    transformed = conjugate(decoupling_generator(params, basis), build_full_jt(params, basis))
    assert np.abs(transformed.entries - build_second_order(params, basis).entries).max() <= 1e-13


def test_residual_study_slope_is_cubic():
    basis = make_basis(BasisSpec.per_mode(8, 8))
    report = residual_study(STUDY_PARAMS, basis, STUDY_GRID)
    assert 2.7 <= report.fitted_slope <= 3.3
    assert report.kappa_values == STUDY_GRID
    assert all(r > 0 for r in report.residual_norms)
    assert len(report.residual_norms_spectral) == len(STUDY_GRID)


@pytest.mark.parametrize("spec", [BasisSpec.per_mode(8, 8), BasisSpec.total_number(9), BasisSpec.per_mode(5, 7)])
def test_per_sector_spectral_norm_equals_the_dense_norm(spec):
    basis = make_basis(spec)
    report = residual_study(STUDY_PARAMS, basis, STUDY_GRID)
    keep = np.flatnonzero(np.diag(interior_projector(basis, 2).entries).real)
    for kappa, spectral in zip(STUDY_GRID, report.residual_norms_spectral):
        params = ModelParams(omega=1.0, omega0=0.2, kappa=kappa)
        transformed = conjugate(decoupling_generator(params, basis), build_full_jt(params, basis)).entries
        core = (transformed - build_second_order(params, basis).entries)[np.ix_(keep, keep)]
        assert len(_sectors(*np.nonzero(core), len(core))[-1][0]) < len(core)  # P sigma0 splits the core
        assert spectral == pytest.approx(np.linalg.norm(core, 2), rel=1e-13, abs=0.0)


def test_residual_study_residuals_increase_with_coupling():
    basis = make_basis(BasisSpec.per_mode(6, 6))
    report = residual_study(STUDY_PARAMS, basis, (0.01, 0.02, 0.04))
    assert all(b > a for a, b in zip(report.residual_norms, report.residual_norms[1:]))


@pytest.mark.parametrize(
    "grid, message",
    [
        ((), "empty"),
        ((0.02, 0.01), "ascending"),
        ((-0.01, 0.02), "positive"),
        ((0.01, 0.5), "guard"),
        ((0.01,), "two or more couplings"),
    ],
)
def test_residual_study_grid_validation(grid, message):
    basis = make_basis(BasisSpec.per_mode(3, 3))
    with pytest.raises(ValueError, match=message):
        residual_study(STUDY_PARAMS, basis, grid)


def test_residual_study_guard_follows_the_spin_flip_detunings():
    # the denominators are omega +/- 2 omega0: at omega0 = 1 they are 3 and -1,
    # so the default grid up to 0.08 lies inside the guard 0.15
    params = ModelParams(omega=1.0, omega0=1.0)
    report = residual_study(params, make_basis(BasisSpec.per_mode(8, 8)), (0.01, 0.02, 0.04, 0.08))
    assert 2.7 <= report.fitted_slope <= 3.3
    with pytest.raises(ValueError, match="guard 0.15"):
        residual_study(params, make_basis(BasisSpec.per_mode(3, 3)), (0.1, 0.16))
