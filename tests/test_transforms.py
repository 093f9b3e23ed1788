import gc

import numpy as np
import pytest
from dense import dense_op
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
    interior_projector,
    make_basis,
    mode_rotation,
    residual_study,
)
from jtrwa import fockspace, transforms
from jtrwa.fockspace import _sectors, diagonal_op
from jtrwa.models import assemble

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
    with pytest.raises(ValueError, match="expm takes anti-hermitian matrices only"):
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


def _dense_columns(op):
    """The dense matrix of each operator of a grid (values (nnz, G)), scattered from its triplets."""
    rows, cols, values = op.triplets
    m = np.zeros((values.shape[1], op.dimension, op.dimension), dtype=complex)
    m[:, rows, cols] = values.T
    return m


@settings(max_examples=40, deadline=None)
@given(
    omega0=st.floats(-0.4, 0.4),
    kappas=st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=4),
    total=st.booleans(),
    cutoff=st.integers(1, 7),
    imaginary=st.booleans(),
)
def test_grid_conjugate_matches_the_dense_oracle_per_column(omega0, kappas, total, cutoff, imaginary):
    from scipy.linalg import expm

    basis = make_basis(BasisSpec.total_number(cutoff) if total else BasisSpec.per_mode(cutoff, cutoff + 1))
    params = ModelParams(omega=1.0, omega0=omega0)
    kappas = np.asarray(kappas)
    t = assemble(basis, "generator", params, kappas)
    h = assemble(basis, "nonhermitian" if imaginary else "full", params, kappas)  # a general (complex) grid, or real
    if total:  # a block of every size 1..cutoff + 1, so products of blocks of unequal size
        assert [members.shape[1] for members, _ in t.blocks()] == list(range(1, cutoff + 2))
    transformed = conjugate(t, h)
    assert transformed.triplets[2].shape[1] == len(kappas)
    for got, t_dense, h_dense in zip(_dense_columns(transformed), _dense_columns(t), _dense_columns(h)):
        e = expm(t_dense)
        assert np.abs(got - e @ h_dense @ e.conj().T).max() <= 1e-13


def test_conjugate_with_zero_generator_is_identity():
    basis = make_basis(BasisSpec.per_mode(2, 2))
    params = ModelParams(omega=1.0, omega0=0.1, kappa=0.2)
    h = build_full_jt(params, basis)
    zero = decoupling_generator(ModelParams(omega=1.0, omega0=0.1, kappa=0.0), basis)
    assert np.abs(conjugate(zero, h).entries - h.entries).max() <= 1e-13


def test_conjugate_of_an_operator_with_no_entries_is_one_with_none():
    # exp(G) 0 exp(-G) = 0: no pair of blocks of G is coupled, so the result holds no entry, on h's basis
    basis = make_basis(BasisSpec.per_mode(3, 3))
    zero = diagonal_op(basis, np.zeros(basis.dimension))
    transformed = conjugate(decoupling_generator(ModelParams(omega=1.0, omega0=0.2, kappa=0.05), basis), zero)
    assert transformed.basis == basis and all(part.size == 0 for part in transformed.triplets)
    assert not transformed.entries.any()


def test_a_transform_report_takes_one_norm_of_each_kind_per_coupling():
    with pytest.raises(ValueError, match="^grid and residual lists must have equal length$"):
        transforms.TransformReport(kappa_values=(0.01, 0.02), residual_norms=(1e-6, 8e-6),
                                   residual_norms_spectral=(1e-6,), fitted_slope=3.0)


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
    small, large = make_basis(BasisSpec.per_mode(2, 2)), make_basis(BasisSpec.per_mode(3, 3))
    h, g = diagonal_op(small, np.ones(small.dimension)), diagonal_op(large, np.ones(large.dimension))
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
    inside = np.diag(interior_projector(basis, 2).entries).real != 0
    keep = np.flatnonzero(inside)
    for kappa, fro, spectral in zip(STUDY_GRID, report.residual_norms, report.residual_norms_spectral):
        params = ModelParams(omega=1.0, omega0=0.2, kappa=kappa)
        transformed = conjugate(decoupling_generator(params, basis), build_full_jt(params, basis)).entries
        remainder = transformed - build_second_order(params, basis).entries
        core = remainder[np.ix_(keep, keep)]
        assert len(_sectors(*np.nonzero(core), len(core))[-1][0]) < len(core)  # P sigma0 splits the core
        assert spectral == pytest.approx(np.linalg.norm(core, 2), rel=1e-13, abs=0.0)
        masked = np.where(np.outer(inside, inside), remainder, 0.0)  # the dense interior mask as the reference
        assert fro == pytest.approx(np.linalg.norm(masked, "fro"), rel=1e-12, abs=0.0)
        assert spectral == pytest.approx(np.linalg.norm(masked, 2), rel=1e-12, abs=0.0)
    for g in range(len(STUDY_GRID) - 1):  # a coupling's column is the same in any grid that solves it
        pair = residual_study(STUDY_PARAMS, basis, STUDY_GRID[g:g + 2])
        assert pair.residual_norms == pytest.approx(report.residual_norms[g:g + 2], rel=1e-12, abs=0.0)
        spectral = report.residual_norms_spectral[g:g + 2]
        assert pair.residual_norms_spectral == pytest.approx(spectral, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("entry", [1e307, np.inf])
def test_residual_study_rejects_a_remainder_whose_norm_overflows(monkeypatch, entry):
    # finite entries whose Frobenius norm exceeds the largest double, or an entry that is itself infinite
    transformed = transforms._transformed_pairs

    def huge(*args):
        for rows, cols, values in transformed(*args):
            yield rows, cols, np.full(values.shape, entry)

    monkeypatch.setattr(transforms, "_transformed_pairs", huge)
    message = r"^the transform remainder at kappa = 0\.01 overflows: its norm is not finite$"
    with pytest.raises(ValueError, match=message):
        residual_study(STUDY_PARAMS, make_basis(BasisSpec.per_mode(6)), STUDY_GRID)


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
        ((0.01, float("nan")), "finite"),
        ((float("nan"), 0.02), "finite"),
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


def _anti_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return x - x.conj().T  # real parts of the diagonal are +0.0


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    distinct=st.integers(1, 4),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=12),
    grid=st.integers(1, 3),
)
def test_expm_of_a_stack_equals_expm_of_each_block_bit_for_bit(seed, n, distinct, picks, grid):
    # repeated blocks, a block one ulp off another and one with a -0.0 where its twin holds +0.0: only equal bytes share
    # a solve, and every exponential equals, bit for bit, that of its block alone
    rng = np.random.default_rng(seed)
    blocks = [_anti_hermitian(rng, n) for _ in range(distinct)]
    nudged = blocks[0].copy()
    nudged[0, -1] = np.nextafter(nudged[0, -1].real, np.inf) + 1j * nudged[0, -1].imag  # one ulp, inside HINT_TOL
    signed = blocks[0].copy()
    signed[0, 0] = complex(-0.0, signed[0, 0].imag)
    blocks += [nudged, signed]
    stack = np.stack([blocks[p % len(blocks)] for p in picks + [0, len(blocks) - 2, len(blocks) - 1]])
    stack = np.stack([stack] * grid, axis=1)  # (count, G, n, n), as _transformed_pairs stacks a grid
    whole = transforms.expm(stack)
    alone = np.stack([[transforms.expm(block) for block in row] for row in stack])
    assert whole.shape == stack.shape
    assert np.array_equal(_bits(whole), _bits(alone))


def test_residual_study_solves_8_distinct_generator_blocks_at_per_mode_8(monkeypatch):
    # at per-mode cutoff 8, T is the identity on mode 1: its 18 blocks at each of 4 couplings are 2 chains per coupling
    solved, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        solved.append(int(np.prod(a.shape[:-2])))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    basis = make_basis(BasisSpec.per_mode(8))
    report = residual_study(STUDY_PARAMS, basis, STUDY_GRID)
    assert sum(solved) == 8
    assert [members.shape for members, _ in decoupling_generator(STUDY_PARAMS, basis).blocks()] == [(18, 9)]
    assert 2.7 <= report.fitted_slope <= 3.3


def test_residual_study_finds_each_layout_once_per_basis(monkeypatch):
    # the pair and remainder layouts are kept with the generator's pattern: a second study on the basis finds neither
    # again, nor the remainder's blocks, and another basis finds its own
    found = {"pairs": 0, "remainder": 0}

    def counted(name, find):
        def counting(*args):
            found[name] += 1
            return find(*args)
        return counting

    monkeypatch.setattr(transforms, "_pair_layout", counted("pairs", transforms._pair_layout))
    monkeypatch.setattr(transforms, "_remainder_layout", counted("remainder", transforms._remainder_layout))
    basis, other = make_basis(BasisSpec.per_mode(5, 4)), make_basis(BasisSpec.per_mode(4, 5))
    first = residual_study(STUDY_PARAMS, basis, STUDY_GRID)
    assert found == {"pairs": 1, "remainder": 1}
    with monkeypatch.context() as patch:
        patch.setattr(fockspace, "_sectors", _raise_on_call)
        assert residual_study(STUDY_PARAMS, basis, STUDY_GRID[1:]).residual_norms == first.residual_norms[1:]
    assert found == {"pairs": 1, "remainder": 1}
    residual_study(STUDY_PARAMS, other, STUDY_GRID)
    assert found == {"pairs": 2, "remainder": 2}


def _raise_on_call(*_args, **_kwargs):
    raise AssertionError("a layout was found again")


def test_conjugate_keeps_a_bounded_layout_per_generator_pattern_and_never_a_stale_one():
    from scipy.linalg import expm as scipy_expm

    # fresh Hamiltonian patterns, each collected after use: the generator's pattern keeps at most LAYOUTS layouts, keyed
    # on patterns it holds, so a new pattern never meets the layout of a collected one
    basis, rng = make_basis(BasisSpec.per_mode(2, 3)), np.random.default_rng(9)
    t = assemble(basis, "generator", STUDY_PARAMS, 0.3)
    e = scipy_expm(t.entries)
    for _ in range(2 * fockspace.LAYOUTS):
        m = (rng.normal(size=(basis.dimension,) * 2) + 1j) * (rng.random((basis.dimension,) * 2) < 0.3)
        assert np.abs(conjugate(t, dense_op(basis, m)).entries - e @ m @ e.conj().T).max() <= 1e-13
        gc.collect()
    assert len(t._plan.found) <= fockspace.LAYOUTS
