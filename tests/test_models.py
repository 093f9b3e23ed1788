from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jtrwa import (
    BasisSpec,
    Hermiticity,
    ModelParams,
    ResonanceError,
    SPIN_DOWN,
    SPIN_UP,
    boson_ops,
    build_full_jt,
    build_nonhermitian,
    build_rotated,
    build_rwa,
    build_second_order,
    conserved_excitation_op,
    diagonalize,
    make_basis,
    pauli_ops,
    reality_scan,
    spin_ladder_detunings,
)
from jtrwa import cli, fockspace, models, pseudoherm, spectra
from jtrwa.transforms import decoupling_generator

BUILDERS = (build_full_jt, build_rwa, build_rotated, build_second_order)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega=0.0)
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, gamma=-0.1)
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, kappa=1j).real_kappa()


def test_resonance_rejected():
    with pytest.raises(ResonanceError):
        spin_ladder_detunings(ModelParams(omega=1.0, omega0=0.5))
    with pytest.raises(ResonanceError):
        spin_ladder_detunings(ModelParams(omega=1.0, omega0=-0.5))
    basis = make_basis(BasisSpec.per_mode(1, 1))
    with pytest.raises(ResonanceError):
        build_second_order(ModelParams(omega=1.0, omega0=0.5, kappa=0.1), basis)
    plus, minus = spin_ladder_detunings(ModelParams(omega=1.0, omega0=0.2))
    assert plus == pytest.approx(1.4)
    assert minus == pytest.approx(0.6)


def test_decoupled_spectrum_is_oscillator_ladder():
    basis = make_basis(BasisSpec.per_mode(3, 3))
    params = ModelParams(omega=1.0, omega0=0.0, kappa=0.0)
    spectrum = diagonalize(build_full_jt(params, basis))
    expected = np.sort(
        [n1 + n2 + 1.0 for n1, n2 in zip(basis.n1, basis.n2)]
    )
    assert np.allclose(spectrum.eigenvalues.real, expected, atol=1e-12)
    # every oscillator level appears once per spin branch
    values, counts = np.unique(np.round(spectrum.eigenvalues.real, 9), return_counts=True)
    assert counts.min() >= 2 and counts.min() % 2 == 0


@pytest.mark.parametrize("builder", BUILDERS)
def test_hermitian_for_real_coupling(builder):
    basis = make_basis(BasisSpec.per_mode(4, 4))
    params = ModelParams(omega=1.0, omega0=0.15, kappa=0.3)
    h = builder(params, basis).entries
    assert np.abs(h - h.conj().T).max() <= 1e-14


def test_nonhermitian_adjoint_is_gamma_sign_flip():
    # h = F + i*gamma*C with F, C Hermitian, so the adjoint equals 2F - h,
    # i.e. the same builder evaluated at -gamma
    basis = make_basis(BasisSpec.per_mode(4, 2))
    h = build_nonhermitian(ModelParams(omega=1.0, omega0=0.2, gamma=0.4), basis)
    free = build_nonhermitian(ModelParams(omega=1.0, omega0=0.2, gamma=0.0), basis)
    assert np.abs(h.entries.conj().T - (2.0 * free.entries - h.entries)).max() <= 1e-14
    assert np.abs(h.entries - h.entries.conj().T).max() > 0.1  # genuinely non-Hermitian


def test_nonhermitian_gamma_zero_spectrum():
    basis = make_basis(BasisSpec.per_mode(3, 3))
    params = ModelParams(omega=1.0, omega0=0.3, gamma=0.0)
    spectrum = diagonalize(build_nonhermitian(params, basis))
    expected = np.sort([n1 + n2 + 1.0 + 0.3 * s for s, n1, n2 in zip(basis.spin, basis.n1, basis.n2)])
    assert np.allclose(spectrum.eigenvalues.real, expected, atol=1e-12)
    assert np.abs(spectrum.eigenvalues.imag).max() <= 1e-12


def test_rwa_equals_full_at_zero_coupling():
    basis = make_basis(BasisSpec.per_mode(3, 3))
    params = ModelParams(omega=1.3, omega0=0.2, kappa=0.0)
    assert np.array_equal(build_rwa(params, basis).entries, build_full_jt(params, basis).entries)
    assert np.array_equal(
        build_second_order(params, basis).entries, build_full_jt(params, basis).entries
    )


def test_rwa_and_rotated_are_isospectral_in_total_basis():
    basis = make_basis(BasisSpec.total_number(10))
    params = ModelParams(omega=1.0, omega0=0.2, kappa=0.35)
    e_rwa = diagonalize(build_rwa(params, basis)).eigenvalues.real
    e_rot = diagonalize(build_rotated(params, basis)).eigenvalues.real
    assert np.abs(e_rwa - e_rot).max() <= 1e-10


def test_rotated_block_matrix_elements():
    basis = make_basis(BasisSpec.per_mode(4, 4))
    omega, omega0, kappa = 1.1, 0.25, 0.4
    h = build_rotated(ModelParams(omega=omega, omega0=omega0, kappa=kappa), basis).entries
    for n1, n2 in ((0, 0), (1, 2), (2, 1)):
        up = basis.index(SPIN_UP, n1, n2)
        down = basis.index(SPIN_DOWN, n1 + 1, n2)
        assert h[up, up] == pytest.approx(omega * (n1 + n2 + 1) + omega0)
        assert h[down, down] == pytest.approx(omega * (n1 + n2 + 2) - omega0)
        assert h[up, down] == pytest.approx(np.sqrt(2) * kappa * np.sqrt(n1 + 1))
        assert h[down, up] == pytest.approx(np.sqrt(2) * kappa * np.sqrt(n1 + 1))


def test_rotated_is_diagonal_at_zero_coupling():
    basis = make_basis(BasisSpec.per_mode(2, 2))
    h = build_rotated(ModelParams(omega=1.0, omega0=0.2, kappa=0.0), basis).entries
    assert np.abs(h - np.diag(np.diag(h))).max() == 0.0


def test_rotated_conserves_mode2_number():
    basis = make_basis(BasisSpec.per_mode(4, 4))
    params = ModelParams(omega=1.0, omega0=0.1, kappa=0.5)
    h = build_rotated(params, basis).entries
    _, a2d = boson_ops(basis, 2)
    a2, _ = boson_ops(basis, 2)
    n2 = a2d.entries @ a2.entries
    assert np.abs(h @ n2 - n2 @ h).max() <= 1e-14


def _second_order_by_hand(params, basis):
    """Independent state-by-state assembly of the second-order Hamiltonian."""
    omega, omega0, kappa = params.omega, params.omega0, complex(params.kappa)
    c_plus = kappa**2 / (omega + 2 * omega0)
    c_minus = kappa**2 / (omega - 2 * omega0)
    c_quad = omega * kappa**2 / (omega**2 - 4 * omega0**2)
    dim = basis.dimension
    h = np.zeros((dim, dim), dtype=complex)

    def add(spin, n1, n2, amp, col):
        if basis.contains(spin, n1, n2):
            h[basis.index(spin, n1, n2), col] += amp

    for col, (s, n1, n2) in enumerate(zip(basis.spin, basis.n1, basis.n2)):
        h[col, col] += omega * (n1 + n2 + 1) + omega0 * s
        if s == SPIN_DOWN:
            add(SPIN_UP, n1 - 1, n2, kappa * np.sqrt(n1), col)
            add(SPIN_UP, n1, n2 - 1, kappa * np.sqrt(n2), col)
        else:
            add(SPIN_DOWN, n1 + 1, n2, kappa * np.sqrt(n1 + 1), col)
            add(SPIN_DOWN, n1, n2 + 1, kappa * np.sqrt(n2 + 1), col)
        add(s, n1 + 1, n2 + 1, c_plus * s * np.sqrt((n1 + 1) * (n2 + 1)), col)
        add(s, n1 - 1, n2 - 1, c_plus * s * np.sqrt(n1 * n2), col)
        add(s, n1 + 1, n2 - 1, c_minus * s * np.sqrt((n1 + 1) * n2), col)
        add(s, n1 - 1, n2 + 1, c_minus * s * np.sqrt(n1 * (n2 + 1)), col)
        add(s, n1, n2 + 2, c_quad * s * np.sqrt((n2 + 1) * (n2 + 2)), col)
        add(s, n1, n2 - 2, c_quad * s * np.sqrt(n2 * (n2 - 1)), col)
        h[col, col] += c_quad * s * 2 * n2
        h[col, col] += c_minus if s == SPIN_UP else -c_plus
    return h


def test_second_order_matches_independent_toy_construction():
    basis = make_basis(BasisSpec.per_mode(2, 2))
    params = ModelParams(omega=1.0, omega0=0.2, kappa=0.17)
    built = build_second_order(params, basis).entries
    by_hand = _second_order_by_hand(params, basis)
    assert np.abs(built - by_hand).max() <= 1e-14


def test_conserved_excitation_commutes_with_full_hamiltonian():
    basis = make_basis(BasisSpec.per_mode(5, 5))
    lam = conserved_excitation_op(basis).entries
    for params in (
        ModelParams(omega=1.0, omega0=0.0, kappa=0.6),
        ModelParams(omega=1.3, omega0=0.4, kappa=0.25),
        ModelParams(omega=1.0, omega0=-0.2, kappa=0.1 + 0.3j),
    ):
        h = build_full_jt(params, basis).entries
        assert np.linalg.norm(h @ lam - lam @ h, "fro") <= 1e-13


def test_conserved_excitation_is_diagonal_with_half_integer_eigenvalues():
    basis = make_basis(BasisSpec.total_number(4))
    lam = conserved_excitation_op(basis).entries
    assert np.abs(lam - np.diag(np.diag(lam))).max() == 0.0
    doubled = 2.0 * np.diag(lam).real
    assert np.allclose(doubled, np.round(doubled))
    assert np.all(np.round(doubled) % 2 != 0)


def test_ground_energy_is_flat_in_kappa_at_zero():
    # quadratic leading order: finite-difference slope at kappa = 0 vanishes
    basis_specs = [BasisSpec.total_number(20)]
    step = 1e-4
    e0 = diagonalize(
        build_full_jt(ModelParams(omega=1.0, omega0=0.0, kappa=0.0), make_basis(basis_specs[0]))
    ).ground_energy
    e1 = diagonalize(
        build_full_jt(ModelParams(omega=1.0, omega0=0.0, kappa=step), make_basis(basis_specs[0]))
    ).ground_energy
    assert abs((e1 - e0) / step) <= 1e-3


@pytest.mark.parametrize("spec", [BasisSpec.total_number(12), BasisSpec.per_mode(6, 5)])
def test_second_order_is_hermitian_on_both_truncations(spec):
    # a1+ a2 is paired with its truncated adjoint a2+ a1; a1 a2+ differs
    # from it on the total-number boundary and broke the Hermitian hint
    params = ModelParams(omega=1.0, omega0=0.15, kappa=np.sqrt(0.3))
    h = build_second_order(params, make_basis(spec))
    assert h.validate() <= 1e-12


def _dense_products(name, params, basis):
    """The operator expressions of the builders as dense matrix products."""
    a1, a1d = (op.entries for op in boson_ops(basis, 1))
    a2, a2d = (op.entries for op in boson_ops(basis, 2))
    sp, sm, s0 = (op.entries for op in pauli_ops(basis))
    kappa = params.kappa
    free = params.omega * (a1d @ a1 + a2d @ a2 + np.eye(basis.dimension)) + params.omega0 * s0
    rwa = free + kappa * ((a1 + a2) @ sp + (a1d + a2d) @ sm)
    if name == "full":
        return free + kappa * ((a1 + a2d) @ sp + (a1d + a2) @ sm)
    if name == "rwa":
        return rwa
    if name == "rotated":
        return free + np.sqrt(2.0) * kappa * (a1 @ sp + a1d @ sm)
    if name == "nonhermitian":
        return free + 1j * np.sqrt(2.0) * params.gamma * (a1 @ sp + a1d @ sm)
    plus, minus = spin_ladder_detunings(params)
    if name == "generator":
        t = (kappa / plus) * (sp @ a2d - sm @ a2)
        t -= (kappa / minus) * (sm @ a2d - sp @ a2)
        return t
    k2 = kappa * kappa
    h = rwa.copy()
    h += (k2 / plus) * (a1d @ a2d + a1 @ a2) @ s0
    h += (k2 / minus) * (a1d @ a2 + a2d @ a1) @ s0
    h += (params.omega * k2 / (plus * minus)) * (a2d @ a2d + a2 @ a2 + 2.0 * (a2d @ a2)) @ s0
    h += (k2 / minus) * (sp @ sm) - (k2 / plus) * (sm @ sp)
    return h


SPARSE_ASSEMBLED = {
    "full": build_full_jt,
    "rwa": build_rwa,
    "rotated": build_rotated,
    "nonhermitian": build_nonhermitian,
    "second-order": build_second_order,
    "generator": decoupling_generator,
}


@pytest.mark.parametrize("name", sorted(SPARSE_ASSEMBLED))
@pytest.mark.parametrize("spec", [BasisSpec.total_number(7), BasisSpec.per_mode(4, 3)])
@pytest.mark.parametrize("kappa", [0.43, 0.3 - 0.2j])
def test_sparse_assembly_equals_dense_products(name, spec, kappa):
    basis = make_basis(spec)
    params = ModelParams(omega=1.2, omega0=0.17, kappa=kappa, gamma=0.31)
    built = SPARSE_ASSEMBLED[name](params, basis).entries
    assert np.array_equal(built, _dense_products(name, params, basis))


CACHE_SPECS = [BasisSpec.total_number(n) for n in (2, 4, 5)] + [BasisSpec.per_mode(3, 2)]
CACHE_KEYS = [(name, spec) for name in sorted(SPARSE_ASSEMBLED) for spec in CACHE_SPECS]


@settings(max_examples=15, deadline=None)
@given(
    first=st.permutations(CACHE_KEYS),
    second=st.permutations(CACHE_KEYS),
    kappa=st.complex_numbers(max_magnitude=2.0),
    gamma=st.floats(0.0, 2.0),
)
def test_cached_terms_match_dense_products_past_the_cache_size(first, second, kappa, gamma):
    # 24 (model, basis) pairs against a 16-entry cache: the second pass
    # mixes evicted and cached terms
    assert len(CACHE_KEYS) > models.TERM_CACHE_SIZE
    params = ModelParams(omega=1.2, omega0=0.17, kappa=kappa, gamma=gamma)
    for name, spec in first + second:
        basis = make_basis(spec)
        built = SPARSE_ASSEMBLED[name](params, basis).entries
        assert np.array_equal(built, _dense_products(name, params, basis))
    assert models.model_terms.cache_info().currsize <= models.TERM_CACHE_SIZE


def test_reality_scan_assembles_its_basis_once(monkeypatch):
    elementary_ops, calls = models.elementary_ops, []

    def counting(basis):
        calls.append(basis)
        return elementary_ops(basis)

    monkeypatch.setattr(models, "elementary_ops", counting)
    models.model_terms.cache_clear()
    basis = make_basis(BasisSpec.per_mode(8, 8))
    report = reality_scan(ModelParams(omega=1.0, omega0=0.2), basis, np.linspace(0.0, 0.5, 101))
    assert len(report.gamma_values) == 101
    assert calls == [basis]
    assert models.model_terms.cache_info().currsize == 1  # only the nonhermitian terms, built lazily


def test_reality_scan_finds_the_sectors_once(monkeypatch):
    sectors, calls = fockspace._sectors, []

    def counting(rows, cols, dim):
        calls.append(dim)
        return sectors(rows, cols, dim)

    monkeypatch.setattr(fockspace, "_sectors", counting)
    models.model_terms.cache_clear()
    basis = make_basis(BasisSpec.per_mode(8, 8))
    reality_scan(ModelParams(omega=1.0, omega0=0.2), basis, np.linspace(0.0, 0.5, 101))
    assert calls == [basis.dimension]  # on the Jaynes-Cummings pattern; every gamma, 0 included, shares its blocks


def test_reality_scan_assembles_one_grid_and_never_diagonalizes(monkeypatch):
    calls = []

    def counting(name, function):
        def counted(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return counted

    assemble, diagonalize = counting("assemble", models.assemble_blocks), counting("diagonalize", spectra.diagonalize)
    monkeypatch.setattr(pseudoherm, "assemble_blocks", assemble)  # where the scan looks it up
    for module in (spectra, pseudoherm):
        monkeypatch.setattr(module, "diagonalize", diagonalize, raising=False)
    basis = make_basis(BasisSpec.per_mode(8, 8))
    report = reality_scan(ModelParams(omega=1.0, omega0=0.2), basis, np.linspace(0.0, 0.5, 101))
    assert len(report.gamma_values) == 101
    assert calls == ["assemble"]


# reference rules: a real coupling gives a Hermitian operator (an anti-Hermitian generator), any other a general one
def _former_hint(kappa, anti=False):
    if complex(kappa).imag != 0.0:
        return Hermiticity.GENERAL
    return Hermiticity.ANTI_HERMITIAN if anti else Hermiticity.HERMITIAN


@pytest.mark.parametrize("spec", [BasisSpec.total_number(3), BasisSpec.per_mode(2, 3)])
@pytest.mark.parametrize("kappa", [0.0, -0.0, 0.3, -0.4, 0.3j, 0.2 + 0.1j, 1e-300, 1e-300j, complex(0.5, -0.0)])
@pytest.mark.parametrize("gamma", [0.0, -0.0, 0.2, 1e-300])
def test_assemble_hints_equal_the_former_per_builder_rules(spec, kappa, gamma):
    basis = make_basis(spec)
    params = ModelParams(omega=1.0, omega0=0.15, kappa=kappa, gamma=gamma)
    for builder in BUILDERS:
        assert builder(params, basis).hint is _former_hint(kappa)
    nonhermitian = Hermiticity.HERMITIAN if gamma == 0.0 else Hermiticity.GENERAL
    assert build_nonhermitian(params, basis).hint is nonhermitian
    assert decoupling_generator(params, basis).hint is _former_hint(kappa, anti=True)


# real couplings, and complex ones whose squares are exact.  Each scalar coupling is the grid's own numpy element:
# Python divides a complex number by a real one differently, and numpy's array loop may fuse the multiply-add of a
# complex product that its scalar arithmetic rounds twice, so a grid and a scalar agree bit for bit only where nothing
# rounds
GRID_COUPLINGS = (np.array([0.0, 0.01, -0.2, 0.3, 1.5]), np.array([0.25j, 0.5 - 0.75j, -1.125 + 0.375j, 0.0625 + 0.5j]))


@pytest.mark.parametrize("spec", [BasisSpec.per_mode(4), BasisSpec.total_number(5)])
@pytest.mark.parametrize("model", sorted(models.MODELS))
def test_grid_columns_equal_the_scalar_operators(spec, model):
    # one table for every model: a grid column is the operator at that coupling alone, and so is its builder's output
    basis, params = make_basis(spec), ModelParams(omega=1.3, omega0=0.2)
    for couplings in GRID_COUPLINGS:
        grid, hints = models.assemble(basis, model, params, couplings), set()
        assert grid.triplets[2].shape == (grid.triplets[0].size, couplings.size)
        for coupling, column in zip(couplings, grid.triplets[2].T):
            one = models.assemble(basis, model, params, coupling)
            assert np.array_equal(column, one.triplets[2])
            hints.add(one.hint)
            if model in SPARSE_ASSEMBLED and (model != "nonhermitian" or (coupling.imag == 0 and coupling.real >= 0)):
                field = "gamma" if model == "nonhermitian" else "kappa"  # gamma is a non-negative magnitude
                built = SPARSE_ASSEMBLED[model](replace(params, **{field: coupling}), basis)
                assert np.array_equal(column, built.triplets[2]) and built.hint is one.hint
        assert grid.hint is (Hermiticity.GENERAL if Hermiticity.GENERAL in hints else hints.pop())


@settings(max_examples=120, deadline=None)
@given(
    spec=st.sampled_from([BasisSpec.per_mode(3, 2), BasisSpec.total_number(4)]),
    model=st.sampled_from(sorted(models.MODELS)),
    omega=st.floats(0.5, 2.0),
    omega0=st.sampled_from((0.0, 0.2)) | st.floats(-0.2, 0.2),
    coupling=st.sampled_from((0.0, -0.0, 1e-300)) | st.floats(-3.0, 3.0),
)
def test_a_scalar_coupling_sums_the_terms_as_a_grid_of_one(spec, model, omega, omega0, coupling):
    # the scalar path of _term_sum multiplies each coefficient into its term directly: bit for bit column 0 of the grid
    basis, params = make_basis(spec), ModelParams(omega=omega, omega0=omega0)
    grid = np.array([coupling])
    one, column = models.assemble(basis, model, params, grid[0]), models.assemble(basis, model, params, grid)
    def bits(values):  # -0.0 is not 0.0
        return np.ascontiguousarray(values).tobytes()

    assert bits(one.triplets[2]) == bits(column.triplets[2][:, 0]) and one.hint is column.hint
    blocks = np.arange(0, one.block_bounds()[0].size, 2)
    for (members, stack), (grid_members, grid_stack) in zip(
        models.assemble_blocks(basis, model, params, grid[0], blocks),
        models.assemble_blocks(basis, model, params, grid, blocks), strict=True
    ):
        assert np.array_equal(members, grid_members) and bits(stack) == bits(grid_stack[..., 0])


def test_every_cli_model_is_a_table_entry_and_its_builder():
    for name, builder in cli.MODELS.items():
        assert name in models.MODELS and builder is SPARSE_ASSEMBLED[name]


# the models whose terms share no off-diagonal position: there the term radius is the operator's, to rounding
DISJOINT = {"full", "rwa", "rotated", "nonhermitian"}
SPECS = st.sampled_from([BasisSpec.per_mode(2, 3), BasisSpec.per_mode(3, 1), BasisSpec.total_number(4)])
COUPLINGS = st.floats(-3.0, 3.0, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(spec=SPECS, model=st.sampled_from(sorted(models.MODELS)), omega=st.floats(0.5, 2.0),
       omega0=st.floats(-0.2, 0.2), couplings=st.lists(COUPLINGS, min_size=1, max_size=4), single=st.booleans())
def test_term_bounds_lie_at_or_below_the_assembled_operators_bounds(spec, model, omega, omega0, couplings, single):
    basis, params = make_basis(spec), ModelParams(omega=omega, omega0=omega0)
    coupling = couplings[0] if single else np.array(couplings)
    lower, scale = models.gershgorin(basis, model, params, coupling)
    whole = models.assemble(basis, model, params, coupling)
    values = whole.triplets[2].reshape(len(whole.triplets[2]), -1)
    for column, term_bound, bound_on_radius in zip(values.T, lower.reshape(len(lower), -1).T, np.reshape(scale, -1)):
        op = whole.with_values(column, Hermiticity.GENERAL)  # one operator of the grid
        (bound, radius), row_sums = op.block_bounds(), np.abs(op.entries).sum(axis=1)
        slack = 1e-14 * row_sums.max()  # the two radii sum the same products in another order
        assert np.all(term_bound <= bound + slack)
        assert row_sums.max() <= bound_on_radius + slack
        assert abs(radius - row_sums.max()) <= slack and radius <= bound_on_radius + slack
        if model in DISJOINT:
            assert np.all(np.abs(term_bound - bound) <= slack)


def test_a_term_bound_whose_radius_overflows_is_minus_infinity():
    # every entry is finite, but sqrt(2) kappa + kappa overflows in the rows with two couplings
    basis, params, kappa = make_basis(BasisSpec.per_mode(2)), ModelParams(omega=1.0), 8e307
    lower, scale = models.gershgorin(basis, "full", params, kappa)
    bounds, radius = models.assemble(basis, "full", params, kappa).block_bounds()
    assert np.array_equal(lower, bounds) and np.isneginf(lower).any() and np.isfinite(lower).any()
    assert radius == scale == np.inf


def test_a_block_with_an_entry_that_is_not_finite_has_the_term_bound_minus_infinity():
    # omega (n1 + n2 + 1) overflows for n1 + n2 >= 17 alone: the highest blocks, which then come first, not last
    basis = make_basis(BasisSpec.per_mode(9))
    lower, _ = models.gershgorin(basis, "nonhermitian", ModelParams(omega=1e307), np.array([0.0, 0.1]))
    op = models.assemble(basis, "nonhermitian", ModelParams(omega=1.0), 0.1)
    high = np.concatenate([(basis.n1 + basis.n2)[members].max(axis=1) >= 17 for members, _ in op.blocks()])
    assert high.any() and np.array_equal(np.isneginf(lower), np.repeat(high[:, None], 2, axis=1))


@settings(max_examples=40, deadline=None)
@given(spec=SPECS, model=st.sampled_from(sorted(models.MODELS)), couplings=st.lists(COUPLINGS, min_size=1, max_size=3),
       single=st.booleans(), data=st.data())
def test_assembling_some_blocks_gives_the_whole_operators_values_there_bit_for_bit(spec, model, couplings, single,
                                                                                    data):
    basis, params = make_basis(spec), ModelParams(omega=1.1, omega0=0.15)
    coupling = couplings[0] if single else np.array(couplings)
    whole = models.assemble(basis, model, params, coupling)
    count = len(models.gershgorin(basis, model, params, coupling)[0])
    chosen = np.array(data.draw(st.lists(st.integers(0, count - 1), min_size=1, unique=True)))
    part = models.assemble_blocks(basis, model, params, coupling, chosen)
    for (members, stack), (chosen_members, chosen_stack) in zip(part, whole.blocks(chosen), strict=True):
        assert np.array_equal(members, chosen_members) and np.array_equal(stack, chosen_stack)
        assert stack.dtype == chosen_stack.dtype and stack.shape == chosen_stack.shape
    states = np.concatenate([members.ravel() for members, _ in whole.blocks()])
    picked = np.isin(states, np.concatenate([members.ravel() for members, _ in part]))
    assert np.array_equal(spectra.block_eigenvalues(part), spectra.block_eigenvalues(whole.blocks())[..., picked])


def test_assembling_blocks_that_overflow_raises_the_whole_operators_error():
    # omega (n1 + n2 + 1) overflows for n1 + n2 >= 17 alone: a block there fails as the whole operator does, in one
    # line, and the blocks below it build
    basis, params = make_basis(BasisSpec.per_mode(9)), ModelParams(omega=1e307)
    op = models.assemble(basis, "nonhermitian", ModelParams(omega=1.0), 0.1)
    high = np.concatenate([(basis.n1 + basis.n2)[members].max(axis=1) >= 17 for members, _ in op.blocks()])
    message = "the nonhermitian operator has an entry that is not finite: a parameter is too large"
    one_high = [high.argmax()]
    for coupling in (0.1, np.array([0.0, 0.1])):
        for build in (lambda: models.assemble(basis, "nonhermitian", params, coupling),
                      lambda: models.assemble_blocks(basis, "nonhermitian", params, coupling, one_high)):
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == message
        below = models.assemble_blocks(basis, "nonhermitian", params, coupling, np.flatnonzero(~high))
        assert all(np.isfinite(stack).all() for _, stack in below)


def _outcome(check):
    """What a check gives: its value, or the message it raises."""
    try:
        return "value", check()
    except ValueError as failure:
        return "raises", str(failure)


def _same_twins(a, b):
    def fields(swap):  # with the lower-positioned block of each pair, which diagonalize solves
        return swap.state, swap.twin, np.minimum(np.arange(swap.twin.size), swap.twin)
    return (a is None) == (b is None) and (a is None or all(map(np.array_equal, fields(a), fields(b))))


COUPLINGS = (st.sampled_from((0.0, -0.0, 0.37, -0.7, 0j, 0.37 + 0j, -0.0j, 0.3 + 0.2j, 1e-300j))
             | st.floats(-2.0, 2.0) | st.complex_numbers(max_magnitude=2.0))


@settings(max_examples=200, deadline=None)
@given(
    model=st.sampled_from(sorted(models.MODELS)),
    total=st.booleans(),
    cutoff=st.integers(1, 5),
    omega0=st.sampled_from((0.0, -0.0, 0.2, 1e-300)),
    coupling=COUPLINGS,
    grid=st.booleans(),
)
def test_the_proved_hint_and_pairing_are_the_scans_of_the_same_values(model, total, cutoff, omega0, coupling, grid):
    # assemble proves from the terms' structure what validate() and twins() would find; an operator holding the same
    # triplets with no proof scans them, and every answer (a deviation, a raised message, a pairing) is the same
    basis = make_basis(BasisSpec.total_number(cutoff) if total else BasisSpec.per_mode(cutoff))
    couplings = np.array([coupling, 0.5 * coupling, 0.0]) if grid else coupling
    params = ModelParams(omega=1.0, omega0=omega0)
    op = models.assemble(basis, model, params, couplings)
    plain = fockspace.OperatorMatrix.from_triplets(basis, *op.triplets, op.hint)
    assert not (plain.exact or plain.paired)
    assert _outcome(op.validate) == _outcome(plain.validate)
    assert _same_twins(op.twins(), plain.twins())
    real = not any(np.iscomplex(c).any() for c in models.MODELS[model].coefficients(params, couplings))
    assert (op.hint is not Hermiticity.GENERAL) == real
    assert op.exact == real  # every model's terms are exactly (anti-)Hermitian, on both truncations
    if model == "full":  # omega0 sigma0 is its one term that Theta does not keep
        assert op.paired == (omega0 == 0.0)


def test_a_tiny_omega0_is_paired_by_the_scan_not_by_the_proof():
    # omega0 sigma0 is the one full-model term that Theta does not keep; at 1e-300 it rounds away in every sum
    op = build_full_jt(ModelParams(omega=1.0, omega0=1e-300, kappa=0.6), make_basis(BasisSpec.total_number(6)))
    assert not op.paired and op.twins() is not None


@pytest.mark.parametrize("factor", [np.nextafter(1.0, 2.0), 1.0 + 1e-9])
def test_a_model_whose_term_is_off_hermitian_is_scanned_and_judged_as_today(monkeypatch, factor):
    # the lowering half of the full model's coupling scaled by one ulp, then by 1e-9: no proof, so validate() scans
    # and passes the first, and rejects the second with the message of an operator that holds the same triplets
    off = models.Model(lambda o: (*models._free(o), (o.a1 + o.a2d) @ o.sp + factor * ((o.a1d + o.a2) @ o.sm)),
                       models.MODELS["full"].coefficients)
    monkeypatch.setitem(models.MODELS, "full", off)
    models.model_terms.cache_clear()
    try:
        basis = make_basis(BasisSpec.total_number(6))
        op = build_full_jt(ModelParams(omega=1.0, kappa=0.6), basis)
        assert op.hint is Hermiticity.HERMITIAN and not op.exact
        plain = fockspace.OperatorMatrix.from_triplets(basis, *op.triplets, op.hint)
        kind, answer = _outcome(op.validate)
        assert (kind, answer) == _outcome(plain.validate)
        if factor < 1.0 + 1e-12:
            assert kind == "value" and 0.0 < answer <= fockspace.HINT_TOL
        else:
            assert kind == "raises" and "violates hermitian hint" in answer
            with pytest.raises(ValueError, match="violates hermitian hint"):
                diagonalize(op, levels=2)
    finally:
        models.model_terms.cache_clear()
