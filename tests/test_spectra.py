import numpy as np
import pytest
from dense import dense_op
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from jtrwa import (
    BasisSpec,
    Branch,
    Hermiticity,
    ModelParams,
    RwaLevel,
    SPIN_DOWN,
    SPIN_UP,
    assemble_eigenstate,
    benchmark_rwa_energy,
    block_solve,
    boson_ops,
    build_full_jt,
    build_nonhermitian,
    build_rotated,
    build_rwa,
    build_second_order,
    conjugate,
    conjugation_closure,
    conserved_excitation_op,
    converge_ground,
    diagonalize,
    make_basis,
    rwa_energy,
    rwa_level_ladder,
    total_number_schedule,
)
from jtrwa import spectra
from jtrwa.cli import MODELS
from jtrwa.fockspace import OperatorMatrix, _sectors, diagonal_op
from jtrwa.reference import TABLE1_KAPPA2
from jtrwa.spectra import LEVEL_GAP, block_eigenvalues, level_order

BUILDERS = {
    "full": build_full_jt,
    "rwa": build_rwa,
    "rotated": build_rotated,
    "nonhermitian": build_nonhermitian,
    "second-order": build_second_order,
}


def test_diagonal_matrix_spectrum_is_sorted_diagonal():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    diag = np.array([3.0, -1.0, 2.0, 0.0, 5.0, 4.0, -2.0, 1.0])
    op = dense_op(basis, np.diag(diag), Hermiticity.HERMITIAN)
    spectrum = diagonalize(op)
    assert np.allclose(spectrum.eigenvalues.real, np.sort(diag))
    assert np.abs(spectrum.eigenvalues.imag).max() == 0.0


def test_hermitian_input_gives_real_spectrum():
    basis = make_basis(BasisSpec.per_mode(4, 4))
    h = build_full_jt(ModelParams(omega=1.0, omega0=0.2, kappa=0.5), basis)
    spectrum = diagonalize(h, want_vectors=True)
    assert np.abs(spectrum.eigenvalues.imag).max() <= 1e-12
    assert spectrum.residual_norms is not None
    assert spectrum.residual_norms.max() <= 1e-8


def test_general_path_eigenpair_residuals():
    basis = make_basis(BasisSpec.per_mode(4, 2))
    from jtrwa import build_nonhermitian

    h = build_nonhermitian(ModelParams(omega=1.0, omega0=0.1, gamma=0.5), basis)
    spectrum = diagonalize(h, want_vectors=True)
    assert spectrum.residual_norms.max() <= 1e-8
    order = spectrum.eigenvalues.real
    assert np.all(np.diff(order) >= -1e-12)  # sorted by real part


def test_ground_energy_benchmark_point():
    basis = make_basis(BasisSpec.total_number(30))
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.3))
    spectrum = diagonalize(build_full_jt(params, basis))
    assert spectrum.ground_energy == pytest.approx(0.73277, abs=5e-3)


def test_lying_hermitian_hint_is_caught():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    m = np.zeros((8, 8))
    m[1, 0] = 1.0
    with pytest.raises(ValueError, match="hermitian"):
        diagonalize(dense_op(basis, m, Hermiticity.HERMITIAN))


def test_full_model_splits_into_one_block_per_angular_momentum():
    basis = make_basis(BasisSpec.total_number(6))
    h = build_full_jt(ModelParams(omega=1.0, omega0=0.1, kappa=0.4), basis)
    j = np.diag(conserved_excitation_op(basis).entries).real
    blocks = [members for stack in _sectors(*h.triplets[:2], basis.dimension) for members in stack]
    assert all(np.unique(j[members]).size == 1 for members in blocks)
    assert len(blocks) == np.unique(j).size == 14
    assert sorted(k for members in blocks for k in members) == list(range(basis.dimension))


def _solved(members, stack, hermitian):
    """The eigenvalues (count, n) of a stack as diagonalize solves it: by block_eigenvalues, real where it can be."""
    stack = stack.real if hermitian and not np.any(stack.imag) else stack
    return block_eigenvalues([(members, stack)], hermitian).reshape(members.shape).astype(complex)


def _dense_pattern_eigenvalues(op):
    # oracle: sectors from a scan of the dense matrix, blocks cut out of it
    m, vals = op.entries, np.empty(op.dimension, dtype=complex)
    for members in _sectors(*np.nonzero(m), op.dimension):
        vals[members] = _solved(members, m[members[:, :, None], members[:, None, :]], op.hint is Hermiticity.HERMITIAN)
    return vals[level_order(vals)]


@pytest.mark.parametrize("spec", [BasisSpec.total_number(8), BasisSpec.per_mode(4, 3)])
@pytest.mark.parametrize("model", sorted(BUILDERS))
@pytest.mark.parametrize("coupling", [0.0, 0.37])
def test_triplet_sectors_equal_the_dense_pattern_sectors(spec, model, coupling):
    basis = make_basis(spec)
    op = BUILDERS[model](ModelParams(omega=1.1, omega0=0.15, kappa=coupling, gamma=coupling), basis)
    if coupling == 0.0:  # the zero coupling terms stay as explicit zeros: the blocks are those of a nonzero coupling
        coupled = BUILDERS[model](ModelParams(omega=1.1, omega0=0.15, kappa=0.37, gamma=0.37), basis)
        from_dense = _sectors(*np.nonzero(coupled.entries), basis.dimension)
        assert all(np.array_equal(a, b) for (a, _), b in zip(op.blocks(), from_dense, strict=True))
        assert op._plan is coupled._plan  # found once per (basis, model)
    else:
        from_triplets = _sectors(*op.triplets[:2], basis.dimension)
        from_dense = _sectors(*np.nonzero(op.entries), basis.dimension)
        assert len(from_triplets) == len(from_dense)
        assert all(np.array_equal(a, b) for a, b in zip(from_triplets, from_dense))
    assert np.array_equal(diagonalize(op).eigenvalues, _dense_pattern_eigenvalues(op))


@pytest.mark.parametrize("spec", [BasisSpec.total_number(6), BasisSpec.per_mode(3, 2)])
@pytest.mark.parametrize("model", sorted(BUILDERS))
def test_block_eigenvalues_equal_diagonalize(spec, model):
    # 1x1 and 2x2 blocks (rotated, nonhermitian) and larger ones (stacked eigvals), against the dense solve of the
    # whole matrix (diagonalize solves its blocks by the same routine); a grid of zero operators is zero
    op = BUILDERS[model](ModelParams(omega=1.1, omega0=0.15, kappa=0.37, gamma=0.37), make_basis(spec))
    vals = block_eigenvalues(op.blocks())
    cost = np.abs(vals[:, None] - np.linalg.eigvals(op.entries)[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-13 * np.abs(op.triplets[2]).max()
    zeros = op.with_values(np.zeros((op.triplets[2].size, 3)), Hermiticity.GENERAL)
    assert np.array_equal(block_eigenvalues(zeros.blocks()), np.zeros((3, op.dimension)))


def _level_order_1d(vals):
    # reference: level_order as it was before it took (G, n) arrays
    by_real = np.argsort(vals.real, kind="stable")
    real = vals.real[by_real]
    gap = LEVEL_GAP * float(np.abs(vals).max(initial=0.0))
    level = np.cumsum(np.diff(real, prepend=real[:1]) > gap)
    return by_real[np.lexsort((vals.imag[by_real], level))]


@st.composite
def _level_rows(draw):
    """(G, n) rows of exact ties, conjugate pairs and real parts 0.6 LEVEL_GAP apart (relative to a scale per row),
    which chain into one level where the row's largest |value| keeps the gap above the step."""
    g, n = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    rows = np.empty((g, n), dtype=complex)
    for row in rows:
        scale = draw(st.sampled_from((0.5, 1.0, 30.0)))
        for j in range(n):
            if j and draw(st.booleans()):
                row[j] = row[j - 1].conjugate() if draw(st.booleans()) else row[j - 1]
            else:
                real = draw(st.sampled_from((-1.0, 0.0, 0.5))) + draw(st.integers(0, 3)) * 0.6 * LEVEL_GAP
                row[j] = scale * complex(real, draw(st.sampled_from((0.0, 1e-17, -0.25, 1.0))))
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=_level_rows())
def test_level_order_orders_each_row_as_the_one_dimensional_call(rows):
    for row, order in zip(rows, level_order(rows), strict=True):
        assert np.array_equal(order, level_order(row))
        assert np.array_equal(level_order(row), _level_order_1d(row))


def _chained_lexsort(vals, scale=None):
    # reference: level_order's formula on any input, the lexsort on (imaginary part, level) included
    by_real = np.argsort(vals.real, axis=-1, kind="stable")
    ordered = np.take_along_axis(vals, by_real, axis=-1)
    gap = LEVEL_GAP * np.asarray(np.abs(vals).max(axis=-1, initial=0.0) if scale is None else scale)[..., None]
    level = np.cumsum(np.diff(ordered.real, axis=-1, prepend=ordered.real[..., :1]) > gap, axis=-1)
    return np.take_along_axis(by_real, np.lexsort((ordered.imag, level), axis=-1), axis=-1)


@st.composite
def _real_level_rows(draw):
    """(G, n) complex rows whose imaginary parts are all +0.0 or -0.0, with exact ties and real parts 0.6 LEVEL_GAP
    apart that chain into one level, and a scale per row or None."""
    g, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    rows = np.empty((g, n), dtype=complex)
    for row in rows:
        scale = draw(st.sampled_from((0.5, 1.0, 30.0)))
        for j in range(n):
            if j and draw(st.booleans()):
                row[j] = row[draw(st.integers(0, j - 1))].real
            else:
                row[j] = scale * (draw(st.sampled_from((-1.0, 0.0, 0.5))) + draw(st.integers(0, 3)) * 0.6 * LEVEL_GAP)
    rows.imag = np.reshape(draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=g * n, max_size=g * n)), (g, n))
    scale = draw(st.none() | st.lists(st.sampled_from((0.5, 1.0, 30.0)), min_size=g, max_size=g).map(np.array))
    return rows, scale


@settings(max_examples=200, deadline=None)
@given(case=_real_level_rows())
def test_level_order_of_a_real_spectrum_is_the_chained_lexsort(case):
    # with no imaginary part nonzero the order is the stable sort by real part: the lexsort's is the same, bit for bit
    rows, scale = case
    assert np.array_equal(level_order(rows, scale), _chained_lexsort(rows, scale))
    assert np.array_equal(level_order(rows.real, scale), _chained_lexsort(rows, scale))
    for g, row in enumerate(rows):
        one = None if scale is None else scale[g]
        assert np.array_equal(level_order(row, one), _chained_lexsort(row, one))


@pytest.mark.parametrize("k", [-60, -40, -30, -20, -4, 3, 20, 40])
def test_the_spectrum_scales_exactly_with_the_energy_unit(k):
    # lambda = 2^k scales every entry exactly, so the level gap must scale with it and the order stay the same
    basis, unit = make_basis(BasisSpec.total_number(12)), 2.0**k
    for build, params in ((build_nonhermitian, lambda u: ModelParams(omega=u, omega0=0.3 * u, gamma=0.45 * u)),
                          (build_full_jt, lambda u: ModelParams(omega=u, kappa=0.7 * u)),
                          (build_full_jt, lambda u: ModelParams(omega=u, omega0=0.3 * u, kappa=0.7 * u))):
        expected = diagonalize(build(params(1.0), basis)).eigenvalues
        assert np.array_equal(diagonalize(build(params(unit), basis)).eigenvalues / unit, expected)


@pytest.mark.parametrize("diagonal, ground, excited", [
    ([0, 1 + 1e-15j, 1 + 5e-10 - 1e-15j, 2, 3, 4, 5, 6], 0.0, 1.0),
    ([1e-15j, 1e-10 - 1e-15j, 2, 3, 4, 5, 6, 7], 0.0, 2.0),
])
def test_ground_and_first_excited_are_the_smallest_real_parts(diagonal, ground, excited):
    # real parts within LEVEL_GAP are one level, ordered by imaginary part, so the order is not ascending in them
    spectrum = diagonalize(dense_op(make_basis(BasisSpec.per_mode(1, 1)), np.diag(diagonal)))
    assert spectrum.ground_energy == ground
    assert spectrum.first_excited_energy() == excited


@pytest.mark.parametrize("levels", [None, 2])
def test_the_zero_operator_has_no_first_excited_level(levels):
    # every eigenvalue is 0: the ground multiplet is the whole spectrum
    basis = make_basis(BasisSpec.per_mode(2, 2))
    spectrum = diagonalize(diagonal_op(basis, np.zeros(basis.dimension)), levels=levels)
    assert spectrum.ground_energy == 0.0
    with pytest.raises(ValueError, match="^no level above the ground multiplet within the spectrum$"):
        spectrum.first_excited_energy()


def test_one_block_is_the_dense_solve():
    basis = make_basis(BasisSpec.per_mode(3, 2))
    rng = np.random.default_rng(7)
    m = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    m = m + m.conj().T
    spectrum = diagonalize(dense_op(basis, m, Hermiticity.HERMITIAN))
    assert np.array_equal(spectrum.eigenvalues.real, np.linalg.eigvalsh(m))


def test_degenerate_real_parts_are_ordered_by_imaginary_part_in_any_basis_order():
    # 2x2 blocks [[a, ib], [ib, a]] have eigenvalues a +/- ib: several blocks
    # share each real part a, so only the ordering rule can place them
    basis = make_basis(BasisSpec.per_mode(3, 2))
    m = np.zeros((24, 24), dtype=complex)
    for k, (a, b) in enumerate([(1.5, 0.3), (1.5, 0.7), (2.5, 0.2), (1.5, 0.5), (2.5, 0.9),
                                (0.5, 0.4), (2.5, 0.6), (0.5, 0.1), (1.5, 0.2), (2.5, 0.3)]):
        m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, 1j * b], [1j * b, a]]
    m[20:, 20:] = np.diag([1.5, 2.5, 0.5, 1.5])
    expected = diagonalize(dense_op(basis, m)).eigenvalues
    real = np.round(expected.real, 9)
    assert np.all(np.diff(real) >= 0)
    for level in np.unique(real):
        assert np.all(np.diff(expected.imag[real == level]) >= 0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.permutation(24)
        got = diagonalize(dense_op(basis, m[np.ix_(p, p)])).eigenvalues
        assert np.abs(got - expected).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(sorted(BUILDERS)),
    omega=st.floats(0.2, 2.0),
    omega0=st.floats(-1.0, 1.0),
    kappa=st.floats(0.0, 1.0),
    imaginary=st.booleans(),
    total=st.booleans(),
    cutoff=st.integers(1, 12),
    second_cutoff=st.integers(1, 12),
)
def test_sector_spectra_match_the_dense_oracle(
    model, omega, omega0, kappa, imaginary, total, cutoff, second_cutoff
):
    # the non-Hermitian builder's coupling i*gamma is imaginary by construction
    assume(min(abs(omega + 2 * omega0), abs(omega - 2 * omega0)) > 0.05)
    if imaginary or model == "nonhermitian":
        # exceptional points of the 2x2 Jaynes-Cummings blocks, where an eigenvalue is
        # defective and two backward-stable solves differ by ~sqrt(machine epsilon)
        n = np.arange(1, 14)
        assume(np.abs((omega - 2 * omega0) ** 2 - 8 * kappa**2 * n).min() > 1e-6)
    coupling = 1j * kappa if imaginary else kappa
    params = (ModelParams(omega, omega0, gamma=kappa) if model == "nonhermitian"
              else ModelParams(omega, omega0, kappa=coupling))
    spec = BasisSpec.total_number(cutoff) if total else BasisSpec.per_mode(cutoff, second_cutoff)
    op = BUILDERS[model](params, make_basis(spec))
    spectrum = diagonalize(op, want_vectors=True)
    vals = spectrum.eigenvalues
    if op.hint is Hermiticity.HERMITIAN:
        assert np.abs(vals.imag).max() == 0.0
        assert np.abs(vals.real - np.linalg.eigvalsh(op.entries)).max() <= 1e-10
    else:
        dense = np.linalg.eigvals(op.entries)
        cost = np.abs(vals[:, None] - dense[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-10
        # ordering rule: a level ends where sorted real parts jump by more than the gap;
        # levels ascend, and inside a level the imaginary parts ascend
        real = np.sort(vals.real)
        starts = real[1:][np.diff(real) > LEVEL_GAP * np.abs(vals).max()]
        step = np.diff(np.searchsorted(starts, vals.real, side="right"))
        assert np.all(step >= 0)
        assert np.all(np.diff(vals.imag)[step == 0] >= 0)
    assert spectrum.residual_norms.max() <= 1e-10


@st.composite
def _near_closed_spectra(draw):
    """(values, closed): real values and conjugate pairs drawn from a few real and imaginary parts, so
    values repeat exactly, with ~1e-16 of imaginary noise; unless closed, one value then moves by 1e-8..1,
    along the imaginary axis or, for a member of a pair, along the real one."""
    drawn = draw(st.lists(st.tuples(st.sampled_from((-1.5, 0.0, 0.5, 2.0)), st.sampled_from((0.0, 0.25, 1.0))),
                          min_size=1, max_size=8))
    members = [(complex(re, sign * im), im != 0) for re, im in drawn for sign in ((1, -1) if im else (1,))]
    vals = np.array([v for v, _ in members])
    vals += 1j * np.array(draw(st.lists(st.floats(-1e-16, 1e-16), min_size=vals.size, max_size=vals.size)))
    closed = draw(st.booleans())
    if not closed:
        k = draw(st.integers(0, vals.size - 1))
        shift = 10.0 ** draw(st.floats(-8.0, 0.0))
        vals[k] += shift if members[k][1] and draw(st.booleans()) else 1j * shift
    return vals, closed


@settings(max_examples=300, deadline=None)
@given(case=_near_closed_spectra())
def test_level_order_closure_agrees_with_the_assignment_oracle(case):
    vals, closed = case
    cost = np.abs(vals[:, None] - vals.conj()[None, :])
    rows, cols = linear_sum_assignment(cost)
    oracle, got = cost[rows, cols].max(), conjugation_closure(vals)
    assert (got <= 1e-10) == (oracle <= 1e-10) == closed
    if closed:
        assert max(got, oracle) <= 1e-12


def test_converge_zero_coupling_stops_at_second_cutoff():
    params = ModelParams(omega=1.0, omega0=0.0, kappa=0.0)
    spectrum = converge_ground(build_full_jt, params, total_number_schedule((4, 6, 8)))
    assert spectrum.converged
    assert [c for c, _ in spectrum.cutoff_history] == [4, 6]
    assert spectrum.cutoff_history[0][1] == pytest.approx(1.0)


def test_converge_history_is_monotone_nonincreasing():
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.5))
    spectrum = converge_ground(
        build_full_jt, params, total_number_schedule((4, 6, 8, 10, 12)), tol=0.0
    )
    energies = [e for _, e in spectrum.cutoff_history]
    assert len(energies) == 5  # tol 0 never triggers early stop
    assert not spectrum.converged
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_converge_flags_exhausted_schedule():
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.9))
    spectrum = converge_ground(build_full_jt, params, total_number_schedule((2, 3)), tol=1e-12)
    assert not spectrum.converged
    assert len(spectrum.cutoff_history) == 2


def test_converge_rejects_bad_schedules():
    params = ModelParams(omega=1.0)
    with pytest.raises(ValueError):
        converge_ground(build_full_jt, params, [])
    with pytest.raises(ValueError, match="two or more cutoffs, got 1"):
        converge_ground(build_full_jt, params, total_number_schedule((10,)))
    with pytest.raises(ValueError):
        converge_ground(build_full_jt, params, total_number_schedule((8, 4)))


def test_rwa_level_validation():
    with pytest.raises(ValueError):
        RwaLevel(-1, 0, Branch.PLUS)
    with pytest.raises(ValueError):
        RwaLevel(1, 3, Branch.PLUS)
    RwaLevel(1, 2, Branch.MINUS)


def test_rwa_energy_zero_coupling_doublet():
    params = ModelParams(omega=1.0, omega0=0.0, kappa=0.0)
    assert rwa_energy(RwaLevel(0, 0, Branch.PLUS), params) == pytest.approx(1.5)
    assert rwa_energy(RwaLevel(0, 0, Branch.MINUS), params) == pytest.approx(0.5)


def test_rwa_energy_reference_value():
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.1))
    value = rwa_energy(RwaLevel(0, 0, Branch.MINUS), params)
    assert value == pytest.approx(1.0 - 0.5 * np.sqrt(1.8), abs=1e-12)
    assert value == pytest.approx(0.329180, abs=1e-6)


def test_rwa_energy_branches_sum_to_twice_prefactor():
    params = ModelParams(omega=1.2, omega0=0.3, kappa=0.4)
    for j, n in ((0, 0), (2, 3)):
        total = rwa_energy(RwaLevel(j, n, Branch.PLUS), params) + rwa_energy(
            RwaLevel(j, n, Branch.MINUS), params
        )
        assert total == pytest.approx(2 * (j + 1) * 1.2)


def test_rwa_energy_requires_real_coupling():
    with pytest.raises(ValueError):
        rwa_energy(RwaLevel(0, 0, Branch.PLUS), ModelParams(omega=1.0, kappa=0.3j))


def test_enumerated_levels_are_sorted_and_ladder_is_distinct():
    # the levels are enumerated and sorted by the brute-force oracle, over every shell j <= 400
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.1))
    ladder = rwa_level_ladder(params, 3)
    assert ladder == _brute_force_ladder(params, 3)
    assert len(ladder) == 3
    assert all(b > a + 1e-6 for a, b in zip(ladder, ladder[1:]))
    assert ladder[0] == pytest.approx(0.329180, abs=1e-6)


def _brute_force_ladder(params, count, j_max=400):
    # every level with j <= j_max, by rwa_energy's formula, sorted, then the same greedy degeneracy merge
    j = np.repeat(np.arange(j_max + 1), 2 * np.arange(j_max + 1) + 1)
    n = np.concatenate([np.arange(2 * k + 1) for k in range(j_max + 1)])
    root = np.sqrt(8.0 * params.real_kappa() ** 2 * (n + 1) + (params.omega - 2.0 * params.omega0) ** 2)
    distinct = []
    for energy in np.sort(np.concatenate([(j + 1) * params.omega - 0.5 * root, (j + 1) * params.omega + 0.5 * root])):
        if not distinct or energy > distinct[-1] + 1e-6:
            distinct.append(float(energy))
    return distinct[:count]


@pytest.mark.parametrize("kappa2", [0.0, 0.1, 0.9, 6.0, 10.0, 25.0])
@pytest.mark.parametrize("omega0", [0.0, 0.2])
def test_level_ladder_is_the_lowest_of_every_shell(kappa2, omega0):
    # from kappa^2 ~ 6 on, the lowest levels lie in shells j > 6
    params = ModelParams(omega=1.0, omega0=omega0, kappa=np.sqrt(kappa2))
    assert rwa_level_ladder(params, 5) == _brute_force_ladder(params, 5)


def test_level_ladder_rejects_an_unresolvable_coupling():
    assert len(rwa_level_ladder(ModelParams(omega=1.0, kappa=1e5), 2)) == 2
    with pytest.raises(ValueError, match="kappa\\^2 / omega\\^2 <= 1e10"):
        rwa_level_ladder(ModelParams(omega=1.0, kappa=2e5), 2)


def test_block_solve_zero_coupling_is_trivial():
    sol = block_solve(1, 2, ModelParams(omega=1.0, omega0=0.2, kappa=0.0))
    assert sol.e_minus == pytest.approx(1.0 * 4 + 0.2)  # omega(n1+n2+1) + omega0
    assert sol.e_plus == pytest.approx(1.0 * 5 - 0.2)
    assert sol.coeff_minus == (1.0, 0.0)
    assert sol.coeff_plus == (0.0, 1.0)


def test_block_solve_takes_non_negative_occupations():
    with pytest.raises(ValueError, match="^occupation numbers must be non-negative$"):
        block_solve(-1, 0, ModelParams(omega=1.0, omega0=0.2, kappa=0.3))


def test_block_solve_at_a_negligible_coupling_gives_the_nearer_basis_state():
    # at kappa = 1e-20 the minus level is d1 = omega + omega0 to the last bit, and its coefficients (v, E - d1) fall
    # below 1e-14: the state is the basis state of the nearer diagonal entry, |up, 0, 0>
    sol = block_solve(0, 0, ModelParams(omega=1.0, omega0=0.3, kappa=1e-20))
    assert sol.e_minus == 1.3 and sol.coeff_minus == (1.0, 0.0)
    assert sol.e_plus == 1.7 and sol.coeff_plus[1] == 1.0


def test_block_eigenvalues_embed_in_rotated_spectrum():
    basis = make_basis(BasisSpec.per_mode(6, 3))
    params = ModelParams(omega=1.0, omega0=0.15, kappa=0.37)
    spectrum = diagonalize(build_rotated(params, basis))
    for n1 in range(5):
        for n2 in range(4):
            sol = block_solve(n1, n2, params)
            for energy in (sol.e_plus, sol.e_minus):
                assert np.abs(spectrum.eigenvalues - energy).min() <= 1e-10


def test_block_decomposition_accounts_for_entire_rotated_spectrum():
    # blocks (n1 < n1_max) + uncoupled |down,0,n2> + truncation-edge
    # |up,n1_max,n2> states reproduce the full spectrum as a multiset
    n1_max, n2_max = 5, 3
    basis = make_basis(BasisSpec.per_mode(n1_max, n2_max))
    omega, omega0 = 1.0, 0.15
    params = ModelParams(omega=omega, omega0=omega0, kappa=0.37)
    full = np.sort(diagonalize(build_rotated(params, basis)).eigenvalues.real)

    levels = []
    for n2 in range(n2_max + 1):
        levels.append(omega * (n2 + 1) - omega0)  # uncoupled spin-down vacuum chain
        levels.append(omega * (n1_max + n2 + 1) + omega0)  # orphaned edge states
        for n1 in range(n1_max):
            sol = block_solve(n1, n2, params)
            levels += [sol.e_plus.real, sol.e_minus.real]
    assert len(levels) == basis.dimension
    assert np.abs(np.sort(levels) - full).max() <= 1e-10


def test_assembled_block_eigenvector_residual():
    basis = make_basis(BasisSpec.per_mode(6, 3))
    params = ModelParams(omega=1.0, omega0=0.15, kappa=0.37)
    h = build_rotated(params, basis).entries
    for n1, n2 in ((0, 0), (2, 1), (4, 3)):
        sol = block_solve(n1, n2, params)
        for energy, (c1, c2) in (
            (sol.e_plus, sol.coeff_plus),
            (sol.e_minus, sol.coeff_minus),
        ):
            state = assemble_eigenstate(n1, n2, c1, c2, basis)
            assert np.linalg.norm(h @ state - energy * state) <= 1e-10


def test_block_mean_exceeds_closed_form_prefactor_by_half_quantum():
    # the 2x2 block is centered at (j + 3/2) omega while the closed-form
    # expression uses (j + 1) omega with the same discriminant; the offset
    # is deliberate and exposed by both evaluators
    params = ModelParams(omega=1.0, omega0=0.2, kappa=0.3)
    n1, n2 = 1, 2
    j = n1 + n2
    sol = block_solve(n1, n2, params)
    closed_sum = rwa_energy(RwaLevel(j, n1, Branch.PLUS), params) + rwa_energy(
        RwaLevel(j, n1, Branch.MINUS), params
    )
    assert (sol.e_plus + sol.e_minus).real == pytest.approx(closed_sum + params.omega)
    closed_gap = rwa_energy(RwaLevel(j, n1, Branch.PLUS), params) - rwa_energy(
        RwaLevel(j, n1, Branch.MINUS), params
    )
    assert (sol.e_plus - sol.e_minus).real == pytest.approx(closed_gap)


def test_block_reality_boundary_under_imaginary_coupling():
    # n1 = 0 block eigenvalues stay real up to gamma = 1/sqrt(8)
    below = block_solve(0, 0, ModelParams(omega=1.0, omega0=0.0, kappa=1j * 0.35))
    above = block_solve(0, 0, ModelParams(omega=1.0, omega0=0.0, kappa=1j * 0.36))
    edge = 1.0 / np.sqrt(8.0)
    assert 0.35 < edge < 0.36
    assert abs(below.e_plus.imag) <= 1e-12 and abs(below.e_minus.imag) <= 1e-12
    assert abs(above.e_plus.imag) > 1e-3
    assert above.e_plus == pytest.approx(np.conj(above.e_minus))


def test_assemble_trivial_state_is_basis_vector():
    basis = make_basis(BasisSpec.per_mode(3, 3))
    state = assemble_eigenstate(0, 0, 1.0, 0.0, basis)
    expected = np.zeros(basis.dimension)
    expected[basis.index(SPIN_UP, 0, 0)] = 1.0
    assert np.array_equal(state, expected)


def test_assemble_normalization():
    basis = make_basis(BasisSpec.per_mode(3, 3))
    c1, c2 = 0.6, 0.8
    state = assemble_eigenstate(1, 2, c1, c2, basis)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="normalized|c1"):
        assemble_eigenstate(1, 2, 1.0, 1.0, basis)


def test_assemble_matches_monomial_construction():
    # same state built by powers of creation operators on the vacuum
    basis = make_basis(BasisSpec.per_mode(4, 4))
    _, a1d = boson_ops(basis, 1)
    _, a2d = boson_ops(basis, 2)
    c1, c2 = 1.0 / np.sqrt(2), 1.0j / np.sqrt(2)
    n1, n2 = 2, 1
    up = np.zeros(basis.dimension, dtype=complex)
    up[basis.index(SPIN_UP, 0, 0)] = 1.0
    down = np.zeros(basis.dimension, dtype=complex)
    down[basis.index(SPIN_DOWN, 0, 0)] = 1.0
    pow1 = np.linalg.matrix_power(a1d.entries, n1)
    pow1_next = np.linalg.matrix_power(a1d.entries, n1 + 1)
    pow2 = np.linalg.matrix_power(a2d.entries, n2)
    top = pow2 @ pow1 @ up
    bottom = pow2 @ pow1_next @ down
    expected = c1 * top / np.linalg.norm(top) + c2 * bottom / np.linalg.norm(bottom)
    state = assemble_eigenstate(n1, n2, c1, c2, basis)
    assert np.abs(state - expected).max() <= 1e-14


def test_assemble_rejects_out_of_cutoff_components():
    basis = make_basis(BasisSpec.per_mode(2, 2))
    with pytest.raises(ValueError, match="cutoff"):
        assemble_eigenstate(2, 0, 1.0, 0.0, basis)  # needs n1+1 = 3
    total = make_basis(BasisSpec.total_number(3))
    with pytest.raises(ValueError, match="cutoff"):
        assemble_eigenstate(2, 1, 1.0, 0.0, total)  # needs n1+1+n2 = 4


def test_benchmark_fit_reference_points():
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.5))
    assert benchmark_rwa_energy(0, params) == pytest.approx(2 - np.sqrt(2), abs=1e-12)
    assert benchmark_rwa_energy(0, params) == pytest.approx(0.58578, abs=1e-4)
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.2))
    assert benchmark_rwa_energy(1, params) == pytest.approx(3 - np.sqrt(1.6), abs=1e-12)
    assert benchmark_rwa_energy(1, params) == pytest.approx(1.73508, abs=1e-4)


def test_benchmark_fit_zero_coupling():
    params = ModelParams(omega=1.3, omega0=0.0, kappa=0.0)
    assert benchmark_rwa_energy(0, params) == pytest.approx(1.3)
    assert benchmark_rwa_energy(1, params) == pytest.approx(2.6)
    with pytest.raises(ValueError):
        benchmark_rwa_energy(2, params)


def test_closed_form_and_fit_disagree_at_small_quantum_numbers():
    # the two RWA evaluators are genuinely different; both are reported
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.1))
    closed = rwa_level_ladder(params, 1)[0]
    fit = benchmark_rwa_energy(0, params)
    assert fit == pytest.approx(0.90455, abs=1e-4)
    assert closed == pytest.approx(0.329180, abs=1e-6)
    assert abs(closed - fit) > 0.5


@pytest.mark.parametrize("hint", [Hermiticity.HERMITIAN, Hermiticity.ANTI_HERMITIAN])
def test_blockwise_hint_deviation_equals_validate(hint):
    # diagonalize (Hermitian hint) and conjugate (anti-Hermitian generator) read op.blocks() and reject
    # a matrix exactly when validate() does; none of them builds the operator's dense view
    basis = make_basis(BasisSpec.per_mode(3, 2))
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    scattered = np.where(rng.random((24, 24)) < 0.05, dense, 0.0)
    h = build_full_jt(ModelParams(omega=1.0, omega0=0.2, kappa=0.3 + 0.1j), basis).entries
    hermitian = build_full_jt(ModelParams(omega=1.0, omega0=0.2, kappa=0.3), basis).entries
    in_pattern = np.where(h != 0, dense, 0.0)
    nan = np.where(np.arange(24) == 3, np.nan, 1.0) * np.eye(24)
    phase = 1.0 if hint is Hermiticity.HERMITIAN else 1j
    matrices = [dense, scattered, h, hermitian, hermitian + 1e-14 * in_pattern, hermitian + 1e-9 * in_pattern,
                np.zeros((24, 24)), nan]
    for m in (phase * m for m in matrices):
        op = dense_op(basis, m, hint)
        if hint is Hermiticity.HERMITIAN:
            def consume():
                assert np.abs(diagonalize(op).eigenvalues.real - np.linalg.eigvalsh(m)).max() <= 1e-12
        else:
            def consume():
                conjugate(op, diagonal_op(basis, np.ones(basis.dimension)))
        try:
            op.validate()
        except ValueError as failure:
            with pytest.raises(ValueError) as blockwise:
                consume()
            if hint is Hermiticity.HERMITIAN:
                assert str(blockwise.value) == str(failure)
            else:
                assert "anti-hermitian" in str(blockwise.value)
        else:
            consume()
        assert "entries" not in vars(op)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(sorted(BUILDERS)),
    coupling=st.sampled_from([0.0, 0.37]) | st.floats(0.0, 1.0),
    total=st.booleans(),
    cutoff=st.integers(1, 8),
    second_cutoff=st.integers(1, 8),
)
def test_blocks_partition_the_basis_and_scatter_back_to_the_entries(model, coupling, total, cutoff, second_cutoff):
    spec = BasisSpec.total_number(cutoff) if total else BasisSpec.per_mode(cutoff, second_cutoff)
    basis = make_basis(spec)
    op = BUILDERS[model](ModelParams(omega=1.1, omega0=0.15, kappa=coupling, gamma=coupling), basis)
    scattered = np.zeros((basis.dimension,) * 2, dtype=complex)
    members_seen, sizes = [], []
    for members, stack in op.blocks():
        assert stack.shape == (*members.shape, members.shape[1])
        scattered[members[:, :, None], members[:, None, :]] = stack
        members_seen.append(members.ravel())
        sizes.append(members.shape[1])
    assert sizes == sorted(set(sizes))  # one stack per block size, ascending
    assert np.array_equal(np.sort(np.concatenate(members_seen)), np.arange(basis.dimension))
    assert "entries" not in vars(op)
    assert np.array_equal(scattered, op.entries)


@pytest.mark.parametrize("model", sorted(BUILDERS))
def test_blockwise_residuals_match_the_dense_formula(model):
    basis = make_basis(BasisSpec.total_number(8))
    for omega0 in (0.15, 0.0):  # at 0, full solves one block of each twin pair and places the twin's eigenpairs too
        op = BUILDERS[model](ModelParams(omega=1.0, omega0=omega0, kappa=0.45, gamma=0.2), basis)
        spectrum = diagonalize(op, want_vectors=True)
        vals, vecs = spectrum.eigenvalues, spectrum.eigenvectors
        dense = np.linalg.norm(op.entries @ vecs - vecs * vals, axis=0)
        assert np.abs(spectrum.residual_norms - dense).max() <= 1e-12
        if op.hint is Hermiticity.HERMITIAN:
            assert np.abs(vecs.conj().T @ vecs - np.eye(op.dimension)).max() <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    model=st.sampled_from(sorted(MODELS)),
    total=st.booleans(),
    cutoff=st.integers(1, 10),
    coupling=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    omega0=st.sampled_from((-0.3, 0.0, 0.2)),
    k=st.integers(1, 3),
)
# a block bounded at 3.0000000000000004 whose eigvalsh gives 2.9999999999999996, below the third level 3.0 found
@example(model="full", total=False, cutoff=3, coupling=8.512565837716455e-184, omega0=0.0, k=3)
def test_levels_spectrum_holds_the_lowest_levels_of_the_full_one(model, total, cutoff, coupling, omega0, k):
    # the full spectrum is the oracle: its k lowest distinct levels come out exactly, and with them every
    # eigenvalue whose real part lies at or below the k-th
    params = ModelParams(omega=1.0, omega0=omega0, kappa=coupling, gamma=coupling)
    spec = BasisSpec.total_number(cutoff) if total else BasisSpec.per_mode(cutoff, cutoff + 1)
    op = MODELS[model](params, make_basis(spec))
    full, part = diagonalize(op), diagonalize(op, levels=k)
    found = part.lowest_levels(k)
    assert found == full.lowest_levels(k)
    assert np.isin(full.eigenvalues[full.eigenvalues.real <= found[-1]], part.eigenvalues).all()
    assert np.array_equal(part.eigenvalues, part.eigenvalues[level_order(part.eigenvalues)])


def test_levels_keep_the_hint_check():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    m = np.zeros((8, 8))
    m[0, 1] = 1.0
    lying = dense_op(basis, m, Hermiticity.HERMITIAN)
    with pytest.raises(ValueError, match=r"^matrix violates hermitian hint: deviation 1\.000e\+00 > 1\.0e-12$"):
        diagonalize(lying, levels=1)


def test_levels_take_a_positive_count_and_no_vectors():
    op = build_full_jt(ModelParams(omega=1.0, kappa=0.5), make_basis(BasisSpec.total_number(4)))
    for kwargs in ({"levels": 0}, {"levels": 2, "want_vectors": True}):
        with pytest.raises(ValueError, match="levels takes a count >= 1 and no eigenvectors"):
            diagonalize(op, **kwargs)


def _count_solved(monkeypatch):
    """The number of states that diagonalize hands to the stacked LAPACK solvers (with or without vectors) from here
    on, as a list to sum."""
    solved = []

    def counting(solve):
        def counted(stack):
            solved.append(stack.shape[0] * stack.shape[1])
            return solve(stack)
        return counted

    for name in ("eigvalsh", "eigvals", "eigh", "eig"):
        monkeypatch.setattr(spectra.np.linalg, name, counting(getattr(np.linalg, name)))
    return solved


def test_converge_ground_solves_only_the_blocks_of_the_low_levels(monkeypatch):
    # the lowest levels sit in the J = +-1/2 and +-3/2 chains: 124 of the 132 + 462 states at N = 10 and 20, and at
    # omega0 = 0 one chain of each twin pair is solved for both
    solved = _count_solved(monkeypatch)
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.9))
    spectrum = converge_ground(build_full_jt, params, total_number_schedule((10, 20, 30, 40)), levels=2)
    assert [c for c, _ in spectrum.cutoff_history] == [10, 20]
    assert 0 < sum(solved) <= 150
    assert sum(solved) == 62


@pytest.mark.parametrize("spec, omega0, solved_states", [
    (BasisSpec.total_number(40), 0.0, 861),  # J and -J: one block of each twin pair
    (BasisSpec.total_number(40), 0.2, 1722),  # omega0 sigma0 breaks the mode swap with the spin flip
    (BasisSpec.per_mode(6, 7), 0.0, 112),  # the swap leaves a basis of unequal cutoffs
])
def test_twin_blocks_are_solved_once(monkeypatch, spec, omega0, solved_states):
    op = build_full_jt(ModelParams(omega=1.0, omega0=omega0, kappa=np.sqrt(0.37)), make_basis(spec))
    solved = _count_solved(monkeypatch)
    for want_vectors in (False, True):  # eigh is handed the blocks that eigvalsh is, and a twin takes its eigenpairs
        solved.clear()
        spectrum = diagonalize(op, want_vectors=want_vectors)
        assert sum(solved) == solved_states
        assert spectrum.eigenvalues.size == op.dimension
    assert spectrum.residual_norms.max() <= 1e-12
    assert (op.twins() is not None) == (solved_states < op.dimension)


def test_nonhermitian_2x2_blocks_are_solved_in_closed_form(monkeypatch):
    # at total cutoff 30 the imaginary-coupling model is 465 2x2 blocks and 62 1x1 blocks: none reaches LAPACK
    op = build_nonhermitian(ModelParams(omega=1.0, omega0=0.1, gamma=0.3), make_basis(BasisSpec.total_number(30)))
    handed, eigvals = [], np.linalg.eigvals

    def recording(stack):
        handed.append(stack.shape)
        return eigvals(stack)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    vals = diagonalize(op).eigenvalues
    assert handed == []
    dense = eigvals(op.entries)
    cost = np.abs(vals[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12 * np.abs(dense).max()


def _blocks_calls(monkeypatch):
    """The `chosen` argument of every OperatorMatrix.blocks call from here on."""
    calls, blocks = [], OperatorMatrix.blocks

    def recorded(self, chosen=None):
        calls.append(chosen)
        return blocks(self, chosen)

    monkeypatch.setattr(OperatorMatrix, "blocks", recorded)
    return calls


def _representatives(twins):
    """Per block, the lower-positioned of it and its twin: the block of its pair that diagonalize solves."""
    return np.minimum(np.arange(twins.twin.size), twins.twin)


def _block_j(op):
    """J = n1 - n2 + sigma0/2 of every block, in the order blocks() gives them, and the block sizes."""
    basis, first = op.basis, [m for members, _ in op.blocks() for m in members]
    return [basis.n1[m[0]] - basis.n2[m[0]] + basis.spin[m[0]] / 2 for m in first], [len(m) for m in first]


@pytest.mark.parametrize("cutoff", [10, 20])
@pytest.mark.parametrize("kappa2", TABLE1_KAPPA2)
def test_each_table_cutoff_is_one_round_of_the_two_lowest_twin_pairs(monkeypatch, cutoff, kappa2):
    # a round takes k twin pairs, each keyed by the lower of its two blocks' bounds: J = +-1/2 and +-3/2 at once
    op = build_full_jt(ModelParams(omega=1.0, omega0=0.0, kappa=float(np.sqrt(kappa2))),
                       make_basis(BasisSpec.total_number(cutoff)))
    (j, sizes), twins, (bounds, _) = _block_j(op), op.twins(), op.block_bounds()
    representatives, key = _representatives(twins), {}
    for block, representative in enumerate(representatives):
        key[representative] = min(key.get(representative, np.inf), bounds[block])
    calls = _blocks_calls(monkeypatch)
    spectrum = diagonalize(op, levels=2)
    assert len(calls) == 1
    chosen, = calls
    assert list(chosen) == sorted(key, key=key.get)[:2]  # representatives only: each pair is solved once
    held = np.flatnonzero(np.isin(representatives, chosen))
    assert sorted(j[b] for b in held) == [-1.5, -0.5, 0.5, 1.5]
    assert spectrum.eigenvalues.size == sum(sizes[b] for b in held)


@pytest.mark.parametrize("representative", [True, False])
def test_a_twin_pair_is_keyed_by_the_lower_of_its_blocks_bounds(monkeypatch, representative):
    # either block of the J = +-9/2 pair bounded far below the rest puts the pair in the first round, solved whole
    op = build_full_jt(ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.9)), make_basis(BasisSpec.total_number(10)))
    (j, sizes), representatives, (bounds, radius) = _block_j(op), _representatives(op.twins()), op.block_bounds()
    pair = [j.index(4.5), j.index(-4.5)]
    lowered = next(b for b in pair if (representatives[b] == b) == representative)
    bounds[lowered] = -1e3  # still a lower bound
    monkeypatch.setattr(OperatorMatrix, "block_bounds", lambda self: (bounds.copy(), radius))
    calls = _blocks_calls(monkeypatch)
    spectrum = diagonalize(op, levels=2)
    assert representatives[lowered] in calls[0]
    assert all(np.array_equal(representatives[chosen], chosen) for chosen in calls)
    held = np.flatnonzero(np.isin(representatives, np.concatenate(calls)))
    assert spectrum.eigenvalues.size == sum(sizes[b] for b in held)
    assert spectrum.lowest_levels(2) == diagonalize(op).lowest_levels(2)


def _twin_oracle(op):
    # every block of op.blocks() solved as diagonalize solves a stack, then each twin given its representative's
    # eigenvalues, as twins() pairs them; with no pairing, every block's own
    per_block = []
    for members, stack in op.blocks():
        per_block += list(_solved(members, stack, op.hint is Hermiticity.HERMITIAN))
    twins = op.twins()
    if twins is not None:
        per_block = [per_block[r] for r in _representatives(twins)]
    vals = np.concatenate(per_block)
    return vals[level_order(vals)]


@settings(max_examples=80, deadline=None)
@given(
    model=st.just("full") | st.sampled_from(sorted(MODELS)),  # the one model that pairs, more often
    total=st.booleans(),
    cutoff=st.integers(1, 9),
    second_cutoff=st.none() | st.integers(1, 9),  # None: equal cutoffs
    omega0=st.sampled_from((0.0, 0.2)),
    magnitude=st.sampled_from((0.0, 0.37)) | st.floats(0.0, 1.5),
    phase=st.sampled_from((0.0, 0.7)),
)
def test_paired_spectra_match_the_dense_oracle_and_each_twin_is_its_representative(
    model, total, cutoff, second_cutoff, omega0, magnitude, phase
):
    # a complex coupling of a generic phase keeps the complex-symmetric blocks away from their exceptional points
    kappa = magnitude * np.exp(1j * phase) if phase else magnitude
    spec = BasisSpec.total_number(cutoff) if total else BasisSpec.per_mode(cutoff, second_cutoff or cutoff)
    op = MODELS[model](ModelParams(omega=1.0, omega0=omega0, kappa=kappa, gamma=magnitude), make_basis(spec))
    twins = op.twins()
    assert (twins is not None) == (model == "full" and omega0 == 0.0 and spec.n_max_1 == spec.n_max_2)
    vals = diagonalize(op).eigenvalues
    dense = _dense_pattern_eigenvalues(op)
    cost = np.abs(vals[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12 * max(1.0, np.abs(dense).max())
    assert np.array_equal(vals, _twin_oracle(op))  # bit for bit: a twin holds its representative's eigenvalues
    if twins is None:
        return
    assert np.array_equal(twins.state[twins.state], np.arange(op.dimension))
    # the same pattern with one diagonal value one ulp off its Theta-partner's is not paired
    values = op.triplets[2].copy()
    k = np.flatnonzero(op.triplets[0] == op.triplets[1])[cutoff % 3]
    values[k] = np.nextafter(values[k].real, np.inf) + 1j * values[k].imag
    broken = op.with_values(values, op.hint)
    assert broken.twins() is None
    assert np.array_equal(diagonalize(broken).eigenvalues, _twin_oracle(broken))


def test_converge_ground_gates_every_level():
    # at kappa^2 = 2 the ground energy moves 6.1e-8 from N = 10 to 20, the first excited level 4.6e-7
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(2.0))
    schedule = total_number_schedule((10, 20, 30, 40))
    ground = converge_ground(build_full_jt, params, schedule, tol=1e-7, levels=1)
    both = converge_ground(build_full_jt, params, schedule, tol=1e-7, levels=2)
    assert [c for c, _ in ground.cutoff_history] == [10, 20]
    assert [c for c, _ in both.cutoff_history] == [10, 20, 30]
    assert ground.converged and both.converged
    assert both.cutoff_history[:2] == ground.cutoff_history


def test_a_spectrum_of_its_lowest_levels_answers_for_those_only():
    # the excited level of a levels=1 spectrum may lie in a block it never solved
    params = ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.9))
    schedule = total_number_schedule((10, 20, 30, 40))
    ground = converge_ground(build_full_jt, params, schedule, levels=1)
    with pytest.raises(ValueError, match="holds its 1 lowest levels only, not 2"):
        ground.first_excited_energy()
    every = converge_ground(build_full_jt, params, schedule)
    assert every.levels is None and every.eigenvalues.size == 462
    assert converge_ground(build_full_jt, params, schedule, levels=2).first_excited_energy() == (
        every.first_excited_energy())


def test_a_chosen_block_layout_is_found_once_per_set_and_the_cache_is_bounded(monkeypatch):
    # a table1 row asks for the same twin pairs at every call on a basis: the layout of a chosen set is kept with the
    # pattern, and a pattern keeps at most LAYOUTS of them
    from jtrwa import fockspace

    found, chosen = [], fockspace._Plan.chosen

    def counting(plan, blocks):
        found.append(blocks.tolist())
        return chosen(plan, blocks)

    monkeypatch.setattr(fockspace._Plan, "chosen", counting)
    basis, params = make_basis(BasisSpec.total_number(12)), ModelParams(omega=1.0, omega0=0.0, kappa=np.sqrt(0.7))
    first = diagonalize(build_full_jt(params, basis), levels=2)
    calls = len(found)
    again = diagonalize(build_full_jt(params, basis), levels=2)
    assert calls >= 1 and len(found) == calls
    assert np.array_equal(first.eigenvalues, again.eigenvalues)
    op = build_full_jt(params, basis)
    for b in range(2 * fockspace.LAYOUTS):
        list(op.blocks(np.array([b % op.block_bounds()[0].size])))
    assert len(op._plan.found) <= fockspace.LAYOUTS


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.floats(-5, 5), st.sampled_from([0.0, -0.0, 1e-7, 2e-7])), max_size=12),
       st.booleans(), st.integers(1, 5))
def test_lowest_levels_of_sorted_real_parts_skip_the_sort_and_agree(real, presorted, count):
    # real parts already non-decreasing (every Hermitian Spectrum's) are read as they are; any others are sorted
    real = np.sort(real) if presorted else np.array(real, dtype=float)
    want = [float(v) for v in spectra.lowest_levels(np.sort(real), count)]
    with pytest.MonkeyPatch.context() as patch:
        if np.all(real[:-1] <= real[1:]):
            patch.setattr(spectra.np, "sort", lambda *_args, **_kwargs: pytest.fail("sorted again"))
        assert spectra.lowest_levels(real, count) == want
