import numpy as np
import pytest
from dense import dense_op, subtract
from hypothesis import given, settings, strategies as st

from jtrwa import (
    BasisSpec,
    Hermiticity,
    ModelParams,
    OperatorMatrix,
    SPIN_DOWN,
    SPIN_UP,
    Truncation,
    boson_ops,
    build_full_jt,
    conserved_excitation_op,
    diagonalize,
    interior_projector,
    make_basis,
    parity_op,
    pauli_ops,
)
from jtrwa.fockspace import HINT_TOL, ElementaryOps, diagonal_op, elementary_ops


def test_per_mode_dimension():
    assert make_basis(BasisSpec.per_mode(1, 1)).dimension == 8


def test_total_number_dimension():
    assert make_basis(BasisSpec.total_number(2)).dimension == 12


@pytest.mark.parametrize("spec", [BasisSpec.per_mode(3, 2), BasisSpec.total_number(4)])
def test_one_basis_per_spec_is_built_and_shared_read_only(spec):
    basis = make_basis(spec)
    assert make_basis(spec) is basis
    assert make_basis(BasisSpec(spec.truncation, spec.n_max_1, spec.n_max_2)) is basis  # an equal spec, not the same
    for array in (basis.spin, basis.n1, basis.n2):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize(
    "spec", [BasisSpec.per_mode(3, 2), BasisSpec.total_number(4)]
)
def test_index_roundtrip_is_bijection(spec):
    basis = make_basis(spec)
    seen = set()
    for k, state in enumerate(zip(basis.spin, basis.n1, basis.n2)):
        assert basis.index(*state) == k
        assert basis.contains(*state)
        seen.add(state)
    assert len(seen) == basis.dimension == spec.dimension
    assert np.array_equal(basis.index(basis.spin, basis.n1, basis.n2), np.arange(basis.dimension))


def test_ordering_is_spin_major_then_lexicographic():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    assert _states(basis) == (
        (SPIN_UP, 0, 0), (SPIN_UP, 0, 1), (SPIN_UP, 1, 0), (SPIN_UP, 1, 1),
        (SPIN_DOWN, 0, 0), (SPIN_DOWN, 0, 1), (SPIN_DOWN, 1, 0), (SPIN_DOWN, 1, 1),
    )


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_invalid_cutoff_rejected(bad):
    with pytest.raises(ValueError):
        BasisSpec.per_mode(bad, 1)
    with pytest.raises(ValueError):
        BasisSpec(BasisSpec.per_mode(1, 1).truncation, 1, bad)


def test_index_outside_basis_rejected():
    cases = [(BasisSpec.per_mode(1, 1), (SPIN_UP, 2, 0)), (BasisSpec.per_mode(1, 2), (SPIN_DOWN, 0, 3)),
             (BasisSpec.per_mode(1, 1), (SPIN_UP, -1, 0)), (BasisSpec.per_mode(1, 1), (0, 0, 0)),
             (BasisSpec.total_number(3), (SPIN_DOWN, 2, 2)), (BasisSpec.total_number(3), (SPIN_UP, 0, -1))]
    for spec, state in cases:
        basis = make_basis(spec)
        with pytest.raises(ValueError, match=r"state \(s=-?\d, n1=-?\d, n2=-?\d\) outside basis"):
            basis.index(*state)
        assert not basis.contains(*state)
        with pytest.raises(ValueError):  # one state outside fails an array lookup
            basis.index(np.array([SPIN_UP, state[0]]), np.array([0, state[1]]), np.array([0, state[2]]))


def test_annihilation_matrix_element():
    basis = make_basis(BasisSpec.per_mode(2, 2))
    a1, _ = boson_ops(basis, 1)
    row = basis.index(SPIN_UP, 0, 0)
    col = basis.index(SPIN_UP, 1, 0)
    assert a1.entries[row, col] == 1.0


@pytest.mark.parametrize(
    "spec", [BasisSpec.per_mode(4, 3), BasisSpec.per_mode(2, 5), BasisSpec.total_number(6)]
)
def test_elementary_operators_match_state_by_state_fill(spec):
    # reference: fill each matrix element through the basis index map
    basis = make_basis(spec)
    dim = basis.dimension
    a1, a2, sp, s0 = (np.zeros((dim, dim), dtype=complex) for _ in range(4))
    for k, (spin, n1, n2) in enumerate(zip(basis.spin, basis.n1, basis.n2)):
        s0[k, k] = spin
        if n1 >= 1:
            a1[basis.index(spin, n1 - 1, n2), k] = np.sqrt(n1)
        if n2 >= 1:
            a2[basis.index(spin, n1, n2 - 1), k] = np.sqrt(n2)
        if spin == SPIN_DOWN:
            sp[basis.index(SPIN_UP, n1, n2), k] = 1.0
    assert np.array_equal(boson_ops(basis, 1)[0].entries, a1)
    assert np.array_equal(boson_ops(basis, 2)[0].entries, a2)
    sigma_plus, _, sigma_0 = pauli_ops(basis)
    assert np.array_equal(sigma_plus.entries, sp)
    assert np.array_equal(sigma_0.entries, s0)


SPECS = st.one_of(
    st.builds(BasisSpec.per_mode, st.integers(1, 4), st.integers(1, 4)),
    st.builds(BasisSpec.total_number, st.integers(1, 5)),
)
WORDS = st.lists(st.sampled_from(ElementaryOps._fields), min_size=1, max_size=4)
SCALARS = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def _dense(term, dim):
    rows, cols, values = term.triplets()
    m = np.zeros((dim, dim), dtype=complex)
    m[rows, cols] = values
    return m


@settings(max_examples=60, deadline=None)
@given(spec=SPECS, words=st.lists(st.tuples(SCALARS, WORDS), min_size=1, max_size=3))
def test_term_algebra_equals_dense_products(spec, words):
    # sum of c * (f1 @ f2 @ ...): index chasing against dense products of the factors
    ops, dim = elementary_ops(make_basis(spec)), spec.dimension
    term = expected = None
    for scalar, word in words:
        factors = [getattr(ops, name) for name in word]
        product, dense = factors[0], _dense(factors[0], dim)
        for factor in factors[1:]:
            product, dense = product @ factor, dense @ _dense(factor, dim)
        term = scalar * product if term is None else term + scalar * product
        expected = scalar * dense if expected is None else expected + scalar * dense
    assert np.array_equal(_dense(term, dim), expected)
    rows, cols, _ = term.triplets()
    assert np.all(np.diff(rows * spec.dimension + cols) > 0)  # one entry per position, row-major


def test_creation_is_exact_adjoint():
    basis = make_basis(BasisSpec.total_number(3))
    for mode in (1, 2):
        a, a_dag = boson_ops(basis, mode)
        assert np.array_equal(a_dag.entries, a.entries.conj().T)


@pytest.mark.parametrize(
    "spec", [BasisSpec.per_mode(4, 3), BasisSpec.total_number(5)]
)
def test_interior_canonical_commutator(spec):
    basis = make_basis(spec)
    proj = interior_projector(basis, margin=1).entries
    eye = np.eye(basis.dimension)
    for mode in (1, 2):
        a, a_dag = boson_ops(basis, mode)
        comm = a.entries @ a_dag.entries - a_dag.entries @ a.entries
        assert np.abs(proj @ (comm - eye) @ proj).max() <= 1e-14


def test_distinct_modes_commute_exactly():
    basis = make_basis(BasisSpec.per_mode(3, 3))
    a1, _ = boson_ops(basis, 1)
    a2, a2_dag = boson_ops(basis, 2)
    assert np.abs(a1.entries @ a2_dag.entries - a2_dag.entries @ a1.entries).max() == 0.0
    assert np.abs(a1.entries @ a2.entries - a2.entries @ a1.entries).max() == 0.0


def test_tensor_locality_spin_vs_boson():
    basis = make_basis(BasisSpec.per_mode(3, 2))
    sp, sm, s0 = pauli_ops(basis)
    for mode in (1, 2):
        a, _ = boson_ops(basis, mode)
        for sigma in (sp, sm, s0):
            assert np.abs(a.entries @ sigma.entries - sigma.entries @ a.entries).max() <= 1e-14


def test_sigma0_conjugation_flips_ladder_sign():
    basis = make_basis(BasisSpec.per_mode(2, 2))
    sp, sm, s0 = pauli_ops(basis)
    s0_inv = np.linalg.inv(s0.entries)
    assert np.abs(s0.entries @ sp.entries @ s0_inv + sp.entries).max() <= 1e-14
    assert np.abs(s0.entries @ sm.entries @ s0_inv + sm.entries).max() <= 1e-14


def test_spin_half_algebra():
    basis = make_basis(BasisSpec.per_mode(2, 2))
    sp, sm, s0 = pauli_ops(basis)
    eye = np.eye(basis.dimension)
    assert np.abs(sp.entries @ sm.entries + sm.entries @ sp.entries - eye).max() <= 1e-14
    assert np.abs(s0.entries @ s0.entries - eye).max() <= 1e-14
    assert np.array_equal(sp.entries.conj().T, sm.entries)


def test_sigma0_eigenvalue_multiplicities():
    basis = make_basis(BasisSpec.total_number(3))
    _, _, s0 = pauli_ops(basis)
    vals = np.sort(np.linalg.eigvalsh(s0.entries))
    half = basis.dimension // 2
    assert np.allclose(vals[:half], -1.0)
    assert np.allclose(vals[half:], 1.0)


def test_hint_validation_catches_lies():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    m = np.zeros((8, 8))
    m[0, 1] = 1.0
    lying = dense_op(basis, m, Hermiticity.HERMITIAN)
    with pytest.raises(ValueError, match="hermitian"):
        lying.validate()
    diagonal_op(basis, np.ones(basis.dimension)).validate()


@pytest.mark.parametrize("hint", [Hermiticity.HERMITIAN, Hermiticity.ANTI_HERMITIAN])
def test_hint_deviation_equals_the_dense_formula(hint):
    basis = make_basis(BasisSpec.per_mode(3, 2))
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    sparse_entries = np.where(rng.random((24, 24)) < 0.1, dense, 0.0)
    hermitian = 0.5 * (dense + dense.conj().T)
    anti = 0.5 * (dense - dense.conj().T)
    near = (hermitian if hint is Hermiticity.HERMITIAN else anti) + 1e-14 * sparse_entries
    for m in (dense, sparse_entries, hermitian, anti, near, np.zeros((24, 24))):
        if hint is Hermiticity.HERMITIAN:
            reference = np.abs(m - m.conj().T).max()
        else:
            reference = np.abs(m + m.conj().T).max()
        op = dense_op(basis, m, hint)
        if reference > 1e-12:
            message = f"matrix violates {hint.value} hint: deviation {reference:.3e} > 1.0e-12"
            with pytest.raises(ValueError) as failure:
                op.validate()
            assert str(failure.value) == message
        else:
            assert op.validate() == reference


def test_with_values_keeps_the_positions_and_shares_the_blocks():
    basis = make_basis(BasisSpec.per_mode(3, 2))
    rng = np.random.default_rng(13)
    pattern = dense_op(basis, np.where(rng.random((24, 24)) < 0.08, 1.0, 0.0))
    rows, cols, _ = pattern.triplets
    ops = []
    for scale in (0.0, 1.5):  # all zeros, then values on every position
        values = scale * (rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size))
        ops.append(pattern.with_values(values, Hermiticity.GENERAL))
        dense = np.zeros((24, 24), dtype=complex)
        dense[rows, cols] = values
        assert np.array_equal(ops[-1].entries, dense)
        scattered = np.zeros_like(dense)
        for members, stack in ops[-1].blocks():
            scattered[members[:, :, None], members[:, None, :]] = stack
        assert np.array_equal(scattered, dense)
    assert ops[0]._plan is ops[1]._plan is pattern._plan
    members = np.concatenate([members.ravel() for members, _ in ops[0].blocks()])
    assert np.array_equal(np.sort(members), np.arange(24))
    assert [r.tolist() for r in ops[0].triplets[:2]] == [rows.tolist(), cols.tolist()]


def test_entries_are_immutable():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    op = diagonal_op(basis, np.ones(basis.dimension))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 2.0


def test_from_triplets_is_the_only_constructor_and_keeps_only_the_triplets():
    # one storage form: the triplets are owned and made read-only; entries is rebuilt from them on first read
    basis = make_basis(BasisSpec.per_mode(2, 1))
    m = np.random.default_rng(5).normal(size=(12, 12)) * (np.arange(12) % 3 == 0)
    rows, cols = np.nonzero(m)
    op = OperatorMatrix.from_triplets(basis, rows, cols, m[rows, cols].astype(complex))
    assert "triplets" in vars(op) and "entries" not in vars(op)
    assert op.triplets[0] is rows and op.triplets[1] is cols
    assert not any(a.flags.writeable for a in op.triplets)
    assert np.array_equal(op.entries, m) and not op.entries.flags.writeable
    with pytest.raises(TypeError):
        OperatorMatrix(basis, m)  # the dense constructor is gone


def _random_sparse(basis, rng, density):
    m = rng.normal(size=(basis.dimension,) * 2) + 1j * rng.normal(size=(basis.dimension,) * 2)
    return m * (rng.random(m.shape) < density)


@pytest.mark.parametrize("case", ["overlapping", "disjoint", "cancelling"])
def test_difference_equals_the_dense_difference(case):
    basis = make_basis(BasisSpec.total_number(3))
    rng = np.random.default_rng(11)
    a = _random_sparse(basis, rng, 0.3)
    if case == "overlapping":
        b = _random_sparse(basis, rng, 0.3)
    elif case == "disjoint":
        b = _random_sparse(basis, rng, 1.0) * (a == 0)
    else:
        b = a * (rng.random(a.shape) < 0.5)  # a - b keeps half of a's entries, the others cancel exactly
    diff = subtract(dense_op(basis, a), dense_op(basis, b))
    rows, cols = np.nonzero(a - b)
    assert [t.tolist() for t in diff.triplets] == [rows.tolist(), cols.tolist(), (a - b)[rows, cols].tolist()]
    assert np.array_equal(diff.entries, a - b)


def test_grid_difference_is_the_difference_per_column():
    # a position is dropped only where every column of the difference is zero
    basis = make_basis(BasisSpec.total_number(3))
    rng = np.random.default_rng(17)
    a, b = (np.stack([_random_sparse(basis, rng, 0.3) for _ in range(3)], axis=-1) for _ in range(2))
    b[..., 1] = a[..., 1]  # column 1 cancels everywhere
    a[0, 0, :] = b[0, 0, :] = 1.0 + 2.0j  # position (0, 0) is held by both and cancels in every column
    grid_a, grid_b = (_grid_op(basis, m) for m in (a, b))
    diff = subtract(grid_a, grid_b)
    rows, cols = np.nonzero(np.any(a != b, axis=-1))
    assert [t.tolist() for t in diff.triplets[:2]] == [rows.tolist(), cols.tolist()]
    assert np.array_equal(diff.triplets[2], (a - b)[rows, cols])
    assert not diff.triplets[2][:, 1].any() and (0, 0) not in zip(rows.tolist(), cols.tolist())


def _grid_op(basis, stack):
    """The grid of operators stack[..., g] on the union of their nonzero positions, values (nnz, G)."""
    rows, cols = np.nonzero(np.any(stack != 0, axis=-1))
    return OperatorMatrix.from_triplets(basis, rows, cols, stack[rows, cols])


def test_difference_of_operators_on_different_bases_is_rejected():
    small, large = make_basis(BasisSpec.per_mode(1, 1)), make_basis(BasisSpec.per_mode(1, 2))
    with pytest.raises(ValueError, match="different bases"):
        subtract(diagonal_op(small, np.ones(small.dimension)), diagonal_op(large, np.ones(large.dimension)))


def _states(basis):
    return tuple(zip(basis.spin.tolist(), basis.n1.tolist(), basis.n2.tolist()))


def _nested_loop_states(spec):
    # oracle: the state-by-state enumeration of the canonical order
    states = []
    for spin in (SPIN_UP, SPIN_DOWN):
        for n1 in range(spec.n_max_1 + 1):
            n2_top = spec.n_max_2 - n1 if spec.truncation is Truncation.TOTAL_NUMBER else spec.n_max_2
            states.extend((spin, n1, n2) for n2 in range(n2_top + 1))
    return tuple(states)


@pytest.mark.parametrize(
    "spec",
    [BasisSpec.per_mode(1, 1), BasisSpec.per_mode(8, 3), BasisSpec.per_mode(3, 8),
     BasisSpec.total_number(1), BasisSpec.total_number(6), BasisSpec.total_number(12)],
)
def test_quantum_number_arrays_give_the_per_state_formulas(spec):
    basis = make_basis(spec)
    assert _states(basis) == _nested_loop_states(spec)
    for array in (basis.spin, basis.n1, basis.n2):
        with pytest.raises(ValueError):
            array[0] = 0

    def diagonal(formula):
        return np.diag([complex(formula(*state)) for state in _states(basis)])

    assert np.array_equal(parity_op(basis).entries, diagonal(lambda s, n1, n2: (-1.0) ** (n1 + n2)))
    assert np.array_equal(conserved_excitation_op(basis).entries, diagonal(lambda s, n1, n2: n1 - n2 + 0.5 * s))
    assert np.array_equal(pauli_ops(basis)[2].entries, diagonal(lambda s, n1, n2: s))
    for margin in (0, 1, 2):
        if spec.truncation is Truncation.TOTAL_NUMBER:
            expected = diagonal(lambda s, n1, n2: n1 + n2 <= spec.n_max_1 - margin)
        else:
            expected = diagonal(lambda s, n1, n2: n1 <= spec.n_max_1 - margin and n2 <= spec.n_max_2 - margin)
        assert np.array_equal(interior_projector(basis, margin).entries, expected)


def test_diagonalize_leaves_entries_unbuilt():
    # a builder hands over triplets; the sector solve scatters them into its blocks
    op = build_full_jt(ModelParams(omega=1.0, omega0=0.1, kappa=0.4), make_basis(BasisSpec.total_number(7)))
    diagonalize(op)
    assert "entries" not in vars(op)


def test_validate_leaves_entries_unbuilt():
    # the hint is checked on the blocks, which are scattered from the triplets
    op = build_full_jt(ModelParams(omega=1.0, omega0=0.1, kappa=0.4), make_basis(BasisSpec.total_number(7)))
    assert op.validate() == 0.0
    assert "entries" not in vars(op)


def _random_pattern(seed, density=0.08):
    basis = make_basis(BasisSpec.per_mode(3, 2))
    rng = np.random.default_rng(seed)
    return rng, dense_op(basis, np.where(rng.random((24, 24)) < density, 1.0, 0.0))


@pytest.mark.parametrize("seed", range(6))
def test_block_bounds_lie_below_every_eigenvalue_of_their_block(seed):
    # Gershgorin holds for any complex matrix
    rng, pattern = _random_pattern(seed, density=0.15)
    rows = pattern.triplets[0]
    op = pattern.with_values(rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size), Hermiticity.GENERAL)
    lowest = np.concatenate([np.linalg.eigvals(stack).real.min(axis=1) for _, stack in op.blocks()])
    assert np.all(op.block_bounds() <= lowest + 1e-12)


def test_block_bounds_of_a_diagonal_operator_are_its_entries_and_an_overflowing_radius_is_minus_infinity():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    diagonal = np.arange(8.0) - 3.0
    assert np.array_equal(np.sort(dense_op(basis, np.diag(diagonal)).block_bounds()), diagonal)
    m = np.diag(diagonal).astype(complex)
    m[0, 1] = m[0, 2] = 1e308 + 1e308j
    bounds = dense_op(basis, m).block_bounds()
    assert np.isneginf(bounds).sum() == 1 and np.isfinite(bounds).sum() == bounds.size - 1


@pytest.mark.parametrize("seed", range(4))
def test_chosen_blocks_are_the_blocks_at_those_positions(seed):
    rng, pattern = _random_pattern(seed)
    rows = pattern.triplets[0]
    op = pattern.with_values(rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size), Hermiticity.GENERAL)
    every = [(members[b], stack[b]) for members, stack in op.blocks() for b in range(len(members))]
    chosen = rng.choice(len(every), size=rng.integers(0, len(every) + 1), replace=False)
    got = [(members[b], stack[b]) for members, stack in op.blocks(chosen) for b in range(len(members))]
    expected = [every[b] for b in np.sort(chosen)]
    assert len(got) == len(expected)
    for (m1, s1), (m2, s2) in zip(got, expected):
        assert np.array_equal(m1, m2) and np.array_equal(s1, s2)
    assert len({m.shape[1] for m, _ in op.blocks(chosen)}) == len(list(op.blocks(chosen)))  # one stack per size


@pytest.mark.parametrize("hint", [Hermiticity.HERMITIAN, Hermiticity.ANTI_HERMITIAN])
def test_grid_hint_deviation_is_the_largest_of_its_columns(hint):
    rng, pattern = _random_pattern(5, density=0.2)
    rows, cols, _ = pattern.triplets
    sign = 1.0 if hint is Hermiticity.HERMITIAN else -1.0
    values = rng.normal(size=(rows.size, 4)) + 1j * rng.normal(size=(rows.size, 4))
    dense = np.zeros((24, 24, 4), dtype=complex)
    dense[rows, cols] = values
    dense = 0.5 * (dense + sign * dense.conj().transpose(1, 0, 2))  # (anti-)Hermitian, on a symmetric pattern
    off = np.flatnonzero(rows != cols)[0]
    dense[rows[off], cols[off], 2] += 1e-3  # one column lies
    symmetric = dense_op(pattern.basis, np.abs(dense).sum(axis=2))
    grid = symmetric.with_values(dense[symmetric.triplets[0], symmetric.triplets[1]], hint)
    columns = [symmetric.with_values(dense[symmetric.triplets[0], symmetric.triplets[1], g], hint) for g in range(4)]
    reference = max(np.abs(dense[..., g] - sign * dense[..., g].conj().T).max() for g in range(4))
    message = f"matrix violates {hint.value} hint: deviation {reference:.3e} > 1.0e-12"
    for op in [grid, columns[2]]:
        with pytest.raises(ValueError) as failure:
            op.validate()
        assert str(failure.value) == message
    assert max(columns[g].validate() for g in (0, 1, 3)) <= 1e-12


def _difference_deviation(op):
    """The hint check as validate() made it through difference(): the union difference m -/+ m^dagger, its all-zero
    positions dropped, then its largest |entry|; kept here as the oracle of the direct maximum."""
    values = op.triplets[2]
    sign = 1.0 if op.hint is Hermiticity.HERMITIAN else -1.0
    dev = np.abs(op.difference(values, sign * values.conj())).max(initial=0.0)
    if not dev <= HINT_TOL:
        return "raises", f"matrix violates {op.hint.value} hint: deviation {dev:.3e} > {HINT_TOL:.1e}"
    return "value", float(dev)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from((0.05, 0.3, 1.0)),
    noise=st.sampled_from((0.0, 1e-300, 1e-15, 1e-13, 1e-9, 1.0)),
    special=st.sampled_from((None, 0.0, -0.0, np.nan, np.inf, 1e308)),
    hint=st.sampled_from((Hermiticity.HERMITIAN, Hermiticity.ANTI_HERMITIAN)),
    columns=st.sampled_from((None, 1, 3)),
)
def test_validate_deviation_is_the_difference_formula_bit_for_bit(seed, density, noise, special, hint, columns):
    # the direct maximum over the paired entries covers the unpaired image entries (each as large as its own entry)
    # and needs neither the concatenation nor the drop of all-zero positions
    basis, rng = make_basis(BasisSpec.per_mode(2, 1)), np.random.default_rng(seed)
    dim, shape = basis.dimension, (basis.dimension,) * 2 + (() if columns is None else (columns,))
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = 0.5 * (m + (1.0 if hint is Hermiticity.HERMITIAN else -1.0) * np.swapaxes(m, 0, 1).conj())
    m = np.where(rng.random(shape[:2] + (1,) * (m.ndim - 2)) < density, m, 0.0)  # a pattern that need not be symmetric
    m = m + noise * (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (m != 0)
    rows, cols = np.nonzero(np.any(m != 0, axis=tuple(range(2, m.ndim))))
    values = m[rows, cols]
    if special is not None and rows.size:
        values[rng.integers(rows.size)] = special
    op = OperatorMatrix.from_triplets(basis, rows, cols, values, hint)
    with np.errstate(invalid="ignore", over="ignore"):  # inf and nan entries
        kind, answer = _difference_deviation(op)
        try:
            got = "value", op.validate()
        except ValueError as failure:
            got = "raises", str(failure)
    assert got[0] == kind and (got[1] == answer if kind == "raises" else np.float64(got[1]).tobytes() == np.float64(
        answer).tobytes())
