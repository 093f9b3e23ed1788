import numpy as np
import pytest
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
    identity_op,
    interior_projector,
    make_basis,
    parity_op,
    pauli_ops,
)
from jtrwa.fockspace import ElementaryOps, elementary_ops


def test_per_mode_dimension():
    assert make_basis(BasisSpec.per_mode(1, 1)).dimension == 8


def test_total_number_dimension():
    assert make_basis(BasisSpec.total_number(2)).dimension == 12


@pytest.mark.parametrize(
    "spec", [BasisSpec.per_mode(3, 2), BasisSpec.total_number(4)]
)
def test_index_roundtrip_is_bijection(spec):
    basis = make_basis(spec)
    seen = set()
    for k in range(basis.dimension):
        state = basis.states[k]
        assert basis.index(*state) == k
        seen.add(state)
    assert len(seen) == basis.dimension == spec.dimension


def test_ordering_is_spin_major_then_lexicographic():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    assert basis.states == (
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
    basis = make_basis(BasisSpec.per_mode(1, 1))
    with pytest.raises(ValueError):
        basis.index(SPIN_UP, 2, 0)


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
    for k, (spin, n1, n2) in enumerate(basis.states):
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


@settings(max_examples=60, deadline=None)
@given(spec=SPECS, words=st.lists(st.tuples(SCALARS, WORDS), min_size=1, max_size=3))
def test_term_algebra_equals_dense_products(spec, words):
    # sum of c * (f1 @ f2 @ ...): index chasing against dense products of the factors
    ops = elementary_ops(make_basis(spec))
    term = expected = None
    for scalar, word in words:
        factors = [getattr(ops, name) for name in word]
        product, dense = factors[0], factors[0].dense()
        for factor in factors[1:]:
            product, dense = product @ factor, dense @ factor.dense()
        term = scalar * product if term is None else term + scalar * product
        expected = scalar * dense if expected is None else expected + scalar * dense
    assert np.array_equal(term.dense(), expected)
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
    assert np.array_equal(sp.dagger().entries, sm.entries)


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
    lying = OperatorMatrix(basis, m, Hermiticity.HERMITIAN)
    with pytest.raises(ValueError, match="hermitian"):
        lying.validate()
    identity_op(basis).validate()


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
        op = OperatorMatrix(basis, m, hint)
        if reference > 1e-12:
            message = f"matrix violates {hint.value} hint: deviation {reference:.3e} > 1.0e-12"
            with pytest.raises(ValueError) as failure:
                op.validate()
            assert str(failure.value) == message
        else:
            assert op.validate() == reference


def test_entries_are_immutable():
    basis = make_basis(BasisSpec.per_mode(1, 1))
    op = identity_op(basis)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 2.0


def test_dense_construction_keeps_a_read_only_copy_as_entries():
    # a dense consumer reads back the array it built without a scan for nonzeros and a scatter
    basis = make_basis(BasisSpec.per_mode(2, 1))
    m = np.random.default_rng(5).normal(size=(12, 12)) * (np.arange(12) % 3 == 0)
    op = OperatorMatrix(basis, m)
    assert "entries" in vars(op) and "triplets" not in vars(op)
    assert np.array_equal(op.entries, m) and not op.entries.flags.writeable
    m[0, 0] += 1.0
    assert op.entries[0, 0] == m[0, 0] - 1.0
    rows, cols = np.nonzero(op.entries)
    assert [a.tolist() for a in op.triplets] == [rows.tolist(), cols.tolist(), op.entries[rows, cols].tolist()]


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
    assert basis.states == _nested_loop_states(spec)
    for array in (basis.spin, basis.n1, basis.n2):
        with pytest.raises(ValueError):
            array[0] = 0

    def diagonal(formula):
        return np.diag([complex(formula(*state)) for state in basis.states])

    assert np.array_equal(parity_op(basis).entries, diagonal(lambda s, n1, n2: (-1.0) ** (n1 + n2)))
    assert np.array_equal(conserved_excitation_op(basis).entries, diagonal(lambda s, n1, n2: n1 - n2 + 0.5 * s))
    assert np.array_equal(pauli_ops(basis)[2].entries, diagonal(lambda s, n1, n2: s))
    for margin in (0, 1, 2):
        if spec.truncation is Truncation.TOTAL_NUMBER:
            expected = diagonal(lambda s, n1, n2: n1 + n2 <= spec.n_max_1 - margin)
        else:
            expected = diagonal(lambda s, n1, n2: n1 <= spec.n_max_1 - margin and n2 <= spec.n_max_2 - margin)
        assert np.array_equal(interior_projector(basis, margin).entries, expected)


def test_diagonalize_builds_no_state_tuples():
    basis = make_basis(BasisSpec.total_number(7))
    diagonalize(build_full_jt(ModelParams(omega=1.0, kappa=0.4), basis))
    assert "states" not in vars(basis)


def test_diagonalize_leaves_entries_unbuilt():
    # a builder hands over triplets; the sector solve scatters them into its blocks
    op = build_full_jt(ModelParams(omega=1.0, omega0=0.1, kappa=0.4), make_basis(BasisSpec.total_number(7)))
    diagonalize(op)
    assert "entries" not in vars(op)
