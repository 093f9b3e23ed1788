"""Dense test inputs as operators, and the union difference of two operators: the package builds operators from
triplets only, and takes no difference on the union of two patterns."""

import numpy as np

from jtrwa import Hermiticity, OperatorMatrix
from jtrwa.fockspace import _summed


def dense_op(basis, entries, hint=Hermiticity.GENERAL) -> OperatorMatrix:
    """The operator holding the nonzero entries of the dense matrix `entries`, in row-major order."""
    entries = np.asarray(entries, dtype=np.complex128)
    assert entries.shape == (basis.dimension,) * 2
    rows, cols = np.nonzero(entries)
    return OperatorMatrix.from_triplets(basis, rows, cols, entries[rows, cols], hint)


def subtract(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """a - b on the union of their positions (row-major); a position zero in every column is dropped."""
    if b.basis != a.basis:
        raise ValueError("operators live on different bases")
    (r1, c1, v1), (r2, c2, v2) = a.triplets, b.triplets
    rows, cols, values = _summed(np.r_[r1, r2], np.r_[c1, c2], np.r_[v1, -v2], a.dimension)
    values = values[:, 0]  # the one matrix's column
    keep = np.any(values != 0, axis=tuple(range(1, values.ndim)))
    return OperatorMatrix.from_triplets(a.basis, rows[keep], cols[keep], values[keep])


def adjoint(op: OperatorMatrix) -> OperatorMatrix:
    """The conjugate transpose, on the transposed positions."""
    rows, cols, values = op.triplets
    return OperatorMatrix.from_triplets(op.basis, cols, rows, values.conj())
