"""Dense test inputs as operators: the package builds operators from triplets only."""

import numpy as np

from jtrwa import Hermiticity, OperatorMatrix


def dense_op(basis, entries, hint=Hermiticity.GENERAL) -> OperatorMatrix:
    """The operator holding the nonzero entries of the dense matrix `entries`, in row-major order."""
    entries = np.asarray(entries, dtype=np.complex128)
    assert entries.shape == (basis.dimension,) * 2
    rows, cols = np.nonzero(entries)
    return OperatorMatrix.from_triplets(basis, rows, cols, entries[rows, cols], hint)
