"""QPs whose rows are given two-sided, lo <= A x <= hi, for the tests."""

import numpy as np

import dlfmkit as dk


def two_sided_qp(P, q, A, lo, hi):
    """The QP with rows lo <= A x <= hi, as halfspaces A x <= hi and
    -A x <= -lo, one per finite side: an equality row gives two."""
    A = np.asarray(A, dtype=float)
    C = np.vstack([A, -A])
    d = np.concatenate([np.asarray(hi, dtype=float), -np.asarray(lo, dtype=float)])
    finite = d < np.inf
    return dk.qp_problem(P, q, C[finite], d[finite])
