"""Statistics oracles written from their definitions, kept beside
reference_ops as the values centpipe's estimators are compared against.
They validate nothing; callers pass well-formed input.
"""

import math

import numpy as np


def plugin_entropy(counts) -> float:
    """-sum(p * log2(p)) over the nonzero shares of a histogram's counts."""
    counts = np.asarray(counts, dtype=np.float64)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def mann_whitney(scores, labels) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    p, n = s[y == 1], s[y == 0]
    diff = p[:, None] - n[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / (len(p) * len(n)))


def mutual_information_double_sum(table) -> float:
    """sum_ij p_ij * log2(p_ij / (p_i. * p_.j)) over the nonzero cells."""
    p = np.asarray(table, dtype=np.float64)
    p = p / p.sum()
    row, col = p.sum(axis=1), p.sum(axis=0)
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            if p[i, j] > 0:
                total += p[i, j] * math.log2(p[i, j] / (row[i] * col[j]))
    return total
