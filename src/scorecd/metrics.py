"""Permutation-minimized Hamming error and run summary statistics.

The minimum over all K! relabelings of the truth is a maximum-trace matching
on the K x K confusion matrix, found by `linear_sum_assignment`.  Among tied
optimal matchings the lexicographically first is reported.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cluster import Labeling


@dataclass(frozen=True, eq=False)
class HammingResult:
    """Mismatch count minimized over all K! relabelings of the truth.

    `confusion[a-1, b-1]` counts nodes with estimated label a and true label
    b; `best_perm[b-1]` is the estimated label matched to true label b, so
    mismatches = n - trace of the permuted confusion matrix.
    """

    mismatches: int
    rate: float
    best_perm: tuple
    confusion: np.ndarray


def _confusion(estimated, truth, K):
    return np.bincount((estimated - 1) * K + (truth - 1),
                       minlength=K * K).reshape(K, K)


def _best_perm(conf):
    """The lexicographically first maximum-trace matching, and its trace.

    True labels 1..K in turn take the lowest free estimated label that still
    completes an optimal matching; `match` holds one such completion, so
    only labels below the one it gives need a test.
    """
    K = conf.shape[0]
    rows, cols = linear_sum_assignment(conf, maximize=True)
    best = int(conf[rows, cols].sum())
    match = np.empty(K, dtype=np.int64)
    match[cols] = rows
    free = list(range(K))
    fixed = 0
    for b in range(K):
        for a in free:
            if a == match[b]:
                break
            rest = np.array([r for r in free if r != a], dtype=np.int64)
            sub = conf[rest, b + 1:]
            r, c = linear_sum_assignment(sub, maximize=True)
            if fixed + conf[a, b] + sub[r, c].sum() == best:
                match[b] = a
                match[b + 1 + c] = rest[r]
                break
        fixed += conf[match[b], b]
        free.remove(match[b])
    return tuple((match + 1).tolist()), best


def hamming_error(estimated, truth, K):
    """Minimum mismatch count between two labelings over label permutations.

    Both inputs are Labelings or integer vectors with labels in 1..K.  An
    optimal assignment on the confusion matrix gives the minimum over all K!
    relabelings; on ties `best_perm` is the lexicographically first optimal
    one, the permutation an exhaustive search in lexicographic order keeps.
    """
    est = estimated.labels if isinstance(estimated, Labeling) else np.asarray(estimated)
    tru = truth.labels if isinstance(truth, Labeling) else np.asarray(truth)
    est = est.astype(np.int64)
    tru = tru.astype(np.int64)
    if est.shape != tru.shape:
        raise ValueError(f"length mismatch: {est.size} vs {tru.size}")
    n = est.size
    if n == 0:
        raise ValueError("empty labelings")
    for name, vec in (("estimated", est), ("truth", tru)):
        if vec.min() < 1 or vec.max() > K:
            raise ValueError(f"{name} labels must lie in 1..{K}")

    conf = _confusion(est, tru, K)
    perm, matched = _best_perm(conf)
    mismatches = n - matched
    return HammingResult(mismatches=mismatches, rate=mismatches / n,
                         best_perm=perm, confusion=conf)


def summarize(values):
    """Sample mean and standard deviation (n-1 denominator; 0 for one value)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty list")
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, sd
