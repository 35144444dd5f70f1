"""Permutation-minimized Hamming error and run summary statistics.

The minimum over all K! relabelings of the truth is a maximum-trace matching
on the K x K confusion matrix, found by Kuhn-Munkres.  Among tied optimal
matchings the lexicographically first is reported, and the weights already
say which one that is: matching estimated label a to true label b (from 0)
weighs conf[a, b] * K^K - a * K^(K-1-b), in exact Python integers.  The
penalties of a matching form the K-digit base-K number whose digits are its
rows, which stays below K^K, so a larger trace always wins and among equal
traces the lexicographically first matching weighs the most.  One solve
returns it.
"""

from dataclasses import dataclass

import numpy as np


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


def _labels(given, name, K):
    """`given` (not empty) as int64, or ValueError unless each entry is an
    integer in 1..K.  Both checks read the values as given: the cast would
    turn nan, inf or 1e30 into an arbitrary integer."""
    if not (given.dtype.kind in "biuf"
            and np.all(given == np.trunc(given))):  # nan fails
        raise ValueError(f"{name} labels must be integers")
    if given.min() < 1 or given.max() > K:
        raise ValueError(f"{name} labels must lie in 1..{K}")
    return given.astype(np.int64)


def _confusion(estimated, truth, K):
    return np.bincount((estimated - 1) * K + (truth - 1),
                       minlength=K * K).reshape(K, K)


def _max_trace_matching(w):
    """The maximum-weight matching of the square integer matrix `w`, as
    match[b] = the row matched to column b.

    Kuhn-Munkres (the Hungarian method) with row potentials u and column
    potentials v kept at u[a] + v[b] >= w[a, b] everywhere, with equality
    on every matched pair.  It starts from v = the column maxima and u = 0,
    gives each row a column whose maximum it holds, and inserts each row
    still free along a shortest augmenting path in the slack u + v - w
    (Dijkstra, relaxing all columns at once per step).  Integer weights,
    including Python integers in an object array, keep every step exact.
    """
    K = w.shape[0]
    u = np.zeros(K, dtype=w.dtype)
    v = w.max(axis=0)
    held = dict(zip(w.argmax(axis=0).tolist(), range(K)))  # row -> column
    match = np.full(K, -1)
    match[list(held.values())] = list(held)
    for row in sorted(set(range(K)) - held.keys()):
        # Dijkstra over columns on the slack u + v - w; dist[b] is the least
        # slack of an alternating path from the new row to column b
        dist = u[row] + v - w[row]
        way = np.full(K, -1)  # the column before b on that path; -1: none
        done = np.zeros(K, dtype=bool)
        while True:
            open_cols = np.flatnonzero(~done)
            col = int(open_cols[dist[open_cols].argmin()])
            if match[col] < 0:
                break
            done[col] = True
            r = match[col]
            reach = dist[col] + u[r] + v - w[r]
            better = reach < dist  # never a done column: its dist is final
            dist[better] = reach[better]
            way[better] = col
        lift = dist[col] - dist[done]
        u[match[done]] -= lift
        v[done] += lift
        u[row] -= dist[col]
        while way[col] >= 0:  # shift the rows along the path
            match[col] = match[way[col]]
            col = way[col]
        match[col] = row
    return match


def _best_perm(conf):
    """The lexicographically first maximum-trace matching, and its trace.

    The weights conf * K^K less each row's digit at its column's place,
    a * K^(K-1-b), make that matching the only maximum-weight one.
    """
    K = conf.shape[0]
    digit = np.arange(K, dtype=object)[:, None]
    place = K ** np.arange(K - 1, -1, -1, dtype=object)
    match = _max_trace_matching(conf.astype(object) * K ** K - digit * place)
    return tuple((match + 1).tolist()), int(conf[match, np.arange(K)].sum())


def hamming_error(estimated, truth, K):
    """Minimum mismatch count between two labelings over label permutations.

    Both inputs are integer vectors with labels in 1..K; any other value,
    such as 1.5, raises ValueError.  An optimal assignment on the confusion
    matrix gives the minimum over all K! relabelings; on ties `best_perm` is
    the lexicographically first optimal one, the permutation an exhaustive
    search in lexicographic order keeps.
    """
    est, tru = np.asarray(estimated), np.asarray(truth)
    if est.shape != tru.shape:
        raise ValueError(f"length mismatch: {est.size} vs {tru.size}")
    n = est.size
    if n == 0:
        raise ValueError("empty labelings")
    est = _labels(est, "estimated", K)
    tru = _labels(tru, "truth", K)

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
