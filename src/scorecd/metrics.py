"""Permutation-minimized Hamming error and run summary statistics.

The minimum over all K! relabelings of the truth is a maximum-trace matching
on the K x K confusion matrix, found by Kuhn-Munkres with integer dual
potentials.  Among tied optimal matchings the lexicographically first is
reported; the potentials mark every pair an optimal matching can use, so
only real ties need a search.
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


def _max_trace_matching(conf):
    """A maximum-trace matching of the square integer matrix `conf`.

    Kuhn-Munkres (the Hungarian method) with row potentials u and column
    potentials v kept at u[a] + v[b] >= conf[a, b] everywhere, with equality
    on every matched pair.  It starts from v = the column maxima and u = 0,
    gives each row a column whose maximum it holds, and inserts each row
    still free along a shortest augmenting path in the slack u + v - conf
    (Dijkstra, relaxing all columns at once per step).  Integer input keeps
    every potential an integer, so the tight test is exact.

    Returns (match, tight): match[b] is the row matched to column b, and
    tight[a, b] is u[a] + v[b] == conf[a, b].  By complementary slackness
    the maximum-trace matchings are exactly the matchings of tight pairs.
    """
    K = conf.shape[0]
    u = np.zeros(K, dtype=np.int64)
    v = conf.max(axis=0)
    held = dict(zip(conf.argmax(axis=0).tolist(), range(K)))  # row -> column
    match = np.full(K, -1)
    match[list(held.values())] = list(held)
    for row in sorted(set(range(K)) - held.keys()):
        # Dijkstra over columns on the slack u + v - conf; dist[b] is the
        # least slack of an alternating path from the new row to column b
        dist = u[row] + v - conf[row]
        way = np.full(K, -1)  # the column before b on that path; -1: none
        done = np.zeros(K, dtype=bool)
        while True:
            col = int(np.where(done, np.iinfo(np.int64).max, dist).argmin())
            if match[col] < 0:
                break
            done[col] = True
            r = match[col]
            reach = dist[col] + u[r] + v - conf[r]
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
    return match, u[:, None] + v == conf


def _best_perm(conf):
    """The lexicographically first maximum-trace matching, and its trace.

    True labels 1..K in turn take the lowest free estimated label that still
    completes an optimal matching.  The optimal matchings are the matchings
    of tight pairs, so only a column tight at two or more rows has a choice.
    With `match` one optimal completion, the row of a later column x can
    move to column b when it is tight there and x reaches b by tight steps,
    each column taking the row of the column it steps to; the path then
    rotates.  Only rows below match[b] need this test.
    """
    K = conf.shape[0]
    match, tight = _max_trace_matching(conf)
    trace = int(conf[match, np.arange(K)].sum())
    for b in np.flatnonzero(np.count_nonzero(tight[:, :-1], axis=0) > 1):
        later = match[b + 1:]
        lower = b + 1 + np.flatnonzero((later < match[b]) & tight[later, b])
        if lower.size == 0:
            continue
        step = np.full(K, -1)  # step[x]: the column whose row x takes
        step[b] = b
        queue = [b]
        for y in queue:
            takers = b + 1 + np.flatnonzero(tight[match[y], b + 1:]
                                            & (step[b + 1:] < 0))
            step[takers] = y
            queue.extend(takers.tolist())
        lower = lower[step[lower] >= 0]
        if lower.size == 0:
            continue
        path = [int(lower[match[lower].argmin()])]
        while path[-1] != b:
            path.append(int(step[path[-1]]))
        match[path] = np.roll(match[path], -1)
    return tuple((match + 1).tolist()), trace


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
