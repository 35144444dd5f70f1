"""k-means (Frobenius-optimal <=K-distinct-row fit) and 1-D thresholding.

The k-means step minimizes ||points - M||_F^2 over matrices M with at most K
distinct rows.  Two clusters of 1-D points (SCORE's ratio vector for K = 2)
are split exactly: the optimum is a cut of the sorted values, found by one
sort and a prefix-sum scan of the n - 1 cut points.  Every other shape takes
the best of `restarts` k-means++-seeded Lloyd runs.  Every restart draws its
own stream from (seed, restart index), so the result does not depend on
execution order and is reproducible bit-for-bit.
"""

from dataclasses import dataclass, field

import numpy as np

REL_IMPROVEMENT = 1e-9
MAX_LLOYD_ITERS = 300
DEFAULT_RESTARTS = 100


@dataclass(frozen=True, eq=False)
class Labeling:
    """Community assignment: labels in {1..K} (empty communities allowed)."""

    labels: np.ndarray
    K: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.size and (labels.min() < 1 or labels.max() > self.K):
            raise ValueError(f"labels must lie in 1..{self.K}")

    @property
    def n(self):
        return self.labels.size


@dataclass(frozen=True, eq=False)
class KMeansResult:
    labeling: Labeling
    centers: np.ndarray
    cost: float
    restarts_used: int
    trace: tuple = field(default=())  # winning run's per-iteration costs


def _kmeanspp_init(points, K, rng):
    n = points.shape[0]
    centers = np.empty((K, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, K):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _sample_init(points, K, rng):
    idx = rng.choice(points.shape[0], size=K, replace=False)
    return points[idx].astype(float).copy()


def _assign(points, sq_norms, centers):
    d2 = (sq_norms[:, None]
          + points @ (-2.0 * centers).T
          + np.sum(centers ** 2, axis=1)[None, :])
    return np.argmin(d2, axis=1)


def _move_centers(points, labels, counts, centers):
    """Move each nonempty cluster's center to the mean of its members."""
    full = counts > 0
    for j in range(points.shape[1]):
        sums = np.bincount(labels, weights=points[:, j], minlength=counts.size)
        centers[full, j] = sums[full] / counts[full]


def _cost(points, labels, centers):
    return float(np.sum((points - centers[labels]) ** 2))


def _lloyd(points, sq_norms, K, rng, init):
    """One seeded Lloyd run; returns (cost, labels, centers, trace)."""
    if init == "plusplus":
        centers = _kmeanspp_init(points, K, rng)
    else:
        centers = _sample_init(points, K, rng)
    trace = []
    prev = np.inf
    for _ in range(MAX_LLOYD_ITERS):
        labels = _assign(points, sq_norms, centers)
        counts = np.bincount(labels, minlength=K)
        # an empty cluster re-seeds at the point farthest from its own center
        for _ in range(K):
            if counts.all():
                break
            gaps = np.sum((points - centers[labels]) ** 2, axis=1)
            centers[np.argmin(counts)] = points[np.argmax(gaps)]
            labels = _assign(points, sq_norms, centers)
            counts = np.bincount(labels, minlength=K)
        cost = _cost(points, labels, centers)
        trace.append(cost)
        # centroids of this assignment: the next step's start, or the final
        # centers, so the returned cost stays recomputable
        _move_centers(points, labels, counts, centers)
        if cost == 0.0 or prev - cost < REL_IMPROVEMENT * prev:
            break
        prev = cost
    cost = _cost(points, labels, centers)
    trace.append(cost)
    return cost, labels, centers, tuple(trace)


def _two_means_1d(points):
    """Exact 2-means of n x 1 points; returns (cost, labels, centers).

    The optimal clusters are the values below and above some cut of the
    sorted order.  With centered values c and left prefix sums S_m, the cut
    after m values leaves the between-cluster sum of squares
    S_m^2 n / (m (n - m)); the largest one wins (the first on ties).  Cuts
    fall only between distinct values, so equal values share a cluster, and
    all-equal input is one cluster at cost 0.
    """
    n = points.shape[0]
    order = np.argsort(points[:, 0], kind="stable")
    s = points[order, 0]
    labels = np.zeros(n, dtype=np.int64)
    if s[-1] > s[0]:
        m = np.arange(1, n)
        between = np.cumsum(s[:-1] - s.mean()) ** 2 * n / (m * (n - m))
        between[s[1:] == s[:-1]] = -np.inf
        labels[order[np.argmax(between) + 1:]] = 1
    centers = np.full((2, 1), s[0])
    _move_centers(points, labels, np.bincount(labels, minlength=2), centers)
    return _cost(points, labels, centers), labels, centers


def _renumber_by_first_member(labels, centers, K):
    """Relabel clusters 1..K in order of each cluster's first member index."""
    uniq, first = np.unique(labels, return_index=True)
    seen = list(uniq[np.argsort(first)])
    seen.extend(k for k in range(K) if k not in set(seen))
    new_of_old = np.empty(K, dtype=np.int64)
    for new, old in enumerate(seen):
        new_of_old[old] = new
    return new_of_old[labels] + 1, centers[seen]


def kmeans(points, K, restarts=DEFAULT_RESTARTS, seed=0, init="plusplus"):
    """k-means of an n x d point set: exact for K = 2 in 1-D, else Lloyd.

    With K = 2 and d = 1 the split is the exact optimum (see `_two_means_1d`);
    `restarts` and `init` are validated but unused there, and the result has
    restarts_used = 1 and trace = (cost,).  Every other shape takes the best
    of `restarts` seeded Lloyd runs.  Centers start from k-means++ seeding by
    default; init="sample" draws K distinct rows uniformly instead (the
    classic textbook start).  Lloyd stops when the relative cost improvement
    drops below 1e-9 or after 300 iterations.  The winner is the lowest-cost
    run (lowest restart index on ties).  Labels are numbered 1..K by first
    member index; empty clusters are permitted.  Deterministic given
    (points, K, restarts, seed, init).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
        raise ValueError(f"points must be n x d with n,d >= 1, got {points.shape}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if init not in ("plusplus", "sample"):
        raise ValueError(f"unknown init {init!r}")
    if init == "sample" and K > points.shape[0]:
        raise ValueError("init='sample' needs K distinct rows, "
                         f"but K={K} > n={points.shape[0]}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite coordinates")

    if K == 2 and points.shape[1] == 1:
        cost, labels, centers = _two_means_1d(points)
        used, trace = 1, (cost,)
    else:
        sq_norms = np.sum(points ** 2, axis=1)
        best = None
        used = 0
        for r in range(restarts):
            rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
            run = _lloyd(points, sq_norms, K, rng, init)
            used += 1
            if best is None or run[0] < best[0]:
                best = run
            if best[0] == 0.0:
                break
        cost, labels, centers, trace = best
    labels, centers = _renumber_by_first_member(labels, centers, K)
    return KMeansResult(labeling=Labeling(labels=labels, K=K), centers=centers,
                        cost=cost, restarts_used=used, trace=trace)


def threshold_classify(r, t):
    """Two-community split of a 1-D ratio vector: label 1 iff r(i) > t."""
    r = np.asarray(r, dtype=float).ravel()
    return Labeling(labels=np.where(r > t, 1, 2), K=2)
