"""k-means (Frobenius-optimal <=K-distinct-row fit) and 1-D thresholding.

The k-means step minimizes ||points - M||_F^2 over matrices M with at most K
distinct rows.  Two clusters of 1-D points (SCORE's ratio vector for K = 2)
are split exactly: the optimum is a cut of the sorted values, found by one
sort and a prefix-sum scan of the n - 1 cut points.  Every other shape takes
the best of up to `restarts` k-means++-seeded Lloyd runs.  Every restart
draws its own stream from (seed, restart index), so the result is
reproducible bit-for-bit.

The Lloyd loop evaluates the textbook formulas, each in one fixed order, and
reproduces bit for bit the row-wise numpy expressions
np.sum((x - c) ** 2, axis=1), rng.choice(n, p=d2 / d2.sum()),
argmin(|x|^2 + x @ (-2 C).T + |c|^2) and np.sum((x - C[labels]) ** 2) that
define it.  Floating-point addition is not associative, so the order of
every sum is part of the result: a squared distance adds its d terms as
np.sum over the row does, one after another below 8 terms and by np.sum
itself from 8 on (`_row_sums`), the distance matrix is the product
x @ (-2 C).T plus |x|^2 and then |c|^2, the cost sums the n x d residual
block in row-major order, and each centroid sum runs over the points in
index order (`np.bincount`).  Any other order changes last bits, and with
them near-tied assignments and k-means++ draws.  Points large enough for
squared distances to overflow are rejected up front.

Restarts skip work whose outcome is already known, without changing a bit.
After its seeding, a run is a deterministic function of the centers it holds
at the top of a step, as bits; the previous cost enters only the stop test
and the step index only the iteration cap.  So a run that reaches centers an
earlier run of the same call held takes that run's outcome and the rest of
its cost trace, unless the stop test or the cap would part the two
(`_take_over`).  And a step that assigned its centers without a reseed and
moved none of them is a fixed point: the next step would give the same
labels and cost and then stop, so the run appends those costs and stops
without computing them.

Restarts stop once they agree: at least MIN_RESTARTS (10) run, and then the
loop stops after the first run at which AGREEING_RUNS (3) runs have ended at
the lowest cost so far, compared with exact float equality.  `restarts` is a
cap, and a run of cost 0 also ends the loop.  Runs are made in index order,
so where the loop stops is itself a function of the inputs.
"""

from dataclasses import dataclass, field

import numpy as np

REL_IMPROVEMENT = 1e-9
MAX_LLOYD_ITERS = 300
DEFAULT_RESTARTS = 100
MIN_RESTARTS = 10  # restarts always run before the agreement stop applies
AGREEING_RUNS = 3  # runs at the lowest cost so far that end the restarts


@dataclass(frozen=True, eq=False)
class KMeansResult:
    """The winning run: int64 labels in 1..K (empty clusters allowed), its
    K x d centers and cost, and the restart counts."""

    labels: np.ndarray
    centers: np.ndarray
    cost: float
    restarts_used: int
    trace: tuple = field(default=())  # winning run's per-iteration costs
    restarts_at_best: int = 1  # runs whose final cost equals the winner's


def _row_sums(cols):
    """Row sums of an n x d matrix given as its d columns (a d x n array),
    bitwise those of np.sum(matrix, axis=1).

    Below 8 terms numpy adds a row's terms one after another, and so does
    this loop, a column at a time instead of numpy's per-row inner loop.
    From 8 terms on, numpy's pairwise order applies: the defining expression
    itself adds them.
    """
    if len(cols) >= 8:
        return np.ascontiguousarray(cols.T).sum(axis=1)
    total = cols[0].copy()
    for col in cols[1:]:
        total += col
    return total


def _weighted_draw(rng, p):
    """The index rng.choice(p.size, p=p) draws, without its argument checks.

    One uniform double is searched in the normalized cumulative sum, as
    numpy's Generator.choice does, so index and generator state agree.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _move_centers(cols, labels, counts, centers):
    """Move each nonempty cluster's center to the mean of its members."""
    full = counts > 0
    for j, col in enumerate(cols):
        sums = np.bincount(labels, weights=col, minlength=counts.size)
        np.divide(sums, counts, out=centers[:, j], where=full)


class _Lloyd:
    """Seeded Lloyd runs on one n x d point set, sharing buffers across runs.

    Per-point passes read a contiguous d x n copy of the coordinates and
    write into K x n, d x n and n x d buffers allocated once per point set.
    """

    def __init__(self, points, K):
        n, d = points.shape
        self.points = points
        self.K = K
        self.cols = np.ascontiguousarray(points.T)
        self.sq_norms = np.sum(points ** 2, axis=1)
        self.dist = np.empty((K, n))
        self.nearest = np.empty(n)
        self.closer = np.empty(n, dtype=bool)
        self.diff = np.empty((d, n))
        self.block = np.empty((n, d))

    def _sq_dist(self, center):
        """|x_i - center|^2 for every point i."""
        np.subtract(self.cols, center[:, None], out=self.diff)
        np.square(self.diff, out=self.diff)
        return _row_sums(self.diff)

    def _plusplus(self, rng):
        n = self.points.shape[0]
        centers = np.empty((self.K, self.points.shape[1]))
        centers[0] = self.points[rng.integers(n)]
        d2 = self._sq_dist(centers[0])
        for j in range(1, self.K):
            total = d2.sum()
            if total > 0:
                idx = _weighted_draw(rng, d2 / total)
            else:
                idx = rng.integers(n)
            centers[j] = self.points[idx]
            np.minimum(d2, self._sq_dist(centers[j]), out=d2)
        return centers

    def _assign(self, centers):
        """Index of each point's nearest center, the lowest on ties."""
        dist = self.dist
        np.matmul(self.points, (-2.0 * centers).T, out=dist.T)
        dist += self.sq_norms
        dist += np.add.reduce(centers * centers, axis=1)[:, None]
        labels = np.zeros(dist.shape[1], dtype=np.int64)
        nearest = self.nearest
        nearest[:] = dist[0]
        for j in range(1, self.K):
            np.less(dist[j], nearest, out=self.closer)
            np.putmask(labels, self.closer, j)
            np.minimum(nearest, dist[j], out=nearest)
        return labels

    def _residuals(self, labels, centers):
        """(x_i - c_label(i))^2 coordinatewise, as the n x d buffer."""
        block = self.block
        np.take(centers, labels, axis=0, out=block, mode="clip")
        np.subtract(self.points, block, out=block)
        np.square(block, out=block)
        return block

    def run(self, rng, init, memo):
        """One seeded Lloyd run; returns (cost, labels, centers, trace).

        `memo` maps the centers (as bytes) that earlier runs on this point
        set held at the top of a step to (step index, that run's outcome).
        A run that reaches such centers takes the earlier outcome wherever
        `_take_over` shows it to be its own.
        """
        points, K = self.points, self.K
        if init == "plusplus":
            centers = self._plusplus(rng)
        else:
            centers = points[rng.choice(points.shape[0], size=K,
                                        replace=False)]
        trace, visited = [], []
        prev = np.inf
        fixed = outcome = None
        for it in range(MAX_LLOYD_ITERS):
            state = centers.tobytes()
            visited.append((state, it))
            if state == fixed:
                # the last step assigned these very centers without a
                # reseed and moved none of them: this step would repeat its
                # labels and cost, whereupon the stop test holds
                trace += [prev, prev]
                outcome = (prev, labels, centers, tuple(trace))
                break
            if state in memo:
                outcome = _take_over(memo[state], it, prev, trace)
                if outcome is not None:
                    break
            labels = self._assign(centers)
            counts = np.bincount(labels, minlength=K)
            fixed = state if np.count_nonzero(counts) == K else None
            # an empty cluster re-seeds at the point farthest from its center
            for _ in range(K):
                if np.count_nonzero(counts) == K:
                    break
                gaps = self._residuals(labels, centers).sum(axis=1)
                centers[np.argmin(counts)] = points[np.argmax(gaps)]
                labels = self._assign(centers)
                counts = np.bincount(labels, minlength=K)
            cost = float(self._residuals(labels, centers).sum())
            trace.append(cost)
            # centroids of this assignment: the next step's start, or the
            # final centers, so the returned cost stays recomputable
            _move_centers(self.cols, labels, counts, centers)
            if cost == 0.0 or prev - cost < REL_IMPROVEMENT * prev:
                break
            prev = cost
        if outcome is None:
            cost = float(self._residuals(labels, centers).sum())
            trace.append(cost)
            outcome = (cost, labels, centers, tuple(trace))
        for state, it in visited:
            memo.setdefault(state, (it, outcome))
        return outcome


def _take_over(entry, it, prev, trace):
    """A run's outcome from an earlier run's at the same centers, or None.

    The run holds, at the top of step `it` after cost `prev` and with the
    costs `trace` so far, the centers an earlier run held at the top of its
    step j; `entry` is (j, that run's outcome).  Equal centers give the same
    labels, cost and moved centers at this step, and the next step starts
    from those and this cost in both runs, so from there the two runs are
    one.  They can part only at this step's stop test, which reads each
    run's own `prev`, and at the iteration cap, which falls at another step
    of the shared path when it != j.  None where either could part them.
    """
    j, (cost, labels, centers, costs) = entry
    tail = costs[j:]  # this step's cost, the later steps' and the final one
    rest = len(tail) - 2  # steps the earlier run took after this one
    stops = tail[0] == 0.0 or prev - tail[0] < REL_IMPROVEMENT * prev
    if rest == 0:
        same = stops or it == MAX_LLOYD_ITERS - 1
    else:
        same = not stops and (it == j
                              or max(it, j) + rest < MAX_LLOYD_ITERS - 1)
    return (cost, labels, centers, tuple(trace) + tail) if same else None


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
    _move_centers(points.T, labels, np.bincount(labels, minlength=2), centers)
    return float(np.sum((points - centers[labels]) ** 2)), labels, centers


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
    of up to `restarts` seeded Lloyd runs: at least MIN_RESTARTS (10) run,
    and the restarts stop after the first run at which AGREEING_RUNS (3)
    runs have ended at the lowest cost so far, at the cap `restarts`, or at
    a run of cost 0.  Centers start from k-means++ seeding by default;
    init="sample" draws K distinct rows uniformly instead (the classic
    textbook start).  Lloyd stops when the relative cost improvement drops
    below 1e-9 or after 300 iterations.  The winner is the lowest-cost run
    (lowest restart index on ties).  Labels are numbered 1..K by first
    member index; empty clusters are permitted.  Deterministic given
    (points, K, restarts, seed, init).

    Each Lloyd step computes the textbook quantities with the summation
    orders the module docstring lists, so labels, centers, cost, trace and
    restarts_used equal those of the row-wise formulas bit for bit; the
    buffered, column-major passes only make fewer and cheaper passes over
    the n points, and runs skip the steps whose outcome an earlier run or a
    fixed point already gives (see the module docstring).  restarts_used
    counts the runs made; restarts_at_best counts those whose final cost
    equals the winner's (1 for the exact split): how many restarts agree on
    the best cost.
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
    # squared distances reach d (2 max|x|)^2, which must stay finite
    bound = 0.5 * np.sqrt(np.finfo(float).max / points.shape[1])
    if np.abs(points).max() > bound:
        raise ValueError(f"points exceed {bound:.3g} in magnitude, so squared "
                         "distances overflow; rescale them")

    if K == 2 and points.shape[1] == 1:
        cost, labels, centers = _two_means_1d(points)
        used, at_best, trace = 1, 1, (cost,)
    else:
        lloyd = _Lloyd(points, K)
        memo = {}
        best = None
        costs = []
        for r in range(restarts):
            rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
            run = lloyd.run(rng, init, memo)
            costs.append(run[0])
            if best is None or run[0] < best[0]:
                best = run
            if best[0] == 0.0 or (r + 1 >= MIN_RESTARTS and
                                  costs.count(best[0]) >= AGREEING_RUNS):
                break
        cost, labels, centers, trace = best
        used, at_best = len(costs), costs.count(cost)
    labels, centers = _renumber_by_first_member(labels, centers, K)
    return KMeansResult(labels=labels, centers=centers, cost=cost,
                        restarts_used=used, trace=trace,
                        restarts_at_best=at_best)


def threshold_classify(r, t):
    """Two-community split of a 1-D ratio vector: label 1 iff r(i) > t."""
    return np.where(np.asarray(r, dtype=float).ravel() > t, 1, 2)
