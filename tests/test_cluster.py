import itertools

import numpy as np
import pytest

from scorecd import cluster, kmeans
from scorecd.cluster import (AGREEING_RUNS, MAX_LLOYD_ITERS, MIN_RESTARTS,
                             REL_IMPROVEMENT, _row_sums, _weighted_draw,
                             threshold_classify)


def exhaustive_kmeans_cost(points, K):
    """Oracle: minimum cost over every assignment of n points to <=K clusters."""
    n = points.shape[0]
    best = np.inf
    for assign in itertools.product(range(K), repeat=n):
        assign = np.array(assign)
        cost = 0.0
        for k in range(K):
            members = points[assign == k]
            if len(members):
                cost += np.sum((members - members.mean(axis=0)) ** 2)
        best = min(best, cost)
    return best


def test_two_well_separated_pairs():
    res = kmeans(np.array([0.0, 0.0, 10.0, 10.0]), K=2, restarts=10, seed=1)
    assert np.array_equal(res.labels, [1, 1, 2, 2])
    assert res.cost == 0.0


def test_k1_is_the_centroid():
    pts = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 4.0]])
    res = kmeans(pts, K=1, restarts=3, seed=0)
    assert np.allclose(res.centers[0], pts.mean(axis=0))
    assert res.cost == pytest.approx(np.sum((pts - pts.mean(axis=0)) ** 2))
    assert set(res.labels) == {1}


@pytest.mark.parametrize("trial", range(12))
def test_matches_exhaustive_optimum(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(4, 11))
    d = int(rng.integers(1, 3))
    pts = rng.standard_normal((n, d))
    res = kmeans(pts, K=2, restarts=100, seed=trial)
    oracle = exhaustive_kmeans_cost(pts, 2)
    assert res.cost == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_cost_is_recomputable_and_trace_monotone(rng):
    pts = rng.standard_normal((200, 2))
    res = kmeans(pts, K=3, restarts=5, seed=9)
    recomputed = np.sum((pts - res.centers[res.labels - 1]) ** 2)
    assert res.cost == pytest.approx(recomputed, rel=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(res.trace, res.trace[1:]))


def test_seed_determinism(rng):
    pts = rng.standard_normal((50, 2))
    a = kmeans(pts, K=3, restarts=20, seed=42)
    b = kmeans(pts, K=3, restarts=20, seed=42)
    assert np.array_equal(a.labels, b.labels)
    assert a.cost == b.cost
    assert np.array_equal(a.centers, b.centers)


def test_labels_numbered_by_first_member(rng):
    pts = np.array([5.0, 5.1, 0.0, 0.1, 5.05])
    res = kmeans(pts, K=2, restarts=20, seed=0)
    assert res.labels[0] == 1  # node 0's cluster is called 1
    assert np.array_equal(res.labels, [1, 1, 2, 2, 1])


def test_isometry_equivariance():
    # integer points and exact isometries: distances are bit-identical, so
    # the seeded runs make identical choices on both sides
    rng = np.random.default_rng(3)
    pts = rng.integers(-20, 20, size=(40, 2)).astype(float)
    flipped = pts[:, ::-1] * np.array([1.0, -1.0]) + np.array([8.0, -3.0])
    a = kmeans(pts, K=3, restarts=15, seed=5)
    b = kmeans(flipped, K=3, restarts=15, seed=5)
    assert np.array_equal(a.labels, b.labels)
    assert a.cost == pytest.approx(b.cost, rel=1e-12)


def test_duplicate_points_allow_empty_clusters():
    pts = np.array([0.0, 0.0, 0.0, 0.0, 10.0])
    res = kmeans(pts, K=3, restarts=10, seed=2)
    assert res.cost == 0.0
    assert res.labels.max() <= 3


def test_sample_init_runs_and_is_deterministic(rng):
    pts = rng.standard_normal((30, 2))
    a = kmeans(pts, K=3, restarts=1, seed=8, init="sample")
    b = kmeans(pts, K=3, restarts=1, seed=8, init="sample")
    assert np.array_equal(a.labels, b.labels)
    assert a.cost == b.cost
    with pytest.raises(ValueError, match="sample"):
        kmeans(pts[:2], K=3, init="sample")
    with pytest.raises(ValueError, match="init"):
        kmeans(pts, K=2, init="qr")


def test_nonfinite_points_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        kmeans(np.array([1.0, np.nan]), K=2)
    with pytest.raises(ValueError):
        kmeans(np.array([1.0, np.inf]), K=1)


@pytest.mark.parametrize("init", ["plusplus", "sample"])
def test_overflowing_magnitudes_rejected(rng, init):
    pts = rng.standard_normal((50, 2))
    for d in (1, 2):
        with pytest.raises(ValueError, match="overflow"):
            kmeans(pts[:, :d] * 1e160, K=2, init=init)
    # at 1e150 every squared distance and the cost stay finite
    res = kmeans(pts * 1e150, K=2, restarts=5, init=init)
    assert np.isfinite(res.cost)
    assert set(res.labels) == {1, 2}


def test_threshold_classify():
    lab = threshold_classify(np.array([0.5, -0.2, 0.0, 2.0]), t=0.0)
    assert np.array_equal(lab, [1, 2, 2, 1])  # strict inequality
    assert threshold_classify(np.array([1.0, 2.0]), t=0.5).tolist() == [1, 1]
    assert lab.dtype == np.int64


def best_cut_cost(x):
    """Oracle: two-pass cost of every cut of the sorted values, minimized."""
    s = np.sort(x)
    best = np.sum((s - s.mean()) ** 2)
    for m in range(1, s.size):
        if s[m] > s[m - 1]:
            lo, hi = s[:m], s[m:]
            best = min(best, np.sum((lo - lo.mean()) ** 2)
                       + np.sum((hi - hi.mean()) ** 2))
    return best


@pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 640, 2000])
@pytest.mark.parametrize("duplicates", [False, True])
def test_exact_1d_split_is_the_best_cut(n, duplicates):
    rng = np.random.default_rng(n + 7 * duplicates)
    x = rng.standard_t(3, size=n)
    if duplicates:
        x = np.round(x, 1)  # many ties
    res = kmeans(x, K=2, restarts=5, seed=3)
    labels = res.labels
    assert res.cost == pytest.approx(best_cut_cost(x), rel=1e-12, abs=1e-12)
    recomputed = np.sum((x - res.centers[labels - 1, 0]) ** 2)
    assert res.cost == pytest.approx(recomputed, rel=1e-12, abs=1e-12)
    assert res.restarts_used == 1
    assert res.trace == (res.cost,)
    assert labels[0] == 1
    for value in np.unique(x):  # equal values are never split
        assert np.unique(labels[x == value]).size == 1


def test_exact_1d_split_of_equal_values():
    for x in (np.full(6, 2.5), np.array([-1.0])):
        res = kmeans(x, K=2, seed=4)
        assert res.cost == 0.0
        assert set(res.labels) == {1}
        assert res.restarts_used == 1 and res.trace == (0.0,)


def test_exact_1d_split_beats_best_of_restarts_lloyd():
    # rounded t(2) draws (default_rng(542), n=38): the best of up to 100
    # seeded Lloyd runs, like the best of all 100, stops two nodes away from
    # the optimal split
    x = np.array([1.37, -0.17, -0.12, -1.46, -2.0, 3.6, -2.05, -0.74, 1.42,
                  -0.61, -0.18, 2.06, -1.56, 0.61, 1.4, 0.22, 1.33, 1.64,
                  3.69, 0.2, 0.33, -0.17, 1.36, 0.16, 0.82, 0.91, -0.07,
                  0.47, -0.4, 2.28, -0.74, -1.79, 0.77, 0.57, -0.05, -0.21,
                  -1.59, -0.03])
    exact = kmeans(x, K=2, restarts=100, seed=0)
    # a zero second coordinate changes no distance, so Lloyd runs as in 1-D
    lloyd = kmeans(np.column_stack([x, np.zeros_like(x)]), K=2, restarts=100,
                   seed=0)
    assert exact.cost == pytest.approx(26.98112115942029, rel=1e-12)
    assert lloyd.cost == pytest.approx(27.05445476923077, rel=1e-12)
    assert np.sum(exact.labels != lloyd.labels) == 2


# labels, restarts_used, len(trace) and cost of k-means++ Lloyd with a cap
# of 20 restarts (K=3, seed 11); labels, trace length and cost were recorded
# before the loop was vectorized with bincount, when all 20 restarts ran
LLOYD_GOLDEN = {
    2: ("121323313321313332223331322123113113232211333331211123213331313133"
        "221322111313133331333311", 10, 7, 113.04563054500767),
    3: ("111122211113131312312121211111212311131111212111213332111213122111"
        "131331112111333313213311", 10, 7, 491.4088107396823),
}


@pytest.mark.parametrize("d", [2, 3])
def test_lloyd_matches_recorded_runs(d):
    rng = np.random.default_rng(5 + d)
    centers = rng.normal(scale=2.0, size=(4, d))
    pts = centers[rng.integers(4, size=90)] + rng.standard_normal((90, d))
    res = kmeans(pts, K=3, restarts=20, seed=11)
    labels, used, iters, cost = LLOYD_GOLDEN[d]
    assert "".join(map(str, res.labels)) == labels
    assert res.restarts_used == used
    assert len(res.trace) == iters
    assert res.cost == pytest.approx(cost, rel=1e-12)


# Reference Lloyd loop in row-wise numpy expressions, with Generator.choice
# for the k-means++ draw; kmeans must reproduce it bit for bit.
def _ref_kmeanspp_init(points, K, rng):
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


def _ref_assign(points, sq_norms, centers):
    d2 = (sq_norms[:, None]
          + points @ (-2.0 * centers).T
          + np.sum(centers ** 2, axis=1)[None, :])
    return np.argmin(d2, axis=1)


def _ref_cost(points, labels, centers):
    return float(np.sum((points - centers[labels]) ** 2))


def _ref_lloyd(points, sq_norms, K, rng, init):
    if init == "plusplus":
        centers = _ref_kmeanspp_init(points, K, rng)
    else:
        idx = rng.choice(points.shape[0], size=K, replace=False)
        centers = points[idx].astype(float).copy()
    trace = []
    prev = np.inf
    for _ in range(MAX_LLOYD_ITERS):
        labels = _ref_assign(points, sq_norms, centers)
        counts = np.bincount(labels, minlength=K)
        for _ in range(K):
            if counts.all():
                break
            gaps = np.sum((points - centers[labels]) ** 2, axis=1)
            centers[np.argmin(counts)] = points[np.argmax(gaps)]
            labels = _ref_assign(points, sq_norms, centers)
            counts = np.bincount(labels, minlength=K)
        cost = _ref_cost(points, labels, centers)
        trace.append(cost)
        full = counts > 0
        for j in range(points.shape[1]):
            sums = np.bincount(labels, weights=points[:, j], minlength=K)
            centers[full, j] = sums[full] / counts[full]
        if cost == 0.0 or prev - cost < REL_IMPROVEMENT * prev:
            break
        prev = cost
    cost = _ref_cost(points, labels, centers)
    trace.append(cost)
    return cost, labels, centers, tuple(trace)


def _ref_kmeans(points, K, restarts, seed, init):
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    sq_norms = np.sum(points ** 2, axis=1)
    best, costs = None, []
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        run = _ref_lloyd(points, sq_norms, K, rng, init)
        costs.append(run[0])
        if best is None or run[0] < best[0]:
            best = run
        if best[0] == 0.0:
            break
        if len(costs) >= MIN_RESTARTS and costs.count(best[0]) >= AGREEING_RUNS:
            break
    cost, labels, centers, trace = best
    uniq, first = np.unique(labels, return_index=True)
    seen = list(uniq[np.argsort(first)])
    seen.extend(k for k in range(K) if k not in set(seen))
    new_of_old = np.empty(K, dtype=np.int64)
    for new, old in enumerate(seen):
        new_of_old[old] = new
    return (new_of_old[labels] + 1, centers[seen], cost, trace, len(costs),
            costs.count(cost))


def assert_matches_reference(points, K, restarts, seed, init):
    res = kmeans(points, K, restarts=restarts, seed=seed, init=init)
    labels, centers, cost, trace, used, at_best = _ref_kmeans(
        points, K, restarts, seed, init)
    assert np.array_equal(res.labels, labels)
    assert np.array_equal(res.centers, centers)
    assert res.cost == cost
    assert res.trace == trace
    assert res.restarts_used == used
    assert res.restarts_at_best == at_best


# every shape but K = 2 in 1-D, which is split exactly; d = 9 and 130 take
# the 8-way and halving branches of numpy's pairwise row sums
@pytest.mark.parametrize("init", ["plusplus", "sample"])
@pytest.mark.parametrize("d,K", [(d, K) for d in (1, 2, 3, 4, 9, 130)
                                 for K in (2, 3, 4) if (d, K) != (1, 2)])
def test_lloyd_is_bit_identical_to_the_row_wise_loop(d, K, init):
    rng = np.random.default_rng(1000 + 10 * d + K)
    centers = rng.normal(scale=2.0, size=(K + 1, d))
    pts = centers[rng.integers(K + 1, size=120)]
    pts += rng.standard_normal((120, d))
    assert_matches_reference(pts, K, restarts=12, seed=d + K, init=init)
    # column-major input and rounded coordinates with many exact ties
    assert_matches_reference(np.asfortranarray(np.round(pts)), K, restarts=6,
                             seed=7, init=init)
    # far from the origin |x|^2 - 2 x.c + |c|^2 cancels, so last-bit changes
    # in the distance matrix (another BLAS summation order) move labels
    assert_matches_reference(pts + 1e7, K, restarts=6, seed=8, init=init)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 23, 128, 129, 130, 300])
def test_row_sums_add_in_numpy_order(d):
    rng = np.random.default_rng(d)
    terms = rng.standard_normal((500, d)) ** 2 * 10.0 ** rng.integers(-4, 4, d)
    assert np.array_equal(_row_sums(np.ascontiguousarray(terms.T)),
                          np.sum(terms, axis=1))


def test_near_tie_far_from_the_origin_is_decided_with_the_squared_norms():
    # the two centers' squared distances, 0.9332 and 0.933076 exactly, are
    # closer than ulp(|x|^2) = 2^-12; x @ (-2 C).T + |c|^2 alone lies near
    # -|x|^2, rounds on that grid and picks center 0, while adding |x|^2
    # first cancels the large part and keeps center 1 nearer, as the
    # defining expression does
    points = np.array([[1048576.059, 0.0]])
    centers = np.array([[1048575.191, 0.424], [1048575.735, -0.91]])
    sq_norms = np.sum(points ** 2, axis=1)
    assert 0.9332 - 0.933076 < np.spacing(sq_norms[0])
    without = points @ (-2.0 * centers).T + np.sum(centers ** 2, axis=1)
    assert np.argmin(without, axis=1).tolist() == [0]
    assert _ref_assign(points, sq_norms, centers).tolist() == [1]
    assert cluster._Lloyd(points, 2)._assign(centers).tolist() == [1]


@pytest.mark.parametrize("init", ["plusplus", "sample"])
def test_lloyd_bit_identity_on_reseeds_and_zero_cost(init):
    # duplicates leave clusters empty, which re-seed; equal points stop at 0
    assert_matches_reference(np.array([0.0, 0.0, 0.0, 0.0, 10.0]), 3,
                             restarts=10, seed=2, init=init)
    assert_matches_reference(np.array([[0.0, 0.0]] * 6 + [[1.0, 1.0]] * 2), 4,
                             restarts=10, seed=5, init=init)
    assert_matches_reference(np.full((9, 2), 1.5), 3, restarts=10, seed=1,
                             init=init)
    assert kmeans(np.full((9, 2), 1.5), 3, restarts=10).restarts_used == 1


def _blobs(seed, n, d, K, scale):
    """Overlapping Gaussian blobs, like the simulations' embeddings."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=scale, size=(K, d))
    return centers[rng.integers(K, size=n)] + rng.standard_normal((n, d))


def assert_runs_match_reference(points, K, restarts, seed, init):
    """Every one of `restarts` runs, not only the winner, equals the row-wise
    loop's, including the runs past where kmeans stops.

    A run that takes an earlier run's outcome also takes its cost, so it
    never wins (the first run at the lowest cost does): comparing the
    winner alone would miss a wrong trace or stop on such a run.
    """
    lloyd, memo = cluster._Lloyd(points, K), {}
    sq_norms = np.sum(points ** 2, axis=1)
    for r in range(restarts):
        seq = np.random.SeedSequence([seed, r])
        cost, labels, centers, trace = lloyd.run(np.random.default_rng(seq),
                                                 init, memo)
        ref = _ref_lloyd(points, sq_norms, K, np.random.default_rng(seq),
                         init)
        assert cost == ref[0] and trace == ref[3]
        assert np.array_equal(labels, ref[1])
        assert np.array_equal(centers, ref[2])
    assert_matches_reference(points, K, restarts, seed, init)


# on overlapping blobs the restarts' paths merge, so most runs end in an
# earlier run's outcome (restart memo) and every run that reaches a fixed
# point itself skips the step confirming it
@pytest.mark.parametrize("d,K,scale", [(2, 2, 1.0), (2, 3, 2.0), (3, 3, 1.0),
                                       (3, 3, 2.0)])
def test_lloyd_bit_identity_where_restarts_merge(d, K, scale):
    assert_runs_match_reference(_blobs(10 * d + K, 300, d, K, scale), K,
                                restarts=100, seed=d, init="plusplus")


def test_merged_runs_keep_their_own_stop_test():
    # seeds near the centroids stop after step 1 (a relative gain below
    # 1e-9); seeds 100 away reach the same centers at step 1 and go on
    x = np.array([-100.0, 0.001, 100.0, 900.0, 1000.001, 1100.0])
    pts = np.column_stack([x, np.zeros_like(x)])
    assert_runs_match_reference(pts, 2, restarts=30, seed=0, init="plusplus")


# a cap at step 1 to 4 ends runs that an uncapped earlier run continued, and
# runs that merge at different steps meet the cap at different places (on
# these sets and seeds the first such merge comes at cap 4)
@pytest.mark.parametrize("cap", [1, 2, 3, 4])
@pytest.mark.parametrize("init", ["plusplus", "sample"])
def test_lloyd_bit_identity_under_the_iteration_cap(monkeypatch, cap, init):
    monkeypatch.setattr(cluster, "MAX_LLOYD_ITERS", cap)
    monkeypatch.setitem(globals(), "MAX_LLOYD_ITERS", cap)
    for d, K, scale in [(2, 2, 1.0), (2, 3, 2.0), (3, 3, 1.0)]:
        assert_runs_match_reference(_blobs(10 * d + K, 300, d, K, scale), K,
                                    restarts=100, seed=cap, init=init)
    test_lloyd_bit_identity_on_reseeds_and_zero_cost(init)


def test_restart_memo_and_fixed_point_exit_skip_assignments(monkeypatch):
    calls = {"ours": 0, "ref": 0}

    def counted(fn, name):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cluster._Lloyd, "_assign",
                        counted(cluster._Lloyd._assign, "ours"))
    monkeypatch.setitem(globals(), "_ref_assign",
                        counted(_ref_assign, "ref"))
    pts = _blobs(22, 300, 2, 2, 1.0)
    for restarts in (1, 100):
        used = kmeans(pts, 2, restarts=restarts, seed=1).restarts_used
        calls.update(ours=0, ref=0)
        assert_matches_reference(pts, 2, restarts=restarts, seed=1,
                                 init="plusplus")
        if restarts == 1:
            # the run ends at a fixed point: only its confirming step goes
            assert calls["ours"] == calls["ref"] - 1
        else:
            # more than one step per run goes: runs take earlier outcomes
            assert calls["ours"] < calls["ref"] - used


def test_restarts_at_best_counts_runs_reaching_the_winning_cost():
    # three far-apart tight clusters: every k-means++ run finds them
    rng = np.random.default_rng(4)
    pts = (np.repeat([[0.0, 0.0], [1000.0, 0.0], [0.0, 1000.0]], 20, axis=0)
           + rng.standard_normal((60, 2)))
    res = kmeans(pts, 3, restarts=25, seed=3)
    assert res.restarts_used == res.restarts_at_best == MIN_RESTARTS
    # the exact 1-D split is one run
    assert kmeans(pts[:, 0], 2, restarts=25).restarts_at_best == 1


def _run_costs(points, K, seed, runs):
    """Final cost of each of the first `runs` restarts of kmeans' stream."""
    lloyd, memo = cluster._Lloyd(points, K), {}
    return [lloyd.run(np.random.default_rng(np.random.SeedSequence([seed, r])),
                      "plusplus", memo)[0] for r in range(runs)]


def test_fewer_than_ten_restarts_all_run():
    # every run agrees on the three far-apart clusters, yet none is skipped
    rng = np.random.default_rng(4)
    pts = (np.repeat([[0.0, 0.0], [1000.0, 0.0], [0.0, 1000.0]], 20, axis=0)
           + rng.standard_normal((60, 2)))
    for restarts in range(1, 10):
        res = kmeans(pts, 3, restarts=restarts, seed=3)
        assert res.restarts_used == res.restarts_at_best == restarts


# four unit squares of integer points at unequal distances: K = 3 merges
# two of them, and the merges end at distinct exact costs
SQUARES = np.concatenate([np.array([[0, 0], [1, 0], [0, 1], [1, 1]]) + shift
                          for shift in ([0, 0], [10, 0], [0, 9], [11, 10])]
                         ).astype(float)


def test_restarts_stop_once_the_best_cost_has_three_runs():
    costs = _run_costs(SQUARES, 3, seed=19, runs=30)
    best = min(costs)
    # a worse cost has three runs before the best cost first appears, and
    # the best cost's third run is the 13th restart
    assert costs[:3] == [210.0] * 3 and costs[3] == best == 170.0
    assert [r for r, c in enumerate(costs) if c == best][:3] == [3, 11, 12]
    for cap in (13, 30, 100):
        res = kmeans(SQUARES, 3, restarts=cap, seed=19)
        assert res.restarts_used == 13 and res.restarts_at_best == 3
        assert res.cost == best
    assert_matches_reference(SQUARES, 3, restarts=30, seed=19,
                             init="plusplus")
    # below the stop, the cap ends the loop
    assert kmeans(SQUARES, 3, restarts=12, seed=19).restarts_used == 12


def test_restarts_run_to_the_cap_when_three_never_agree():
    pts = np.round(np.random.default_rng(0).random((30, 2)) * 100)
    costs = _run_costs(pts, 6, seed=0, runs=30)
    assert max(costs.count(c) for c in costs) == 2
    res = kmeans(pts, 6, restarts=30, seed=0)
    assert res.restarts_used == 30
    assert res.cost == min(costs)
    assert res.restarts_at_best == costs.count(min(costs))
    assert_matches_reference(pts, 6, restarts=30, seed=0, init="plusplus")


def test_weighted_draw_matches_generator_choice():
    for trial in range(40):
        weights = np.random.default_rng(trial).random(1 + 37 * trial)
        weights[::3] = 0.0
        if not weights.any():
            weights[-1] = 1.0
        ours = np.random.default_rng(900 + trial)
        theirs = np.random.default_rng(900 + trial)
        p = weights / weights.sum()
        assert _weighted_draw(ours, p) == theirs.choice(weights.size, p=p)
        assert ours.bit_generator.state == theirs.bit_generator.state
