import itertools

import numpy as np
import pytest

from scorecd import kmeans, threshold_classify


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
    assert np.array_equal(res.labeling.labels, [1, 1, 2, 2])
    assert res.cost == 0.0


def test_k1_is_the_centroid():
    pts = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 4.0]])
    res = kmeans(pts, K=1, restarts=3, seed=0)
    assert np.allclose(res.centers[0], pts.mean(axis=0))
    assert res.cost == pytest.approx(np.sum((pts - pts.mean(axis=0)) ** 2))
    assert set(res.labeling.labels) == {1}


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
    recomputed = np.sum((pts - res.centers[res.labeling.labels - 1]) ** 2)
    assert res.cost == pytest.approx(recomputed, rel=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(res.trace, res.trace[1:]))


def test_seed_determinism(rng):
    pts = rng.standard_normal((50, 2))
    a = kmeans(pts, K=3, restarts=20, seed=42)
    b = kmeans(pts, K=3, restarts=20, seed=42)
    assert np.array_equal(a.labeling.labels, b.labeling.labels)
    assert a.cost == b.cost
    assert np.array_equal(a.centers, b.centers)


def test_labels_numbered_by_first_member(rng):
    pts = np.array([5.0, 5.1, 0.0, 0.1, 5.05])
    res = kmeans(pts, K=2, restarts=20, seed=0)
    assert res.labeling.labels[0] == 1  # node 0's cluster is called 1
    assert np.array_equal(res.labeling.labels, [1, 1, 2, 2, 1])


def test_isometry_equivariance():
    # integer points and exact isometries: distances are bit-identical, so
    # the seeded runs make identical choices on both sides
    rng = np.random.default_rng(3)
    pts = rng.integers(-20, 20, size=(40, 2)).astype(float)
    flipped = pts[:, ::-1] * np.array([1.0, -1.0]) + np.array([8.0, -3.0])
    a = kmeans(pts, K=3, restarts=15, seed=5)
    b = kmeans(flipped, K=3, restarts=15, seed=5)
    assert np.array_equal(a.labeling.labels, b.labeling.labels)
    assert a.cost == pytest.approx(b.cost, rel=1e-12)


def test_duplicate_points_allow_empty_clusters():
    pts = np.array([0.0, 0.0, 0.0, 0.0, 10.0])
    res = kmeans(pts, K=3, restarts=10, seed=2)
    assert res.cost == 0.0
    assert res.labeling.labels.max() <= 3


def test_sample_init_runs_and_is_deterministic(rng):
    pts = rng.standard_normal((30, 2))
    a = kmeans(pts, K=3, restarts=1, seed=8, init="sample")
    b = kmeans(pts, K=3, restarts=1, seed=8, init="sample")
    assert np.array_equal(a.labeling.labels, b.labeling.labels)
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


def test_threshold_classify():
    lab = threshold_classify(np.array([0.5, -0.2, 0.0, 2.0]), t=0.0)
    assert np.array_equal(lab.labels, [1, 2, 2, 1])  # strict inequality
    assert threshold_classify(np.array([1.0, 2.0]), t=0.5).labels.tolist() == [1, 1]
    assert lab.K == 2


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
    labels = res.labeling.labels
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
        assert set(res.labeling.labels) == {1}
        assert res.restarts_used == 1 and res.trace == (0.0,)


def test_exact_1d_split_beats_best_of_restarts_lloyd():
    # rounded t(2) draws (default_rng(542), n=38): best of 100 seeded Lloyd
    # runs stops two nodes away from the optimal split
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
    assert np.sum(exact.labeling.labels != lloyd.labeling.labels) == 2


# labels, restarts_used, len(trace) and cost of 20 k-means++ Lloyd restarts
# (K=3, seed 11), recorded before the loop was vectorized with bincount
LLOYD_GOLDEN = {
    2: ("121323313321313332223331322123113113232211333331211123213331313133"
        "221322111313133331333311", 20, 7, 113.04563054500767),
    3: ("111122211113131312312121211111212311131111212111213332111213122111"
        "131331112111333313213311", 20, 7, 491.4088107396823),
}


@pytest.mark.parametrize("d", [2, 3])
def test_lloyd_matches_recorded_runs(d):
    rng = np.random.default_rng(5 + d)
    centers = rng.normal(scale=2.0, size=(4, d))
    pts = centers[rng.integers(4, size=90)] + rng.standard_normal((90, d))
    res = kmeans(pts, K=3, restarts=20, seed=11)
    labels, used, iters, cost = LLOYD_GOLDEN[d]
    assert "".join(map(str, res.labeling.labels)) == labels
    assert res.restarts_used == used
    assert len(res.trace) == iters
    assert res.cost == pytest.approx(cost, rel=1e-12)
