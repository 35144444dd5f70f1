import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorecd import kmeans, leading_eigs, score_ratio
from scorecd.dcbm import population_spectrum
from scorecd.embed import npca_embed, opca_embed, scoreq_embed
from scorecd.eigen import EigenPair, Spectrum
from scorecd.errors import DegeneracyError, NumericalError
from scorecd.graph import from_edges

from conftest import build_omega, random_dcbm


def spectrum_of(vectors, values=None):
    vectors = np.asarray(vectors, dtype=float)
    if values is None:
        values = np.arange(vectors.shape[1], 0, -1, dtype=float)
    pairs = [EigenPair(value=float(v), vector=vectors[:, i], residual=0.0)
             for i, v in enumerate(values)]
    return Spectrum(pairs=pairs, tol=1e-12)


def test_proportional_second_vector_gives_constant_column():
    v1 = np.array([0.5, 0.4, 0.6, 0.3])
    spec = spectrum_of(np.column_stack([v1, -0.25 * v1]))
    rm = score_ratio(spec)
    assert np.allclose(rm.R[:, 0], -0.25)
    assert rm.truncated_count == 0
    assert rm.T_n == pytest.approx(math.log(4))


def test_truncation_clips_and_counts():
    v1 = np.array([1.0, 1e-3, 1.0, 1.0])
    v2 = np.array([0.5, 1.0, -0.5, 0.1])
    rm = score_ratio(spectrum_of(np.column_stack([v1, v2])), T_n=10.0)
    assert rm.truncated_count == 1  # the 1000x ratio
    assert np.abs(rm.R).max() <= 10.0
    assert rm.R[1, 0] == 10.0
    # infinite threshold keeps the raw ratio
    raw = score_ratio(spectrum_of(np.column_stack([v1, v2])), T_n=math.inf)
    assert raw.R[1, 0] == pytest.approx(1000.0)
    assert raw.truncated_count == 0


@pytest.mark.parametrize("T_n", [5.0, math.inf])
def test_tiny_denominators_follow_the_quotient_rule(T_n):
    # denominators of both signs far below 1e-300, one of 1e-299 and a zero
    # numerator: each entry is the quotient (+-inf on overflow), clipped
    v1 = np.array([1e-310, -1e-310, 1e-299, 0.6, 0.8])
    v2 = np.array([0.5, 0.5, 0.5, 0.3, -0.4])
    v3 = np.array([0.0, -0.5, -0.5, 0.6, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rm = score_ratio(spectrum_of(np.column_stack([v1, v2, v3]),
                                     values=[3.0, 2.0, 1.0]), T_n=T_n)
    big = T_n if T_n < math.inf else 5e298
    want = np.array([[T_n, 0.0], [-T_n, T_n], [big, -big],
                     [0.5, 1.0], [-0.5, 1.0]])
    assert np.array_equal(rm.R, want)
    assert rm.truncated_count == (5 if T_n < math.inf else 0)


def test_zero_denominator_is_degenerate():
    v1 = np.array([1.0, 0.0, 1.0])
    v2 = np.array([0.5, 1.0, 0.5])
    with pytest.raises(DegeneracyError, match="giant"):
        score_ratio(spectrum_of(np.column_stack([v1, v2])))


def test_mixed_sign_first_vector_is_degenerate():
    v2 = np.array([0.5, 0.5, -0.5, -0.5])
    v1 = np.array([0.5, -0.5, 0.5, -0.5])  # not a Perron vector
    with pytest.raises(DegeneracyError, match="both signs"):
        score_ratio(spectrum_of(np.column_stack([v1, v2])))
    # solver-noise zeros (a disconnected graph's Perron vector) carry no sign
    v1 = np.array([0.7, 0.7, 1e-17, -1e-17])
    assert score_ratio(spectrum_of(np.column_stack([v1, v2]))).R.shape == (4, 1)


def test_score_ratio_needs_two_eigenpairs():
    with pytest.raises(ValueError, match="at least 2 eigenpairs"):
        score_ratio(spectrum_of(np.ones((5, 1))))


def test_scoreq_unit_rows():
    spec = spectrum_of(np.array([[3.0, 4.0], [1.0, 0.0]]))
    assert np.allclose(scoreq_embed(spec, q=2)[0], [0.6, 0.8])
    assert np.allclose(scoreq_embed(spec, q=1)[0], [3 / 7, 4 / 7])
    for q in (0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            scoreq_embed(spec, q=q)


@pytest.mark.parametrize("q", [1e-3, 1e3])
def test_scoreq_norm_out_of_float_range_is_numerical_error(q):
    # q = 1e-3 takes a 3-entry row's norm past the largest float (about
    # 3^1000), q = 1e3 takes the second row's powers to 0; dividing by inf
    # or skipping a zero norm would silently make them zero points
    spec = spectrum_of(np.array([[0.3, 0.4, 0.5], [0.2, -0.1, 0.3],
                                 [0.0, 0.0, 0.0]]))
    with pytest.raises(NumericalError, match="pick a q nearer 1-2"):
        scoreq_embed(spec, q=q)


def test_scoreq_zero_rows_counted():
    spec = spectrum_of(np.array([[3.0, 4.0], [0.0, 0.0]]))
    points = scoreq_embed(spec, q=2)
    assert np.flatnonzero(~points.any(axis=1)).tolist() == [1]
    assert np.allclose(points[0], [0.6, 0.8])


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=1e6),
       q=st.floats(min_value=0.25, max_value=4.0))
def test_scoreq_scaling_invariance(scale, q):
    rng = np.random.default_rng(7)
    base = rng.standard_normal((6, 3))
    scaled = base.copy()
    scaled[2] *= scale
    a = scoreq_embed(spectrum_of(base), q)[2]
    b = scoreq_embed(spectrum_of(scaled), q)[2]
    assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_opca_points_are_the_eigenvector_matrix(rng):
    M = rng.standard_normal((30, 30))
    spec = leading_eigs((M + M.T) / 2, K=3)
    assert np.array_equal(opca_embed(spec), spec.vectors)


def test_npca_regular_graph_matches_plain_eigenvectors():
    # on a d-regular graph the normalization is a global 1/d rescale, so the
    # eigenvectors coincide with those of the raw adjacency
    import networkx as nx
    G = nx.random_regular_graph(3, 14, seed=4)
    g = from_edges(G.edges, n=14)
    assert np.all(g.degrees() == 3)
    spec = leading_eigs(g, K=2)
    # top two eigenvalues are simple here, so vectors match up to sign
    full = np.linalg.eigvalsh(g.adjacency.toarray())
    for v in spec.values:
        assert np.sum(np.abs(full - v) < 1e-6) == 1
    points = npca_embed(g, K=2)
    for k in range(2):
        a, b = points[:, k], spec.vectors[:, k]
        assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-8


def test_npca_operator_equals_row_then_column_scaling(monkeypatch):
    # preset 1, repetition 0, cut as the harness cuts it: the operator the
    # solver receives is bit for bit the 0/1 adjacency scaled by D^-1/2 on
    # the rows, then on the columns
    from scorecd import embed
    from scorecd.experiments import PRESETS
    from scorecd.dcbm import sample_adjacency
    from scorecd.graph import remove_isolated
    cfg = PRESETS["1"]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    g, _ = remove_isolated(sample_adjacency(cfg.model(rng), rng))
    seen = []
    solve = embed.eigen.leading_eigs
    monkeypatch.setattr(embed.eigen, "leading_eigs",
                        lambda op, K, seed: seen.append(op) or solve(op, K,
                                                                     seed))
    npca_embed(g, K=2)
    s = 1.0 / np.sqrt(g.degrees().astype(float))
    old = g.adjacency.astype(float).multiply(s[:, None]) \
                                   .multiply(s[None, :]).tocsr()
    for name in ("indptr", "indices", "data"):
        got, want = getattr(seen[0], name), getattr(old, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_npca_rejects_zero_degree():
    g = from_edges([(0, 1)], n=3)
    with pytest.raises(ValueError, match="isolated"):
        npca_embed(g, K=2)


def exhaustive_best_partition(points, K=2):
    """Brute force over all 2^n two-cluster assignments: (cost, labels)."""
    import itertools
    n = points.shape[0]
    best = (np.inf, None)
    for assign in itertools.product((0, 1), repeat=n):
        assign = np.array(assign)
        cost = 0.0
        for k in range(K):
            members = points[assign == k]
            if len(members):
                cost += np.sum((members - members.mean(axis=0)) ** 2)
        if cost < best[0]:
            best = (cost, assign)
    return best


def test_sign_flip_is_cost_neutral(rng):
    # negating an eigenvector flips one ratio column: an isometry, so the
    # exhaustive-optimal cost is identical and the optimal partition matches
    # up to label numbering (brute force, n <= 12)
    for _ in range(4):
        n = int(rng.integers(6, 13))
        v1 = rng.uniform(0.5, 1.5, size=n)
        v2 = rng.standard_normal(n)
        base = np.column_stack([v1, v2])
        flip = np.column_stack([v1, -v2])
        rm_a = score_ratio(spectrum_of(base), T_n=math.inf)
        rm_b = score_ratio(spectrum_of(flip), T_n=math.inf)
        cost_a, part_a = exhaustive_best_partition(rm_a.R)
        cost_b, part_b = exhaustive_best_partition(rm_b.R)
        assert cost_a == pytest.approx(cost_b, rel=1e-12, abs=1e-12)
        assert (part_a == part_b).all() or (part_a == 1 - part_b).all()
        # the production path agrees with the brute-force optimum
        ka = kmeans(rm_a.R, 2, restarts=60, seed=0)
        assert ka.cost == pytest.approx(cost_a, rel=1e-9, abs=1e-12)


def test_noiseless_ratio_matrix_has_k_distinct_rows(rng):
    # exact spectrum of the expectation matrix: ratio rows collapse to the
    # K community values a_{k+1}(l)/a_1(l), pairwise at least sqrt(2) apart
    for _ in range(5):
        params = random_dcbm(rng, n_max=80, k_choices=(2, 3))
        omega = build_omega(params)
        spec = leading_eigs(omega, K=params.K)
        rm = score_ratio(spec, T_n=math.inf)
        ps = population_spectrum(params)
        expected_rows = (ps.a_vectors[:, 1:] / ps.a_vectors[:, [0]])
        for k in range(params.K):
            rows = rm.R[params.labels == k + 1]
            assert np.allclose(rows, rows[0], atol=1e-7)
            assert np.allclose(rows[0], expected_rows[k], atol=1e-7)
        uniq = expected_rows
        for i in range(params.K):
            for j in range(i + 1, params.K):
                assert np.linalg.norm(uniq[i] - uniq[j]) >= math.sqrt(2) - 1e-9
