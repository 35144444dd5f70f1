import numpy as np
import pytest
import scipy.sparse as sp

from scorecd import eigen, leading_eigs
from scorecd.dcbm import DCBMParams, block_labels, sample_adjacency
from scorecd.errors import NonConvergenceError
from scorecd.graph import from_edges, giant_component

from conftest import build_omega


def dense_oracle(M, K):
    """Independent reference: full symmetric eigendecomposition + selection."""
    vals, vecs = np.linalg.eigh(M)
    order = sorted(range(len(vals)), key=lambda i: (-abs(vals[i]), vals[i] < 0))
    return vals[order[:K]], vecs[:, order[:K]]


def align_sign(u, v):
    return u if u @ v >= 0 else -u


def test_swap_matrix_pairs():
    spec = leading_eigs(np.array([[0.0, 1.0], [1.0, 0.0]]), K=2)
    assert np.allclose(spec.values, [1.0, -1.0])  # positive first on |1|=|-1|
    # sign convention: lowest-index entry decides on |entry| ties
    assert np.allclose(spec.pairs[0].vector, np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(spec.pairs[1].vector, np.array([1, -1]) / np.sqrt(2))


def closed_form_two_community(a, b, c, d1, d2, theta_sq):
    """Two-community eigenvalues, transcribed directly from the closed form."""
    mid = a * d1 ** 2 + c * d2 ** 2
    disc = np.sqrt((a * d1 ** 2 - c * d2 ** 2) ** 2 + 4 * b ** 2 * d1 ** 2 * d2 ** 2)
    return 0.5 * theta_sq * (mid + disc), 0.5 * theta_sq * (mid - disc)


def test_two_community_expectation_matches_closed_form(rng):
    for _ in range(10):
        b = rng.uniform(0.1, 0.9)
        A = np.array([[1.0, b], [b, rng.uniform(0.2, 1.0)]])
        A /= A.max()
        theta = rng.uniform(0.1, 0.9, size=60)
        labels = block_labels((25, 35))
        omega = build_omega(DCBMParams(A=A, theta=theta, labels=labels))
        spec = leading_eigs(omega, K=2)
        t1 = np.linalg.norm(theta[labels == 1])
        t2 = np.linalg.norm(theta[labels == 2])
        tn = np.linalg.norm(theta)
        lam_plus, lam_minus = closed_form_two_community(
            A[0, 0], A[0, 1], A[1, 1], t1 / tn, t2 / tn, tn ** 2)
        expected = sorted([lam_plus, lam_minus], key=abs, reverse=True)
        assert np.allclose(spec.values, expected, rtol=1e-8)


@pytest.mark.parametrize("n,reps", [(8, 30), (64, 40), (128, 25),
                                    (256, 10), (512, 5)])
def test_lanczos_agrees_with_dense_oracle(n, reps, monkeypatch):
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)  # ARPACK at every n
    for rep in range(reps):
        rng = np.random.default_rng(1000 * n + rep)
        M = rng.standard_normal((n, n))
        M = (M + M.T) / 2
        K = int(rng.integers(1, 5))
        spec = leading_eigs(M, K, seed=rep)
        vals, vecs = dense_oracle(M, K)
        assert np.allclose(spec.values, vals, rtol=1e-10, atol=1e-12)
        for k in range(K):
            got = align_sign(spec.pairs[k].vector, vecs[:, k])
            assert np.linalg.norm(got - vecs[:, k]) < 1e-6


def test_residuals_and_orthogonality(rng):
    M = rng.standard_normal((700, 700))
    M = (M + M.T) / 2
    spec = leading_eigs(M, K=4, seed=3)
    V = spec.vectors
    gram = V.T @ V - np.eye(4)
    assert np.abs(gram).max() <= 1e-8
    mags = np.abs(spec.values)
    assert (mags[:-1] >= mags[1:] - 1e-12).all()  # non-increasing magnitudes
    for p in spec.pairs:
        assert abs(np.linalg.norm(p.vector) - 1) <= 1e-12
        assert p.residual <= spec.tol * max(1.0, abs(p.value))


def test_perron_on_connected_graph(rng):
    params = DCBMParams(A=np.array([[1.0, 0.6], [0.6, 1.0]]),
                        theta=rng.uniform(0.3, 0.8, size=80),
                        labels=block_labels((40, 40)))
    g = sample_adjacency(params, rng)
    giant, _ = giant_component(g)
    spec = leading_eigs(giant, K=2)
    assert spec.values[0] > 0
    assert (spec.pairs[0].vector > 0).all()


@pytest.mark.parametrize("n,cycle", [(4, False), (5, False), (12, True)])
def test_perron_pair_first_on_bipartite_ties(n, cycle):
    # +-lambda tie: rounding may make |-lambda| the larger, but the Perron
    # pair must still come first
    edges = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if cycle else [])
    spec = leading_eigs(from_edges(edges, n), K=2)
    assert spec.values[0] > 0
    assert (spec.pairs[0].vector > 0).all()
    assert spec.values[1] == pytest.approx(-spec.values[0])


def test_operator_shares_the_adjacency_index_arrays(rng):
    params = DCBMParams(A=np.array([[1.0, 0.5], [0.5, 1.0]]),
                        theta=rng.uniform(0.2, 0.6, size=60),
                        labels=block_labels((30, 30)))
    g = sample_adjacency(params, rng)
    adj = g.adjacency
    mat = eigen._as_operator(g)
    assert adj.dtype == np.int8
    assert sp.isspmatrix_csr(mat) and mat.dtype == np.float64
    assert np.shares_memory(mat.indices, adj.indices)
    assert np.shares_memory(mat.indptr, adj.indptr)
    assert np.array_equal(mat.toarray(), adj.toarray())
    normalized = adj.astype(float)
    assert eigen._as_operator(normalized) is normalized
    # a non-canonical integer CSR still has its duplicate entries summed
    dup = sp.csr_matrix((np.array([1, 1, 1], dtype=np.int32),
                         np.array([1, 1, 0]), np.array([0, 2, 3])),
                        shape=(2, 2))
    dup.has_canonical_format = False
    summed = eigen._as_operator(dup)
    assert summed.nnz == 2
    assert summed.toarray().tolist() == [[0.0, 2.0], [1.0, 0.0]]


def test_arpack_residuals_are_the_csr_products(rng, monkeypatch):
    params = DCBMParams(A=np.array([[1.0, 0.4], [0.4, 1.0]]),
                        theta=rng.uniform(0.1, 0.5, size=300),
                        labels=block_labels((150, 150)))
    g, _ = giant_component(sample_adjacency(params, rng))
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)  # ARPACK
    spec = leading_eigs(g, K=3, seed=4)
    A, V, vals = g.adjacency.astype(float), spec.vectors, spec.values
    expected = np.linalg.norm(A @ V - V * vals, axis=0)
    assert [p.residual for p in spec.pairs] == expected.tolist()


def test_argument_and_convergence_errors(rng, monkeypatch):
    M = rng.standard_normal((40, 40))
    M = (M + M.T) / 2
    with pytest.raises(ValueError):
        leading_eigs(M, K=41)
    with pytest.raises(ValueError):
        leading_eigs(M, K=0)
    # unreachable tolerance: the solver must give up and report residuals
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(eigen, "DEFAULT_TOL", 0.0)
    monkeypatch.setattr(eigen, "DEFAULT_MAX_ITER", 2)
    with pytest.raises(NonConvergenceError) as err:
        leading_eigs(M, K=2)
    assert err.value.residuals is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cutoff", [eigen.DENSE_CUTOFF, 0],
                         ids=["dense", "arpack"])
def test_non_finite_operators_raise_value_error(bad, cutoff, monkeypatch):
    # refused before either solver sees them
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", cutoff)
    tiny = np.array([[0.0, bad], [bad, 0.0]])
    M = np.zeros((40, 40))
    M[np.arange(39), np.arange(1, 40)] = M[np.arange(1, 40), np.arange(39)] = 1
    M[3, 7] = M[7, 3] = bad
    for op in (tiny, sp.csr_matrix(tiny), M, sp.csr_matrix(M),
               sp.csr_matrix(M).astype(np.float32)):
        with pytest.raises(ValueError, match="must be finite"):
            leading_eigs(op, 1)


@pytest.mark.parametrize("n, entry", [(2, 1e308), (2, -1e308), (40, 1e307),
                                      (40, 1e300)])
@pytest.mark.parametrize("cutoff", [eigen.DENSE_CUTOFF, 0],
                         ids=["dense", "arpack"])
def test_overflowing_operators_raise_value_error(n, entry, cutoff,
                                                 monkeypatch, recwarn):
    # finite entries whose products or residuals overflow: an infinite
    # eigenvalue would pass a residual bound that scales with it
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", cutoff)
    M = np.full((n, n), entry)
    for op in (M, sp.csr_matrix(M), sp.csr_matrix(M * 1j)):
        with pytest.raises(ValueError, match="must be finite"):
            leading_eigs(op, 1)
    assert not recwarn.list


@pytest.mark.parametrize("cutoff", [eigen.DENSE_CUTOFF, 0],
                         ids=["dense", "arpack"])
def test_entries_at_the_bound_solve_without_overflow(cutoff, monkeypatch,
                                                     recwarn):
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", cutoff)
    n = 40
    bound = np.sqrt(np.finfo(float).max) / (2 * n)
    for M in (np.full((n, n), bound), np.full((n, n), -bound)):
        spec = leading_eigs(sp.csr_matrix(M), 1)
        assert spec.values[0] == pytest.approx(n * M[0, 0])
        assert np.isfinite(spec.pairs[0].residual)
    assert not recwarn.list


def test_arpack_restart_budget_is_reported(monkeypatch):
    # a long cycle's clustered spectrum cannot converge in one restart
    n = 600
    g = from_edges([(i, (i + 1) % n) for i in range(n)], n)
    monkeypatch.setattr(eigen, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError, match="within 1 restarts") as err:
        leading_eigs(g, K=2)
    assert err.value.residuals.shape == (2,)


def test_restart_cap_converges_a_weak_signal_k8_graph(monkeypatch):
    # weak-signal DCBM: K = 8, n = 6000, A = 0.85 + 0.15 I, theta ~
    # U(0.02, 0.3), theta and graph drawn from one generator
    rng = np.random.default_rng(2)
    n, K = 6000, 8
    params = DCBMParams(A=0.85 + 0.15 * np.eye(K),
                        theta=rng.uniform(0.02, 0.3, n),
                        labels=block_labels((n // K,) * K))
    g, _ = giant_component(sample_adjacency(params, rng))
    leading_eigs(g, 8, seed=0)  # converges, or raises, under the default cap
    # ... but needs more than the 50 restarts of the earlier cap
    monkeypatch.setattr(eigen, "DEFAULT_MAX_ITER", 50)
    with pytest.raises(NonConvergenceError, match="within 50 restarts"):
        leading_eigs(g, 8, seed=0)


def test_lanczos_handles_disconnected_blocks(monkeypatch):
    # block-diagonal graph: the leading pairs live in different blocks
    blocks = []
    rng = np.random.default_rng(5)
    for size in (300, 200, 100):
        B = (rng.random((size, size)) < 0.1).astype(float)
        B = np.triu(B, 1)
        blocks.append(B + B.T)
    n = sum(b.shape[0] for b in blocks)
    M = np.zeros((n, n))
    at = 0
    for B in blocks:
        s = B.shape[0]
        M[at:at + s, at:at + s] = B
        at += s
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    spec = leading_eigs(M, K=3, seed=11)
    vals, _ = dense_oracle(M, 3)
    assert np.allclose(spec.values, vals, rtol=1e-9)
