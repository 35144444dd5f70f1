import hashlib
import math
import warnings

import numpy as np
import pytest

from scorecd import dcbm, leading_eigs
from scorecd.dcbm import (DCBMParams, ThetaPattern, block_labels, diagnostics,
                          permuted_theta, population_ratio_matrix,
                          population_spectrum, sample_adjacency)
from scorecd.errors import DegeneracyError, ModelValidityError
from scorecd.graph import from_edges

from conftest import build_omega, r0_vector, random_dcbm


def exp1_params(n=1000):
    return DCBMParams(A=np.array([[1.0, 0.5], [0.5, 1.0]]),
                      theta=np.full(n, 0.2),
                      labels=block_labels((n // 2, n // 2)))


def one_community(theta):
    return DCBMParams(A=np.array([[1.0]]), theta=theta,
                      labels=np.ones(len(theta), dtype=np.int64))


def test_build_omega_rank_one_for_single_community():
    theta = np.array([0.2, 0.3, 0.4])
    omega = build_omega(one_community(theta))
    assert np.allclose(omega, np.outer(theta, theta))


def test_build_omega_experiment_one_blocks():
    params = exp1_params(n=40)
    omega = build_omega(params)
    assert np.allclose(omega[:20, :20], 0.04)
    assert np.allclose(omega[20:, 20:], 0.04)
    assert np.allclose(omega[:20, 20:], 0.02)
    assert omega.shape == (40, 40)


def test_omega_reconstructed_from_population_spectrum(rng):
    for _ in range(8):
        params = random_dcbm(rng, n_max=96)
        omega = build_omega(params)
        ps = population_spectrum(params)
        recon = (ps.eta_vectors * ps.lambdas) @ ps.eta_vectors.T
        err = np.linalg.norm(recon - omega) / np.linalg.norm(omega)
        assert err < 1e-9


def test_model_validity_checks():
    with pytest.raises(ModelValidityError, match="max entry"):
        DCBMParams(A=np.array([[0.8]]), theta=np.full(4, 0.2),
                   labels=[1, 1, 1, 1])
    with pytest.raises(ModelValidityError, match="symmetric"):
        DCBMParams(A=np.array([[1.0, 0.2], [0.3, 1.0]]),
                   theta=np.full(4, 0.2), labels=[1, 1, 2, 2])
    for bad in (1.0, math.nan):
        with pytest.raises(ModelValidityError, match=r"\(0, 1\)"):
            one_community(np.full(4, bad))


_A2 = [[1.0, 0.5], [0.5, 1.0]]
_A3 = [[1.0, 0.5, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]]


@pytest.mark.parametrize("A,labels,match", [
    (_A2, [], "one label per theta entry"),
    (_A2, [1, 1, 1, 2, 2], "one label per theta entry"),
    (_A2, [0, 1, 1, 1, 2, 2, 2], "one label per theta entry"),
    (_A2, [0, 1, 1, 2, 2, 2], r"in 1\.\.2"),
    (_A2, [-1, 1, 1, 2, 2, 2], r"in 1\.\.2"),
    (_A2, [1, 1, 1, 2, 2, 3], r"in 1\.\.2"),
    (_A2, [1, 1, 1.5, 2, 2, 2], r"integers in 1\.\.2"),
    (_A2, [2, 2, 2, 2, 2, 2], "community 1 has no member"),
    (_A3, [1, 1, 1, 2, 2, 2], "community 3 has no member"),
    ([[1.0, 0.5]], [1, 1, 1, 1, 1, 1], "square"),
], ids=["empty", "short", "long", "zero", "negative", "K+1", "fraction",
        "no member", "no highest member", "non-square A"])
@pytest.mark.parametrize("call", [
    lambda p: sample_adjacency(p, np.random.default_rng(0)),
    population_spectrum, diagnostics],
    ids=["sample_adjacency", "population_spectrum", "diagnostics"])
def test_labels_must_match_the_declared_community_sizes(call, A, labels,
                                                        match):
    # every entry point runs on a model whose labels fit A and theta; one
    # whose labels do not cannot be built, so no entry point ever sees it
    theta = np.linspace(0.1, 0.6, 6)
    call(DCBMParams(A=_A2, theta=theta, labels=[1, 1, 1, 2, 2, 2]))
    with pytest.raises(ModelValidityError, match=match):
        DCBMParams(A=A, theta=theta, labels=labels)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e30],
                         ids=["nan", "inf", "-inf", "1e30"])
def test_labels_with_no_int64_value_are_model_errors(bad):
    # checked before the cast, which would warn about an invalid value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelValidityError, match=r"integers in 1\.\.1"):
            DCBMParams(A=[[1.0]], theta=[0.5, 0.5], labels=[bad, 1])


def test_sample_empty_when_offdiagonal_rates_vanish(rng):
    # singleton communities and A = I: every cross pair has probability 0
    params = DCBMParams(A=np.eye(3), theta=np.full(3, 0.5), labels=[1, 2, 3])
    g = sample_adjacency(params, rng)
    assert g.num_edges == 0


def test_sample_complete_when_rates_near_one():
    params = one_community(np.full(30, 1.0 - 1e-9))
    g = sample_adjacency(params, np.random.default_rng(123))
    assert g.num_edges == 30 * 29 // 2


def test_sample_determinism():
    params = exp1_params(n=100)
    a = sample_adjacency(params, np.random.default_rng(7))
    b = sample_adjacency(params, np.random.default_rng(7))
    assert (a.adjacency != b.adjacency).nnz == 0


def repetition0_digests(preset):
    """Digests of the graph repetition 0 of the preset's harness draws."""
    from scorecd.experiments import PRESETS
    cfg = PRESETS[preset]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    adj = sample_adjacency(cfg.model(rng), rng).adjacency
    assert adj.has_canonical_format and adj.data.dtype == np.int8
    assert adj.indptr.dtype == adj.indices.dtype == np.int32
    digests = {}
    for name in ("indptr", "indices", "data"):
        arr = np.asarray(getattr(adj, name), dtype=np.int64)
        digests[name] = hashlib.sha256(arr.tobytes()).hexdigest()[:16]
    return digests


def test_sample_golden_digest():
    # preset 1, repetition 0 of the experiment harness's stream: the digests
    # pin the graph every simulation table is computed from
    assert repetition0_digests("1") == {"indptr": "168bdd962efe0aa3",
                                        "indices": "58d01b94b35051bd",
                                        "data": "800514c4f24d8812"}


def test_sample_golden_digest_k3():
    # the same for preset 2d (K = 3), whose rows gather from three A rows
    assert repetition0_digests("2d") == {"indptr": "d14c3ab38639e213",
                                         "indices": "4c4e4d257a55dadf",
                                         "data": "3c762713fa849a07"}


def row_loop_sample(p, rng):
    """Reference sampler: one rng.random call per upper-triangle row."""
    n = p.n
    lab0 = p.labels - 1
    theta = p.theta
    a_rows = p.A[:, lab0]  # a_rows[k, j] = A[k, lab0[j]]
    counts, cols = [], []
    for i, k in enumerate(lab0[:-1].tolist()):
        probs = theta[i] * theta[i + 1:] * a_rows[k, i + 1:]
        hits = np.nonzero(rng.random(n - 1 - i) < probs)[0]
        counts.append(hits.size)
        cols.append(hits + (i + 1))
    pairs = (np.column_stack([np.repeat(np.arange(n - 1), counts),
                              np.concatenate(cols)])
             if cols else ())
    return from_edges(pairs, n)


def assert_same_draw(params, seed):
    """The sampler and the row loop give the same CSR arrays and leave
    equally seeded generators in the same state."""
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    ref = row_loop_sample(params, rng_ref).adjacency
    new = sample_adjacency(params, rng_new).adjacency
    for name in ("indptr", "indices", "data"):
        a, b = getattr(ref, name), getattr(new, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_uniform_stream_survives_blocking():
    # the property the blocked sampler rests on: one call of a + b uniforms
    # yields the bits and the final state of a call of a, then one of b
    one, two = np.random.default_rng(5), np.random.default_rng(5)
    split = np.concatenate([two.random(3), two.random(1000), two.random(1)])
    assert np.array_equal(one.random(1004), split)
    assert one.bit_generator.state == two.bit_generator.state


@pytest.mark.parametrize("preset", ["1", "2a", "2b", "2c", "2d", "3", "4a",
                                    "4b", "4c"])
def test_sample_matches_row_loop_on_presets(preset):
    from scorecd.experiments import PRESETS
    cfg = PRESETS[preset]
    for seed in (3, 17, 2024):
        assert_same_draw(cfg.model(np.random.default_rng(seed)), seed)


def test_sample_matches_row_loop_on_edge_shapes(rng):
    one = np.array([[1.0]])
    cases = [one_community(np.full(n, 0.5)) for n in (1, 2, 3)]
    cases.append(DCBMParams(A=np.eye(2), theta=np.full(3, 0.9),
                            labels=[1, 2, 2]))
    cases.append(DCBMParams(A=np.eye(3), theta=rng.uniform(0.1, 0.9, 60),
                            labels=block_labels((10, 20, 30))))
    # zero off-diagonal blocks, above; theta near 1 and zero A(2, 2), below
    cases.append(one_community(np.full(40, 1.0 - 1e-12)))
    cases.append(DCBMParams(A=[[0.3, 1.0], [1.0, 0.0]],
                            theta=1.0 - rng.uniform(1e-15, 1e-3, 50),
                            labels=block_labels((25, 25))))
    for params in cases:
        for seed in range(4):
            assert_same_draw(params, seed)
    for _ in range(20):
        params = random_dcbm(rng, n_max=120)
        assert_same_draw(params, int(rng.integers(1 << 30)))
        # labels need not come in contiguous blocks
        shuffled = DCBMParams(A=params.A, theta=params.theta,
                              labels=rng.permutation(params.labels))
        assert_same_draw(shuffled, int(rng.integers(1 << 30)))


@pytest.mark.parametrize("block", [1, 7, 100])
def test_sample_matches_row_loop_with_rows_longer_than_a_block(
        monkeypatch, block):
    monkeypatch.setattr(dcbm, "_BLOCK_ENTRIES", block)
    params = DCBMParams(A=np.array([[1.0, 0.5], [0.5, 0.8]]),
                        theta=np.linspace(0.05, 0.95, 150),
                        labels=block_labels((70, 80)))
    for seed in range(3):
        assert_same_draw(params, seed)


def test_sampling_frequencies_match_block_rates():
    # Monte-Carlo oracle: block-aggregated edge frequencies over 200 draws
    # stay within 5 standard errors of the Bernoulli rates
    params = exp1_params()
    m = params.n // 2
    reps = 200
    counts = np.zeros(3)  # within-1, within-2, across
    for r in range(reps):
        g = sample_adjacency(params, np.random.default_rng(1000 + r))
        a = g.adjacency
        counts[0] += a[:m, :m].nnz / 2
        counts[1] += a[m:, m:].nnz / 2
        counts[2] += a[:m, m:].nnz
    pair_counts = np.array([m * (m - 1) / 2, m * (m - 1) / 2, m * m]) * reps
    probs = np.array([0.04, 0.04, 0.02])
    freq = counts / pair_counts
    se = np.sqrt(probs * (1 - probs) / pair_counts)
    assert np.all(np.abs(freq - probs) <= 5 * se)


def test_theta_patterns():
    const = ThetaPattern("constant", {"c": 0.2}).generate(5)
    assert np.allclose(const, 0.2)
    lin = ThetaPattern("linear", {"d0": 0.02, "c0": 0.5}).generate(1000)
    assert lin.min() == pytest.approx(0.02048)
    assert lin.max() == pytest.approx(0.5)
    two = ThetaPattern("two_point", {"c0": 0.5, "d0": 0.02}).generate(4)
    assert sorted(two) == [0.02, 0.02, 0.5, 0.5]
    quad = ThetaPattern("quadratic", {"d0": 0.025, "c0": 0.5}).generate(1200)
    assert np.allclose(quad, 0.025 + 0.475 * (np.arange(1, 1201) / 1200) ** 2)
    off = ThetaPattern("power2_offset", {"a": 0.015, "b": 0.785}).generate(9)
    assert np.allclose(off, 0.015 + 0.785 * (np.arange(1, 10) / 9) ** 2)


def test_theta_pattern_validity_and_permutation():
    with pytest.raises(ModelValidityError):
        ThetaPattern("linear", {"d0": 0.02, "c0": 1.0}).generate(10)
    with pytest.raises(ModelValidityError):
        ThetaPattern("constant", {"c": 1.2}).generate(10)
    with pytest.raises(ModelValidityError):
        ThetaPattern("constant", {"c": math.nan}).generate(10)
    with pytest.raises(ModelValidityError):
        ThetaPattern("two_point", {"c0": 0.5, "d0": -0.1}).generate(10)
    with pytest.raises(ValueError, match="unknown theta pattern"):
        ThetaPattern("cubic", {"c": 0.1})
    with pytest.raises(ValueError, match="parameters"):
        ThetaPattern("constant", {"x": 0.1})
    pat = ThetaPattern("linear", {"d0": 0.02, "c0": 0.5})
    a = permuted_theta(pat, 50, np.random.default_rng(11))
    b = permuted_theta(pat, 50, np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert sorted(a) == pytest.approx(sorted(pat.generate(50)))
    assert not np.array_equal(a, pat.generate(50))  # actually permuted


def closed_form_two_community(a, b, c, d1, d2, theta_sq):
    mid = a * d1 ** 2 + c * d2 ** 2
    disc = math.sqrt((a * d1 ** 2 - c * d2 ** 2) ** 2
                     + 4 * b ** 2 * d1 ** 2 * d2 ** 2)
    return 0.5 * theta_sq * (mid + disc), 0.5 * theta_sq * (mid - disc)


def test_population_spectrum_two_communities_closed_form(rng):
    for _ in range(10):
        params = random_dcbm(rng, n_max=60, k_choices=(2,))
        ps = population_spectrum(params)
        t, labels = params.theta, params.labels
        d1 = np.linalg.norm(t[labels == 1]) / np.linalg.norm(t)
        d2 = np.linalg.norm(t[labels == 2]) / np.linalg.norm(t)
        lam_p, lam_m = closed_form_two_community(
            params.A[0, 0], params.A[0, 1], params.A[1, 1], d1, d2, t @ t)
        expected = sorted([lam_p, lam_m], key=abs, reverse=True)
        assert np.allclose(ps.lambdas, expected, rtol=1e-10)


def test_population_spectrum_k1():
    theta = np.array([0.3, 0.4, 0.5])
    ps = population_spectrum(one_community(theta))
    assert ps.lambdas[0] == pytest.approx(theta @ theta)
    assert np.allclose(ps.eta_vectors[:, 0], theta / np.linalg.norm(theta))


def test_population_spectrum_matches_dense_oracle(rng):
    for _ in range(10):
        params = random_dcbm(rng, n_max=96, k_choices=(3,))
        ps = population_spectrum(params)
        omega = build_omega(params)
        vals, vecs = np.linalg.eigh(omega)
        order = sorted(range(len(vals)),
                       key=lambda i: (-abs(vals[i]), vals[i] < 0))[:params.K]
        for k, idx in enumerate(order):
            assert ps.lambdas[k] == pytest.approx(vals[idx], rel=1e-10)
            v = vecs[:, idx]
            got = ps.eta_vectors[:, k]
            assert min(np.linalg.norm(got - v), np.linalg.norm(got + v)) < 1e-8
        # eigenvector structure: eta_k / theta constant on every community
        scaled = ps.eta_vectors / params.theta[:, None]
        for k in range(params.K):
            for comm in range(1, params.K + 1):
                col = scaled[params.labels == comm, k]
                assert np.abs(col - col[0]).max() < 1e-10


def test_population_spectrum_rejects_degenerate():
    params = DCBMParams(A=np.eye(2), theta=np.full(8, 0.3),
                        labels=block_labels((4, 4)))
    with pytest.raises(DegeneracyError):
        population_spectrum(params)


def test_r0_symmetric_cases():
    assert r0_vector(0.7, 0.3, 0.7, 0.6, 0.6)[1] == pytest.approx(-1.0)
    v = r0_vector(1.0, 0.5, 1.0, 1 / math.sqrt(2), 1 / math.sqrt(2))
    assert v[0] == 1.0
    assert v[1] == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        r0_vector(1.0, 0.0, 1.0, 0.7, 0.7)
    with pytest.raises(ValueError):
        r0_vector(0.6, 0.6, 0.6, 0.7, 0.7)  # a c == b^2


def test_r0_matches_population_eigenvector_ratio(rng):
    # 1000 random parameter draws against the population-spectrum oracle
    hits = 0
    while hits < 1000:
        a, b, c = rng.uniform(0.05, 1.0, size=3)
        scale = max(a, b, c)
        a, b, c = a / scale, b / scale, c / scale
        if abs(a * c - b * b) < 1e-6:
            continue
        n1, n2 = rng.integers(3, 30, size=2)
        theta = rng.uniform(0.1, 0.9, size=n1 + n2)
        labels = block_labels((n1, n2))
        params = DCBMParams(A=np.array([[a, b], [b, c]]), theta=theta,
                            labels=labels)
        try:
            ps = population_spectrum(params)
        except DegeneracyError:
            continue
        ratio = ps.eta_vectors[:, 1] / ps.eta_vectors[:, 0]
        r_comm1 = ratio[labels == 1][0]
        r_comm2 = ratio[labels == 2][0]
        d1, d2 = np.diag(ps.D)
        r0 = r0_vector(a, b, c, d1, d2)
        assert r_comm2 / r_comm1 == pytest.approx(r0[1], rel=1e-8)
        hits += 1


def test_population_ratio_matrix_rows(rng):
    params = DCBMParams(A=np.array([[0.8, 0.4], [0.4, 0.8]]) / 0.8,
                        theta=np.full(10, 0.3), labels=block_labels((5, 5)))
    col = population_ratio_matrix(population_spectrum(params))[:, 0]
    assert np.allclose(np.abs(col), 1.0)
    assert np.allclose(col[:5], col[0])
    assert np.allclose(col[5:], -col[0])

    for _ in range(6):
        params = random_dcbm(rng, n_max=80, k_choices=(2, 3, 4))
        ps = population_spectrum(params)
        R = population_ratio_matrix(ps)
        expected = ps.a_vectors[:, 1:] / ps.a_vectors[:, [0]]
        for comm in range(params.K):
            rows = R[params.labels == comm + 1]
            assert np.allclose(rows, expected[comm], atol=1e-9)
        for i in range(params.K):
            for j in range(i + 1, params.K):
                dist = np.linalg.norm(expected[i] - expected[j])
                assert dist >= math.sqrt(2) - 1e-9


def transcribed_err_n(theta, n):
    """Second, independent transcription of the composite error quantity."""
    norm2 = sum(t * t for t in theta)
    norm3cubed = sum(t ** 3 for t in theta)
    inv = sum(1.0 / t for t in theta)
    l1 = sum(theta)
    return (norm3cubed / norm2 ** 3) * (
        inv + (math.log(n) / min(theta)) * (l1 / norm2) ** 2)


def test_diagnostics_constant_theta_and_err_n(rng):
    diag = diagnostics(exp1_params(n=500))
    t, n = 0.2, 500
    expected_snr = t * math.sqrt(n / math.log(n))
    assert diag.osnr == pytest.approx(expected_snr, rel=1e-12)
    assert diag.nsnr == pytest.approx(expected_snr, rel=1e-12)
    assert diag.osnr == pytest.approx(diag.nsnr)
    assert diag.osc == pytest.approx(1.0)
    assert diag.eigengap == pytest.approx(0.5)
    assert diag.wnorm_bound == pytest.approx(
        4 * math.sqrt(math.log(n) * 0.2 * 0.2 * n))

    for _ in range(5):
        params = random_dcbm(rng, n_max=64)
        diag = diagnostics(params)
        assert diag.err_n == pytest.approx(
            transcribed_err_n(list(params.theta), params.n), rel=1e-12)
        assert np.isfinite(diag.err_n) and diag.err_n >= 0
        assert np.isfinite(diag.regularity_ratio)


def test_noise_norm_within_bound_smoke(rng):
    # small version of the acceptance sweep: sampled noise spectral norm
    # stays under the 4 sqrt(log n theta_max |theta|_1) envelope
    params = exp1_params(n=300)
    omega = build_omega(params)
    bound = diagnostics(params).wnorm_bound
    for seed in range(3):
        g = sample_adjacency(params, np.random.default_rng(seed))
        noise = g.adjacency.toarray() - omega
        norm = abs(leading_eigs(noise, K=1).values[0])
        assert norm <= bound
