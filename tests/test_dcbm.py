import hashlib
import math

import numpy as np
import pytest

from scorecd import leading_eigs
from scorecd.dcbm import (DCBMParams, ThetaPattern, block_labels, diagnostics,
                          permuted_theta, population_ratio_matrix,
                          population_spectrum, sample_adjacency)
from scorecd.errors import DegeneracyError, ModelValidityError

from conftest import build_omega, r0_vector, random_dcbm


def exp1_params(n=1000):
    return DCBMParams(K=2, A=np.array([[1.0, 0.5], [0.5, 1.0]]),
                      theta=np.full(n, 0.2), sizes=(n // 2, n // 2))


def test_build_omega_rank_one_for_single_community():
    theta = np.array([0.2, 0.3, 0.4])
    params = DCBMParams(K=1, A=np.array([[1.0]]), theta=theta, sizes=(3,))
    omega = build_omega(params, block_labels((3,)))
    assert np.allclose(omega, np.outer(theta, theta))


def test_build_omega_experiment_one_blocks():
    params = exp1_params(n=40)
    omega = build_omega(params, block_labels(params.sizes))
    assert np.allclose(omega[:20, :20], 0.04)
    assert np.allclose(omega[20:, 20:], 0.04)
    assert np.allclose(omega[:20, 20:], 0.02)
    assert omega.shape == (40, 40)


def test_omega_reconstructed_from_population_spectrum(rng):
    for _ in range(8):
        params, labels = random_dcbm(rng, n_max=96)
        omega = build_omega(params, labels)
        ps = population_spectrum(params, labels)
        recon = (ps.eta_vectors * ps.lambdas) @ ps.eta_vectors.T
        err = np.linalg.norm(recon - omega) / np.linalg.norm(omega)
        assert err < 1e-9


def test_model_validity_checks():
    with pytest.raises(ModelValidityError, match="max entry"):
        DCBMParams(K=1, A=np.array([[0.8]]), theta=np.full(4, 0.2), sizes=(4,))
    with pytest.raises(ModelValidityError, match="symmetric"):
        DCBMParams(K=2, A=np.array([[1.0, 0.2], [0.3, 1.0]]),
                   theta=np.full(4, 0.2), sizes=(2, 2))
    with pytest.raises(ModelValidityError, match=r"\(0, 1\)"):
        DCBMParams(K=1, A=np.array([[1.0]]), theta=np.full(4, 1.0), sizes=(4,))


def test_sample_empty_when_offdiagonal_rates_vanish(rng):
    # singleton communities and A = I: every cross pair has probability 0
    params = DCBMParams(K=3, A=np.eye(3), theta=np.full(3, 0.5),
                        sizes=(1, 1, 1))
    g = sample_adjacency(params, block_labels(params.sizes), rng)
    assert g.num_edges == 0


def test_sample_complete_when_rates_near_one():
    params = DCBMParams(K=1, A=np.array([[1.0]]),
                        theta=np.full(30, 1.0 - 1e-9), sizes=(30,))
    g = sample_adjacency(params, block_labels(params.sizes), 123)
    assert g.num_edges == 30 * 29 // 2


def test_sample_determinism():
    params = exp1_params(n=100)
    labels = block_labels(params.sizes)
    a = sample_adjacency(params, labels, 7)
    b = sample_adjacency(params, labels, 7)
    assert (a.adjacency != b.adjacency).nnz == 0


def repetition0_digests(preset):
    """Digests of the graph repetition 0 of the preset's harness draws."""
    from scorecd.experiments import PRESETS
    cfg = PRESETS[preset]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    params, labels = cfg.model(rng)
    adj = sample_adjacency(params, labels, rng).adjacency
    assert adj.has_canonical_format and adj.data.dtype == np.int8
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


def test_sampling_frequencies_match_block_rates():
    # Monte-Carlo oracle: block-aggregated edge frequencies over 200 draws
    # stay within 5 standard errors of the Bernoulli rates
    params = exp1_params()
    labels = block_labels(params.sizes)
    m = params.sizes[0]
    reps = 200
    counts = np.zeros(3)  # within-1, within-2, across
    for r in range(reps):
        g = sample_adjacency(params, labels, 1000 + r)
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
        ThetaPattern("two_point", {"c0": 0.5, "d0": -0.1}).generate(10)
    with pytest.raises(ValueError, match="unknown theta pattern"):
        ThetaPattern("cubic", {"c": 0.1})
    with pytest.raises(ValueError, match="parameters"):
        ThetaPattern("constant", {"x": 0.1})
    pat = ThetaPattern("linear", {"d0": 0.02, "c0": 0.5})
    a = permuted_theta(pat, 50, 11)
    b = permuted_theta(pat, 50, 11)
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
        params, labels = random_dcbm(rng, n_max=60, k_choices=(2,))
        ps = population_spectrum(params, labels)
        t = params.theta
        d1 = np.linalg.norm(t[labels.labels == 1]) / np.linalg.norm(t)
        d2 = np.linalg.norm(t[labels.labels == 2]) / np.linalg.norm(t)
        lam_p, lam_m = closed_form_two_community(
            params.A[0, 0], params.A[0, 1], params.A[1, 1], d1, d2, t @ t)
        expected = sorted([lam_p, lam_m], key=abs, reverse=True)
        assert np.allclose(ps.lambdas, expected, rtol=1e-10)


def test_population_spectrum_k1():
    theta = np.array([0.3, 0.4, 0.5])
    params = DCBMParams(K=1, A=np.array([[1.0]]), theta=theta, sizes=(3,))
    ps = population_spectrum(params, block_labels((3,)))
    assert ps.lambdas[0] == pytest.approx(theta @ theta)
    assert np.allclose(ps.eta_vectors[:, 0], theta / np.linalg.norm(theta))


def test_population_spectrum_matches_dense_oracle(rng):
    for _ in range(10):
        params, labels = random_dcbm(rng, n_max=96, k_choices=(3,))
        ps = population_spectrum(params, labels)
        omega = build_omega(params, labels)
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
                col = scaled[labels.labels == comm, k]
                assert np.abs(col - col[0]).max() < 1e-10


def test_population_spectrum_rejects_degenerate():
    params = DCBMParams(K=2, A=np.eye(2), theta=np.full(8, 0.3), sizes=(4, 4))
    with pytest.raises(DegeneracyError):
        population_spectrum(params, block_labels((4, 4)))


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
        params = DCBMParams(K=2, A=np.array([[a, b], [b, c]]), theta=theta,
                            sizes=(int(n1), int(n2)))
        labels = block_labels(params.sizes)
        try:
            ps = population_spectrum(params, labels)
        except DegeneracyError:
            continue
        ratio = ps.eta_vectors[:, 1] / ps.eta_vectors[:, 0]
        r_comm1 = ratio[labels.labels == 1][0]
        r_comm2 = ratio[labels.labels == 2][0]
        d1, d2 = np.diag(ps.D)
        r0 = r0_vector(a, b, c, d1, d2)
        assert r_comm2 / r_comm1 == pytest.approx(r0[1], rel=1e-8)
        hits += 1


def test_population_ratio_matrix_rows(rng):
    params = DCBMParams(K=2, A=np.array([[0.8, 0.4], [0.4, 0.8]]) / 0.8,
                        theta=np.full(10, 0.3), sizes=(5, 5))
    labels = block_labels(params.sizes)
    rm = population_ratio_matrix(population_spectrum(params, labels))
    col = rm.R[:, 0]
    assert np.allclose(np.abs(col), 1.0)
    assert np.allclose(col[:5], col[0])
    assert np.allclose(col[5:], -col[0])

    for _ in range(6):
        params, labels = random_dcbm(rng, n_max=80, k_choices=(2, 3, 4))
        ps = population_spectrum(params, labels)
        rm = population_ratio_matrix(ps)
        expected = ps.a_vectors[:, 1:] / ps.a_vectors[:, [0]]
        for comm in range(params.K):
            rows = rm.R[labels.labels == comm + 1]
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
    params = exp1_params(n=500)
    labels = block_labels(params.sizes)
    diag = diagnostics(params, labels)
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
        params, labels = random_dcbm(rng, n_max=64)
        diag = diagnostics(params, labels)
        assert diag.err_n == pytest.approx(
            transcribed_err_n(list(params.theta), params.n), rel=1e-12)
        assert np.isfinite(diag.err_n) and diag.err_n >= 0
        assert np.isfinite(diag.regularity_ratio)


def test_noise_norm_within_bound_smoke(rng):
    # small version of the acceptance sweep: sampled noise spectral norm
    # stays under the 4 sqrt(log n theta_max |theta|_1) envelope
    params = exp1_params(n=300)
    labels = block_labels(params.sizes)
    omega = build_omega(params, labels)
    bound = diagnostics(params, labels).wnorm_bound
    for seed in range(3):
        g = sample_adjacency(params, labels, seed)
        noise = g.adjacency.toarray() - omega
        norm = abs(leading_eigs(noise, K=1).values[0])
        assert norm <= bound
