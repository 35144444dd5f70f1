"""Acceptance suite: the full published-number reproduction, one criterion per test.

Each test prints a single PASS/FAIL line (visible even under captured output).
The Monte-Carlo criteria run the simulation presets at their full repetition
counts; the whole module takes roughly ten minutes of CPU.  The web-blogs
criterion needs a user-supplied edge list (see tests/conftest.py:find_polblogs)
and is skipped when the file is absent.

Criteria 3-6 also hold each preset's report to the golden record in
tests/data/experiments_record.json: `experiment <id> --json` minus
`wall_clock_s`, at the preset's default seed.  A change to the Monte-Carlo
protocol moves the record; rewrite it with
`PYTHONPATH=src python tests/test_acceptance.py` and report the moved
repetitions.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from scorecd import hamming_error, kmeans, leading_eigs, score_ratio
from scorecd.dcbm import (block_labels, diagnostics, population_ratio_matrix,
                          population_spectrum, sample_adjacency)
from scorecd.experiments import PRESETS, run_experiment
from scorecd.pipeline import run_method
from scorecd import dcbm as dcbm_mod
from scorecd import eigen as eigen_mod
from scorecd.graph import giant_component, load_edge_list, load_labels
from scorecd.cli import _load_graph
from scorecd.seeding import derived_seed

from conftest import build_omega, find_polblogs, random_dcbm


def announce(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def within(value, center, tol):
    return abs(value - center) <= tol


RECORD = Path(__file__).resolve().parent / "data" / "experiments_record.json"


def record_view(report):
    """`experiment <id> --json` minus wall_clock_s, as parsed JSON."""
    view = json.loads(report.to_json())
    del view["wall_clock_s"]
    return view


def moved(want, got, path=""):
    """The fields, and the list indices (repetitions) within them, where
    `got` differs from `want`."""
    if isinstance(want, dict) and isinstance(got, dict):
        return [m for key in sorted(want.keys() | got.keys())
                for m in moved(want.get(key), got.get(key), f"{path}/{key}")]
    if (isinstance(want, list) and isinstance(got, list)
            and len(want) == len(got)):
        at = [i for i, (a, b) in enumerate(zip(want, got)) if a != b]
        return [f"{path} at index {at}"] if at else []
    return [] if want == got else [f"{path}: {want!r} -> {got!r}"]


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def assert_recorded(record, *reports):
    for rep in reports:
        diff = moved(record["presets"][rep.config.id], record_view(rep))
        assert not diff, (
            f"preset {rep.config.id} left the record (made with numpy "
            f"{record['numpy']}, scipy {record['scipy']}; running "
            f"{np.__version__}, {scipy.__version__}): " + "; ".join(diff))


# --------------------------------------------------------------------------
# criterion 1: karate club exactness
# --------------------------------------------------------------------------

def test_criterion_1_karate_exactness(capsys):
    t0 = time.perf_counter()
    g_raw, label_file = _load_graph("builtin:karate")
    g, _ = giant_component(g_raw)
    truth, _ = load_labels(label_file, g.original_ids)
    spectrum = leading_eigs(g, 2, seed=derived_seed(0, "eigs"))
    km = run_method(g, spectrum, "score", 2, seed=0)
    km_err = hamming_error(km.labels, truth, 2).mismatches
    th = run_method(g, spectrum, "score", 2, threshold=0.0)
    th_err = hamming_error(th.labels, truth, 2).mismatches
    elapsed = time.perf_counter() - t0
    ok = km_err == 1 and th_err == 1 and elapsed < 1.0
    announce(capsys, "criterion 1 (karate exactness)", ok,
             f"k-means errors={km_err} (want 1), t=0 errors={th_err} (want 1), "
             f"runtime {elapsed:.2f}s < 1s")


# --------------------------------------------------------------------------
# criterion 2: web blogs (needs the user-supplied polblogs edge list)
# --------------------------------------------------------------------------

def test_criterion_2_web_blogs(capsys):
    edge_path, label_path = find_polblogs()
    if edge_path is None:
        pytest.skip("polblogs edge list not supplied; criteria 3-9 carry "
                    "acceptance (drop polblogs.txt into tests/data or set "
                    "SCORE_DATA_DIR)")
    t0 = time.perf_counter()
    with open(edge_path) as fh:
        g_raw = load_edge_list(fh)
    g, _ = giant_component(g_raw)
    size_ok = g.n == 1222 and g.num_edges == 16714
    if label_path is None:
        announce(capsys, "criterion 2 (web blogs)", size_ok,
                 f"giant component n={g.n} (want 1222), edges={g.num_edges} "
                 "(want 16714); labels file absent, error counts skipped")
        return
    with open(label_path) as fh:
        truth, _ = load_labels(fh, g.original_ids)
    spectrum = leading_eigs(g, 2, seed=derived_seed(0, "eigs"))

    def errors(**kw):
        res = run_method(g, spectrum, "score", 2, seed=0, **kw)
        return hamming_error(res.labels, truth, 2).mismatches

    km = errors()
    t_zero = errors(threshold=0.0)
    t_ideal = errors(threshold=-0.6)
    opca = hamming_error(
        run_method(g, spectrum, "opca", 2, seed=0).labels, truth,
        2).mismatches
    npca = hamming_error(
        run_method(g, spectrum, "npca", 2, seed=0).labels, truth,
        2).mismatches
    elapsed = time.perf_counter() - t0
    ok = (size_ok and 55 <= km <= 62 and within(t_zero, 82, 2)
          and within(t_ideal, 55, 2) and within(opca, 437, 15)
          and within(npca, 600, 20) and elapsed < 30)
    announce(capsys, "criterion 2 (web blogs)", ok,
             f"n={g.n}/1222 edges={g.num_edges}/16714 kmeans={km} (55..62) "
             f"t0={t_zero} (82+-2) t-0.6={t_ideal} (55+-2) opca={opca} "
             f"(437+-15) npca={npca} (600+-20), {elapsed:.1f}s < 30s")


# --------------------------------------------------------------------------
# criteria 3-6: the simulation presets at published repetition counts
# --------------------------------------------------------------------------

def test_criterion_3_experiment_1(capsys, record):
    t0 = time.perf_counter()
    rep = run_experiment(PRESETS["1"])
    elapsed = time.perf_counter() - t0
    checks = [
        ("score", rep.means["score"], 0.058, 0.004),
        ("opca", rep.means["opca"], 0.058, 0.004),
        ("npca", rep.means["npca"], 0.055, 0.005),
    ]
    ok = all(within(v, c, tol) for _, v, c, tol in checks) and elapsed < 300
    detail = " ".join(f"{m}={v:.4f} ({c}+-{tol})" for m, v, c, tol in checks)
    announce(capsys, "criterion 3 (experiment 1, 50 reps)", ok,
             f"{detail}, {elapsed:.0f}s < 300s")
    assert_recorded(record, rep)


def test_criterion_4_experiment_2(capsys, record):
    t0 = time.perf_counter()
    windows = {
        "2a": {"score": (0.107, 0.005), "score1": (0.107, 0.005),
               "score2": (0.107, 0.005)},
        "2b": {"score": (0.054, 0.005), "score1": (0.054, 0.005),
               "score2": (0.054, 0.005)},
        "2c": {"score": (0.112, 0.005), "score1": (0.111, 0.005),
               "score2": (0.111, 0.005)},
        "2d": {"score1": (0.071, 0.005), "score2": (0.071, 0.005)},
    }
    details, ok, reports = [], True, []
    for pid, cells in windows.items():
        rep = run_experiment(PRESETS[pid])
        reports.append(rep)
        for method, (center, tol) in cells.items():
            got = rep.means[method]
            ok &= within(got, center, tol)
            details.append(f"{pid}/{method}={got:.4f} ({center}+-{tol})")
        if pid == "2d":
            got = rep.means["score"]
            ok &= got <= 0.13  # large published spread; mean-or-better gate
            details.append(f"2d/score={got:.4f} (<=0.13)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1200
    announce(capsys, "criterion 4 (experiments 2a-2d, 100 reps)", ok,
             " ".join(details) + f", {elapsed:.0f}s < 1200s")
    assert_recorded(record, *reports)


def test_criterion_5_experiment_3(capsys, record):
    t0 = time.perf_counter()
    rep = run_experiment(PRESETS["3"])
    elapsed = time.perf_counter() - t0
    checks = [
        ("opca", rep.means["opca"], 0.378, 0.03),
        ("npca", rep.means["npca"], 0.165, 0.06),
        ("score2", rep.means["score2"], 0.0695, 0.005),
    ]
    ok = all(within(v, c, tol) for _, v, c, tol in checks) and elapsed < 300
    detail = " ".join(f"{m}={v:.4f} ({c}+-{tol})" for m, v, c, tol in checks)
    announce(capsys, "criterion 5 (experiment 3, 25 reps)", ok,
             f"{detail}, {elapsed:.0f}s < 300s")
    assert_recorded(record, rep)


def test_criterion_6_experiment_4(capsys, record):
    t0 = time.perf_counter()
    windows = {
        "4a": {"score": (0.043, 0.01), "opca": (0.066, 0.02)},
        "4b": {"score": (0.140, 0.01), "opca": (0.292, 0.02)},
        "4c": {"score": (0.130, 0.01), "opca": (0.254, 0.02)},
    }
    details, ok, reports = [], True, []
    for pid, cells in windows.items():
        rep = run_experiment(PRESETS[pid])
        reports.append(rep)
        for method, (center, tol) in cells.items():
            got = rep.means[method]
            ok &= within(got, center, tol)
            details.append(f"{pid}/{method}={got:.4f} ({center}+-{tol})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    announce(capsys, "criterion 6 (experiments 4a-4c, 50 reps)", ok,
             " ".join(details) + f", {elapsed:.0f}s < 600s")
    assert_recorded(record, *reports)


# --------------------------------------------------------------------------
# criteria 7-8: closed-form oracle equivalence and noiseless recovery
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_instances():
    rng = np.random.default_rng(777)
    return [random_dcbm(rng, n_max=256, k_choices=(1, 2, 3, 4))
            for _ in range(200)]


def test_criterion_7_population_oracle(capsys, oracle_instances):
    worst_val, worst_vec = 0.0, 0.0
    for params in oracle_instances:
        ps = population_spectrum(params)
        omega = build_omega(params)
        vals, vecs = np.linalg.eigh(omega)
        order = sorted(range(len(vals)),
                       key=lambda i: (-abs(vals[i]), vals[i] < 0))[:params.K]
        for k, idx in enumerate(order):
            rel = abs(ps.lambdas[k] - vals[idx]) / max(1e-300, abs(vals[idx]))
            worst_val = max(worst_val, rel)
            v = vecs[:, idx]
            got = ps.eta_vectors[:, k]
            if got @ v < 0:
                v = -v
            worst_vec = max(worst_vec, float(np.linalg.norm(got - v)))
    ok = worst_val <= 1e-10 and worst_vec <= 1e-8
    announce(capsys, "criterion 7 (closed-form spectrum vs dense oracle)", ok,
             f"200 instances, worst eigenvalue rel err {worst_val:.2e} "
             f"(<=1e-10), worst eigenvector err {worst_vec:.2e} (<=1e-8)")


def test_criterion_8_noiseless_recovery(capsys, oracle_instances):
    tested, failures = 0, 0
    for params in oracle_instances:
        ps = population_spectrum(params)
        if params.K > 1 and dcbm_mod.dad_eigengap(ps.dad) < 0.05:
            continue
        tested += 1
        if params.K == 1:
            continue  # single community is recovered trivially
        spectrum = leading_eigs(build_omega(params), params.K)
        rm = score_ratio(spectrum, T_n=math.inf)
        km = kmeans(rm.R, params.K, restarts=50, seed=11)
        ham = hamming_error(km.labels, params.labels, params.K)
        failures += ham.mismatches != 0
    ok = failures == 0 and tested > 0
    announce(capsys, "criterion 8 (noiseless exact recovery)", ok,
             f"{tested} well-separated instances, {failures} mismatched")


# --------------------------------------------------------------------------
# criterion 9: property suites
# --------------------------------------------------------------------------

def _exhaustive_kmeans_cost(points, K):
    best = np.inf
    for assign in itertools.product(range(K), repeat=points.shape[0]):
        assign = np.array(assign)
        cost = 0.0
        for k in range(K):
            members = points[assign == k]
            if len(members):
                cost += np.sum((members - members.mean(axis=0)) ** 2)
        best = min(best, cost)
    return best


def test_criterion_9_property_suites(capsys, oracle_instances, monkeypatch):
    notes = []

    # k-means equals the exhaustive optimum on small instances
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(12):
        pts = rng.standard_normal((int(rng.integers(4, 11)),
                                   int(rng.integers(1, 3))))
        got = kmeans(pts, 2, restarts=100, seed=0).cost
        worst = max(worst, abs(got - _exhaustive_kmeans_cost(pts, 2)))
    kmeans_ok = worst <= 1e-9
    notes.append(f"kmeans-vs-exhaustive max gap {worst:.1e}")

    # permutation-minimized error equals brute force for K <= 4
    ham_ok = True
    for trial in range(20):
        trng = np.random.default_rng(trial)
        K = int(trng.integers(2, 5))
        est = trng.integers(1, K + 1, size=25)
        tru = trng.integers(1, K + 1, size=25)
        brute = min(sum(e != perm[t - 1] for e, t in zip(est, tru))
                    for perm in itertools.permutations(range(1, K + 1)))
        ham_ok &= hamming_error(est, tru, K).mismatches == brute
    notes.append(f"hamming-vs-brute ok={ham_ok}")

    # iterative and dense eigensolver paths agree up to n = 512
    eig_ok = True
    with monkeypatch.context() as patch:
        patch.setattr(eigen_mod, "DENSE_CUTOFF", 0)  # ARPACK at every n
        for n, reps in ((64, 60), (128, 30), (256, 15), (512, 5)):
            for rep in range(reps):
                erng = np.random.default_rng(9000 * n + rep)
                M = erng.standard_normal((n, n))
                M = (M + M.T) / 2
                K = int(erng.integers(1, 5))
                spec = leading_eigs(M, K, seed=rep)
                vals, vecs = np.linalg.eigh(M)
                order = sorted(range(n),
                               key=lambda i: (-abs(vals[i]), vals[i] < 0))[:K]
                eig_ok &= np.allclose(spec.values, vals[order], rtol=1e-10,
                                      atol=1e-12)
                for k, idx in enumerate(order):
                    v = vecs[:, idx]
                    got = spec.pairs[k].vector
                    if got @ v < 0:
                        v = -v
                    eig_ok &= bool(np.linalg.norm(got - v) < 1e-6)
    notes.append(f"lanczos-vs-dense (110 seeds) ok={eig_ok}")

    # Perron positivity on 100 random connected graphs
    perron_ok = True
    prng = np.random.default_rng(31)
    done = 0
    while done < 100:
        params = random_dcbm(prng, n_max=128, k_choices=(1, 2, 3))
        g = sample_adjacency(params, prng)
        giant, _ = giant_component(g)
        if giant.num_edges == 0:  # a lone node is not a graph with structure
            continue
        done += 1
        spec = leading_eigs(giant, 1)
        perron_ok &= spec.values[0] > 0 and bool((spec.pairs[0].vector > 0).all())
    notes.append(f"perron-positivity ok={perron_ok}")

    # distinct rows of the noise-free ratio matrix stay sqrt(2) apart
    dist_ok = True
    min_dist = np.inf
    for params in oracle_instances:
        if params.K < 2:
            continue
        R = population_ratio_matrix(population_spectrum(params))
        rows = R[np.sort(np.unique(params.labels, return_index=True)[1])]
        for i in range(params.K):
            for j in range(i + 1, params.K):
                d = float(np.linalg.norm(rows[i] - rows[j]))
                min_dist = min(min_dist, d)
    dist_ok = min_dist >= math.sqrt(2) - 1e-9
    notes.append(f"ratio-row min distance {min_dist:.6f} (>=sqrt2-1e-9)")

    # sampled noise norm respects the 4 sqrt(log n theta_max |theta|_1) bound
    preset = PRESETS["1"]
    params = dcbm_mod.DCBMParams(
        A=preset.A, theta=preset.theta.generate(preset.n),
        labels=block_labels((preset.n // 2, preset.n // 2)))
    omega = build_omega(params)
    bound = diagnostics(params).wnorm_bound
    worst_norm = 0.0
    monkeypatch.setattr(eigen_mod, "DEFAULT_TOL", 1e-8)
    for s in range(50):
        g = sample_adjacency(params, np.random.default_rng(4200 + s))
        noise = g.adjacency.toarray() - omega
        worst_norm = max(worst_norm,
                         abs(leading_eigs(noise, 1).values[0]))
    noise_ok = worst_norm <= bound
    notes.append(f"noise norm max {worst_norm:.2f} <= bound {bound:.2f}")

    ok = (kmeans_ok and ham_ok and eig_ok and perron_ok and dist_ok
          and noise_ok)
    announce(capsys, "criterion 9 (property suites)", ok, "; ".join(notes))


def write_record():
    """Rewrite the golden record from this checkout, one line per field."""
    presets = []
    for pid, cfg in PRESETS.items():
        fields = ",\n".join(f"   {json.dumps(key)}: {json.dumps(value)}"
                            for key, value in
                            record_view(run_experiment(cfg)).items())
        presets.append(f"  {json.dumps(pid)}: {{\n{fields}\n  }}")
    RECORD.write_text(
        f'{{\n "numpy": "{np.__version__}",\n "scipy": '
        f'"{scipy.__version__}",\n "presets": {{\n'
        + ",\n".join(presets) + "\n }\n}\n")


if __name__ == "__main__":
    write_record()
