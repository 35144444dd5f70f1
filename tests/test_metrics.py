import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorecd import hamming_error
from scorecd.metrics import _best_perm, summarize

SRC = Path(__file__).resolve().parents[1] / "src"


def oracle_hamming(est, tru, K):
    """Direct transcription: minimize mismatches over truth relabelings."""
    best = len(est)
    for perm in itertools.permutations(range(1, K + 1)):
        relabeled = [perm[t - 1] for t in tru]
        best = min(best, sum(e != r for e, r in zip(est, relabeled)))
    return best


def test_identical_labelings():
    lab = np.array([1, 2, 1, 2])
    res = hamming_error(lab, lab, K=2)
    assert res.mismatches == 0
    assert res.rate == 0.0
    assert res.best_perm == (1, 2)


def test_swapped_labels_cost_nothing():
    est = np.array([1, 1, 2, 2])
    res = hamming_error(est, 3 - est, K=2)
    assert res.mismatches == 0
    assert res.best_perm == (2, 1)


@pytest.mark.parametrize("trial", range(15))
def test_matches_exhaustive_oracle(trial):
    rng = np.random.default_rng(trial)
    est = rng.integers(1, 5, size=30)
    tru = rng.integers(1, 5, size=30)
    res = hamming_error(est, tru, K=4)
    assert res.mismatches == oracle_hamming(est, tru, 4)
    # confusion identity: mismatches = n - trace of permuted confusion
    permuted = res.confusion[np.array(res.best_perm) - 1, np.arange(4)]
    assert res.mismatches == 30 - permuted.sum()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10_000))
def test_permutation_invariance(K, seed):
    rng = np.random.default_rng(seed)
    est = rng.integers(1, K + 1, size=20)
    tru = rng.integers(1, K + 1, size=20)
    base = hamming_error(est, tru, K).mismatches
    for perm in itertools.permutations(range(1, K + 1)):
        relabeled = np.array([perm[e - 1] for e in est])
        assert hamming_error(relabeled, tru, K).mismatches == base
    assert base <= 20


def exhaustive_best_perm(conf, K):
    """Reference: the first maximum-trace permutation in lexicographic order."""
    best_perm, best_score = None, -1
    for perm in itertools.permutations(range(1, K + 1)):
        score = sum(conf[perm[b] - 1, b] for b in range(K))
        if score > best_score:
            best_perm, best_score = perm, score
    return best_perm, best_score


def test_assignment_path_equals_exhaustive_tie_rule():
    # confusion entries 0..2 make tied optimal matchings common
    rng = np.random.default_rng(0)
    confs = [np.array([[c]]) for c in range(3)]
    confs += [np.zeros((K, K), dtype=np.int64) for K in range(1, 8)]
    for K, trials in ((2, 300), (3, 300), (4, 300), (5, 100), (6, 30), (7, 10)):
        confs += [rng.integers(0, 3, size=(K, K)) for _ in range(trials)]
    for conf in confs:
        K = conf.shape[0]
        perm, matched = exhaustive_best_perm(conf, K)
        assert _best_perm(conf) == (perm, matched)
        if not conf.any():
            continue  # no nodes to label
        est, tru = np.nonzero(conf)
        counts = conf[est, tru]
        est, tru = np.repeat(est + 1, counts), np.repeat(tru + 1, counts)
        res = hamming_error(est, tru, K)
        assert res.best_perm == perm
        assert res.mismatches == est.size - matched


def first_optimal_perm_by_resolving(conf):
    """Reference for large K, and its trace: fix true labels in turn, each to
    the lowest estimated label for which an optimal assignment of the rest
    (scipy's linear_sum_assignment) still reaches the best trace."""
    from scipy.optimize import linear_sum_assignment

    def best_trace(sub):
        r, c = linear_sum_assignment(sub, maximize=True)
        return sub[r, c].sum()

    K = conf.shape[0]
    best = best_trace(conf)
    free, fixed, perm = list(range(K)), 0, []
    for b in range(K):
        for a in free:
            rest = [r for r in free if r != a]
            if fixed + conf[a, b] + best_trace(conf[rest, b + 1:]) == best:
                break
        perm.append(a + 1)
        fixed += conf[a, b]
        free.remove(a)
    return tuple(perm), best


def test_large_k_uses_assignment(rng):
    for K in (9, 30, 60):
        for n in (5 * K, 300):  # sparse tables tie often, dense ones rarely
            est = rng.integers(1, K + 1, size=n)
            tru = rng.integers(1, K + 1, size=n)
            res = hamming_error(est, tru, K)
            assert (res.best_perm, n - res.mismatches) == \
                first_optimal_perm_by_resolving(res.confusion)


def test_large_counts_keep_the_tie_rule(rng):
    # counts up to 10^6 with planted ties: a duplicated column and a
    # duplicated row each make a swap that keeps the trace.  The weights
    # must stay exact integers: at K = 20 the scale K^K alone is past 2^63,
    # and at K = 12 10^6 * K^K is within 4% of it, so int64 potentials
    # would wrap around
    for K in (20, 12):
        for trial in range(20):
            if trial % 2:
                conf = rng.integers(0, 10**6, size=(K, K), endpoint=True)
            else:  # two values only: ties everywhere
                conf = 10**6 * rng.integers(0, 2, size=(K, K))
            conf[:, K // 2] = conf[:, 0]
            conf[K - 1] = conf[1]
            assert _best_perm(conf) == first_optimal_perm_by_resolving(conf)


def test_confusion_equals_a_pair_count(rng):
    for K in range(1, 10):
        est = rng.integers(1, K + 1, size=200)
        tru = rng.integers(1, K + 1, size=200)
        count = np.zeros((K, K), dtype=np.int64)
        for a, b in zip(est.tolist(), tru.tolist()):
            count[a - 1, b - 1] += 1
        conf = hamming_error(est, tru, K).confusion
        assert conf.dtype == np.int64
        assert np.array_equal(conf, count)


def test_argument_errors():
    with pytest.raises(ValueError, match="length"):
        hamming_error(np.array([1, 2]), np.array([1]), K=2)
    with pytest.raises(ValueError, match="1..2"):
        hamming_error(np.array([1, 3]), np.array([1, 2]), K=2)
    with pytest.raises(ValueError, match="estimated labels must be integers"):
        hamming_error([1.5, 2.9, 1.0], [1, 2, 1], 2)
    with pytest.raises(ValueError, match="truth labels must be integers"):
        hamming_error([1, 2, 1], [1, 2, 1.5], 2)


@pytest.mark.parametrize("bad,match", [
    (math.nan, "must be integers"), (math.inf, r"must lie in 1\.\.2"),
    (-math.inf, r"must lie in 1\.\.2"), (1e30, r"must lie in 1\.\.2")],
    ids=["nan", "inf", "-inf", "1e30"])
def test_labels_with_no_int64_value_raise_value_error(bad, match):
    # checked before the cast, which would warn about an invalid value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="estimated labels " + match):
            hamming_error([bad, 1.0], [1, 2], 2)
        with pytest.raises(ValueError, match="truth labels " + match):
            hamming_error([1, 2], [1.0, bad], 2)


def test_import_leaves_scipy_optimize_out():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys, scorecd, scorecd.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_summarize():
    assert summarize([2, 2, 2]) == (2.0, 0.0)
    mean, sd = summarize([0, 1])
    assert mean == 0.5
    assert sd == pytest.approx(0.70710678, abs=1e-8)
    assert summarize([4.0]) == (4.0, 0.0)
    with pytest.raises(ValueError):
        summarize([])
