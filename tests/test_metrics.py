import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorecd import Labeling, hamming_error
from scorecd.metrics import summarize


def oracle_hamming(est, tru, K):
    """Direct transcription: minimize mismatches over truth relabelings."""
    best = len(est)
    for perm in itertools.permutations(range(1, K + 1)):
        relabeled = [perm[t - 1] for t in tru]
        best = min(best, sum(e != r for e, r in zip(est, relabeled)))
    return best


def test_identical_labelings():
    lab = Labeling(labels=np.array([1, 2, 1, 2]), K=2)
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
    for K, trials in ((2, 300), (3, 300), (4, 300), (5, 100), (6, 30), (7, 10)):
        for _ in range(trials):
            conf = rng.integers(0, 3, size=(K, K))
            if not conf.any():
                continue
            est, tru = np.nonzero(conf)
            counts = conf[est, tru]
            est, tru = np.repeat(est + 1, counts), np.repeat(tru + 1, counts)
            res = hamming_error(est, tru, K)
            perm, matched = exhaustive_best_perm(conf, K)
            assert res.best_perm == perm
            assert res.mismatches == est.size - matched


def test_large_k_uses_assignment(rng):
    est = rng.integers(1, 10, size=200)
    tru = est.copy()
    res = hamming_error(est, tru, K=9)
    assert res.mismatches == 0


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


def test_summarize():
    assert summarize([2, 2, 2]) == (2.0, 0.0)
    mean, sd = summarize([0, 1])
    assert mean == 0.5
    assert sd == pytest.approx(0.70710678, abs=1e-8)
    assert summarize([4.0]) == (4.0, 0.0)
    with pytest.raises(ValueError):
        summarize([])
