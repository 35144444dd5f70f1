from types import SimpleNamespace

import numpy as np
import pytest

from scorecd import hamming_error, leading_eigs, pipeline
from scorecd.dcbm import DCBMParams, block_labels, sample_adjacency
from scorecd.pipeline import StageClock, parse_method, run_method
from scorecd.graph import giant_component


def test_parse_method_forms():
    assert parse_method("score") == ("score", None, "score")
    assert parse_method("OPCA") == ("opca", None, "opca")
    assert parse_method("score1") == ("scoreq", 1.0, "score1")
    assert parse_method("scoreq:2") == ("scoreq", 2.0, "score2")
    assert parse_method("scoreq:0.5") == ("scoreq", 0.5, "scoreq:0.5")
    with pytest.raises(ValueError):
        parse_method("modularity")
    with pytest.raises(ValueError):
        parse_method("scoreq:-1")


def test_stage_clock_adds_up_laps_of_one_stage(monkeypatch):
    ticks = iter([0.0, 0.0014, 2.0, 2.5])
    monkeypatch.setattr(pipeline, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    clock = StageClock()
    clock.lap("a")
    clock.lap("b")
    clock.lap("a")
    assert clock.totals() == {"a": 0.501, "b": 1.999, "total": 2.5}


@pytest.fixture(scope="module")
def sampled_graph():
    params = DCBMParams(K=2, A=np.array([[1.0, 0.15], [0.15, 1.0]]),
                        theta=np.full(120, 0.45), sizes=(60, 60))
    truth = block_labels(params.sizes)
    g = sample_adjacency(params, truth, 99)
    giant, keep = giant_component(g)
    return giant, truth.labels[keep]


def test_every_method_recovers_clear_communities(sampled_graph):
    g, truth = sampled_graph
    spectrum = leading_eigs(g, 2, seed=1)
    for method in ("score", "score1", "score2", "opca", "npca", "scoreq:3"):
        res = run_method(g, spectrum, method, K=2, seed=3, restarts=30)
        ham = hamming_error(res.labeling.labels, truth, K=2)
        assert ham.rate < 0.05, method


def test_threshold_paths(sampled_graph):
    g, truth = sampled_graph
    spectrum = leading_eigs(g, 2, seed=1)
    fixed = run_method(g, spectrum, "score", K=2, threshold=0.0)
    assert fixed.threshold == 0.0
    assert hamming_error(fixed.labeling.labels, truth, K=2).rate < 0.05
    implied = run_method(g, spectrum, "score", K=2, seed=3, restarts=30)
    assert implied.kmeans is not None
    assert np.isfinite(implied.threshold)
    # the implied threshold reproduces the k-means split exactly
    r = implied.ratio.ratio_vector()
    by_threshold = np.where(r > implied.threshold, 1, 2)
    same = (by_threshold == implied.labeling.labels).all()
    flipped = (by_threshold == 3 - implied.labeling.labels).all()
    assert same or flipped


def test_threshold_requires_score_and_k2(sampled_graph):
    g, _ = sampled_graph
    spectrum = leading_eigs(g, 2, seed=1)
    with pytest.raises(ValueError, match="threshold"):
        run_method(g, spectrum, "opca", K=2, threshold=0.0)


def test_single_community_shortcut(sampled_graph):
    g, _ = sampled_graph
    res = run_method(g, None, "score", K=1)
    assert set(res.labeling.labels) == {1}
    assert res.labeling.n == g.n
