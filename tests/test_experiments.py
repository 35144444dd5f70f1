import json
import math
import os
import threading

import numpy as np
import pytest

from scorecd import eigen, experiments, graph, metrics, pipeline
from scorecd.dcbm import ThetaPattern, sample_adjacency
from scorecd.experiments import (PRESETS, ExperimentConfig, RunReport,
                                 config_from_text, run_experiment)
from scorecd.errors import NonConvergenceError, ParseError
from scorecd.seeding import derived_seed


def test_preset_table_matches_published_settings():
    spec = {
        "1": (1000, 2, 50, "constant", {"c": 0.2}),
        "2a": (2000, 2, 100, "constant", {"c": 0.1}),
        "2b": (800, 2, 100, "linear", {"d0": 0.025, "c0": 0.5}),
        "2c": (1200, 2, 100, "quadratic", {"d0": 0.025, "c0": 0.5}),
        "2d": (1500, 3, 100, "quadratic", {"d0": 0.015, "c0": 0.8}),
        "3": (1500, 3, 25, "quadratic", {"d0": 0.015, "c0": 0.8}),
        "4a": (1000, 2, 50, "linear", {"d0": 0.02, "c0": 0.5}),
        "4b": (1000, 2, 50, "quadratic", {"d0": 0.02, "c0": 0.5}),
        "4c": (1000, 2, 50, "two_point", {"c0": 0.5, "d0": 0.02}),
    }
    assert set(PRESETS) == set(spec)
    for pid, (n, K, rep, kind, params) in spec.items():
        cfg = PRESETS[pid]
        assert (cfg.n, cfg.K, cfg.rep) == (n, K, rep)
        assert cfg.theta.kind == kind
        assert cfg.theta.params == pytest.approx(params)
        A = np.array(cfg.A)
        assert np.allclose(A, A.T)
        assert np.allclose(np.diag(A), 1.0)
    assert PRESETS["1"].A[0][1] == 0.5
    assert PRESETS["2a"].A[0][1] == 0.4
    A3 = np.array(PRESETS["2d"].A)
    assert A3[0, 1] == 0.4 and A3[1, 2] == 0.4 and A3[0, 2] == 0.05
    # the off-pattern theta profiles reproduce the published formulas
    i = np.arange(1, 801)
    assert np.allclose(PRESETS["2b"].theta.generate(800),
                       0.025 + 0.475 * i / 800)
    i = np.arange(1, 1501)
    assert np.allclose(PRESETS["2d"].theta.generate(1500),
                       0.015 + 0.785 * (i / 1500) ** 2)


# each preset as a config file states it; seed defaults to 1
PRESET_TEXTS = {
    "1": "id = 1\nn = 1000\nK = 2\nrep = 50\nA = 1 0.5 ; 0.5 1\n"
         "theta = constant c=0.2\nmethods = opca npca score\n",
    "2a": "id = 2a\nn = 2000\nK = 2\nrep = 100\nA = 1 0.4 ; 0.4 1\n"
          "theta = constant c=0.1\nmethods = score score1 score2\nseed = 1\n",
    "2b": "id = 2b\nn = 800\nK = 2\nrep = 100\nA = 1 0.5 ; 0.5 1\n"
          "theta = linear d0=0.025 c0=0.5\nmethods = score score1 score2\n",
    "2c": "id = 2c\nn = 1200\nK = 2\nrep = 100\nA = 1 0.5 ; 0.5 1\n"
          "theta = quadratic d0=0.025 c0=0.5\nmethods = score score1 score2\n",
    "2d": "id = 2d\nn = 1500\nK = 3\nrep = 100\n"
          "A = 1 0.4 0.05 ; 0.4 1 0.4 ; 0.05 0.4 1\n"
          "theta = quadratic d0=0.015 c0=0.8\nmethods = score score1 score2\n",
    "3": "id = 3\nn = 1500\nK = 3\nrep = 25\n"
         "A = 1 0.4 0.05 ; 0.4 1 0.4 ; 0.05 0.4 1\n"
         "theta = quadratic d0=0.015 c0=0.8\nmethods = opca npca score2\n",
    "4a": "id = 4a\nn = 1000\nK = 2\nrep = 50\nA = 1 0.5 ; 0.5 1\n"
          "theta = linear d0=0.02 c0=0.5\nmethods = opca npca score\n",
    "4b": "id = 4b\nn = 1000\nK = 2\nrep = 50\nA = 1 0.5 ; 0.5 1\n"
          "theta = quadratic d0=0.02 c0=0.5\nmethods = opca npca score\n",
    "4c": "id = 4c\nn = 1000\nK = 2\nrep = 50\nA = 1 0.5 ; 0.5 1\n"
          "theta = two_point c0=0.5 d0=0.02\nmethods = opca npca score\n",
}


@pytest.mark.parametrize("pid", sorted(PRESETS))
def test_config_round_trip(pid):
    assert config_from_text(PRESET_TEXTS[pid]) == PRESETS[pid]


def test_config_parse_errors():
    with pytest.raises(ParseError, match="missing keys"):
        config_from_text("n = 10\n")
    with pytest.raises(ParseError, match="key = value"):
        config_from_text("just some words\n")
    with pytest.raises(ParseError, match="bad config value"):
        config_from_text("n = 10\nK = x\nrep = 1\nA = 1\ntheta = constant c=0.2\n")
    # lines end only at line feeds, so the K line here is part of the n line
    for brk in "\f\u2028":
        with pytest.raises(ParseError, match=r"missing keys: \['k'\]"):
            config_from_text(f"n = 10{brk}K = 2\nrep = 1\nA = 1\n"
                             "theta = constant c=0.2\n")


@pytest.mark.parametrize("n, K, message", [
    (40, 0, "n=40 is not a positive multiple of K=0"),
    (40, -2, "n=40 is not a positive multiple of K=-2"),
    (41, 2, "n=41 is not a positive multiple of K=2")])
def test_config_block_count_must_split_n(n, K, message):
    with pytest.raises(ParseError, match=message):
        config_from_text(f"n = {n}\nK = {K}\nrep = 1\nA = 1 0.5 ; 0.5 1\n"
                         "theta = constant c=0.2\n")
    # no config reaches model() with a K that does not split n
    with pytest.raises(ValueError, match=message):
        tiny_config(n=n, K=K)


@pytest.mark.parametrize("key, value, message", [
    ("rep", 0, r"reps must be >= 1, got 0 \(key 'rep'\)"),
    ("seed", -1, "seed must be >= 0, got -1")])
def test_config_rep_and_seed_must_be_in_range(key, value, message):
    with pytest.raises(ParseError, match=message):
        config_from_text(f"n = 40\nK = 2\nrep = 1\nA = 1 0.5 ; 0.5 1\n"
                         f"theta = constant c=0.2\n{key} = {value}\n")
    with pytest.raises(ValueError, match=message):
        tiny_config(**{key: value})


def tiny_config(**overrides):
    fields = dict(id="tiny", n=60, K=2, rep=3,
                  A=((1.0, 0.9), (0.9, 1.0)),
                  theta=ThetaPattern("constant", {"c": 0.5}),
                  methods=("score", "opca"), seed=5)
    fields.update(overrides)
    return ExperimentConfig(**fields)


def test_run_experiment_shapes_and_rates():
    report = run_experiment(tiny_config(), restarts=10)
    assert len(report.n0) == 3
    for method in ("score", "opca"):
        assert len(report.rates[method]) == 3
        for r, rate in enumerate(report.rates[method]):
            assert rate == report.mismatches[method][r] / report.n0[r]
        assert 0.0 <= report.means[method] <= 1.0
    assert set(report.clock) == {"score", "opca", "sample", "eigs"}


def test_json_reports_sample_and_eigs_stage_totals():
    report = run_experiment(tiny_config(), restarts=10)
    clocks = json.loads(report.to_json())["wall_clock_s"]
    assert set(clocks) == {"score", "opca", "sample", "eigs"}
    assert all(seconds >= 0.0 for seconds in clocks.values())
    assert clocks == report.clock
    assert "wall_clock_s" not in report.payload()


def test_json_reports_restart_agreement_outside_the_payload():
    report = run_experiment(tiny_config(), restarts=10)
    agreement = json.loads(report.to_json())["restarts_at_best"]
    assert agreement["score"] == [1, 1, 1]  # the exact 1-D split
    assert len(agreement["opca"]) == 3
    assert all(1 <= k <= 10 for k in agreement["opca"])
    assert agreement == {m: list(v) for m, v in
                         report.restarts_at_best.items()}
    assert "restarts_at_best" not in report.payload()


def test_json_reports_restarts_used_outside_the_payload():
    report = run_experiment(tiny_config(), restarts=12)
    used = json.loads(report.to_json())["restarts_used"]
    assert used["score"] == [1, 1, 1]  # the exact 1-D split
    # at least 10 Lloyd restarts, at most the cap, never fewer than agree
    assert all(10 <= u <= 12 for u in used["opca"])
    assert all(a <= u for a, u in zip(report.restarts_at_best["opca"],
                                      used["opca"]))
    assert used == {m: list(v) for m, v in report.restarts_used.items()}
    assert "restarts_used" not in report.payload()


def test_run_experiment_rejects_fewer_than_one_rep():
    with pytest.raises(ValueError, match="reps must be >= 1, got 0"):
        run_experiment(tiny_config(), reps=0)
    with pytest.raises(ValueError, match="reps must be >= 1, got -1"):
        run_experiment(tiny_config(rep=-1))


@pytest.mark.parametrize("pid", sorted(PRESETS))
def test_payload_config_is_plain_json(pid):
    cfg = PRESETS[pid]
    report = RunReport(config=cfg, seed=cfg.seed, n0=(), mismatches={},
                       rates={}, means={}, sds={}, clock={}, clustering={},
                       restarts_at_best={}, restarts_used={})
    config = report.payload()["config"]
    assert config == json.loads(json.dumps(config))
    assert config["A"] == [list(row) for row in cfg.A]
    assert config["theta"] == {"kind": cfg.theta.kind, **cfg.theta.params}


def test_run_experiment_deterministic():
    a = run_experiment(tiny_config(), restarts=10)
    b = run_experiment(tiny_config(), restarts=10)
    assert a.payload() == b.payload()
    single = run_experiment(tiny_config(rep=1), restarts=10)
    again = run_experiment(tiny_config(rep=1), restarts=10)
    assert single.payload() == again.payload()


def test_overrides_change_the_run():
    base = run_experiment(tiny_config(), restarts=10)
    other = run_experiment(tiny_config(), seed=99, restarts=10)
    assert base.payload() != other.payload()
    short = run_experiment(tiny_config(), reps=2, restarts=10)
    assert len(short.n0) == 2


def test_report_renderings():
    report = run_experiment(tiny_config(), restarts=10)
    table = report.to_table()
    assert "experiment tiny" in table and "score" in table
    csv = report.to_csv()
    assert csv.startswith("rep,n0,method,mismatches,rate")
    assert len(csv.strip().splitlines()) == 1 + 2 * 3
    payload = report.payload()
    assert payload["config"]["theta"] == {"kind": "constant", "c": 0.5}


def test_baseline_clustering_policy_applied_and_overridable():
    cfg = tiny_config(methods=("score", "npca"))
    default = run_experiment(cfg, restarts=10)
    assert default.clustering == {"npca": {"restarts": 1, "init": "sample"}}
    assert default.payload()["clustering"]["npca"]["init"] == "sample"
    forced = run_experiment(cfg, restarts=10, uniform_clustering=True)
    assert forced.clustering == {"npca": {}}
    # the score stream is untouched by the policy change
    assert forced.rates["score"] == default.rates["score"]


def test_finite_truncation_still_runs():
    # the harness scores untruncated ratios by default; a forced tiny T_n
    # clips every entry and the pipeline must still return valid rates
    report = run_experiment(tiny_config(methods=("score",)), restarts=10,
                            T_n=1e-6)
    assert all(0.0 <= r <= 1.0 for r in report.rates["score"])


def _cores(monkeypatch, count):
    """Make run_experiment see `count` usable cores; returns the list of
    children it forks."""
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: set(range(count)))
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid
    monkeypatch.setattr(experiments.os, "fork", counting_fork)
    return forked


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _os_threads():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("Threads:"))


def _blas_threads():
    return [get() for get, _, _ in experiments._openblas_threads()]


needs_openblas = pytest.mark.skipif(
    not experiments._openblas_threads(),
    reason="no OpenBLAS thread setter loaded: every run is one chunk")


@needs_openblas
@pytest.mark.parametrize("pid", ["1", "2d"])
def test_two_chunks_report_what_one_chunk_reports(monkeypatch, pid):
    def lap(clock, stage):  # one second per stage and repetition
        clock.stages[stage] = clock.stages.get(stage, 0.0) + 1.0
    monkeypatch.setattr(experiments.pipeline.StageClock, "lap", lap)
    forked = _cores(monkeypatch, 1)
    one = run_experiment(PRESETS[pid], reps=4)
    assert forked == []
    forked = _cores(monkeypatch, 2)
    ticks = []
    two = run_experiment(PRESETS[pid], reps=4, progress=ticks.append)
    assert len(forked) == 1 and _no_child_left()
    assert ticks == [0, 1, 2, 3]
    assert two.payload() == one.payload()
    assert two.restarts_used == one.restarts_used
    assert two.restarts_at_best == one.restarts_at_best
    # the child's stage seconds are added to this process's
    stages = ("sample", "eigs") + PRESETS[pid].methods
    assert two.clock == one.clock == dict.fromkeys(stages, 4.0)


def _failing_eigs(monkeypatch, master, failing):
    """leading_eigs raising NonConvergenceError on the repetitions in
    `failing`, with the repetition in its message and residuals."""
    solve = eigen.leading_eigs
    seeds = {derived_seed(master, r, "eigs"): r for r in failing}

    def leading_eigs(g, K, seed=None, **kw):
        if seed in seeds:
            r = seeds[seed]
            raise NonConvergenceError(f"repetition {r} failed",
                                      residuals=np.array([r, 0.5]))
        return solve(g, K, seed=seed, **kw)
    monkeypatch.setattr(eigen, "leading_eigs", leading_eigs)


@needs_openblas
@pytest.mark.parametrize("reps, failing", [(2, {1}), (4, {1, 2}), (4, {3})])
def test_a_failing_repetition_raises_as_in_one_chunk(monkeypatch, reps,
                                                     failing):
    cfg = tiny_config()
    _failing_eigs(monkeypatch, cfg.seed, failing)
    raised, ticked = [], []
    for cores in (1, 2):
        forked = _cores(monkeypatch, cores)
        ticks = []
        with pytest.raises(NonConvergenceError) as info:
            run_experiment(cfg, reps=reps, restarts=10, progress=ticks.append)
        assert len(forked) == cores - 1 and _no_child_left()
        raised.append(info.value)
        ticked.append(ticks)
    one, two = raised
    assert type(two) is type(one)
    assert str(two) == str(one) == f"repetition {min(failing)} failed"
    assert np.array_equal(two.residuals, one.residuals)
    assert ticked[1] == ticked[0] == list(range(min(failing)))


@needs_openblas
def test_blas_threads_are_one_inside_the_pool_and_restored_after(
        monkeypatch):
    _cores(monkeypatch, 2)
    seen, solve = [], eigen.leading_eigs

    def leading_eigs(g, K, seed=None, **kw):
        seen.append(_blas_threads())  # this process's chunk only
        return solve(g, K, seed=seed, **kw)
    monkeypatch.setattr(eigen, "leading_eigs", leading_eigs)
    saved = _blas_threads()
    try:
        for _, set_, _ in experiments._openblas_threads():
            set_(2)
        run_experiment(tiny_config(), reps=4, restarts=10)
        assert _blas_threads() == [2] * len(saved)
        assert seen == [[1] * len(saved)] * 2
        # and no OpenBLAS worker thread is left spinning
        assert _os_threads() == threading.active_count()
    finally:
        for (_, set_, _), count in zip(experiments._openblas_threads(),
                                       saved):
            set_(count)


def test_a_process_with_other_threads_runs_one_chunk(monkeypatch):
    forked = _cores(monkeypatch, 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        threaded = run_experiment(tiny_config(), reps=4, restarts=10)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forked == []
    assert threaded.payload() == run_experiment(tiny_config(), reps=4,
                                                restarts=10).payload()


def test_survivors_outside_the_giant_component_count_as_mismatches():
    # repetition 0 at this seed leaves a 2-node component beside the giant
    # one; scoring the survivor graph whole, score erred on 535 of 1498 nodes
    cfg, master = PRESETS["2d"], 4242000737
    report = run_experiment(cfg, seed=master, reps=1)
    rng = np.random.default_rng(np.random.SeedSequence([master, 0]))
    params = cfg.model(rng)
    g0, keep = graph.remove_isolated(sample_adjacency(params, rng))
    g1, giant = graph.giant_component(g0)
    assert (report.n0, g1.n) == ((1498,), 1496)
    assert report.rates["score"][0] < 0.2
    spectrum = eigen.leading_eigs(g1, cfg.K,
                                  seed=derived_seed(master, 0, "eigs"))
    for m in cfg.methods:
        res = pipeline.run_method(g1, spectrum, m, cfg.K, T_n=math.inf,
                                  seed=derived_seed(master, 0, m))
        ham = metrics.hamming_error(res.labels, params.labels[keep[giant]],
                                    cfg.K)
        assert report.mismatches[m][0] == ham.mismatches + 2


def test_repetitions_solve_at_the_label_tolerance(monkeypatch):
    # the adjacency solve of each repetition, and npca's normalized one
    _cores(monkeypatch, 1)
    asked, solve = [], eigen.leading_eigs

    def leading_eigs(op, K, seed=0, tol=None):
        asked.append((isinstance(op, graph.Graph), tol))
        return solve(op, K, seed=seed, tol=tol)
    monkeypatch.setattr(eigen, "leading_eigs", leading_eigs)
    run_experiment(tiny_config(methods=("score", "npca")), reps=2,
                   restarts=10)
    assert asked == [(True, eigen.LABEL_TOL), (False, eigen.LABEL_TOL)] * 2


def test_smallest_known_first_vector_margin_holds_at_the_label_tolerance():
    # 2d, repetition 0 at this seed: min/max of v1 is 9.7e-7, the smallest
    # margin found over 1500 2d giant components; the looser solve keeps v1
    # positive and the labels of the 1e-10 solve
    cfg, master = PRESETS["2d"], 4242000645
    rng = np.random.default_rng(np.random.SeedSequence([master, 0]))
    params = cfg.model(rng)
    g0, _ = graph.remove_isolated(sample_adjacency(params, rng))
    g1, _ = graph.giant_component(g0)
    spectrum = eigen.leading_eigs(g1, cfg.K,
                                  seed=derived_seed(master, 0, "eigs"),
                                  tol=eigen.LABEL_TOL)
    v1 = spectrum.pairs[0].vector
    assert 0 < v1.min() < 1e-6 * v1.max()
    report = run_experiment(cfg, seed=master, reps=1)
    assert report.n0 == (1497,)
    assert {m: report.mismatches[m][0] for m in cfg.methods} == {
        "score": 120, "score1": 112, "score2": 113}
