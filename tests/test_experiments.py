import json

import numpy as np
import pytest

from scorecd.dcbm import ThetaPattern
from scorecd.experiments import (PRESETS, ExperimentConfig, RunReport,
                                 config_from_text, config_to_text,
                                 run_experiment)
from scorecd.errors import ParseError


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


@pytest.mark.parametrize("pid", sorted(PRESETS))
def test_config_round_trip(pid):
    cfg = PRESETS[pid]
    assert config_from_text(config_to_text(cfg)) == cfg


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
    # no config reaches block_sizes() with a K that does not split n
    with pytest.raises(ValueError, match=message):
        tiny_config(n=n, K=K)


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
    forced = run_experiment(cfg, restarts=10, clustering={"npca": {}})
    assert forced.clustering == {"npca": {}}
    # the score stream is untouched by the policy change
    assert forced.rates["score"] == default.rates["score"]


def test_finite_truncation_still_runs():
    # the harness scores untruncated ratios by default; a forced tiny T_n
    # clips every entry and the pipeline must still return valid rates
    report = run_experiment(tiny_config(methods=("score",)), restarts=10,
                            T_n=1e-6)
    assert all(0.0 <= r <= 1.0 for r in report.rates["score"])
