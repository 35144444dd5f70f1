import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import pathlib
import tempfile
import weakref
from types import SimpleNamespace
from unittest import mock

import click
import pytest
from click.testing import CliRunner

from scorecd import cli, graph, pipeline
from scorecd.cli import main


def run(*args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_version_runs_from_the_source_tree():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


@pytest.mark.parametrize("q, code, message", [
    ("inf", 2, "q must be finite and positive, got inf"),
    ("nan", 2, "q must be finite and positive, got nan"),
    ("0.001", 4, "numerical failure: the l^0.001 norm of 34 nonzero"),
    ("1000", 4, "numerical failure: the l^1000 norm of 33 nonzero")])
def test_detect_rejects_a_q_whose_norms_leave_float_range(q, code, message):
    result = CliRunner().invoke(main, ["detect", "--input", "builtin:karate",
                                       "--k", "3", "--method", f"scoreq:{q}"])
    assert result.exit_code == code
    assert message in result.output


def test_console_script_is_the_click_group():
    # pyproject's [project.scripts] entry, resolved as an installer would
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert target == {"scorecd": "scorecd.cli:main"}
    module, attr = target["scorecd"].split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is main and isinstance(entry, click.Group)
    result = CliRunner().invoke(entry, ["detect", "--input", "builtin:karate",
                                        "--k", "2", "--json"])
    payload = json.loads(result.output)
    assert len(payload["labels"]) == 34 and payload["mismatches"] == 1


def test_detect_karate_kmeans():
    res = run("detect", "--input", "builtin:karate", "--k", "2",
              "--method", "score", "--json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["n0"] == 34
    assert payload["edges"] == 78
    assert payload["mismatches"] == 1
    assert len(payload["labels"]) == 34
    assert payload["kmeans_restarts_at_best"] == 1  # the exact 1-D split


def test_detect_karate_threshold_zero():
    res = run("detect", "--input", "builtin:karate", "--k", "2",
              "--threshold", "0", "--json")
    assert res.exit_code == 0
    assert json.loads(res.output)["mismatches"] == 1


def test_detect_json_times_every_stage_outside_the_result():
    args = ("detect", "--input", "builtin:karate", "--k", "2", "--json")
    a, b = (json.loads(run(*args).output) for _ in range(2))
    clock = a.pop("wall_clock_s")
    assert list(clock) == ["load", "giant", "eigs", "method", "labels",
                           "total"]
    assert all(v >= 0 for v in clock.values())
    assert clock["total"] >= max(clock[key] for key in clock if key != "total")
    b.pop("wall_clock_s")
    assert a == b


def test_stdout_is_not_kept_alive_after_a_run():
    # in-process callers swap sys.stdout per run; the CLI must not keep the
    # old streams, or every run's output stays in memory
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main.main(args=["detect", "--input", "builtin:karate", "--k", "2",
                        "--json"], standalone_mode=False)
    assert json.loads(out.getvalue())["n0"] == 34
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


def test_stderr_is_not_kept_alive_after_a_failed_run():
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main.main(args=["detect", "--input", "builtin:nope", "--k", "2"],
                  standalone_mode=False)
    assert exc.value.code == 3
    assert err.getvalue().startswith("data error: ")
    ref = weakref.ref(err)
    del err
    gc.collect()
    assert ref() is None


def test_detect_threshold_must_be_a_number():
    result = CliRunner().invoke(main, ["detect", "--input", "builtin:karate",
                                       "--k", "2", "--threshold", "auto"])
    assert result.exit_code == 2


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_detect_rejects_a_threshold_that_is_not_finite(t):
    result = CliRunner().invoke(main, ["detect", "--input", "builtin:karate",
                                       "--k", "2", "--threshold", t,
                                       "--json"])
    assert result.exit_code == 2
    assert f"threshold must be finite, got {t}" in result.output


@pytest.mark.parametrize("extra, message", [
    (("--threshold", "nan"), "threshold must be finite, got nan"),
    (("--threshold", "0", "--method", "opca"),
     "threshold classification needs method=score and K=2"),
])
def test_detect_checks_the_threshold_before_reading_input(extra, message):
    result = CliRunner().invoke(main, ["detect", "--input",
                                       "does-not-exist.txt", "--k", "2",
                                       *extra])
    assert result.exit_code == 2  # not 3, the missing input
    assert message in result.output


def test_detect_csv_labels(tmp_path):
    out = tmp_path / "labels.csv"
    res = run("detect", "--input", "builtin:karate", "--k", "2", "--csv",
              "--out", str(out))
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node,label"
    assert len(lines) == 35


def test_detect_unknown_builtin_is_data_error():
    result = CliRunner().invoke(main, ["detect", "--input", "builtin:nope",
                                       "--k", "2"])
    assert result.exit_code == 3


def test_detect_bad_method_is_argument_error():
    result = CliRunner().invoke(main, ["detect", "--input", "builtin:karate",
                                       "--k", "2", "--method", "tabu"])
    assert result.exit_code == 2


def test_missing_file_is_data_error(tmp_path):
    result = CliRunner().invoke(main, ["detect", "--input",
                                       str(tmp_path / "nope.txt"), "--k", "2"])
    assert result.exit_code == 3


UNREADABLE_INPUT = {
    "detect --input": lambda bad, ok: ["detect", "--input", bad, "--k", "2"],
    "detect --labels": lambda bad, ok: ["detect", "--input", "builtin:karate",
                                        "--k", "2", "--labels", bad],
    "experiment --config": lambda bad, ok: ["experiment", "--config", bad],
    "eval --estimated": lambda bad, ok: ["eval", "--estimated", bad,
                                         "--truth", ok],
    "eval --truth": lambda bad, ok: ["eval", "--estimated", ok,
                                     "--truth", bad],
}


@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
@pytest.mark.parametrize("where", sorted(UNREADABLE_INPUT))
def test_unreadable_input_is_data_error(tmp_path, where, kind):
    ok = tmp_path / "labels.txt"
    ok.write_text("a 1\nb 2\n")
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"1 2\n\xff 3\n")
    result = CliRunner().invoke(main, UNREADABLE_INPUT[where](str(bad),
                                                              str(ok)))
    assert result.exit_code == 3
    assert result.output.startswith(
        f"data error: cannot read {str(bad)!r} as text: ")


WRITING_COMMANDS = {
    "detect": ["detect", "--input", "builtin:karate", "--k", "2"],
    "experiment": ["experiment", "--config", "{cfg}"],
    "spectra": ["spectra", "population", "--preset", "1"],
    "eval": ["eval", "--estimated", "{labels}", "--truth", "{labels}"],
}


def writing_command(tmp_path, command):
    """WRITING_COMMANDS[command] with its input files written to tmp_path."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 40\nK = 2\nrep = 1\nA = 1 0.8 ; 0.8 1\n"
                   "theta = constant c=0.5\nmethods = score\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("a 1\nb 2\n")
    return [arg.format(cfg=cfg, labels=labels)
            for arg in WRITING_COMMANDS[command]]


@pytest.mark.parametrize("kind", ["directory", "missing parent"])
@pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
def test_unwritable_out_is_data_error(tmp_path, command, kind):
    out = tmp_path / "out"
    if kind == "directory":
        out.mkdir()
    else:
        out = out / "result.txt"
    args = writing_command(tmp_path, command)
    result = CliRunner().invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 3
    assert result.output.startswith(f"data error: cannot write {str(out)!r}: ")


@pytest.mark.parametrize("command, fmt", [
    (command, fmt) for command in sorted(WRITING_COMMANDS)
    for fmt in ("text", "--json", "--csv")
    if (command, fmt) != ("eval", "--csv")])
def test_stdout_and_out_file_get_the_same_bytes(tmp_path, monkeypatch,
                                                command, fmt):
    # a stopped clock, so that both runs print the same seconds
    monkeypatch.setattr(pipeline, "time",
                        SimpleNamespace(perf_counter=lambda: 0.0))
    args = writing_command(tmp_path, command)
    args += [] if fmt == "text" else [fmt]
    out = tmp_path / "out.txt"
    printed = run(*args)
    assert printed.exit_code == 0
    assert run(*args, "--out", str(out)).exit_code == 0
    assert printed.stdout_bytes == out.read_bytes()
    assert printed.stdout_bytes.endswith(b"\n")
    assert not printed.stdout_bytes.endswith(b"\n\n")


@pytest.mark.parametrize("k, used, at_best", [(2, 1, 1), (3, 10, 3)])
def test_detect_reports_restarts_used_and_agreement(k, used, at_best):
    # K = 2 takes the exact split; at K = 3 three of the first ten Lloyd
    # restarts reach the best cost, which ends the restarts
    res = run("detect", "--input", "builtin:karate", "--k", str(k), "--json")
    payload = json.loads(res.output)
    assert payload["kmeans_restarts_used"] == used
    assert payload["kmeans_restarts_at_best"] == at_best


def test_experiment_deterministic_json():
    cfg = ("id = smoke\nn = 40\nK = 2\nrep = 2\nA = 1 0.8 ; 0.8 1\n"
           "theta = constant c=0.5\nmethods = score\nseed = 3\n")

    def go(tmpdir):
        path = tmpdir / "cfg.txt"
        path.write_text(cfg)
        return run("experiment", "--config", str(path), "--restarts", "10",
                   "--json")
    with tempfile.TemporaryDirectory() as d:
        a = go(pathlib.Path(d))
        b = go(pathlib.Path(d))
    assert a.exit_code == 0
    pa, pb = json.loads(a.output), json.loads(b.output)
    pa.pop("wall_clock_s"), pb.pop("wall_clock_s")
    assert pa == pb
    assert pa["config"]["id"] == "smoke"


def test_experiment_k1_config_records_no_restart_agreement(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("n = 200\nK = 1\nrep = 2\nA = 1\n"
                    "theta = constant c=0.3\nmethods = score\n")
    res = run("experiment", "--config", str(path), "--json")
    assert res.exit_code == 0
    out = json.loads(res.stdout)
    assert out["mismatches"] == {"score": [0, 0]}
    assert out["restarts_at_best"] == {"score": [None, None]}  # no k-means


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_experiment_rejects_fewer_than_one_rep(reps):
    result = CliRunner().invoke(main, ["experiment", "1", "--reps", reps])
    assert result.exit_code == 2
    assert f"reps must be >= 1, got {reps}" in result.output


def test_experiment_unknown_preset():
    result = CliRunner().invoke(main, ["experiment", "9z"])
    assert result.exit_code == 2


def test_experiment_csv(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("id = t\nn = 40\nK = 2\nrep = 2\nA = 1 0.8 ; 0.8 1\n"
                    "theta = constant c=0.5\nmethods = score opca\nseed = 3\n")
    res = run("experiment", "--config", str(path), "--restarts", "5", "--csv",
              "--progress")
    assert res.stderr == "..\n"  # one tick per repetition
    rows = res.stdout.strip().splitlines()
    assert rows[0] == "rep,n0,method,mismatches,rate"
    assert len(rows) == 1 + 4


def test_spectra_empirical_karate():
    res = run("spectra", "empirical", "--input", "builtin:karate", "--k", "2",
              "--json")
    payload = json.loads(res.output)
    assert payload["n0"] == 34
    assert payload["rows"][0]["lambda"] > 0  # Perron eigenvalue
    assert payload["rows"][0]["residual"] < 1e-9


def test_detect_solves_at_the_label_tolerance_and_spectra_at_the_default(
        monkeypatch):
    asked, solve = [], cli.eigen.leading_eigs
    monkeypatch.setattr(cli.eigen, "leading_eigs",
                        lambda op, K, seed=0, tol=None: asked.append(tol)
                        or solve(op, K, seed, tol))
    for mode in ("detect", "spectra empirical"):
        res = run(*mode.split(), "--input", "builtin:karate", "--k", "2")
        assert res.exit_code == 0
    assert asked == [cli.eigen.LABEL_TOL, None]


def test_detect_drops_the_loaded_graph_before_the_solve(tmp_path,
                                                        monkeypatch):
    # a 6-node and a 2-node component: the cut is a new, smaller graph
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n6 7\n")
    loaded, alive = [], []
    cut, solve = graph.giant_component, cli.eigen.leading_eigs

    def spy_cut(g):
        loaded.append(weakref.ref(g))
        return cut(g)

    def spy_solve(op, *args, **kw):
        alive.append(loaded[0]() is not None)
        return solve(op, *args, **kw)

    monkeypatch.setattr(graph, "giant_component", spy_cut)
    monkeypatch.setattr(cli.eigen, "leading_eigs", spy_solve)
    res = run("detect", "--input", str(edges), "--k", "2", "--json")
    payload = json.loads(res.output)
    assert (payload["n_loaded"], payload["n0"]) == (8, 6)
    assert alive == [False]


def test_spectra_population_and_diagnostics_preset1():
    res = run("spectra", "population", "--preset", "1", "--json")
    payload = json.loads(res.output)
    lambdas = [row["lambda"] for row in payload["rows"]]
    assert lambdas[0] == pytest.approx(30.0, rel=1e-9)
    assert lambdas[1] == pytest.approx(10.0, rel=1e-9)
    assert payload["ratio_rows_min_distance"] == pytest.approx(2.0, rel=1e-9)

    res = run("spectra", "diagnostics", "--preset", "1", "--csv")
    body = {line.split(",")[0]: line.split(",")[1]
            for line in res.output.strip().splitlines()[1:]}
    assert float(body["osnr"]) == pytest.approx(float(body["nsnr"]))


def test_spectra_requires_a_source():
    result = CliRunner().invoke(main, ["spectra", "population"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["population", "--preset", "1", "--input", "{missing}"],
    ["empirical", "--input", "builtin:karate", "--preset", "9z"]])
def test_spectra_reads_only_the_source_its_mode_uses(tmp_path, args):
    missing = tmp_path / "missing.txt"
    result = CliRunner().invoke(main, ["spectra"] + [
        arg.format(missing=missing) for arg in args])
    assert result.exit_code == 0


@pytest.mark.parametrize("command", [
    ["detect", "--input", "builtin:karate", "--k", "2"],
    ["experiment", "1", "--reps", "1"],
    ["spectra", "population", "--preset", "1"]])
def test_negative_seed_is_an_argument_error_naming_the_option(command):
    result = CliRunner().invoke(main, command + ["--seed", "-1"])
    assert result.exit_code == 2
    assert "Invalid value for '--seed': -1" in result.output


@pytest.mark.parametrize("command", [
    ["detect", "--input", "builtin:karate"],
    ["spectra", "empirical", "--input", "builtin:karate"],
    ["eval", "--estimated", "est.txt", "--truth", "est.txt"]])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_k_below_one_is_an_argument_error_naming_the_option(
        tmp_path, monkeypatch, command, k):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "est.txt").write_text("a 1\nb 2\n")
    result = CliRunner().invoke(main, command + ["--k", k])
    assert result.exit_code == 2
    assert f"Invalid value for '--k': {k}" in result.output


@pytest.mark.parametrize("command", [["experiment"],
                                     ["spectra", "population"]])
@pytest.mark.parametrize("n, k", [(40, 0), (40, -2), (41, 2)])
def test_config_whose_k_does_not_split_n_is_data_error(tmp_path, command, n,
                                                       k):
    path = tmp_path / "cfg.txt"
    path.write_text(f"n = {n}\nK = {k}\nrep = 1\nA = 1 0.8 ; 0.8 1\n"
                    "theta = constant c=0.5\n")
    result = CliRunner().invoke(main, command + ["--config", str(path)])
    assert result.exit_code == 3
    assert result.output.startswith("data error: bad config value: ")


@pytest.mark.parametrize("command", [["experiment"],
                                     ["spectra", "population"]])
@pytest.mark.parametrize("line, message", [
    ("rep = 0", "reps must be >= 1, got 0 (key 'rep')"),
    ("rep = 1\nseed = -1", "seed must be >= 0, got -1")])
def test_config_rep_and_seed_out_of_range_are_data_errors(tmp_path, command,
                                                          line, message):
    path = tmp_path / "cfg.txt"
    path.write_text(f"n = 40\nK = 2\n{line}\nA = 1 0.8 ; 0.8 1\n"
                    "theta = constant c=0.5\n")
    result = CliRunner().invoke(main, command + ["--config", str(path)])
    assert result.exit_code == 3
    assert result.output == f"data error: bad config value: {message}\n"


def test_degenerate_model_exits_numerical_failure(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("id = d\nn = 8\nK = 2\nrep = 1\nA = 1 0 ; 0 1\n"
                    "theta = constant c=0.3\nmethods = score\nseed = 1\n")
    result = CliRunner().invoke(main, ["spectra", "population", "--config",
                                       str(path)])
    assert result.exit_code == 4
    assert "numerical failure" in result.output


@pytest.mark.parametrize("k", [2, 3])
def test_detect_exits_4_when_perron_entries_fall_below_resolution(tmp_path,
                                                                  k):
    # a 60-node clique with a 25-node pendant path is connected, yet the
    # Perron vector decays along the path below the solver's resolution
    edges = [f"{i} {j}" for i in range(60) for j in range(i + 1, 60)]
    edges += [f"{59 + t} {60 + t}" for t in range(25)]
    path = tmp_path / "tail.txt"
    path.write_text("\n".join(edges) + "\n")
    result = CliRunner().invoke(main, ["detect", "--input", str(path),
                                       "--k", str(k)])
    assert result.exit_code == 4
    # how many tail entries round to <= 0 is rounding noise of the solver
    assert result.output.startswith("numerical failure: leading eigenvector "
                                    "has ")
    assert "of 85 entries that are not positive" in result.output
    assert "below the eigensolver's resolution" in result.output


@pytest.mark.parametrize("command", [["experiment"],
                                     ["spectra", "population"]])
@pytest.mark.parametrize("A, message", [
    ("1 0.8 ; 0.8 1", "A must be 3x3, got rows of lengths [2, 2]"),
    ("1 0.8 0 ; 0.8 1", "A must be 3x3, got rows of lengths [3, 2]")])
def test_config_whose_a_is_not_k_by_k_is_data_error(tmp_path, command, A,
                                                    message):
    path = tmp_path / "cfg.txt"
    path.write_text(f"n = 30\nK = 3\nrep = 1\nA = {A}\n"
                    "theta = constant c=0.5\n")
    result = CliRunner().invoke(main, command + ["--config", str(path)])
    assert result.exit_code == 3
    assert result.output == f"data error: bad config value: {message}\n"


@pytest.mark.parametrize("command", [["experiment"],
                                     ["spectra", "population"],
                                     ["spectra", "diagnostics"]])
def test_config_with_nan_theta_is_data_error(tmp_path, command):
    path = tmp_path / "cfg.txt"
    path.write_text("n = 40\nK = 2\nrep = 1\nA = 1 0.5 ; 0.5 1\n"
                    "theta = constant c=nan\n")
    result = CliRunner().invoke(main, command + ["--config", str(path)])
    assert result.exit_code == 3
    assert result.output == ("data error: theta pattern constant c=nan "
                             "leaves (0, 1): range [nan, nan]\n")


def test_uniform_clustering_flag(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("id = u\nn = 40\nK = 2\nrep = 1\nA = 1 0.8 ; 0.8 1\n"
                    "theta = constant c=0.5\nmethods = npca\nseed = 3\n")
    res = run("experiment", "--config", str(path), "--restarts", "5",
              "--uniform-clustering", "--json")
    assert json.loads(res.output)["clustering"] == {"npca": {}}


def test_eval_accepts_detect_csv_output(tmp_path):
    est = tmp_path / "est.csv"
    res = run("detect", "--input", "builtin:karate", "--k", "2", "--csv",
              "--out", str(est))
    assert res.exit_code == 0
    truth = tmp_path / "truth.txt"
    truth.write_text("\n".join(
        f"{i} {'h' if i in set([1,2,3,4,5,6,7,8,9,11,12,13,14,17,18,20,22]) else 'o'}"
        for i in range(1, 35)))
    res = run("eval", "--estimated", str(est), "--truth", str(truth), "--json")
    assert json.loads(res.output)["mismatches"] == 1


def test_eval_command(tmp_path):
    truth = tmp_path / "truth.txt"
    est = tmp_path / "est.txt"
    truth.write_text("a 1\nb 1\nc 2\nd 2\n")
    est.write_text("a x\nb x\nc x\nd y\n")
    res = run("eval", "--estimated", str(est), "--truth", str(truth), "--json")
    payload = json.loads(res.output)
    assert payload["mismatches"] == 1
    assert payload["n"] == 4


def test_detect_reads_back_its_csv_labels(tmp_path):
    est = tmp_path / "est.csv"
    res = run("detect", "--input", "builtin:karate", "--k", "2", "--csv",
              "--out", str(est))
    assert res.exit_code == 0
    res = run("detect", "--input", "builtin:karate", "--k", "2",
              "--labels", str(est), "--json")
    assert res.exit_code == 0
    assert json.loads(res.output)["mismatches"] == 0


def test_conflicting_duplicate_label_is_data_error(tmp_path):
    truth = tmp_path / "truth.txt"
    truth.write_text("a 1\nb 1\na 1\nc 2\nd 2\nb 2\n")
    est = tmp_path / "est.txt"
    est.write_text("a x\nb x\nc y\nd y\n")
    result = CliRunner().invoke(main, ["eval", "--estimated", str(est),
                                       "--truth", str(truth)])
    assert result.exit_code == 3
    assert "line 6" in result.output and "'b'" in result.output


def test_eval_scores_the_estimated_nodes(tmp_path):
    # detect labels only the giant component; the truth may cover more nodes
    truth = tmp_path / "truth.txt"
    truth.write_text("a 1\nb 1\nc 2\nd 2\ne 2\n")
    est = tmp_path / "est.csv"
    est.write_text("node,label\na,1\nb,2\nc,2\n")
    res = run("eval", "--estimated", str(est), "--truth", str(truth), "--json")
    payload = json.loads(res.output)
    assert payload["n"] == 3
    assert payload["mismatches"] == 1


def test_detect_json_golden_on_the_seed_1_network(detect_large_dir):
    # recorded with json.dumps(payload, indent=2) writing the whole payload
    res = run("detect", "--input", str(detect_large_dir / "edges.txt"),
              "--labels", str(detect_large_dir / "labels.txt"), "--k", "2",
              "--threshold", "0", "--json")
    assert res.exit_code == 0
    text = res.output
    payload = json.loads(text)
    for key in ("input", "wall_clock_s", "labels"):
        payload.pop(key)
    assert payload == {"method": "score", "K": 2, "seed": 0,
                       "n_loaded": 46297, "n0": 46271, "edges": 299029,
                       "threshold": 0.0, "truncated_entries": 0,
                       "mismatches": 7211, "rate": 0.15584275247995505,
                       "best_perm": [1, 2]}
    block = text[text.index('  "labels": ['):text.rindex("\n}")]
    assert hashlib.sha256(block.encode()).hexdigest() == (
        "b0403a22ded1fccae2dbac77f46b7a95dadeef837ea89a019d9e3fc61c3b4d2d")


@pytest.mark.parametrize("extra", [(), ("--threshold", "0")])
def test_detect_json_bytes_equal_json_dumps(extra):
    res = run("detect", "--input", "builtin:karate", "--k", "2", "--json",
              *extra)
    assert res.exit_code == 0
    assert res.output == json.dumps(json.loads(res.output), indent=2) + "\n"


@pytest.mark.parametrize("payload, labels", [
    ({"a": 1}, [1, 2, 2]), ({"a": 1}, [7]), ({"a": 1}, []),
    ({"t": math.nan, "p": [1, 2], "d": {"x": None}, "s": "\u00e9\""},
     [3, 1, 10, 2])])
def test_json_with_labels_equals_json_dumps(payload, labels):
    assert cli._json_with_labels(payload, labels) == json.dumps(
        {**payload, "labels": labels}, indent=2)


def test_eval_reads_each_file_once(tmp_path):
    truth = tmp_path / "truth.txt"
    est = tmp_path / "est.txt"
    truth.write_text("a 1\nb 1\nc 2\nd 2\n")
    est.write_text("a x\nb x\nc x\nd y\n")
    with mock.patch.object(graph, "read_labels",
                           wraps=graph.read_labels) as read:
        res = run("eval", "--estimated", str(est), "--truth", str(truth))
    assert res.exit_code == 0
    assert read.call_count == 2
    assert "mismatches = 1" in res.output
