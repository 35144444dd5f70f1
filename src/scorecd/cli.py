"""Command-line interface: detect, experiment, spectra, eval.

Exit codes: 0 success, 2 argument error, 3 data error, 4 numerical failure.
Input files are looked up as given, then under $SCORE_DATA_DIR; one that
cannot be read as text is a data error.  The karate club network ships
embedded; use --input builtin:karate.
"""

import contextlib
import functools
import io
import json
import math
import os
import sys

import click
import numpy as np

from . import (cluster, datasets, dcbm, eigen, experiments, graph, metrics,
               pipeline)
from .errors import DataError, NumericalError
from .seeding import derived_seed


def _warn(text, end="\n"):
    # not click.echo(err=True), which keeps every stderr object it has
    # written to alive (see _emit)
    sys.stderr.write(text + end)
    sys.stderr.flush()


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataError as exc:
            _warn(f"data error: {exc}")
            sys.exit(3)
        except NumericalError as exc:
            _warn(f"numerical failure: {exc}")
            sys.exit(4)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    return wrapper


def _resolve_path(path):
    if os.path.exists(path):
        return path
    data_dir = os.environ.get("SCORE_DATA_DIR")
    if data_dir:
        candidate = os.path.join(data_dir, path)
        if os.path.exists(candidate):
            return candidate
    raise DataError(f"cannot find input file {path!r} "
                    "(also searched $SCORE_DATA_DIR)")


@contextlib.contextmanager
def _open_input(path):
    """The input file at `path`, open as text; a read failure is a data error."""
    path = _resolve_path(path)
    try:
        with open(path) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's strerror is its message without the path
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"cannot read {path!r} as text: {reason}") from exc


def _load_graph(input_spec):
    """Graph of builtin:<name> or an edge-list path, and a builtin's labels."""
    if input_spec.startswith("builtin:"):
        name = input_spec.split(":", 1)[1]
        if name not in datasets.BUILTIN:
            raise DataError(f"unknown builtin dataset {name!r}; "
                            f"available: {sorted(datasets.BUILTIN)}")
        edges, labels = datasets.BUILTIN[name]
        return graph.load_edge_list(io.StringIO(edges)), io.StringIO(labels)
    with _open_input(input_spec) as fh:
        return graph.load_edge_list(fh), None


def _truth_for(g, labels_path, builtin_labels, K):
    if labels_path:
        with _open_input(labels_path) as fh:
            truth, codes = graph.load_labels(fh, g.original_ids)
    elif builtin_labels is not None:
        truth, codes = graph.load_labels(builtin_labels, g.original_ids)
    else:
        return None
    if len(codes) > K:
        raise DataError(f"ground truth has {len(codes)} labels but K={K}")
    return truth


def _json_with_labels(payload, labels):
    """json.dumps({**payload, "labels": labels}, indent=2), byte for byte.

    `payload` is a non-empty dict without a "labels" key and `labels` a list
    of ints.  indent= selects json's pure-Python encoder, which would walk
    the labels one by one; one join writes their block instead.
    """
    head = json.dumps(payload, indent=2)
    block = ",\n    ".join(map(str, labels))
    block = f"[\n    {block}\n  ]" if labels else "[]"
    return f'{head[:-2]},\n  "labels": {block}\n}}'


def _key_values(mapping):
    """The `key = value` lines of a mapping."""
    return [f"{key} = {value}" for key, value in mapping.items()]


def _emit(text, out):
    """Write `text`, ended by one line feed, to the file `out` or stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DataError(f"cannot write {out!r}: "
                            f"{exc.strerror or exc}") from exc
    else:
        # not click.echo: click keeps every stdout object it has written to,
        # so each in-process run that swaps sys.stdout (CliRunner,
        # contextlib.redirect_stdout) would leave its whole output alive
        sys.stdout.write(text)
        sys.stdout.flush()


_restarts_option = click.option(
    "--restarts", type=int, default=None,
    help=f"Cap on Lloyd restarts (default {cluster.DEFAULT_RESTARTS}); "
         f"k-means stops earlier once {cluster.AGREEING_RUNS} runs reach the "
         f"best cost, after at least {cluster.MIN_RESTARTS}; unused by the "
         "exact split of K=2 ratios.")


@click.group()
@click.version_option(package_name="scorecd")
def main():
    """Community detection on eigenvector ratios, with spectral baselines."""


@main.command()
@click.option("--input", "input_spec", required=True,
              help="Edge-list path or builtin:<name>.")
@click.option("--labels", default=None,
              help="Ground-truth 'node label' file (or node,label CSV).")
@click.option("--k", "k", type=int, required=True, help="Community count.")
@click.option("--method", default="score", show_default=True,
              help="score, scoreq:<q>, opca or npca.")
@click.option("--threshold", type=float, default=None,
              help="1-D ratio threshold t instead of k-means (K=2, "
                   "method=score).")
@click.option("--tn", type=float, default=None,
              help="Ratio truncation level; default log(n).")
@_restarts_option
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.option("--csv", "as_csv", is_flag=True, help="Per-node label rows.")
@click.option("--out", default=None, help="Write output to a file.")
@_guard
def detect(input_spec, labels, k, method, threshold, tn, restarts, seed,
           as_json, as_csv, out):
    """Detect communities in a real network (giant component is used)."""
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    clock = pipeline.StageClock()
    g_raw, builtin_labels = _load_graph(input_spec)
    clock.lap("load")
    g, _ = graph.giant_component(g_raw)
    clock.lap("giant")
    if k > g.n:
        raise ValueError(f"K={k} exceeds the {g.n}-node giant component")
    spectrum = eigen.leading_eigs(g, k, seed=derived_seed(seed, "eigs"))
    clock.lap("eigs")
    result = pipeline.run_method(g, spectrum, method, k, T_n=tn, seed=seed,
                                 restarts=restarts, threshold=threshold)
    clock.lap("method")
    truth = _truth_for(g, labels, builtin_labels, k)
    ham = None
    if truth is not None:
        ham = metrics.hamming_error(result.labeling.labels, truth, k)
    clock.lap("labels")

    if as_csv:
        lines = ["node,label"]
        lines += [f"{tok},{lab}" for tok, lab in
                  zip(g.original_ids, result.labeling.labels.tolist())]
        _emit("\n".join(lines), out)
        return
    payload = {
        "input": input_spec, "method": result.method, "K": k, "seed": seed,
        "n_loaded": g_raw.n, "n0": g.n, "edges": g.num_edges,
        "threshold": result.threshold,
        "wall_clock_s": clock.totals(),
    }
    if result.kmeans is not None:
        payload["kmeans_cost"] = result.kmeans.cost
        payload["kmeans_restarts_used"] = result.kmeans.restarts_used
        payload["kmeans_restarts_at_best"] = result.kmeans.restarts_at_best
    if result.ratio is not None:
        payload["truncated_entries"] = result.ratio.truncated_count
    if ham is not None:
        payload.update(mismatches=ham.mismatches, rate=ham.rate,
                       best_perm=list(ham.best_perm))
    if as_json:
        _emit(_json_with_labels(payload, result.labeling.labels.tolist()), out)
    else:
        _emit("\n".join(_key_values(payload)), out)


def _load_config(preset, config_path):
    if (preset is None) == (config_path is None):
        raise ValueError("give exactly one of a preset id or --config PATH")
    if preset is not None:
        if preset not in experiments.PRESETS:
            raise ValueError(f"unknown preset {preset!r}; available: "
                             f"{sorted(experiments.PRESETS)}")
        return experiments.PRESETS[preset]
    with _open_input(config_path) as fh:
        return experiments.config_from_text(fh.read())


@main.command()
@click.argument("preset", required=False)
@click.option("--config", "config_path", default=None,
              help="Plain-text experiment config file.")
@click.option("--reps", type=int, default=None, help="Override repetitions.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override master seed.")
@click.option("--tn", type=float, default=math.inf, show_default="inf",
              help="Ratio truncation during simulation.")
@_restarts_option
@click.option("--uniform-clustering", is_flag=True,
              help="Cluster every method with the multi-restart optimizer "
                   "(by default the normalized-PCA baseline is scored with "
                   "a single randomly seeded run).")
@click.option("--progress", is_flag=True, help="Tick repetitions on stderr.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--csv", "as_csv", is_flag=True, help="Per-repetition rows.")
@click.option("--out", default=None, help="Write output to a file.")
@_guard
def experiment(preset, config_path, reps, seed, tn, restarts,
               uniform_clustering, progress, as_json, as_csv, out):
    """Run a simulation preset (1, 2a-2d, 3, 4a-4c) or a custom config."""
    cfg = _load_config(preset, config_path)
    tick = (lambda r: _warn(".", end="")) if progress else None
    clustering = {"npca": {}} if uniform_clustering else None
    report = experiments.run_experiment(cfg, seed=seed, reps=reps, T_n=tn,
                                        restarts=restarts,
                                        progress=tick, clustering=clustering)
    if progress:
        _warn("")
    if as_csv:
        _emit(report.to_csv(), out)
    elif as_json:
        _emit(report.to_json(), out)
    else:
        _emit(report.to_table(), out)


def _spectra_rows(what, input_spec, preset, config_path, k, seed):
    """Rows and extra fields of one spectra mode, reading only its source."""
    if what == "empirical":
        if not input_spec:
            raise ValueError("empirical spectra need --input")
        g, _ = _load_graph(input_spec)
        g0, _ = graph.giant_component(g)
        spectrum = eigen.leading_eigs(g0, k,
                                      seed=derived_seed(seed or 0, "eigs"))
        return [{"k": i + 1, "lambda": p.value, "residual": p.residual}
                for i, p in enumerate(spectrum.pairs)], {"n0": g0.n}
    cfg = _load_config(preset, config_path)
    params, truth = cfg.model(cfg.seed if seed is None else seed)
    if what == "population":
        ps = dcbm.population_spectrum(params, truth)
        dists = dcbm.population_ratio_matrix(ps) if cfg.K >= 2 else None
        rows = [{"k": i + 1, "lambda": lam,
                 "dad_eigenvalue": lam / float(params.theta @ params.theta)}
                for i, lam in enumerate(ps.lambdas)]
        extra = {"ratio_rows_min_distance":
                 None if dists is None else _min_row_distance(dists.R)}
        return rows, extra
    diag = dcbm.diagnostics(params, truth)
    rows = [{"quantity": name, "value": getattr(diag, name)}
            for name in ("eigengap", "err_n", "osnr", "nsnr", "wnorm_bound",
                         "osc", "regularity_ratio", "mdv_ok", "mdm_ok")]
    return rows, {}


def _min_row_distance(R):
    rows = np.unique(np.round(R, 9), axis=0)
    if rows.shape[0] < 2:
        return None
    dists = [float(np.linalg.norm(rows[i] - rows[j]))
             for i in range(len(rows)) for j in range(i + 1, len(rows))]
    return min(dists)


@main.command()
@click.argument("what", type=click.Choice(["empirical", "population",
                                           "diagnostics"]))
@click.option("--input", "input_spec", default=None,
              help="Edge-list path or builtin:<name> (empirical).")
@click.option("--preset", default=None, help="Experiment preset id.")
@click.option("--config", "config_path", default=None,
              help="Plain-text config file.")
@click.option("--k", "k", type=int, default=2, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--json", "as_json", is_flag=True)
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--out", default=None, help="Write output to a file.")
@_guard
def spectra(what, input_spec, preset, config_path, k, seed, as_json, as_csv,
            out):
    """Inspect empirical or closed-form spectra, or model diagnostics."""
    rows, extra = _spectra_rows(what, input_spec, preset, config_path, k,
                                seed)
    if as_csv:
        cols = list(rows[0])
        lines = [",".join(str(row[c]) for c in cols) for row in rows]
        _emit("\n".join([",".join(cols)] + lines), out)
    elif as_json:
        _emit(json.dumps({"rows": rows, **extra}, indent=2), out)
    else:
        lines = [" ".join(f"{key}={value}" for key, value in row.items())
                 for row in rows]
        _emit("\n".join(lines + _key_values(extra)), out)


@main.command("eval")
@click.option("--estimated", required=True,
              help="'node label' file (or node,label CSV) to score.")
@click.option("--truth", required=True, help="'node label' reference file.")
@click.option("--k", "k", type=int, default=None,
              help="Community count; default: distinct labels seen.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", default=None, help="Write output to a file.")
@_guard
def eval_cmd(estimated, truth, k, as_json, out):
    """Permutation-minimized Hamming error between two label files.

    Scored over the nodes of the estimated file (the giant component, for
    `detect --csv` output); the truth file must label each of them.
    """
    with _open_input(estimated) as fh:
        est = graph.read_labels(fh)
    order = list(est)
    est_codes, _ = graph.code_labels(est, order)
    with _open_input(truth) as fh:
        tru_codes, _ = graph.load_labels(fh, order)
    K = k or max(est_codes.max(), tru_codes.max())
    ham = metrics.hamming_error(est_codes, tru_codes, int(K))
    payload = {"n": len(order), "K": int(K), "mismatches": ham.mismatches,
               "rate": ham.rate, "best_perm": list(ham.best_perm)}
    if as_json:
        _emit(json.dumps(payload, indent=2), out)
    else:
        _emit("\n".join(_key_values(payload)), out)


if __name__ == "__main__":
    main()
