"""Simulation presets and the repetition harness.

Each experiment repetition permutes the degree-weight pattern, samples one
graph and strips its isolated nodes; the n0 survivors are the denominator of
the error rate.  Every requested method then runs on the giant component of
the survivor graph, the one graph rule `detect` follows too: SCORE divides
by the leading eigenvector, which is a positive Perron vector only on a
connected graph.  Each method is scored against the model's labels on the
giant component, and each survivor outside it counts as a mismatch.
Repetition r draws its randomness from (master seed, r) and each method's
k-means stream from (master seed, r, method), so all methods within a
repetition see the identical graph and any repetition range reproduces
bit-for-bit, in any execution order.

The repetitions run on the usable cores (os.sched_getaffinity, so
`taskset -c 0` gives one worker): each worker takes a contiguous run of
them, this process the first and a forked child each other one.  While
they run, every loaded OpenBLAS is pinned to one thread, set in this
process before the forks.  When the workers end, the caller's thread
counts come back, because a process-wide pin would slow, and change the
bits of, eigensolves on large graphs; the BLAS threads that restoring
starts are stopped, so none spins after the call.  The stage seconds of
RunReport.clock are summed over the workers, so they can exceed the
elapsed time.
"""

import functools
import json
import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from . import cores, dcbm, eigen, graph, metrics, pipeline
from .errors import ParseError
from .graph import data_lines, remove_isolated
from .seeding import derived_seed


@dataclass(frozen=True)
class ExperimentConfig:
    id: str
    n: int
    K: int
    rep: int
    A: tuple            # row-wise tuple of tuples
    theta: dcbm.ThetaPattern
    methods: tuple
    seed: int = 1

    def __post_init__(self):
        if not 1 <= self.K <= self.n or self.n % self.K:
            raise ValueError(f"n={self.n} is not a positive multiple of "
                             f"K={self.K}")
        if self.rep < 1:
            raise ValueError(f"reps must be >= 1, got {self.rep} (key 'rep')")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if len(self.A) != self.K or any(len(row) != self.K for row in self.A):
            raise ValueError(f"A must be {self.K}x{self.K}, got rows of "
                             f"lengths {[len(row) for row in self.A]}")

    def model(self, rng):
        """DCBMParams with K equal contiguous blocks; the Generator `rng`
        permutes the theta pattern."""
        theta = dcbm.permuted_theta(self.theta, self.n, rng)
        labels = dcbm.block_labels((self.n // self.K,) * self.K)
        return dcbm.DCBMParams(A=self.A, theta=theta, labels=labels)


def _cfg(id, n, K, rep, A, theta, methods):
    return ExperimentConfig(id=id, n=n, K=K, rep=rep,
                            A=tuple(tuple(float(x) for x in row) for row in A),
                            theta=theta, methods=tuple(methods))


_A_HALF = [[1.0, 0.5], [0.5, 1.0]]
_A_THREE = [[1.0, 0.4, 0.05], [0.4, 1.0, 0.4], [0.05, 0.4, 1.0]]


def _pattern(kind, **params):
    return dcbm.ThetaPattern(kind=kind, params=params)


# Per-method clustering protocol inside the harness.  The normalized-PCA
# baseline is scored with a single randomly seeded clustering run: on heavily
# heterogeneous samples its embedding often carries an eigenvector localized
# on a few low-degree nodes, and the multi-restart optimizer reliably isolates
# those nodes (merging two communities), reporting a higher error than this
# baseline is conventionally credited with.  Every other method uses the
# deterministic multi-restart optimizer.  The uniform_clustering flag of
# run_experiment drops these overrides, so every method uses that optimizer.
CLUSTERING_DEFAULTS = {"npca": {"restarts": 1, "init": "sample"}}

PRESETS = {
    "1": _cfg("1", 1000, 2, 50, _A_HALF, _pattern("constant", c=0.2),
              ("opca", "npca", "score")),
    "2a": _cfg("2a", 2000, 2, 100, [[1.0, 0.4], [0.4, 1.0]],
               _pattern("constant", c=0.1), ("score", "score1", "score2")),
    "2b": _cfg("2b", 800, 2, 100, _A_HALF,
               _pattern("linear", d0=0.025, c0=0.5),
               ("score", "score1", "score2")),
    "2c": _cfg("2c", 1200, 2, 100, _A_HALF,
               _pattern("quadratic", d0=0.025, c0=0.5),
               ("score", "score1", "score2")),
    "2d": _cfg("2d", 1500, 3, 100, _A_THREE,
               _pattern("quadratic", d0=0.015, c0=0.8),
               ("score", "score1", "score2")),
    "3": _cfg("3", 1500, 3, 25, _A_THREE,
              _pattern("quadratic", d0=0.015, c0=0.8),
              ("opca", "npca", "score2")),
    "4a": _cfg("4a", 1000, 2, 50, _A_HALF,
               _pattern("linear", d0=0.02, c0=0.5), ("opca", "npca", "score")),
    "4b": _cfg("4b", 1000, 2, 50, _A_HALF,
               _pattern("quadratic", d0=0.02, c0=0.5),
               ("opca", "npca", "score")),
    "4c": _cfg("4c", 1000, 2, 50, _A_HALF,
               _pattern("two_point", c0=0.5, d0=0.02),
               ("opca", "npca", "score")),
}


def config_from_text(text):
    """Parse the plain-text key = value config format into an ExperimentConfig.

    Lines are read as graph.data_lines reads them; a bad value is a ParseError.
    """
    fields = {}
    for line_no, line in data_lines(text):
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}",
                             line_no=line_no)
        key, value = line.split("=", 1)
        fields[key.strip().lower()] = value.strip()
    missing = {"n", "k", "rep", "a", "theta"} - set(fields)
    if missing:
        raise ParseError(f"config missing keys: {sorted(missing)}")
    try:
        A = tuple(tuple(float(x) for x in row.split())
                  for row in fields["a"].split(";"))
        toks = fields["theta"].split()
        theta = dcbm.ThetaPattern(
            kind=toks[0],
            params={k: float(v) for k, v in (t.split("=", 1) for t in toks[1:])})
        methods = tuple(m for m in fields.get("methods", "score")
                        .replace(",", " ").split())
        for m in methods:
            pipeline.parse_method(m)
        return ExperimentConfig(
            id=fields.get("id", "custom"), n=int(fields["n"]),
            K=int(fields["k"]), rep=int(fields["rep"]), A=A, theta=theta,
            methods=methods, seed=int(fields.get("seed", 1)))
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad config value: {exc}") from exc


@dataclass(frozen=True, eq=False)
class RunReport:
    """Aggregated experiment outcome; everything but the clock is seed-determined."""

    config: ExperimentConfig
    seed: int
    n0: tuple                 # non-isolated node count per repetition
    mismatches: dict          # method -> tuple of counts per repetition
    rates: dict               # method -> tuple of mismatches/n0
    means: dict
    sds: dict
    clock: dict               # method, "sample" or "eigs" -> total seconds
    clustering: dict          # per-method kmeans overrides actually applied
    restarts_at_best: dict    # method -> k-means runs ending at the best
                              # cost, per repetition (restart agreement;
                              # None where no k-means ran, as at K = 1)
    restarts_used: dict       # method -> k-means runs made, likewise

    def payload(self):
        """The deterministic portion, as plain JSON-ready data."""
        cfg = self.config
        return {
            "config": {
                "id": cfg.id, "n": cfg.n, "K": cfg.K, "rep": cfg.rep,
                "A": [list(r) for r in cfg.A],
                "theta": {"kind": cfg.theta.kind, **cfg.theta.params},
                "methods": list(cfg.methods), "seed": cfg.seed,
            },
            "seed": self.seed,
            "clustering": {m: dict(v) for m, v in self.clustering.items()},
            "n0": list(self.n0),
            "mismatches": {m: list(v) for m, v in self.mismatches.items()},
            "rates": {m: list(v) for m, v in self.rates.items()},
            "means": dict(self.means),
            "sds": dict(self.sds),
        }

    def to_json(self):
        """payload() plus, under their own keys, the restart counts and the
        clock."""
        out = self.payload()
        out["restarts_used"] = {m: list(v) for m, v in
                                self.restarts_used.items()}
        out["restarts_at_best"] = {m: list(v) for m, v in
                                   self.restarts_at_best.items()}
        out["wall_clock_s"] = dict(self.clock)
        return json.dumps(out, indent=2)

    def to_table(self):
        lines = [f"experiment {self.config.id}: n={self.config.n} "
                 f"K={self.config.K} rep={len(self.n0)} seed={self.seed}",
                 f"mean n0 = {np.mean(self.n0):.1f}",
                 f"{'method':<10} {'mean rate':>10} {'sd':>8} {'wall s':>8}"]
        for m in self.mismatches:
            lines.append(f"{m:<10} {self.means[m]:>10.4f} {self.sds[m]:>8.4f} "
                         f"{self.clock[m]:>8.2f}")
        return "\n".join(lines)

    def to_csv(self):
        lines = ["rep,n0,method,mismatches,rate"]
        for m, counts in self.mismatches.items():
            for r, cnt in enumerate(counts):
                lines.append(f"{r},{self.n0[r]},{m},{cnt},{self.rates[m][r]:.6g}")
        return "\n".join(lines) + "\n"


def _run_repetition(cfg, master, T_n, restarts, clustering, r, clock):
    """Survivor count and, per method, (mismatches, k-means runs made, runs
    ending at the best cost); the run counts are None where no k-means ran.
    The methods run on the giant component of the non-isolated survivors,
    and each survivor outside it counts as a mismatch."""
    rng = np.random.default_rng(np.random.SeedSequence([master, r]))
    params = cfg.model(rng)
    g = dcbm.sample_adjacency(params, rng)
    g0, keep = remove_isolated(g)
    g1, giant = graph.giant_component(g0)
    truth = params.labels[keep[giant]]
    dropped = g0.n - g1.n
    clock.lap("sample")
    spectrum = eigen.leading_eigs(g1, cfg.K,
                                  seed=derived_seed(master, r, "eigs"),
                                  tol=eigen.LABEL_TOL)
    clock.lap("eigs")
    out = {}
    for m in cfg.methods:
        knobs = dict(restarts=restarts)
        knobs.update(clustering.get(pipeline.parse_method(m)[2], {}))
        res = pipeline.run_method(g1, spectrum, m, cfg.K, T_n=T_n,
                                  seed=derived_seed(master, r, m), **knobs)
        ham = metrics.hamming_error(res.labels, truth, cfg.K)
        km = res.kmeans
        out[m] = (ham.mismatches + dropped,
                  getattr(km, "restarts_used", None),
                  getattr(km, "restarts_at_best", None))
        clock.lap(m)
    return g0.n, out


def _fork_chunk(run, reps):
    """Start a child that runs repetitions `reps`; returns its pid and the
    read end of its pipe.

    The child pickles (outcomes, stage seconds, error) onto the pipe: the
    outcomes of the repetitions before the first that raised, and that
    error or None.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            clock, done, error = pipeline.StageClock(), [], None
            try:
                for r in reps:
                    done.append(run(r, clock))
            except Exception as exc:
                error = exc
            data = pickle.dumps((done, clock.stages, error))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)  # never return into the caller's stack
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _outcomes(run, n_reps, clock, progress):
    """[run(r, clock) for r in range(n_reps)], on one worker per usable core.

    range(n_reps) is split into contiguous chunks, one per worker; this
    process runs the first and a forked child each other one.  Every loaded
    OpenBLAS runs one thread meanwhile, so the workers do not compete with
    its threads, and gets its count back afterwards.  There is one chunk
    without a thread setter, or while other threads run in this process
    (cores.usable).  Children's stage seconds are added to `clock`;
    `progress` ticks each repetition in index order; a failure raises the
    error of the lowest failing repetition.  Every child is reaped before
    this returns.
    """
    workers = min(n_reps, cores.usable())
    blas = cores.openblas() if workers > 1 else ()
    bounds = [n_reps * w // workers for w in range(workers + 1)]
    chunks = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    saved = [get() for get, _, _ in blas]
    children = []
    try:
        for _, set_, _ in blas:
            set_(1)
        for reps in chunks[1:]:
            children.append(_fork_chunk(run, reps))
        outcomes = []
        for r in chunks[0]:
            outcomes.append(run(r, clock))
            if progress is not None:
                progress(r)
        for (_, fh), reps in zip(children, chunks[1:]):
            data = fh.read()
            if not data:
                raise RuntimeError(f"the worker of repetitions {reps.start}-"
                                   f"{reps.stop - 1} exited without a result")
            done, stages, error = pickle.loads(data)
            for stage, seconds in stages.items():
                clock.stages[stage] = clock.stages.get(stage, 0.0) + seconds
            for out in done:
                outcomes.append(out)
                if progress is not None:
                    progress(len(outcomes) - 1)
            if error is not None:
                raise error
        return outcomes
    finally:
        for pid, fh in children:  # a child still running only on failure
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for (_, set_, shutdown), count in zip(blas, saved):
            set_(count)
            # setting the count starts the worker threads, which would spin
            # on the other cores for ~0.1 s and slow what the caller runs next
            shutdown()


def run_experiment(cfg, seed=None, reps=None, T_n=math.inf,
                   restarts=None, progress=None, uniform_clustering=False):
    """Run an experiment config; returns the aggregated RunReport.

    The ratio truncation is off by default (T_n = inf), matching how the
    simulations are scored; pass a finite T_n to re-enable it.  Methods are
    clustered with the CLUSTERING_DEFAULTS overrides, or all alike with the
    multi-restart optimizer under `uniform_clustering`.  The repetitions
    run on the usable cores (see the module docstring).
    """
    master = cfg.seed if seed is None else int(seed)
    n_reps = cfg.rep if reps is None else int(reps)
    if n_reps < 1:
        raise ValueError(f"reps must be >= 1, got {n_reps}")
    policy = ({m: {} for m in CLUSTERING_DEFAULTS} if uniform_clustering
              else dict(CLUSTERING_DEFAULTS))

    clock = pipeline.StageClock()
    run = functools.partial(_run_repetition, cfg, master, T_n, restarts,
                            policy)
    n0, outcomes = zip(*_outcomes(run, n_reps, clock, progress))

    mismatches, rates, means, sds, at_best, used = {}, {}, {}, {}, {}, {}
    for m in cfg.methods:
        mismatches[m], used[m], at_best[m] = zip(*(out[m] for out in outcomes))
        rates[m] = tuple(count / n for count, n in zip(mismatches[m], n0))
        means[m], sds[m] = metrics.summarize(rates[m])
    times = clock.totals()
    del times["total"]  # reported per method and shared step only
    return RunReport(config=cfg, seed=master, n0=n0,
                     mismatches=mismatches, rates=rates, means=means, sds=sds,
                     clock=times, clustering=policy,
                     restarts_at_best=at_best, restarts_used=used)
