"""Benchmark of the scorecd command line, end to end and per layer.

    python3 scorebench/run.py --workload sim-k2 --seed 1 --seconds 32 --trace 0

Drives `scorecd.cli.main` in this process with the arguments a user would
type (default worker count, BLAS threads at the library default) and times
each call from outside.  The program is imported from `src/` next to this
directory; without it the benchmark exits 2 and prints no result.

Workloads (see RATIONALE.md for why each was chosen):
  sim-k2        experiment 1  --seed S_i --reps 4 --json   (n=1000, K=2)
  sim-k3        experiment 2d --seed S_i --reps 2 --json   (n=1500, K=3)
  detect-large  detect --input G --labels L --k 2 --threshold 0 --json
                on a ~50k-node network written by gen_detect.py from --seed

Call i of a simulation workload uses master seed S_i = seed * 10^6 + i, so
every call samples fresh graphs and the inputs depend on --seed alone.

--trace 0 reports the end-to-end metrics; --trace 1 runs the same calls
untraced and then traced (spans.py) and reports per-layer metrics.  Every
call's output is checked; the last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5  # median; the first in a fresh checkout also writes bytecode
# reference_seconds() on the measuring host (2-vCPU VM) at its usual speed;
# gated timings are scaled to a host that runs the reference in this time
REF_NOMINAL_S = 0.035
SETUP_CODE = ("import time; t = time.perf_counter(); import scorecd, scorecd.cli; "
              "print(time.perf_counter() - t)")


class CheckFailed(Exception):
    """A call exited 0 but its output is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _deterministic_part(doc):
    """The JSON output minus its wall-clock field, as canonical text."""
    doc = dict(doc)
    doc.pop("wall_clock_s", None)
    return json.dumps(doc, sort_keys=True)


class Sim:
    """`scorecd experiment <preset>`, a few repetitions per call."""

    latency_name = "call_s"

    def __init__(self, preset, reps, accuracy_ops):
        self.preset = preset
        self.reps = reps
        self.accuracy_ops = accuracy_ops  # first calls whose rates are reported

    def prepare(self, seed, workdir):
        from scorecd.experiments import PRESETS
        cfg = PRESETS[self.preset]
        self.seed, self.cfg = seed, cfg
        self.chance = 1.0 - 1.0 / cfg.K
        return {"preset": self.preset, "n": cfg.n, "K": cfg.K,
                "methods": list(cfg.methods), "reps_per_call": self.reps,
                "master_seeds": f"{seed * 10**6} + call index"}

    def argv(self, i):
        return ["experiment", self.preset, "--seed", str(self.seed * 10**6 + i),
                "--reps", str(self.reps), "--json"]

    def check(self, i, text):
        """Returns (graphs labelled, {method: per-graph rates}, canonical text)."""
        doc = json.loads(text)
        n0 = doc["n0"]
        _require(doc["seed"] == self.seed * 10**6 + i, "wrong master seed")
        _require(len(n0) == self.reps, f"{len(n0)} repetitions, want {self.reps}")
        _require(all(0 < m <= self.cfg.n for m in n0), "bad survivor counts")
        _require(sorted(doc["rates"]) == sorted(self.cfg.methods),
                 f"methods {sorted(doc['rates'])}")
        for m, rates in doc["rates"].items():
            _require(doc["mismatches"][m] == [round(r * k) for r, k in
                                              zip(rates, n0)],
                     f"{m}: rates disagree with mismatch counts")
            _require(doc["means"][m] < self.chance,
                     f"{m}: mean rate {doc['means'][m]:.4f} not below chance "
                     f"{self.chance:.4f}")
        return self.reps, doc["rates"], _deterministic_part(doc)


class Detect:
    """`scorecd detect` with 1-D thresholding on a generated large network."""

    accuracy_ops = 1  # every call reads the same files
    latency_name = "detect_s"

    def prepare(self, seed, workdir):
        import numpy as np
        proc = subprocess.run(
            [sys.executable, str(HERE / "gen_detect.py"), "--seed", str(seed),
             "--out", str(workdir)],
            capture_output=True, text=True, check=True, timeout=120)
        self.inputs = json.loads(proc.stdout.strip().splitlines()[-1])
        self.truth = np.load(workdir / "expected.npz")["truth"]
        self.edges, self.labels = workdir / "edges.txt", workdir / "labels.txt"
        return self.inputs

    def argv(self, i):
        return ["detect", "--input", str(self.edges), "--labels",
                str(self.labels), "--k", "2", "--threshold", "0", "--json"]

    def check(self, i, text):
        import numpy as np
        doc = json.loads(text)
        labels = np.asarray(doc["labels"])
        n0 = self.inputs["n0"]
        _require(doc["n0"] == n0 and labels.size == n0,
                 f"{labels.size} labels for a {n0}-node giant component")
        _require(np.isin(labels, (1, 2)).all(), "labels outside 1..K")
        wrong = int(np.count_nonzero(labels != self.truth))
        rate = min(wrong, n0 - wrong) / n0
        _require(abs(rate - doc["rate"]) < 1e-12,
                 f"reported rate {doc['rate']} but labels give {rate}")
        _require(rate < 0.5, f"rate {rate:.4f} not below chance 0.5")
        return 1, {doc["method"]: [rate]}, _deterministic_part(doc)


WORKLOADS = {
    "sim-k2": lambda: Sim("1", reps=4, accuracy_ops=20),
    "sim-k3": lambda: Sim("2d", reps=2, accuracy_ops=20),
    "detect-large": Detect,
}


def reference_seconds():
    """Time of fixed work shaped like the program's: the host's speed now.

    String-keyed dict inserts (like edge-list parsing) and many small numpy
    operations (like Lloyd iterations), in a few MB, so the run's peak memory
    does not move.
    """
    import numpy as np
    t0 = time.perf_counter()
    for _ in range(6):
        table = {}
        for i in range(20_000):
            table[str(i)] = i
    x = np.arange(2_000, dtype=float)
    for _ in range(1_800):
        x = np.sqrt(x * x + 1.0)
    return time.perf_counter() - t0


def invoke(argv, tracer=None):
    """One in-process CLI call; returns (seconds, exit code, stdout text)."""
    from scorecd.cli import main
    import click
    out = io.StringIO()
    code = 0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = main.main(args=argv, standalone_mode=False) or 0
            else:
                code = tracer.call("cli", None, main.main, args=argv,
                                   standalone_mode=False) or 0
    except SystemExit as exc:
        code = exc.code or 0
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    except Exception:
        traceback.print_exc()
        code = "exception"
    return time.perf_counter() - t0, code, out.getvalue()


class Tally:
    """Outcome of a sequence of calls."""

    def __init__(self):
        self.times, self.graphs = [], 0
        self.attempted = self.failed = self.wrong = 0
        self.rates = {}          # method -> rates from the accuracy calls
        self.reference = []      # reference_seconds() before each call
        self.first = None        # deterministic output text of call 0

    def run(self, workload, i, tracer=None, keep_rates=False):
        self.reference.append(reference_seconds())
        elapsed, code, text = invoke(workload.argv(i), tracer)
        self.times.append(elapsed)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"call {i} exited {code}", file=sys.stderr)
            return
        try:
            graphs, rates, canonical = workload.check(i, text)
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.failed += 1
            self.wrong += 1
            print(f"call {i}: wrong output: {exc!r}", file=sys.stderr)
            return
        self.graphs += graphs
        if i == 0:
            self.first = canonical
        if keep_rates:
            for m, values in rates.items():
                self.rates.setdefault(m, []).extend(values)


def tail(times):
    """Highest percentile with at least ten samples beyond it, or the median.

    Returns (seconds, percentile, samples, samples beyond).  With 20 calls or
    fewer that percentile is at or below the median, so the median stands in.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50, n, n // 2
    return ordered[n - 11], 100 * (n - 10) // n, n, 10


def setup_seconds():
    """Median import time of scorecd and scorecd.cli in fresh interpreters.

    Returns it with the mean reference time taken before each import.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, reference = [], []
    for _ in range(SETUP_SAMPLES):
        reference.append(reference_seconds())
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(proc.stdout))
    return statistics.median(samples), statistics.fmean(reference)


def _blas():
    import numpy as np
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, paths = None, set()
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{cfg.get('name')} {cfg.get('version')}",
            "blas_threads": threads,
            "blas_env": {k: os.environ[k] for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS") if k in os.environ}}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(workload, seed, inputs):
    import numpy as np
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "scorecd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "inputs": inputs,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, **_blas(),
            "git_commit": _git_commit(), "src_sha256": digest.hexdigest()}


def end_to_end(workload, tally, setup):
    """Gated metrics, and printed lines for the ungated ones.

    The gated timings are scaled by the reference time measured alongside
    them, which cancels most of a shared host's drift in speed.  The latency
    percentiles are printed but not gated: the median of ~20 one-second calls
    flips with the host's speed, while the total call time behind reps_per_s
    averages over it.
    """
    methods = sorted(tally.rates)
    means = {m: statistics.fmean(tally.rates[m]) for m in methods}
    tail_s, pct, n, beyond = tail(tally.times)
    setup_s, setup_ref = setup
    call_ref = statistics.fmean(tally.reference)
    reps_per_s = tally.graphs / sum(tally.times)
    metrics = {
        "setup_s": (setup_s * REF_NOMINAL_S / setup_ref, "s"),
        "reps_per_s": (reps_per_s * call_ref / REF_NOMINAL_S, "1/s"),
        "error_rate.score": (means["score"], "rate"),
        "error_rate.mean": (statistics.fmean(means.values()), "rate"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    name = workload.latency_name
    notes = [f"call times (s) = {[round(t, 4) for t in tally.times]}",
             f"setup_s.raw = {setup_s} s (reference {setup_ref} s)",
             f"reps_per_s.raw = {reps_per_s} 1/s (reference {call_ref} s)",
             f"{name}_p50 = {statistics.median(tally.times)} s "
             f"(median of {n} calls)",
             f"{name}_tail = {tail_s} s (p{pct} of {n} calls, "
             f"{beyond} beyond it)",
             f"failed_frac = {tally.failed / tally.attempted} "
             f"({tally.failed} of {tally.attempted} calls)"]
    notes += [f"error_rate.{m} = {means[m]} rate "
              f"({len(tally.rates[m])} graphs)" for m in methods]
    return metrics, notes


def per_layer(workload, untraced):
    from spans import Tracer
    ops = len(untraced.times)
    traced = Tally()
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(ops):
            traced.run(workload, i, tracer)
    finally:
        tracer.uninstall()
    traced_s, untraced_s = sum(traced.times), sum(untraced.times)
    metrics = tracer.report(ops, traced_s, untraced_s)
    shares = sorted(((tracer.self_s[layer] / traced_s, layer)
                     for layer in tracer.self_s), reverse=True)
    notes = [f"traced calls = {ops}"]
    notes += [f"self share {layer} = {share:.4f}" for share, layer in shares]
    return metrics, notes, traced


def measure(workload, seconds, min_ops, keep_rates):
    tally = Tally()
    t_end = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < t_end:
        tally.run(workload, i, keep_rates=keep_rates and i < min_ops)
        i += 1
    return tally


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "scorecd" / "__init__.py").is_file():
        print(f"scorecd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scorecd
    if Path(scorecd.__file__).resolve().parent != SRC / "scorecd":
        print(f"imported scorecd from {scorecd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    setup_s = setup_seconds() if args.trace == 0 else None
    workload = WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs = workload.prepare(args.seed, workdir)
        print("env " + json.dumps(environment(args.workload, args.seed, inputs)))

        # untimed first call: lazy imports and caches, and the reference
        # output for the determinism check against timed call 0
        warm = Tally()
        warm.run(workload, 0)
        if args.trace == 0:
            tally = measure(workload, args.seconds, workload.accuracy_ops, True)
            if not tally.rates:
                print("every call of the accuracy sample failed", file=sys.stderr)
                return 1
            metrics, notes = end_to_end(workload, tally, setup_s)
            calls = [tally]
        else:
            untraced = measure(workload, args.seconds / 2, 1, False)
            metrics, notes, traced = per_layer(workload, untraced)
            calls = [untraced, traced]
        deterministic = (warm.first is not None and
                         all(t.first == warm.first for t in calls))
        notes.append(f"determinism (call 0 repeated) = {deterministic}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in calls) + warm.attempted
    failed = sum(t.failed for t in calls) + warm.failed
    wrong = sum(t.wrong for t in calls) + warm.wrong
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    correct = deterministic and wrong == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
