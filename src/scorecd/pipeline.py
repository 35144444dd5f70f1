"""End-to-end detection: graph -> spectrum -> embedding -> partition."""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import cluster, embed
from .seeding import derived_seed


def parse_method(spec_str):
    """Parse a method name into (kind, q, canonical).

    Accepted: 'score', 'opca', 'npca', 'scoreq:<q>', and the shorthands
    'score1'/'score2' for the q = 1 / q = 2 variants.
    """
    s = spec_str.strip().lower()
    if s in ("score", "opca", "npca"):
        return s, None, s
    if s in ("score1", "score2"):
        return "scoreq", float(s[-1]), s
    if s.startswith("scoreq:"):
        q = float(s.split(":", 1)[1])
        if q <= 0:
            raise ValueError(f"q must be positive, got {q:g}")
        if q == 1.0:
            return "scoreq", 1.0, "score1"
        if q == 2.0:
            return "scoreq", 2.0, "score2"
        return "scoreq", q, f"scoreq:{q:g}"
    raise ValueError(f"unknown method {spec_str!r}; expected score, "
                     "scoreq:<q>, opca or npca")


class StageClock:
    """Seconds spent in each stage of one run, plus their total."""

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self.stages = {}

    def lap(self, stage):
        """Close `stage` at the current time; laps of one stage add up."""
        now = time.perf_counter()
        self.stages[stage] = self.stages.get(stage, 0.0) + (now - self.last)
        self.last = now

    def totals(self):
        """Rounded (1 ms) seconds per stage, and "total" up to the last lap."""
        clocks = {**self.stages, "total": self.last - self.start}
        return {key: round(v, 3) for key, v in clocks.items()}


@dataclass(frozen=True, eq=False)
class MethodResult:
    labeling: cluster.Labeling
    method: str
    kmeans: cluster.KMeansResult = None
    ratio: embed.RatioMatrix = None
    threshold: float = None  # applied (or k-means-implied) ratio threshold


def _implied_threshold(r, labeling):
    """Boundary between the two 1-D clusters a k-means run settled on."""
    one = r[labeling.labels == 1]
    two = r[labeling.labels == 2]
    if one.size == 0 or two.size == 0:
        return math.nan
    lo, hi = (two, one) if one.min() >= two.max() else (one, two)
    return float((lo.max() + hi.min()) / 2.0)


def run_method(graph, spectrum, method, K, T_n=None, seed=0, restarts=None,
               threshold=None, init="plusplus"):
    """Cluster one graph with one method, given its adjacency spectrum.

    `spectrum` must hold the K leading eigenpairs of `graph`; it is shared by
    the ratio, q-norm and ordinary-PCA routes, while 'npca' ignores it and
    decomposes the degree-normalized operator itself.  `threshold` applies
    simple 1-D thresholding instead of k-means (ratio method, K = 2 only);
    without it, a score run with K = 2 reports the threshold its k-means
    split implies.  `restarts` and `init` tune the clustering step.
    """
    kind, q, canonical = parse_method(method)
    if restarts is None:
        restarts = cluster.DEFAULT_RESTARTS
    if K == 1:
        ones = cluster.Labeling(labels=np.ones(graph.n, dtype=np.int64), K=1)
        return MethodResult(labeling=ones, method=canonical)
    if threshold is not None and not (kind == "score" and K == 2):
        raise ValueError("threshold classification needs method=score and K=2")

    ratio = None
    if kind == "score":
        ratio = embed.score_ratio(spectrum, T_n=T_n)
        if threshold is not None:
            t = float(threshold)
            return MethodResult(labeling=cluster.threshold_classify(
                ratio.ratio_vector(), t), method=canonical, ratio=ratio,
                threshold=t)
        points = ratio.R
    elif kind == "scoreq":
        points = embed.scoreq_embed(spectrum, q)
    elif kind == "opca":
        points = embed.opca_embed(spectrum)
    else:  # npca
        points = embed.npca_embed(graph, K,
                                  seed=derived_seed(seed, "npca-eigs"))

    km = cluster.kmeans(points, K, restarts=restarts, seed=seed, init=init)
    implied = None
    if ratio is not None and K == 2:
        implied = _implied_threshold(ratio.ratio_vector(), km.labeling)
    return MethodResult(labeling=km.labeling, method=canonical, kmeans=km,
                        ratio=ratio, threshold=implied)
