"""Shared test helpers: random model instances and dataset discovery."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from scorecd import DCBMParams, block_labels
from scorecd.errors import DegeneracyError

GEN_DETECT = Path(__file__).resolve().parents[1] / "scorebench/gen_detect.py"


def random_dcbm(rng, n_max=256, k_choices=(1, 2, 3, 4), eigengap_min=None):
    """One random admissible model instance (params, labels).

    A is symmetric nonnegative with max entry 1, sizes are uneven, theta is
    log-uniform-ish in (0.05, 0.95).  Instances whose community-level matrix
    has nearly degenerate eigenvalues are redrawn, since the closed-form
    spectrum is only defined for simple eigenvalues.
    """
    from scorecd import population_spectrum
    from scorecd.dcbm import dad_eigengap

    for _ in range(100):
        K = int(rng.choice(k_choices))
        sizes = rng.integers(3, max(4, n_max // K), size=K)
        n = int(sizes.sum())
        A = rng.uniform(0.05, 1.0, size=(K, K))
        A = np.triu(A) + np.triu(A, 1).T
        A = A / A.max()
        theta = rng.uniform(0.05, 0.95, size=n)
        params = DCBMParams(K=K, A=A, theta=theta, sizes=tuple(int(s) for s in sizes))
        labels = block_labels(params.sizes)
        try:
            population_spectrum(params, labels)
        except DegeneracyError:
            continue
        if eigengap_min is not None:
            comm = np.array([np.linalg.norm(theta[labels.labels == k + 1])
                             for k in range(K)])
            D = np.diag(comm / np.linalg.norm(theta))
            if K > 1 and dad_eigengap(D @ A @ D) < eigengap_min:
                continue
        return params, labels
    raise RuntimeError("could not draw a non-degenerate model instance")


def find_polblogs():
    """Locate a user-supplied web-blogs edge list (and optional labels)."""
    names = ["polblogs.txt", "polblogs-edges.txt", "web-blogs.txt"]
    label_names = ["polblogs-labels.txt", "web-blogs-labels.txt"]
    search = [Path(__file__).parent / "data", Path.cwd()]
    if os.environ.get("SCORE_DATA_DIR"):
        search.insert(0, Path(os.environ["SCORE_DATA_DIR"]))
    for root in search:
        for name in names:
            edge = root / name
            if edge.exists():
                labels = next((root / ln for ln in label_names
                               if (root / ln).exists()), None)
                return edge, labels
    return None, None


@pytest.fixture
def rng():
    return np.random.default_rng(20130825)


@pytest.fixture(scope="session")
def detect_large_dir(tmp_path_factory):
    """Directory of the files scorebench/gen_detect.py writes for --seed 1."""
    spec = importlib.util.spec_from_file_location("gen_detect", GEN_DETECT)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    out = tmp_path_factory.mktemp("detect-large")
    gen.write_inputs(1, out)
    return out
