"""Shared test helpers: random models, dense oracles and dataset discovery.

`build_omega` (the dense expectation matrix) and `r0_vector` (the closed-form
two-community ratio) are oracles that only the tests use.
"""

import importlib.util
import math
import os
from pathlib import Path

import numpy as np
import pytest

from scorecd.dcbm import (DCBMParams, block_labels, dad_eigengap,
                          population_spectrum)
from scorecd.errors import DegeneracyError, ModelValidityError

GEN_DETECT = Path(__file__).resolve().parents[1] / "scorebench/gen_detect.py"
DENSE_OMEGA_LIMIT = 4096


def build_omega(p):
    """Dense expectation matrix O(i,j) = theta(i) theta(j) A(k(i), k(j))."""
    if p.n > DENSE_OMEGA_LIMIT:
        raise ValueError(f"dense expectation matrix limited to n <= "
                         f"{DENSE_OMEGA_LIMIT}, got {p.n}")
    lab0 = p.labels - 1
    omega = np.outer(p.theta, p.theta) * p.A[np.ix_(lab0, lab0)]
    if omega.max() >= 1.0:
        raise ModelValidityError("edge probabilities reach 1; shrink theta or A")
    return omega


def r0_vector(a, b, c, d1, d2):
    """Per-community values of the two-community eigenvector ratio.

    Community 1 maps to 1; community 2 to the negative squared ratio
    -((a d1^2 - c d2^2 + sqrt((a d1^2 - c d2^2)^2 + 4 b^2 d1^2 d2^2))
    / (2 b d1 d2))^2.  Requires b > 0 and a c != b^2 (otherwise the second
    eigenvalue vanishes and the ratio is undefined).
    """
    if b <= 0:
        raise ValueError(f"b must be positive, got {b:g}")
    if a * c == b * b:
        raise ValueError("a*c == b^2 makes the second eigenvalue zero")
    x = a * d1 ** 2 - c * d2 ** 2
    disc = math.sqrt(x ** 2 + 4.0 * b ** 2 * d1 ** 2 * d2 ** 2)
    return np.array([1.0, -((x + disc) / (2.0 * b * d1 * d2)) ** 2])


def random_dcbm(rng, n_max=256, k_choices=(1, 2, 3, 4), eigengap_min=None):
    """One random admissible model instance, as DCBMParams.

    A is symmetric nonnegative with max entry 1, sizes are uneven, theta is
    log-uniform-ish in (0.05, 0.95).  Instances whose community-level matrix
    has nearly degenerate eigenvalues are redrawn, since the closed-form
    spectrum is only defined for simple eigenvalues.
    """
    for _ in range(100):
        K = int(rng.choice(k_choices))
        sizes = rng.integers(3, max(4, n_max // K), size=K)
        n = int(sizes.sum())
        A = rng.uniform(0.05, 1.0, size=(K, K))
        A = np.triu(A) + np.triu(A, 1).T
        A = A / A.max()
        theta = rng.uniform(0.05, 0.95, size=n)
        labels = block_labels(sizes)
        params = DCBMParams(A=A, theta=theta, labels=labels)
        try:
            population_spectrum(params)
        except DegeneracyError:
            continue
        if eigengap_min is not None:
            comm = np.array([np.linalg.norm(theta[labels == k + 1])
                             for k in range(K)])
            D = np.diag(comm / np.linalg.norm(theta))
            if K > 1 and dad_eigengap(D @ A @ D) < eigengap_min:
                continue
        return params
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
