"""Degree-corrected block model: sampling, closed-form spectra, diagnostics.

Edge probabilities are theta(i) * theta(j) * A(k, l) for nodes i in community
k and j in community l, with A normalized to max entry 1 and all theta in
(0, 1).  The expectation matrix has exactly K nonzero eigenvalues, obtainable
from the K x K problem on D A D where D holds the per-community overall degree
intensities; those closed forms drive the verification oracles, the population
ratio matrix, and the signal-to-noise diagnostics.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cluster import Labeling
from .eigen import _lead_sign, _magnitude_order
from .embed import RatioMatrix
from .errors import DegeneracyError, ModelValidityError
from .graph import from_edges
from .seeding import as_rng

DAD_GAP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DCBMParams:
    """Model parameters: block matrix A, degree weights theta, community sizes."""

    K: int
    A: np.ndarray
    theta: np.ndarray
    sizes: tuple

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "sizes", sizes)
        if A.shape != (self.K, self.K):
            raise ModelValidityError(f"A must be {self.K}x{self.K}, got {A.shape}")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ModelValidityError("A must be symmetric")
        if A.min() < 0:
            raise ModelValidityError("A must be nonnegative")
        if abs(A.max() - 1.0) > 1e-9:
            raise ModelValidityError(f"max entry of A must be 1, got {A.max():g}")
        if len(sizes) != self.K or any(s < 1 for s in sizes):
            raise ModelValidityError(f"need {self.K} positive community sizes")
        if theta.size != sum(sizes):
            raise ModelValidityError(
                f"theta has {theta.size} entries but sizes sum to {sum(sizes)}")
        if theta.min() <= 0 or theta.max() >= 1:
            raise ModelValidityError(
                f"theta must lie strictly inside (0, 1); range is "
                f"[{theta.min():g}, {theta.max():g}]")

    @property
    def n(self):
        return self.theta.size


@dataclass(frozen=True, eq=False)
class PopulationSpectrum:
    """Closed-form nonzero eigenpairs of the expectation matrix.

    `lambdas[k]` is ||theta||^2 times the k-th largest-magnitude eigenvalue of
    dad = D A D; `a_vectors[:, k]` is the matching unit eigenvector of dad and
    `eta_vectors[:, k]` the induced unit eigenvector of the full n x n matrix,
    constant on each community after dividing entrywise by theta.
    """

    D: np.ndarray
    dad: np.ndarray
    lambdas: np.ndarray
    a_vectors: np.ndarray
    eta_vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Numerical health indicators for a parameter set (informational only)."""

    eigengap: float
    err_n: float
    osnr: float
    nsnr: float
    wnorm_bound: float
    osc: float
    regularity_ratio: float
    mdv_ok: bool
    mdm_ok: bool


def block_labels(sizes):
    """Contiguous-block community assignment: sizes (n1..nK) -> labels 1..K."""
    sizes = [int(s) for s in sizes]
    return Labeling(labels=np.repeat(np.arange(1, len(sizes) + 1), sizes),
                    K=len(sizes))


def _check_labels(p, labels):
    counts = np.bincount(labels.labels, minlength=p.K + 1)[1:]
    if labels.K != p.K or tuple(counts) != p.sizes:
        raise ValueError("labels do not match the declared community sizes")


def sample_adjacency(p, labels, seed):
    """Draw one graph: independent Bernoulli(O(i,j)) upper-triangle entries.

    Streams row by row so the expectation matrix is never materialized.
    Deterministic given the seed.
    """
    _check_labels(p, labels)
    rng = as_rng(seed)
    n = p.n
    lab0 = labels.labels - 1
    theta = p.theta
    a_rows = p.A[:, lab0]  # a_rows[k, j] = A[k, lab0[j]]
    counts, cols = [], []
    for i, k in enumerate(lab0[:-1].tolist()):
        probs = theta[i] * theta[i + 1:] * a_rows[k, i + 1:]
        hits = np.nonzero(rng.random(n - 1 - i) < probs)[0]
        counts.append(hits.size)
        cols.append(hits + (i + 1))
    pairs = (np.column_stack([np.repeat(np.arange(n - 1), counts),
                              np.concatenate(cols)])
             if cols else ())
    return from_edges(pairs, n)


_THETA_PARAM_NAMES = {
    "constant": ("c",),
    "linear": ("d0", "c0"),
    "quadratic": ("d0", "c0"),
    "power2_offset": ("a", "b"),
    "two_point": ("c0", "d0"),
}


@dataclass(frozen=True)
class ThetaPattern:
    """Named degree-weight profile; `generate(n)` yields the unpermuted vector."""

    kind: str
    params: dict

    def __post_init__(self):
        names = _THETA_PARAM_NAMES.get(self.kind)
        if names is None:
            raise ValueError(f"unknown theta pattern {self.kind!r}; known: "
                             f"{sorted(_THETA_PARAM_NAMES)}")
        if set(self.params) != set(names):
            raise ValueError(f"pattern {self.kind!r} takes parameters {names}, "
                             f"got {sorted(self.params)}")
        object.__setattr__(self, "params",
                           {k: float(v) for k, v in self.params.items()})

    def generate(self, n):
        i = np.arange(1, n + 1, dtype=float)
        pp = self.params
        if self.kind == "constant":
            tilde = np.full(n, pp["c"])
        elif self.kind == "linear":
            tilde = pp["d0"] + (pp["c0"] - pp["d0"]) * (i / n)
        elif self.kind == "quadratic":
            tilde = pp["d0"] + (pp["c0"] - pp["d0"]) * (i / n) ** 2
        elif self.kind == "power2_offset":
            tilde = pp["a"] + pp["b"] * (i / n) ** 2
        else:  # two_point
            tilde = np.where(i <= n // 2, pp["c0"], pp["d0"])
        if tilde.min() <= 0 or tilde.max() >= 1:
            raise ModelValidityError(
                f"theta pattern {self.describe()} leaves (0, 1): range "
                f"[{tilde.min():g}, {tilde.max():g}]")
        return tilde

    def describe(self):
        inner = " ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.kind} {inner}"


def permuted_theta(pattern, n, seed):
    """Generate the pattern's vector and randomly permute its coordinates."""
    rng = as_rng(seed)
    return rng.permutation(pattern.generate(n))


def _community_matrix(p, labels):
    """Per-community theta norms, D = diag(norms / ||theta||) and D A D."""
    norms = np.array([np.linalg.norm(p.theta[labels.labels == k + 1])
                      for k in range(p.K)])
    if norms.min() == 0:
        raise DegeneracyError("a community has zero total degree intensity")
    D = np.diag(norms / np.linalg.norm(p.theta))
    return norms, D, D @ p.A @ D


def population_spectrum(p, labels):
    """Closed-form eigenpairs of the expectation matrix via the K x K problem.

    Requires the eigenvalues of D A D to be simple (adjacent gap above 1e-12).
    """
    _check_labels(p, labels)
    comm_norms, D, dad = _community_matrix(p, labels)
    mu, avec = np.linalg.eigh(dad)
    if p.K > 1 and np.min(np.diff(np.sort(mu))) < DAD_GAP_TOL:
        raise DegeneracyError(
            "non-simple eigenvalue in the community-level matrix "
            f"(adjacent gap below {DAD_GAP_TOL:g})")
    order = _magnitude_order(mu)
    mu = mu[order]
    avec = avec[:, order]

    lab0 = labels.labels - 1
    eta = (avec[lab0, :] / comm_norms[lab0, None]) * p.theta[:, None]
    # largest-magnitude entry of each eta positive, a flipped to match
    signs = np.array([_lead_sign(eta[:, k]) for k in range(p.K)])
    return PopulationSpectrum(D=D, dad=dad,
                              lambdas=np.linalg.norm(p.theta) ** 2 * mu,
                              a_vectors=avec * signs, eta_vectors=eta * signs)


def population_ratio_matrix(ps):
    """Noise-free ratio matrix R(i,k) = eta_{k+1}(i) / eta_1(i).

    Has exactly K distinct rows (the k-th trailing entry on community l is
    a_{k+1}(l)/a_1(l)) and any two distinct rows are at distance >= sqrt(2).
    """
    eta = ps.eta_vectors
    lead = eta[:, 0]
    if np.any(lead == 0.0):
        raise DegeneracyError("population leading eigenvector has zero entries")
    R = eta[:, 1:] / lead[:, None]
    return RatioMatrix(R=R, T_n=math.inf, truncated_count=0)


def dad_eigengap(dad):
    """Minimum gap between adjacent eigenvalues (sorted by value)."""
    mu = np.sort(np.linalg.eigvalsh(dad))
    if mu.size < 2:
        return math.inf
    return float(np.min(np.diff(mu)))


def diagnostics(p, labels):
    """Evaluate the closed-form error and signal-to-noise quantities.

    The moderate-deviation flags use unit constants and are informational;
    nothing in the pipeline gates on them.
    """
    _check_labels(p, labels)
    theta = p.theta
    n = p.n
    logn = math.log(n)
    l1 = float(theta.sum())
    sq = float(theta @ theta)
    cube3 = float(np.sum(theta ** 3))
    inv_sum = float(np.sum(1.0 / theta))
    tmin = float(theta.min())
    tmax = float(theta.max())

    comm_norms, _, dad = _community_matrix(p, labels)
    gap = dad_eigengap(dad)

    err_n = (cube3 / sq ** 3) * (inv_sum + (logn / tmin) * (l1 / sq) ** 2)
    osnr = sq / math.sqrt(logn * tmax * l1)
    nsnr = l1 / math.sqrt(logn * n)
    wnorm_bound = 4.0 * math.sqrt(logn * tmax * l1)

    # oscillation of theta^{-1} eta_1: community-level values a_1(k)/||theta^(k)||
    mu, avec = np.linalg.eigh(dad)
    a1 = avec[:, _magnitude_order(mu)[0]]
    vals = _lead_sign(a1) * a1 / comm_norms
    osc = float(vals.max() / vals.min()) if vals.min() > 0 else math.inf

    regularity_ratio = logn * tmax * l1 / sq ** 2
    floor_v = logn * tmax ** 2 / cube3
    mdv_ok = bool(
        np.sum(np.maximum(theta, floor_v)) <= l1
        and np.sum(np.maximum(1.0 / theta, floor_v / theta ** 2)) <= inv_sum)
    mdm_ok = bool(logn / tmin ** 2 <= max(l1 / tmin, tmax * inv_sum))
    return Diagnostics(eigengap=gap, err_n=err_n, osnr=osnr, nsnr=nsnr,
                       wnorm_bound=wnorm_bound, osc=osc,
                       regularity_ratio=regularity_ratio,
                       mdv_ok=mdv_ok, mdm_ok=mdm_ok)
