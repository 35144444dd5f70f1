"""Degree-corrected block model: sampling, closed-form spectra, diagnostics.

Edge probabilities are theta(i) * theta(j) * A(k, l) for nodes i in community
k and j in community l, with A normalized to max entry 1 and all theta in
(0, 1).  The expectation matrix has exactly K nonzero eigenvalues, obtainable
from the K x K problem on D A D where D holds the per-community overall degree
intensities; those closed forms drive the verification oracles, the population
ratio matrix, and the signal-to-noise diagnostics.  DCBMParams is the whole
model: A, theta and the node labels every function here reads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .eigen import _lead_sign, _magnitude_order
from .errors import DegeneracyError, ModelValidityError
from .graph import _from_upper

DAD_GAP_TOL = 1e-12
_BLOCK_ENTRIES = 1 << 16  # sample_adjacency draws about this many at once


@dataclass(frozen=True, eq=False)
class DCBMParams:
    """Model parameters: block matrix A, degree weights theta, node labels."""

    A: np.ndarray
    theta: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        given = np.asarray(self.labels)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "theta", theta)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
            raise ModelValidityError(f"A must be square, got shape {A.shape}")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ModelValidityError("A must be symmetric")
        if A.min() < 0:
            raise ModelValidityError("A must be nonnegative")
        if abs(A.max() - 1.0) > 1e-9:
            raise ModelValidityError(f"max entry of A must be 1, got {A.max():g}")
        if given.shape != theta.shape or theta.ndim != 1:
            raise ModelValidityError(f"need one label per theta entry, got "
                                     f"{given.size} for {theta.size}")
        # checked as given: the cast would turn nan, inf or 1e30 into an
        # arbitrary integer (nan fails every comparison)
        if not (given.dtype.kind in "biuf"
                and np.all((given == np.trunc(given)) & (given >= 1)
                           & (given <= self.K))):
            raise ModelValidityError(f"labels must be integers in 1..{self.K}")
        labels = given.astype(np.int64)
        object.__setattr__(self, "labels", labels)
        sizes = np.bincount(labels, minlength=self.K + 1)[1:]
        if sizes.min() == 0:
            raise ModelValidityError(
                f"community {sizes.argmin() + 1} has no member")
        if not (theta.min() > 0 and theta.max() < 1):  # nan fails too
            raise ModelValidityError(
                f"theta must lie strictly inside (0, 1); range is "
                f"[{theta.min():g}, {theta.max():g}]")

    @property
    def K(self):
        return self.A.shape[0]

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
    return np.repeat(np.arange(1, len(sizes) + 1), sizes)


def sample_adjacency(p, rng):
    """Draw one graph: independent Bernoulli(O(i,j)) upper-triangle entries.

    Pair (i, j), i < j, is an edge when its uniform u < (theta_i * theta_j)
    * A(k_i, k_j), with one uniform per pair drawn in row-major order from
    the Generator `rng`, so its state fixes the graph and its final state.
    The uniforms come in blocks of about _BLOCK_ENTRIES pairs (whole rows),
    drawn into one reused buffer, and the probability is computed only where
    u falls under its row's bound, so the expectation matrix is never
    materialized.  Each such candidate gets its row once, and the hits come
    out row by row with sorted columns: the upper triangle in CSR form,
    which graph._from_upper mirrors into the Graph with no pairs or sort.
    """
    n = p.n
    lab0 = p.labels - 1
    theta = p.theta
    a_rows = p.A[:, lab0].ravel()  # a_rows[k * n + j] = A(k, k_j)
    # Rounding is monotone and every factor is nonnegative, so each
    # probability in row i is <= bound[i] bit for bit: u >= bound[i] is
    # never an edge.
    bound = theta * theta.max() * p.A.max(axis=1)[lab0]
    lengths = np.arange(n - 1, 0, -1)  # row i holds pairs (i, i+1..n-1)
    ends = np.cumsum(lengths)          # flat end of each row
    # a block is the rows whose ends fall in one _BLOCK_ENTRIES window
    window = ends // _BLOCK_ENTRIES
    starts = np.flatnonzero(np.diff(window, prepend=-1)).tolist()
    # a block's rows end in one window, so it holds under _BLOCK_ENTRIES
    # entries plus its first row's; every block draws into this buffer
    uniforms = np.empty(_BLOCK_ENTRIES + n)
    row_len = np.zeros(n + 1, dtype=np.int64)  # row_len[i + 1]: row i's edges
    cols = []
    for r0, r1 in zip(starts, starts[1:] + [n - 1]):
        row_ends = ends[r0:r1] - (ends[r0] - lengths[r0])  # within the block
        u = uniforms[:row_ends[-1]]
        rng.random(out=u)
        cand = np.flatnonzero(u < np.repeat(bound[r0:r1], lengths[r0:r1]))
        # each candidate's row within the block
        ri = np.repeat(np.arange(r1 - r0),
                       np.diff(np.searchsorted(cand, row_ends), prepend=0))
        j = cand + (n - row_ends)[ri]
        probs = ((theta[r0:r1][ri] * theta[j])
                 * a_rows[(lab0[r0:r1] * n)[ri] + j])
        hit = np.flatnonzero(u[cand] < probs)
        row_len[r0 + 1:r1 + 1] = np.bincount(ri[hit], minlength=r1 - r0)
        cols.append(j[hit])
    indices = np.concatenate(cols) if cols else row_len[:0]  # n = 1: none
    return _from_upper(np.cumsum(row_len), indices, n)


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
        if not (tilde.min() > 0 and tilde.max() < 1):  # nan fails too
            raise ModelValidityError(
                f"theta pattern {self.describe()} leaves (0, 1): range "
                f"[{tilde.min():g}, {tilde.max():g}]")
        return tilde

    def describe(self):
        inner = " ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.kind} {inner}"


def permuted_theta(pattern, n, rng):
    """Generate the pattern's vector and permute its coordinates with the
    Generator `rng`."""
    return rng.permutation(pattern.generate(n))


def _community_matrix(p):
    """Per-community theta norms, D = diag(norms / ||theta||) and D A D."""
    norms = np.array([np.linalg.norm(p.theta[p.labels == k + 1])
                      for k in range(p.K)])
    if norms.min() == 0:
        raise DegeneracyError("a community has zero total degree intensity")
    D = np.diag(norms / np.linalg.norm(p.theta))
    return norms, D, D @ p.A @ D


def population_spectrum(p):
    """Closed-form eigenpairs of the expectation matrix via the K x K problem.

    Requires the eigenvalues of D A D to be simple (adjacent gap above 1e-12).
    """
    comm_norms, D, dad = _community_matrix(p)
    mu, avec = np.linalg.eigh(dad)
    if p.K > 1 and np.min(np.diff(np.sort(mu))) < DAD_GAP_TOL:
        raise DegeneracyError(
            "non-simple eigenvalue in the community-level matrix "
            f"(adjacent gap below {DAD_GAP_TOL:g})")
    order = _magnitude_order(mu)
    mu = mu[order]
    avec = avec[:, order]

    lab0 = p.labels - 1
    eta = (avec[lab0, :] / comm_norms[lab0, None]) * p.theta[:, None]
    # largest-magnitude entry of each eta positive, a flipped to match
    signs = np.array([_lead_sign(eta[:, k]) for k in range(p.K)])
    return PopulationSpectrum(D=D, dad=dad,
                              lambdas=np.linalg.norm(p.theta) ** 2 * mu,
                              a_vectors=avec * signs, eta_vectors=eta * signs)


def population_ratio_matrix(ps):
    """Noise-free n x (K-1) ratio matrix R(i,k) = eta_{k+1}(i) / eta_1(i).

    Has exactly K distinct rows (the k-th trailing entry on community l is
    a_{k+1}(l)/a_1(l)) and any two distinct rows are at distance >= sqrt(2).
    """
    eta = ps.eta_vectors
    lead = eta[:, 0]
    if np.any(lead == 0.0):
        raise DegeneracyError("population leading eigenvector has zero entries")
    return eta[:, 1:] / lead[:, None]


def dad_eigengap(dad):
    """Minimum gap between adjacent eigenvalues (sorted by value)."""
    mu = np.sort(np.linalg.eigvalsh(dad))
    if mu.size < 2:
        return math.inf
    return float(np.min(np.diff(mu)))


def diagnostics(p):
    """Evaluate the closed-form error and signal-to-noise quantities.

    The moderate-deviation flags use unit constants and are informational;
    nothing in the pipeline gates on them.
    """
    theta = p.theta
    n = p.n
    logn = math.log(n)
    l1 = float(theta.sum())
    sq = float(theta @ theta)
    cube3 = float(np.sum(theta ** 3))
    inv_sum = float(np.sum(1.0 / theta))
    tmin = float(theta.min())
    tmax = float(theta.max())

    comm_norms, _, dad = _community_matrix(p)
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
