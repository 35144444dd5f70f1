"""Clustering-ready point sets built from a Spectrum.

The core map divides each of the trailing eigenvectors entrywise by the first
one, cancelling per-node degree effects; entries are clipped at +-T_n (default
log n).  The classical baselines keep the raw eigenvector rows (ordinary PCA)
or the rows of the degree-normalized operator's eigenvectors (normalized PCA),
and the q-norm variants rescale each eigenvector-matrix row to unit l^q norm.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import eigen
from .errors import DegeneracyError, NumericalError


@dataclass(frozen=True, eq=False)
class RatioMatrix:
    """n x (K-1) matrix of eigenvector ratios, clipped at +-T_n."""

    R: np.ndarray
    T_n: float
    truncated_count: int


def score_ratio(spectrum, T_n=None):
    """Entrywise ratios of trailing leading eigenvectors over the first.

    Column k holds vector_{k+1} / vector_1, clipped to [-T_n, T_n]; T_n
    defaults to log(n) and may be math.inf to disable clipping.  One rule
    holds for every entry: it is the floating-point quotient, +-inf with the
    quotient's sign where that overflows, and truncated_count counts the
    entries beyond +-T_n.  Entries whose denominator is exactly zero are an
    error (extract the giant component first: on a connected graph the top
    eigenvector has no zero entries).  So is a first vector with entries of
    both signs, which is not a Perron vector; entries within sqrt(tol) of
    zero, relative to the largest, are solver noise (the zeros of a
    disconnected graph's Perron vector) and carry no sign.
    """
    K = len(spectrum)
    if K < 2:
        raise ValueError(f"need at least 2 eigenpairs, got {K}")
    vecs = spectrum.vectors
    lead = vecs[:, 0]
    n = lead.size
    if np.any(lead == 0.0):
        raise DegeneracyError(
            "leading eigenvector has exact zero entries; run on the giant "
            "component so the Perron vector is entrywise nonzero")
    noise = math.sqrt(spectrum.tol) * np.abs(lead).max()
    if lead.min() < -noise and lead.max() > noise:
        raise DegeneracyError(
            "leading eigenvector has entries of both signs, so it is not the "
            "Perron vector and ratios over it are meaningless; run on the "
            "giant component of a graph with nonnegative weights")
    if T_n is None:
        T_n = math.log(n)
    if not T_n > 0:
        raise ValueError(f"T_n must be positive, got {T_n}")

    with np.errstate(over="ignore"):  # an overflowed quotient is +-inf
        R = vecs[:, 1:] / lead[:, None]
    truncated = int(np.count_nonzero(np.abs(R) > T_n))
    R = np.clip(R, -T_n, T_n)
    return RatioMatrix(R=R, T_n=float(T_n), truncated_count=truncated)


def scoreq_embed(spectrum, q):
    """n x K array: the eigenvector matrix's rows rescaled to unit l^q norm.

    Scaling-invariant by construction: multiplying a row by any a > 0 leaves
    the output row unchanged.  All-zero rows map to zero; a nonzero row whose
    norm rounds to 0 or inf (q far from 1-2) is a NumericalError.
    """
    if not 0 < q < math.inf:
        raise ValueError(f"q must be finite and positive, got {q}")
    if len(spectrum) < 2:
        raise ValueError(f"need at least 2 eigenpairs, got {len(spectrum)}")
    xi = spectrum.vectors
    with np.errstate(over="ignore"):  # an overflow is reported below
        norms = np.sum(np.abs(xi) ** q, axis=1) ** (1.0 / q)
    lost = np.count_nonzero(xi[(norms == 0.0) | (norms == np.inf)].any(axis=1))
    if lost:
        raise NumericalError(
            f"the l^{q:g} norm of {lost} nonzero eigenvector rows is 0 or inf "
            "in floating point; pick a q nearer 1-2")
    return np.divide(xi, norms[:, None], out=np.zeros_like(xi),
                     where=norms[:, None] != 0.0)


def opca_embed(spectrum):
    """n x K array of raw leading-eigenvector rows (ordinary PCA baseline)."""
    if len(spectrum) < 2:
        raise ValueError(f"need at least 2 eigenpairs, got {len(spectrum)}")
    return spectrum.vectors


def npca_embed(g, K, seed=0):
    """n x K leading-eigenvector rows of D^{-1/2} X D^{-1/2} (normalized PCA).

    D is the degree diagonal of `g`; every node must have degree >= 1, so
    preprocess with remove_isolated / giant_component first.  The operator
    shares the adjacency's indptr and indices; entry (i, j) is s_i * s_j
    with s = 1 / sqrt(d), the same bits as scaling the rows, then the
    columns, of the 0/1 adjacency.
    """
    d = g.degrees()
    if np.any(d == 0):
        raise ValueError("graph has zero-degree nodes; remove isolated nodes "
                         "before the normalized embedding")
    adj = g.adjacency
    inv_sqrt = 1.0 / np.sqrt(d.astype(float))
    normalized = sp.csr_matrix(
        (np.repeat(inv_sqrt, d) * inv_sqrt.take(adj.indices), adj.indices,
         adj.indptr), shape=adj.shape)
    spectrum = eigen.leading_eigs(normalized, K, seed=seed)
    return spectrum.vectors
