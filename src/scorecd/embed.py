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

from . import eigen
from .errors import DegeneracyError

TINY_DENOMINATOR = 1e-300


@dataclass(frozen=True, eq=False)
class RatioMatrix:
    """n x (K-1) matrix of eigenvector ratios, clipped at +-T_n."""

    R: np.ndarray
    T_n: float
    truncated_count: int

    def ratio_vector(self):
        """The raw 1-D ratio vector (two-community fast path)."""
        if self.R.shape[1] != 1:
            raise ValueError("ratio_vector needs a two-community ratio matrix")
        return self.R[:, 0]


def score_ratio(spectrum, T_n=None):
    """Entrywise ratios of trailing leading eigenvectors over the first.

    Column k holds vector_{k+1} / vector_1, clipped to [-T_n, T_n]; T_n
    defaults to log(n) and may be math.inf to disable clipping.  Entries whose
    denominator is exactly zero are an error (extract the giant component
    first: on a connected graph the top eigenvector has no zero entries);
    denominators below 1e-300 in magnitude clip to +-T_n by numerator sign.
    So is a first vector with entries of both signs, which is not a Perron
    vector; entries within sqrt(tol) of zero, relative to the largest, are
    solver noise (the zeros of a disconnected graph's Perron vector) and
    carry no sign.
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

    wild = np.abs(lead) < TINY_DENOMINATOR
    safe_lead = np.where(wild, 1.0, lead)
    R = vecs[:, 1:] / safe_lead[:, None]
    if wild.any():
        R[wild] = np.sign(vecs[wild, 1:]) * T_n
    clipped = np.abs(R) > T_n
    R = np.clip(R, -T_n, T_n)
    truncated = int(clipped.sum() + wild.sum() * (K - 1))
    return RatioMatrix(R=R, T_n=float(T_n), truncated_count=truncated)


def scoreq_embed(spectrum, q):
    """n x K array: the eigenvector matrix's rows rescaled to unit l^q norm.

    Scaling-invariant by construction: multiplying a row by any a > 0 leaves
    the output row unchanged.  All-zero rows map to zero.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    if len(spectrum) < 2:
        raise ValueError(f"need at least 2 eigenpairs, got {len(spectrum)}")
    xi = spectrum.vectors
    norms = np.sum(np.abs(xi) ** q, axis=1) ** (1.0 / q)
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
    preprocess with remove_isolated / giant_component first.
    """
    d = g.degrees().astype(float)
    if np.any(d == 0):
        raise ValueError("graph has zero-degree nodes; remove isolated nodes "
                         "before the normalized embedding")
    inv_sqrt = 1.0 / np.sqrt(d)
    normalized = g.adjacency.astype(float).multiply(inv_sqrt[:, None]) \
                                          .multiply(inv_sqrt[None, :]).tocsr()
    spectrum = eigen.leading_eigs(normalized, K, seed=seed)
    return spectrum.vectors
