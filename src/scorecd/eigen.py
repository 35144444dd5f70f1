"""Leading eigenpairs (largest magnitude) of a symmetric linear operator.

"Leading" compares magnitudes, ignoring sign, so both ends of the spectrum
matter: adjacency matrices routinely carry large negative eigenvalues.  Large
problems go through ARPACK's implicitly restarted Lanczos
(`scipy.sparse.linalg.eigsh`, which="LM") from a seeded start vector.  Small
problems (n <= DENSE_CUTOFF = 512, or K >= n - 1, which ARPACK cannot do) go
through a dense symmetric eigendecomposition instead, which also serves as the
exactness reference in the test suite; tests that need ARPACK on a small
matrix lower DENSE_CUTOFF.  Both paths recompute every residual and share one
ordering and one sign convention.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonConvergenceError

DENSE_CUTOFF = 512
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50


@dataclass(frozen=True, eq=False)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs sorted by descending |value|; positive first on ties."""

    pairs: list
    tol: float

    @property
    def values(self):
        return np.array([p.value for p in self.pairs])

    @property
    def vectors(self):
        """n x K matrix whose k-th column is the k-th leading eigenvector."""
        return np.column_stack([p.vector for p in self.pairs])

    def __len__(self):
        return len(self.pairs)


def _as_operator(op):
    """The float matrix (CSR or dense ndarray) behind an accepted operator."""
    if hasattr(op, "adjacency"):  # Graph
        op = op.adjacency
    if sp.issparse(op):
        return op.tocsr().astype(float)
    if isinstance(op, np.ndarray):
        return np.asarray(op, dtype=float)
    raise TypeError(f"unsupported operator type: {type(op).__name__}")


def _lead_sign(v):
    """The sign (+-1.0) that makes v's largest-magnitude entry positive.

    On exact magnitude ties the lowest index decides.
    """
    a = np.abs(v)
    return -1.0 if v[int(np.flatnonzero(a == a.max())[0])] < 0 else 1.0


def _magnitude_order(values, tol=0.0):
    """Indices sorting values by descending |value|, positive first on ties.

    Magnitudes within tol * max(1, |value|) of the largest one in their run
    tie, so the +lambda of a bipartite graph's +-lambda pair comes first even
    when rounding makes |-lambda| the larger.
    """
    order = sorted(range(len(values)), key=lambda i: -abs(values[i]))
    out, start = [], 0
    for j in range(1, len(order) + 1):
        top = abs(values[order[start]])
        if j == len(order) or top - abs(values[order[j]]) > tol * max(1.0, top):
            out += sorted(order[start:j], key=lambda i: values[i] < 0)
            start = j
    return out


def leading_eigs(op, K, seed=0):
    """The K leading (largest-|lambda|) eigenpairs of a symmetric operator.

    `op` may be a Graph, a scipy sparse matrix or a dense ndarray.  Symmetry
    is the caller's responsibility.  Each returned vector has unit norm,
    residual ||A v - lambda v|| <= DEFAULT_TOL * max(1, |lambda|) (recomputed
    here; NonConvergenceError otherwise), and its largest-magnitude entry
    made positive.  The iterative path starts ARPACK from a seeded uniform
    random vector, so results are reproducible, and gives up after
    DEFAULT_MAX_ITER restarts.  n <= DENSE_CUTOFF and K >= n - 1 go dense.
    """
    tol, max_iter = DEFAULT_TOL, DEFAULT_MAX_ITER
    mat = _as_operator(op)
    n = mat.shape[0]
    if not 1 <= K <= n:
        raise ValueError(f"K must be in [1, {n}], got {K}")
    if n <= DENSE_CUTOFF or K >= n - 1:
        vals, vecs = np.linalg.eigh(mat.toarray() if sp.issparse(mat) else mat)
    else:
        v0 = np.random.default_rng(seed).random(n)
        try:
            vals, vecs = spla.eigsh(mat, k=K, which="LM", tol=tol, v0=v0,
                                    maxiter=max_iter)
        except spla.ArpackNoConvergence as exc:
            found = exc.eigenvectors.shape[1]
            residuals = np.full(K, np.inf)
            residuals[:found] = np.linalg.norm(
                mat @ exc.eigenvectors - exc.eigenvectors * exc.eigenvalues,
                axis=0)
            raise NonConvergenceError(
                f"eigensolver did not reach tol={tol:g} within {max_iter} "
                f"restarts ({found} of {K} pairs converged; residuals: "
                f"{np.array2string(residuals, precision=3)})",
                residuals=residuals) from None

    order = _magnitude_order(vals, tol)[:K]
    vals = vals[order]
    vecs = vecs[:, order] * [_lead_sign(vecs[:, i]) for i in order]
    residuals = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    if np.any(residuals > tol * np.maximum(1.0, np.abs(vals))):
        raise NonConvergenceError(
            f"eigenpairs miss tol={tol:g} (residuals: "
            f"{np.array2string(residuals, precision=3)})", residuals=residuals)
    pairs = [EigenPair(value=float(val), vector=vecs[:, k],
                       residual=float(residuals[k]))
             for k, val in enumerate(vals)]
    return Spectrum(pairs=pairs, tol=tol)
