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

A sparse operator is float64 CSR on the adjacency's own indptr and indices;
a float64 CSR operator, such as npca's normalized one, is used as given.
ARPACK's matvec is that matrix's CSR product behind a bare LinearOperator
that counts its calls, and the residual check takes one such product per
vector.

The solver tolerance is a per-call choice.  DEFAULT_TOL (1e-10) is the
contract every caller gets by default and the one `spectra empirical` prints
residuals against.  The labelling solves (`detect`, each experiment
repetition and npca's normalized solve) ask for LABEL_TOL (1e-6): labels come
from signs, ratios and k-means of the vectors, and no label measured on the
presets or the detect-large network changed between the two.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonConvergenceError, NumericalError

DENSE_CUTOFF = 512
DEFAULT_TOL = 1e-10
LABEL_TOL = 1e-6
DEFAULT_MAX_ITER = 300


@dataclass(frozen=True, eq=False)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs sorted by descending |value|; positive first on ties.

    `tol` is the tolerance the solve was asked for and every residual meets;
    `matvecs` counts the operator products ARPACK made (0 on the dense path).
    """

    pairs: list
    tol: float
    matvecs: int = 0

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
    """The float matrix (CSR or dense ndarray) behind an accepted operator.

    A float64 CSR matrix is used as given; any other canonical CSR matrix
    keeps its indptr and indices and converts only its data.  Float entries
    must be finite and at most sqrt(finfo(float).max) / 2n in magnitude
    (ValueError otherwise): then for a unit v, |A v| and |lambda| are at most
    n max|A_ij|, so neither the residual A v - lambda v nor the sum of its
    squares can overflow.  Integer entries, such as a Graph's adjacency, are
    far inside that bound and are not scanned.
    """
    if hasattr(op, "adjacency"):  # Graph
        op = op.adjacency
    if sp.issparse(op):
        op = op.tocsr()
    elif not isinstance(op, np.ndarray):
        raise TypeError(f"unsupported operator type: {type(op).__name__}")
    entries = op.data if sp.issparse(op) else op
    if entries.dtype.kind in "fc" and entries.size:
        bound = np.sqrt(np.finfo(float).max) / (2 * op.shape[0])
        if not np.abs(entries).max() <= bound:  # nan fails it too
            raise ValueError(f"operator entries must be finite and at most "
                             f"sqrt(finfo(float).max) / 2n = {bound:.4g} in "
                             f"magnitude")
    if not sp.issparse(op):
        return np.asarray(op, dtype=float)
    if op.dtype == np.float64:
        return op
    if not op.has_canonical_format:
        return op.astype(float)  # sums duplicate entries into one
    return sp.csr_matrix((op.data.astype(float), op.indices, op.indptr),
                         shape=op.shape)


def _apply(mat, vecs):
    """mat @ vecs, one single-vector product per column when mat is sparse."""
    if not sp.issparse(mat):
        return mat @ vecs
    out = np.empty(vecs.shape)
    for k in range(vecs.shape[1]):
        out[:, k] = mat @ vecs[:, k]
    return out


def _lead_sign(v):
    """The sign (+-1.0) that makes v's largest-magnitude entry positive.

    On exact magnitude ties the lowest index decides.
    """
    return -1.0 if v[np.argmax(np.abs(v))] < 0 else 1.0


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


def leading_eigs(op, K, seed=0, tol=None):
    """The K leading (largest-|lambda|) eigenpairs of a symmetric operator.

    `op` may be a Graph, a scipy sparse matrix or a dense ndarray, with
    finite entries of magnitude at most sqrt(finfo(float).max) / 2n
    (~6.7e153 / n), so that no product, eigenvalue or residual overflows
    (ValueError otherwise).  Symmetry is the caller's responsibility.  `tol`
    defaults to DEFAULT_TOL, read at call time; it is ARPACK's stopping
    tolerance, the residual bound below, the window within which magnitudes
    tie, and the returned Spectrum's `tol`.  Each returned vector has unit
    norm, residual ||A v - lambda v|| <= tol * max(1, |lambda|) (recomputed
    here; NonConvergenceError otherwise), and its largest-magnitude entry
    made positive.  The iterative path starts ARPACK from a seeded uniform
    random vector, so results are reproducible, and gives up after
    DEFAULT_MAX_ITER (300) restarts; ARPACK stops at convergence, so the cap
    changes no solve that converges below it; any other ARPACK failure is a
    NumericalError carrying ARPACK's message.  n <= DENSE_CUTOFF and
    K >= n - 1 go dense.
    """
    tol = DEFAULT_TOL if tol is None else tol
    max_iter = DEFAULT_MAX_ITER
    mat = _as_operator(op)
    n = mat.shape[0]
    if not 1 <= K <= n:
        raise ValueError(f"K must be in [1, {n}], got {K}")
    matvecs = 0
    if n <= DENSE_CUTOFF or K >= n - 1:
        vals, vecs = np.linalg.eigh(mat.toarray() if sp.issparse(mat) else mat)
    else:
        v0 = np.random.default_rng(seed).random(n)
        product = (mat.__matmul__ if sp.issparse(mat)
                   else spla.aslinearoperator(mat).matvec)

        def matvec(x):
            nonlocal matvecs
            matvecs += 1
            return product(x)
        linop = spla.LinearOperator(mat.shape, matvec=matvec, dtype=float)
        try:
            vals, vecs = spla.eigsh(linop, k=K, which="LM", tol=tol, v0=v0,
                                    maxiter=max_iter)
        except spla.ArpackNoConvergence as exc:
            found = exc.eigenvectors.shape[1]
            residuals = np.full(K, np.inf)
            residuals[:found] = np.linalg.norm(
                _apply(mat, exc.eigenvectors)
                - exc.eigenvectors * exc.eigenvalues, axis=0)
            raise NonConvergenceError(
                f"eigensolver did not reach tol={tol:g} within {max_iter} "
                f"restarts ({found} of {K} pairs converged; residuals: "
                f"{np.array2string(residuals, precision=3)})",
                residuals=residuals) from None
        except spla.ArpackError as exc:  # after its subclass above
            raise NumericalError(f"eigensolver failed: {exc}") from None

    order = _magnitude_order(vals, tol)[:K]
    vals = vals[order]
    vecs = vecs[:, order] * [_lead_sign(vecs[:, i]) for i in order]
    residuals = np.linalg.norm(_apply(mat, vecs) - vecs * vals, axis=0)
    if not np.all(residuals <= tol * np.maximum(1.0, np.abs(vals))):  # nan
        raise NonConvergenceError(
            f"eigenpairs miss tol={tol:g} (residuals: "
            f"{np.array2string(residuals, precision=3)})", residuals=residuals)
    pairs = [EigenPair(value=float(val), vector=vecs[:, k],
                       residual=float(residuals[k]))
             for k, val in enumerate(vals)]
    return Spectrum(pairs=pairs, tol=tol, matvecs=matvecs)
