"""Community detection on ratios of adjacency eigenvectors.

The pipeline: load a graph, take its K leading (largest-magnitude)
eigenvectors, divide the trailing ones entrywise by the first to cancel
degree effects, and k-means the resulting rows.  Classical spectral baselines
(raw and degree-normalized eigenvector rows, q-norm row scaling) and a
degree-corrected block model simulation harness round out the toolkit; they
live in the submodules (`scorecd.pipeline`, `scorecd.dcbm`,
`scorecd.experiments`).  The package exports the README's entry points, the
types they return and the exception classes.
"""

from .cluster import KMeansResult, Labeling, kmeans
from .eigen import Spectrum, leading_eigs
from .embed import RatioMatrix, score_ratio
from .errors import (DataError, DegeneracyError, ModelValidityError,
                     NonConvergenceError, NumericalError, ParseError)
from .graph import Graph, giant_component, load_edge_list
from .metrics import HammingResult, hamming_error

__version__ = "0.1.0"

__all__ = [
    "load_edge_list", "giant_component", "leading_eigs", "score_ratio",
    "kmeans", "hamming_error",
    "Graph", "Spectrum", "RatioMatrix", "KMeansResult", "Labeling",
    "HammingResult",
    "DataError", "DegeneracyError", "ModelValidityError",
    "NonConvergenceError", "NumericalError", "ParseError",
]
