"""Adversarial contract tests: small, disconnected and bipartite graphs.

Every method either labels the giant component with 1..K or raises
DataError/NumericalError; no other exception may escape.  A K above the
giant component's node count is argument misuse, which leading_eigs
documents as a ValueError (and `detect` checks before it gets there).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorecd import leading_eigs
from scorecd.errors import DataError, NumericalError
from scorecd.graph import from_edges, giant_component
from scorecd.pipeline import run_method

METHODS = ("score", "score1", "score2", "opca", "npca")


@st.composite
def edge_sets(draw):
    """(n, edges) of a graph on n <= 8 nodes."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, edges


@st.composite
def disconnected_graphs(draw):
    (n, edges), (m, more) = draw(edge_sets()), draw(edge_sets())
    return from_edges(edges + [(i + n, j + n) for i, j in more], n + m)


tiny_graphs = edge_sets().map(lambda g: from_edges(g[1], g[0]))


def complete_bipartite(a, b):
    return from_edges([(i, a + j) for i in range(a) for j in range(b)], a + b)


def cycle(n):
    return from_edges([(i, (i + 1) % n) for i in range(n)], n)


def path(n):
    return from_edges([(i, i + 1) for i in range(n - 1)], n)


def star(leaves):
    return from_edges([(0, i) for i in range(1, leaves + 1)], leaves + 1)


shaped_graphs = st.one_of(
    st.builds(complete_bipartite, st.integers(1, 5), st.integers(1, 5)),
    st.builds(cycle, st.integers(2, 8).map(lambda m: 2 * m)),
    st.builds(path, st.integers(1, 12)),
    st.builds(star, st.integers(1, 12)))


def assert_contract(g, K, seed):
    g0, _ = giant_component(g)
    if K > g0.n:
        with pytest.raises(ValueError, match="K must be in"):
            leading_eigs(g0, K, seed=seed)
        return
    try:
        spectrum = leading_eigs(g0, K, seed=seed)
    except (DataError, NumericalError):
        return
    for method in METHODS:
        try:
            result = run_method(g0, spectrum, method, K, seed=seed)
        except (DataError, NumericalError):
            continue
        labels = result.labels
        assert labels.shape == (g0.n,), method
        assert labels.min() >= 1 and labels.max() <= K, method


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(tiny_graphs, disconnected_graphs(), shaped_graphs),
       K=st.sampled_from((2, 3)), seed=st.integers(0, 2 ** 16))
def test_methods_label_or_raise_a_package_error(g, K, seed):
    assert_contract(g, K, seed)


@pytest.mark.parametrize("g", [
    from_edges([], 1), from_edges([], 5), from_edges([(0, 1)], 2),
    from_edges([(0, 1), (2, 3)], 4), complete_bipartite(1, 1),
    complete_bipartite(3, 3), complete_bipartite(2, 5), cycle(4), cycle(16),
    path(3), path(9), star(1), star(7)])
@pytest.mark.parametrize("K", [2, 3])
def test_named_shapes_label_or_raise_a_package_error(g, K):
    assert_contract(g, K, seed=0)
