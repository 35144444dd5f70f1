import io

import numpy as np
import pytest

from scorecd import (DCBMParams, block_labels, from_edges, giant_component,
                     load_edge_list, load_labels, remove_isolated,
                     sample_adjacency)
from scorecd.errors import DataError, ParseError


def load(text):
    return load_edge_list(io.StringIO(text))


def assert_canonical_01(g):
    adj = g.adjacency
    assert adj.shape == (g.n, g.n)
    assert adj.has_canonical_format
    assert adj.data.dtype == np.int8
    assert (adj.data == 1).all()


def bfs_component_sizes(g):
    """Brute-force BFS labeling used as the connectivity oracle."""
    comp = -np.ones(g.n, dtype=int)
    cid = 0
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        queue = [start]
        comp[start] = cid
        while queue:
            u = queue.pop()
            for v in g.adjacency[u].indices:
                if comp[v] < 0:
                    comp[v] = cid
                    queue.append(v)
        cid += 1
    return comp


def test_triangle():
    g = load("1 2\n2 3\n3 1\n")
    assert g.n == 3
    assert g.num_edges == 3
    assert np.array_equal(g.degrees(), [2, 2, 2])


def test_duplicate_and_reversed_edges_merge():
    g = load("1 2\n1 2\n2 1\n")
    assert g.n == 2
    assert g.num_edges == 1
    assert np.array_equal(g.degrees(), [1, 1])


def test_comments_blanks_and_self_loops():
    g = load("# comment\n% other comment\n\na b\nb b\nb c\n")
    assert g.n == 3
    assert g.num_edges == 2  # self-loop dropped
    assert g.original_ids == ("a", "b", "c")  # first-appearance order


def test_malformed_line_reports_number():
    with pytest.raises(ParseError, match="line 2"):
        load("1 2\n1 2 3\n")


def test_empty_input_is_an_error():
    with pytest.raises(DataError):
        load("# nothing here\n")


def test_symmetry_zero_diagonal_degree_sum(rng):
    tokens = [f"{rng.integers(50)} {rng.integers(50)}" for _ in range(300)]
    g = load("\n".join(tokens))
    adj = g.adjacency
    assert (adj != adj.T).nnz == 0
    assert adj.diagonal().sum() == 0
    assert g.degrees().sum() == 2 * g.num_edges


def test_load_edge_list_matches_dense_oracle(rng):
    # (a, b) 300 times plus (b, a) 212 times: 512 copies of each stored entry,
    # which sum to 0 in int8; self-loops, and 'solo' appears only in one
    pairs = [("a", "b")] * 300 + [("b", "a")] * 212 + [("solo", "solo")]
    for _ in range(400):
        u, v = (f"t{x}" for x in rng.integers(40, size=2))
        pairs += [(u, v), (v, u)] if rng.random() < 0.3 else [(u, v)]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    g = load("\n".join(f"{u} {v}" for u, v in pairs))

    order = {}
    for u, v in pairs:
        order.setdefault(u, len(order))
        order.setdefault(v, len(order))
    dense = np.zeros((len(order), len(order)), dtype=np.int8)
    for u, v in pairs:
        if u != v:
            dense[order[u], order[v]] = dense[order[v], order[u]] = 1
    assert g.original_ids == tuple(order)
    assert np.array_equal(g.adjacency.toarray(), dense)
    assert g.degrees()[order["solo"]] == 0
    assert_canonical_01(g)


def test_from_edges_trailing_isolated_nodes_and_no_edges():
    g = from_edges(np.array([[0, 1], [2, 1], [1, 0]]), n=6)
    assert np.array_equal(g.degrees(), [1, 2, 1, 0, 0, 0])
    assert g.original_ids == tuple(range(6))
    assert_canonical_01(g)
    for empty in ([], np.zeros((0, 2), dtype=np.int64)):
        g = from_edges(empty, n=3)
        assert g.num_edges == 0
        assert_canonical_01(g)
    with pytest.raises(ValueError, match="m x 2"):
        from_edges([(0, 1, 2)], n=3)


def test_giant_component_prefers_larger():
    # two triangles plus a 4-path: the path wins on size
    g = load("a b\nb c\nc a\nd e\ne f\nf d\nw x\nx y\ny z\n")
    sub, idx = giant_component(g)
    assert sub.n == 4
    assert sub.original_ids == ("w", "x", "y", "z")
    assert np.array_equal(idx, [6, 7, 8, 9])


def test_giant_component_of_connected_graph_is_identity():
    g = load("1 2\n2 3\n")
    sub, idx = giant_component(g)
    assert sub.n == g.n
    assert sub.num_edges == g.num_edges
    assert np.array_equal(idx, np.arange(g.n))


def test_giant_component_tie_breaks_on_first_seen():
    g = load("b c\na d\n")  # two 2-node components; 'b' appeared first
    sub, _ = giant_component(g)
    assert sub.original_ids == ("b", "c")


def test_giant_component_matches_bfs_oracle(rng):
    params = DCBMParams(K=2, A=np.array([[1.0, 0.3], [0.3, 1.0]]),
                        theta=rng.uniform(0.02, 0.08, size=120),
                        sizes=(60, 60))
    labels = block_labels(params.sizes)
    g = sample_adjacency(params, labels, rng)
    comp = bfs_component_sizes(g)
    sizes = np.bincount(comp)
    expected = np.nonzero(comp == sizes.argmax())[0]
    sub, idx = giant_component(g)
    assert sub.n == sizes.max()
    assert set(idx) == set(expected)
    # output is connected: BFS from node 0 reaches everything
    assert (bfs_component_sizes(sub) == 0).all()
    assert sub.degrees().min() >= 1


def test_remove_isolated_star_plus_isolates():
    g = from_edges([(0, 1), (0, 2), (0, 3)], n=6)
    sub, idx = remove_isolated(g)
    assert sub.n == 4
    assert np.array_equal(idx, [0, 1, 2, 3])
    assert sub.degrees().min() >= 1


def test_remove_isolated_identity_when_clean():
    g = load("1 2\n2 3\n")
    sub, idx = remove_isolated(g)
    assert sub.n == 3
    assert np.array_equal(idx, np.arange(3))


def test_remove_isolated_all_isolated_errors():
    g = from_edges([], n=4)
    with pytest.raises(DataError, match="empty graph after preprocessing"):
        remove_isolated(g)


def test_remove_isolated_keeps_surviving_edges(rng):
    g = from_edges([(rng.integers(30), rng.integers(30)) for _ in range(40)],
                   n=35)
    sub, idx = remove_isolated(g)
    old_edges = {(min(i, j), max(i, j))
                 for i in range(g.n) for j in g.adjacency[i].indices}
    back = {int(new): int(old) for new, old in enumerate(idx)}
    new_edges = {(min(back[i], back[j]), max(back[i], back[j]))
                 for i in range(sub.n) for j in sub.adjacency[i].indices}
    assert new_edges == old_edges  # every endpoint of an edge has degree >= 1


def test_experiment_scale_sample_keeps_nearly_all_nodes(rng):
    # constant theta 0.2 at n=1000: isolated nodes are essentially impossible
    params = DCBMParams(K=2, A=np.array([[1.0, 0.5], [0.5, 1.0]]),
                        theta=np.full(1000, 0.2), sizes=(500, 500))
    g = sample_adjacency(params, block_labels(params.sizes), rng)
    sub, _ = remove_isolated(g)
    assert sub.n >= 0.995 * g.n


def test_labels_loader_first_appearance_coding():
    g = load("n1 n2\nn2 n3\n")
    labels, codes = load_labels(io.StringIO("n2 red\nn1 blue\nn3 blue\n"),
                                g.original_ids)
    assert np.array_equal(labels, [1, 2, 1])  # blue first along node order
    assert codes == {"blue": 1, "red": 2}
    with pytest.raises(DataError, match="no ground-truth label"):
        load_labels(io.StringIO("n1 blue\n"), g.original_ids)
