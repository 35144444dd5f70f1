import hashlib
import io
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from scorecd import giant_component, graph, load_edge_list
from scorecd.dcbm import DCBMParams, block_labels, sample_adjacency
from scorecd.graph import from_edges, load_labels, remove_isolated
from scorecd.errors import DataError, ParseError


def load(text):
    return load_edge_list(io.StringIO(text))


def assert_canonical_01(g):
    adj = g.adjacency
    assert adj.shape == (g.n, g.n)
    assert adj.has_canonical_format
    # the builders set that flag; a fresh matrix on the same arrays checks it
    assert sp.csr_matrix((adj.data, adj.indices, adj.indptr),
                         shape=adj.shape).has_canonical_format
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
    # each pair's key packs its smaller index above bit 32
    with pytest.raises(ValueError, match=r"at most 2\*\*31 nodes"):
        from_edges([], n=2**31 + 1)


@pytest.mark.parametrize("edges", [
    np.array([[0, 1.7]]), [(0.5, 2)], [(0, np.nan)], [(1, np.inf)],
    [(0, -np.inf)], np.array([[0, 3.0]]), np.array([["0", "1"]]),
    np.array([[0, 1]], dtype=object), [[0, 3]], [[-1, 0]],
    np.array([[2**63 + 5, 0]], dtype=np.uint64)])
def test_from_edges_refuses_pairs_that_are_not_integer_indices(edges):
    # checked as given, before the cast could truncate or wrap them (the
    # uint64 2**63 + 5 to a negative int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="integer node indices"):
            from_edges(edges, n=3)


def test_from_edges_takes_whole_floats():
    got = from_edges(np.array([[0.0, 1.0], [2.0, 1.0]]), n=3).adjacency
    want = from_edges([(0, 1), (2, 1)], n=3).adjacency
    assert np.array_equal(got.toarray(), want.toarray())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
           st.just(n),
           st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=40) if n else st.just([]),
           st.integers(0, 4), st.sampled_from([0, 256, 300]))))
def test_from_edges_matches_dense_oracle(case):
    # duplicates, reversed pairs and self-loops; one pair 256 or 300 times,
    # whose int8 sum wraps (to 0 or 44); trailing isolated nodes; no pairs
    n, pairs, isolated, repeat = case
    if n > 1:
        pairs = pairs + [(n - 1, 0)] * repeat
    size = n + isolated
    g = from_edges(pairs, n=size)
    dense = np.zeros((size, size), dtype=np.int8)
    for u, v in pairs:
        if u != v:
            dense[u, v] = dense[v, u] = 1
    assert np.array_equal(g.adjacency.toarray(), dense)
    assert_canonical_01(g)
    # the same arrays and index dtype as scipy's own COO build of both
    # triangles, with the summed duplicates reset to 1
    both = np.array([p for p in pairs if p[0] != p[1]],
                    dtype=np.int64).reshape(-1, 2)
    coo = sp.csr_matrix((np.ones(2 * len(both), dtype=np.int8),
                         (np.r_[both[:, 0], both[:, 1]],
                          np.r_[both[:, 1], both[:, 0]])), shape=(size, size))
    coo.data[:] = 1
    for name in ("indptr", "indices", "data"):
        got, want = getattr(g.adjacency, name), getattr(coo, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(g.degrees(), dense.sum(axis=1))
    assert g.degrees().dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
           st.just(n),
           st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2),
           st.none() | st.integers(0, n - 1),
           st.integers(0, 3))))
@example((1, [], None, 0))                       # n = 1
@example((5, [False] * 10, None, 0))             # no edges
@example((4, [True, False, True, True, False, True], None, 3))
@example((6, [False] * 15, 0, 0))                # row 0 meets every node
@example((6, [True] * 15, 2, 2))
def test_from_upper_matches_from_edges(case):
    # the sampler's form: sorted unique columns above the diagonal, row by
    # row, in int64 arrays; the assembly must give from_edges' Graph
    n, mask, full, isolated = case
    pairs = [p for p, keep in zip(itertools.combinations(range(n), 2), mask)
             if keep or p[0] == full]
    size = n + isolated
    indptr = np.cumsum(np.bincount(
        np.array([i + 1 for i, _ in pairs], dtype=np.int64),
        minlength=size + 1))
    indices = np.array([j for _, j in pairs], dtype=np.int64)
    got = graph._from_upper(indptr, indices, size)
    want = from_edges(pairs, size)
    assert got.n == want.n and got.original_ids == want.original_ids
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.adjacency, name), getattr(want.adjacency, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert_canonical_01(got)


def test_induced_subgraph_rejects_a_set_that_cuts_an_edge():
    g = from_edges([(0, 1), (1, 2), (3, 4)], n=5)
    sub, keep = graph._induced_subgraph(g, [3, 4])
    assert sub.num_edges == 1 and np.array_equal(keep, [3, 4])
    for cut in ([0, 1], [1, 3, 4], [2]):
        with pytest.raises(ValueError, match="not closed"):
            graph._induced_subgraph(g, cut)


def load_by_loop(source):
    """load_edge_list with the integer fast path switched off."""
    with mock.patch.object(graph, "_integer_edges", lambda text: None):
        return load_edge_list(source)


def outcome(load, source):
    """Everything a parse yields: the graph's arrays and ids, or the error."""
    try:
        g = load(source)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    adj = g.adjacency
    return (g.n, g.original_ids, adj.indptr.tolist(), adj.indices.tolist(),
            adj.data.dtype, adj.data.tolist(), adj.has_canonical_format)


CANONICAL = st.integers(0, 60).map(str) | st.integers(0, 10**18 - 1).map(str)
# per generated text, at most one kind of token or line the fast path refuses
FLAVORS = {
    "clean": CANONICAL,
    "leading zero": CANONICAL.map(lambda t: "0" + t),
    "19-20 digits": st.integers(10**18, 10**20 - 1).map(str),
    "sign": st.sampled_from("+-").flatmap(lambda c: CANONICAL.map(c.__add__)),
    "non-ASCII": st.just("\u00e91"),
    "comment": CANONICAL,
    "form feed": CANONICAL,
    "token count": CANONICAL,
}
BLANKS = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def edge_list_lines(draw, flavor):
    """Edge-list lines with their endings, odd in the way `flavor` names."""
    tokens = CANONICAL | FLAVORS[flavor]
    seps = BLANKS | st.just("\f") if flavor == "form feed" else BLANKS
    kinds = ["pair"] * 4 + ["blank"]
    kinds += {"comment": ["comment"], "token count": ["odd"]}.get(flavor, [])
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "pair":
            line = draw(tokens) + draw(seps) + draw(tokens)
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", "\r"]))
        elif kind == "comment":
            line = draw(st.sampled_from(["# 1 2", "% 3", "#"]))
        else:  # one, three or four tokens
            count = draw(st.sampled_from([1, 3, 4]))
            line = " ".join(draw(tokens) for _ in range(count))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        trail = draw(st.sampled_from(["", " ", "\t", " \t "]))
        lines.append(lead + line + trail
                     + draw(st.sampled_from(["\n", "\r\n"])))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no final newline
    return lines


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fast_path_equals_line_loop(data):
    flavor = data.draw(st.sampled_from(sorted(FLAVORS)))
    lines = data.draw(edge_list_lines(flavor))
    text = "".join(lines)
    if flavor == "clean" and text.strip():
        assert graph._integer_edges(text) is not None
    assert (outcome(load_edge_list, io.StringIO(text))
            == outcome(load_by_loop, io.StringIO(text)))


@pytest.mark.parametrize("text", [
    "5\n6\n", "1 2 3 4\n", "1 2\n3\n4\n", "07 7\n", "0 00\n",
    "999999999999999999 1000000000000000000\n",
    "9223372036854775807 9223372036854775808\n", "1 2\r3 4\n", "1\f2\n",
    "1\v2\n", "\u00e9 1\n", "\n\n", "1 2",
    # line layouts of the pair scanner: an even token total from a 3-token
    # and a 1-token line, in both orders; a pair beside a 4-token line; an
    # odd total without a final LF; blank and whitespace-only lines between
    # pairs; CRLF; no final LF; only blank lines
    "1 2 3\n4\n", "1\n2 3 4\n", "1 2\n3 4 5 6\n", "1 2\n3",
    "1 2\n\n \t\n\r\n3 4\n", "1 2\r\n3 4\r\n", "1 2\n3 4",
    "\n \n\t\r\n"])
def test_fast_path_edge_cases_equal_line_loop(text):
    assert (outcome(load_edge_list, io.StringIO(text))
            == outcome(load_by_loop, io.StringIO(text)))


@pytest.mark.parametrize("bad, count", [("7", 1), ("7 8 9", 3)])
@pytest.mark.parametrize("good", [0, 1000])
@pytest.mark.parametrize("form", ["file", "crlf"])
def test_parse_error_line_number_and_message(bad, count, good, form):
    rows = [f"{i} {i + 1}" for i in range(good)] + [bad, "1 2"]
    ending = {"file": "\n", "crlf": "\r\n"}[form]
    with pytest.raises(ParseError) as err:
        load_edge_list(io.StringIO(ending.join(rows) + ending))
    assert err.value.line_no == good + 1
    assert str(err.value) == (f"line {good + 1}: expected two node tokens, "
                              f"got {count}: {bad!r}")


@pytest.mark.parametrize("text", [
    # largest value below the token count: the table indexed by value
    "0 1\n", "1 2\n2 3\n", "3 0\n0 3\n2 2\n", "5 4\n4 5\n0 1\n",
    # largest value at or above it: the sort
    "0 2\n", "1 4\n2 3\n", "7 7\n", "60 3\n3 1\n",
    # 18-digit values, alone and beside small ones
    "999999999999999999 100000000000000000\n",
    "0 999999999999999999\n999999999999999999 1\n1 0\n"])
def test_dense_table_bound_equals_line_loop(text):
    assert graph._integer_edges(text) is not None
    assert (outcome(load_edge_list, io.StringIO(text))
            == outcome(load_by_loop, io.StringIO(text)))


def test_detect_large_graph_golden_digest(detect_large_dir):
    # recorded with the line-loop parser; the vectorized path must match it
    with open(detect_large_dir / "edges.txt") as fh:
        g = load_edge_list(fh)
    adj = g.adjacency
    assert g.n == 46297 and adj.data.dtype == np.int8
    assert adj.has_canonical_format
    assert adj.indptr.dtype == adj.indices.dtype == np.int32
    digests = {name: hashlib.sha256(np.asarray(getattr(adj, name),
                                               dtype=np.int64).tobytes())
               .hexdigest()[:16] for name in ("indptr", "indices", "data")}
    digests["original_ids"] = hashlib.sha256(
        "\n".join(g.original_ids).encode()).hexdigest()[:16]
    assert digests == {"indptr": "d9ad58bcc8a45aa5",
                       "indices": "ddc0c8a3138ec077",
                       "data": "abb3de8b1661cb1c",
                       "original_ids": "ba9e1b218767f6f6"}


def cut_digests(sub, keep):
    """Digests of a cut graph's CSR arrays and index map, as stored."""
    adj = sub.adjacency
    assert adj.has_canonical_format
    assert adj.indptr.dtype == adj.indices.dtype == np.int32
    assert adj.data.dtype == np.int8 and keep.dtype == np.int64
    arrays = {"indptr": adj.indptr, "indices": adj.indices, "data": adj.data,
              "keep": keep}
    return {name: hashlib.sha256(np.ascontiguousarray(arr).tobytes())
            .hexdigest()[:16] for name, arr in arrays.items()}


@pytest.mark.parametrize("preset, n0, expected", [
    ("1", 1000, {"indptr": "352847356d7f7c42", "indices": "4b86cdb4407accd0",
                 "data": "a64790d031e3a62a", "keep": "702746827e553786"}),
    ("2d", 1499, {"indptr": "bcfd543604415964", "indices": "1ed2bf1972161adb",
                  "data": "7bfd66f77076ce9f", "keep": "10f4b5b48681b2e8"})])
def test_remove_isolated_golden_digest(preset, n0, expected):
    # repetition 0 of the preset's harness draws, cut as the harness cuts it
    from scorecd.experiments import PRESETS
    cfg = PRESETS[preset]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    sub, keep = remove_isolated(sample_adjacency(cfg.model(rng), rng))
    assert sub.n == n0
    assert cut_digests(sub, keep) == expected


def test_detect_large_giant_component_golden_digest(detect_large_dir):
    with open(detect_large_dir / "edges.txt") as fh:
        sub, keep = giant_component(load_edge_list(fh))
    assert sub.n == 46271
    assert cut_digests(sub, keep) == {"indptr": "9f6df3bc435165c0",
                                      "indices": "fe1b41b66c334a14",
                                      "data": "473bb73c3e2bc0cb",
                                      "keep": "6609e1e28fd1ea2b"}


def test_detect_large_text_takes_the_fast_path(detect_large_dir):
    assert graph._integer_edges((detect_large_dir / "edges.txt").read_text()
                                ) is not None


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
    assert sub is g
    assert sub.n == g.n
    assert sub.num_edges == g.num_edges
    assert np.array_equal(idx, np.arange(g.n))


def test_giant_component_tie_breaks_on_first_seen():
    g = load("b c\na d\n")  # two 2-node components; 'b' appeared first
    sub, _ = giant_component(g)
    assert sub.original_ids == ("b", "c")


def test_giant_component_matches_bfs_oracle(rng):
    params = DCBMParams(A=np.array([[1.0, 0.3], [0.3, 1.0]]),
                        theta=rng.uniform(0.02, 0.08, size=120),
                        labels=block_labels((60, 60)))
    g = sample_adjacency(params, rng)
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
    assert sub is g
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
    params = DCBMParams(A=np.array([[1.0, 0.5], [0.5, 1.0]]),
                        theta=np.full(1000, 0.2),
                        labels=block_labels((500, 500)))
    g = sample_adjacency(params, rng)
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


def test_giant_component_of_one_node_or_isolated_nodes():
    sub, idx = giant_component(from_edges([], n=1, original_ids=("x",)))
    assert sub.original_ids == ("x",) and sub.n == 1
    sub, idx = giant_component(from_edges([], n=3, original_ids="abc"))
    assert sub.original_ids == ("a",) and np.array_equal(idx, [0])


def path(lo, hi):
    """Edges of the path lo, lo + 1, ..., hi."""
    return [(i, i + 1) for i in range(lo, hi)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                max_size=40))
@example(path(0, 29))                     # connected
@example(path(0, 15) + path(20, 21))      # node 0 in a majority
@example(path(0, 14) + path(15, 29))      # equal halves: node 0's wins
@example(path(0, 1) + path(2, 10))        # node 0 in a minority
# the breadth-first search from the hub, node 0, reaches a minority
@example([(0, i) for i in range(1, 6)] + path(6, 29))
# equal halves, the hub (node 15) in the later-seen one: node 0's wins
@example(path(0, 14) + [(15, i) for i in range(16, 30)])
def test_giant_component_equals_undirected_components(pairs):
    g = from_edges(pairs, n=30)
    ncomp, comp = connected_components(g.adjacency, directed=False)
    sizes = np.bincount(comp, minlength=ncomp)
    first_largest = comp[np.argmax(sizes[comp] == sizes.max())]
    sub, idx = giant_component(g)
    assert np.array_equal(idx, np.flatnonzero(comp == first_largest))
    assert sub.original_ids == tuple(idx.tolist())
    assert (sub.adjacency != g.adjacency[idx][:, idx]).nnz == 0


# the line loop's outcome on each text: the items of read_labels' table in
# order and code_labels(table, ["a"]), or the error and its line number
LABEL_EDGE_CASES = {
    "node label\na 1\n": ([("a", "1")], [1], [("1", 1)]),
    "node,label\na,1\n": ([("a", "1")], [1], [("1", 1)]),
    "a 1\nnode label\n": ([("a", "1"), ("node", "label")], [1], [("1", 1)]),
    "a 1\r\nb\t2\r\n": ([("a", "1"), ("b", "2")], [1], [("1", 1)]),
    "\u00e9 x\n\u00e8 y": (DataError, "1 nodes have no ground-truth label "
                          "(first missing: 'a')", None),
    "a 1\na 1\n": ([("a", "1")], [1], [("1", 1)]),
    "a 1\na 2\n": (ParseError, "line 2: node 'a' labeled both '1' and '2'", 2),
    "a 1\n# b 2\n": ([("a", "1")], [1], [("1", 1)]),
    "a\u00a0b 1\n": (ParseError, "line 1: expected 'node label', got: "
                    "'a\\xa0b 1'", 1),
    "a\u00a0b 1\nc\u00a0d 2\n": (ParseError, "line 1: expected 'node label', "
                                "got: 'a\\xa0b 1'", 1),
    "a, 1\n": ([("a", "1")], [1], [("1", 1)]),
    "a 1 2\n": (ParseError, "line 1: expected 'node label', got: 'a 1 2'", 1),
    "\n \n": (DataError, "empty label file: no 'node label' pairs found", None),
    "": (DataError, "empty label file: no 'node label' pairs found", None),
    "a 1\rb 2\n": (ParseError, "line 1: expected 'node label', got: "
                   "'a 1\\rb 2'", 1),
}


@pytest.mark.parametrize("text", LABEL_EDGE_CASES)
def test_label_edge_cases_equal_line_loop(text):
    try:
        table = graph.read_labels(io.StringIO(text))
        labels, codes = graph.code_labels(table, ["a"])
    except DataError as exc:
        got = type(exc), str(exc), getattr(exc, "line_no", None)
    else:
        assert labels.dtype == np.int64
        got = list(table.items()), labels.tolist(), list(codes.items())
    assert got == LABEL_EDGE_CASES[text]


NODE_VALUES = st.integers(0, 12) | st.integers(0, 10**18 - 1)
LABEL_VALUES = st.integers(0, 3) | st.integers(0, 10**18 - 1)
# per generated text, at most one kind of line or id the vectorized path
# hands to the line loop; "clean" and "repeat same" stay vectorized
INTEGER_LABEL_FLAVORS = ("clean", "repeat same", "repeat conflict", "missing",
                         "leading zero", "19 digits", "header", "one token")


@st.composite
def integer_label_case(draw):
    """(flavor, label text, int64 ids) of an integer label file."""
    flavor = draw(st.sampled_from(INTEGER_LABEL_FLAVORS))
    nodes = draw(st.lists(NODE_VALUES, min_size=1, max_size=8, unique=True))
    if flavor == "19 digits":  # a node id no canonical 18-digit token names
        nodes[-1] = draw(st.integers(10**18, 2**63 - 1).filter(
            lambda v: v not in nodes))
    rows = [[str(v), str(draw(LABEL_VALUES))] for v in nodes]
    extra = None
    if flavor in ("repeat same", "repeat conflict"):
        node, lab = draw(st.sampled_from(rows))
        if flavor == "repeat conflict":
            lab = str(draw(LABEL_VALUES.filter(lambda v: str(v) != lab)))
        extra = [node, lab]
    elif flavor == "leading zero":  # '07' beside '7'
        extra = ["0" + draw(st.sampled_from(rows))[0],
                 str(draw(LABEL_VALUES))]
    elif flavor == "header":
        extra = ["node", "label"]
    if extra:
        rows.insert(draw(st.integers(0, len(rows))), extra)
    if flavor == "one token":
        lines = [tok for row in rows for tok in row]
    else:
        lines = [draw(BLANKS).join(row) for row in rows]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"]))
                   for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    ids = draw(st.permutations(nodes))[:draw(st.integers(1, len(nodes)))]
    if flavor == "missing":
        ids.insert(draw(st.integers(0, len(ids))),
                   draw(NODE_VALUES.filter(lambda v: v not in nodes)))
    return flavor, text, np.array(ids, dtype=np.int64)


def coded_outcome(load):
    """Vector and codes of load(), or the error it raises."""
    try:
        labels, codes = load()
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return labels.dtype, labels.tolist(), list(codes.items())


def int64(*values):
    return np.array(values, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(integer_label_case())
@example(("clean", "0 2\r\n1 1\r\n2 2", int64(2, 0, 1)))  # table, codes 2, 1
@example(("clean", "999999999999999999 7\n3 5\n",
          int64(3, 999999999999999999)))            # the rank path
@example(("repeat same", "4 1\n5 2\n4 1\n", int64(5, 4)))
@example(("repeat conflict", "4 1\n5 2\n4 2\n", int64(5)))
@example(("missing", "4 1\n5 2\n", int64(4, 6, 5, 7)))
@example(("leading zero", "7 1\n07 2\n", int64(7)))
@example(("header", "node label\n7 1\n", int64(7)))
@example(("one token", "7\n1\n", int64(7)))
@example(("negative id", "1 2\n", int64(1, -1)))
# line layouts of the pair scanner, as in the edge-list edge cases
@example(("token count", "7 1 8\n2\n", int64(7, 8)))
@example(("token count", "7\n1 8 2\n", int64(7, 8)))
@example(("token count", "7 1\n8 2 9 3\n", int64(7, 8)))
@example(("one token", "7 1\n8", int64(7)))
@example(("clean", "7 1\n\n \t\n\r\n8 2\n", int64(8, 7)))
@example(("clean", "7 1\r\n8 2\r\n", int64(8, 7)))
@example(("clean", "7 1\n8 2", int64(8, 7)))
@example(("blank", "\n \n\t\r\n", int64(7)))
def test_integer_label_path_equals_line_loop(case):
    flavor, text, ids = case
    vectorized = graph._integer_labels(text, ids)
    assert (vectorized is not None) == (flavor in ("clean", "repeat same"))
    tokens = [str(v) for v in ids.tolist()]
    assert (coded_outcome(lambda: load_labels(io.StringIO(text), ids))
            == coded_outcome(lambda: graph.code_labels(
                graph.read_labels(io.StringIO(text)), tokens)))


@pytest.mark.parametrize("text", [
    "5 6\n1 2\n2 3\n",           # the giant component is not the first
    "9 9\n4 7\n7 8\n",           # a self-loop leaves node 9 isolated
    "30 10\n11 12\n10 20\n12 13\n13 14\n"])
def test_cuts_of_an_integer_graph_equal_line_loop(text):
    for cut in (giant_component, remove_isolated):
        got, got_keep = cut(load(text))
        want, want_keep = cut(load_by_loop(io.StringIO(text)))
        assert isinstance(got.ids, np.ndarray) and got.ids.dtype == np.int64
        assert isinstance(want.ids, tuple)
        assert got.original_ids == want.original_ids
        assert np.array_equal(got_keep, want_keep)
