"""Undirected simple graphs stored as symmetric CSR adjacency.

Graphs are immutable after construction.  Node tokens from edge-list files are
remapped to dense indices 0..n-1 in first-appearance order; the mapping is kept
in ``ids`` so results can be reported against the source labels.  A file of
canonical integer tokens keeps them as an int64 array of their values, which
the label reader aligns with in bulk; ``original_ids``, the tuple of tokens,
is made from it only when read (to print ids).  The edge-list and label
readers take an open text file and read it whole, each by two paths: integer
texts of both go through one scanner, _integer_pairs, and every other text
through a per-line loop over data_lines.
``from_edges`` is the one builder: it reduces its pairs to the upper triangle
U with one sort of a key per pair and hands that to ``_from_upper``, which
returns the adjacency U + U^T; the DCBM sampler feeds its rows to
``_from_upper`` directly.  A cut to a closed
node set (the giant component, the non-isolated nodes) starts from the kept
rows A[keep]; the giant component is most often found by one breadth-first
search.
"""

import functools
import io
import threading
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from . import cores
from .errors import DataError, ParseError


@dataclass(frozen=True, eq=False)
class Graph:
    """Symmetric 0/1 adjacency with no self-loops, plus the node-id map.

    `ids` names node i by ids[i]: a tuple of tokens, or an int64 array of
    non-negative values, each standing for its canonical decimal token.
    """

    n: int
    adjacency: sp.csr_matrix
    ids: object

    @functools.cached_property
    def original_ids(self):
        """The node tokens as a tuple, made on first access: `ids` itself,
        or the decimal strings of an id array."""
        if isinstance(self.ids, np.ndarray):
            return tuple(map(str, self.ids.tolist()))
        return self.ids

    @property
    def num_edges(self):
        return int(self.adjacency.nnz // 2)

    def degrees(self):
        """Degree vector d, d(i) = number of neighbors of i (int64).

        This is the row length: the adjacency from_edges builds, and every
        subgraph cut from it, stores no explicit zeros.
        """
        return np.diff(self.adjacency.indptr).astype(np.int64)


def from_edges(edges, n, original_ids=None):
    """Build a Graph on nodes 0..n-1 from an m x 2 array-like of index pairs.

    Self-loops are dropped and duplicate or reversed pairs collapse to one
    edge, so the adjacency is symmetric 0/1 (int8) CSR in canonical format,
    with int32 indices unless its entry count needs int64.  Indices must be
    bool, integer or whole float values in [0, n) (ValueError otherwise),
    and n at most 2**31; nodes no pair names are isolated.  Each pair (u, v)
    becomes the int64 key min << 32 | max, so one np.sort of the keys puts
    the upper triangle U in row order with sorted columns; a repeated pair
    is a key equal to the one before it and is dropped, the row lengths are
    counted with np.bincount, and _from_upper returns U + U^T.
    `original_ids` names the nodes: a sequence of tokens, kept as a tuple,
    or an int64 array of non-negative values standing for canonical decimal
    tokens, kept as the array (see Graph); by default the tuple
    (0, 1, ..., n - 1).
    """
    pairs = np.asarray(edges)
    # read the values as given: the int64 cast would truncate 1.7 to 1, turn
    # nan or inf into an arbitrary integer and wrap a uint64 above 2**63 - 1
    if pairs.dtype.kind == "f":
        valid = np.all((pairs == np.trunc(pairs)) & (0 <= pairs) & (pairs < n))
    else:
        valid = pairs.dtype.kind in "biu" and (
            pairs.size == 0 or (pairs.min() >= 0 and pairs.max() < n))
    if not valid:
        raise ValueError("edges must hold integer node indices in "
                         f"[0, {n})")
    if n > 2**31:
        raise ValueError(f"from_edges takes at most 2**31 nodes, got {n}")
    pairs = pairs.astype(np.int64, copy=False)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be an m x 2 array of index pairs, got "
                         f"shape {pairs.shape}")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    edge = lo != hi
    if not edge.all():  # drop the self-loops; without any, copy nothing
        lo, hi = lo[edge], hi[edge]
    # lo < hi < n <= 2**31, so the key orders pairs by (lo, hi) exactly
    keys = lo << 32
    keys |= hi
    del lo, hi, edge
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not first.all():  # drop the repeats; without any, copy nothing
        keys = keys[first]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys >> 32, minlength=n), out=indptr[1:])
    keys &= 0xFFFFFFFF  # each key's column, in place
    return _from_upper(indptr, keys, n, original_ids)


def _from_upper(indptr, indices, n, original_ids=None):
    """Build a Graph on nodes 0..n-1 from its upper triangle U in CSR form.

    Row r of U is indices[indptr[r]:indptr[r + 1]], which must be sorted,
    unique and above r; the Graph is from_edges' on those pairs.  Its
    adjacency is U + U^T: scipy adds the two canonical matrices row by row
    in linear time, they share no entry, so every entry is 1 and the sum is
    canonical, with int32 indices unless its entry count needs int64.
    """
    upper = sp.csr_matrix((np.ones(len(indices), dtype=np.int8), indices,
                           indptr), shape=(n, n))
    adj = upper + upper.T
    adj.has_canonical_format = True
    if original_ids is None:
        ids = tuple(range(n))
    elif isinstance(original_ids, np.ndarray):
        ids = original_ids
    else:
        ids = tuple(original_ids)
    return Graph(n=n, adjacency=adj, ids=ids)


def data_lines(text):
    """(line number, stripped line) of each line of `text` holding data:
    lines end at line feeds, and blanks and '#' or '%' comments are skipped."""
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if line and line[0] not in "#%":
            yield line_no, line


def load_edge_list(source):
    """Parse an edge list from an open text file into an undirected Graph.

    `source` is anything with `.read()`; its text is read whole and split by
    data_lines (open() in its default newline mode turns CR and CRLF endings
    into line feeds), and each data line must hold exactly two node tokens.
    Tokens are arbitrary strings, remapped to dense indices in
    first-appearance order.  Duplicate and reversed edges always merge and
    self-loops are dropped.  A text of canonical non-negative integer tokens
    is parsed vectorized (`_integer_edges`), and the Graph keeps their
    values as its int64 `ids`; any other text goes through the line loop,
    which keeps a tuple of tokens.  Both give the same adjacency and
    `original_ids`, and the loop reports every malformed line.  The reader
    lets go of a text the vectorized parse accepted before it builds the
    graph, so it does not hold the text and the graph's arrays at once.
    """
    text = source.read()
    edges = _integer_edges(text)
    if edges is not None:
        del text
        pairs, ids = edges
        return from_edges(pairs, n=len(ids), original_ids=ids)
    index = {}
    ends = []
    for line_no, line in data_lines(text):
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"expected two node tokens, got {len(toks)}: {line!r}",
                             line_no=line_no)
        ends.append(index.setdefault(toks[0], len(index)))
        ends.append(index.setdefault(toks[1], len(index)))
    if not index:
        raise DataError("empty edge list: no edges found in input")
    return from_edges(np.reshape(ends, (-1, 2)), n=len(index),
                      original_ids=tuple(index))


def _pair_tokens(buf, digit):
    """Token starts of a text whose every line holds none or two tokens.

    `buf` holds the bytes of a text of ASCII digits and blanks (space, tab,
    CR, LF), as _integer_pairs has checked, and `digit` flags its digit
    bytes, padded with a False at each end; a token is a run of digits, and
    only LF ends a line.  Every line then holds none or two tokens exactly
    when the token count is even, no line feed falls inside a pair (from
    the start of token 2i to that of token 2i + 1) and at least one falls
    between pairs (from the start of token 2i + 1 to that of token 2i + 2).
    One boolean pass over the text tells which spans hold one; no per-line
    array is built.  Returns None for a text without tokens or with a line
    of one, three or more tokens.
    """
    starts = np.flatnonzero(digit[1:] > digit[:-1])
    if starts.size == 0 or starts.size % 2:
        return None
    # span i runs from the start of token i to the next token's start (the
    # last one to the end of the text); does it hold a line feed?
    feed = np.logical_or.reduceat(buf == ord("\n"), starts)
    inside, between = feed[::2], feed[1:-1:2]
    return starts if between.all() and not inside.any() else None


def _integer_pairs(text):
    """Flat int64 values of a text of canonical integer pairs, or None.

    Applies only when `text` is ASCII digits and blanks (space, tab, CR, LF),
    every non-blank line holds two tokens, and every token is a canonical
    decimal: no leading zero ('07' and '7' are different tokens) and a value
    below 10**18, which a canonical token has exactly when it has at most 18
    digits (np.fromstring saturates longer ones at the int64 limit).  Then a
    token and its value are interchangeable, and values 2i and 2i + 1 are the
    tokens of the i-th data line.  Any other text, including one without
    tokens, returns None.  The byte class is checked with one
    bytes.translate of the encoded text, whose one full-size buffer is
    freed before it returns; the token rule with one boolean pass
    (_pair_tokens).  With a spare core (cores.usable) the numbers are
    converted on a helper thread, started as soon as the byte class has
    passed, while this one flags the digits and checks the tokens; the
    thread is joined on every path before this returns.  Both readers of
    integer texts, _integer_edges and _integer_labels, call this one
    scanner.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    # deleting every digit and blank leaves nothing
    if raw.translate(None, b"0123456789 \t\r\n"):
        return None
    # on digits and blanks np.fromstring neither raises nor warns, and it
    # releases the GIL, so it can run beside the checks; OpenBLAS's idle
    # workers would hold the other core and are stopped first
    convert = functools.partial(np.fromstring, text, dtype=np.int64, sep=" ")
    converted, helper = [], None
    if cores.usable() > 1:
        for _, _, shutdown in cores.openblas():
            shutdown()
        helper = threading.Thread(target=lambda: converted.append(convert()))
        helper.start()
    try:
        buf = np.frombuffer(raw, dtype=np.uint8)
        # digit flags with a non-digit pad at each end (uint8 wraps below '0')
        digit = np.zeros(buf.size + 2, dtype=bool)
        np.less(buf - ord("0"), 10, out=digit[1:-1])
        starts = _pair_tokens(buf, digit)
        # a leading zero: a token starting with '0' whose next byte is a digit
        canonical = (starts is not None and not
                     ((buf[starts] == ord("0")) & digit[2:][starts]).any())
    finally:
        if helper is not None:
            helper.join()
    if not canonical:
        return None
    del raw, buf, digit, starts
    # inline, or again where the helper failed, to raise its error here
    values = converted.pop() if converted else convert()
    return values if values.max() < 10**18 else None


def _first_appearance(values):
    """(index, heads) of a non-empty array of non-negative integers.

    index numbers each entry's value by first appearance (int64, from 0);
    heads holds the distinct values in that order.  The numbering goes
    through a table indexed by value; values at or above the entry count are
    first replaced by their rank among the distinct values, so the table
    stays below it.
    """
    n = values.size
    distinct = None
    if values.max() >= n:
        # too large for a table: each value becomes its rank among the
        # distinct values, which names the same values in the same order
        distinct, values = np.unique(values, return_inverse=True)
    # each value's first position, in a table indexed by value
    first = np.full(int(values.max()) + 1, n, dtype=np.int64)
    pos = np.arange(n)
    np.minimum.at(first, values, pos)
    heads = values[first[values] == pos]  # distinct, by first position
    del pos
    # the table now maps each head to its number; no other entry is read
    first[heads] = np.arange(heads.size)
    index = first[values]
    del values, first
    if distinct is not None:
        heads = distinct[heads]
    return index, heads


def _integer_edges(text):
    """(m x 2 index pairs, int64 ids) of an all-integer edge list, or None.

    The text must pass _integer_pairs (None otherwise); nodes are numbered
    by first appearance, and the ids array holds each node's value, which
    stands for its canonical decimal token.  The indices, and the ids as
    strings, equal the line loop's.
    """
    values = _integer_pairs(text)
    if values is None:
        return None
    index, heads = _first_appearance(values)
    return index.reshape(-1, 2), heads


def _induced_subgraph(g, keep):
    """Subgraph on the sorted index array `keep`, plus the index map.

    `keep` must be closed: a union of connected components, so no kept node
    has a dropped neighbor (a ValueError otherwise).  Then the kept rows
    A[keep] hold the subgraph's entries, and the monotone old-to-new table
    renames their columns without unsorting any row.
    """
    keep = np.asarray(keep, dtype=np.int64)
    rows = g.adjacency[keep]
    new = np.full(g.n, -1, dtype=rows.indices.dtype)
    new[keep] = np.arange(keep.size)
    indices = new.take(rows.indices)
    if (indices < 0).any():
        raise ValueError("node set is not closed: a kept node has a dropped "
                         "neighbor")
    sub = sp.csr_matrix((rows.data, indices, rows.indptr),
                        shape=(keep.size, keep.size))
    sub.has_canonical_format = True
    if isinstance(g.ids, np.ndarray):
        ids = g.ids[keep]
    else:
        pick = keep.tolist()
        # itemgetter of one index returns the bare item, not a 1-tuple
        ids = (itemgetter(*pick)(g.ids) if len(pick) > 1
               else tuple(g.ids[i] for i in pick))
    return Graph(n=keep.size, adjacency=sub, ids=ids), keep


def giant_component(g):
    """Induced subgraph on the largest connected component.

    Ties between equal-size components go to the one containing the smallest
    internal index (i.e. the earliest-appearing node token).  Returns the
    subgraph and the array mapping new indices to old ones; a connected
    graph comes back as itself, with the identity map.  One breadth-first
    search runs from the highest-degree node (the lowest index on ties);
    when it reaches more than half the nodes, their component is the unique
    largest one.  Otherwise every component is found, as the strongly
    connected components of the symmetric adjacency (the directed searches
    build no transpose), and the rule above picks one.  Components depend
    only on the pattern, so both searches read one with float64 ones for
    data, sharing the adjacency's index arrays: csgraph would otherwise
    convert the int8 data to a float64 copy.  The pattern is freed before
    the cut.
    """
    if g.n == 0:
        raise DataError("empty graph")
    adj = g.adjacency
    pattern = sp.csr_matrix((np.ones(adj.nnz), adj.indices, adj.indptr),
                            shape=adj.shape)
    hub = int(np.argmax(np.diff(adj.indptr)))
    reached = breadth_first_order(pattern, hub, directed=True,
                                  return_predecessors=False)
    if 2 * reached.size > g.n:
        del pattern
        if reached.size == g.n:
            return g, np.arange(g.n)
        reached.sort()
        return _induced_subgraph(g, reached)
    # the search stopped at half the nodes or fewer: two or more components
    ncomp, comp = connected_components(pattern, directed=True,
                                       connection="strong")
    del pattern
    sizes = np.bincount(comp, minlength=ncomp)
    best = sizes.max()
    # among components of maximal size, the one seen first wins (whatever
    # the numbering of the components)
    winner = comp[np.argmax(sizes[comp] == best)]
    return _induced_subgraph(g, np.nonzero(comp == winner)[0])


def remove_isolated(g):
    """Drop all degree-0 nodes, re-indexing the rest.

    Returns the reduced graph and the new-to-old index map.  A graph with no
    isolated node comes back as itself, with the identity map.  Raises if
    nothing survives.
    """
    keep = np.nonzero(g.degrees() > 0)[0]
    if keep.size == 0:
        raise DataError("empty graph after preprocessing: all nodes are isolated")
    if keep.size == g.n:
        return g, keep
    return _induced_subgraph(g, keep)


def read_labels(source):
    """Parse an open label file into a {node_token: label_token} dict.

    `source` is anything with `.read()`, read whole and split by data_lines;
    the table keeps file order.  One "node label" pair per line, separated by
    whitespace or a comma, so the `node,label` CSV that `detect --csv` writes
    reads back; that header line is skipped.  A node listed twice with
    different labels is an error, as is a file with no pairs.  This line
    loop reads every label text that load_labels does not align in bulk
    (_integer_labels), and reports every malformed line.
    """
    table = {}
    for line_no, line in data_lines(source.read()):
        toks = line.replace(",", " ").split()
        if len(toks) != 2:
            raise ParseError(f"expected 'node label', got: {line!r}", line_no=line_no)
        if not table and toks == ["node", "label"]:
            continue
        node, lab = toks
        if table.setdefault(node, lab) != lab:
            raise ParseError(f"node {node!r} labeled both {table[node]!r} and "
                             f"{lab!r}", line_no=line_no)
    if not table:
        raise DataError("empty label file: no 'node label' pairs found")
    return table


def code_labels(table, id_order):
    """Label vector aligned with `id_order` from a read_labels table.

    Labels are coded 1..K by first appearance along `id_order`; returns the
    vector and the label-to-code map.  Unlabeled nodes are an error.
    """
    labs = list(map(table.get, map(str, id_order)))
    if None in labs:
        missing = [str(t) for t, lab in zip(id_order, labs) if lab is None]
        raise DataError(f"{len(missing)} nodes have no ground-truth label "
                        f"(first missing: {missing[0]!r})")
    codes = {lab: k for k, lab in enumerate(dict.fromkeys(labs), start=1)}
    out = np.fromiter(map(codes.__getitem__, labs), dtype=np.int64,
                      count=len(labs))
    return out, codes


def load_labels(source, id_order):
    """Read ground-truth labels from an open text file, aligned with `id_order`.

    The file format is read_labels'; the coding is code_labels': an integer
    vector of labels 1..K by first appearance along `id_order`, plus the
    label-to-code map.  Unlabeled nodes are an error.  `id_order` is a
    sequence of node tokens or a Graph's `ids`; an int64 id array with a
    text of canonical integer pairs is read vectorized (_integer_labels),
    and any other input goes through read_labels and code_labels on the
    tokens, with the same result.
    """
    if isinstance(id_order, np.ndarray) and id_order.dtype == np.int64:
        text = source.read()
        coded = _integer_labels(text, id_order)
        if coded is not None:
            return coded
        source, id_order = io.StringIO(text), id_order.tolist()
    return code_labels(read_labels(source), id_order)


def _integer_labels(text, ids):
    """load_labels' (vector, codes) for the int64 id array `ids`, or None.

    Applies only when `text` passes _integer_pairs, `ids` is non-empty and
    non-negative, no node is listed twice with different labels and every
    id has a label; any other input returns None, for the line loop to
    report its error or read it.  The labels go into a table indexed by
    node value (by rank among the node values and ids when a value reaches
    their count), are read at `ids` and numbered by first appearance.
    """
    values = _integer_pairs(text) if ids.size else None
    if values is None or ids.min() < 0:
        return None
    m = values.size // 2
    keys = np.concatenate([values[0::2], ids])
    if keys.max() >= keys.size:
        keys = np.unique(keys, return_inverse=True)[1]
    table = np.full(keys.max() + 1, -1, dtype=np.int64)
    table[keys[:m]] = values[1::2]
    # a node with two labels keeps one of them, so its other row mismatches
    if (table[keys[:m]] != values[1::2]).any():
        return None
    found = table[keys[m:]]
    if found.min() < 0:
        return None
    index, heads = _first_appearance(found)
    return index + 1, {str(lab): k for k, lab in
                       enumerate(heads.tolist(), start=1)}
