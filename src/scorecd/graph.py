"""Undirected simple graphs stored as symmetric CSR adjacency.

Graphs are immutable after construction.  Node tokens from edge-list files are
remapped to dense indices 0..n-1 in first-appearance order; the mapping is kept
in ``original_ids`` so results can be reported against the source labels.  The
edge-list and label readers take an open text file and read it whole.
``from_edges`` is the one builder: it reduces its pairs to the upper triangle
U and hands that to ``_from_upper``, which returns the adjacency U + U^T; the
DCBM sampler feeds its rows to ``_from_upper`` directly.  A cut to a closed
node set (the giant component, the non-isolated nodes) starts from the kept
rows A[keep].
"""

import functools
import io
import threading
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import cores
from .errors import DataError, ParseError


@dataclass(frozen=True, eq=False)
class Graph:
    """Symmetric 0/1 adjacency with no self-loops, plus the node-id map."""

    n: int
    adjacency: sp.csr_matrix
    original_ids: tuple

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
    bool, integer or whole float values in [0, n) (ValueError otherwise);
    nodes no pair names are isolated.  Each pair becomes (min, max), scipy's
    COO constructor sorts and merges them into the upper triangle U, and
    _from_upper returns U + U^T.
    """
    pairs = np.asarray(edges)
    # read the values as given: the int64 cast would truncate 1.7 to 1 and
    # turn nan or inf into an arbitrary integer; integer arrays need no scan
    if pairs.dtype.kind not in "biu" and not (
            pairs.dtype.kind == "f" and np.all(
                (pairs == np.trunc(pairs)) & (0 <= pairs) & (pairs < n))):
        raise ValueError("edges must hold integer node indices in "
                         f"[0, {n})")
    pairs = pairs.astype(np.int64, copy=False)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be an m x 2 array of index pairs, got "
                         f"shape {pairs.shape}")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    edge = lo != hi
    # the constructor sums duplicates; int8 sums can wrap, but only the
    # sparsity pattern of `upper` is read
    upper = sp.csr_matrix((np.ones(np.count_nonzero(edge), dtype=np.int8),
                           (lo[edge], hi[edge])), shape=(n, n))
    return _from_upper(upper.indptr, upper.indices, n, original_ids)


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
        original_ids = tuple(range(n))
    return Graph(n=n, adjacency=adj, original_ids=tuple(original_ids))


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
    is parsed vectorized (`_integer_edges`); any other text goes through the
    line loop, which gives the same Graph and reports every malformed line.
    """
    text = source.read()
    edges = _integer_edges(text)
    if edges is not None:
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


def _pair_tokens(buf, token):
    """Token starts of a text whose every line holds none or two tokens.

    `buf` holds the text's bytes and `token` flags its token bytes, padded
    with a False at each end; every other byte must be a blank (space, tab,
    CR or LF), and only LF ends a line.  Returns None for a text without
    tokens or with a line of one, three or more tokens.
    """
    starts = np.flatnonzero(token[1:] > token[:-1])
    if starts.size == 0:
        return None
    # tokens before each line feed, then per line (the last line may lack one)
    before = np.searchsorted(starts, np.flatnonzero(buf == ord("\n")))
    counts = np.diff(before, prepend=0, append=starts.size)
    return starts if ((counts == 0) | (counts == 2)).all() else None


def _integer_edges(text):
    """(m x 2 index pairs, node ids) of an all-integer edge list, or None.

    Applies only when `text` is ASCII digits and blanks (space, tab, CR, LF),
    every non-blank line holds two tokens, and every token is a canonical
    decimal: no leading zero ('07' and '7' are different nodes) and a value
    below 10**18, which a canonical token has exactly when it has at most 18
    digits (np.fromstring saturates longer ones at the int64 limit).  Then a
    token and its value name the same node, and the indices and ids equal
    the line loop's.  Any other text, including one without tokens, returns
    None.  Nodes are numbered by first appearance through a table indexed by
    value; values at or above the token count are first replaced by their
    rank among the distinct values, so the table stays below it.  With a
    spare core (cores.usable) the numbers are converted on a helper thread
    while this one checks the tokens; the thread ends before this returns.
    """
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # digit flags with a non-digit pad at each end (uint8 wraps below '0')
    digit = np.zeros(buf.size + 2, dtype=bool)
    np.less(buf - ord("0"), 10, out=digit[1:-1])
    allowed = digit[1:-1].copy()
    for blank in b" \t\r\n":
        allowed |= buf == blank
    if not allowed.all():
        return None
    del allowed
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
        starts = _pair_tokens(buf, digit)
        # a leading zero: a token starting with '0' whose next byte is a digit
        canonical = (starts is not None and not
                     ((buf[starts] == ord("0")) & digit[starts + 2]).any())
    finally:
        if helper is not None:
            helper.join()
    if not canonical:
        return None
    del buf, digit, starts
    # inline, or again where the helper failed, to raise its error here
    values = converted.pop() if converted else convert()
    top = values.max()
    if top >= 10**18:
        return None
    n = values.size
    distinct = None
    if top >= n:
        # too large for a table: each value becomes its rank among the
        # distinct values, which names the same nodes in the same order
        distinct, values = np.unique(values, return_inverse=True)
    # each value's first position, in a table indexed by value
    first = np.full(int(values.max()) + 1, n, dtype=np.int64)
    pos = np.arange(n)
    np.minimum.at(first, values, pos)
    heads = values[first[values] == pos]  # distinct, by first position
    del pos
    # the table now maps each head to its node index; no other entry is read
    first[heads] = np.arange(heads.size)
    index = first[values]
    del values, first
    if distinct is not None:
        heads = distinct[heads]
    return index.reshape(-1, 2), tuple(map(str, heads.tolist()))


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
    pick = keep.tolist()
    # itemgetter of one index returns the bare item, not a 1-tuple
    ids = (itemgetter(*pick)(g.original_ids) if len(pick) > 1
           else tuple(g.original_ids[i] for i in pick))
    return Graph(n=keep.size, adjacency=sub, original_ids=ids), keep


def giant_component(g):
    """Induced subgraph on the largest connected component.

    Ties between equal-size components go to the one containing the smallest
    internal index (i.e. the earliest-appearing node token).  Returns the
    subgraph and the array mapping new indices to old ones; a connected
    graph comes back as itself, with the identity map.  The adjacency is
    symmetric, so its strongly connected components are its connected
    components; the directed search finds them without the transpose an
    undirected search builds.  Components depend only on the pattern, so
    the search reads one with float64 ones for data, sharing the adjacency's
    index arrays: csgraph would otherwise convert the int8 data to a float64
    copy.
    """
    if g.n == 0:
        raise DataError("empty graph")
    adj = g.adjacency
    pattern = sp.csr_matrix((np.ones(adj.nnz), adj.indices, adj.indptr),
                            shape=adj.shape)
    ncomp, comp = connected_components(pattern, directed=True,
                                       connection="strong")
    if ncomp == 1:
        return g, np.arange(g.n)
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
    different labels is an error, as is a file with no pairs.  A text of
    plain pairs (see _label_table) is read by one split; any other text goes
    through the line loop, which gives the same table and reports every
    malformed line.
    """
    text = source.read()
    table = _label_table(text)
    if table is not None:
        return table
    table = {}
    for line_no, line in data_lines(text):
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


def _label_table(text):
    """read_labels' table of a label text of plain pairs, or None.

    Applies only when every non-blank line holds two tokens split by blanks
    (space, tab, CR), the text holds no '#', '%' or ',', its first pair is
    not the `node label` header and no node repeats.  Then one split of the
    whole text gives the loop's pairs in file order.  Any other text,
    including one without tokens, returns None.
    """
    if "#" in text or "%" in text or "," in text:
        return None
    buf = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    token = np.ones(buf.size + 2, dtype=bool)
    token[0] = token[-1] = False
    for blank in b" \t\r\n":
        token[1:-1] &= buf != blank
    if _pair_tokens(buf, token) is None:
        return None
    toks = text.split()
    # str.split also breaks at other whitespace (form feed, U+00A0, ...),
    # which the byte check counted as token bytes: the tokens must keep
    # every character that is not a blank
    blanks = buf.size - np.count_nonzero(token)
    if (len("".join(toks)) != len(text) - blanks
            or toks[:2] == ["node", "label"]):
        return None
    table = dict(zip(toks[0::2], toks[1::2]))
    return table if 2 * len(table) == len(toks) else None


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
    label-to-code map.  Unlabeled nodes are an error.
    """
    return code_labels(read_labels(source), id_order)
