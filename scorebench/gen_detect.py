"""Seeded DCBM network for the detect-large workload.

Writes an edge list (`edges.txt`, one `u v` pair per line) and a ground-truth
file (`labels.txt`, one `node label` pair per line) into --out, plus
`expected.npz` holding the giant component's true labels in the order the
detector reports them.  Prints one JSON line with n, n0 (giant-component
size), the edge count and the sha256 of each text file, so runs can be shown
to share inputs.

The model: two equal communities, block matrix B = [[1, .4], [.4, 1]], degree
weights theta = u^2 with u ~ U(0.1, 1), scaled to a mean degree of 12.  Edge
counts per block pair are Poisson and endpoints are drawn proportional to
theta, so sampling costs O(edges), not the O(n^2) of the package's own
sampler (which is code under test and is not called here).

    python3 scorebench/gen_detect.py --seed 1 --out DIR
"""

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

N_NODES = 50_000
B = np.array([[1.0, 0.4], [0.4, 1.0]])
MEAN_DEGREE = 12.0


def sample_edges(rng, n=N_NODES):
    """Unique undirected edges (i < j) and block labels 0/1 of an n-node DCBM."""
    block = np.repeat([0, 1], [n // 2, n - n // 2])
    theta = rng.uniform(0.1, 1.0, size=n) ** 2
    mass = np.array([theta[block == k].sum() for k in (0, 1)])
    scale = MEAN_DEGREE * n / float(mass @ B @ mass)
    ends = []
    for k, l in ((0, 0), (0, 1), (1, 1)):
        mean_count = scale * B[k, l] * mass[k] * mass[l] / (2 if k == l else 1)
        m = rng.poisson(mean_count)
        ends.append(np.column_stack([_draw(rng, theta, block, k, m),
                                     _draw(rng, theta, block, l, m)]))
    pairs = np.vstack(ends)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    return pairs, block


def _draw(rng, theta, block, k, m):
    """m nodes of block k, each with probability proportional to theta."""
    members = np.flatnonzero(block == k)
    cdf = np.cumsum(theta[members])
    return members[np.searchsorted(cdf, rng.random(m) * cdf[-1], side="right")]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_inputs(seed, out):
    """Generate the seed's network into directory `out`; returns the summary."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C0DE]))
    pairs, block = sample_edges(rng)
    n = block.size
    # file order: shuffled edges, each written in a random direction, with
    # node tokens that carry no block information
    pairs = pairs[rng.permutation(len(pairs))]
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip][:, ::-1]
    token = rng.permutation(n) + 1

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    edges_path, labels_path = out / "edges.txt", out / "labels.txt"
    tok = token[pairs]
    edges_path.write_text("".join(f"{a} {b}\n" for a, b in tok.tolist()))
    labels_path.write_text("".join(f"{t} {k + 1}\n"
                                   for t, k in zip(token.tolist(), block.tolist())))

    # giant component, nodes in first-appearance order along the file
    flat = pairs.ravel()
    _, first = np.unique(flat, return_index=True)
    order = flat[np.sort(first)]
    adj = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                        shape=(n, n))
    ncomp, comp = connected_components(adj, directed=False)
    sizes = np.bincount(comp[order], minlength=ncomp)
    winner = comp[order][np.argmax(sizes[comp[order]] == sizes.max())]
    giant = order[comp[order] == winner]
    np.savez(out / "expected.npz", truth=block[giant] + 1)
    return {"seed": seed, "n": int(n), "n0": int(giant.size),
            "edges": int(len(pairs)),
            "edges_sha256": _sha256(edges_path),
            "labels_sha256": _sha256(labels_path)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(write_inputs(args.seed, args.out)))


if __name__ == "__main__":
    main()
