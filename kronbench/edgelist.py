"""Seeded SNAP-format edge list for the dataset-scale workload.

Node ids are drawn sparsely from [0, 10 N), sources are uniform over the
nodes, and targets are weighted by rank^-0.8 over a random ranking, which
gives the skewed in-degrees of a real social graph. Duplicate edges are kept,
so the loader has to merge them.

Every node is the source of at least one edge. With purely uniform sources
about one seed in fifteen draws a node with no out-edge; that sink makes the
giant component transient and moves the workload onto a different path
(an absorbing-time solve over the whole graph), so timings would split into
two groups by seed.
"""

from __future__ import annotations

import numpy as np

NODES = 8000
EDGES = 94_000
RANK_EXPONENT = 0.8


def generate(seed: int):
    """(source ids, target ids) of the edge list for a seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xED6E))))
    ids = rng.choice(10 * NODES, size=NODES, replace=False)
    weights = np.arange(1, NODES + 1, dtype=np.float64) ** -RANK_EXPONENT
    by_rank = rng.permutation(NODES)
    src = ids[rng.permutation(np.concatenate([np.arange(NODES),
                                              rng.integers(NODES, size=EDGES - NODES)]))]
    dst = ids[by_rank[rng.choice(NODES, size=EDGES, p=weights / weights.sum())]]
    return src, dst


def write(path: str, src: np.ndarray, dst: np.ndarray, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# Directed graph: synthetic kronmix benchmark input, seed {seed}\n")
        fh.write(f"# Nodes: {np.unique(np.concatenate([src, dst])).size} Edges: {src.size}\n")
        fh.write("# FromNodeId\tToNodeId\n")
        fh.write("".join(f"{s}\t{t}\n" for s, t in zip(src.tolist(), dst.tolist())))
