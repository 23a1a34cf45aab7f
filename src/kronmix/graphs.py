"""Sparse directed graphs, strongly connected components, condensation, periods.

Edges are stored in the same orientation as matrix rows: an edge (i, j) means a
random walk at i may step to j, and the transition matrix built from the graph
puts its mass on row i. A component is *closed* when no condensation edge
leaves it, i.e. it is the recurrent part of the walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import StructuralError


class DirectedGraph:
    """Immutable sparse directed graph with optional non-negative edge weights.

    `edges` is an (E, 2) integer array or any sequence of (source, target)
    pairs. Duplicate pairs are merged at construction: weights are summed when
    present, otherwise the duplicates collapse to a single edge. Undirected
    input is stored as symmetric directed edge pairs.
    """

    __slots__ = ("node_count", "sources", "targets", "weights", "directed",
                 "_indptr", "_meta")

    def __init__(self, node_count, edges=(), weights=None, directed=True, meta=None):
        node_count = int(node_count)
        if node_count < 0:
            raise StructuralError("node_count must be non-negative")
        self.node_count = node_count
        self.directed = bool(directed)
        self._meta = dict(meta) if meta else {}

        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        w = None if weights is None else np.asarray(weights, dtype=np.float64).ravel()
        if w is not None and w.size != len(edges):
            raise StructuralError("weights length must match edges length")

        if not directed:
            # symmetrize; self-loops stay single
            mirror = edges[:, 0] != edges[:, 1]
            edges = np.concatenate([edges, edges[mirror, ::-1]])
            if w is not None:
                w = np.concatenate([w, w[mirror]])

        src, dst = edges[:, 0], edges[:, 1]
        if src.size:
            if src.min() < 0 or dst.min() < 0 or src.max() >= node_count or dst.max() >= node_count:
                raise StructuralError("edge endpoint out of range")
        if w is not None and w.size and (not np.all(np.isfinite(w)) or w.min() < 0):
            raise StructuralError("weights must be finite and non-negative")

        # merge duplicates in row-major order
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if w is not None:
            w = w[order]
        if src.size:
            keep = np.ones(src.size, dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            if w is not None:
                w = np.bincount(np.cumsum(keep) - 1, weights=w)
            src, dst = src[keep], dst[keep]
        self.sources = src
        self.targets = dst
        self.weights = w
        self._indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=node_count))])

    # -- accessors -----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return int(self.sources.size)

    @property
    def meta(self) -> dict:
        return self._meta

    def successors(self, node: int) -> np.ndarray:
        lo, hi = self._indptr[node], self._indptr[node + 1]
        return self.targets[lo:hi]

    def out_degree(self, node: int) -> int:
        return int(self._indptr[node + 1] - self._indptr[node])

    def has_edge(self, s: int, t: int) -> bool:
        return bool(np.any(self.successors(s) == t))

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self.sources.tolist(), self.targets.tolist()))

    def reverse(self) -> "DirectedGraph":
        return DirectedGraph(self.node_count, np.column_stack([self.targets, self.sources]),
                             self.weights)

    def subgraph(self, nodes) -> "DirectedGraph":
        """Induced subgraph; its nodes are the given ones in ascending order."""
        nodes = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
        remap = -np.ones(self.node_count, dtype=np.int64)
        remap[nodes] = np.arange(nodes.size)
        mask = (remap[self.sources] >= 0) & (remap[self.targets] >= 0)
        edges = np.column_stack([remap[self.sources[mask]], remap[self.targets[mask]]])
        w = None if self.weights is None else self.weights[mask]
        return DirectedGraph(nodes.size, edges, w, meta={"parent_nodes": nodes})

    def __repr__(self):
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


@dataclass
class SccDecomposition:
    """Partition of a graph into strongly connected components.

    `closed[c]` is True when component c has no outgoing condensation edge
    (the walk cannot leave it). `periods[c]` is the gcd of all cycle lengths;
    a single loop-free node gets period 1 with `trivial_period[c]` set.
    """

    component_of: np.ndarray
    components: list[np.ndarray]
    condensation_edges: list[tuple[int, int]]
    closed: np.ndarray
    periods: list[int]
    trivial_period: list[bool]
    topo_order: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.components)

    def closed_components(self) -> list[int]:
        return [c for c in range(self.count) if self.closed[c]]

    def transient_nodes(self) -> np.ndarray:
        """Nodes in open components, in ascending index order."""
        open_mask = ~self.closed[self.component_of] if self.count else np.zeros(0, bool)
        return np.flatnonzero(open_mask)

    def recurrent_nodes(self) -> np.ndarray:
        if not self.count:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.closed[self.component_of])


def scc_decompose(graph: DirectedGraph) -> SccDecomposition:
    """Strong components plus condensation, closed flags and periods.

    Components come from scipy's strong `connected_components`, which numbers
    them in the order they complete, i.e. in reverse topological order of the
    condensation: every condensation edge (s, t) has s > t, and `topo_order`
    is just the ids from last to first. Periods are the gcd of
    |level[u] + 1 - level[w]| over the component's edges (u, w), with BFS
    levels taken from one shortest-path pass out of a super-source that
    feeds the smallest node of each component.
    """
    n = graph.node_count
    src, dst, indptr = graph.sources, graph.targets, graph._indptr
    # scipy's DFS takes a node's successors last to first, so each row is fed
    # in descending order: the DFS then visits successors in ascending order
    # and numbers the components as a recursive DFS from node 0 up would
    descending = dst[(indptr[:-1] + indptr[1:] - 1)[src] - np.arange(src.size)]
    count, labels = csgraph.connected_components(
        sp.csr_matrix((np.ones(src.size), descending, indptr), shape=(n, n)),
        directed=True, connection="strong")
    comp_of = labels.astype(np.int64)
    members = np.argsort(comp_of, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(comp_of, minlength=count))])
    components = [members[lo:hi] for lo, hi in zip(starts[:-1], starts[1:])]

    cs, ct = comp_of[src], comp_of[dst]
    cross = cs != ct
    cond = np.unique(np.column_stack([cs[cross], ct[cross]]), axis=0)
    closed = np.ones(count, dtype=bool)
    closed[cond[:, 0]] = False

    u, w = src[~cross], dst[~cross]
    feed_src = np.concatenate([u, np.full(count, n)])
    feed_dst = np.concatenate([w, members[starts[:-1]]])
    feed = sp.csr_matrix((np.ones(feed_src.size), (feed_src, feed_dst)), shape=(n + 1, n + 1))
    level = csgraph.shortest_path(feed, unweighted=True, indices=n).astype(np.int64)
    gaps = np.zeros(count, dtype=np.int64)
    np.gcd.at(gaps, cs[~cross], np.abs(level[u] + 1 - level[w]))
    trivial = gaps == 0  # no edge inside: a loop-free singleton, period 1
    periods = np.where(trivial, 1, gaps)

    return SccDecomposition(comp_of, components, list(map(tuple, cond.tolist())),
                            closed, periods.tolist(), trivial.tolist(),
                            list(range(count - 1, -1, -1)))


def scc_period(graph: DirectedGraph, component) -> int:
    """Gcd of all cycle lengths inside a strongly connected node set.

    Raises StructuralError when the set is not strongly connected within the
    graph. A singleton without a self-loop returns 1 (convention).
    """
    sub = graph.subgraph(component)
    if sub.node_count == 0:
        raise StructuralError("empty component")
    decomp = scc_decompose(sub)
    if decomp.count != 1:
        raise StructuralError("component is not strongly connected")
    return decomp.periods[0]


def condensation(decomp: SccDecomposition) -> DirectedGraph:
    """One node per component; deduplicated inter-component edges; acyclic."""
    return DirectedGraph(decomp.count, decomp.condensation_edges)
