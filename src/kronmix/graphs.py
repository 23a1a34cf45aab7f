"""Sparse directed graphs, strongly connected components and their periods.

A graph is one scipy CSR matrix whose entry (i, j) is the edge i -> j: a random
walk at i may step to j, and the transition matrix built from the graph puts
its mass on row i. A component is *closed* when no edge leaves it, i.e. it is
the recurrent part of the walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import StructuralError


class DirectedGraph:
    """Immutable sparse directed graph with optional non-negative edge weights.

    `edges` is an (E, 2) integer array or any sequence of (source, target)
    pairs. Undirected input is stored as symmetric directed edge pairs. The
    graph is one canonical CSR matrix, `csr`, whose data are the weights, or
    ones when unweighted; the COO -> CSR conversion merges duplicate pairs,
    summing their weights. Zero weights stay edges. `targets`, `weights` and
    `_indptr` are the CSR's arrays; `sources` is expanded on each read.
    """

    __slots__ = ("node_count", "csr", "targets", "weights", "_indptr", "_meta")

    def __init__(self, node_count, edges=(), weights=None, directed=True, meta=None):
        node_count = int(node_count)
        if node_count < 0:
            raise StructuralError("node_count must be non-negative")
        self.node_count = node_count
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

        if edges.size and (edges.min() < 0 or edges.max() >= node_count):
            raise StructuralError("edge endpoint out of range")
        if w is not None and w.size and (not np.all(np.isfinite(w)) or w.min() < 0):
            raise StructuralError("weights must be finite and non-negative")

        csr = sp.csr_matrix((np.ones(len(edges)) if w is None else w,
                             (edges[:, 0], edges[:, 1])), shape=(node_count, node_count))
        csr.sum_duplicates()
        if w is None:
            csr.data[:] = 1.0  # merged duplicates summed to their count
        # int64 index arrays, shared with `targets` and `_indptr`
        csr.indices, csr.indptr = csr.indices.astype(np.int64), csr.indptr.astype(np.int64)
        self.csr, self.targets, self._indptr = csr, csr.indices, csr.indptr
        self.weights = None if w is None else csr.data

    # -- accessors -----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return int(self.targets.size)

    @property
    def sources(self) -> np.ndarray:
        """Source of each edge, aligned with `targets` (a new array per read)."""
        return np.repeat(np.arange(self.node_count, dtype=np.int64), np.diff(self._indptr))

    @property
    def meta(self) -> dict:
        return self._meta

    def subgraph(self, nodes) -> "DirectedGraph":
        """Induced subgraph; its nodes are the given ones in ascending order.

        StructuralError names a node outside [0, node_count).
        """
        nodes = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
        bad = nodes[(nodes < 0) | (nodes >= self.node_count)]
        if bad.size:
            raise StructuralError(f"subgraph node {bad[0]} outside [0, {self.node_count})")
        sub = self.csr[nodes][:, nodes].tocoo()
        return DirectedGraph(nodes.size, np.column_stack([sub.row, sub.col]),
                             None if self.weights is None else sub.data,
                             meta={"parent_nodes": nodes})

    def __repr__(self):
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


@dataclass
class SccDecomposition:
    """Partition of a graph into strongly connected components.

    Components are numbered in reverse topological order: every edge between
    two components runs from the higher id to the lower. `closed[c]` is True
    when no edge leaves component c (the walk cannot leave it). `periods[c]`
    is the gcd of all cycle lengths; a single loop-free node gets period 1
    with `trivial_period[c]` set.
    """

    component_of: np.ndarray
    components: list[np.ndarray]
    closed: np.ndarray
    periods: list[int]
    trivial_period: list[bool]

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
    """Strong components plus closed flags and periods.

    Components come from scipy's strong `connected_components`, which numbers
    them in the order they complete, i.e. in reverse topological order: every
    edge from component s to another component t has s > t. Periods are the
    gcd of |level[u] + 1 - level[w]| over the component's edges (u, w), with
    BFS levels taken from one shortest-path pass out of a super-source that
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

    cs = comp_of[src]
    cross = cs != comp_of[dst]
    closed = np.ones(count, dtype=bool)
    closed[cs[cross]] = False

    u, w = src[~cross], dst[~cross]
    feed_src = np.concatenate([u, np.full(count, n)])
    feed_dst = np.concatenate([w, members[starts[:-1]]])
    feed = sp.csr_matrix((np.ones(feed_src.size), (feed_src, feed_dst)), shape=(n + 1, n + 1))
    level = csgraph.shortest_path(feed, unweighted=True, indices=n).astype(np.int64)
    gaps = np.zeros(count, dtype=np.int64)
    np.gcd.at(gaps, cs[~cross], np.abs(level[u] + 1 - level[w]))
    trivial = gaps == 0  # no edge inside: a loop-free singleton, period 1
    periods = np.where(trivial, 1, gaps)

    return SccDecomposition(comp_of, components, closed, periods.tolist(), trivial.tolist())
