"""Deterministic classic topologies and seeded random graph families.

Random families draw from a counter-based Philox stream keyed by
(seed, family), so the same spec always yields a byte-identical edge list and
independent families never share a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .graphs import DirectedGraph, scc_decompose

FAMILIES = (
    "cycle", "path", "star", "two-star", "complete", "dumbbell", "lollipop",
    "bolas", "binary-tree", "hypercube", "grid-kd", "torus-kd",
    "eulerian-ring", "erdos-renyi", "newman-watts", "geometric",
)
_DIRECTED_OK = {"cycle", "path", "star", "complete", "eulerian-ring"}
_RANDOM = {"erdos-renyi", "newman-watts", "geometric"}


@dataclass
class TopologySpec:
    """Parameters of one graph family; random families also need a seed."""

    family: str
    n: int = 0
    k: int | None = None
    p: float | None = None
    r: float | None = None
    bridge: int | None = None
    seed: int = 0
    directed: bool = False


def _rng(spec: TopologySpec) -> np.random.Generator:
    family_id = FAMILIES.index(spec.family)
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence((int(spec.seed) & (2**64 - 1), family_id))))


def generate(spec: TopologySpec) -> DirectedGraph:
    """Build the graph described by the spec; deterministic for fixed inputs."""
    fam = spec.family
    if fam not in FAMILIES:
        raise SpecError(f"unknown family {fam!r}")
    if spec.directed and fam not in _DIRECTED_OK:
        raise SpecError(f"family {fam!r} has no directed variant")
    n = int(spec.n)
    builder = _BUILDERS[fam]
    graph = builder(spec, n)
    graph.meta.update({"family": fam, "n_requested": n, "seed": spec.seed})
    if fam == "geometric":
        graph.meta["components"] = scc_decompose(graph).count
    return graph


def _need(cond, msg):
    if not cond:
        raise SpecError(msg)


def _cycle(spec, n):
    if spec.directed:
        _need(n >= 1, "directed cycle needs n >= 1")
        return DirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])
    _need(n >= 3, "undirected cycle needs n >= 3")
    return DirectedGraph(n, [(i, (i + 1) % n) for i in range(n)], directed=False)


def _path(spec, n):
    _need(n >= 1, "path needs n >= 1")
    edges = [(i, i + 1) for i in range(n - 1)]
    if spec.directed:
        edges.append((n - 1, n - 1))  # terminal self-loop keeps out-degree >= 1
        return DirectedGraph(n, edges)
    _need(n >= 2, "undirected path needs n >= 2")
    return DirectedGraph(n, edges, directed=False)


def _star(spec, n):
    _need(n >= 2, "star needs n >= 2")
    if spec.directed:
        edges = [(leaf, 0) for leaf in range(1, n)]
        edges.append((0, 0))  # center self-loop keeps out-degree >= 1
        return DirectedGraph(n, edges)
    return DirectedGraph(n, [(0, leaf) for leaf in range(1, n)], directed=False)


def _two_star(spec, n):
    # centers 0 and 1 joined by an edge; leaves split as evenly as possible
    _need(n >= 4, "two-star needs n >= 4")
    leaves = n - 2
    first = leaves - leaves // 2
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, 2 + first)]
    edges += [(1, v) for v in range(2 + first, n)]
    return DirectedGraph(n, edges, directed=False)


def _complete(spec, n):
    _need(n >= 2, "complete graph needs n >= 2")
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    return DirectedGraph(n, edges)


def _clique_edges(nodes):
    return [(a, b) for ai, a in enumerate(nodes) for b in nodes[ai + 1:]]


def _dumbbell(spec, n):
    _need(n >= 4, "dumbbell needs n >= 4")
    left = list(range(n // 2))
    right = list(range(n // 2, n))
    edges = _clique_edges(left) + _clique_edges(right) + [(left[-1], right[0])]
    return DirectedGraph(n, edges, directed=False)


def _lollipop(spec, n):
    _need(n >= 3, "lollipop needs n >= 3")
    head = max(2, (n + 1) // 2)
    edges = _clique_edges(list(range(head)))
    edges += [(i, i + 1) for i in range(head - 1, n - 1)]
    return DirectedGraph(n, edges, directed=False)


def _bolas(spec, n):
    bridge = spec.bridge if spec.bridge is not None else math.ceil(n / 3)
    _need(bridge >= 0, "bolas bridge must be >= 0")
    _need(n - bridge >= 4, "bolas needs at least 4 clique nodes beyond the bridge")
    rest = n - bridge
    left = list(range(rest // 2))
    right = list(range(rest // 2, rest))
    edges = _clique_edges(left) + _clique_edges(right)
    chain = [left[-1]] + list(range(rest, n)) + [right[0]]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return DirectedGraph(n, edges, directed=False)


def _binary_tree(spec, n):
    _need(n >= 1, "binary tree needs n >= 1")
    edges = []
    for child in range(1, n):
        edges.append(((child - 1) // 2, child))
    return DirectedGraph(n, edges, directed=False)


def _hypercube(spec, n):
    k = spec.k if spec.k is not None else max(1, round(math.log2(n))) if n else None
    _need(k is not None and k >= 1, "hypercube needs k >= 1")
    size = 2 ** k
    edges = [(v, v ^ (1 << b)) for v in range(size) for b in range(k) if v < v ^ (1 << b)]
    return DirectedGraph(size, edges, directed=False)


def _grid(spec, n, wrap):
    k = spec.k or 2
    _need(k >= 1, "grid dimension must be >= 1")
    side = max(2, round(n ** (1.0 / k)))
    shape = (side,) * k
    size = side ** k
    _need(size >= 2, "grid too small")
    edges = []
    for v in range(size):
        coord = list(np.unravel_index(v, shape))
        for axis in range(k):
            nxt = coord.copy()
            if coord[axis] + 1 < side:
                nxt[axis] += 1
            elif wrap and side > 2:
                nxt[axis] = 0
            else:
                continue
            edges.append((v, int(np.ravel_multi_index(nxt, shape))))
    g = DirectedGraph(size, edges, directed=False)
    g.meta["side"] = side
    return g


def _eulerian_ring(spec, n):
    # directed circulant with jumps 1..k; in-degree equals out-degree
    k = spec.k or 2
    _need(n >= 3 and 1 <= k < n, "eulerian ring needs n >= 3 and 1 <= k < n")
    edges = [(i, (i + j) % n) for i in range(n) for j in range(1, k + 1)]
    return DirectedGraph(n, edges)


def _erdos_renyi(spec, n):
    p = spec.p
    _need(n >= 1 and p is not None and 0.0 <= p <= 1.0, "erdos-renyi needs n >= 1 and p in [0,1]")
    rng = _rng(spec)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
    return DirectedGraph(n, edges, directed=False)


def _newman_watts(spec, n):
    k, p = spec.k or 1, spec.p
    _need(n >= 3 and k >= 1 and p is not None and 0.0 <= p <= 1.0,
          "newman-watts needs n >= 3, k >= 1, p in [0,1]")
    _need(2 * k < n, "newman-watts needs 2k < n")
    rng = _rng(spec)
    ring = [(i, (i + j) % n) for i in range(n) for j in range(1, k + 1)]
    edges = list(ring)
    for _ in ring:  # one shortcut trial per ring edge
        if rng.random() < p:
            u = int(rng.integers(n))
            v = int(rng.integers(n - 1))
            if v >= u:
                v += 1
            edges.append((u, v))
    return DirectedGraph(n, edges, directed=False)


def _geometric(spec, n):
    r = spec.r
    _need(n >= 1 and r is not None and 0.0 < r <= math.sqrt(2) + 1e-12,
          "geometric needs n >= 1 and r in (0, sqrt(2)]")
    rng = _rng(spec)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    iu, ju = np.triu_indices(n, k=1)
    mask = dist[iu, ju] <= r
    edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
    return DirectedGraph(n, edges, directed=False)


_BUILDERS = {
    "cycle": _cycle,
    "path": _path,
    "star": _star,
    "two-star": _two_star,
    "complete": _complete,
    "dumbbell": _dumbbell,
    "lollipop": _lollipop,
    "bolas": _bolas,
    "binary-tree": _binary_tree,
    "hypercube": _hypercube,
    "grid-kd": lambda spec, n: _grid(spec, n, wrap=False),
    "torus-kd": lambda spec, n: _grid(spec, n, wrap=True),
    "eulerian-ring": _eulerian_ring,
    "erdos-renyi": _erdos_renyi,
    "newman-watts": _newman_watts,
    "geometric": _geometric,
}


def lazify(graph: DirectedGraph, alpha: float) -> DirectedGraph:
    """Self-loop weight alpha at every node; remaining mass scaled by 1-alpha.

    The result is weighted so that equal_weight_matrix reproduces the lazy
    walk exactly: diagonal alpha, each original out-edge (1-alpha) times its
    normalized share. Nodes with no other out-edge keep a unit self-loop.
    With alpha = 0 only dangling nodes gain a loop.
    """
    if not 0.0 <= alpha < 1.0:
        raise SpecError(f"alpha must be in [0, 1), got {alpha}")
    n = graph.node_count
    totals = np.zeros(n)
    base = graph.weights if graph.weights is not None else np.ones(graph.edge_count)
    off_loop = graph.sources != graph.targets  # old self-loops are replaced
    src, dst = graph.sources[off_loop], graph.targets[off_loop]
    np.add.at(totals, src, base[off_loop])
    loop_w = np.where(totals > 0, alpha, 1.0)
    loops = np.flatnonzero(loop_w > 0)
    edges = np.concatenate([np.column_stack([src, dst]), np.column_stack([loops, loops])])
    weights = np.concatenate([(1.0 - alpha) * base[off_loop] / totals[src], loop_w[loops]])
    out = DirectedGraph(n, edges, weights, meta=dict(graph.meta))
    out.meta["lazy_alpha"] = alpha
    return out
