"""Independent brute-force oracles used to validate the library.

These deliberately avoid the library's own code paths: reachability closures
instead of a strong-components kernel, a fixed point instead of reverse
reachability, dense matrix powers instead of sparse evolution, absorbing
solves on the explicit pair chain instead of coupling simulation, closed
components of the materialised 2nm system graph instead of its factors,
with SVD null vectors and dense solves in numpy for their limits, explicit
operator powers instead of the library's worst-start scan, the rows of a
dense Kronecker product stepped one step at a time instead of a product's
mixing time bisected on its factors, edge dicts merged pair by pair instead
of a sparse COO -> CSR conversion.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from kronmix.beliefs import system_matrix
from kronmix.errors import NotErgodic
from kronmix.graphs import scc_decompose
from kronmix.stochastic import StochasticMatrix


def reachability_components(n: int, edges) -> list[frozenset[int]]:
    """SCCs by mutual reachability on the transitive closure."""
    reach = np.eye(n, dtype=bool)
    for s, t in edges:
        reach[s, t] = True
    for mid in range(n):
        reach |= reach[:, mid:mid + 1] & reach[mid:mid + 1, :]
    seen = set()
    comps = []
    for v in range(n):
        if v in seen:
            continue
        comp = frozenset(np.flatnonzero(reach[v] & reach[:, v]).tolist())
        comps.append(comp)
        seen |= comp
    return comps


def has_cycle_dfs(n: int, edges) -> bool:
    """Back-edge detection on an explicit DFS."""
    adj = [[] for _ in range(n)]
    for s, t in edges:
        adj[s].append(t)
    color = [0] * n  # 0 white, 1 gray, 2 black
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def simple_cycle_lengths(n: int, edges) -> list[int]:
    """Lengths of every simple cycle (self-loops count as length 1)."""
    adj = [[] for _ in range(n)]
    for s, t in edges:
        adj[s].append(t)
    lengths = []

    def walk(start, node, visited, depth):
        for nxt in adj[node]:
            if nxt == start:
                lengths.append(depth)
            elif nxt > start and nxt not in visited:
                visited.add(nxt)
                walk(start, nxt, visited, depth + 1)
                visited.discard(nxt)

    for start in range(n):
        walk(start, start, set(), 1)
    return lengths


def oblivious_fixed_point(a: np.ndarray, lam: np.ndarray) -> frozenset[int]:
    """Oblivious agents as a greatest fixed point on the dense influence matrix.

    Starts from every lambda = 1 agent and drops any that listens to an agent
    outside the set (A[i, j] > 0) until nothing changes.
    """
    candidates = {int(i) for i in np.flatnonzero(lam >= 1.0)}
    changed = True
    while changed:
        changed = False
        for i in list(candidates):
            if any(j not in candidates for j in np.flatnonzero(a[i] > 0).tolist()):
                candidates.discard(i)
                changed = True
    return frozenset(candidates)


def merged_edges(n: int, edges, weights=None, directed: bool = True) -> dict:
    """Edge pair -> list of the weights merged into it, filled pair by pair.

    Undirected input adds each pair in both directions (a self-loop once);
    unweighted edges weigh 1. Raises ValueError on an endpoint outside [0, n).
    """
    merged: dict[tuple[int, int], list[float]] = {}
    for idx, (s, t) in enumerate(edges):
        s, t = int(s), int(t)
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"edge {s} -> {t} outside [0, {n})")
        w = 1.0 if weights is None else float(weights[idx])
        for pair in [(s, t)] if directed or s == t else [(s, t), (t, s)]:
            merged.setdefault(pair, []).append(w)
    return merged


def edge_dict(graph) -> dict:
    """Edge pair -> weight (1 when unweighted) of a built graph."""
    weights = graph.weights if graph.weights is not None else np.ones(graph.edge_count)
    return dict(zip(zip(graph.sources.tolist(), graph.targets.tolist()), weights.tolist()))


def induced_edges(edges: dict, nodes) -> dict:
    """The entries of an edge dict inside `nodes`, renumbered in ascending order."""
    index = {v: i for i, v in enumerate(sorted(set(nodes)))}
    return {(index[s], index[t]): w for (s, t), w in edges.items()
            if s in index and t in index}


def product_edges(edges1: dict, edges2: dict, m: int) -> dict:
    """(s1 * m + s2, t1 * m + t2) -> w1 * w2 over every pair of factor edges."""
    return {(s1 * m + s2, t1 * m + t2): w1 * w2
            for (s1, t1), w1 in edges1.items() for (s2, t2), w2 in edges2.items()}


def lazify_loop(graph, alpha: float) -> tuple[list, list]:
    """Lazy walk edges and weights built edge by edge: scaled out-edges, then loops."""
    n = graph.node_count
    base = graph.weights if graph.weights is not None else np.ones(graph.edge_count)
    sources = graph.sources
    totals = np.zeros(n)
    for idx in range(graph.edge_count):
        if sources[idx] != graph.targets[idx]:
            totals[sources[idx]] += base[idx]
    edges, weights = [], []
    for idx in range(graph.edge_count):
        s, t = int(sources[idx]), int(graph.targets[idx])
        if s != t:
            edges.append((s, t))
            weights.append((1.0 - alpha) * base[idx] / totals[s])
    for v in range(n):
        w = alpha if totals[v] > 0 else 1.0
        if w > 0:
            edges.append((v, v))
            weights.append(w)
    return edges, weights


def dense_evolve(vec: np.ndarray, matrix: np.ndarray, steps: int) -> np.ndarray:
    return vec @ np.linalg.matrix_power(matrix, steps)


def evolve(dist, matrix: StochasticMatrix, steps: int = 1) -> np.ndarray:
    """Left-evolve a distribution: returns v' M^k as a dense vector."""
    v = np.asarray(dist, dtype=np.float64).ravel()
    if v.size != matrix.n:
        raise ValueError(f"dimension mismatch: {v.size} vs {matrix.n}")
    mt = matrix.csr.T.tocsr()
    for _ in range(int(steps)):
        v = mt @ v
    return v


def distance_to_limit_curve(operator, limit: np.ndarray, steps: int) -> np.ndarray:
    """Worst-initial-condition distance to the limit for k = 1..steps.

    The distance at step k is half the largest column L1 deviation of the
    k-th operator power from its limit (initial conditions range over the
    unit simplex, whose extreme points are the operator columns). The
    operator stays sparse, so long curves on a few thousand states are cheap.
    """
    op = sp.csr_matrix(operator)
    power = np.eye(op.shape[0])
    out = np.empty(steps)
    for k in range(steps):
        power = op @ power
        out[k] = 0.5 * np.abs(power - limit).sum(axis=0).max()
    return out


def _dense_stationary(matrix: np.ndarray) -> np.ndarray:
    """pi with pi P = pi and sum(pi) = 1, by a dense least-squares solve."""
    n = matrix.shape[0]
    system = np.vstack([matrix.T - np.eye(n), np.ones((1, n))])
    pi, *_ = np.linalg.lstsq(system, np.r_[np.zeros(n), 1.0], rcond=None)
    return pi


def product_mixing_time(left: StochasticMatrix, right: StochasticMatrix, epsilon: float,
                        max_steps: int = 100_000) -> tuple[int | None, float]:
    """First k at which every row of (L (x) R)^k is within epsilon of pi_L (x) pi_R.

    Forms the dense product with np.kron and steps its rows from the
    identity at k = 0, one step at a time (through a sparse copy of the
    product, for speed), against np.kron of the factors' stationary vectors,
    each a dense least-squares solve. Returns (k, margin), margin the
    distance of epsilon from the worst row's TV distance at k and at k - 1,
    whichever is closer; (None, 0.0) if no k up to max_steps is within.
    """
    a, c = left.dense(), right.dense()
    step = sp.csr_matrix(np.kron(a, c)).T.tocsr()
    target = np.kron(_dense_stationary(a), _dense_stationary(c))[:, None]
    columns = np.eye(step.shape[0])  # column s is row s of the product power
    above = np.inf
    for k in range(max_steps + 1):
        d = 0.5 * np.abs(columns - target).sum(axis=0).max()
        if d <= epsilon:
            return k, min(epsilon - d, above - epsilon)
        above = d
        columns = step @ columns
    return None, 0.0


def two_state_stationary(matrix: np.ndarray) -> np.ndarray:
    """Solve the 2x2 balance equation analytically."""
    p01, p10 = matrix[0, 1], matrix[1, 0]
    pi0 = p10 / (p01 + p10)
    return np.array([pi0, 1.0 - pi0])


def dense_system_operator(a: np.ndarray, c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The stacked 2nm update as one dense matrix (row-major pair indexing)."""
    n, m = a.shape[0], c.shape[0]
    top_left = np.kron(np.diag(lam) @ a, c)
    top_right = np.kron(np.diag(1.0 - lam), np.eye(m))
    top = np.hstack([top_left, top_right])
    bottom = np.hstack([np.zeros((n * m, n * m)), np.eye(n * m)])
    return np.vstack([top, bottom])


def pair_chain_expectations(matrix: np.ndarray) -> dict[tuple[int, int], float]:
    """Exact E[K] of two independent walks for every distinct start pair.

    States are ordered pairs (a, b), a != b, of the dense product chain
    kron(P, P); the diagonal absorbs. Solves (I - Z) h = 1 on the
    off-diagonal block by dense LU, then refines h twice with residuals
    taken in extended precision, where the products of two entries of P
    are exact to 2^-64, so h is accurate to a few units of float64 rounding.
    """
    n = matrix.shape[0]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    keep = np.array([a * n + b for a, b in pairs], dtype=np.int64)
    wide = np.asarray(matrix, dtype=np.longdouble)
    z = np.kron(wide, wide)[np.ix_(keep, keep)]
    system = np.eye(len(pairs)) - z.astype(np.float64)
    h = np.linalg.solve(system, np.ones(len(pairs)))
    for _ in range(2):
        wide_h = h.astype(np.longdouble)
        residual = 1 - (wide_h - z @ wide_h)
        h = h + np.linalg.solve(system, residual.astype(np.float64))
    return {p: float(h[i]) for i, p in enumerate(pairs)}


def pair_chain_coupling(matrix: np.ndarray) -> float:
    """Exact worst-pair E[K] (max over all start pairs)."""
    return max(pair_chain_expectations(matrix).values())


def mc_absorption_time(matrix: np.ndarray, transient: set[int], start: int,
                       trials: int, rng: np.random.Generator):
    """(mean, stderr) of the first exit time from the transient set."""
    cdf = np.cumsum(matrix, axis=1)
    times = np.empty(trials)
    for t in range(trials):
        node, steps = start, 0
        while node in transient:
            node = int(np.searchsorted(cdf[node], rng.random()))
            steps += 1
        times[t] = steps
    return float(times.mean()), float(times.std(ddof=1) / np.sqrt(trials))


def empirical_convergence(op: np.ndarray, starts: int = 20, cap: int = 300_000,
                          tol: float = 1e-9, seed: int = 0) -> bool:
    """Does x_{k+1} = P x_k settle from random starts in [0, 1]?

    Iterates while the per-window delta floor keeps falling and decides:
    below tol is Cauchy, a flattened floor is oscillation (the peripheral
    spectrum of a stochastic operator is roots of unity, so periodic deltas
    stop decreasing within a couple of windows).
    """
    rng = np.random.default_rng(seed)
    dim = op.shape[0]
    x = rng.random((dim, starts))
    window, floor_prev, floor_cur = 200, np.inf, np.inf
    for k in range(1, cap + 1):
        x_next = op @ x
        delta = float(np.abs(x_next - x).max())
        x = x_next
        if delta <= tol:
            return True
        floor_cur = min(floor_cur, delta)
        if k % window == 0:
            if floor_cur >= floor_prev * 0.99:
                return False  # not decreasing: periodic part present
            floor_prev, floor_cur = floor_cur, np.inf
    return True  # still strictly decreasing at the cap: Cauchy trend


def system_graph_limit(system, x: np.ndarray) -> np.ndarray:
    """W^inf x on the materialised 2nm system chain, for a 2nm x k block x.

    Finds the closed components on the system graph itself, gives each the
    value pi' x[comp] (anchors are singletons that keep their rows), pi the
    normalised left null vector of P_comp - I from a dense SVD, and spreads
    them over the transient states T by a dense solve of
    (I - P_TT) y = P_TR out[R], R the closed states. Any periodic closed
    component raises NotErgodic; that includes every periodic slice of a
    factor product.
    """
    matrix = StochasticMatrix(system_matrix(system))
    decomp = scc_decompose(matrix.to_graph())
    dense = matrix.dense()
    nm = system.n * system.m
    out = np.zeros(x.shape)
    closed = np.zeros(system.dim, dtype=bool)
    for cid in decomp.closed_components():
        if decomp.periods[cid] != 1:
            raise NotErgodic(f"closed component {cid} has period {decomp.periods[cid]}")
        comp = np.sort(decomp.components[cid])
        closed[comp] = True
        if comp[0] >= nm:
            out[comp] = x[comp]
            continue
        _, _, vh = np.linalg.svd(dense[np.ix_(comp, comp)].T - np.eye(comp.size))
        pi = vh[-1] / vh[-1].sum()
        out[comp] = pi @ x[comp]
    transient, recurrent = np.flatnonzero(~closed), np.flatnonzero(closed)
    if transient.size:
        rhs = dense[np.ix_(transient, recurrent)] @ out[recurrent]
        out[transient] = np.linalg.solve(
            np.eye(transient.size) - dense[np.ix_(transient, transient)], rhs)
    return out


def system_graph_closed_classes(system) -> list[frozenset[int]]:
    """Closed components of the system graph inside the current-belief block."""
    matrix = StochasticMatrix(system_matrix(system))
    decomp = scc_decompose(matrix.to_graph())
    nm = system.n * system.m
    return [frozenset(decomp.components[cid].tolist()) for cid in decomp.closed_components()
            if decomp.components[cid][0] < nm]
