"""Belief system assembly, blockwise update dynamics, convergence verdict.

The stacked state has 2nm entries: current beliefs first, frozen initial
beliefs second, both pair-indexed (agent, topic) row-major. The implicit
system operator has blocks [(Lambda A) x C, (I - Lambda) x I; 0, I].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import NonConvergent, TooLarge
from .graphs import DirectedGraph, scc_decompose
from .kron import MATERIALIZE_CAP
from .stochastic import StochasticMatrix


@dataclass
class BeliefSystem:
    """(A, C, lambda, x0) bundle; immutable once assembled."""

    a: StochasticMatrix  # n x n social influence
    c: StochasticMatrix  # m x m multi-issue dependence
    lam: np.ndarray  # stubbornness diagonal, entries in [0, 1]
    x0: np.ndarray  # n x m initial beliefs in [0, 1]

    @property
    def n(self) -> int:
        return self.a.n

    @property
    def m(self) -> int:
        return self.c.n

    @property
    def dim(self) -> int:
        return 2 * self.n * self.m


@dataclass
class BeliefState:
    """Mutable iteration state; the anchor block never changes."""

    k: int
    x: np.ndarray  # length 2nm

    def beliefs(self, n: int, m: int) -> np.ndarray:
        return self.x[: n * m].reshape(n, m)


@dataclass
class ConvergenceVerdict:
    """Convergence decision; positive iff the witness list is empty.

    Witnesses are (graph_tag, node set, period) for every periodic closed
    component found, with graph_tag "oblivious-agents" or "logic-constraints".
    """

    converges: bool
    witnesses: list[tuple[str, frozenset[int], int]] = field(default_factory=list)
    oblivious_agents: frozenset[int] = frozenset()


def assemble(a, c, lam, x0) -> BeliefSystem:
    """Validate the pieces and bundle them into a BeliefSystem."""
    a = a if isinstance(a, StochasticMatrix) else StochasticMatrix(a)
    c = c if isinstance(c, StochasticMatrix) else StochasticMatrix(c)
    lam = np.asarray(lam, dtype=np.float64).ravel()
    x0 = np.asarray(x0, dtype=np.float64)
    if lam.size != a.n:
        raise ValueError(f"lambda has {lam.size} entries for {a.n} agents")
    if x0.shape != (a.n, c.n):
        raise ValueError(f"x0 shape {x0.shape} does not match ({a.n}, {c.n})")
    if lam.size and (lam.min() < 0 or lam.max() > 1):
        raise ValueError("lambda entries must lie in [0, 1]")
    if x0.size and (x0.min() < 0 or x0.max() > 1):
        raise ValueError("initial beliefs must lie in [0, 1]")
    return BeliefSystem(a, c, lam, x0.copy())


def initial_state(system: BeliefSystem, current=None) -> BeliefState:
    """Fresh state: current beliefs (default x0) stacked over the anchors."""
    cur = system.x0 if current is None else np.asarray(current, dtype=np.float64)
    if cur.shape != (system.n, system.m):
        raise ValueError(f"state shape {cur.shape} does not match ({system.n}, {system.m})")
    return BeliefState(0, np.concatenate([cur.ravel(), system.x0.ravel()]))


def system_matrix(system: BeliefSystem, cap: int = MATERIALIZE_CAP) -> sp.csr_matrix:
    """Materialize the 2nm x 2nm operator; raises TooLarge over the cap."""
    nm = system.n * system.m
    top_left_nnz = system.a.nnz * system.c.nnz
    if top_left_nnz + 3 * nm > cap:
        raise TooLarge(f"system operator needs ~{top_left_nnz + 3 * nm} nonzeros")
    lam_a = sp.diags(system.lam) @ system.a.csr
    top_left = sp.kron(lam_a, system.c.csr, format="csr")
    top_right = sp.diags(np.repeat(1.0 - system.lam, system.m))
    top = sp.hstack([top_left, top_right], format="csr")
    bottom = sp.hstack([sp.csr_matrix((nm, nm)), sp.eye(nm)], format="csr")
    mat = sp.vstack([top, bottom], format="csr")
    mat.eliminate_zeros()
    return mat


def step(system: BeliefSystem, state: BeliefState) -> BeliefState:
    """One update: constraints, then social aggregation, then anchor blend.

    Computed blockwise (x-hat = X C', x-bar = A x-hat, X+ = Lam x-bar +
    (I - Lam) X0) without materializing the stacked operator.
    """
    n, m = system.n, system.m
    x = state.beliefs(n, m)
    anchors = state.x[n * m:].reshape(n, m)
    xhat = (system.c.csr @ x.T).T  # X C'
    xbar = system.a.csr @ xhat
    lam = system.lam[:, None]
    state.x[: n * m] = (lam * xbar + (1.0 - lam) * anchors).ravel()
    state.k += 1
    return state


def oblivious_set(system: BeliefSystem) -> frozenset[int]:
    """Largest set of lambda=1 agents closed under their in-neighborhoods.

    Agent i listens to j when A[i, j] > 0; members must only listen inside
    the set, so no stubborn influence can reach them. Equivalently, an agent
    is oblivious iff no agent with lambda < 1 is reachable from it in A's
    graph: one breadth-first pass on the reversed graph, from a super-source
    joined to every agent with lambda < 1, finds all the others.
    """
    n = system.n
    coo = system.a.csr.tocoo()
    anchored = np.flatnonzero(system.lam < 1.0)
    src = np.concatenate([coo.col, np.full(anchored.size, n)])
    dst = np.concatenate([coo.row, anchored])
    reverse = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n + 1, n + 1))
    oblivious = np.ones(n + 1, dtype=bool)
    oblivious[csgraph.breadth_first_order(reverse, n, return_predecessors=False)] = False
    return frozenset(np.flatnonzero(oblivious).tolist())


def converges(system: BeliefSystem) -> ConvergenceVerdict:
    """Graph-theoretic convergence verdict.

    Collects every periodic closed component of the constraint graph and of
    the subgraph induced by oblivious agents. With no oblivious agents the
    anchor pull contracts the whole update and the verdict is positive
    regardless of the constraint topology.
    """
    oblivious = oblivious_set(system)
    witnesses: list[tuple[str, frozenset[int], int]] = []
    if oblivious:
        nodes = np.asarray(sorted(oblivious), dtype=np.int64)
        sub = system.a.to_graph().subgraph(nodes)
        dec = scc_decompose(sub)
        for cid in dec.closed_components():
            if dec.periods[cid] != 1:
                members = frozenset(int(nodes[v]) for v in dec.components[cid])
                witnesses.append(("oblivious-agents", members, dec.periods[cid]))
        dec_t = scc_decompose(system.c.to_graph())
        for cid in dec_t.closed_components():
            if dec_t.periods[cid] != 1:
                members = frozenset(int(v) for v in dec_t.components[cid])
                witnesses.append(("logic-constraints", members, dec_t.periods[cid]))
    return ConvergenceVerdict(not witnesses, witnesses, oblivious)


@dataclass
class SimulationResult:
    state: BeliefState
    iterations: int
    converged: bool
    final_delta: float
    trajectory: list[np.ndarray] = field(default_factory=list)

    def beliefs(self, system: BeliefSystem) -> np.ndarray:
        return self.state.beliefs(system.n, system.m).copy()


def simulate(system: BeliefSystem, stop_delta: float = 1e-10,
             max_iter: int = 100_000, check_convergence: bool = True,
             record_every: int = 0, state: BeliefState | None = None,
             oscillation_window: int = 64) -> SimulationResult:
    """Iterate until the sup-norm step change drops below stop_delta.

    Raises NonConvergent up front when the verdict is negative (pass
    check_convergence=False to override) and at max_iter when the change is
    no longer decreasing across the last windows (oscillation).
    """
    if check_convergence:
        verdict = converges(system)
        if not verdict.converges:
            raise NonConvergent(f"periodic closed components: {verdict.witnesses}")
    st = state if state is not None else initial_state(system)
    nm = system.n * system.m
    trajectory: list[np.ndarray] = []
    delta = np.inf
    window_floor = []
    recent = []
    for it in range(1, int(max_iter) + 1):
        prev = st.x[:nm].copy()
        step(system, st)
        delta = float(np.abs(st.x[:nm] - prev).max())
        if record_every and (it % record_every == 0 or it == 1):
            trajectory.append(st.x[:nm].copy())
        if delta <= stop_delta:
            return SimulationResult(st, it, True, delta, trajectory)
        recent.append(delta)
        if len(recent) == oscillation_window:
            window_floor.append(min(recent))
            recent = []
    if len(window_floor) >= 2 and window_floor[-1] >= window_floor[-2] * (1 - 1e-6):
        raise NonConvergent(
            f"step change stuck near {delta:.3g} after {max_iter} iterations")
    return SimulationResult(st, int(max_iter), False, delta, trajectory)


def oblivious_subgraph(system: BeliefSystem) -> tuple[DirectedGraph, np.ndarray]:
    """Induced graph of the oblivious agents plus their original indices."""
    nodes = np.asarray(sorted(oblivious_set(system)), dtype=np.int64)
    return system.a.to_graph().subgraph(nodes), nodes
