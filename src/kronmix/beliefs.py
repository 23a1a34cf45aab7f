"""Belief system assembly, blockwise update dynamics, convergence verdict.

The stacked state has 2nm entries: current beliefs first, frozen initial
beliefs second, both pair-indexed (agent, topic) row-major. The system
operator [(Lambda A) x C, (I - Lambda) x I; 0, I] is applied blockwise on
the factors (`update`); `system_matrix` builds it only for reference checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import NonConvergent, TooLarge
from .graphs import scc_decompose
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
    """Stacked state: current beliefs over the anchors."""

    x: np.ndarray  # length 2nm


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
    # written so that NaN, which fails every comparison, fails the check
    if not np.all((lam >= 0) & (lam <= 1)):
        raise ValueError("lambda entries must lie in [0, 1]")
    if not np.all((x0 >= 0) & (x0 <= 1)):
        raise ValueError("initial beliefs must lie in [0, 1]")
    return BeliefSystem(a, c, lam, x0.copy())


def system_matrix(system: BeliefSystem) -> sp.csr_matrix:
    """Materialize the 2nm x 2nm operator; raises TooLarge over MATERIALIZE_CAP."""
    nm = system.n * system.m
    top_left_nnz = system.a.nnz * system.c.nnz
    if top_left_nnz + 3 * nm > MATERIALIZE_CAP:
        raise TooLarge(f"system operator needs ~{top_left_nnz + 3 * nm} nonzeros")
    lam_a = sp.diags(system.lam) @ system.a.csr
    top_left = sp.kron(lam_a, system.c.csr, format="csr")
    top_right = sp.diags(np.repeat(1.0 - system.lam, system.m))
    top = sp.hstack([top_left, top_right], format="csr")
    bottom = sp.hstack([sp.csr_matrix((nm, nm)), sp.eye(nm)], format="csr")
    mat = sp.vstack([top, bottom], format="csr")
    mat.eliminate_zeros()
    return mat


def update(system: BeliefSystem, x: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Lambda A X C' + (I - Lambda) X_anchor on an (n, m) or (n, m, k) stack.

    Constraints (X C'), then social aggregation (A .), then anchor blend;
    each of the k columns is updated on its own.
    """
    n, m = system.n, system.m
    x3 = x.reshape(n, m, -1)
    k = x3.shape[2]
    xhat = (system.c.csr @ x3.transpose(1, 0, 2).reshape(m, n * k))  # X C'
    xhat = xhat.reshape(m, n, k).transpose(1, 0, 2).reshape(n, m * k)
    xbar = (system.a.csr @ xhat).reshape(n, m, k)
    lam = system.lam[:, None, None]
    xbar *= lam  # in place: the stepped stacks are large
    xbar += (1.0 - lam) * anchors.reshape(n, m, k)
    return xbar.reshape(x.shape)


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


def closed_factor_classes(system: BeliefSystem) -> tuple[list, list]:
    """Closed classes of the oblivious agents and of the constraints.

    Two lists of (members, period): the closed classes of A whose agents all
    have lambda = 1, and those of C. Each product of one of each is a closed
    class of the current-belief block.
    """
    dec_a = scc_decompose(system.a.to_graph())
    dec_c = scc_decompose(system.c.to_graph())
    agents = [(dec_a.components[cid], dec_a.periods[cid]) for cid in dec_a.closed_components()
              if np.all(system.lam[dec_a.components[cid]] == 1.0)]
    topics = [(dec_c.components[cid], dec_c.periods[cid]) for cid in dec_c.closed_components()]
    return agents, topics


def converges(system: BeliefSystem) -> ConvergenceVerdict:
    """Graph-theoretic convergence verdict.

    Collects every periodic closed class of the oblivious agents and of the
    constraint graph. With no oblivious agents the anchor pull contracts the
    whole update and the verdict is positive regardless of the constraint
    topology.
    """
    oblivious = oblivious_set(system)
    witnesses: list[tuple[str, frozenset[int], int]] = []
    if oblivious:
        for tag, classes in zip(("oblivious-agents", "logic-constraints"),
                                closed_factor_classes(system)):
            witnesses += [(tag, frozenset(members.tolist()), period)
                          for members, period in classes if period != 1]
    return ConvergenceVerdict(not witnesses, witnesses, oblivious)


def _anchored_iteration(system: BeliefSystem, tol: float,
                        max_iter: int) -> tuple[np.ndarray, int, float, str]:
    """Iterate X <- Lambda A X C' + (I - Lambda) X0 from X0.

    Returns (X, iterations, last sup-norm step change, status): "converged"
    once a step changes X by at most tol, "stalled" when the smallest step
    change of a 100-step window falls by less than a 1e-9 fraction below the
    previous window's, "capped" at max_iter. A negative max_iter, or a tol
    that is negative or NaN, raises ValueError.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    if not tol >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tol}")
    x = system.x0
    delta = np.inf
    floor_prev = floor_cur = np.inf
    for it in range(1, int(max_iter) + 1):
        xn = update(system, x, system.x0)
        delta = float(np.abs(xn - x).max())
        x = xn
        if delta <= tol:
            return x, it, delta, "converged"
        floor_cur = min(floor_cur, delta)
        if it % 100 == 0:
            if floor_cur >= floor_prev * (1 - 1e-9):
                return x, it, delta, "stalled"
            floor_prev, floor_cur = floor_cur, np.inf
    return x, int(max_iter), delta, "capped"


@dataclass
class SimulationResult:
    state: BeliefState
    iterations: int
    converged: bool
    final_delta: float

    def beliefs(self, system: BeliefSystem) -> np.ndarray:
        return self.state.x[: system.n * system.m].reshape(system.n, system.m).copy()


def simulate(system: BeliefSystem, stop_delta: float = 1e-10,
             max_iter: int = 100_000, check_convergence: bool = True) -> SimulationResult:
    """Iterate from x0 until the sup-norm step change drops below stop_delta.

    Raises NonConvergent up front when the verdict is negative (pass
    check_convergence=False to override), and as soon as the iteration
    stalls: the smallest step change of a 100-step window falls by less than
    a 1e-9 fraction below the previous window's (oscillation). Reaching
    max_iter without either returns converged=False.
    """
    if check_convergence:
        verdict = converges(system)
        if not verdict.converges:
            raise NonConvergent(f"periodic closed components: {verdict.witnesses}")
    x, it, delta, status = _anchored_iteration(system, stop_delta, max_iter)
    if status == "stalled":
        raise NonConvergent(f"step change stuck near {delta:.3g} after {it} iterations")
    state = BeliefState(np.concatenate([x.ravel(), system.x0.ravel()]))
    return SimulationResult(state, it, status == "converged", delta)
