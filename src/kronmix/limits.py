"""Where the belief system converges.

Structural limits via stationary vectors of closed components and absorbing
probabilities for the transient part; the fixed-point iteration for stubborn
systems; social power from the stationary left eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .beliefs import BeliefSystem, system_matrix
from .errors import NoUniqueFixedPoint, NotErgodic, StructuralError, TooLarge
from .graphs import SccDecomposition, scc_decompose
from .stochastic import StochasticMatrix, stationary

DENSE_SOLVE_LIMIT = 2000
LIMIT_MATRIX_CAP = 4000


@dataclass
class TransientBlock:
    """Transient-state machinery of an absorbing chain.

    `fundamental` (N = (I - Z)^-1) is materialized only below the dense-solve
    threshold; `absorb` = N R always is, one row per transient state, one
    column per recurrent state.
    """

    transient: np.ndarray
    recurrent: np.ndarray
    z: sp.csr_matrix
    r: sp.csr_matrix
    fundamental: np.ndarray | None
    absorb: np.ndarray


@dataclass
class ClosedLimit:
    """Common limiting value of a closed component and its stationary weights."""

    value: float
    stationary: np.ndarray
    agent_nodes: np.ndarray
    topic_nodes: np.ndarray


@dataclass
class LimitReport:
    x_inf: np.ndarray  # length 2nm
    beliefs: np.ndarray  # n x m view of the current-belief block
    method: str
    component_stationaries: dict[int, np.ndarray] = field(default_factory=dict)
    consensus: float | None = None


@dataclass
class SocialPower:
    """Stationary weights ranked by influence plus the cumulative-share curve."""

    order: np.ndarray  # node ids, heaviest first
    weights: np.ndarray  # sorted descending, sums to 1
    cumulative: np.ndarray


def absorbing_probabilities(matrix: StochasticMatrix,
                            decomp: SccDecomposition | None = None) -> TransientBlock:
    """Absorption probability matrix N R for the transient block.

    Below 2000 transient states the fundamental matrix is inverted densely;
    above, each recurrent column group is solved through a sparse LU
    factorization and N is not materialized.
    """
    if decomp is None:
        decomp = scc_decompose(matrix.to_graph())
    transient = decomp.transient_nodes()
    recurrent = decomp.recurrent_nodes()
    if transient.size == 0:
        raise StructuralError("no transient states: the absorbing block is empty")
    z = matrix.minor(transient, transient)
    r = matrix.minor(transient, recurrent)
    system = (sp.eye(transient.size) - z).tocsc()
    if transient.size <= DENSE_SOLVE_LIMIT:
        try:
            fundamental = np.linalg.inv(system.toarray())
        except np.linalg.LinAlgError as exc:
            raise StructuralError(f"(I - Z) is singular: {exc}") from exc
        absorb = fundamental @ r.toarray()
    else:
        fundamental = None
        lu = spla.splu(system)
        dense_r = r.toarray()
        absorb = np.empty_like(dense_r)
        chunk = max(1, 50_000_000 // max(1, transient.size))
        for lo in range(0, dense_r.shape[1], chunk):
            absorb[:, lo:lo + chunk] = lu.solve(dense_r[:, lo:lo + chunk])
    if not np.all(np.isfinite(absorb)):
        raise StructuralError("absorption solve produced non-finite values")
    return TransientBlock(transient, recurrent, z.tocsr(), r.tocsr(),
                          fundamental, absorb)


def closed_limit(system: BeliefSystem, component) -> ClosedLimit:
    """Limit shared by every node of a closed component of the system graph.

    The component factors into agent and topic sets; the value is
    (pi_A (x) pi_C)' applied to the component's initial beliefs. Anchor
    singletons (indices past nm) return their own initial value. Periodic
    components raise NotErgodic.
    """
    comp = np.asarray(sorted(int(v) for v in component), dtype=np.int64)
    nm = system.n * system.m
    if comp.size == 0:
        raise StructuralError("empty component")
    if comp[0] >= nm:  # anchor block
        if comp.size != 1:
            raise StructuralError("anchor components are singletons")
        flat = int(comp[0] - nm)
        return ClosedLimit(float(system.x0.ravel()[flat]), np.ones(1),
                           np.asarray([flat // system.m]), np.asarray([flat % system.m]))
    agents = np.unique(comp // system.m)
    topics = np.unique(comp % system.m)
    if agents.size * topics.size != comp.size:
        raise NotErgodic("component is a periodic slice of its factor product")
    pi_a = stationary(StochasticMatrix(system.a.minor(agents)))
    pi_c = stationary(StochasticMatrix(system.c.minor(topics)))
    pi = np.kron(pi_a, pi_c)
    x0_s = system.x0[np.ix_(agents, topics)].ravel()
    return ClosedLimit(float(pi @ x0_s), pi, agents, topics)


def structural_limit(system: BeliefSystem) -> LimitReport:
    """Full-system limit from the component structure (no iteration).

    Closed components get their stationary-weighted consensus; open
    components get absorption-weighted combinations, solved in one pass on
    the transient block.
    """
    matrix = StochasticMatrix(system_matrix(system), renormalize=True)
    decomp = scc_decompose(matrix.to_graph())
    x_inf = np.full(system.dim, np.nan)
    stationaries: dict[int, np.ndarray] = {}
    for cid in decomp.closed_components():
        comp = decomp.components[cid]
        cl = closed_limit(system, comp)
        x_inf[comp] = cl.value
        stationaries[cid] = cl.stationary
    transient = decomp.transient_nodes()
    if transient.size:
        block = absorbing_probabilities(matrix, decomp)
        x_inf[transient] = block.absorb @ x_inf[block.recurrent]
    beliefs = x_inf[: system.n * system.m].reshape(system.n, system.m)
    return LimitReport(x_inf, beliefs, "structural", stationaries,
                       consensus=_consensus_value(beliefs))


def _consensus_value(beliefs: np.ndarray, tol: float = 1e-9) -> float | None:
    if beliefs.size == 0:
        return None
    center = float(beliefs.mean())
    return center if np.abs(beliefs - center).max() <= tol else None


def stubborn_limit(system: BeliefSystem, tol: float = 1e-10,
                   max_iter: int = 1_000_000, window: int = 100) -> np.ndarray:
    """Fixed point of X = Lambda A X C' + (I - Lambda) X0 by iteration.

    Converges whenever the anchored update is a contraction (every agent
    stubborn or influenced by one); a stalled residual raises
    NoUniqueFixedPoint (an oblivious periodic part is present).
    """
    lam = system.lam[:, None]
    x0 = system.x0
    x = x0.copy()
    floor_prev = np.inf
    floor_cur = np.inf
    for it in range(1, int(max_iter) + 1):
        xc = (system.c.csr @ x.T).T  # X C'
        xn = lam * (system.a.csr @ xc) + (1.0 - lam) * x0
        resid = float(np.abs(xn - x).max())
        x = xn
        if resid <= tol:
            return x
        floor_cur = min(floor_cur, resid)
        if it % window == 0:
            if floor_cur >= floor_prev * (1 - 1e-9):
                raise NoUniqueFixedPoint(
                    f"residual stalled near {resid:.3g} after {it} iterations")
            floor_prev, floor_cur = floor_cur, np.inf
    raise NoUniqueFixedPoint(f"residual {tol} not reached in {max_iter} iterations")


def social_power(matrix: StochasticMatrix) -> SocialPower:
    """Stationary weights sorted by influence plus their cumulative shares."""
    pi = stationary(matrix)  # raises NotErgodic on reducible or periodic chains
    order = np.argsort(-pi, kind="stable")
    weights = pi[order]
    return SocialPower(order, weights, np.cumsum(weights))


def limit_matrix(system: BeliefSystem, columns=None) -> np.ndarray:
    """Dense limit of the system operator powers (columns are per-start limits).

    `columns` picks which columns to build (all by default); the result is
    dim x len(columns), so a sampled caller never holds the dim x dim matrix.
    """
    if system.dim > LIMIT_MATRIX_CAP:
        raise TooLarge(f"limit matrix would be {system.dim}^2 dense")
    cols = np.arange(system.dim) if columns is None else np.asarray(columns, dtype=np.int64)
    matrix = StochasticMatrix(system_matrix(system), renormalize=True)
    decomp = scc_decompose(matrix.to_graph())
    w = np.zeros((system.dim, cols.size))
    col_comp = decomp.component_of[cols]
    for cid in decomp.closed_components():
        comp = decomp.components[cid]
        pi = closed_limit(system, comp).stationary
        hit = np.flatnonzero(col_comp == cid)
        if hit.size:
            w[np.ix_(comp, hit)] = pi[np.searchsorted(comp, cols[hit])]
    transient = decomp.transient_nodes()
    if transient.size:
        block = absorbing_probabilities(matrix, decomp)
        w[transient] = block.absorb @ w[block.recurrent]
    return w
