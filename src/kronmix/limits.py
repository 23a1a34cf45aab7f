"""Where the belief system converges.

Structural limits from the factors: each closed class (a closed class of A
with every lambda = 1 times one of C) settles on (pi_A (x) pi_C)' x0, and the
transient pairs mix those values and their anchors by one sparse solve; the
2nm system operator is never built. Also absorbing probabilities, the
fixed-point iteration for stubborn systems, and social power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .beliefs import BeliefSystem, _anchored_iteration, closed_factor_classes
from .errors import NoUniqueFixedPoint, StructuralError, TooLarge
from .kron import MATERIALIZE_CAP
from .stochastic import StochasticMatrix, _basis, _solve_fundamental, stationary

LIMIT_MATRIX_CAP = 4000


@dataclass
class TransientBlock:
    """Absorption probabilities N R of an absorbing chain, N = (I - Z)^-1.

    One row per transient state, one column per recurrent state.
    """

    transient: np.ndarray
    recurrent: np.ndarray
    absorb: np.ndarray


@dataclass
class ClosedLimit:
    """Common limiting value of a closed component and its stationary weights."""

    value: float
    stationary: np.ndarray


@dataclass
class LimitReport:
    beliefs: np.ndarray  # n x m view of the current-belief block
    consensus: float | None = None


@dataclass
class SocialPower:
    """Stationary weights ranked by influence plus the cumulative-share curve."""

    order: np.ndarray  # node ids, heaviest first
    weights: np.ndarray  # sorted descending, sums to 1
    cumulative: np.ndarray


def absorbing_probabilities(matrix: StochasticMatrix) -> TransientBlock:
    """Absorption probability matrix N R for the transient block of `matrix.scc`.

    N R comes from one sparse solve with R's columns as right-hand sides.
    """
    transient = matrix.scc.transient_nodes()
    recurrent = matrix.scc.recurrent_nodes()
    if transient.size == 0:
        raise StructuralError("no transient states: the absorbing block is empty")
    z = matrix.minor(transient, transient)
    absorb = _solve_fundamental(z, matrix.minor(transient, recurrent).toarray())
    return TransientBlock(transient, recurrent, absorb)


def closed_limit(system: BeliefSystem, agents, topics) -> ClosedLimit:
    """Limit shared by every pair of the closed class agents x topics.

    The agents form a closed class of A with every lambda = 1, the topics one
    of C; each class's chain comes from its factor's `restrict`, which keeps
    it and its stationary vector for the next call. The value is
    (pi_A (x) pi_C)' applied to the class's initial beliefs, pairs in
    agent-major order; a periodic factor class raises NotErgodic.
    """
    agents = np.asarray(agents, dtype=np.int64)
    topics = np.asarray(topics, dtype=np.int64)
    pi = np.kron(stationary(system.a.restrict(agents)), stationary(system.c.restrict(topics)))
    x0_s = system.x0[np.ix_(agents, topics)].ravel()
    return ClosedLimit(float(pi @ x0_s), pi)


def _apply_limit(system: BeliefSystem, x: np.ndarray) -> np.ndarray:
    """W^inf x for a 2nm x k block x, W the system operator.

    Anchors keep their rows. Each closed class K (a product of closed factor
    classes) gets pi' x[K], with pi from `closed_limit`, where periodic factor
    classes raise NotErgodic. The transient pairs T solve
    (I - Z) y = R y_closed + (1 - lambda) x_anchor[T], with Z and R the rows T
    of (Lambda A) x C.
    """
    nm = system.n * system.m
    top, anchors = x[:nm], x[nm:]
    y = np.zeros_like(top)
    closed = np.zeros(nm, dtype=bool)
    agent_classes, topic_classes = closed_factor_classes(system)
    for agents, _ in agent_classes:
        for topics, _ in topic_classes:
            pairs = (agents[:, None] * system.m + topics).ravel()
            y[pairs] = closed_limit(system, agents, topics).stationary @ top[pairs]
            closed[pairs] = True
    transient = np.flatnonzero(~closed)
    if transient.size:
        if system.a.nnz * system.c.nnz > MATERIALIZE_CAP:
            raise TooLarge(f"transient rows need ~{system.a.nnz * system.c.nnz} nonzeros")
        lam_a = sp.diags(system.lam) @ system.a.csr
        rows = sp.kron(lam_a, system.c.csr, format="csr")[transient]
        anchor_weight = (1.0 - system.lam)[transient // system.m]
        rhs = rows @ y + anchor_weight[:, None] * anchors[transient]
        y[transient] = _solve_fundamental(rows[:, transient], rhs)
    return np.concatenate([y, anchors])


def structural_limit(system: BeliefSystem) -> LimitReport:
    """Full-system limit from the factor structure (no iteration).

    Closed classes get their stationary-weighted consensus; transient pairs
    get absorption-weighted combinations, solved in one pass.
    """
    stacked = np.concatenate([system.x0.ravel(), system.x0.ravel()])
    beliefs = _apply_limit(system, stacked[:, None])[: system.n * system.m, 0]
    beliefs = beliefs.reshape(system.n, system.m)
    return LimitReport(beliefs, _consensus_value(beliefs))


def _consensus_value(beliefs: np.ndarray, tol: float = 1e-9) -> float | None:
    if beliefs.size == 0:
        return None
    center = float(beliefs.mean())
    return center if np.abs(beliefs - center).max() <= tol else None


def stubborn_limit(system: BeliefSystem, tol: float = 1e-10,
                   max_iter: int = 1_000_000) -> np.ndarray:
    """Fixed point of X = Lambda A X C' + (I - Lambda) X0 by iteration.

    Converges whenever the anchored update is a contraction (every agent
    stubborn or influenced by one). The iteration is `simulate`'s: a stall
    (the smallest step change of a 100-step window falls by less than a 1e-9
    fraction below the previous window's, as with an oblivious periodic part)
    or reaching max_iter raises NoUniqueFixedPoint.
    """
    x, it, delta, status = _anchored_iteration(system, tol, max_iter)
    if status == "stalled":
        raise NoUniqueFixedPoint(f"residual stalled near {delta:.3g} after {it} iterations")
    if status == "capped":
        raise NoUniqueFixedPoint(f"residual {tol} not reached in {max_iter} iterations")
    return x


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
        raise TooLarge(f"limit matrix of a {system.dim}-state system; "
                       f"the cap is {LIMIT_MATRIX_CAP} states")
    cols = np.arange(system.dim) if columns is None else np.asarray(columns, dtype=np.int64)
    return _apply_limit(system, _basis(system.dim, cols))
