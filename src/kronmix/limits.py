"""Where the belief system converges.

Structural limits from the factors, by one limit map kept on each system
(`_limit_map`). The agents that hear no stubborn one (the oblivious set O)
take A_O^inf (x) C^inf, each factor's limit kept on its chain; the other
agents' pairs take one sparse factorisation over their own |N| m pairs;
the 2nm system operator is never built. Also absorbing probabilities, the
fixed-point iteration for stubborn systems, and social power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .beliefs import BeliefSystem, _anchored_iteration, oblivious_set
from .errors import NoUniqueFixedPoint, StructuralError, TooLarge
from .kron import MATERIALIZE_CAP
from .stochastic import (StochasticMatrix, _absorption, _basis, _fundamental, power_limit,
                         stationary)

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

    R's columns are solved on the block's kept factorisation (`_absorption`).
    """
    absorption = _absorption(matrix)
    transient, recurrent = absorption.transient, np.flatnonzero(absorption.label >= 0)
    if transient.size == 0:
        raise StructuralError("no transient states: the absorbing block is empty")
    absorb = absorption.solve(matrix.minor(transient, recurrent).toarray())
    return TransientBlock(transient, recurrent, absorb)


def closed_limit(system: BeliefSystem, agents, topics) -> ClosedLimit:
    """Limit shared by every pair of the closed class agents x topics.

    The agents form a closed class of A with every lambda = 1, the topics one
    of C; each class's chain comes from its factor's `restrict`, which keeps
    it and its stationary vector for the next call. The value is
    (pi_A (x) pi_C)' applied to the class's initial beliefs, pairs in
    agent-major order; a periodic factor class raises NotErgodic. The
    library's limits no longer call it (`_limit_map` reads the factors'
    `power_limit`); only tests and the benchmark's tracer do.
    """
    agents = np.asarray(agents, dtype=np.int64)
    topics = np.asarray(topics, dtype=np.int64)
    pi = np.kron(stationary(system.a.restrict(agents)), stationary(system.c.restrict(topics)))
    x0_s = system.x0[np.ix_(agents, topics)].ravel()
    return ClosedLimit(float(pi @ x0_s), pi)


def _limit_map(system: BeliefSystem):
    """x -> W^inf x for 2nm x w blocks x, W the system operator; the system keeps it.

    Anchors keep their rows. The oblivious agents O (`oblivious_set`) hear
    no stubborn agent and no edge leaves them, so their pairs' block of W^k
    is (A_O (x) C)^k = A_O^k (x) C^k, whose limit A_O^inf (x) C^inf comes
    from the two factors' kept `power_limit`s, A_O = `a.restrict(O)`; a
    periodic closed class of either raises NotErgodic. Every other agent
    (N) reaches a stubborn one inside N, so (Lambda A)[N, N] (x) C has
    spectral radius below 1; its |N| m pair rows, which MATERIALIZE_CAP
    guards, are factored once for (I - (Lambda A)[N, N] (x) C) y_N =
    (Lambda A)[N, O] Y_O + (1 - lambda_N) x_anchor[N], Y_O C' = Y_O as
    C C^inf = C^inf. A build that raises keeps nothing. The map never
    refers to the system: that cycle would keep each system until a gc pass.
    """
    if system._limit is not None:
        return system._limit
    a, c, lam, n, m = system.a, system.c, system.lam, system.n, system.m
    agents = np.array(sorted(oblivious_set(system)), dtype=np.int64)
    rest = np.setdiff1d(np.arange(n), agents)
    if agents.size:
        limit_c, limit_o = power_limit(c), power_limit(a.restrict(agents))
    if rest.size:
        inner = a.minor(rest)
        if inner.nnz * c.nnz > MATERIALIZE_CAP:
            raise TooLarge(f"transient rows need ~{inner.nnz * c.nnz} nonzeros")
        pull = sp.diags(lam[rest])
        solve = _fundamental(sp.kron(pull @ inner, c.csr, format="csr"))

    def apply(x: np.ndarray) -> np.ndarray:
        w = x.shape[1]
        top, anchors = x[:n * m].reshape(n, m, w), x[n * m:]
        y = np.zeros((n, m * w))
        if agents.size:
            by_topic = top[agents].transpose(1, 0, 2).reshape(m, agents.size * w)
            by_agent = limit_c.apply(by_topic).reshape(m, agents.size, w)
            by_agent = by_agent.transpose(1, 0, 2).reshape(agents.size, m * w)
            y[agents] = limit_o.apply(by_agent)
        if rest.size:
            rhs = (1.0 - lam[rest])[:, None] * anchors.reshape(n, m * w)[rest]
            if agents.size:
                rhs += pull @ a.minor(rest, agents) @ y[agents]
            y[rest] = solve(rhs.reshape(rest.size * m, w)).reshape(rest.size, -1)
        return np.concatenate([y.reshape(n * m, w), anchors])

    system._limit = apply
    return apply


def structural_limit(system: BeliefSystem) -> LimitReport:
    """Full-system limit from the factor structure (no iteration).

    The system's `_limit_map` on the stacked (x0, x0): each closed class of
    the oblivious agents settles on its stationary-weighted consensus, and
    only the agents that hear a stubborn one take the pair solve.
    """
    stacked = np.tile(system.x0.ravel(), 2)[:, None]
    beliefs = _limit_map(system)(stacked)[: system.n * system.m, 0].reshape(system.n, system.m)
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
    The columns come from the system's `_limit_map`: the oblivious agents'
    rows from A_O^inf (x) C^inf, the other agents' from one pair solve over
    their |N| m pairs with len(columns) right-hand sides.
    """
    if system.dim > LIMIT_MATRIX_CAP:
        raise TooLarge(f"limit matrix of a {system.dim}-state system; "
                       f"the cap is {LIMIT_MATRIX_CAP} states")
    cols = np.arange(system.dim) if columns is None else np.asarray(columns, dtype=np.int64)
    return _limit_map(system)(_basis(system.dim, cols))
