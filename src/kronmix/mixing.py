"""Convergence-time measurement and bounds.

Covers empirical mixing time (worst-start total variation), spectral bounds,
Monte-Carlo coupling times, exact absorbing times on the transient block, and
the composite convergence-time bound. All bound formulas use the natural
logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AllTrialsCapped, FailedToConverge, NotErgodic, StructuralError
from .graphs import SccDecomposition, condensation, scc_decompose
from .stochastic import (StochasticMatrix, _dominant_eigenpair, ergodicity_check,
                         stationary)

EXACT_START_LIMIT = 2000
SAMPLED_STARTS = 64
# A coupling step compares each live walker's draw with the w cumulatives of
# its row (w = largest out-degree): O(w) work per walker-step. Walkers go in
# chunks of _CHUNK // w, so a step's scratch stays near _CHUNK float64 entries
# (64 MB) however many walkers are live.
_CHUNK = 8_000_000


@dataclass
class CouplingEstimate:
    """Monte-Carlo estimate of the worst-pair expected coupling time."""

    mean: float
    stderr: float
    trials: int
    capped: int
    start_pair: tuple[int, int]


@dataclass
class AbsorbingTimes:
    """Expected steps to enter the union of closed components.

    `longest_path_total` is the proof-level variant: the largest sum of
    per-component exit times along a condensation path.
    """

    node_expectation: np.ndarray  # full length, zero on recurrent nodes
    max_expectation: float
    component_expectation: dict[int, float]
    longest_path_total: float


@dataclass
class MixingReport:
    epsilon: float
    t_mix: int | None = None
    d_curve: np.ndarray | None = None
    lambda2_abs: float | None = None
    lower_bound: float | None = None
    upper_bound: float | None = None
    coupling: CouplingEstimate | None = None
    absorbing_h: float | None = None
    theorem_bound: float | None = None


def _start_rows(n: int, starts, rng) -> np.ndarray:
    if starts == "exact" or (starts is None and n <= EXACT_START_LIMIT):
        return np.arange(n)
    count = SAMPLED_STARTS if starts is None or starts == "sampled" else int(starts)
    if count >= n:
        return np.arange(n)
    rng = rng or np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    return rng.choice(n, size=count, replace=False)


def measure_mixing_time(matrix: StochasticMatrix, epsilon: float = 0.25,
                        starts=None, rng=None, max_steps: int = 1_000_000,
                        return_curve: bool = False):
    """Smallest k with max-over-starts TV distance to stationarity <= epsilon.

    Exact over all starts up to 2000 states, otherwise over 64 sampled starts
    (set `starts` to "exact", "sampled", or a count to override). Periodic or
    reducible chains raise NotErgodic.
    """
    pi = stationary(matrix)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    n = matrix.n
    rows = _start_rows(n, starts, rng)
    dist = np.zeros((rows.size, n))
    dist[np.arange(rows.size), rows] = 1.0
    curve = []
    d0 = 0.5 * float(np.abs(dist - pi).sum(axis=1).max())
    if d0 <= epsilon:
        return (0, np.asarray(curve)) if return_curve else 0
    pt = matrix.csr.T.tocsr()
    for k in range(1, int(max_steps) + 1):
        dist = (pt @ dist.T).T
        d = 0.5 * float(np.abs(dist - pi).sum(axis=1).max())
        curve.append(d)
        if d <= epsilon:
            return (k, np.asarray(curve)) if return_curve else k
    raise FailedToConverge(f"TV distance still {curve[-1]:.3g} after {max_steps} steps")


def second_eigenvalue(matrix: StochasticMatrix) -> float:
    """|lambda_2|: the dominant eigenvalue modulus of M' deflated by (pi, 1).

    The deflated operator v -> M'v - pi sum(v) keeps every eigenvalue of M
    but the unit one, which it sends to 0. One ARPACK call to machine
    precision (`stochastic._dominant_eigenpair`) finds its dominant
    eigenvalue, whether real, negative or one of a complex pair; a rank-one
    chain has a null deflated operator and gives 0. Periodic or reducible
    chains raise NotErgodic, and an ARPACK run that hits its iteration cap
    raises FailedToConverge.
    """
    pi = stationary(matrix)
    pt = matrix.csr.T
    value, _ = _dominant_eigenpair(lambda v: pt @ v - pi * v.sum(), matrix.n)
    return float(abs(value))


def spectral_bounds(lambda2: float, states: int, epsilon: float) -> tuple[float, float]:
    """Spectral mixing-time bounds for |lambda_2| < 1 on `states` states.

    lower = lambda2 / (2 (1 - lambda2)) * ln(1 / (2 epsilon))
    upper = (ln states + ln(1 / epsilon)) / (1 - lambda2)
    """
    lower = lambda2 / (2.0 * (1.0 - lambda2)) * math.log(1.0 / (2.0 * epsilon))
    upper = (math.log(states) + math.log(1.0 / epsilon)) / (1.0 - lambda2)
    return lower, upper


def eigen_bounds(matrix: StochasticMatrix, epsilon: float = 0.25,
                 lambda2: float | None = None) -> tuple[float, float]:
    """`spectral_bounds` of one chain; |lambda_2| is computed when not given."""
    lam = second_eigenvalue(matrix) if lambda2 is None else float(lambda2)
    if lam >= 1.0:
        raise FailedToConverge(f"|lambda_2| estimate {lam} >= 1")
    return spectral_bounds(lam, matrix.n, epsilon)


def _row_table(matrix: StochasticMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row cumulatives over the CSR nonzeros, padded to the largest out-degree.

    Returns (cum, targets), both n x w with w the largest out-degree. Row s
    holds the running sums of its nonzeros in column order, which are the
    same floats a dense row cumsum holds at those columns (adding 0.0 is
    exact); its last real entry and its padding are 1.0. targets[s, j] is
    the column of the j-th nonzero.
    """
    csr = matrix.csr.sorted_indices()
    deg = np.diff(csr.indptr)
    n, w = matrix.n, int(deg.max())
    rows = np.repeat(np.arange(n), deg)
    slot = np.arange(csr.nnz) - csr.indptr[rows]
    cum = np.zeros((n, w))
    cum[rows, slot] = csr.data
    np.cumsum(cum, axis=1, out=cum)
    cum[np.arange(w) >= deg[:, None] - 1] = 1.0
    targets = np.zeros((n, w), dtype=np.int64)
    targets[rows, slot] = csr.indices
    return cum, targets


def _step(table, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One synchronous inverse-CDF step: walker i moves from states[i] by u[i]."""
    cum, targets = table
    out = np.empty_like(states)
    chunk = max(1, _CHUNK // cum.shape[1])
    for lo in range(0, states.size, chunk):
        s = states[lo:lo + chunk]
        pick = (cum[s] < u[lo:lo + chunk, None]).sum(axis=1)
        out[lo:lo + chunk] = targets[s, pick]
    return out


def _run_coupling(table, pairs_x, pairs_y, step_cap, rng):
    """Coupling times for each (x, y) walker pair; -1 marks a capped trial.

    Each step draws one uniform per live walker, the x walkers first; pairs
    that met drop out at the end of that step.
    """
    k = np.full(pairs_x.size, -1, dtype=np.int64)
    live = pairs_x != pairs_y
    k[~live] = 0
    ids = np.flatnonzero(live)
    walk = np.stack([pairs_x[ids], pairs_y[ids]])
    steps = 0
    while ids.size and steps < step_cap:
        steps += 1
        walk = _step(table, walk.ravel(), rng.random(walk.size)).reshape(2, -1)
        met = walk[0] == walk[1]
        if met.any():
            k[ids[met]] = steps
            ids, walk = ids[~met], walk[:, ~met]
    return k


def estimate_coupling_time(matrix: StochasticMatrix, trials: int = 1000,
                           step_cap: int = 10_000_000, rng=None,
                           pairs=None) -> CouplingEstimate:
    """Monte-Carlo mean of the meeting time of two independent walks.

    Start pairs: the worst of 32 random pairs, plus every pair when the chain
    has at most 40 states (override with `pairs`). Walks move independently
    until they meet. Trials that never couple within step_cap are excluded
    from the mean and reported in `capped`; AllTrialsCapped if none couple.

    Walkers sample from the CSR row cumulatives (`_row_table`): a step costs
    O(w) per live walker and the table O(n w) memory, w the largest
    out-degree. A hub row of degree about n makes that n^2, the cost of a
    dense CDF.
    """
    ergodicity_check(matrix)
    n = matrix.n
    rng = rng or np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    if n == 1:
        return CouplingEstimate(0.0, 0.0, trials, 0, (0, 0))
    table = _row_table(matrix)

    if pairs is None:
        if n <= 40:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        else:
            seen = set()
            while len(seen) < 32:
                i, j = int(rng.integers(n)), int(rng.integers(n))
                if i != j:
                    seen.add((min(i, j), max(i, j)))
            pairs = sorted(seen)
    pairs = list(pairs)

    worst = pairs[0]
    if len(pairs) > 1:
        pilot = max(8, trials // 50)
        px = np.repeat([p[0] for p in pairs], pilot)
        py = np.repeat([p[1] for p in pairs], pilot)
        ks = _run_coupling(table, px, py, step_cap, rng).astype(np.float64)
        ks[ks < 0] = float(step_cap)
        means = ks.reshape(len(pairs), pilot).mean(axis=1)
        worst = pairs[int(np.argmax(means))]

    px = np.full(trials, worst[0], dtype=np.int64)
    py = np.full(trials, worst[1], dtype=np.int64)
    ks = _run_coupling(table, px, py, step_cap, rng)
    coupled = ks[ks >= 0]
    capped = int((ks < 0).sum())
    if coupled.size == 0:
        raise AllTrialsCapped(f"no trial coupled within {step_cap} steps")
    mean = float(coupled.mean())
    stderr = float(coupled.std(ddof=1) / math.sqrt(coupled.size)) if coupled.size > 1 else 0.0
    return CouplingEstimate(mean, stderr, trials, capped, worst)


def expected_absorbing_time(matrix: StochasticMatrix,
                            decomp: SccDecomposition | None = None) -> AbsorbingTimes:
    """Exact expected times to enter the union of closed components.

    Solves (I - Z) h = 1 on the transient block. Also reports per-component
    exit times and their largest sum along a condensation path.
    """
    if decomp is None:
        decomp = scc_decompose(matrix.to_graph())
    if not any(decomp.closed):
        raise StructuralError("graph has no closed component")
    n = matrix.n
    node_h = np.zeros(n)
    transient = decomp.transient_nodes()
    if transient.size:
        z = matrix.minor(transient, transient)
        h = _solve_fundamental(z, np.ones(transient.size))
        node_h[transient] = h

    comp_h: dict[int, float] = {}
    for cid in range(decomp.count):
        if decomp.closed[cid]:
            continue
        comp = decomp.components[cid]
        zc = matrix.minor(comp, comp)
        comp_h[cid] = float(_solve_fundamental(zc, np.ones(comp.size)).max())

    # largest node-weighted path through the condensation (closed nodes weigh 0)
    cond = condensation(decomp)
    best = np.zeros(decomp.count)
    for cid in range(decomp.count):  # successors always carry a smaller id
        succ = cond.successors(cid)
        follow = max((best[int(s)] for s in succ), default=0.0)
        best[cid] = comp_h.get(cid, 0.0) + follow
    longest = float(best.max()) if decomp.count else 0.0

    h_max = float(node_h.max()) if n else 0.0
    return AbsorbingTimes(node_h, h_max, comp_h, longest)


def _solve_fundamental(z: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - Z) x = rhs for a vector or a t x k block of right-hand sides.

    The result has rhs's shape; a singular system marks a misclassified block.
    """
    system = (sp.eye(z.shape[0]) - z).tocsc()
    try:
        x = spla.spsolve(system, rhs)
    except RuntimeError as exc:
        raise StructuralError(f"(I - Z) solve failed: {exc}") from exc
    x = np.asarray(x, dtype=np.float64).reshape(rhs.shape)
    residual = np.abs(system @ x - rhs).max() if rhs.size else 0.0
    if not np.all(np.isfinite(x)) or residual > 1e-6:
        raise StructuralError("(I - Z) is singular; a closed block leaked into Z")
    return x


def theorem_bound(l_g: float, l_t: float, h_g: float, h_t: float,
                  epsilon: float) -> float:
    """Composite convergence-time bound 32 (max L + max H) ln(1/epsilon)."""
    for name, v in (("l_g", l_g), ("l_t", l_t), ("h_g", h_g), ("h_t", h_t)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return 32.0 * (max(l_g, l_t) + max(h_g, h_t)) * math.log(1.0 / epsilon)


def coupling_bound(l: float, h: float, epsilon: float) -> float:
    """Single-graph convergence-time bound 4 (L + H) ln(1/epsilon)."""
    if l < 0 or h < 0:
        raise ValueError("L and H must be non-negative")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return 4.0 * (l + h) * math.log(1.0 / epsilon)


def distance_to_limit_curve(operator: sp.spmatrix, limit: np.ndarray,
                            steps: int) -> np.ndarray:
    """Worst-initial-condition distance to the limit for k = 1..steps.

    The distance at step k is half the largest column L1 deviation of the
    k-th operator power from its limit (initial conditions range over the
    unit simplex, whose extreme points are the operator columns).
    """
    op = sp.csr_matrix(operator)
    n = op.shape[0]
    power = np.eye(n)
    out = np.empty(steps)
    for k in range(steps):
        power = op @ power
        out[k] = 0.5 * np.abs(power - limit).sum(axis=0).max()
    return out


def product_distance_to_limit(left: StochasticMatrix, right: StochasticMatrix,
                              k: int, starts=None, rng=None) -> float:
    """Distance to the limit at step k for the pure product operator L x R.

    Exploits (L x R)^k = L^k x R^k: one column of the product power is the
    Kronecker product of factor columns, so the worst simplex-vertex start is
    scanned without materializing the product. Factors must be ergodic.
    """
    pi_l = stationary(left)
    pi_r = stationary(right)
    lk = np.linalg.matrix_power(left.dense(), int(k))
    rk = np.linalg.matrix_power(right.dense(), int(k))
    n, m = left.n, right.n
    total = n * m
    if starts == "exact" or (starts is None and total <= EXACT_START_LIMIT):
        chosen = np.arange(total)
    else:
        count = SAMPLED_STARTS if starts is None else int(starts)
        rng = rng or np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
        chosen = rng.choice(total, size=min(count, total), replace=False)
    worst = 0.0
    for s in chosen:
        i, u = divmod(int(s), m)
        dev = np.abs(np.outer(lk[:, i], rk[:, u]) - pi_l[i] * pi_r[u]).sum()
        worst = max(worst, 0.5 * float(dev))
    return worst


def analyze_mixing(matrix: StochasticMatrix, epsilon: float = 0.25,
                   trials: int = 300, rng=None,
                   include_curve: bool = False) -> MixingReport:
    """Bundle t_mix, spectral bounds, and a coupling estimate for one chain."""
    report = MixingReport(epsilon=epsilon)
    t = measure_mixing_time(matrix, epsilon, rng=rng, return_curve=include_curve)
    if include_curve:
        report.t_mix, report.d_curve = t
    else:
        report.t_mix = t
    report.lambda2_abs = second_eigenvalue(matrix)
    report.lower_bound, report.upper_bound = eigen_bounds(matrix, epsilon,
                                                          lambda2=report.lambda2_abs)
    report.coupling = estimate_coupling_time(matrix, trials=trials, rng=rng)
    report.absorbing_h = 0.0  # ergodic chain: nothing is transient
    report.theorem_bound = coupling_bound(report.coupling.mean, 0.0, epsilon)
    return report
