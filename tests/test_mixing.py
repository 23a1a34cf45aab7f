import math
import tracemalloc
from fractions import Fraction
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kronmix.beliefs import assemble
from kronmix.errors import FailedToConverge, NotErgodic, TooLarge
from kronmix.generators import TopologySpec, generate, lazify
from kronmix.graphs import DirectedGraph, scc_decompose
from kronmix.kron import kron
from kronmix.limits import limit_matrix
from kronmix import mixing, stochastic
from kronmix.mixing import (coupling_bound, estimate_coupling_time, expected_absorbing_time,
                            measure_mixing_time, product_distance_to_limit,
                            second_eigenvalue, spectral_bounds, system_mixing_time,
                            theorem_bound)
from kronmix.stochastic import StochasticMatrix, equal_weight_matrix, stationary
from oracles import (dense_system_operator, distance_to_limit_curve, mc_absorption_time,
                     pair_chain_coupling, pair_chain_expectations, product_mixing_time)


def lazy_chain(family, n, alpha=0.5, seed=0, **kwargs):
    return equal_weight_matrix(lazify(generate(
        TopologySpec(family, n, seed=seed, **kwargs)), alpha))


def random_ergodic(rng, n):
    raw = rng.random((n, n)) + 0.02
    return StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))


def sparse_ergodic(rng):
    """A lazy random strongly connected digraph's chain: slower than random_ergodic."""
    while True:
        size = int(rng.integers(5, 31))
        edges = [(i, j) for i in range(size) for j in range(size) if rng.random() < 0.15]
        g = lazify(DirectedGraph(size, edges), float(rng.uniform(0.2, 0.6)))
        if scc_decompose(g).count == 1:
            return equal_weight_matrix(g)


def no_eigensolve(matvec, n):
    raise AssertionError(f"eigensolve on {n} states")


def rational_pi(chain):
    """The correctly rounded pi of a lazy walk: degree over total degree, as floats."""
    degree = np.diff(chain.csr.indptr) - (chain.csr.diagonal() > 0)
    return [float(Fraction(int(d), int(degree.sum()))) for d in degree]


def weighted_ring(moved=0.0):
    """A lazy walk on a weighted 7-ring, with `moved` of row 3's mass shifted to (3, 4).

    Reversible when nothing is moved; a moved mass breaks detailed balance on
    that edge only. On a path it would not: every birth-death chain is
    reversible.
    """
    adj = np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 4.0], 1)
    adj[0, 6] = 5.0
    adj += adj.T
    dense = adj + np.diag(adj.sum(axis=1))
    dense /= dense.sum(axis=1, keepdims=True)
    dense[3, 3] -= moved
    dense[3, 4] += moved
    return StochasticMatrix(dense)


def chord_ring(n):
    """A lazy directed n-cycle whose state 0 sends a quarter of its mass to n // 2.

    Neither reversible nor doubly stochastic. pi is 1 on state 0 and on
    n // 2 .. n - 1, and 1/2 on 1 .. n // 2 - 1, over its total.
    """
    dense = 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1)
    dense[0, 1] = dense[0, n // 2] = 0.25
    return StochasticMatrix(dense)


# exact-start t_mix at epsilon 0.25 of lazy (alpha 0.5) chains; a change to
# the scan's arithmetic, stopping rule or start set shows up here
PINNED_T_MIX = {("cycle", 101): 968, ("path", 51): 949, ("star", 51): 2,
                ("hypercube", 1024): 16}


class TestMeasureMixingTime:
    def test_two_state_uniform(self):
        m = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert measure_mixing_time(m, 0.25) == 1

    def test_complete_graph_one_step(self):
        # one-step TV to uniform is 1/n (distribution-evolution oracle)
        for n in (5, 8, 12):
            m = equal_weight_matrix(generate(TopologySpec("complete", n)))
            pi = stationary(m)
            one_step = 0.5 * np.abs(m.dense()[0] - pi).sum()
            assert one_step == pytest.approx(1.0 / n, abs=1e-12)
            assert measure_mixing_time(m, 0.25) == 1

    def test_periodic_rejected(self):
        m = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NotErgodic):
            measure_mixing_time(m, 0.25)

    def test_single_state(self):
        assert measure_mixing_time(StochasticMatrix(np.eye(1)), 0.25) == 0

    def test_curve_non_increasing(self):
        # the worst-start distance (oracle curve) never rises up to t_mix,
        # the first step at which it reaches epsilon
        m = lazy_chain("path", 9)
        k = measure_mixing_time(m, 0.01)
        curve = distance_to_limit_curve(m.csr.T, stationary(m)[:, None], k)
        assert np.all(np.diff(curve) <= 1e-12) and curve[-1] <= 0.01 < curve[-2]

    @pytest.mark.parametrize("case", sorted(PINNED_T_MIX))
    def test_pinned_values(self, case):
        assert measure_mixing_time(lazy_chain(*case), 0.25) == PINNED_T_MIX[case]

    def test_pinned_product_value(self):
        # the mixing-report product: 1056 states, still every start
        prod = kron(lazy_chain("hypercube", 32), lazy_chain("cycle", 33))
        assert measure_mixing_time(prod, 0.25) == 103

    def test_above_the_cap_is_too_large(self, monkeypatch):
        # every start or a typed error, before any stationary solve
        chain = lazy_chain("cycle", 2001)
        monkeypatch.setattr(stochastic, "_dominant_eigenpair", no_eigensolve)
        with pytest.raises(TooLarge, match="every start of 2001 states; the cap is 2000$"):
            measure_mixing_time(chain, 0.25)

    def test_cap_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(mixing, "EXACT_START_LIMIT", 10)
        with pytest.raises(TooLarge, match="every start of 12 states; the cap is 10$"):
            measure_mixing_time(lazy_chain("cycle", 12), 0.25)

    def test_mixed_at_start_is_zero(self):
        for m, eps in ((StochasticMatrix(np.eye(1)), 0.25),
                       (StochasticMatrix(np.full((2, 2), 0.5)), 0.6)):
            assert measure_mixing_time(m, eps) == 0

    def test_step_cap_is_failed_to_converge(self):
        with pytest.raises(FailedToConverge):
            measure_mixing_time(lazy_chain("path", 9), 0.01, max_steps=3)

    @pytest.mark.parametrize("kwargs", [{"epsilon": 0.0}, {"epsilon": 1.0},
                                        {"epsilon": -0.5}, {"max_steps": -1},
                                        {"max_steps": 2.5}, {"max_steps": 3.0}])
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            measure_mixing_time(lazy_chain("path", 9), **kwargs)


def sparse_random_chain(rng, n, extra):
    """Random weights on a self-loop, the next state of a cycle and `extra` random states."""
    src = np.repeat(np.arange(n), extra + 2)
    dst = np.concatenate([np.arange(n)[:, None], (np.arange(n)[:, None] + 1) % n,
                          rng.integers(0, n, (n, extra))], axis=1).ravel()
    w = sp.csr_matrix((rng.random(src.size) + 0.1, (src, dst)), shape=(n, n))
    return StochasticMatrix(sp.diags(1.0 / np.asarray(w.sum(axis=1)).ravel()) @ w)


def sparse_switch(m):
    """n^2 / (16 nnz) rounded up: the sparse block steps that one dense product costs."""
    return -(-m.n * m.n // (16 * m.nnz))


def oracle_crossing(m, epsilon, steps):
    """First step at which the oracle curve is within epsilon, and its margin there."""
    curve = distance_to_limit_curve(m.csr.T, stationary(m)[:, None], steps)
    t = 1 + int(np.argmax(curve <= epsilon))
    if curve[t - 1] > epsilon:
        return None, 0.0
    above = curve[t - 2] - epsilon if t >= 2 else math.inf
    return t, min(epsilon - curve[t - 1], above)


def record_search(monkeypatch):
    """The full n x n reads of `measure_mixing_time` (their distances) and the
    sizes of the dense products it forms (`np.matmul`), as they happen."""
    reads, products = [], []
    worst, matmul = mixing._worst_column, np.matmul

    def read(block, target):
        found = worst(block, target)
        reads.append(found[0])
        return found

    def product(a, b, **kwargs):
        products.append(a.shape[0])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(mixing, "_worst_column", read)
    monkeypatch.setattr(np, "matmul", product)
    return reads, products


class TestSquaringScan:
    def test_matches_oracle_on_both_sides_of_the_switch(self):
        # large sparse chains mix in fewer steps than one dense product costs,
        # small ones in more
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(15)))
        sides, skipped = [0, 0], 0
        for i in range(8):
            n = int(rng.integers(40, 300) if i % 2 else rng.integers(600, 1100))
            m = sparse_random_chain(rng, n, int(rng.integers(1, 4)))
            for eps in (0.25, 1 / 16):
                t = measure_mixing_time(m, eps)
                want, margin = oracle_crossing(m, eps, t + 1)
                if margin <= 1e-12:
                    skipped += 1
                    continue
                assert t == want
                sides[t > sparse_switch(m)] += 1
        assert skipped == 0, f"{skipped} cases within 1e-12 of epsilon"
        assert min(sides) >= 3, sides

    @pytest.mark.parametrize("family, n", [("cycle", 40), ("cycle", 144)])
    def test_crossings_at_power_boundaries(self, family, n):
        # epsilon halfway between d(t - 1) and d(t) puts t_mix at t; t = s 2^j,
        # s 2^j + 1 and 3 s 2^(j-1), s the price of a dense product, put the
        # crossing on, just past and between squarings of s-step blocks
        m = lazy_chain(family, n)
        s = sparse_switch(m)
        curve = distance_to_limit_curve(m.csr.T, stationary(m)[:, None], 3 * s * 64 + 1)
        for j in range(1, 8):
            for t in (s * 2 ** j, s * 2 ** j + 1, 3 * s * 2 ** (j - 1)):
                eps = 0.5 * (curve[t - 2] + curve[t - 1])
                assert min(curve[t - 2] - eps, eps - curve[t - 1]) > 1e-12
                assert measure_mixing_time(m, eps) == t
                assert measure_mixing_time(m, eps, max_steps=t) == t
                with pytest.raises(FailedToConverge, match=f"after {t - 1} steps"):
                    measure_mixing_time(m, eps, max_steps=t - 1)

    @pytest.mark.parametrize("family, n, kwargs, t", [("hypercube", 1024, {}, 16),
                                                      ("erdos-renyi", 2000, {"p": 0.01}, 8)])
    def test_candidate_block_built_once(self, monkeypatch, family, n, kwargs, t):
        # the tracked column alone proves d(t - 1) > eps, so the one n x n block
        # is the one read at t, made with the squarings `_power_plan` prices:
        # one after 8 sparse steps on the hypercube, none on the random graph,
        # where a square would cost more than the 4 steps it saves
        m = lazy_chain(family, n, **kwargs)
        stationary(m)
        reads, products = record_search(monkeypatch)
        assert measure_mixing_time(m, 0.25) == t
        price = n * n / (16 * m.nnz)
        assert len(reads) == 1 and reads[0] <= 0.25
        assert products == [n] * mixing._power_plan(t, price)[1]

    def test_read_finds_a_worse_start(self, monkeypatch):
        # the state of least pi is not the worst start of these chains: the
        # read at its crossing finds another start still above epsilon, and
        # the search pursues that one from there
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(29)))
        reads, _ = record_search(monkeypatch)
        resumed, skipped = 0, 0
        for _ in range(6):
            m = sparse_random_chain(rng, int(rng.integers(30, 120)), int(rng.integers(1, 3)))
            for eps in (0.5, 0.25, 1 / 16, 0.01):
                reads.clear()
                t = measure_mixing_time(m, eps)
                want, margin = oracle_crossing(m, eps, t + 1)
                if margin <= 1e-12:
                    skipped += 1
                    continue
                assert t == want and reads[-1] <= eps < min(reads[:-1], default=1.0)
                assert len(reads) <= 3, reads
                resumed += len(reads) > 1
        assert skipped == 0, f"{skipped} cases within 1e-12 of epsilon"
        assert resumed >= 12, resumed

    def test_crossings_at_gallop_boundaries(self):
        # after `patience` sparse steps the tracked column gallops: it tests
        # p 2^j, lifts through halves and quarters, and a step cap stops it
        # anywhere on the way
        m = lazy_chain("cycle", 144)
        p = mixing._WorstStartSearch(m, 0.25, 0).patience
        assert 1 < p < 200
        curve = distance_to_limit_curve(m.csr.T, stationary(m)[:, None], 24 * p + 1)
        for j in range(1, 5):
            for t in (p * 2 ** j - 1, p * 2 ** j, p * 2 ** j + 1, 3 * p * 2 ** (j - 1)):
                eps = 0.5 * (curve[t - 2] + curve[t - 1])
                assert min(curve[t - 2] - eps, eps - curve[t - 1]) > 1e-12
                assert measure_mixing_time(m, eps) == t
                assert measure_mixing_time(m, eps, max_steps=t) == t
                with pytest.raises(FailedToConverge, match=f"after {t - 1} steps"):
                    measure_mixing_time(m, eps, max_steps=t - 1)

    def test_power_plan_is_the_cheapest(self):
        # against every mix of sparse steps and squarings from P', by dynamic
        # programming: cost[k] = min(cost[k - 1] + 1, cost[k / 2] + price)
        for price in (0.24, 1.0, 5.8, 21.3):
            cost = [0.0, 0.0]
            for k in range(2, 600):
                cost.append(min(cost[k - 1] + 1, cost[k // 2] + price if k % 2 == 0 else math.inf))
            for t in range(1, 600):
                assert mixing._power_plan(t, price)[0] == pytest.approx(cost[t], abs=1e-9)
        assert mixing._power_plan(0, 5.0) == (0.0, 0)

    def test_peak_memory_three_blocks(self):
        # a lazy 600-cycle at eps 0.75 steps its tracked column to 1884 and
        # builds the block there once: (P')^14 by sparse steps, then 7
        # squarings with 4 more steps between them. A squaring's two blocks
        # and a step's new one are alive at most
        m = lazy_chain("cycle", 600)
        tracemalloc.start()
        try:
            assert measure_mixing_time(m, 0.75) == 1884
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * m.n ** 2 * 8

    @pytest.mark.parametrize("width", [1, 2, mixing._GAP_CHUNK, mixing._GAP_CHUNK + 1,
                                       mixing._GAP_CHUNK + 2, 2 * mixing._GAP_CHUNK + 1])
    def test_chunked_gap_bit_identical(self, width):
        # numpy sums one column pairwise and wider blocks row by row; the last
        # column, the one a remainder chunk would hold, has the largest gap
        rng = np.random.default_rng(width)
        cur = rng.random((1000, width)) * rng.choice([1e-9, 1.0, 1e3], (1000, width))
        cur[:, -1] += 1e3
        # Kronecker columns left[:, j] (x) right[:, j], against the whole block
        left = rng.random((40, width)) * rng.choice([1e-9, 1.0, 1e3], (40, width))
        right = rng.random((25, width))
        left[:, -1] += 1e3
        block = (left[:, None, :] * right[None, :, :]).reshape(1000, width)
        for target in (rng.random((1000, 1)), rng.random((1000, width))):
            want = 0.5 * np.abs(cur - target).sum(axis=0).max()
            assert mixing._column_gap(cur, target) == want
            want = 0.5 * np.abs(block - target).sum(axis=0).max()
            assert mixing._column_gap(left, target, right) == want
        cur[0, 0] = np.nan  # never within epsilon, so a scan cannot stop on it
        assert math.isnan(mixing._column_gap(cur, target))


class TestMarginalGap:
    """The factor-marginal screen of `system_mixing_time` against the Kronecker gap."""

    @pytest.mark.parametrize("width", [1, 130])
    @pytest.mark.parametrize("signed", [False, True])
    def test_never_exceeds_the_gap(self, width, signed):
        rng = np.random.default_rng(width + signed)
        n, m = 9, 7
        for scale in (0.3, 1.0, 4.0):  # column sums other than 1
            left = scale * rng.random((n, width)) - (0.5 * scale if signed else 0.0)
            right = rng.random((m, width)) - (0.5 if signed else 0.0)
            for target in (rng.random((n * m, width)) * scale, rng.random((n * m, 1))):
                for j in range(width):  # column by column, not only the worst
                    goal = target if target.shape[1] == 1 else target[:, [j]]
                    a, c = left[:, [j]], right[:, [j]]
                    bound = mixing._marginal_gap(np.vstack([a, c]), n,
                                                 mixing._marginals(goal, n, m))
                    assert bound <= mixing._column_gap(a, goal, c)
                bound = mixing._marginal_gap(np.vstack([left, right]), n,
                                             mixing._marginals(target, n, m))
                assert 0 < bound <= mixing._column_gap(left, target, right)

    def test_same_marginals_not_a_product(self):
        # T has the marginals of a (x) c but is not a product: the bound is 0
        # and cannot settle a step, while the gap is 0.5
        left, right = np.full((2, 1), 0.5), np.full((2, 1), 0.5)
        target = np.array([[0.5], [0.0], [0.0], [0.5]])
        assert mixing._marginal_gap(np.vstack([left, right]), 2,
                                    mixing._marginals(target, 2, 2)) == 0.0
        assert mixing._column_gap(left, target, right) == 0.5

    def test_scan_where_the_bound_cannot_decide(self, monkeypatch):
        # lazy 4-cycle x lazy 4-cycle, lambda 1: at step 2 the bound is 0.125
        # and the gap 0.203, so the Kronecker gap settles eps = 0.2
        cycle = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 4)), 0.5))
        system = assemble(cycle, cycle, np.ones(4), np.full((4, 4), 0.5))
        screened, real = [], mixing._marginal_gap

        def recording(*args):
            screened.append(real(*args))
            return screened[-1]

        monkeypatch.setattr(mixing, "_marginal_gap", recording)
        t = system_mixing_time(system, 0.2)
        op = dense_system_operator(cycle.dense(), cycle.dense(), system.lam)
        limit = limit_matrix(system)
        curve = np.r_[0.5 * np.abs(np.eye(system.dim) - limit).sum(axis=0).max(),
                      distance_to_limit_curve(op, limit, t)]
        assert t == 3 and np.all(curve[:t] > 0.2) and curve[t] <= 0.2
        assert screened[2] <= 0.2 < curve[2]

    def test_nan_takes_the_gap(self):
        # a NaN screen settles nothing: every step takes the gap, which is NaN
        block = np.full((5, 2), 0.5)  # a 3 x 2 factor block over a 2 x 2 one
        block[1, 1] = np.nan
        target = np.full((6, 2), 1 / 6)
        marginals = mixing._marginals(target, 3, 2)
        assert math.isnan(mixing._marginal_gap(block, 3, marginals))
        gaps = []

        def gap(state):
            gaps.append(mixing._column_gap(state[:3], target, state[3:]))
            return gaps[-1]

        with pytest.raises(FailedToConverge, match="still nan after 3 steps"):
            mixing._first_within(lambda state: state, block, gap, 0.25, 3,
                                 screen=lambda state: mixing._marginal_gap(state, 3, marginals))
        assert len(gaps) == 4 and all(math.isnan(g) for g in gaps)


class TestStartRows:
    def test_default_stream_is_seed_three(self):
        for dim in (257, 2020):
            want = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(3))).choice(dim, 64, replace=False)
            np.testing.assert_array_equal(mixing._start_rows(dim, exact_limit=256), want)

    def test_exact_up_to_the_limit(self):
        np.testing.assert_array_equal(
            mixing._start_rows(256, exact_limit=256), np.arange(256))
        np.testing.assert_array_equal(mixing._start_rows(2000, exact_limit=2000),
                                      np.arange(2000))


class TestEigenBounds:
    def test_rank_one_chain(self):
        m = StochasticMatrix(np.tile([0.3, 0.2, 0.5], (3, 1)))
        assert second_eigenvalue(m) == pytest.approx(0.0, abs=1e-9)
        lower, upper = spectral_bounds(second_eigenvalue(m), m.n, 0.25)
        assert lower == pytest.approx(0.0, abs=1e-9)
        assert upper == pytest.approx((math.log(3) + math.log(4)), rel=1e-6)

    def test_symmetric_two_state(self):
        m = StochasticMatrix(np.array([[0.75, 0.25], [0.25, 0.75]]))
        lam = second_eigenvalue(m)
        assert lam == pytest.approx(0.5, abs=1e-8)  # 2x2 eigen oracle: 1 - 2*0.25
        lower, _ = spectral_bounds(lam, m.n, 0.25)
        assert lower == pytest.approx(0.5 * math.log(2), rel=1e-6)

    @pytest.mark.parametrize("lam", [1.0, 1.5])
    def test_unit_modulus_gives_no_bound(self, lam):
        with pytest.raises(FailedToConverge, match=">= 1"):
            spectral_bounds(lam, 10, 0.25)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 10, 0.25), "lambda2"), ((-0.5, 10, 0.25), "lambda2"),
        ((0.5, 10, 0.0), "epsilon"), ((0.5, 10, 1.0), "epsilon"),
        ((0.5, 10, -0.25), "epsilon"), ((0.5, 10, math.nan), "epsilon"),
        ((0.5, 0, 0.25), "states"), ((0.5, -3, 0.25), "states")])
    def test_bad_arguments_rejected(self, args, name):
        with pytest.raises(ValueError, match=name):
            spectral_bounds(*args)

    def test_lower_bound_is_zero_above_half_epsilon(self):
        # ln(1 / (2 eps)) < 0 above eps 1/2: the lower bound is the trivial 0
        lower, upper = spectral_bounds(0.5, 10, 0.9)
        assert lower == 0.0
        assert upper == pytest.approx(2 * (math.log(10) + math.log(1 / 0.9)), rel=1e-15)

    def test_negative_eigenvalue_modulus(self):
        # odd cycle: dominant non-unit eigenvalue is negative, |.| = cos(pi/n)
        m = equal_weight_matrix(generate(TopologySpec("cycle", 9)))
        assert second_eigenvalue(m) == pytest.approx(math.cos(math.pi / 9), abs=1e-7)

    def test_complex_dominant_pairs_against_dense_oracle(self):
        # dense-ish directed chains often carry complex conjugate dominant pairs
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(5, 25))
            raw = rng.random((n, n)) * (rng.random((n, n)) < 0.6) + 0.01
            m = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
            want = np.sort(np.abs(np.linalg.eigvals(m.dense())))[-2]
            assert second_eigenvalue(m) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("n", [101, 1001])
    def test_lazy_cycle_gap_closed_form(self, n):
        gap = 1.0 - second_eigenvalue(lazy_chain("cycle", n))
        exact = (1.0 - math.cos(2.0 * math.pi / n)) / 2.0
        assert gap == pytest.approx(exact, rel=1e-8)

    def test_lazy_hypercube_closed_form(self):
        # lazy walk on the 10-cube: eigenvalues 1 - k/10, so |lambda_2| = 0.9
        assert second_eigenvalue(lazy_chain("hypercube", 1024)) == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("n", [50, 150, 200])
    def test_lazy_eulerian_ring_right_or_failed_to_converge(self, n):
        # a lazy directed circulant with jumps 1..3 is not reversible; its
        # eigenvalues are 1/2 + (w + w^2 + w^3) / 6 over the n-th roots of
        # unity w. ARPACK may find no eigenvalue near 1 (n = 200), but it must
        # not return one that is not the largest
        w = np.exp(2j * np.pi * np.arange(1, n) / n)
        exact = float(np.abs(0.5 + (w + w ** 2 + w ** 3) / 6).max())
        try:
            got = second_eigenvalue(lazy_chain("eulerian-ring", n, k=3, directed=True))
        except FailedToConverge:
            return
        assert got == pytest.approx(exact, abs=1e-12)

    def test_arpack_cap_is_failed_to_converge(self, monkeypatch):
        # a lazy directed cycle is not reversible, so |lambda_2| takes ARPACK
        # (its uniform pi takes none)
        def capped(*args, **kwargs):
            raise spla.ArpackNoConvergence("cap", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigs", capped)
        with pytest.raises(FailedToConverge):
            second_eigenvalue(lazy_chain("cycle", 11, directed=True))

    @pytest.mark.parametrize("family, n, want", [
        ("cycle", 101, 0.5 + 0.5 * math.cos(2 * math.pi / 101)),
        ("hypercube", 128, 1 - 1 / 7),
        ("path", 200, 0.5 + 0.5 * math.cos(math.pi / 199))])
    def test_dense_route_closed_forms(self, family, n, want, monkeypatch):
        # reversible chains up to DENSE_EIGEN_LIMIT states take one symmetric
        # eigensolve and no ARPACK call. The walk on the d-cube has
        # eigenvalues 1 - 2k/d, on the n-path cos(pi k / (n - 1)); lazy, half
        # of one plus those
        for module in (stochastic, mixing):
            monkeypatch.setattr(module, "_dominant_eigenpair", no_eigensolve)
        assert second_eigenvalue(lazy_chain(family, n)) == pytest.approx(want, abs=1e-12)

    def test_dense_route_ends_at_its_limit(self, monkeypatch):
        # a reversible chain above DENSE_EIGEN_LIMIT states takes ARPACK
        calls, real = [], mixing._dominant_eigenpair

        def counting(matvec, n):
            calls.append(n)
            return real(matvec, n)

        monkeypatch.setattr(mixing, "_dominant_eigenpair", counting)
        monkeypatch.setattr(mixing, "DENSE_EIGEN_LIMIT", 100)
        got = second_eigenvalue(lazy_chain("cycle", 101))
        assert calls == [101]
        assert got == pytest.approx(0.5 + 0.5 * math.cos(2 * math.pi / 101), abs=1e-12)

    def test_bit_identical_in_thread_pool(self):
        rng = np.random.default_rng(21)
        chains = [lazy_chain(f, n) for f in ("cycle", "path", "lollipop", "star")
                  for n in (3, 9, 40)]
        chains += [random_ergodic(rng, n) for n in (1, 2, 17, 58)]

        def both(m):
            return stationary(m), second_eigenvalue(m)

        serial = [[both(m) for m in chains] for _ in range(2)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            pooled = [list(pool.map(both, chains)) for _ in range(3)]
        for run in serial[1:] + pooled:
            for (pi, lam), (want_pi, want_lam) in zip(run, serial[0]):
                assert np.array_equal(pi, want_pi) and lam == want_lam

    def test_tmix_within_bounds_on_families(self):
        chains = [lazy_chain("path", 17), lazy_chain("star", 25),
                  lazy_chain("complete", 20), lazy_chain("path", 101),
                  equal_weight_matrix(generate(TopologySpec("cycle", 15))),
                  equal_weight_matrix(generate(TopologySpec("cycle", 101)))]
        for m in chains:
            t = measure_mixing_time(m, 0.25, max_steps=100_000)
            lower, upper = spectral_bounds(second_eigenvalue(m), m.n, 0.25)
            assert lower <= t <= upper


class TestCoupling:
    def test_single_state_zero(self):
        est = estimate_coupling_time(StochasticMatrix(np.eye(1)), trials=50)
        assert est.mean == 0.0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        m = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="trials"):
            estimate_coupling_time(m, trials=trials)

    def test_two_state_geometric(self):
        # independent uniform walks meet with probability 1/2 each step: E[K] = 2
        est = estimate_coupling_time(StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])))
        assert abs(est.mean - 2.0) <= est.stderr
        assert est.capped == est.trials == 0
        assert est.start_pair == (0, 1)

    def test_against_pair_chain_oracle(self):
        # dense chains and lazy random digraphs (directed, not reversible) take
        # BiCGSTAB; a star, reversible with a non-uniform pi, takes CG
        rng = np.random.default_rng(11)
        chains = [random_ergodic(rng, int(n)) for n in (3, 8, 23, 40)]
        chains += [sparse_ergodic(rng) for _ in range(4)] + [lazy_chain("star", 30)]
        for m, method in zip(chains, ["bicgstab"] * 8 + ["cg"]):
            exact = pair_chain_expectations(m.dense())
            est = estimate_coupling_time(m)
            assert abs(est.mean - max(exact.values())) <= est.stderr
            assert est.stderr < 1e-8 * est.mean
            assert est.method == method

    def test_chosen_pair_matches_oracle(self):
        rng = np.random.default_rng(12)
        for m in (random_ergodic(rng, 5), sparse_ergodic(rng), lazy_chain("cycle", 9)):
            exact = pair_chain_expectations(m.dense())
            est = estimate_coupling_time(m)
            i, j = est.start_pair
            assert i < j
            # the pair attains the maximum up to the error of the computed values
            assert exact[(i, j)] >= max(exact.values()) - 2 * est.stderr


def _fraction_worst_meeting_time(p):
    """Worst-pair E[K] of the chain p (Fractions) by Gaussian elimination."""
    n = len(p)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: k for k, pair in enumerate(pairs)}
    rows = []
    for i, j in pairs:
        row = [Fraction(0)] * len(pairs) + [Fraction(1)]
        row[index[(i, j)]] += 1
        for k in range(n):
            for l in range(n):
                if k != l:
                    row[index[(min(k, l), max(k, l))]] -= p[i][k] * p[j][l]
        rows.append(row)
    for c in range(len(pairs)):
        pivot = next(r for r in range(c, len(rows)) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(len(rows)):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return max(rows[k][-1] / rows[k][k] for k in range(len(pairs)))


# rational chains: lazy and not, reversible and not, with and without self-loops
FRACTION_CHAINS = [
    [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]],
    # a directed 3-cycle with one chord: no self-loops, cycles of length 2 and 3
    [[0, Fraction(1, 3), Fraction(2, 3)], [0, 0, 1], [1, 0, 0]],
    [[Fraction(1, 4), Fraction(3, 4), 0, 0], [0, Fraction(1, 2), Fraction(1, 2), 0],
     [0, 0, Fraction(1, 5), Fraction(4, 5)], [Fraction(1, 7), 0, Fraction(2, 7), Fraction(4, 7)]],
    # a directed 5-cycle with a chord 4 -> 1, no self-loops
    [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
     [Fraction(1, 2), Fraction(1, 2), 0, 0, 0]],
    [[Fraction(1, 10), Fraction(3, 10), Fraction(1, 5), Fraction(2, 5), 0],
     [Fraction(1, 6), 0, Fraction(1, 2), 0, Fraction(1, 3)],
     [0, Fraction(2, 9), Fraction(1, 3), Fraction(4, 9), 0],
     [Fraction(1, 8), Fraction(1, 8), 0, Fraction(3, 8), Fraction(3, 8)],
     [Fraction(1, 2), 0, 0, Fraction(1, 4), Fraction(1, 4)]],
    # walks on weighted undirected graphs, P_ij = w_ij / W_i: reversible with
    # pi proportional to W. A lazy star with leaf weights 1, 2, 3: pi ~ (12, 2, 4, 6)
    [[Fraction(1, 2), Fraction(1, 12), Fraction(1, 6), Fraction(1, 4)],
     [Fraction(1, 2), Fraction(1, 2), 0, 0], [Fraction(1, 2), 0, Fraction(1, 2), 0],
     [Fraction(1, 2), 0, 0, Fraction(1, 2)]],
    # a path with edge weights 1..4 and self-loops 1, 1, 2, 1, 3: pi ~ (2, 4, 7, 8, 7)
    [[Fraction(1, 2), Fraction(1, 2), 0, 0, 0],
     [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), 0, 0],
     [0, Fraction(2, 7), Fraction(2, 7), Fraction(3, 7), 0],
     [0, 0, Fraction(3, 8), Fraction(1, 8), Fraction(1, 2)],
     [0, 0, 0, Fraction(4, 7), Fraction(3, 7)]],
    # a weighted triangle 0-1-2 with a pendant 3 and no self-loops: detailed
    # balance on an edge off every breadth-first tree, pi ~ (4, 3, 6, 1)
    [[0, Fraction(1, 4), Fraction(3, 4), 0], [Fraction(1, 3), 0, Fraction(2, 3), 0],
     [Fraction(1, 2), Fraction(1, 3), 0, Fraction(1, 6)], [0, 0, 1, 0]],
]
# the solver each chain takes: every 2-state chain is reversible
FRACTION_METHODS = ["cg", "bicgstab", "bicgstab", "bicgstab", "bicgstab", "cg", "cg", "cg"]


class TestCouplingExact:
    @pytest.mark.parametrize("chain", range(len(FRACTION_CHAINS)))
    def test_within_bound_of_fraction_oracle(self, chain):
        dense = np.array([[float(v) for v in row] for row in FRACTION_CHAINS[chain]])
        est = estimate_coupling_time(StochasticMatrix(dense))
        # the oracle solves the float chain: every float is a Fraction exactly
        exact = _fraction_worst_meeting_time(
            [[Fraction(float(v)) for v in row] for row in dense])
        assert abs(Fraction(est.mean) - exact) <= Fraction(est.stderr)
        assert est.stderr > 0
        assert est.method == FRACTION_METHODS[chain]

    def test_lazy_10_cube_matches_hamming_chain(self):
        k = 10
        est = estimate_coupling_time(lazy_chain("hypercube", 2 ** k))
        # the xor of the two walks moves by no flip (both stay, 1/4), one flip
        # (one moves, 1/2) or two independent flips (both move, 1/4); its
        # Hamming weight d is a chain on 0..k, and the walks meet at d = 0
        flip = np.zeros((k + 1, k + 1))
        for d in range(k + 1):
            if d > 0:
                flip[d, d - 1] = d / k
            if d < k:
                flip[d, d + 1] = (k - d) / k
        step = 0.25 * np.eye(k + 1) + 0.5 * flip + 0.25 * flip @ flip
        h = np.linalg.solve(np.eye(k) - step[1:, 1:], np.ones(k))
        assert abs(est.mean - h.max()) <= est.stderr
        x, y = est.start_pair
        assert abs(h[bin(x ^ y).count("1") - 1] - h.max()) <= 2 * est.stderr
        assert est.method == "cg" and est.iterations < 20

    # a uniform pi and a non-uniform one, whose CG keeps a pair weight vector
    @pytest.mark.parametrize("family", ["hypercube", "star"])
    def test_peak_memory_within_four_n_squared_floats(self, family):
        m = lazy_chain(family, 512)
        tracemalloc.start()
        try:
            estimate_coupling_time(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 512 ** 2 * 8

    def test_direct_fallback_matches_oracle(self, monkeypatch):
        monkeypatch.setattr(mixing, "_KRYLOV_ITERATIONS", 0)
        rng = np.random.default_rng(21)
        for m in (random_ergodic(rng, 6), sparse_ergodic(rng), lazy_chain("star", 12)):
            est = estimate_coupling_time(m)
            assert (est.method, est.iterations) == ("direct", 0)
            assert abs(est.mean - pair_chain_coupling(m.dense())) <= est.stderr
            assert est.stderr > 0

    @pytest.mark.parametrize("n", [34, 100])
    def test_fallback_where_bicgstab_breaks_down(self, n):
        # BiCGSTAB breaks down on lazy directed cycles (71 and 296 iterations).
        # The walks' difference steps +1 and -1 with probability a(1 - a)
        # each, so the worst pair, n/2 apart, meets after n^2 / (8 a (1 - a))
        alpha = 0.1
        est = estimate_coupling_time(lazy_chain("cycle", n, alpha=alpha, directed=True))
        assert est.method == "direct" and est.iterations > 0
        assert abs(est.mean - n * n / (8 * alpha * (1 - alpha))) <= est.stderr

    @pytest.mark.parametrize("n", [80, 100])
    def test_lazy_directed_ring_where_arpack_fails(self, n):
        # ARPACK finds no Perron vector of a lazy directed n-cycle from n = 80;
        # a doubly stochastic chain takes the uniform pi without it
        ring = lazy_chain("cycle", n, directed=True)
        with pytest.raises(FailedToConverge):
            stochastic._dominant_eigenpair(ring.csr.T.dot, n)
        assert np.abs(stationary(ring) - 1.0 / n).max() <= 1e-13
        curve = distance_to_limit_curve(ring.dense().T, np.full((n, 1), 1.0 / n), 2000)
        t = measure_mixing_time(ring, 0.25)
        assert t == 1 + int(np.argmax(curve <= 0.25)) and curve[t - 2] > 0.25
        assert n < 100 or t == 1898
        est = estimate_coupling_time(ring)
        assert abs(est.mean - n * n / 2) <= est.stderr  # n^2 / (8 a (1 - a)) at a = 1/2

    @pytest.mark.parametrize("family, n, kwargs", [
        ("cycle", 100, {}), ("cycle", 600, {}), ("cycle", 1000, {}),
        ("eulerian-ring", 300, {"k": 3})])
    def test_doubly_stochastic_chain_takes_uniform_pi(self, family, n, kwargs, monkeypatch):
        # no ARPACK call, which fails on all four (after 0.35-4.7 s on the cycles)
        monkeypatch.setattr(stochastic, "_dominant_eigenpair", no_eigensolve)
        ring = lazy_chain(family, n, directed=True, **kwargs)
        assert np.abs(stationary(ring) - 1.0 / n).max() <= 1e-15

    def test_dense_stationary_fallback(self):
        # the chord ring is neither reversible nor doubly stochastic, and
        # ARPACK fails on it: the dense solve gives its closed-form pi
        ring = chord_ring(200)
        with pytest.raises(FailedToConverge):
            stochastic._dominant_eigenpair(ring.csr.T.dot, 200)
        want = np.r_[1.0, np.full(99, 0.5), np.ones(100)] / 150.5
        assert np.abs(stationary(ring) - want).max() <= 1e-15

    def test_dense_stationary_fallback_capped(self, monkeypatch):
        monkeypatch.setattr(stochastic, "DENSE_STATIONARY_LIMIT", 199)
        with pytest.raises(FailedToConverge, match="ARPACK"):
            stationary(chord_ring(200))

    def test_chain_off_balance_takes_arpack(self, monkeypatch):
        # 1e-11 of one row moved keeps every edge balanced within
        # _BALANCE_TOL (8e-11 relative), but leaves the balance pi a residual
        # of 2e-12, far above its rounding bound of 1.8e-14: pi and
        # |lambda_2| come from ARPACK, and coupling from BiCGSTAB
        calls, real = [], stochastic._dominant_eigenpair

        def counting(matvec, n):
            calls.append(n)
            return real(matvec, n)

        for module in (stochastic, mixing):
            monkeypatch.setattr(module, "_dominant_eigenpair", counting)
        m = weighted_ring(1e-11)
        assert stochastic._detailed_balance(weighted_ring()) is not None
        assert stochastic._detailed_balance(m) is None
        pi = stationary(m)
        second_eigenvalue(m)
        assert calls == [7, 7]
        assert np.abs(m.csr.T @ pi - pi).sum() <= 1e-15
        assert estimate_coupling_time(m).method == "bicgstab"

    def test_one_perturbed_edge_takes_bicgstab(self):
        # moving 0.01 of one row's mass from its self-loop to one edge breaks
        # detailed balance on that edge only
        assert estimate_coupling_time(weighted_ring()).method == "cg"
        m = weighted_ring(0.01)
        est = estimate_coupling_time(m)
        assert est.method == "bicgstab"
        assert abs(est.mean - pair_chain_coupling(m.dense())) <= est.stderr

    def test_pi_beyond_the_float_range_takes_bicgstab(self):
        # a lazy path that steps right 4999 times as often as left is
        # reversible, but pi_i / pi_(i+1) = 1 / 4999: over 44 states pair
        # weights pi_i pi_j span more than the float range
        n, left = 44, 1e-4
        dense = 0.5 * np.eye(n) + np.diag(np.full(n - 1, 0.5 - left), 1) \
            + np.diag(np.full(n - 1, left), -1)
        dense[0, 0] += left
        dense[-1, -1] += 0.5 - left
        est = estimate_coupling_time(StochasticMatrix(dense))
        assert est.method == "bicgstab"
        assert abs(est.mean - pair_chain_coupling(dense)) <= est.stderr

    def test_no_eigensolve(self, monkeypatch):
        # the reversibility test needs no pi from ARPACK, on either route
        monkeypatch.setattr(stochastic, "_dominant_eigenpair", no_eigensolve)
        monkeypatch.setattr(mixing, "_dominant_eigenpair", no_eigensolve)
        assert estimate_coupling_time(lazy_chain("lollipop", 20)).method == "cg"
        cycle = lazy_chain("cycle", 34, alpha=0.1, directed=True)
        assert estimate_coupling_time(cycle).method == "direct"

    @pytest.mark.parametrize("n", [5, 40, 130, 200])
    def test_pair_operator_matches_dense_product(self, n):
        # one chunk up to _PAIR_CHUNK (128) states (n = 5, 40), chunks of 32
        # rows above, with a short last chunk (130, 200); rows of uneven
        # length, so each chunk's rows of P start elsewhere
        rng = np.random.default_rng(n)
        raw = rng.random((n, n)) * (rng.random((n, n)) < 0.2) + 0.1 * np.eye(n)
        m = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
        op = mixing._PairOperator(m)
        assert len(op.chunks) == (1 if n <= 128 else -(-n // 32))
        x = rng.random(op.offsets[-1]) + 0.5
        upper = np.triu_indices(n, 1)
        v = np.zeros((n, n))
        v[upper] = x
        v += v.T
        p = m.dense()
        want = x - (p @ v @ p.T)[upper]
        got = op(x, np.empty_like(x))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        # every row block reads P's own arrays: none is a copy
        for _, _, rows, tail in op.chunks:
            for block in (rows, tail):
                assert np.shares_memory(block.data, m.csr.data)
                assert np.shares_memory(block.indices, m.csr.indices)

    def test_no_fallback_above_direct_cap(self, monkeypatch):
        monkeypatch.setattr(mixing, "_KRYLOV_ITERATIONS", 3)
        m = lazy_chain("cycle", 41)
        monkeypatch.setattr(mixing, "_DIRECT_NNZ", m.nnz ** 2 - 1)
        with pytest.raises(FailedToConverge, match="residual"):
            estimate_coupling_time(m)

    def test_state_cap_is_too_large(self, monkeypatch):
        monkeypatch.setattr(mixing, "COUPLING_STATE_LIMIT", 10)
        assert estimate_coupling_time(lazy_chain("cycle", 10)).mean > 0
        with pytest.raises(TooLarge):
            estimate_coupling_time(lazy_chain("cycle", 11))

    def test_periodic_chain_rejected(self):
        with pytest.raises(NotErgodic):
            estimate_coupling_time(equal_weight_matrix(generate(TopologySpec("cycle", 6))))


def test_analyze_mixing_rng_changes_nothing():
    m = lazy_chain("lollipop", 20)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((1, 3))))
    report = mixing.analyze_mixing(m, trials=20, rng=rng)
    assert report == mixing.analyze_mixing(m)
    assert report.coupling == estimate_coupling_time(m)
    assert report.theorem_bound == coupling_bound(report.coupling.mean, 0.0, 0.25)


class TestAbsorbing:
    def test_kept_on_the_matrix(self, monkeypatch):
        # one solve, which the power limit shares; every call returns the one
        # object, its times read-only
        solves, real = [], stochastic._solve_fundamental

        def counting(z, rhs):
            solves.append(z.shape[0])
            return real(z, rhs)

        monkeypatch.setattr(stochastic, "_solve_fundamental", counting)
        m = lazy_chain("path", 6, directed=True)
        times = expected_absorbing_time(m)
        assert expected_absorbing_time(m) is times and solves == [5]
        assert stochastic.power_limit(m).absorb.tolist() == [[1.0]] * 5 and solves == [5]
        with pytest.raises(ValueError):
            times.node_expectation[0] = 0.0
        with pytest.raises(AttributeError):
            times.max_expectation = 0.0

    def test_no_transient(self):
        m = equal_weight_matrix(generate(TopologySpec("complete", 5)))
        times = expected_absorbing_time(m)
        assert times.max_expectation == 0.0
        assert times.node_expectation.tolist() == [0.0] * 5

    def test_geometric_exit(self):
        m = StochasticMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
        times = expected_absorbing_time(m)
        assert times.node_expectation[0] == pytest.approx(2.0)

    def test_deterministic_path(self):
        for t in (3, 6):
            g = generate(TopologySpec("path", t + 1, directed=True))
            times = expected_absorbing_time(equal_weight_matrix(g))
            assert times.max_expectation == pytest.approx(t)
            np.testing.assert_allclose(times.node_expectation, np.arange(t, -1, -1))

    def test_longest_path_sums_components(self):
        # two chained transient singletons, each with exit probability 1/2
        mat = np.array([[0.5, 0.5, 0.0],
                        [0.0, 0.5, 0.5],
                        [0.0, 0.0, 1.0]])
        times = expected_absorbing_time(StochasticMatrix(mat))
        np.testing.assert_allclose(times.node_expectation, [4.0, 2.0, 0.0])
        assert times.max_expectation == pytest.approx(4.0)

    def test_component_exits_match_dense_solves(self):
        # transient components of 2-5 nodes (a weighted cycle plus chords)
        # feeding later components and a closed triangle, under shuffled ids
        rng = np.random.default_rng(15)
        for _ in range(20):
            sizes = rng.integers(2, 6, size=int(rng.integers(1, 5)))
            starts = np.concatenate([[0], np.cumsum(sizes)])
            n = int(starts[-1]) + 3
            mat = np.zeros((n, n))
            mat[n - 3:, n - 3:] = 1.0
            for b, size in enumerate(sizes):
                block = np.arange(starts[b], starts[b + 1])
                mat[block, np.roll(block, -1)] = rng.uniform(0.5, 1.0, size)
                mat[np.ix_(block, block)] += (rng.random((size, size)) < 0.3) * rng.random()
                later = np.arange(starts[b + 1], n)
                mat[rng.choice(block), rng.choice(later)] += rng.uniform(0.1, 1.0)
                mat[np.ix_(block, later)] += (rng.random((size, later.size)) < 0.1) * rng.random()
            perm = rng.permutation(n)
            mat = mat[np.ix_(perm, perm)]
            mat /= mat.sum(axis=1, keepdims=True)
            m = StochasticMatrix(mat)
            decomp = scc_decompose(m.to_graph())
            times = expected_absorbing_time(m)
            assert decomp.count - len(decomp.closed_components()) == sizes.size
            transient = decomp.transient_nodes()
            z = mat[np.ix_(transient, transient)]
            want = np.zeros(n)
            want[transient] = np.linalg.solve(np.eye(transient.size) - z, np.ones(transient.size))
            np.testing.assert_allclose(times.node_expectation, want, rtol=1e-10)
            assert times.max_expectation == pytest.approx(want.max(), rel=1e-10)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(13)
        mat = np.array([[0.2, 0.5, 0.3, 0.0],
                        [0.1, 0.3, 0.0, 0.6],
                        [0.0, 0.0, 0.6, 0.4],
                        [0.0, 0.0, 0.3, 0.7]])
        m = StochasticMatrix(mat)
        times = expected_absorbing_time(m)
        mean, se = mc_absorption_time(mat, {0, 1}, 0, 4000, rng)
        assert abs(times.node_expectation[0] - mean) <= 3 * se

    def test_fundamental_solve_keeps_rhs_shape(self):
        # a one-column block must come back as a column, not as a vector
        rng = np.random.default_rng(14)
        z = rng.random((6, 6)) * (rng.random((6, 6)) < 0.5)
        z *= 0.9 / np.maximum(z.sum(axis=1, keepdims=True), 1.0)
        dense = np.eye(6) - z
        for rhs in (rng.random(6), rng.random((6, 1)), rng.random((6, 4))):
            x = mixing._solve_fundamental(sp.csr_matrix(z), rhs)
            assert x.shape == rhs.shape
            np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=0, atol=1e-13)


class TestBounds:
    def test_epsilon_one_is_zero(self):
        assert theorem_bound(3.0, 4.0, 1.0, 2.0, 1.0) == 0.0

    def test_unit_values(self):
        got = theorem_bound(1.0, 1.0, 1.0, 1.0, 0.25)
        assert got == pytest.approx(32 * 2 * math.log(4))
        assert got == pytest.approx(88.722839, abs=1e-5)

    def test_coupling_bound(self):
        assert coupling_bound(2.0, 3.0, 0.25) == pytest.approx(20 * math.log(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem_bound(-1, 0, 0, 0, 0.5)
        with pytest.raises(ValueError):
            theorem_bound(1, 1, 1, 1, 0.0)
        with pytest.raises(ValueError):
            coupling_bound(1, -1, 0.5)

    @pytest.mark.parametrize("at", range(4))
    def test_nan_rejected(self, at):
        # NaN fails every comparison, so a `v < 0` check would let it through
        args = [1.0, 1.0, 1.0, 1.0]
        args[at] = math.nan
        with pytest.raises(ValueError, match="non-negative"):
            theorem_bound(*args, 0.25)
        with pytest.raises(ValueError, match="non-negative"):
            coupling_bound(*(args[:2] if at < 2 else args[2:]), 0.25)


# product_distance_to_limit of lazy factors at k = 0, 1, 7, 50, 400
PINNED_PRODUCT_DISTANCE = {
    ("cycle", 44, "path", 45): [0.9997417355372824, 0.9976756198347982, 0.9670798482974485,
                                0.8298742818262248, 0.39322080775834806],
    ("hypercube", 32, "cycle", 33): [0.9990530303030445, 0.9829545454545597,
                                     0.7366574850852355, 0.4127127567007753,
                                     0.016875472179134886],
}


class TestProductBehavior:
    def test_max_behavior_small(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            m1 = random_ergodic(rng, int(rng.integers(3, 7)))
            m2 = random_ergodic(rng, int(rng.integers(3, 7)))
            t1 = measure_mixing_time(m1, 0.25)
            t2 = measure_mixing_time(m2, 0.25)
            tp = measure_mixing_time(kron(m1, m2), 0.25)
            assert max(t1, t2) <= tp <= 8 * max(t1, t2) + 4

    def test_product_distance_matches_direct(self):
        # the worst row of the product power against pi, as for a chain
        rng = np.random.default_rng(15)
        m1 = random_ergodic(rng, 4)
        m2 = random_ergodic(rng, 3)
        prod = kron(m1, m2)
        pi = stationary(prod)
        for k in (1, 3, 6):
            direct = 0.5 * np.abs(np.linalg.matrix_power(prod.dense(), k)
                                  - pi).sum(axis=1).max()
            assert product_distance_to_limit(m1, m2, k) == pytest.approx(direct, abs=1e-12)

    def test_sampled_starts_match_per_start_outer_products(self):
        # past 2000 product states the starts are the fixed 64 of _start_rows;
        # each start's row is the outer product of its factor rows
        rng = np.random.default_rng(16)
        m1, m2 = random_ergodic(rng, 41), random_ergodic(rng, 50)
        k = 2
        got = product_distance_to_limit(m1, m2, k)
        starts = mixing._start_rows(41 * 50, mixing.EXACT_START_LIMIT)
        assert starts.size == 64
        l1 = np.linalg.matrix_power(m1.dense(), k)
        l2 = np.linalg.matrix_power(m2.dense(), k)
        pi1, pi2 = stationary(m1), stationary(m2)
        want = max(0.5 * np.abs(np.outer(l1[s // 50], l2[s % 50])
                                - np.outer(pi1, pi2)).sum() for s in starts)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("pair", ["cycle41-star30", 0, 1, 2])
    def test_product_distance_is_the_chain_distance_of_the_product(self, pair):
        # t_mix of kron(l, r) is the first step at which the product distance
        # falls to epsilon
        if pair == "cycle41-star30":
            l, r = lazy_chain("cycle", 41), lazy_chain("star", 30)
        else:
            l, r = sparse_ergodic(np.random.default_rng(pair)), \
                sparse_ergodic(np.random.default_rng(100 + pair))
        t = measure_mixing_time(kron(l, r), 0.25)
        assert t >= 1
        assert product_distance_to_limit(l, r, t) <= 0.25 < product_distance_to_limit(l, r, t - 1)

    def test_negative_k_rejected(self):
        m = lazy_chain("cycle", 5)
        with pytest.raises(ValueError, match="k must be non-negative"):
            product_distance_to_limit(m, m, -1)

    @pytest.mark.parametrize("k", [2.7, 2.0, np.float64(2.0)])
    def test_fractional_k_rejected(self, k):
        # int(2.7) would measure step 2
        m = lazy_chain("cycle", 5)
        with pytest.raises(ValueError, match="k must be an integer"):
            product_distance_to_limit(m, m, k)

    def test_numpy_integer_steps_accepted(self):
        m = lazy_chain("cycle", 5)
        assert product_distance_to_limit(m, m, np.int64(3)) == product_distance_to_limit(m, m, 3)
        assert measure_mixing_time(m, 0.25, max_steps=np.int32(100)) == \
            measure_mixing_time(m, 0.25)

    @pytest.mark.parametrize("pair", sorted(PINNED_PRODUCT_DISTANCE))
    def test_pinned_values(self, pair):
        # recorded with the nm x starts block formed whole,
        # 0.5 |kron(L'^k, R'^k) - pi_L (x) pi_R|.sum(axis=0).max(); the chunked
        # Kronecker columns sum every entry in the same order. The factors'
        # pi is the rational one on the cycles and the path; some hypercube
        # rows sum to 1 only after rounding, which moves its pi by one unit
        left, right = lazy_chain(*pair[:2]), lazy_chain(*pair[2:])
        for family, chain in ((pair[0], left), (pair[2], right)):
            np.testing.assert_array_max_ulp(stationary(chain), rational_pi(chain),
                                            maxulp=int(family == "hypercube"))
        got = [product_distance_to_limit(left, right, k) for k in (0, 1, 7, 50, 400)]
        assert got == PINNED_PRODUCT_DISTANCE[pair]

    def test_every_start_up_to_a_raised_limit(self, monkeypatch):
        # lazy cycle 45 x lazy path 45: 2025 states, under a limit of 10,000
        left, right = lazy_chain("cycle", 45), lazy_chain("path", 45)
        monkeypatch.setattr(mixing, "EXACT_START_LIMIT", 10_000)
        scanned, real = [], mixing._start_rows

        def counting(n, exact_limit):
            rows = real(n, exact_limit)
            scanned.append(rows.size)
            return rows

        monkeypatch.setattr(mixing, "_start_rows", counting)
        got = product_distance_to_limit(left, right, 50)
        assert scanned == [2025]
        lk = np.linalg.matrix_power(left.dense(), 50)
        rk = np.linalg.matrix_power(right.dense(), 50)
        pi = np.kron(stationary(left), stationary(right))
        want = max(0.5 * np.abs(np.kron(lk[i:i + 1], rk) - pi).sum(axis=1).max()
                   for i in range(45))
        assert got == pytest.approx(want, rel=1e-12)

    def test_memory_stays_off_the_product_block(self):
        # lazy cycle 44 x lazy path 45: 1980 states, every start exact; the
        # 1980 x 1980 block of rows alone would be 31 MB
        left, right = lazy_chain("cycle", 44), lazy_chain("path", 45)
        tracemalloc.start()
        try:
            product_distance_to_limit(left, right, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


PERIODIC = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
REDUCIBLE = StochasticMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))


class TestProductRoute:
    """`measure_mixing_time` of a `kron` product, bisected on its factors."""

    def test_mixing_report_product_matches_oracle(self):
        a, c = lazy_chain("hypercube", 32), lazy_chain("cycle", 33)
        want, margin = product_mixing_time(a, c, 0.25)
        assert margin > 1e-12
        assert measure_mixing_time(kron(a, c), 0.25) == want == 103

    @pytest.mark.parametrize("pair, at_lower_end", [(("hypercube", 16, "star", 40), True),
                                                     (("cycle", 20, "cycle", 21), False)])
    def test_either_end_of_the_bracket_matches_oracle(self, pair, at_lower_end):
        # t is max(t_L, t_R) when the product is within epsilon there, and is
        # bisected above it otherwise
        left, right = lazy_chain(*pair[:2]), lazy_chain(*pair[2:])
        lower = max(measure_mixing_time(left, 0.25), measure_mixing_time(right, 0.25))
        want, margin = product_mixing_time(left, right, 0.25)
        assert margin > 1e-12
        assert measure_mixing_time(kron(left, right), 0.25) == want
        assert (want == lower) == at_lower_end

    def test_peak_memory_stays_off_the_product(self):
        # the 1056 x 1056 blocks of the squaring scan peak at 28 MB
        prod = kron(lazy_chain("hypercube", 32), lazy_chain("cycle", 33))
        tracemalloc.start()
        try:
            t = measure_mixing_time(prod, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t == 103
        assert peak < 4e6

    @pytest.mark.parametrize("factor", [PERIODIC, REDUCIBLE], ids=["periodic", "reducible"])
    def test_non_ergodic_factor_rejected(self, factor):
        lazy = lazy_chain("cycle", 5)
        for left, right in ((factor, lazy), (lazy, factor)):
            with pytest.raises(NotErgodic):
                measure_mixing_time(kron(left, right), 0.25)

    @pytest.mark.parametrize("max_steps", [102, 50, 0])
    def test_step_cap_reports_the_product_distance(self, max_steps):
        # t is 103; below 103 the cycle factor alone fails too, and the error
        # quotes the product's distance at the cap, not the factor's
        a, c = lazy_chain("hypercube", 32), lazy_chain("cycle", 33)
        d = product_distance_to_limit(a, c, max_steps)
        with pytest.raises(FailedToConverge, match=f"still {d:.3g} after {max_steps} steps"):
            measure_mixing_time(kron(a, c), 0.25, max_steps=max_steps)
        assert measure_mixing_time(kron(a, c), 0.25, max_steps=103) == 103

    def test_product_above_the_cap_is_too_large(self, monkeypatch):
        # 2050 states: neither the factors nor the product is solved or stepped
        prod = kron(lazy_chain("cycle", 41), lazy_chain("star", 50))
        monkeypatch.setattr(stochastic, "_dominant_eigenpair", no_eigensolve)
        with pytest.raises(TooLarge, match="every start of 2050 states; the cap is 2000$"):
            measure_mixing_time(prod, 0.25)

    def test_only_a_kron_product_has_factors(self):
        left, right = REDUCIBLE, lazy_chain("cycle", 5)
        prod = kron(left, right)
        assert prod.factors[0] is left and prod.factors[1] is right
        assert left.factors is None and right.factors is None
        assert StochasticMatrix(prod.csr).factors is None
        # states (0, u) are closed: their chain is the right factor's, not a product
        closed = prod.restrict(np.arange(right.n))
        assert closed is not prod and closed.factors is None
        assert prod.restrict(np.arange(prod.n)) is prod


class TestCompositeBoundWithTransients:
    def test_distance_small_at_coupling_bound(self):
        # transient path feeding a lazy cycle: distance at 4(L+H)ln(1/eps) <= eps
        n_path, n_cycle = 5, 7
        edges = [(i, i + 1) for i in range(n_path)]
        cycle_nodes = list(range(n_path, n_path + n_cycle))
        edges += [(cycle_nodes[i], cycle_nodes[(i + 1) % n_cycle])
                  for i in range(n_cycle)]
        edges += [(cycle_nodes[(i + 1) % n_cycle], cycle_nodes[i])
                  for i in range(n_cycle)]
        m = equal_weight_matrix(lazify(DirectedGraph(n_path + n_cycle, edges), 0.4))
        decomp = scc_decompose(m.to_graph())
        closed = decomp.components[decomp.closed_components()[0]]
        minor = StochasticMatrix(m.minor(closed))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20)))
        coupling = estimate_coupling_time(minor, trials=800, rng=rng)
        absorbing = expected_absorbing_time(m)
        pi_closed = stationary(minor)
        limit = np.zeros((m.n, m.n))
        limit[:, closed] = pi_closed  # every row drifts to the closed stationary
        for eps in (0.25, 1 / 16):
            k = int(np.ceil(coupling_bound(coupling.mean,
                                           absorbing.max_expectation, eps)))
            dist = distance_to_limit_curve(m.csr, limit, k)[-1]
            assert dist <= eps


class TestDistanceCurve:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(16)
        m = random_ergodic(rng, 5)
        pi = stationary(m)
        limit = np.outer(np.ones(5), pi)
        curve = distance_to_limit_curve(m.csr, limit, 6)
        for k in range(1, 7):
            direct = 0.5 * np.abs(np.linalg.matrix_power(m.dense(), k) - limit).sum(axis=0).max()
            assert curve[k - 1] == pytest.approx(direct, abs=1e-12)

    def test_mixing_curve_matches_oracle(self):
        # t_mix is the first step at which the operator-power curve of P',
        # over the rows of P^k, falls to epsilon
        m = lazy_chain("path", 12)
        curve = distance_to_limit_curve(m.csr.T, stationary(m)[:, None], 204)
        for eps in (0.5, 0.25, 0.1, 0.01):
            assert measure_mixing_time(m, eps) == 1 + int(np.argmax(curve <= eps))


def test_periodic_structures_rejected_everywhere():
    two_cycle = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotErgodic):
        second_eigenvalue(two_cycle)
    with pytest.raises(NotErgodic):
        estimate_coupling_time(two_cycle, trials=10)
