import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kronmix.errors import AllTrialsCapped, FailedToConverge, NotErgodic
from kronmix.generators import TopologySpec, generate, lazify
from kronmix.graphs import DirectedGraph, scc_decompose
from kronmix.kron import kron
from kronmix import mixing
from kronmix.mixing import (coupling_bound, estimate_coupling_time, expected_absorbing_time,
                            measure_mixing_time, product_distance_to_limit,
                            second_eigenvalue, spectral_bounds, theorem_bound)
from kronmix.stochastic import StochasticMatrix, equal_weight_matrix, stationary
from oracles import (dense_cdf_step, distance_to_limit_curve, mc_absorption_time,
                     pair_chain_coupling, pair_chain_expectations)


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

    def test_pinned_sampled_value(self):
        # past 2000 states the scan takes the fixed 64 starts of _start_rows
        assert measure_mixing_time(lazy_chain("cycle", 2501), 0.97) == 260

    def test_mixed_at_start_is_zero(self):
        for m, eps in ((StochasticMatrix(np.eye(1)), 0.25),
                       (StochasticMatrix(np.full((2, 2), 0.5)), 0.6)):
            assert measure_mixing_time(m, eps) == 0

    def test_step_cap_is_failed_to_converge(self):
        with pytest.raises(FailedToConverge):
            measure_mixing_time(lazy_chain("path", 9), 0.01, max_steps=3)

    @pytest.mark.parametrize("kwargs", [{"epsilon": 0.0}, {"epsilon": 1.0},
                                        {"epsilon": -0.5}, {"max_steps": -1}])
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
    """The step at which the exact-start scan stops stepping sparsely and squares."""
    return -(-m.n * m.n // (16 * m.nnz))


def oracle_crossing(m, epsilon, steps):
    """First step at which the oracle curve is within epsilon, and its margin there."""
    curve = distance_to_limit_curve(m.csr.T, stationary(m)[:, None], steps)
    t = 1 + int(np.argmax(curve <= epsilon))
    if curve[t - 1] > epsilon:
        return None, 0.0
    above = curve[t - 2] - epsilon if t >= 2 else math.inf
    return t, min(epsilon - curve[t - 1], above)


class TestSquaringScan:
    def test_matches_oracle_on_both_sides_of_the_switch(self):
        # large sparse chains mix before the switch, small ones after it
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
        # epsilon halfway between d(t - 1) and d(t) puts t_mix at t; with the
        # switch at s the squares are s 2^j, so t = s 2^j, s 2^j + 1 and
        # 3 s 2^(j-1) fall on a square, just past one and on the descent
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

    def test_peak_memory_three_blocks(self):
        # a lazy 600-cycle steps to 13, squares up to 13 2^8 and descends; the
        # peak does not depend on epsilon, and at 0.75 the sparse remainder
        # is short
        m = lazy_chain("cycle", 600)
        tracemalloc.start()
        try:
            assert measure_mixing_time(m, 0.75) == 1884
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * m.n ** 2 * 8

    @pytest.mark.parametrize("width", [1, 2, mixing._GAP_CHUNK, mixing._GAP_CHUNK + 1,
                                       2 * mixing._GAP_CHUNK + 1])
    def test_chunked_gap_bit_identical(self, width):
        # numpy sums one column pairwise and wider blocks row by row; the last
        # column, the one a remainder chunk would hold, has the largest gap
        rng = np.random.default_rng(width)
        cur = rng.random((1000, width)) * rng.choice([1e-9, 1.0, 1e3], (1000, width))
        cur[:, -1] += 1e3
        for target in (rng.random((1000, 1)), rng.random((1000, width))):
            want = 0.5 * np.abs(cur - target).sum(axis=0).max()
            assert mixing._column_gap(cur, target) == want


class TestStartRows:
    def test_default_stream_is_seed_three(self):
        for dim in (257, 2020):
            want = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(3))).choice(dim, 64, replace=False)
            np.testing.assert_array_equal(mixing._start_rows(dim, exact_limit=256), want)

    def test_exact_up_to_the_limit(self):
        np.testing.assert_array_equal(
            mixing._start_rows(256, exact_limit=256), np.arange(256))
        np.testing.assert_array_equal(mixing._start_rows(2000), np.arange(2000))


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

    def test_arpack_cap_is_failed_to_converge(self, monkeypatch):
        def capped(*args, **kwargs):
            raise spla.ArpackNoConvergence("cap", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigs", capped)
        with pytest.raises(FailedToConverge):
            second_eigenvalue(lazy_chain("cycle", 11))

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

    @pytest.mark.parametrize("step_cap", [0, -3])
    def test_step_cap_below_one_rejected(self, step_cap):
        m = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="step_cap"):
            estimate_coupling_time(m, trials=10, step_cap=step_cap)

    def test_two_state_geometric(self):
        # independent uniform walks meet with probability 1/2 each step: E[K] = 2
        m = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(10)))
        est = estimate_coupling_time(m, trials=4000, rng=rng)
        assert abs(est.mean - 2.0) <= 3 * est.stderr
        assert est.capped == 0

    def test_against_pair_chain_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            n = int(rng.integers(3, 9))
            m = random_ergodic(rng, n)
            exact_worst = pair_chain_coupling(m.dense())
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(trial)))
            est = estimate_coupling_time(m, trials=3000, rng=gen)
            # the sampled worst pair can only underestimate the true worst pair
            assert est.mean <= exact_worst + 3 * est.stderr
            assert est.mean >= 1.0

    def test_chosen_pair_matches_oracle(self):
        rng = np.random.default_rng(12)
        m = random_ergodic(rng, 5)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
        est = estimate_coupling_time(m, trials=6000, rng=gen)
        # the MC mean is consistent with the exact E[K] of the pair it picked
        exact = pair_chain_expectations(m.dense())[est.start_pair]
        assert abs(est.mean - exact) <= 3 * est.stderr


def philox_13():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((1, 3))))


def test_analyze_mixing_seed_drives_only_the_coupling():
    # past 2000 states t_mix samples its starts from its own fixed stream
    m = lazy_chain("star", 2001)
    report = mixing.analyze_mixing(m, trials=20, rng=philox_13())
    assert report.coupling == estimate_coupling_time(m, trials=20, rng=philox_13())


# (family, n, trials) -> (mean, stderr, capped, start_pair) of the dense-CDF
# sampler; pins the order in which the walks consume the stream and the
# cumulative floats they compare against
COUPLING_REFERENCE = {
    ("cycle", 11, 200): (33.5, 1.9451912101953126, 0, (0, 4)),  # all-pairs pilot
    ("cycle", 33, 150): (273.43333333333334, 23.023649774063134, 0, (11, 24)),
    ("hypercube", 32, 150): (51.63333333333333, 3.771984525847951, 0, (18, 30)),
    ("lollipop", 100, 300): (4870.793333333333, 215.40320780046906, 0, (49, 98)),  # wide rows
}


class TestCouplingSampler:
    @pytest.mark.parametrize("case", sorted(COUPLING_REFERENCE))
    def test_fixed_seed_reference(self, case):
        family, n, trials = case
        est = estimate_coupling_time(lazy_chain(family, n), trials=trials, rng=philox_13())
        assert (est.mean, est.stderr, est.capped, est.start_pair) == COUPLING_REFERENCE[case]

    def test_chunked_steps_draw_the_same_stream(self, monkeypatch):
        monkeypatch.setattr(mixing, "_CHUNK", 50)  # 16 walkers per chunk
        case = ("cycle", 33, 150)
        est = estimate_coupling_time(lazy_chain("cycle", 33), trials=150, rng=philox_13())
        assert (est.mean, est.stderr, est.capped, est.start_pair) == COUPLING_REFERENCE[case]

    def test_step_matches_dense_cdf_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            raw = rng.random((n, n)) * (rng.random((n, n)) < rng.random((n, 1)))
            raw[np.arange(n), rng.integers(0, n, n)] += rng.random(n) + 1e-3
            m = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
            table = mixing._row_table(m)
            cum = table[0]
            deg = np.diff(m.csr.indptr)
            # every stored cumulative below the forced 1.0, and one ulp under it
            rows, slots = np.nonzero(np.arange(cum.shape[1]) < deg[:, None] - 1)
            hits = cum[rows, slots]
            states = np.concatenate([rng.integers(0, n, 500), rows, rows])
            u = np.concatenate([rng.random(500), hits, np.nextafter(hits, 0.0)])
            np.testing.assert_array_equal(mixing._step(table, states, u),
                                          dense_cdf_step(m.dense(), states, u))
            # a draw just under 1 lands on the row's last nonzero, even when the
            # row's float sum falls short of 1 (the dense step goes to column n-1)
            top = np.full(n, np.nextafter(1.0, 0.0))
            last = m.csr.sorted_indices().indices[m.csr.indptr[1:] - 1]
            np.testing.assert_array_equal(mixing._step(table, np.arange(n), top), last)

    def test_memory_independent_of_n(self):
        # the worst of 32 random pairs on a 5000-cycle cannot meet in 2000 steps,
        # so every pilot and trial walks the full cap
        m = lazy_chain("cycle", 5000)
        tracemalloc.start()
        try:
            with pytest.raises(AllTrialsCapped):
                estimate_coupling_time(m, trials=50, step_cap=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6  # a dense 5000 x 5000 CDF alone is 200 MB


class TestAbsorbing:
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
            times = expected_absorbing_time(m, decomp)
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
        starts = mixing._start_rows(41 * 50)
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
        minor = StochasticMatrix(m.minor(closed), renormalize=True)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20)))
        coupling = estimate_coupling_time(minor, trials=800, rng=rng)
        absorbing = expected_absorbing_time(m, decomp)
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
