import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from kronmix import beliefs, graphs, limits, mixing, stochastic
from kronmix.beliefs import (assemble, closed_factor_classes, converges, oblivious_set,
                             simulate, system_matrix, update)
from kronmix.errors import (FailedToConverge, NotErgodic, NoUniqueFixedPoint, StructuralError,
                            TooLarge)
from kronmix.generators import TopologySpec, generate, lazify
from kronmix.graphs import scc_decompose
from kronmix.limits import (absorbing_probabilities, closed_limit, limit_matrix,
                            social_power, structural_limit, stubborn_limit)
from kronmix.mixing import system_mixing_time
from kronmix.stochastic import StochasticMatrix, equal_weight_matrix
from oracles import (dense_system_operator, distance_to_limit_curve,
                     system_graph_closed_classes, system_graph_limit)
from test_acceptance import philox, random_belief_system
from test_beliefs import cycle_path_system, random_system
from test_mixing import lazy_chain


class TestAbsorbingProbabilities:
    def test_single_exit(self):
        m = StochasticMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
        block = absorbing_probabilities(m)
        assert block.absorb.shape == (1, 1)
        assert block.absorb[0, 0] == pytest.approx(1.0)

    def test_half_half_exits(self):
        mat = np.array([[0.0, 0.5, 0.5],
                        [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0]])
        block = absorbing_probabilities(StochasticMatrix(mat))
        np.testing.assert_allclose(block.absorb[0], [0.5, 0.5])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            raw = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            raw[np.arange(n), np.arange(n)] += 0.2
            # make the last two states absorbing
            raw[-2:] = 0
            raw[-2, -2] = raw[-1, -1] = 1.0
            m = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
            decomp = scc_decompose(m.to_graph())
            if decomp.transient_nodes().size == 0:
                continue
            block = absorbing_probabilities(m)
            np.testing.assert_allclose(block.absorb.sum(axis=1), 1.0, atol=1e-9)
            assert block.absorb.min() >= -1e-15

    def test_fundamental_consistency_with_h(self):
        # h = N 1 and the absorption block is N R, N = (I - Z)^-1 built densely
        from kronmix.mixing import expected_absorbing_time
        mat = np.array([[0.2, 0.5, 0.3, 0.0],
                        [0.1, 0.3, 0.0, 0.6],
                        [0.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0]])
        m = StochasticMatrix(mat)
        block = absorbing_probabilities(m)
        times = expected_absorbing_time(m)
        t, r = block.transient, block.recurrent
        fundamental = np.linalg.inv(np.eye(t.size) - mat[np.ix_(t, t)])
        np.testing.assert_allclose(fundamental.sum(axis=1), times.node_expectation[t],
                                   atol=1e-9)
        np.testing.assert_allclose(fundamental @ mat[np.ix_(t, r)], block.absorb,
                                   atol=1e-9)

    def test_monte_carlo_agreement(self):
        mat = np.array([[0.1, 0.6, 0.3, 0.0],
                        [0.2, 0.2, 0.1, 0.5],
                        [0.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0]])
        m = StochasticMatrix(mat)
        block = absorbing_probabilities(m)
        rng = np.random.default_rng(1)
        trials = 4000
        hits = 0
        cdf = np.cumsum(mat, axis=1)
        for _ in range(trials):
            node = 0
            while node in (0, 1):
                node = int(np.searchsorted(cdf[node], rng.random()))
            hits += node == 2
        freq = hits / trials
        se = (freq * (1 - freq) / trials) ** 0.5
        assert abs(block.absorb[0, 0] - freq) <= 3 * se

    def test_no_transient_raises(self):
        m = equal_weight_matrix(generate(TopologySpec("complete", 4)))
        with pytest.raises(StructuralError):
            absorbing_probabilities(m)


class TestClosedLimit:
    def test_complete_factors_average(self):
        a = equal_weight_matrix(lazify(generate(TopologySpec("complete", 4)), 0.2))
        c = equal_weight_matrix(lazify(generate(TopologySpec("complete", 3)), 0.2))
        rng = np.random.default_rng(2)
        x0 = rng.random((4, 3))
        system = assemble(a, c, np.ones(4), x0)
        cl = closed_limit(system, np.arange(4), np.arange(3))
        assert cl.value == pytest.approx(float(x0.mean()), abs=1e-9)

    def test_single_agent_topic_self_loops(self):
        a = StochasticMatrix(np.eye(1))
        c = StochasticMatrix(np.eye(1))
        system = assemble(a, c, np.ones(1), np.array([[0.42]]))
        cl = closed_limit(system, [0], [0])
        assert cl.value == pytest.approx(0.42)

    def test_separable_x0_product_form(self):
        # for rank-one x0 the general form equals the displayed product form
        a = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 5)), 0.3))
        c = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 3)), 0.3))
        rng = np.random.default_rng(3)
        u, v = rng.random(5), rng.random(3)
        system = assemble(a, c, np.ones(5), np.outer(u, v))
        from kronmix.stochastic import stationary
        cl = closed_limit(system, np.arange(5), np.arange(3))
        pi_a, pi_c = stationary(a), stationary(c)
        product_form = float(np.kron(pi_a, pi_c) @ np.kron(u, v))
        assert cl.value == pytest.approx(product_form, abs=1e-10)

    def test_periodic_component_rejected(self):
        a = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        c = StochasticMatrix(np.eye(1))
        system = assemble(a, c, np.ones(2), np.array([[0.0], [1.0]]))
        with pytest.raises(NotErgodic):
            closed_limit(system, [0, 1], [0])


class TestOpenLimit:
    def test_copying_node_inherits(self):
        # agent 1 copies agent 0; agent 0 keeps its belief (lambda on agent 1 is 1)
        a = StochasticMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        c = StochasticMatrix(np.eye(1))
        system = assemble(a, c, np.array([1.0, 1.0]), np.array([[0.8], [0.1]]))
        report = structural_limit(system)
        assert report.beliefs[1, 0] == pytest.approx(0.8)

    def test_linear_combination_of_exits(self):
        q = 0.3
        mat = np.array([[0.0, q, 1 - q],
                        [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0]])
        a = StochasticMatrix(mat)
        c = StochasticMatrix(np.eye(1))
        x0 = np.array([[0.5], [0.9], [0.2]])
        system = assemble(a, c, np.ones(3), x0)
        report = structural_limit(system)
        assert report.beliefs[0, 0] == pytest.approx(q * 0.9 + (1 - q) * 0.2)


class TestStructuralLimit:
    def test_matches_simulation(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 15:
            system = random_system(rng)
            if not converges(system).converges:
                continue
            checked += 1
            report = structural_limit(system)
            sim = simulate(system, stop_delta=1e-13, max_iter=300_000)
            np.testing.assert_allclose(report.beliefs, sim.beliefs(system), atol=1e-8)

    def test_limits_inside_initial_hull(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            system = random_system(rng)
            if not converges(system).converges:
                continue
            report = structural_limit(system)
            assert report.beliefs.min() >= system.x0.min() - 1e-9
            assert report.beliefs.max() <= system.x0.max() + 1e-9

    def test_pi_product_factorization(self):
        # stationary of the closed system block equals the factor product
        from kronmix.stochastic import stationary
        a = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 4)), 0.4))
        c = equal_weight_matrix(lazify(generate(TopologySpec("path", 3)), 0.4))
        system = assemble(a, c, np.ones(4), np.zeros((4, 3)))
        matrix = StochasticMatrix(system_matrix(system))
        decomp = scc_decompose(matrix.to_graph())
        top_closed = [cid for cid in decomp.closed_components()
                      if decomp.components[cid][0] < 12]
        assert len(top_closed) == 1
        comp = decomp.components[top_closed[0]]
        pi_direct = stationary(StochasticMatrix(matrix.minor(comp)))
        pi_kron = np.kron(stationary(a), stationary(c))
        assert np.abs(pi_direct - pi_kron).sum() <= 1e-10


class TestStubbornLimit:
    def test_zero_lambda_returns_x0(self):
        system = cycle_path_system(lam=np.zeros(5))
        np.testing.assert_allclose(stubborn_limit(system), system.x0, atol=1e-12)

    def test_single_agent_half(self):
        a = StochasticMatrix(np.eye(1))
        c = StochasticMatrix(np.eye(1))
        system = assemble(a, c, np.array([0.5]), np.array([[0.3]]))
        assert stubborn_limit(system)[0, 0] == pytest.approx(0.3, abs=1e-9)

    def test_matches_simulation_on_stubborn_systems(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            system = random_system(rng)
            system = assemble(system.a, system.c,
                              rng.uniform(0.1, 0.95, system.n), system.x0)
            fixed = stubborn_limit(system, tol=1e-13)
            sim = simulate(system, stop_delta=1e-13, max_iter=300_000)
            np.testing.assert_allclose(fixed, sim.beliefs(system), atol=1e-8)

    def test_equals_inline_update(self):
        # stubborn_limit steps through beliefs.update; pin it to the plain
        # X <- Lambda A X C' + (I - Lambda) X0 loop, float for float
        rng = np.random.default_rng(61)
        for trial in range(30):
            system = random_system(rng)
            a, lam = system.a, rng.uniform(0.1, 0.95, system.n)
            if trial % 2:  # oblivious agents too, each listening to every agent
                raw = rng.random((system.n, system.n)) + 0.05
                a = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
                lam[rng.random(system.n) < 0.5] = 1.0
                lam[0] = 0.5
            system = assemble(a, system.c, lam, system.x0)
            x = system.x0.copy()
            while True:
                xn = (lam[:, None] * (system.a.csr @ (system.c.csr @ x.T).T)
                      + (1.0 - lam[:, None]) * system.x0)
                done = float(np.abs(xn - x).max()) <= 1e-10
                x = xn
                if done:
                    break
            np.testing.assert_array_equal(stubborn_limit(system), x)

    def test_oblivious_periodic_stalls(self):
        a = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        c = StochasticMatrix(np.eye(2))
        system = assemble(a, c, np.ones(2), np.array([[0.0, 0.2], [1.0, 0.8]]))
        with pytest.raises(NoUniqueFixedPoint):
            stubborn_limit(system, max_iter=5000)

    @pytest.mark.parametrize("kwargs", [{"max_iter": -1}, {"tol": -1e-10}, {"tol": np.nan}])
    def test_bad_arguments_raise(self, kwargs):
        with pytest.raises(ValueError):
            stubborn_limit(cycle_path_system(lam=np.full(5, 0.5)), **kwargs)


class TestSocialPower:
    def test_complete_graph_uniform(self):
        m = equal_weight_matrix(generate(TopologySpec("complete", 8)))
        power = social_power(m)
        np.testing.assert_allclose(power.weights, 1 / 8, atol=1e-11)
        np.testing.assert_allclose(power.cumulative,
                                   np.arange(1, 9) / 8, atol=1e-10)

    def test_weights_sum_to_one(self):
        m = equal_weight_matrix(lazify(generate(TopologySpec("star", 11)), 0.5))
        power = social_power(m)
        assert abs(power.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(power.weights) <= 1e-15)  # sorted descending

    def test_star_center_dominates(self):
        m = equal_weight_matrix(lazify(generate(TopologySpec("star", 11)), 0.5))
        power = social_power(m)
        assert power.order[0] == 0
        assert power.weights[0] == pytest.approx(0.5, abs=1e-9)

    def test_not_ergodic(self):
        with pytest.raises(NotErgodic):
            social_power(StochasticMatrix(np.eye(3)))


class TestLimitMatrix:
    def test_columns_are_per_start_limits(self):
        rng = np.random.default_rng(7)
        system = random_system(rng, 3, 3)
        while not converges(system).converges:
            system = random_system(rng, 3, 3)
        w = limit_matrix(system)
        dense = system_matrix(system).toarray()
        power = np.linalg.matrix_power(dense, 4000)
        np.testing.assert_allclose(w, power, atol=1e-7)

    def test_column_subset_matches_power_columns(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 12:
            system = random_system(rng)
            if not converges(system).converges:
                continue
            cols = rng.choice(system.dim, size=int(rng.integers(1, system.dim + 1)),
                              replace=False)
            w = limit_matrix(system, cols)
            assert w.shape == (system.dim, cols.size)
            power = np.linalg.matrix_power(system_matrix(system).toarray(), 4000)
            np.testing.assert_allclose(w, power[:, cols], atol=1e-7)
            np.testing.assert_allclose(w, limit_matrix(system)[:, cols], rtol=0, atol=1e-15)
            checked += 1


def _outcome(fn):
    """fn()'s value, or the NotErgodic it raised."""
    try:
        return fn()
    except NotErgodic as exc:
        return exc


class TestFactorSpaceLimit:
    """Limits from the factors against the materialised 2nm system chain."""

    def test_matches_system_graph_oracle(self):
        rng = philox(1201)
        worst, raised = 0.0, 0
        lam_kinds = set()
        for _ in range(1000):
            system = random_belief_system(rng)
            lam_kinds.add("ones" if np.all(system.lam == 1) else
                          "zeros" if np.all(system.lam == 0) else "mixed")
            cols = rng.choice(system.dim, size=int(rng.integers(1, system.dim + 1)),
                              replace=False)
            block = np.zeros((system.dim, 1 + cols.size))
            block[:, 0] = np.tile(system.x0.ravel(), 2)
            block[cols, 1 + np.arange(cols.size)] = 1.0
            got = _outcome(lambda: np.column_stack([
                np.concatenate([structural_limit(system).beliefs.ravel(), system.x0.ravel()]),
                limit_matrix(system, cols)]))
            want = _outcome(lambda: system_graph_limit(system, block))
            assert isinstance(got, NotErgodic) == isinstance(want, NotErgodic)
            if isinstance(want, NotErgodic):
                raised += 1
            else:
                worst = max(worst, float(np.abs(got - want).max()))
        assert worst <= 1e-12
        assert 0 < raised < 1000
        assert lam_kinds == {"ones", "zeros", "mixed"}

    def test_closed_pairs_are_closed_system_components(self):
        rng = philox(1202)
        aperiodic = 0
        for _ in range(300):
            system = random_belief_system(rng)
            agent_classes, topic_classes = closed_factor_classes(system)
            got = [frozenset((agents[:, None] * system.m + topics).ravel().tolist())
                   for agents, _ in agent_classes for topics, _ in topic_classes]
            want = system_graph_closed_classes(system)
            # a periodic factor product splits into slices of the same pairs
            assert frozenset().union(*got) == frozenset().union(*want)
            if not isinstance(_outcome(lambda: structural_limit(system)), NotErgodic):
                aperiodic += 1
                assert sorted(got, key=min) == sorted(want, key=min)
        assert aperiodic >= 100

    def test_library_never_builds_the_system_operator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the 2nm system operator was materialised")

        sizes = []
        real_scc = graphs.scc_decompose

        def recording_scc(graph):
            sizes.append(graph.node_count)
            return real_scc(graph)

        for name, module in list(sys.modules.items()):
            if name == "kronmix" or name.startswith("kronmix."):
                for attr, value in list(vars(module).items()):
                    if value is beliefs.system_matrix:
                        monkeypatch.setattr(module, attr, refuse)
                    elif value is real_scc:
                        monkeypatch.setattr(module, attr, recording_scc)
        # every agent hears the stubborn one in the first system, so only the
        # lambda = 1 one decomposes its factors
        for system in (cycle_path_system(7, lam=np.r_[0.5, np.ones(6)]), cycle_path_system(7)):
            structural_limit(system)
            limit_matrix(system, [0, 5, 40])
            system_mixing_time(system)
        assert sizes and max(sizes) <= max(system.n, system.m)

    def test_each_factor_decomposed_once(self, monkeypatch):
        # the factors keep their strong components for every later layer
        owners, decomposed = {}, []
        real_to_graph, real_scc = StochasticMatrix.to_graph, graphs.scc_decompose

        def recording_to_graph(matrix):
            graph = real_to_graph(matrix)
            owners[id(graph)] = (graph, matrix)  # the graph is kept, so its id is not reused
            return graph

        def recording_scc(graph):
            decomposed.append(owners.get(id(graph), (graph, None))[1])
            return real_scc(graph)

        monkeypatch.setattr(StochasticMatrix, "to_graph", recording_to_graph)
        for name, module in list(sys.modules.items()):
            if name == "kronmix" or name.startswith("kronmix."):
                for attr, value in list(vars(module).items()):
                    if value is real_scc:
                        monkeypatch.setattr(module, attr, recording_scc)
        system = cycle_path_system(7)  # every agent oblivious: `converges` reads both
        assert converges(system).converges
        structural_limit(system)
        limit_matrix(system, [0, 5, 40])
        system_mixing_time(system)
        assert sum(m is system.a for m in decomposed) == 1
        assert sum(m is system.c for m in decomposed) == 1

    def test_limit_matrix_cap_names_dimension_and_cap(self, monkeypatch):
        system = cycle_path_system(7)
        monkeypatch.setattr(limits, "LIMIT_MATRIX_CAP", system.dim - 1)
        with pytest.raises(TooLarge, match=rf"^limit matrix of a {system.dim}-state system; "
                                           rf"the cap is {system.dim - 1} states$"):
            limit_matrix(system, [0])

    def test_mixing_time_step_cap(self):
        system = cycle_path_system(7, lam=np.r_[0.5, np.ones(6)])
        with pytest.raises(FailedToConverge) as info:
            system_mixing_time(system, 0.01, max_steps=2)
        # the message gives the exact distance at the cap, not the screen's lower bound
        reported = float(re.fullmatch(r"distance to limit still (\S+) after 2 steps",
                                      str(info.value)).group(1))
        gaps = _stepped_gaps(system)
        exact = [next(gaps) for _ in range(3)][2]
        assert reported == float(f"{exact:.3g}")

    @pytest.mark.parametrize("kwargs", [{"epsilon": 0.0}, {"epsilon": 1.0},
                                        {"max_steps": -1}, {"max_steps": 2.5}])
    def test_mixing_time_arguments_checked_before_stepping(self, kwargs, monkeypatch):
        # a bad argument fails before the limit solve and the first update:
        # epsilon 0 would otherwise step until max_steps (10^6 updates)
        def no_work(*args):
            raise AssertionError("solved or stepped before checking its arguments")

        monkeypatch.setattr(mixing, "limit_matrix", no_work)
        monkeypatch.setattr(mixing, "update", no_work)
        system = cycle_path_system(7, lam=np.r_[0.5, np.ones(6)])
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            system_mixing_time(system, **kwargs)

    def test_stubborn_scale(self):
        # lazy 2000-cycle x lazy eulerian ring (m = 5, k = 2), 10 % at lambda 0.5:
        # nm = 10^4, every pair transient; a dense absorbing block on the
        # system graph would hold two 10^4 x 10^4 arrays (~1.6 GB)
        n, m = 2000, 5
        a = equal_weight_matrix(lazify(generate(TopologySpec("cycle", n)), 0.5))
        c = equal_weight_matrix(lazify(generate(
            TopologySpec("eulerian-ring", m, k=2, directed=True)), 0.5))
        rng = philox(1203)
        lam = np.ones(n)
        lam[rng.choice(n, size=n // 10, replace=False)] = 0.5
        system = assemble(a, c, lam, rng.random((n, m)))
        tracemalloc.start()
        try:
            report = structural_limit(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        fixed = stubborn_limit(system, tol=1e-13)
        assert float(np.abs(report.beliefs - fixed).max()) <= 1e-8


def count_limit_work(monkeypatch):
    """Counts of `sp.kron` builds and `(I - Z)` solves made inside `limits._apply_limit`.

    The solves are recorded by their unknown counts, from the limits' own
    binding (the pair solve) and from the factors' (`power_limit`).
    """
    inside, counts = [0], {"kron": 0, "pair": [], "factor": []}
    real_apply, real_kron = limits._apply_limit, sp.kron

    def apply(*args):
        inside[0] += 1
        try:
            return real_apply(*args)
        finally:
            inside[0] -= 1

    def kron(*args, **kwargs):
        counts["kron"] += bool(inside[0])
        return real_kron(*args, **kwargs)

    monkeypatch.setattr(limits, "_apply_limit", apply)
    monkeypatch.setattr(sp, "kron", kron)
    for module, key in ((limits, "pair"), (stochastic, "factor")):
        def solve(z, rhs, key=key, real=module._solve_fundamental):
            if inside[0]:
                counts[key].append(z.shape[0])
            return real(z, rhs)

        monkeypatch.setattr(module, "_solve_fundamental", solve)
    return counts


def oblivious_and_stubborn_system(c: StochasticMatrix) -> beliefs.BeliefSystem:
    """Six agents on `c`: 0-3 hear no stubborn agent, 4 is stubborn, 5 hears it.

    Among the oblivious agents {0, 1} and {3} are closed classes and 2 is
    transient; agent 4 also hears agent 2, and agent 5 hears agent 1.
    """
    a = StochasticMatrix(np.array([[0.5, 0.5, 0, 0, 0, 0],
                                   [0.3, 0.7, 0, 0, 0, 0],
                                   [0.5, 0, 0.25, 0.25, 0, 0],
                                   [0, 0, 0, 1.0, 0, 0],
                                   [0, 0, 0.5, 0, 0.5, 0],
                                   [0, 0.5, 0, 0, 0.5, 0]]))
    lam = np.array([1.0, 1.0, 1.0, 1.0, 0.6, 1.0])
    return assemble(a, c, lam, np.random.default_rng(27).random((6, c.n)))


def two_class_constraints() -> StochasticMatrix:
    """Five topics: {0, 1} and {2} closed, 3 and 4 transient (4 leads to 3)."""
    return StochasticMatrix(np.array([[0.5, 0.5, 0, 0, 0],
                                      [0.2, 0.8, 0, 0, 0],
                                      [0, 0, 1.0, 0, 0],
                                      [0.25, 0, 0.25, 0.5, 0],
                                      [0, 0.3, 0, 0.3, 0.4]]))


class TestLimitsFromTheFactors:
    """Oblivious agents from A_O^inf (x) C^inf, the rest from one pair solve."""

    def assert_matches_oracle(self, system, columns):
        block = np.zeros((system.dim, 1 + columns.size))
        block[:, 0] = np.tile(system.x0.ravel(), 2)
        block[columns, 1 + np.arange(columns.size)] = 1.0
        want = system_graph_limit(system, block)
        nm = system.n * system.m
        assert np.abs(structural_limit(system).beliefs.ravel() - want[:nm, 0]).max() <= 1e-12
        assert np.abs(limit_matrix(system, columns) - want[:, 1:]).max() <= 1e-12
        assert np.abs(limit_matrix(system) - system_graph_limit(system, np.eye(system.dim))
                      ).max() <= 1e-12

    def test_oblivious_subset_with_transient_agents(self):
        system = oblivious_and_stubborn_system(
            equal_weight_matrix(lazify(generate(TopologySpec("path", 3, directed=True)), 0.5)))
        assert oblivious_set(system) == frozenset({0, 1, 2, 3})
        nm = system.n * system.m
        # top columns of each kind of agent, and the stubborn agent's anchors
        columns = np.r_[0, 2 * system.m + 1, 3 * system.m, 5 * system.m + 2,
                        nm + 4 * system.m + np.arange(system.m), nm + 1]
        self.assert_matches_oracle(system, columns)

    def test_constraints_with_two_closed_classes_and_transient_topics(self):
        cycle = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 4)), 0.5))
        for system in (oblivious_and_stubborn_system(two_class_constraints()),
                       assemble(cycle, two_class_constraints(), np.ones(4),
                                np.random.default_rng(28).random((4, 5)))):
            nm = system.n * system.m
            columns = np.r_[np.arange(0, nm, 3), nm + np.arange(0, nm, 4)]
            self.assert_matches_oracle(system, columns)

    def test_no_oblivious_agent_with_periodic_constraints(self):
        # a directed 3-cycle of topics: the anchors pull every pair, so the
        # limit exists although C^k does not converge
        ring = equal_weight_matrix(generate(TopologySpec("cycle", 3, directed=True)))
        system = assemble(equal_weight_matrix(generate(TopologySpec("cycle", 4))), ring,
                          np.full(4, 0.5), np.random.default_rng(29).random((4, 3)))
        assert not oblivious_set(system)
        nm = system.n * system.m
        self.assert_matches_oracle(system, np.r_[0, 5, nm, nm + 7])

    def test_pair_solve_only_for_agents_hearing_a_stubborn_one(self, monkeypatch):
        counts = count_limit_work(monkeypatch)
        system = oblivious_and_stubborn_system(
            equal_weight_matrix(lazify(generate(TopologySpec("cycle", 3)), 0.5)))
        structural_limit(system)
        # the pair rows and solve of agents 4 and 5; agent 2's absorption
        # into {0, 1} and {3}, the only transient factor state
        assert counts == {"kron": 1, "pair": [2 * system.m], "factor": [1]}

    def test_cap_guards_only_the_pair_rows(self, monkeypatch):
        oblivious = cycle_path_system(7)
        monkeypatch.setattr(limits, "MATERIALIZE_CAP", oblivious.a.nnz * oblivious.c.nnz - 1)
        block = np.tile(oblivious.x0.ravel(), 2)[:, None]
        np.testing.assert_allclose(structural_limit(oblivious).beliefs.ravel(),
                                   system_graph_limit(oblivious, block)[:oblivious.n * oblivious.m, 0],
                                   rtol=0, atol=1e-12)
        stubborn = cycle_path_system(7, lam=np.full(7, 0.5))
        nnz = stubborn.a.nnz * stubborn.c.nnz
        with pytest.raises(TooLarge, match=rf"^transient rows need ~{nnz} nonzeros$"):
            structural_limit(stubborn)


def _stepped_gaps(system):
    """The scan's gap at steps 0, 1, ...: the 2nm-wide basis block stepped through `update`."""
    nm = system.n * system.m
    cols = mixing._start_rows(system.dim, exact_limit=256)
    target = limit_matrix(system, cols)[:nm]
    start = mixing._basis(system.dim, cols)
    cur, anchors = start[:nm], start[nm:]
    while True:
        yield mixing._column_gap(cur, target)
        cur = update(system, cur, anchors)


def _stepped_mixing_time(system, epsilon):
    """t_mix by stepping the 2nm-wide basis block through `update`, column by column."""
    for k, gap in zip(range(100_000), _stepped_gaps(system)):
        if gap <= epsilon:
            return k
    raise AssertionError("reference scan did not reach epsilon")


class TestSystemMixingTime:
    """The factor-column scan against the dense operator and the stepped scan."""

    def test_matches_dense_operator_curve(self):
        # dim <= 72 here, so every column is tracked
        rng = philox(1204)
        modes, checked = set(), 0
        while checked < 60:
            system = random_belief_system(rng)
            if not converges(system).converges:
                continue
            modes.add("ones" if np.all(system.lam == 1) else
                      "zeros" if np.all(system.lam == 0) else
                      "mixed" if np.any(system.lam == 1) else "stubborn")
            op = dense_system_operator(system.a.dense(), system.c.dense(), system.lam)
            limit = limit_matrix(system)
            for eps in (0.25, 0.05):
                t = system_mixing_time(system, eps)
                curve = np.r_[0.5 * np.abs(np.eye(system.dim) - limit).sum(axis=0).max(),
                              distance_to_limit_curve(op, limit, t)]
                assert np.all(curve[:t] > eps) and curve[t] <= eps
            checked += 1
        assert modes == {"ones", "zeros", "mixed", "stubborn"}

    def test_sampled_columns_match_stepped_scan(self):
        # lazy 15-cycle x directed path (m = 10): dim 300 > 256, so 64 sampled
        # columns, among them anchor columns of stubborn and of oblivious agents
        a = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 15)), 0.5))
        c = equal_weight_matrix(lazify(generate(TopologySpec("path", 10, directed=True)), 0.5))
        lam = np.where(np.arange(15) % 3 == 0, 0.5, 1.0)
        system = assemble(a, c, lam, philox(1205).random((15, 10)))
        nm = system.n * system.m
        cols = mixing._start_rows(system.dim, exact_limit=256)
        anchor_lam = lam[(cols[cols >= nm] - nm) // system.m]
        assert cols.size == 64 and {0.5, 1.0} <= set(anchor_lam)
        for eps in (0.25, 0.1, 0.01):
            assert system_mixing_time(system, eps) == _stepped_mixing_time(system, eps)


def recorded_jumps(monkeypatch):
    """Every jump the system scan takes, as (from k, to k); None once per scan without one."""
    jumps, real = [], mixing._bound_jump

    def recording(*args):
        jump = real(*args)
        if jump is None:
            jumps.append(None)
            return None

        def recorded(k, state):
            ahead, state = jump(k, state)
            if ahead != k:
                jumps.append((k, ahead))
            return ahead, state

        return recorded

    monkeypatch.setattr(mixing, "_bound_jump", recording)
    return jumps


class TestBoundJump:
    """The system scan's jump over steps that a non-increasing lower bound puts above epsilon."""

    @pytest.mark.parametrize("agents, constraint, directed, fires", [
        # uniform pi on the agents: the bound is the agents' L1 distance
        (("cycle", 30), ("path", 10), True, True),
        # non-uniform pi: mu = pi / max pi weighs the lollipop's path lightly
        (("lollipop", 40), ("path", 10), True, True),
        # a slow constraint: C is not within _JUMP_DELTA of its limit before t
        (("cycle", 25), ("cycle", 30), False, False),
    ])
    def test_matches_stepped_scan(self, agents, constraint, directed, fires, monkeypatch):
        a, c = lazy_chain(*agents), lazy_chain(*constraint, directed=directed)
        system = assemble(a, c, np.ones(a.n), philox(1206).random((a.n, c.n)))
        assert system.dim > 256  # sampled columns, as kronbench reproduces
        jumps = recorded_jumps(monkeypatch)
        for eps in (0.25, 0.1, 0.01):
            jumps.clear()
            t = system_mixing_time(system, eps)
            assert t == _stepped_mixing_time(system, eps)
            assert bool(jumps) == fires and all(ahead <= t for _, ahead in jumps)
            if agents[0] == "lollipop" and eps == 0.25:
                # t 1979, and the bound proves every step up to k* = 929 above eps
                assert (t, jumps[0][1]) == (1979, 930)

    def test_stubborn_anchor_columns_take_no_jump(self, monkeypatch):
        # lazy 15-cycle x directed path, every third agent at lambda 0.5: the
        # sampled columns include stubborn agents' anchor columns
        a, c = lazy_chain("cycle", 15), lazy_chain("path", 10, directed=True)
        lam = np.where(np.arange(15) % 3 == 0, 0.5, 1.0)
        system = assemble(a, c, lam, philox(1205).random((15, 10)))
        calls = []
        monkeypatch.setattr(mixing, "_bound_jump", lambda *args: calls.append(args))
        assert system_mixing_time(system, 0.25) == _stepped_mixing_time(system, 0.25)
        assert calls == []

    def test_power_budget_shortens_the_jump(self, monkeypatch):
        # three powers of two (1, 2, 4 steps) cover at most 7 steps past the
        # jump point, so the scan resumes at most 8 steps on; t does not move
        a, c = lazy_chain("cycle", 30), lazy_chain("path", 10, directed=True)
        system = assemble(a, c, np.ones(30), np.full((30, 10), 0.5))
        monkeypatch.setattr(mixing, "_POWER_BUDGET", 3 * (30 * 30 + 10 * 10))
        jumps = recorded_jumps(monkeypatch)
        assert system_mixing_time(system, 0.25) == 295
        (k, ahead), = jumps
        assert k < ahead <= k + 8

    @pytest.mark.parametrize("ready", [0.5, 4.0])
    def test_early_jump_is_shorter_not_wrong(self, ready, monkeypatch):
        # with C still far from its limit, the bound pays for that distance
        # (delta) and proves fewer steps: t does not move
        a, c = lazy_chain("cycle", 30), lazy_chain("path", 10, directed=True)
        system = assemble(a, c, np.ones(30), np.full((30, 10), 0.5))
        monkeypatch.setattr(mixing, "_JUMP_DELTA", ready)
        jumps = recorded_jumps(monkeypatch)
        for eps in (0.25, 0.1, 0.01):
            jumps.clear()
            assert system_mixing_time(system, eps) == _stepped_mixing_time(system, eps)
            assert len(jumps) == 1

    def test_no_jump_when_the_budget_cannot_hold_paying_powers(self, monkeypatch):
        # lazy 30-cycle x directed path, 29 columns: one level of the jump
        # costs under 2 sparse steps, so the 2 powers of one level pay for
        # themselves; a budget of one power takes no jump, one of two does, and
        # t does not move
        a, c = lazy_chain("cycle", 30), lazy_chain("path", 10, directed=True)
        system = assemble(a, c, np.ones(30), np.full((30, 10), 0.5))
        jumps = recorded_jumps(monkeypatch)
        monkeypatch.setattr(mixing, "_POWER_BUDGET", 30 * 30 + 10 * 10)
        assert system_mixing_time(system, 0.25) == 295
        assert jumps == [None]
        monkeypatch.setattr(mixing, "_POWER_BUDGET", 2 * (30 * 30 + 10 * 10))
        assert system_mixing_time(system, 0.25) == 295
        (k, ahead), = jumps[1:]
        assert k < ahead <= k + 4  # powers of 1 and 2 steps cover 3

    def test_jump_waits_until_its_squarings_are_paid(self, monkeypatch):
        # lazy 200-cycle x directed path: a level of the jump (two squarings
        # and two applications, a dense flop counted as 1/16 of a sparse one)
        # costs `cost` sparse steps, and the scan has stepped enough that
        # s levels cost no more than what it stepped and what s - 1 levels
        # prove, for every s. The path is within 2^-20 of its limit from
        # step 54, long before that
        a, c = lazy_chain("cycle", 200), lazy_chain("path", 10, directed=True)
        system = assemble(a, c, np.ones(200), np.full((200, 10), 0.5))
        cols = mixing._start_rows(system.dim, mixing.SYSTEM_EXACT_START_LIMIT)
        w = int((cols < 2000).sum())
        cost = (200 ** 3 + 10 ** 3 + 2 * (200 ** 2 + 10 ** 2) * w) / (16 * (a.nnz + c.nnz) * w)
        jumps = recorded_jumps(monkeypatch)
        assert system_mixing_time(system, 0.25) == 13120  # the parent's stepped scan
        (k, ahead), = jumps
        assert ahead == 13120 and 100 < k
        assert all(s * cost <= k + 2 ** (s - 1) for s in range(1, 40))
        assert any(s * cost > k - 1 - (k - 1) // 8 + 2 ** (s - 1) for s in range(1, 40))

    def test_step_cap_inside_the_jump(self, monkeypatch):
        # lazy 30-cycle x directed path, lambda 1, eps 0.01: t 588, and the jump
        # from about step 54 would pass max_steps 300. It stops there, and the
        # error gives the exact gap at max_steps
        a, c = lazy_chain("cycle", 30), lazy_chain("path", 10, directed=True)
        system = assemble(a, c, np.ones(30), np.full((30, 10), 0.5))
        jumps = recorded_jumps(monkeypatch)
        with pytest.raises(FailedToConverge) as info:
            system_mixing_time(system, 0.01, max_steps=300)
        (k, ahead), = jumps
        assert 54 <= k < 64 and ahead == 300
        reported = float(re.fullmatch(r"distance to limit still (\S+) after 300 steps",
                                      str(info.value)).group(1))
        gaps = _stepped_gaps(system)
        exact = [next(gaps) for _ in range(301)][300]
        assert exact > 0.01 and reported == float(f"{exact:.3g}")
        assert system_mixing_time(system, 0.01, max_steps=588) == 588

    def test_scan_cannot_start_past_its_cap(self):
        with pytest.raises(ValueError, match="past max_steps"):
            mixing._first_within(lambda state: state, None, lambda state: 1.0, 0.25, 3, start=4)
