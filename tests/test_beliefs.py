import numpy as np
import pytest

from kronmix import beliefs
from kronmix.beliefs import (assemble, converges, oblivious_set, simulate,
                             system_matrix, update)
from kronmix.errors import NonConvergent
from kronmix.generators import TopologySpec, generate, lazify
from kronmix.limits import structural_limit
from kronmix.stochastic import StochasticMatrix, equal_weight_matrix
from oracles import dense_system_operator, empirical_convergence, oblivious_fixed_point


def cycle_path_system(n_agents=5, lam=None, seed=0):
    """Agents on an undirected cycle, constraints on a directed path."""
    a = equal_weight_matrix(generate(TopologySpec("cycle", n_agents)))
    c = equal_weight_matrix(generate(TopologySpec("path", 4, directed=True)))
    rng = np.random.default_rng(seed)
    lam = np.ones(n_agents) if lam is None else lam
    return assemble(a, c, lam, rng.random((n_agents, 4)))


def random_system(rng, n=None, m=None):
    n = n or int(rng.integers(2, 7))
    m = m or int(rng.integers(2, 7))

    def random_chain(size):
        edges = [(i, j) for i in range(size) for j in range(size)
                 if rng.random() < 0.4]
        from kronmix.graphs import DirectedGraph
        g = DirectedGraph(size, edges)
        deg = np.zeros(size)
        np.add.at(deg, g.sources, 1)
        if deg.min() == 0:
            g = lazify(g, float(rng.uniform(0.1, 0.6)))
        return equal_weight_matrix(g)

    a, c = random_chain(n), random_chain(m)
    mode = rng.integers(3)
    if mode == 0:
        lam = np.ones(n)
    elif mode == 1:
        lam = rng.uniform(0, 1, n)
    else:
        lam = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0, 1, n))
    return assemble(a, c, lam, rng.random((n, m)))


class TestAssemble:
    def test_dimension(self):
        system = cycle_path_system()
        assert system.dim == 2 * 5 * 4
        assert system_matrix(system).shape == (40, 40)

    def test_all_oblivious_kills_anchor_block(self):
        system = cycle_path_system(lam=np.ones(5))
        mat = system_matrix(system).toarray()
        nm = 20
        assert np.all(mat[:nm, nm:] == 0)

    def test_all_stubborn_zero_lambda_maps_to_anchors(self):
        system = cycle_path_system(lam=np.zeros(5))
        x = update(system, np.full((5, 4), 0.5), system.x0)
        np.testing.assert_allclose(x, system.x0, atol=1e-15)

    def test_validation(self):
        a = StochasticMatrix(np.eye(3))
        c = StochasticMatrix(np.eye(2))
        with pytest.raises(ValueError):
            assemble(a, c, np.ones(2), np.zeros((3, 2)))  # lambda length
        with pytest.raises(ValueError):
            assemble(a, c, np.ones(3), np.zeros((2, 3)))  # x0 shape
        with pytest.raises(ValueError):
            assemble(a, c, np.full(3, 1.5), np.zeros((3, 2)))  # lambda range
        with pytest.raises(ValueError):
            assemble(a, c, np.ones(3), np.full((3, 2), 2.0))  # x0 range

    def test_nan_rejected(self):
        a = StochasticMatrix(np.eye(3))
        c = StochasticMatrix(np.eye(2))
        with pytest.raises(ValueError, match="lambda"):
            assemble(a, c, [1.0, np.nan, 1.0], np.zeros((3, 2)))
        x0 = np.zeros((3, 2))
        x0[2, 1] = np.nan
        with pytest.raises(ValueError, match="initial beliefs"):
            assemble(a, c, np.ones(3), x0)

    def test_inputs_are_copied(self):
        a = StochasticMatrix(np.eye(3))
        c = StochasticMatrix(np.eye(2))
        lam, x0 = np.ones(3), np.zeros((3, 2))
        system = assemble(a, c, lam, x0)
        lam[0], x0[0, 0] = 7.0, 7.0
        np.testing.assert_array_equal(system.lam, np.ones(3))
        np.testing.assert_array_equal(system.x0, np.zeros((3, 2)))


class TestStep:
    def test_matches_dense_operator(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            system = random_system(rng)
            dense = dense_system_operator(system.a.dense(), system.c.dense(),
                                          system.lam)
            cur = system.x0
            x = np.concatenate([cur.ravel(), system.x0.ravel()])
            for _ in range(4):
                cur = update(system, cur, system.x0)
                x = dense @ x
                np.testing.assert_allclose(np.concatenate([cur.ravel(), system.x0.ravel()]),
                                           x, atol=1e-12)

    def test_row_major_state_layout(self):
        # system operator equals the dense kron blocks under (agent, topic) indexing
        rng = np.random.default_rng(2)
        system = random_system(rng, 3, 4)
        sparse = system_matrix(system).toarray()
        dense = dense_system_operator(system.a.dense(), system.c.dense(), system.lam)
        np.testing.assert_allclose(sparse, dense, atol=1e-14)

    def test_anchors_and_bounds_preserved(self):
        rng = np.random.default_rng(3)
        system = random_system(rng)
        anchors = system.x0.copy()
        x = system.x0
        for _ in range(50):
            x = update(system, x, system.x0)
            assert np.array_equal(system.x0, anchors)
            assert x.min() >= 0 and x.max() <= 1

    def test_constant_state_is_fixed(self):
        rng = np.random.default_rng(4)
        system = random_system(rng)
        const = np.full((system.n, system.m), 0.7)
        system = assemble(system.a, system.c, system.lam, const)
        np.testing.assert_allclose(update(system, const, system.x0), 0.7, atol=1e-12)

    @pytest.mark.parametrize("lam", [np.ones(5), np.r_[0.5, 1.0, 0.0, 1.0, 0.25]])
    def test_bit_for_bit_the_blended_formula(self, lam):
        # a lambda = 1 system skips the blend; X * 1 + 0 is exact, so nothing changes
        system = cycle_path_system(lam=lam)
        anchors = np.random.default_rng(5).random((5, 4, 3))
        x = np.random.default_rng(6).random((5, 4, 3))
        aggregated = (system.a.csr @ (system.c.csr @ x.transpose(1, 0, 2).reshape(4, 15))
                      .reshape(4, 5, 3).transpose(1, 0, 2).reshape(5, 12)).reshape(5, 4, 3)
        blended = aggregated * lam[:, None, None] + (1.0 - lam[:, None, None]) * anchors
        assert np.array_equal(update(system, x, anchors), blended)


class TestConverges:
    def test_odd_cycle_converges(self):
        verdict = converges(cycle_path_system(5))
        assert verdict.converges
        assert verdict.witnesses == []

    def test_even_cycle_does_not(self):
        verdict = converges(cycle_path_system(4))
        assert not verdict.converges
        tags = {w[0] for w in verdict.witnesses}
        assert tags == {"oblivious-agents"}
        assert verdict.witnesses[0][2] == 2

    def test_all_stubborn_converges(self):
        a = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 4)), 0.3))
        c = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 3)), 0.3))
        system = assemble(a, c, np.full(4, 0.8), np.zeros((4, 3)))
        assert converges(system).converges

    def test_stubborn_with_periodic_constraints_converges(self):
        # no oblivious agents: the anchor pull contracts regardless of C
        a = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        c = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        system = assemble(a, c, np.array([0.5, 0.9]), np.full((2, 2), 0.25))
        assert converges(system).converges
        dense = dense_system_operator(system.a.dense(), system.c.dense(), system.lam)
        assert empirical_convergence(dense)

    def test_oblivious_with_periodic_constraints_fails(self):
        a = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        c = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        system = assemble(a, c, np.ones(2), np.array([[0.1, 0.9], [0.4, 0.2]]))
        verdict = converges(system)
        assert not verdict.converges
        assert {w[0] for w in verdict.witnesses} == {"logic-constraints"}

    def test_oblivious_set_transitive_influence(self):
        # 0 <- 1 <- 2(stubborn): influence flows down the listening chain
        a = StochasticMatrix(np.array([[0.0, 1.0, 0.0],
                                       [0.0, 0.0, 1.0],
                                       [0.0, 0.0, 1.0]]))
        c = StochasticMatrix(np.eye(2))
        system = assemble(a, c, np.array([1.0, 1.0, 0.5]), np.zeros((3, 2)))
        assert oblivious_set(system) == frozenset()

    def test_oblivious_set_isolated_component(self):
        a = StochasticMatrix(np.array([[0.0, 1.0, 0.0],
                                       [1.0, 0.0, 0.0],
                                       [1.0, 0.0, 0.0]]))
        c = StochasticMatrix(np.eye(2))
        system = assemble(a, c, np.array([1.0, 1.0, 0.2]), np.zeros((3, 2)))
        assert oblivious_set(system) == frozenset({0, 1})

    def test_oblivious_set_matches_fixed_point_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            raw = (rng.random((n, n)) < rng.uniform(0.05, 0.4)) * rng.random((n, n))
            raw += np.diag(raw.sum(axis=1) == 0)  # a self-loop for each empty row
            lam = np.where(rng.random(n) < 0.8, 1.0, rng.uniform(0.0, 1.0, n))
            system = assemble(raw / raw.sum(axis=1, keepdims=True), np.eye(1), lam,
                              np.zeros((n, 1)))
            assert oblivious_set(system) == oblivious_fixed_point(system.a.dense(), lam)

    def test_agrees_with_empirical_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(60):
            system = random_system(rng)
            dense = dense_system_operator(system.a.dense(), system.c.dense(),
                                          system.lam)
            want = empirical_convergence(dense, seed=trial)
            assert converges(system).converges == want


class TestSimulate:
    def test_zero_lambda_stops_immediately(self):
        system = cycle_path_system(lam=np.zeros(5))
        result = simulate(system)
        assert result.iterations == 1
        np.testing.assert_allclose(result.beliefs(system), system.x0, atol=1e-15)

    def test_fig2_reaches_global_consensus(self):
        system = cycle_path_system()
        result = simulate(system, stop_delta=1e-12)
        beliefs = result.beliefs(system)
        assert result.converged
        assert np.ptp(beliefs) < 1e-6  # one value across agents and topics

    def test_matches_structural_limit(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 10:
            system = random_system(rng)
            if not converges(system).converges:
                continue
            checked += 1
            result = simulate(system, stop_delta=1e-13, max_iter=200_000)
            limit = structural_limit(system)
            np.testing.assert_allclose(result.beliefs(system), limit.beliefs,
                                       atol=1e-8)

    def test_nonconvergent_verdict_raises(self):
        system = cycle_path_system(4)
        with pytest.raises(NonConvergent):
            simulate(system)

    def test_oscillation_detected_without_verdict(self):
        system = cycle_path_system(4)
        with pytest.raises(NonConvergent):
            simulate(system, check_convergence=False, max_iter=2000)

    def test_periodic_stall_raises_early(self, monkeypatch):
        # without the verdict the period-2 oscillation is caught by the stall
        # rule within a few windows, not after max_iter updates
        calls = []

        def counted(*args):
            calls.append(1)
            return update(*args)

        monkeypatch.setattr(beliefs, "update", counted)
        with pytest.raises(NonConvergent):
            simulate(cycle_path_system(4), check_convergence=False)
        assert 0 < len(calls) <= 300

    @pytest.mark.parametrize("kwargs", [{"max_iter": -1}, {"stop_delta": -1.0},
                                        {"stop_delta": np.nan}])
    def test_bad_arguments_raise(self, kwargs, monkeypatch):
        monkeypatch.setattr(beliefs, "update", None)  # rejected before any step
        # the periodic 4-cycle system: arguments are checked before the verdict
        for system in (cycle_path_system(), cycle_path_system(4)):
            with pytest.raises(ValueError):
                simulate(system, **kwargs)

    def test_zero_iterations_return_x0(self):
        system = cycle_path_system()
        result = simulate(system, max_iter=0)
        assert (result.iterations, result.converged) == (0, False)
        np.testing.assert_array_equal(result.beliefs(system), system.x0)

    def test_cap_without_stall_returns_unconverged(self):
        system = cycle_path_system()
        result = simulate(system, max_iter=5)
        assert not result.converged
        assert result.iterations == 5
        assert result.final_delta > 1e-10
        np.testing.assert_array_equal(result.state.x[20:], system.x0.ravel())
