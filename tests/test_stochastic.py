import numpy as np
import pytest

from kronmix.errors import DanglingNode, NotErgodic, NotStochastic
from kronmix.generators import TopologySpec, generate, lazify
from kronmix.graphs import DirectedGraph
from kronmix.kron import kron
from kronmix.mixing import _column_gap
from kronmix.stochastic import StochasticMatrix, equal_weight_matrix, stationary, validate_stochastic
from oracles import dense_evolve, evolve, two_state_stationary


def random_stochastic(rng, n):
    raw = rng.random((n, n)) + 0.05
    return StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))


class TestEqualWeight:
    def test_directed_path_with_terminal_loop(self):
        g = generate(TopologySpec("path", 3, directed=True))
        m = equal_weight_matrix(g).dense()
        expected = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 1.0]])
        np.testing.assert_allclose(m, expected)

    def test_complete_three(self):
        g = generate(TopologySpec("complete", 3))
        m = equal_weight_matrix(g).dense()
        np.testing.assert_allclose(sorted(m[0]), [0, 0.5, 0.5])
        np.testing.assert_allclose(m.diagonal(), 0)

    def test_dangling_node_named(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(DanglingNode) as exc:
            equal_weight_matrix(g)
        assert exc.value.node == 2

    def test_weighted_rows_normalized(self):
        g = lazify(generate(TopologySpec("cycle", 4)), 0.25)
        m = equal_weight_matrix(g).dense()
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(m.diagonal(), 0.25, atol=1e-12)

    @pytest.mark.parametrize("family, n", [("hypercube", 64), ("lollipop", 30),
                                           ("erdos-renyi", 40)])
    def test_lazy_rows_divide_by_sequential_totals(self, family, n):
        # bit for bit: each weight over its row total summed edge by edge
        g = lazify(generate(TopologySpec(family, n, p=0.2)), 0.5)
        totals = np.zeros(g.node_count)
        for s, w in zip(g.sources.tolist(), g.weights.tolist()):
            totals[s] += w
        m = equal_weight_matrix(g).csr
        assert np.array_equal(m.indptr, g._indptr)
        assert np.array_equal(m.indices, g.targets)
        assert np.array_equal(m.data, g.weights / totals[g.sources])


class TestValidate:
    def test_identity_passes(self):
        assert validate_stochastic(np.eye(4))

    def test_deficient_row_flagged(self):
        bad = np.array([[1.0, 0.0], [0.4, 0.5]])
        with pytest.raises(NotStochastic) as exc:
            validate_stochastic(bad)
        assert exc.value.row == 1

    def test_negative_entry_flagged(self):
        bad = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(NotStochastic):
            validate_stochastic(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_flagged(self, value):
        # NaN fails every comparison, so the sign and row-sum checks alone pass it
        bad = np.array([[1.0, 0.0], [0.5, 0.5], [value, 1.0]])
        with pytest.raises(NotStochastic, match="non-finite") as exc:
            validate_stochastic(bad)
        assert exc.value.row == 2
        with pytest.raises(NotStochastic):
            StochasticMatrix([[np.nan, 1.0], [0.5, 0.5]])

    def test_renormalize_fixes_small_drift(self):
        drift = np.array([[0.5 + 1e-8, 0.5], [0.25, 0.75]])
        m = StochasticMatrix(drift, renormalize=True)
        np.testing.assert_allclose(np.asarray(m.csr.sum(axis=1)).ravel(), 1.0,
                                   atol=1e-12)


class TestEvolve:
    def test_uniform_fixed_under_doubly_stochastic(self):
        m = StochasticMatrix(np.full((4, 4), 0.25))
        out = evolve(np.full(4, 0.25), m, 5)
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_point_mass_one_step_is_row(self):
        m = random_stochastic(np.random.default_rng(0), 5)
        v = np.zeros(5)
        v[2] = 1.0
        np.testing.assert_allclose(evolve(v, m, 1), m.dense()[2], atol=1e-15)

    def test_matches_dense_power_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = random_stochastic(rng, 6)
            v = rng.random(6)
            v /= v.sum()
            steps = int(rng.integers(1, 8))
            np.testing.assert_allclose(evolve(v, m, steps),
                                       dense_evolve(v, m.dense(), steps), atol=1e-12)

    def test_dimension_mismatch(self):
        m = random_stochastic(np.random.default_rng(2), 4)
        with pytest.raises(ValueError):
            evolve(np.ones(3) / 3, m, 1)

    def test_mass_and_positivity_preserved(self):
        rng = np.random.default_rng(3)
        m = random_stochastic(rng, 8)
        v = rng.random(8)
        v /= v.sum()
        for _ in range(20):
            v = evolve(v, m, 1)
            assert v.min() >= 0
            assert abs(v.sum() - 1.0) < 1e-12


class TestStationary:
    def test_complete_graph_uniform(self):
        m = equal_weight_matrix(generate(TopologySpec("complete", 6)))
        np.testing.assert_allclose(stationary(m), 1 / 6, atol=1e-11)

    def test_two_state_analytic(self):
        mat = np.array([[0.9, 0.1], [0.5, 0.5]])
        pi = stationary(StochasticMatrix(mat))
        np.testing.assert_allclose(pi, [5 / 6, 1 / 6], atol=1e-11)
        np.testing.assert_allclose(pi, two_state_stationary(mat), atol=1e-11)

    def test_periodic_chain_rejected(self):
        two_cycle = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NotErgodic):
            stationary(two_cycle)

    def test_reducible_chain_rejected(self):
        with pytest.raises(NotErgodic):
            stationary(StochasticMatrix(np.eye(3)))

    def test_fixed_point_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = random_stochastic(rng, 7)
            pi = stationary(m)
            assert total_variation(evolve(pi, m, 1), pi) <= 1e-12

    def test_kronecker_compatibility(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m1 = random_stochastic(rng, 4)
            m2 = random_stochastic(rng, 5)
            pi = stationary(kron(m1, m2))
            want = np.kron(stationary(m1), stationary(m2))
            assert np.abs(pi - want).sum() <= 1e-10

    # A lazy walk on an undirected graph has pi proportional to degree. ARPACK
    # stops on a residual near machine epsilon, so pi is good to about
    # eps / spectral gap: the tolerances sit one to two orders above the
    # errors measured over a dozen start vectors, and below the errors of
    # the power iteration this replaced (3.9e-9 and 4.0e-7).
    @pytest.mark.parametrize("family, n, tol", [("lollipop", 100, 1e-10),
                                                ("path", 2000, 1e-8)])
    def test_lazy_walk_proportional_to_degree(self, family, n, tol):
        graph = generate(TopologySpec(family, n))
        degree = np.diff(graph._indptr).astype(np.float64)
        pi = stationary(equal_weight_matrix(lazify(graph, 0.5)))
        assert np.abs(pi - degree / degree.sum()).sum() <= tol


def total_variation(p, q):
    """The library's distance on two distributions, as one-column blocks."""
    return _column_gap(np.asarray(p, dtype=np.float64)[:, None],
                       np.asarray(q, dtype=np.float64)[:, None])


class TestTvDistance:
    def test_equal_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert total_variation(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert total_variation([1, 0], [0, 1]) == 1.0

    def test_half_l1(self):
        assert total_variation([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            total_variation([1.0, 0.0, 0.0], [0.5, 0.5])

    def test_metric_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p, q, r = (rng.random(5) for _ in range(3))
            p, q, r = p / p.sum(), q / q.sum(), r / r.sum()
            assert total_variation(p, q) == pytest.approx(total_variation(q, p))
            assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-15
            assert 0 <= total_variation(p, q) <= 1
