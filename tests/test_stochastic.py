import numpy as np
import pytest
import scipy.sparse as sp

from kronmix import stochastic
from kronmix.beliefs import assemble
from kronmix.errors import DanglingNode, NotErgodic, NotStochastic
from kronmix.generators import TopologySpec, generate, lazify
from kronmix.graphs import DirectedGraph
from kronmix.kron import kron
from kronmix.limits import social_power, structural_limit
from kronmix.mixing import _column_gap, analyze_mixing
from kronmix.netio import ExperimentConfig, run_experiment
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

    def test_row_off_by_1e_8_rejected_as_given(self):
        # rows are validated as given, never rescaled
        with pytest.raises(NotStochastic) as exc:
            StochasticMatrix([[0.25, 0.75], [0.5 + 1e-8, 0.5]])
        assert exc.value.row == 1


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


class TestKeptChains:
    """A chain solves its Perron vector once and builds each restriction once."""

    @pytest.fixture
    def solves(self, monkeypatch):
        count, real = [0], stochastic._dominant_eigenpair

        def counting(matvec, n):
            count[0] += 1
            return real(matvec, n)

        # `stationary` reads this module binding; `second_eigenvalue` has its own
        monkeypatch.setattr(stochastic, "_dominant_eigenpair", counting)
        return count

    def test_analyze_mixing_solves_once(self, solves):
        m = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 9)), 0.5))
        analyze_mixing(m)
        assert solves[0] == 1

    def test_limit_and_social_power_share_the_factors_vectors(self, solves):
        a = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 5)), 0.5))
        c = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 4)), 0.5))
        system = assemble(a, c, np.ones(5), np.random.default_rng(2).random((5, 4)))
        structural_limit(system)
        social_power(system.a)
        assert solves[0] == 2

    def test_readme_sweep_point_solves_each_class_once(self, solves, tmp_path):
        # the lazy 21-cycle and the directed path's sink, each read by the
        # coupling and |lambda_2| columns, t_mix and the limit
        cfg = ExperimentConfig(agent=TopologySpec("cycle", 21),
                               constraint=TopologySpec("path", 10, directed=True),
                               sweep="n", sweep_start=21, sweep_stop=21, sweep_stride=10,
                               epsilon=0.25, seed=1, alpha=0.5, outdir=str(tmp_path / "out"))
        [row] = run_experiment(cfg)
        assert row["error"] == "" and row["t_mix"] == 145
        assert solves[0] == 2

    def test_stationary_read_only(self):
        m = equal_weight_matrix(generate(TopologySpec("complete", 4)))
        pi = stationary(m)
        assert stationary(m) is pi
        with pytest.raises(ValueError):
            pi[0] = 1.0

    def test_a_csr_input_is_copied(self):
        # a lazy 3-state ring with an explicit zero at (0, 2)
        given = sp.csr_matrix((np.array([0.5, 0.5, 0.0, 0.5, 0.5, 0.5, 0.5]),
                               np.array([0, 1, 2, 1, 2, 0, 2]), np.array([0, 3, 5, 7])),
                              shape=(3, 3))
        m = StochasticMatrix(given)
        assert given.nnz == 7 and m.nnz == 6
        kept, pi = m.dense(), stationary(m).copy()
        given.data[0] = 5.0
        np.testing.assert_array_equal(m.dense(), kept)
        np.testing.assert_array_equal(stationary(m), pi)

    def test_restrict_keeps_one_chain_per_set(self):
        m = equal_weight_matrix(generate(TopologySpec("path", 4, directed=True)))
        assert m.restrict(np.arange(4)) is m
        sink = m.restrict([3])
        assert m.restrict(np.array([3])) is sink
        np.testing.assert_array_equal(sink.dense(), [[1.0]])
        with pytest.raises(NotStochastic):
            m.restrict([2, 1])  # node 2 steps to 3, outside the set


class TestPowerLimit:
    """lim P^k from each closed class's pi and one absorption solve, kept on the chain."""

    def test_matches_matrix_power(self):
        rng = np.random.default_rng(27)
        classes, transient = set(), 0
        for _ in range(40):
            n = int(rng.integers(2, 9))
            # every weight is at least 0.1 before the rows are scaled, so 4096
            # steps reach the limit
            raw = (rng.random((n, n)) + 0.1) * (rng.random((n, n)) < 0.3)
            raw[np.arange(n), np.arange(n)] += 0.3  # aperiodic, and no state dangles
            m = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
            limit = stochastic.power_limit(m)
            classes.add(limit.weights.shape[0])
            transient += limit.transient.size > 0
            np.testing.assert_allclose(limit.apply(np.eye(n)),
                                       np.linalg.matrix_power(m.dense(), 4096),
                                       rtol=0, atol=1e-12)
        assert max(classes) >= 3 and transient >= 10

    def test_identity_has_one_class_per_state(self):
        limit = stochastic.power_limit(StochasticMatrix(np.eye(4)))
        assert limit.weights.shape == (4, 4) and limit.absorb.shape == (0, 4)
        x = np.random.default_rng(28).random((4, 3))
        np.testing.assert_array_equal(limit.apply(x), x)

    def test_kept_but_a_periodic_class_raises_each_time(self):
        path = equal_weight_matrix(generate(TopologySpec("path", 4, directed=True)))
        assert stochastic.power_limit(path) is stochastic.power_limit(path)
        np.testing.assert_allclose(stochastic.power_limit(path).absorb, np.ones((3, 1)))
        ring = equal_weight_matrix(generate(TopologySpec("cycle", 3, directed=True)))
        for _ in range(2):
            with pytest.raises(NotErgodic):
                stochastic.power_limit(ring)


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
