import math

import numpy as np
import pytest

from kronmix.errors import SpecError
from kronmix.generators import FAMILIES, TopologySpec, generate, lazify
from kronmix.graphs import scc_decompose
from kronmix.stochastic import equal_weight_matrix
from oracles import edge_dict, lazify_loop


def degrees(graph):
    deg = np.zeros(graph.node_count, dtype=int)
    np.add.at(deg, graph.sources, 1)
    return deg


class TestDeterministicFamilies:
    def test_cycle_directed(self):
        g = generate(TopologySpec("cycle", 5, directed=True))
        assert (g.node_count, g.edge_count) == (5, 5)

    def test_cycle_undirected_symmetric(self):
        g = generate(TopologySpec("cycle", 5))
        assert g.edge_count == 10
        assert set(edge_dict(g)) == {(t, s) for s, t in edge_dict(g)}

    def test_path_directed_terminal_loop(self):
        g = generate(TopologySpec("path", 4, directed=True))
        assert (3, 3) in edge_dict(g)
        assert degrees(g).min() >= 1

    def test_star_directed_center_loop(self):
        g = generate(TopologySpec("star", 5, directed=True))
        assert (0, 0) in edge_dict(g)
        assert degrees(g).min() >= 1

    def test_two_star_center_to_center(self):
        g = generate(TopologySpec("two-star", 8))
        assert {(0, 1), (1, 0)} <= set(edge_dict(g))
        deg = degrees(g)
        assert deg[0] + deg[1] == 6 + 2  # six leaves plus the joining edge

    def test_hypercube(self):
        g = generate(TopologySpec("hypercube", 8, k=3))
        assert g.node_count == 8
        assert set(degrees(g).tolist()) == {3}

    def test_complete(self):
        g = generate(TopologySpec("complete", 4))
        assert g.edge_count == 12
        assert not any(s == t for s, t in edge_dict(g))

    def test_dumbbell_and_lollipop_and_bolas_connected(self):
        for family in ("dumbbell", "lollipop", "bolas"):
            g = generate(TopologySpec(family, 12))
            assert g.node_count == 12
            assert scc_decompose(g).count == 1

    def test_bolas_bridge_parameter(self):
        g = generate(TopologySpec("bolas", 10, bridge=2))
        assert g.node_count == 10
        assert scc_decompose(g).count == 1

    def test_binary_tree(self):
        g = generate(TopologySpec("binary-tree", 7))
        assert g.edge_count == 12  # 6 undirected edges
        assert scc_decompose(g).count == 1

    def test_grid_and_torus(self):
        grid = generate(TopologySpec("grid-kd", 9, k=2))
        torus = generate(TopologySpec("torus-kd", 9, k=2))
        assert grid.node_count == 9
        assert torus.node_count == 9
        assert torus.edge_count > grid.edge_count  # wraparound adds edges
        assert set(degrees(torus).tolist()) == {4}

    def test_eulerian_ring_balanced(self):
        g = generate(TopologySpec("eulerian-ring", 7, k=2))
        out_deg = degrees(g)
        in_deg = np.zeros(7, dtype=int)
        np.add.at(in_deg, g.targets, 1)
        assert set(out_deg.tolist()) == {2}
        assert set(in_deg.tolist()) == {2}
        assert scc_decompose(g).periods == [1]


class TestRandomFamilies:
    def test_same_seed_identical(self):
        for family, kwargs in (("erdos-renyi", {"p": 0.3}),
                               ("newman-watts", {"k": 2, "p": 0.2}),
                               ("geometric", {"r": 0.4})):
            a = generate(TopologySpec(family, 30, seed=99, **kwargs))
            b = generate(TopologySpec(family, 30, seed=99, **kwargs))
            assert np.array_equal(a.sources, b.sources)
            assert np.array_equal(a.targets, b.targets)
            c = generate(TopologySpec(family, 30, seed=100, **kwargs))
            assert (not np.array_equal(a.sources, c.sources)
                    or not np.array_equal(a.targets, c.targets))

    def test_erdos_renyi_degenerate_p(self):
        full = generate(TopologySpec("erdos-renyi", 20, p=1.0, seed=1))
        assert full.edge_count == 20 * 19
        empty = generate(TopologySpec("erdos-renyi", 20, p=0.0, seed=1))
        assert empty.edge_count == 0

    def test_geometric_max_radius_complete(self):
        g = generate(TopologySpec("geometric", 15, r=math.sqrt(2), seed=5))
        assert g.edge_count == 15 * 14
        assert scc_decompose(g).count == 1

    def test_geometric_reports_components(self):
        g = generate(TopologySpec("geometric", 40, r=0.05, seed=5))
        assert scc_decompose(g).count >= 2

    def test_newman_watts_p_zero_is_ring(self):
        n, k = 12, 2
        g = generate(TopologySpec("newman-watts", n, k=k, p=0.0, seed=3))
        want = set()
        for i in range(n):
            for j in range(1, k + 1):
                want.add((i, (i + j) % n))
                want.add(((i + j) % n, i))
        assert set(edge_dict(g)) == want

    def test_newman_watts_symmetric(self):
        g = generate(TopologySpec("newman-watts", 20, k=2, p=0.4, seed=8))
        assert set(edge_dict(g)) == {(t, s) for s, t in edge_dict(g)}


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(SpecError):
            generate(TopologySpec("mobius", 5))

    def test_bad_parameters(self):
        for spec in (TopologySpec("erdos-renyi", 10, p=1.5),
                     TopologySpec("geometric", 10, r=2.0),
                     TopologySpec("newman-watts", 10, k=6, p=0.1),
                     TopologySpec("two-star", 3),
                     TopologySpec("cycle", 2),
                     TopologySpec("dumbbell", 10, directed=True)):
            with pytest.raises(SpecError):
                generate(spec)

    def test_all_families_buildable(self):
        specs = {
            "cycle": TopologySpec("cycle", 6), "path": TopologySpec("path", 6),
            "star": TopologySpec("star", 6), "two-star": TopologySpec("two-star", 8),
            "complete": TopologySpec("complete", 6),
            "dumbbell": TopologySpec("dumbbell", 8),
            "lollipop": TopologySpec("lollipop", 8),
            "bolas": TopologySpec("bolas", 9),
            "binary-tree": TopologySpec("binary-tree", 7),
            "hypercube": TopologySpec("hypercube", 8, k=3),
            "grid-kd": TopologySpec("grid-kd", 9, k=2),
            "torus-kd": TopologySpec("torus-kd", 27, k=3),
            "eulerian-ring": TopologySpec("eulerian-ring", 8, k=2),
            "erdos-renyi": TopologySpec("erdos-renyi", 12, p=0.5),
            "newman-watts": TopologySpec("newman-watts", 12, k=2, p=0.2),
            "geometric": TopologySpec("geometric", 12, r=0.8),
        }
        assert set(specs) == set(FAMILIES)
        for spec in specs.values():
            g = generate(spec)
            assert g.node_count > 0


class TestLazify:
    def test_two_cycle_becomes_aperiodic(self):
        g = generate(TopologySpec("cycle", 2, directed=True))
        assert scc_decompose(g).periods == [2]
        lazy = lazify(g, 0.3)
        assert scc_decompose(lazy).periods == [1]

    def test_half_alpha_gives_half_diagonal(self):
        for family in ("cycle", "complete", "star"):
            g = lazify(generate(TopologySpec(family, 7)), 0.5)
            m = equal_weight_matrix(g).dense()
            np.testing.assert_allclose(m.diagonal(), 0.5, atol=1e-12)

    def test_row_sums_exact(self):
        g = lazify(generate(TopologySpec("binary-tree", 15)), 0.37)
        sums = np.asarray(equal_weight_matrix(g).csr.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_isolated_node_gets_unit_loop(self):
        from kronmix.graphs import DirectedGraph
        g = DirectedGraph(2, [(0, 1)])
        lazy = lazify(g, 0.25)
        m = equal_weight_matrix(lazy).dense()
        assert m[1, 1] == pytest.approx(1.0)
        assert m[0, 0] == pytest.approx(0.25)

    def test_alpha_zero_only_fixes_dangling(self):
        from kronmix.graphs import DirectedGraph
        g = DirectedGraph(2, [(0, 1)])
        lazy = lazify(g, 0.0)
        assert (1, 1) in edge_dict(lazy)
        assert (0, 0) not in edge_dict(lazy)

    def test_matches_loop_oracle(self):
        from kronmix.graphs import DirectedGraph
        rng = np.random.default_rng(21)
        edges = rng.integers(0, 30, size=(120, 2))  # self-loops and duplicates included
        graphs = [
            generate(TopologySpec("cycle", 9, directed=True)),
            generate(TopologySpec("lollipop", 12)),
            generate(TopologySpec("erdos-renyi", 25, p=0.2, seed=4)),
            DirectedGraph(30, edges),
            DirectedGraph(30, edges, weights=rng.random(len(edges))),
            DirectedGraph(30, edges[:40], weights=rng.random(40), directed=False),
            DirectedGraph(6, [(0, 1), (1, 2), (3, 3), (4, 0)]),  # dangling 2, 5; loop-only 3
        ]
        for g in graphs:
            for alpha in (0.0, 0.5):
                got = lazify(g, alpha)
                want = DirectedGraph(g.node_count, *lazify_loop(g, alpha))
                np.testing.assert_array_equal(got.sources, want.sources)
                np.testing.assert_array_equal(got.targets, want.targets)
                np.testing.assert_array_equal(got.weights, want.weights)
                assert got.meta == g.meta  # e.g. the seed `kronmix generate` prints

    def test_alpha_range_checked(self):
        g = generate(TopologySpec("cycle", 4))
        for alpha in (-0.1, 1.0, 1.5):
            with pytest.raises(SpecError):
                lazify(g, alpha)
