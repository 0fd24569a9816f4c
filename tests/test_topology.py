"""Graph generation, weight rules, stability classification, hop sets."""

import math

import numpy as np
import pytest

from netprobe.topology import (
    HopSets,
    StabilityClass,
    TopologyMatrix,
    WeightedDigraph,
    classify_stability,
    generate_random_digraph,
    laplacian_weights,
    load_adjacency,
    load_weights,
    metropolis_weights,
    rule_weights,
    save_adjacency,
    save_matrix,
    save_weights,
    scale_to_asymptotic,
    true_hop_sets,
)


def ring_with_chords(n: int) -> WeightedDigraph:
    """Deterministic strongly connected digraph."""
    a = np.zeros((n, n), dtype=int)
    for i in range(n):
        a[i, (i + 1) % n] = 1
        a[i, (i + 3) % n] = 1
    return WeightedDigraph(a)


class TestGenerateRandomDigraph:
    def test_complete_when_p_one(self):
        g = generate_random_digraph(2, 1.0, seed=0)
        assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])

    def test_deterministic(self):
        a = generate_random_digraph(20, 0.2, seed=7).adjacency
        b = generate_random_digraph(20, 0.2, seed=7).adjacency
        assert np.array_equal(a, b)

    def test_edge_count_binomial(self):
        # mean over 1000 fixed seeds vs the Bernoulli(0.2) expectation
        counts = [generate_random_digraph(20, 0.2, s).edge_count() for s in range(1000)]
        expected = 0.2 * 20 * 19
        sd = math.sqrt(20 * 19 * 0.2 * 0.8)
        assert abs(np.mean(counts) - expected) <= 3 * sd / math.sqrt(1000)

    def test_in_degree_repair(self):
        for s in range(30):
            g = generate_random_digraph(15, 0.03, seed=s)
            assert g.in_degrees().min() >= 1
            assert np.diagonal(g.adjacency).sum() == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_random_digraph(1, 0.5)
        with pytest.raises(ValueError):
            generate_random_digraph(5, 0.0)
        with pytest.raises(ValueError):
            generate_random_digraph(5, 1.5)


class TestWeightedDigraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            WeightedDigraph(np.eye(3, dtype=int))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            WeightedDigraph(np.array([[0, 2], [1, 0]]))

    def test_neighbor_views(self):
        g = WeightedDigraph(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
        assert g.in_neighbors(0) == {1}
        assert g.out_neighbors(1) == {0}
        assert g.in_degrees().tolist() == [1, 1, 1]


class TestLaplacianWeights:
    def test_single_edge_two_nodes(self):
        g = WeightedDigraph(np.array([[0, 1], [0, 0]]))
        # second row has no in-edges, so the rule cannot apply cleanly there;
        # use the documented two-node single-edge case a_12 = 1
        tm = laplacian_weights(g, 1.0)
        assert np.allclose(tm.matrix, [[0, 1], [0, 1]])

    def test_bidirectional_half_gamma(self):
        g = WeightedDigraph(np.array([[0, 1], [1, 0]]))
        tm = laplacian_weights(g, 0.5)
        assert np.allclose(tm.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_row_sums_and_radius(self):
        g = generate_random_digraph(20, 0.2, seed=3)
        tm = laplacian_weights(g, 1.0)
        assert np.abs(tm.matrix.sum(axis=1) - 1).max() <= 1e-12
        assert abs(np.abs(np.linalg.eigvals(tm.matrix)).max() - 1) <= 1e-9
        assert tm.stability is StabilityClass.MARGINALLY_STABLE

    def test_rejects_bad_gamma(self):
        g = generate_random_digraph(5, 0.5, seed=0)
        for gamma in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                laplacian_weights(g, gamma)


class TestMetropolisWeights:
    def test_two_cycle(self):
        g = WeightedDigraph(np.array([[0, 1], [1, 0]]))
        tm = metropolis_weights(g)
        assert np.allclose(tm.matrix, [[0, 1], [1, 0]])

    def test_star_center_thirds(self):
        # center 0 uses the three leaves; each leaf uses the center
        a = np.zeros((4, 4), dtype=int)
        a[0, 1:] = 1
        a[1:, 0] = 1
        tm = metropolis_weights(WeightedDigraph(a))
        assert np.allclose(tm.matrix[0, 1:], 1 / 3)
        assert np.allclose(tm.matrix[1:, 0], 1 / 3)

    def test_row_sums(self):
        g = generate_random_digraph(20, 0.2, seed=8)
        tm = metropolis_weights(g)
        assert np.abs(tm.matrix.sum(axis=1) - 1).max() <= 1e-12
        assert abs(np.abs(np.linalg.eigvals(tm.matrix)).max() - 1) <= 1e-9


class TestScaleToAsymptotic:
    def test_radius_scales(self):
        tm = laplacian_weights(generate_random_digraph(12, 0.3, 4), 1.0)
        scaled = scale_to_asymptotic(tm, 0.9)
        assert abs(np.abs(np.linalg.eigvals(scaled.matrix)).max() - 0.9) <= 1e-9
        assert scaled.stability is StabilityClass.ASYMPTOTICALLY_STABLE

    def test_elementwise_and_composition(self):
        tm = laplacian_weights(generate_random_digraph(8, 0.4, 1), 1.0)
        once = scale_to_asymptotic(tm, 0.72)
        assert np.allclose(once.matrix, 0.72 * tm.matrix)
        assert np.allclose(once.matrix, 0.8 * scale_to_asymptotic(tm, 0.9).matrix)

    def test_input_must_be_marginal(self):
        tm = laplacian_weights(generate_random_digraph(8, 0.4, 1), 1.0)
        scaled = scale_to_asymptotic(tm, 0.5)
        with pytest.raises(ValueError):
            scale_to_asymptotic(scaled, 0.5)
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                scale_to_asymptotic(tm, alpha)


class TestRuleWeights:
    def test_dispatch_and_rescaling(self):
        graph = generate_random_digraph(10, 0.3, 8)
        pairs = (
            (rule_weights(graph, "laplacian", 0.8), laplacian_weights(graph, 0.8)),
            (rule_weights(graph, "metropolis"), metropolis_weights(graph)),
            (
                rule_weights(graph, "metropolis", alpha=0.9),
                scale_to_asymptotic(metropolis_weights(graph), 0.9),
            ),
        )
        for built, expected in pairs:
            assert np.array_equal(built.matrix, expected.matrix)
            assert built.stability is expected.stability
        with pytest.raises(ValueError):
            rule_weights(graph, "ring")


class TestClassifyStability:
    def test_contraction(self):
        assert classify_stability(0.5 * np.eye(3)) is StabilityClass.ASYMPTOTICALLY_STABLE

    def test_laplacian_on_strongly_connected(self):
        tm = laplacian_weights(ring_with_chords(10), 1.0)
        assert classify_stability(tm.matrix) is StabilityClass.MARGINALLY_STABLE

    def test_repeated_unit_eigenvalue(self):
        assert classify_stability(np.eye(2)) is StabilityClass.UNSTABLE

    def test_expanding(self):
        assert classify_stability(1.5 * np.eye(2)) is StabilityClass.UNSTABLE

    def test_marginal_matrix_must_be_row_stochastic(self, tmp_path):
        # radius one with a simple unit eigenvalue, but rows sum to 2, 0.5, 1
        w = np.array([[0.0, 2.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.5]])
        assert classify_stability(w) is StabilityClass.MARGINALLY_STABLE
        with pytest.raises(ValueError):
            TopologyMatrix(w, StabilityClass.MARGINALLY_STABLE)
        path = tmp_path / "w.txt"
        save_matrix(path, w)
        with pytest.raises(ValueError):
            load_weights(path)

    def test_weight_floor_field(self):
        tm = laplacian_weights(ring_with_chords(6), 0.8)
        positive = tm.matrix[tm.matrix > 0]
        assert tm.weight_floor == pytest.approx(positive.min())


class TestTrueHopSets:
    def test_chain(self):
        # information flows 0 -> 1 -> 2, i.e. a_10 = a_21 = 1
        a = np.zeros((3, 3), dtype=int)
        a[1, 0] = 1
        a[2, 1] = 1
        hs = true_hop_sets(WeightedDigraph(a), 0, 2)
        assert hs.at_hop(1) == {1}
        assert hs.at_hop(2) == {2}

    def test_sink_node(self):
        a = np.zeros((3, 3), dtype=int)
        a[1, 0] = 1
        a[2, 1] = 1
        hs = true_hop_sets(WeightedDigraph(a), 2, 3)
        assert all(not hs.at_hop(h) for h in (1, 2, 3))

    def test_disjoint_levels(self):
        for s in range(10):
            g = generate_random_digraph(15, 0.2, seed=s)
            hs = true_hop_sets(g, 0, 5)
            seen = set()
            for h in range(1, 6):
                assert not (hs.at_hop(h) & seen)
                seen |= hs.at_hop(h)

    def test_source_never_member(self):
        # 3-cycle returns to the source at hop 3, which is not reported
        a = np.zeros((3, 3), dtype=int)
        a[1, 0] = a[2, 1] = a[0, 2] = 1
        hs = true_hop_sets(WeightedDigraph(a), 0, 5)
        assert all(0 not in hs.at_hop(h) for h in range(1, 6))

    def test_matrix_power_oracle(self):
        # reachable-within-h == positivity of sum of adjacency powers
        for s in range(25):
            g = generate_random_digraph(7, 0.25, seed=100 + s)
            a = g.adjacency.astype(float)
            for j in range(7):
                hs = true_hop_sets(g, j, 4)
                acc = np.zeros((7, 7))
                power = np.eye(7)
                for h in range(1, 5):
                    power = power @ a
                    acc += power
                    expected = {i for i in range(7) if acc[i, j] > 0 and i != j}
                    assert set().union(*(hs.at_hop(k) for k in range(1, h + 1))) == expected

    def test_hop_of(self):
        g = ring_with_chords(8)
        hs = true_hop_sets(g, 0, 4)
        assert hs.at_hop(1) == {5, 7}
        assert 3 in hs.at_hop(3)
        assert all(0 not in hs.at_hop(h) for h in range(1, 5))


class TestStochasticMatrixProperties:
    def test_power_rows_sum_to_one(self):
        tm = laplacian_weights(generate_random_digraph(14, 0.25, 6), 1.0)
        power = np.eye(14)
        for _ in range(10):
            power = power @ tm.matrix
            assert np.abs(power.sum(axis=1) - 1).max() <= 1e-11

    def test_squared_row_sums_capped(self):
        for build in (
            lambda g: laplacian_weights(g, 1.0),
            lambda g: metropolis_weights(g),
            lambda g: scale_to_asymptotic(laplacian_weights(g, 1.0), 0.85),
        ):
            tm = build(generate_random_digraph(12, 0.3, 13))
            power = np.eye(12)
            for _ in range(10):
                power = power @ tm.matrix
                assert ((power**2).sum(axis=1) <= 1 + 1e-11).all()


class TestHopSetsType:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            HopSets(0, (frozenset({1}), frozenset({1})))

    def test_index_bounds(self):
        hs = HopSets(0, (frozenset({1}),))
        with pytest.raises(IndexError):
            hs.at_hop(2)
        with pytest.raises(IndexError):
            hs.at_hop(0)


class TestSerialization:
    def test_adjacency_round_trip(self, tmp_path):
        g = generate_random_digraph(9, 0.3, 2)
        path = tmp_path / "adj.txt"
        save_adjacency(path, g)
        assert np.array_equal(load_adjacency(path).adjacency, g.adjacency)

    def test_weights_round_trip_exact(self, tmp_path):
        tm = laplacian_weights(generate_random_digraph(9, 0.3, 2), 0.7)
        path = tmp_path / "w.txt"
        save_weights(path, tm)
        loaded = load_weights(path)
        assert np.array_equal(loaded.matrix, tm.matrix)
        assert loaded.stability is StabilityClass.MARGINALLY_STABLE

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1\n1 0\n")
        with pytest.raises(ValueError):
            load_adjacency(path)
