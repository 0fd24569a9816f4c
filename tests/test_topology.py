"""Graph generation, weight rules, stability classification, ground-truth hops."""

import math
import re

import numpy as np
import pytest

from netprobe.topology import (
    StabilityClass,
    TopologyMatrix,
    WeightedDigraph,
    classify_stability,
    generate_random_digraph,
    laplacian_weights,
    load_matrix,
    load_weights,
    metropolis_weights,
    rule_weights,
    save_matrix,
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

    @pytest.mark.parametrize(
        "n, p", [(2, 0.1), (5, 0.05), (20, 0.08), (20, 0.01), (300, 1.6 / 300), (1000, 0.003)]
    )
    def test_matches_list_choice_oracle(self, n, p):
        # the repair's in-edge pick once ran rng.choice over a list of the
        # other nodes; the same seed must still give the same graph
        repaired = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            expected = (rng.random((n, n)) < p).astype(np.int64)
            np.fill_diagonal(expected, 0)
            for i in np.flatnonzero(expected.sum(axis=1) == 0):
                expected[i, rng.choice([j for j in range(n) if j != i])] = 1
                repaired += 1
            assert np.array_equal(generate_random_digraph(n, p, seed=seed).adjacency, expected)
        assert repaired > 0

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
        assert np.flatnonzero(g.adjacency[:, 1]).tolist() == [0]  # out-neighbors of 1
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

    def test_metropolis_rejects_gamma(self):
        # the metropolis rule has no gamma, so one other than 1 would be ignored
        graph = generate_random_digraph(10, 0.3, 8)
        assert np.array_equal(
            rule_weights(graph, "metropolis", 1.0).matrix, metropolis_weights(graph).matrix
        )
        for gamma in (0.5, 0.3, float("nan")):
            with pytest.raises(ValueError, match="metropolis rule takes no gamma"):
                rule_weights(graph, "metropolis", gamma)


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

    def test_rejects_non_finite_entries(self):
        # a NaN row sum never exceeds the tolerance, so only this check stops it
        for bad in (math.nan, math.inf, -math.inf):
            for stability in (StabilityClass.MARGINALLY_STABLE, StabilityClass.ASYMPTOTICALLY_STABLE):
                with pytest.raises(ValueError, match="matrix entries must be finite"):
                    TopologyMatrix(np.array([[bad, 0.5], [0.5, 0.5]]), stability)

    def test_classify_rejects_non_finite_entries(self, tmp_path):
        # eigvals raises NumPy's own error on these, naming neither file nor entry
        path = tmp_path / "w.txt"
        for bad in (math.nan, math.inf, -math.inf):
            w = np.array([[bad, 0.5], [0.5, 0.5]])
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                classify_stability(w)
            save_matrix(path, w)
            message = f"^{re.escape(str(path))}: matrix entries must be finite$"
            with pytest.raises(ValueError, match=message):
                load_weights(path)

    def test_weight_floor_field(self):
        tm = laplacian_weights(ring_with_chords(6), 0.8)
        positive = tm.matrix[tm.matrix > 0]
        assert tm.weight_floor == pytest.approx(positive.min())


def level_oracle(graph: WeightedDigraph, source: int, max_hop: int) -> np.ndarray:
    """Per node, the smallest h <= max_hop with (A^h)[i, source] > 0; 0 if none."""
    a = graph.adjacency.astype(float)
    first = np.zeros(graph.n, dtype=int)
    power = np.eye(graph.n)
    for h in range(1, max_hop + 1):
        power = power @ a
        first[(power[:, source] > 0) & (first == 0)] = h
    first[source] = 0
    return first


class TestTrueHopSets:
    def test_chain(self):
        # information flows 0 -> 1 -> 2, i.e. a_10 = a_21 = 1
        a = np.zeros((3, 3), dtype=int)
        a[1, 0] = 1
        a[2, 1] = 1
        hops = true_hop_sets(WeightedDigraph(a), 0, 2)
        assert hops.dtype.kind == "i"  # the decisions' first-hop format
        assert hops.tolist() == [0, 1, 2]

    def test_sink_node(self):
        a = np.zeros((3, 3), dtype=int)
        a[1, 0] = 1
        a[2, 1] = 1
        assert not true_hop_sets(WeightedDigraph(a), 2, 3).any()

    def test_source_never_member(self):
        # 3-cycle returns to the source at hop 3, which is not reported
        a = np.zeros((3, 3), dtype=int)
        a[1, 0] = a[2, 1] = a[0, 2] = 1
        assert true_hop_sets(WeightedDigraph(a), 0, 5).tolist() == [0, 1, 2]

    def test_matrix_power_oracle(self):
        # reachable-within-h == positivity of sum of adjacency powers
        for s in range(25):
            g = generate_random_digraph(7, 0.25, seed=100 + s)
            a = g.adjacency.astype(float)
            for j in range(7):
                hops = true_hop_sets(g, j, 4)
                acc = np.zeros((7, 7))
                power = np.eye(7)
                for h in range(1, 5):
                    power = power @ a
                    acc += power
                    expected = {i for i in range(7) if acc[i, j] > 0 and i != j}
                    assert set(np.flatnonzero((hops >= 1) & (hops <= h)).tolist()) == expected

    def test_matrix_power_level_oracle(self):
        # exact levels: the first power of A that reaches each node
        for s in range(25):
            g = generate_random_digraph(12, 0.15, seed=200 + s)
            for j in range(12):
                for max_hop in (1, 3, 6):
                    assert np.array_equal(true_hop_sets(g, j, max_hop), level_oracle(g, j, max_hop))

    def test_hop_of(self):
        g = ring_with_chords(8)
        hops = true_hop_sets(g, 0, 4)
        assert np.flatnonzero(hops == 1).tolist() == [5, 7]
        assert hops[3] == 3
        assert hops[0] == 0

    def test_validation(self):
        g = ring_with_chords(4)
        for source in (-1, 4):
            with pytest.raises(ValueError):
                true_hop_sets(g, source, 2)
        with pytest.raises(ValueError):
            true_hop_sets(g, 0, 0)


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


class TestSerialization:
    def test_adjacency_round_trip(self, tmp_path):
        g = generate_random_digraph(9, 0.3, 2)
        path = tmp_path / "adj.txt"
        save_matrix(path, g.adjacency)
        rows = path.read_text().splitlines()[1:]
        assert rows == [" ".join(str(v) for v in row) for row in g.adjacency.tolist()]
        assert np.array_equal(load_matrix(path), g.adjacency)
        save_matrix(path, np.array([[0, 10**17 + 1], [1, 0]]))  # beyond 17 digits
        assert path.read_text() == "2\n0 100000000000000001\n1 0\n"

    def test_weights_round_trip_exact(self, tmp_path):
        tm = laplacian_weights(generate_random_digraph(9, 0.3, 2), 0.7)
        path = tmp_path / "w.txt"
        save_matrix(path, tm.matrix)
        rows = path.read_text().splitlines()[1:]
        assert rows == [" ".join("%.17g" % v for v in row) for row in tm.matrix]
        assert any("." in row for row in rows)
        loaded = load_weights(path)
        assert np.array_equal(loaded.matrix, tm.matrix)
        assert loaded.stability is StabilityClass.MARGINALLY_STABLE

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("abc\n0 1\n1 0\n", "invalid literal for int() with base 10: 'abc'"),
            ("2\n0 1\n", "expected 2x2 matrix, got (1, 2)"),
            ("2\n0 x\n1 0\n", "could not convert string 'x'"),
            # rejected before NumPy reads, and warns about, the empty body
            ("0\n", "matrix size must be >= 1, got 0"),
            ("2\n", "expected 2x2 matrix, got no rows"),
            ("2\n\n  \n# no rows\n", "expected 2x2 matrix, got no rows"),
            ("", "expected the matrix size n on the first line, found none"),
        ],
        ids=["word-header", "short-row", "bad-entry", "zero-header", "header-only",
             "header-and-blank-lines", "empty-file"],
    )
    def test_weights_file_errors_name_the_file(self, tmp_path, text, reason):
        path = tmp_path / "w.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {reason}')}"):
            load_weights(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1\n1 0\n")
        with pytest.raises(ValueError):
            load_matrix(path)
