"""Decision rules: noiseless exactness, threshold semantics, bound tracking."""

import json
import math

import numpy as np
import pytest

from netprobe.detect import critical_excitation, multi_excitation_bound
from netprobe.dynamics import ExcitationPlan, NoiseModel, simulate
from netprobe.infer import decide, first_hops, infer_one_hop
from netprobe.topology import (
    StabilityClass,
    WeightedDigraph,
    generate_random_digraph,
    laplacian_weights,
    true_hop_sets,
)

MARGINAL = StabilityClass.MARGINALLY_STABLE


def consensus_excite(tm, source, e, hops=1, level=2.0):
    """Noiseless trajectory at consensus with one injection at t=0."""
    x0 = np.full(tm.n, level)
    return simulate(tm, x0, hops, NoiseModel.noiseless(), ExcitationPlan(source, 0, e), seed=0)


class TestInferOneHop:
    def test_noiseless_consensus_exact(self):
        g = generate_random_digraph(12, 0.25, 31)
        tm = laplacian_weights(g, 1.0)
        for j in range(12):
            traj = consensus_excite(tm, j, 10.0)
            decision = infer_one_hop(
                traj.observations[0], traj.observations[1], j, 10.0, tm.weight_floor, MARGINAL
            )
            assert np.array_equal(decision.first_hop, true_hop_sets(g, j, 1))

    def test_threshold_rule_is_the_contract(self):
        # the rule fires on whatever clears the threshold, correct or not
        y_before = np.zeros(4)
        y_after = np.array([0.0, 3.0, 1.2, 0.4])
        decision = infer_one_hop(y_before, y_after, 0, 4.0, 0.6, MARGINAL)
        # threshold = 0 + 0.6*4/2 = 1.2, ties included
        assert decision.one_hop() == {1, 2}
        assert decision.thresholds[1] == pytest.approx(1.2)

    def test_tie_counts_as_inclusion(self):
        y_after = np.array([0.0, 1.0])
        decision = infer_one_hop(np.zeros(2), y_after, 0, 2.0, 1.0, MARGINAL)
        assert decision.one_hop() == {1}

    def test_source_excluded_despite_large_deviation(self):
        y_after = np.array([50.0, 0.1])
        decision = infer_one_hop(np.zeros(2), y_after, 0, 2.0, 1.0, MARGINAL)
        assert 0 not in decision.one_hop()

    def test_zero_excitation_rejected(self):
        with pytest.raises(ValueError):
            infer_one_hop(np.zeros(3), np.zeros(3), 0, 0.0, 0.4, MARGINAL)

    def test_monotone_in_excitation_noiseless(self):
        g = generate_random_digraph(10, 0.3, 12)
        tm = laplacian_weights(g, 1.0)
        j = 0
        accepted = []
        for e in (4.0, 8.0, 16.0):
            traj = consensus_excite(tm, j, e)
            decision = infer_one_hop(
                traj.observations[0], traj.observations[1], j, e, tm.weight_floor, MARGINAL
            )
            accepted.append(decision.one_hop())
        assert accepted[0] <= accepted[1] <= accepted[2]

    def test_raw_deviations_recorded(self):
        decision = infer_one_hop(np.zeros(3), np.array([0.0, 2.0, -1.0]), 0, 4.0, 0.5, MARGINAL)
        assert decision.raw_deviations[(1, 1)] == 2.0
        assert decision.raw_deviations[(2, 1)] == -1.0
        assert (0, 1) not in decision.raw_deviations


class TestInferWithinHops:
    """Hop assignment after one excitation: one (h+1, n) window through ``decide``."""

    def chain(self):
        # information path 0 -> 1 -> 2
        a = np.zeros((3, 3), dtype=int)
        a[1, 0] = 1
        a[2, 1] = 1
        g = WeightedDigraph(a)
        return g, laplacian_weights(g, 1.0)

    def test_noiseless_chain_levels(self):
        g, tm = self.chain()
        e = 8.0
        traj = consensus_excite(tm, 0, e, hops=2)
        decision = decide(traj.observations[None], 0, e, tm.weight_floor, MARGINAL)
        assert decision.at_hop(1) == {1}
        assert decision.at_hop(2) == {2}

    def test_unaccepted_node_absent(self):
        g, tm = self.chain()
        traj = consensus_excite(tm, 2, 8.0, hops=2)  # node 2 has no out-edges
        decision = decide(traj.observations[None], 2, 8.0, tm.weight_floor, MARGINAL)
        assert not decision.at_hop(1) and not decision.at_hop(2)

    def test_exclusive_assignment(self):
        g = generate_random_digraph(15, 0.2, 3)
        tm = laplacian_weights(g, 1.0)
        traj = consensus_excite(tm, 0, 30.0, hops=4)
        decision = decide(traj.observations[None], 0, 30.0, tm.weight_floor, MARGINAL)
        seen = set()
        for h in (1, 2, 3, 4):
            assert not (decision.at_hop(h) & seen)
            seen |= decision.at_hop(h)

    def test_window_shape_checked(self):
        # h is the window length minus one, so a window needs two rows;
        # windows come as (rounds, h+1, n) with at least one round
        bad = (np.zeros((2, 3)), np.zeros((1, 1, 3)), np.zeros((0, 2, 3)), np.zeros((1, 2, 3, 1)))
        for windows in bad:
            with pytest.raises(ValueError, match="windows"):
                decide(windows, 0, 8.0, 0.5, MARGINAL)
        for source in (-1, 3):
            with pytest.raises(ValueError):
                decide(np.zeros((1, 3, 3)), source, 8.0, 0.5, MARGINAL)
        decision = decide(np.zeros((1, 3, 3)), 0, 8.0, 0.5, MARGINAL)
        assert sorted(decision.thresholds) == [1, 2]

    def test_hop_one_matches_one_hop_rule(self):
        # same trajectory, same floor: the h=1 assignments agree
        g = generate_random_digraph(10, 0.3, 40)
        tm = laplacian_weights(g, 1.0)
        noise = NoiseModel(1.0, 1.0)
        for s in range(5):
            rng = np.random.default_rng(s)
            x0 = rng.uniform(-100, 100, 10)
            traj = simulate(tm, x0, 11, noise, ExcitationPlan(2, 10, 9.0), seed=rng)
            d_multi = decide(traj.observations[None, 10:], 2, 9.0, 0.4, MARGINAL)
            d_one = infer_one_hop(traj.observations[10], traj.observations[11], 2, 9.0, 0.4, MARGINAL)
            assert d_multi.at_hop(1) == d_one.one_hop()
            assert d_multi.thresholds[1] == pytest.approx(d_one.thresholds[1])

    def test_gain_floors_are_floor_powers(self):
        # at consensus the drift bound is zero, leaving weight_floor**h * |e| / 2
        g, tm = self.chain()
        traj = consensus_excite(tm, 0, -8.0, hops=3)
        decision = decide(traj.observations[None], 0, -8.0, 0.5, MARGINAL)
        assert decision.thresholds == {1: 2.0, 2: 1.0, 3: 0.5}


class TestInferMultiExcitation:
    """Repeated excitations: (m, n) rows through ``infer_one_hop``."""

    def test_single_trial_reduces_to_one_hop(self):
        rng = np.random.default_rng(2)
        yb, ya = rng.normal(size=6), rng.normal(size=6)
        multi = infer_one_hop(yb[None], ya[None], 1, 5.0, 0.4, MARGINAL)
        single = infer_one_hop(yb, ya, 1, 5.0, 0.4, MARGINAL)
        assert multi == single

    def test_rows_average_deviations_and_drift(self):
        # drift bounds 0 and 2 average to 1; threshold = 1 + 0.5 * 4 / 2 = 2
        before = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        after = np.array([[0.0, 3.0, 1.0], [0.0, 3.0, 0.0]])
        decision = infer_one_hop(before, after, 0, 4.0, 0.5, MARGINAL)
        assert decision.thresholds == {1: 2.0}
        assert decision.raw_deviations == {(1, 1): 2.0, (2, 1): 0.5}
        assert decision.one_hop() == {1}
        # the same rounds as (rounds, 2, n) windows
        assert decide(np.stack([before, after], axis=1), 0, 4.0, 0.5, MARGINAL) == decision

    def test_noiseless_trials_match_single(self):
        g = generate_random_digraph(8, 0.3, 14)
        tm = laplacian_weights(g, 1.0)
        traj = consensus_excite(tm, 0, 9.0)
        before, after = traj.observations[0], traj.observations[1]
        one = infer_one_hop(before[None], after[None], 0, 9.0, tm.weight_floor, MARGINAL)
        four = infer_one_hop(
            np.tile(before, (4, 1)), np.tile(after, (4, 1)), 0, 9.0, tm.weight_floor, MARGINAL
        )
        assert one.one_hop() == four.one_hop()

    def test_misjudgement_tracks_bound(self):
        # consensus snapshots, true edge weight 1.0 over a 0.3 floor,
        # sub-critical input: error rate per pair obeys the averaging bound
        sigma = math.sqrt(3.0)
        floor = 0.3
        e = 0.9 * critical_excitation(sigma, floor, 0.5)
        rng = np.random.default_rng(321)
        reps = 4000
        rates = {}
        for m in (1, 4, 16, 64):
            wrong = 0
            before = np.zeros((m, 4))
            for _ in range(reps):
                devs = rng.normal(0.0, sigma, size=(m, 4))
                devs[:, 1] += 1.0 * e
                est = infer_one_hop(before, before + devs, 0, e, floor, MARGINAL).one_hop()
                wrong += (1 not in est) + (2 in est)
            rates[m] = wrong / reps
        for m, rate in rates.items():
            bound = multi_excitation_bound(e, floor, sigma, m)
            slack = 3 * math.sqrt(max(bound * (1 - bound), 0.25 / reps) / reps)
            assert rate <= bound + slack
        assert rates[64] <= rates[16] <= rates[4] <= rates[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            infer_one_hop(np.zeros((0, 3)), np.zeros((0, 3)), 0, 5.0, 0.4, MARGINAL)
        with pytest.raises(ValueError):
            infer_one_hop(np.zeros((1, 3)), np.zeros((1, 4)), 0, 5.0, 0.4, MARGINAL)
        with pytest.raises(ValueError):
            infer_one_hop(np.zeros((2, 3)), np.zeros((1, 3)), 0, 5.0, 0.4, MARGINAL)
        with pytest.raises(ValueError):
            infer_one_hop(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), 0, 5.0, 0.4, MARGINAL)
        for e in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                infer_one_hop(np.zeros((1, 3)), np.zeros((1, 3)), 0, e, 0.4, MARGINAL)


class TestFirstHops:
    """The array rule: one decision per trial, as ``decide`` makes it for one round."""

    def windows(self):
        # quarter-integer observations keep every deviation and threshold exact
        rng = np.random.default_rng(17)
        y = rng.integers(-40, 41, size=(60, 4, 9)) / 4.0
        # trial 0: node 3 deviates at hop 2 by exactly drift + 0.5**2 * 8 / 2
        drift = y[0, 0].max() - y[0, 0].min()
        y[0, 1:, 3] = y[0, 0, 3]
        y[0, 2, 3] = y[0, 0, 3] + drift + 0.5 ** 2 * 8.0 / 2.0
        return y

    @pytest.mark.parametrize("stability", [MARGINAL, StabilityClass.ASYMPTOTICALLY_STABLE])
    def test_matches_per_trial_decisions(self, stability):
        y = self.windows()
        first = first_hops(y, 2, 8.0, 0.5, stability)
        assert first.shape == (60, 9)
        for k, window in enumerate(y):
            decision = decide(window[None], 2, 8.0, 0.5, stability)
            for h in (1, 2, 3):
                assert set(np.flatnonzero(first[k] == h)) == decision.at_hop(h)
            one = infer_one_hop(window[0], window[1], 2, 8.0, 0.5, stability).one_hop()
            one_hop_first = first_hops(y[k:k + 1, :2], 2, 8.0, 0.5, stability)[0]
            assert set(np.flatnonzero(one_hop_first == 1)) == one
        assert (first[:, 2] == 0).all()
        assert 1 <= (first == 0).sum() < first.size

    def test_tie_counts_as_inclusion(self):
        y = self.windows()
        assert first_hops(y, 2, 8.0, 0.5, MARGINAL)[0, 3] == 2
        assert decide(y[:1], 2, 8.0, 0.5, MARGINAL).at_hop(2) >= {3}
        y[0, 2, 3] -= 2.0 ** -40
        assert first_hops(y, 2, 8.0, 0.5, MARGINAL)[0, 3] != 2

    def test_validation(self):
        for bad in (np.zeros((3, 3)), np.zeros((2, 1, 3)), np.zeros((2, 2, 3, 1))):
            with pytest.raises(ValueError):
                first_hops(bad, 0, 8.0, 0.5, MARGINAL)
        with pytest.raises(ValueError, match="nonzero"):
            first_hops(np.zeros((2, 2, 3)), 0, 0.0, 0.5, MARGINAL)
        with pytest.raises(ValueError, match="finite"):
            first_hops(np.zeros((2, 2, 3)), 0, math.nan, 0.5, MARGINAL)
        for source in (-1, 3):
            with pytest.raises(ValueError):
                first_hops(np.zeros((2, 2, 3)), source, 8.0, 0.5, MARGINAL)


DECIDERS = {
    "first_hops": first_hops,
    "decide": decide,
    "infer_one_hop": lambda w, *rule: infer_one_hop(w[:, 0], w[:, 1], *rule),
}


def after_injection(entry):
    w = np.zeros((2, 2, 3))
    w[1, 1, 2] = entry
    return w


@pytest.mark.parametrize("decider", DECIDERS.values(), ids=DECIDERS.keys())
@pytest.mark.parametrize(
    "windows, floor, message",
    [
        # a non-finite deviation used to fail the test silently, as "no edge"
        (after_injection(math.nan), 0.5, "finite observations"),
        (after_injection(math.inf), 0.5, "finite observations"),
        (after_injection(-math.inf), 0.5, "finite observations"),
        # a floor <= 0 lowers the threshold to the drift bound or below it,
        # accepting every node; a NaN or infinite one rejects every node
        (np.zeros((2, 2, 3)), -0.5, "weight floor"),
        (np.zeros((2, 2, 3)), 0.0, "weight floor"),
        (np.zeros((2, 2, 3)), math.nan, "weight floor"),
        (np.zeros((2, 2, 3)), math.inf, "weight floor"),
    ],
    ids=["nan-after-injection", "inf-after-injection", "minus-inf-after-injection",
         "negative-floor", "zero-floor", "nan-floor", "inf-floor"],
)
def test_rule_rejects_what_it_cannot_decide(decider, windows, floor, message):
    # (2, 2, 3) windows: two trials, two rounds or two before/after rows
    with pytest.raises(ValueError, match=message):
        decider(windows, 0, 4.0, floor, MARGINAL)


class TestDecisionRecords:
    def test_records_shape(self):
        decision = infer_one_hop(np.zeros(3), np.array([0.0, 2.0, 0.1]), 0, 4.0, 0.5, MARGINAL)
        (record,) = decision.to_records()
        assert record["source"] == 0
        assert record["hop"] == 1
        assert record["members"] == [1]
        assert set(record["deviations"]) == {"1", "2"}

    def test_first_hop_array_agrees_with_hop_sets(self):
        y = TestFirstHops().windows()[0]
        decision = decide(y[None], 2, 8.0, 0.5, MARGINAL)
        assert decision.first_hop.shape == (9,) and decision.deviations.shape == (3, 9)
        assert decision.first_hop[3] == 2
        for h in (1, 2, 3):
            assert decision.at_hop(h) == set(np.flatnonzero(decision.first_hop == h))
        accepted = set().union(*map(decision.at_hop, (1, 2, 3)))
        assert accepted == set(np.flatnonzero(decision.first_hop)) and 2 not in accepted

    def test_raw_deviations_cover_every_tested_pair(self):
        for hops, n in ((1, 4), (3, 9)):
            y = np.arange((hops + 1) * n, dtype=float).reshape(hops + 1, n)
            decision = decide(y[None], 1, 8.0, 0.5, MARGINAL)
            assert len(decision.raw_deviations) == hops * (n - 1)
            assert decision.raw_deviations[(0, hops)] == decision.deviations[hops - 1, 0]

    def test_arrays_read_only(self):
        decision = infer_one_hop(np.zeros(3), np.array([0.0, 2.0, 0.1]), 0, 4.0, 0.5, MARGINAL)
        for array in (decision.first_hop, decision.deviations):
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(TypeError):
            decision.raw_deviations[(1, 1)] = 0.0

    def test_json_round_trip(self):
        decision = infer_one_hop(np.zeros(3), np.array([0.0, 2.0, 0.1]), 0, 4.0, 0.5, MARGINAL)
        parsed = json.loads(json.dumps(decision.to_records()))
        assert parsed[0]["members"] == [1]
