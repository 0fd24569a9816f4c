"""Simulator exactness, noise statistics, excitation propagation, exports."""

import csv
import math

import numpy as np
import pytest

from netprobe import dynamics
from netprobe.detect import deviation_noise_std
from netprobe.dynamics import (
    ExcitationPlan,
    NoiseModel,
    Trajectory,
    chunk_size,
    deviation_bound,
    simulate,
    simulate_batch,
    simulate_trial,
    write_trajectory_csv,
)
from netprobe.topology import (
    StabilityClass,
    generate_random_digraph,
    laplacian_weights,
    scale_to_asymptotic,
)


@pytest.fixture(scope="module")
def tm():
    return laplacian_weights(generate_random_digraph(10, 0.3, 17), 1.0)


class TestSimulate:
    def test_noiseless_matches_matrix_powers(self, tm):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-100, 100, 10)
        traj = simulate(tm, x0, 30, NoiseModel.noiseless(), seed=1)
        power = np.eye(10)
        for t in range(31):
            assert np.abs(traj.observations[t] - power @ x0).max() <= 1e-12
            power = power @ tm.matrix

    def test_noiseless_excitation_adds_weight_column(self, tm):
        x0 = np.zeros(10)
        e, j, t0 = 5.0, 2, 3
        traj = simulate(tm, x0, 6, NoiseModel.noiseless(), ExcitationPlan(j, t0, e), seed=1)
        assert np.abs(traj.observations[t0 + 1] - e * tm.matrix[:, j]).max() <= 1e-12
        # and the excited step's own observation is pre-injection
        assert np.abs(traj.observations[t0]).max() == 0.0

    def test_one_step_noise_covariance(self, tm):
        # variance of y_{t+1} - W y_t against its closed-form diagonal
        w = tm.matrix
        samples = np.empty((10**4, 10))
        for s in range(10**4):
            traj = simulate(tm, np.zeros(10), 1, NoiseModel(1.0, 1.0), seed=s)
            samples[s] = traj.observations[1] - w @ traj.observations[0]
        target = np.diag(w @ w.T) + 1.0 + 1.0
        rel = np.abs(samples.var(axis=0, ddof=1) - target) / target
        assert rel.max() <= 0.05

    def test_matches_matrix_vector_recursion(self, tm):
        # the recursion written out: theta then upsilon drawn by normal(),
        # the injection added to a copy of the recorded state
        x0 = np.random.default_rng(2).uniform(-100, 100, 10)
        plan = ExcitationPlan(3, 4, 9.5)
        rng = np.random.default_rng(12)
        theta = rng.normal(0.0, 1.5, size=(8, 10))
        upsilon = rng.normal(0.0, 0.5, size=(9, 10))
        states = [x0]
        for t in range(8):
            x = states[t].copy()
            if t == plan.time:
                x[plan.node] += plan.magnitude
            states.append(tm.matrix @ x + theta[t])
        states = np.array(states)
        traj = simulate(tm, x0, 8, NoiseModel(1.5, 0.5), plan, seed=12)
        scale = np.abs(states).max()
        assert np.abs(traj.states - states).max() <= 1e-12 * scale
        assert np.abs(traj.observations - (states + upsilon)).max() <= 1e-12 * scale

    def test_seeded_determinism(self, tm):
        a = simulate(tm, np.ones(10), 20, NoiseModel(1, 1), seed=99)
        b = simulate(tm, np.ones(10), 20, NoiseModel(1, 1), seed=99)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)

    def test_excitation_superposition(self, tm):
        # same seed with/without input: the difference is the propagated column
        x0 = np.random.default_rng(5).uniform(-100, 100, 10)
        e, j, t0 = 12.0, 4, 6
        base = simulate(tm, x0, 14, NoiseModel(1, 1), seed=77)
        excited = simulate(tm, x0, 14, NoiseModel(1, 1), ExcitationPlan(j, t0, e), seed=77)
        column = np.zeros(10)
        column[j] = e
        for t in range(t0 + 1, 15):
            column_next = tm.matrix @ column if t == t0 + 1 else tm.matrix @ column_next
            diff = excited.states[t] - base.states[t]
            assert np.abs(diff - column_next).max() <= 1e-9

    def test_marginal_noiseless_boundedness(self, tm):
        x0 = np.random.default_rng(8).uniform(-50, 50, 10)
        traj = simulate(tm, x0, 40, NoiseModel.noiseless(), seed=0)
        assert np.abs(traj.states).max() <= np.abs(x0).max() + 1e-12

    def test_rejects_bad_inputs(self, tm):
        with pytest.raises(ValueError):
            simulate(tm, np.zeros(3), 5, NoiseModel(1, 1))
        with pytest.raises(ValueError):
            simulate(tm, np.zeros(10), 0, NoiseModel(1, 1))
        with pytest.raises(ValueError):
            simulate(tm, np.full(10, np.inf), 5, NoiseModel(1, 1))
        with pytest.raises(ValueError):
            simulate(tm, np.zeros(10), 5, NoiseModel(1, 1), ExcitationPlan(0, 5, 1.0))
        with pytest.raises(ValueError):
            simulate(tm, np.zeros(10), 5, NoiseModel(1, 1), ExcitationPlan(99, 2, 1.0))


class TestSimulateTrial:
    def test_int_seed_matches_hand_rolled(self, tm):
        plan = ExcitationPlan(2, 5, 3.0)
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-100.0, 100.0, tm.n)
        expected = simulate(tm, x0, 8, NoiseModel(1.0, 0.5), plan, seed=rng)
        traj = simulate_trial(tm, (-100.0, 100.0), 8, NoiseModel(1.0, 0.5), plan, seed=4)
        assert np.array_equal(traj.states, expected.states)
        assert np.array_equal(traj.observations, expected.observations)
        assert traj.excitations_applied == expected.excitations_applied

    def test_shared_generator_runs_trials_in_turn(self, tm):
        hand = np.random.default_rng(9)
        expected = []
        for _ in range(2):
            x0 = hand.uniform(-5.0, 5.0, tm.n)
            expected.append(simulate(tm, x0, 6, NoiseModel(), seed=hand))
        shared = np.random.default_rng(9)
        for want in expected:
            traj = simulate_trial(tm, (-5.0, 5.0), 6, NoiseModel(), seed=shared)
            assert np.array_equal(traj.states, want.states)
            assert np.array_equal(traj.observations, want.observations)


    @pytest.mark.parametrize(
        "init", [(-100.0, math.inf), (-math.inf, 100.0), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_rejects_non_finite_interval(self, tm, init):
        with pytest.raises(ValueError, match="finite"):
            simulate_trial(tm, init, 4, NoiseModel(), seed=1)
        with pytest.raises(ValueError, match="finite"):
            simulate_batch(tm, init, 4, NoiseModel(), None, [1])

    @pytest.mark.parametrize("init", [(50.0, -50.0), (5.0, 5.0)])
    def test_rejects_empty_interval(self, tm, init):
        with pytest.raises(ValueError, match="initial-state interval is empty"):
            simulate_trial(tm, init, 4, NoiseModel(), seed=1)
        with pytest.raises(ValueError, match="initial-state interval is empty"):
            simulate_batch(tm, init, 4, NoiseModel(), None, [1])


class TestSimulateBatch:
    @pytest.fixture(scope="class")
    def tm_wide(self):
        # wide enough that a many-row product rounds apart from W @ x
        return laplacian_weights(generate_random_digraph(120, 0.02, 4), 1.0)

    def test_matches_per_trial_observations(self, tm, tm_wide):
        seeds = np.random.SeedSequence(3).spawn(11)
        for net in (tm, tm_wide):
            plan = ExcitationPlan(1, 20, 40.0)
            noise = NoiseModel(1.0, 0.5)
            windows = simulate_batch(net, (-100.0, 100.0), 23, noise, plan, seeds, 20)
            expected = np.array([
                simulate_trial(net, (-100.0, 100.0), 23, noise, plan, s)
                .observations[20:]
                for s in seeds
            ])
            assert windows.shape == (11, 4, net.n)
            assert np.abs(windows - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_one_trial_is_simulate_trial(self, tm_wide):
        # one trial steps as one column, the same recursion as ``simulate``
        plan, noise = ExcitationPlan(3, 4, -7.5), NoiseModel(0.5, 2.0)
        for start in (0, 5, 9):
            window = simulate_batch(tm_wide, (-3.0, 9.0), 9, noise, plan, [8], start)
            traj = simulate_trial(tm_wide, (-3.0, 9.0), 9, noise, plan, 8)
            assert np.array_equal(window[0], traj.observations[start:])

    def test_chunks_give_the_same_rows(self, tm_wide):
        # 13 trials as chunks of 5, 5 and 3 against one call
        seeds = np.random.SeedSequence(21).spawn(13)
        args = (tm_wide, (-100.0, 100.0), 12, NoiseModel(), ExcitationPlan(0, 10, 25.0))
        whole = simulate_batch(*args, seeds, 10)
        parts = np.concatenate([simulate_batch(*args, seeds[i:i + 5], 10) for i in (0, 5, 10)])
        assert np.abs(parts - whole).max() <= 1e-12 * np.abs(whole).max()

    def test_draws_match_normal(self):
        # standard_normal scaled in place draws what normal(0, sigma) draws
        for sigma in (1.7, 1.0, 0.0):
            want = np.random.default_rng(5).normal(0.0, sigma, (6, 4))
            got = np.empty((6, 4))
            dynamics._normal(np.random.default_rng(5), sigma, got)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_chunk_size_from_byte_budget(self):
        assert chunk_size(300, 53) == 8
        assert chunk_size(20, 51) == 128
        assert chunk_size(300, 10**6) == 1
        assert chunk_size(20, 51) * 8 * 51 * 20 <= dynamics.CHUNK_BYTES

    def test_rejects_bad_inputs(self, tm):
        args = (tm, (-1.0, 1.0))
        with pytest.raises(ValueError, match="first kept step"):
            simulate_batch(*args, 5, NoiseModel(), None, [1], 6)
        with pytest.raises(ValueError):
            simulate_batch(*args, 0, NoiseModel(), None, [1])
        with pytest.raises(ValueError):
            simulate_batch(*args, 5, NoiseModel(), ExcitationPlan(0, 5, 1.0), [1])
        with pytest.raises(ValueError):
            simulate_batch(*args, 5, NoiseModel(), ExcitationPlan(99, 2, 1.0), [1])
        assert simulate_batch(*args, 5, NoiseModel(), None, [], 2).shape == (0, 4, 10)


class TestDeviationBound:
    def test_marginal_is_spread(self):
        assert deviation_bound([3.0, 1.0, 2.0], StabilityClass.MARGINALLY_STABLE) == 2.0

    def test_asymptotic_is_max_abs(self):
        assert deviation_bound([3.0, 1.0, 2.0], StabilityClass.ASYMPTOTICALLY_STABLE) == 3.0
        assert deviation_bound([-4.0, 1.0], StabilityClass.ASYMPTOTICALLY_STABLE) == 4.0

    def test_consensus_vector(self):
        assert deviation_bound(np.full(6, 1.7), StabilityClass.MARGINALLY_STABLE) == 0.0

    def test_rows_give_one_bound_each(self):
        y = np.array([[3.0, 1.0, 2.0], [-4.0, 1.0, 0.0]])
        marginal = deviation_bound(y, StabilityClass.MARGINALLY_STABLE)
        assert marginal.tolist() == [2.0, 5.0]
        asymptotic = deviation_bound(y, StabilityClass.ASYMPTOTICALLY_STABLE)
        assert asymptotic.tolist() == [3.0, 4.0]

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            deviation_bound([1.0, 2.0], StabilityClass.UNSTABLE)


class TestObservationDeviation:
    def test_noiseless_one_step(self, tm):
        x0 = np.random.default_rng(3).uniform(-10, 10, 10)
        traj = simulate(tm, x0, 4, NoiseModel.noiseless(), seed=0)
        y0 = traj.observations[0]
        for i in range(10):
            expected = (tm.matrix @ y0)[i] - y0[i]
            deviation = traj.observations[1, i] - y0[i]
            assert deviation == pytest.approx(expected, abs=1e-12)

    def test_consensus_excitation_reads_weight(self, tm):
        x0 = np.full(10, 3.0)
        e, j = 7.0, 1
        traj = simulate(tm, x0, 2, NoiseModel.noiseless(), ExcitationPlan(j, 0, e), seed=0)
        deviations = traj.observations[1] - traj.observations[0]
        for i in range(10):
            assert deviations[i] == pytest.approx(e * tm.matrix[i, j], abs=1e-12)

    def test_noise_variance_matches_closed_form(self):
        # deviation minus the propagated-snapshot drift is the h-step noise
        tm_small = laplacian_weights(generate_random_digraph(6, 0.4, 11), 1.0)
        i, h = 0, 3
        noise = NoiseModel(1.0, 1.0)
        target = deviation_noise_std(tm_small, h, noise)[h - 1, i] ** 2
        gh = np.linalg.matrix_power(tm_small.matrix, h)
        seeds = range(10**5)
        size = chunk_size(6, h)
        y = np.concatenate([
            simulate_batch(tm_small, (1.0, 3.0), h, noise, None, seeds[k:k + size])
            for k in range(0, len(seeds), size)
        ])
        y0 = y[:, 0]
        samples = (y[:, h, i] - y0[:, i]) - ((y0 @ gh.T)[:, i] - y0[:, i])
        assert abs(samples.var(ddof=1) - target) / target <= 0.05


class TestTypesAndExport:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExcitationPlan(0, -1, 1.0)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                NoiseModel(bad, 1.0)
            with pytest.raises(ValueError, match="finite"):
                NoiseModel(1.0, bad)

    def test_trajectory_shape_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_trajectory_immutable(self, tm):
        traj = simulate(tm, np.zeros(10), 2, NoiseModel(1, 1), seed=0)
        with pytest.raises(ValueError):
            traj.states[0, 0] = 1.0

    def test_csv_export(self, tm, tmp_path):
        traj = simulate(tm, np.ones(10), 3, NoiseModel(1, 1), ExcitationPlan(2, 1, 4.5), seed=6)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,node,state,observation"
        assert lines[-1] == "# excite node=2 t=1 e=4.5"
        body = [row for row in csv.reader(lines[1:]) if not row[0].startswith("#")]
        assert len(body) == 4 * 10
        t, node, state, obs = body[17]
        assert (int(t), int(node)) == (1, 7)
        assert float(state) == traj.states[1, 7]
        assert float(obs) == traj.observations[1, 7]
