"""Simulator exactness, noise statistics, excitation propagation, exports."""

import csv
import math
import re

import numpy as np
import pytest

from netprobe import dynamics
from netprobe.detect import deviation_noise_std
from netprobe.dynamics import (
    NoiseModel,
    simulate,
    simulate_batch,
    write_trajectory_csv,
)
from netprobe.infer import _drift_bound
from netprobe.topology import (
    StabilityClass,
    generate_random_digraph,
    laplacian_weights,
    scale_to_asymptotic,
)


def streams(seed):
    """``simulate_batch``'s two generators for a run's ``seed``: x0 rows, then every normal."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def injected_run(tm, x0, horizon, noise, plan, rng):
    """States and observations with the input ``plan`` = (node, time, e) inside the recursion.

    x[node] += e before the W step at ``time``; theta, then upsilon, are
    drawn by ``normal()`` from ``rng``, as ``simulate`` draws them.
    """
    node, time, e = plan
    theta = rng.normal(0.0, noise.sigma_theta, (horizon, tm.n))
    upsilon = rng.normal(0.0, noise.sigma_upsilon, (horizon + 1, tm.n))
    states = [np.asarray(x0, dtype=float)]
    for t in range(horizon):
        x = states[t].copy()
        if t == time:
            x[node] += e
        states.append(tm.matrix @ x + theta[t])
    states = np.array(states)
    return states, states + upsilon


def sampled_trial(tm, x0, horizon, noise, plan, rng, start):
    """Observations y_start..y_horizon of one trial from ``x0``, its normals read from ``rng``.

    Past ``start`` 0 it reads z ~ N(0, I) from ``rng`` first and runs from
    W^start x0 + L z on the same generator.  Unexcited (``plan`` None) it is
    ``simulate``; with a ``plan`` = (node, time, e) it is ``injected_run``,
    with the excitation time counted from ``start``.
    """
    if start:
        power, factor = dynamics._start_law(tm, start, noise)
        x0 = power @ x0 + factor @ rng.standard_normal(tm.n)
    if plan is None:
        return simulate(tm, x0, horizon - start, noise, rng)[1]
    node, time, e = plan
    return injected_run(tm, x0, horizon - start, noise, (node, time - start, e), rng)[1]


def stream_trials(tm, init, horizon, noise, plan, seed, trials, start):
    """The single-trial oracle of ``simulate_batch(tm, init, horizon, noise, seed, trials, start)``.

    Trial k's x0 is the k-th ``uniform(*init, n)`` row of the first stream,
    and ``sampled_trial`` reads its normals from the second, in trial order.
    Shaped (trials, rows, n).
    """
    uniforms, normals = streams(seed)
    return np.array([
        sampled_trial(tm, uniforms.uniform(*init, tm.n), horizon, noise, plan, normals, start)
        for _ in range(trials)
    ])


@pytest.fixture(scope="module")
def tm():
    return laplacian_weights(generate_random_digraph(10, 0.3, 17), 1.0)


class TestSimulate:
    def test_noiseless_matches_matrix_powers(self, tm):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-100, 100, 10)
        _, y = simulate(tm, x0, 30, NoiseModel.noiseless(), seed=1)
        power = np.eye(10)
        for t in range(31):
            assert np.abs(y[t] - power @ x0).max() <= 1e-12
            power = power @ tm.matrix

    def test_noiseless_excitation_adds_weight_column(self, tm):
        x0 = np.zeros(10)
        e, j, t0 = 5.0, 2, 3
        _, y = simulate(tm, x0, 6, NoiseModel.noiseless(), seed=1)
        y[t0:] += e * dynamics._response(tm, j, 6 - t0)
        assert np.abs(y[t0 + 1] - e * tm.matrix[:, j]).max() <= 1e-12
        # and the excited step's own observation is pre-injection
        assert np.abs(y[t0]).max() == 0.0

    def test_one_step_noise_covariance(self, tm):
        # variance of y_{t+1} - W y_t against its closed-form diagonal
        w = tm.matrix
        samples = np.empty((10**4, 10))
        for s in range(10**4):
            _, y = simulate(tm, np.zeros(10), 1, NoiseModel(1.0, 1.0), seed=s)
            samples[s] = y[1] - w @ y[0]
        target = np.diag(w @ w.T) + 1.0 + 1.0
        rel = np.abs(samples.var(axis=0, ddof=1) - target) / target
        assert rel.max() <= 0.05

    def test_matches_matrix_vector_recursion(self, tm):
        # the recursion written out, the injection added to a copy of the
        # recorded state, against the unexcited run plus e times the response
        x0 = np.random.default_rng(2).uniform(-100, 100, 10)
        noise = NoiseModel(1.5, 0.5)
        states, observations = injected_run(tm, x0, 8, noise, (3, 4, 9.5), np.random.default_rng(12))
        x, y = simulate(tm, x0, 8, noise, seed=12)
        kick = np.zeros((9, 10))
        kick[4:] = 9.5 * dynamics._response(tm, 3, 4)
        scale = np.abs(states).max()
        assert np.abs(x + kick - states).max() <= 1e-12 * scale
        assert np.abs(y + kick - observations).max() <= 1e-12 * scale

    def test_seeded_determinism(self, tm):
        a = simulate(tm, np.ones(10), 20, NoiseModel(1, 1), seed=99)
        b = simulate(tm, np.ones(10), 20, NoiseModel(1, 1), seed=99)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_excitation_superposition(self, tm):
        # same draws with/without input: the difference is the propagated
        # column, zero up to and including the injection step, whatever the noise
        x0 = np.random.default_rng(5).uniform(-100, 100, 10)
        e, j, t0 = 12.0, 4, 6
        for seed in (77, 78):
            base, _ = simulate(tm, x0, 14, NoiseModel(1, 1), seed=seed)
            rng = np.random.default_rng(seed)
            excited, _ = injected_run(tm, x0, 14, NoiseModel(1, 1), (j, t0, e), rng)
            assert np.abs(excited[:t0 + 1] - base[:t0 + 1]).max() <= 1e-9
            column = np.zeros(10)
            column[j] = e
            for t in range(t0 + 1, 15):
                column = tm.matrix @ column
                assert np.abs(excited[t] - base[t] - column).max() <= 1e-9

    def test_marginal_noiseless_boundedness(self, tm):
        x0 = np.random.default_rng(8).uniform(-50, 50, 10)
        states, _ = simulate(tm, x0, 40, NoiseModel.noiseless(), seed=0)
        assert np.abs(states).max() <= np.abs(x0).max() + 1e-12

    def test_rejects_bad_inputs(self, tm):
        with pytest.raises(ValueError):
            simulate(tm, np.zeros(3), 5, NoiseModel(1, 1))
        with pytest.raises(ValueError):
            simulate(tm, np.full(10, np.inf), 5, NoiseModel(1, 1))
        for horizon in (0, -2, 5.0, True, None):
            with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
                simulate(tm, np.zeros(10), horizon, NoiseModel(1, 1))
        states, observations = simulate(tm, np.zeros(10), np.int64(2), NoiseModel(1, 1))
        assert states.shape == observations.shape == (3, 10)


class TestSimulateTrial:
    """A seeded trial's initial-state interval U(init)."""

    @pytest.mark.parametrize(
        "init", [(-100.0, math.inf), (-math.inf, 100.0), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_rejects_non_finite_interval(self, tm, init):
        with pytest.raises(ValueError, match="finite"):
            simulate_batch(tm, init, 4, NoiseModel(), 1, 1)

    @pytest.mark.parametrize("init", [(50.0, -50.0), (5.0, 5.0)])
    def test_rejects_empty_interval(self, tm, init):
        with pytest.raises(ValueError, match="initial-state interval is empty"):
            simulate_batch(tm, init, 4, NoiseModel(), 1, 1)

    def test_rejects_interval_too_wide_to_draw_from(self, tm):
        # finite bounds whose width high - low overflows
        with pytest.raises(ValueError, match=re.escape("too wide to draw from, got (-1e+308, 1e+308)")):
            simulate_batch(tm, (-1e308, 1e308), 4, NoiseModel(), 1, 1)
        [y] = simulate_batch(tm, (-8e307, 8e307), 4, NoiseModel(), 1, 1)
        assert np.isfinite(y).all()


class TestSimulateBatch:
    @pytest.fixture(scope="class")
    def tm_wide(self):
        # wide enough that a many-row product rounds apart from W @ x
        return laplacian_weights(generate_random_digraph(120, 0.02, 4), 1.0)

    def test_matches_per_trial_observations(self, tm, tm_wide):
        # 11 trials step as one (n, n) @ (n, 11) product, which may round
        # the last bits apart from simulate's matrix-vector product
        for net in (tm, tm_wide):
            node, time, e = plan = (1, 20, 40.0)
            noise = NoiseModel(1.0, 0.5)
            for start in (0, 20):
                [windows] = simulate_batch(net, (-100.0, 100.0), 23, noise, 3, 11, start)
                windows[:, time - start:] += e * dynamics._response(net, node, 3)
                expected = stream_trials(net, (-100.0, 100.0), 23, noise, plan, 3, 11, start)
                assert windows.shape == (11, 24 - start, net.n)
                assert np.abs(windows - expected).max() <= 1e-12 * np.abs(expected).max()

    @staticmethod
    def injected_trials(tm, init, horizon, noise, plan, seed, trials):
        """Each trial's ``injected_run`` on ``simulate_batch``'s streams at start 0.

        x0 comes from the first stream, then theta and upsilon from the
        second, trial by trial.
        """
        uniforms, normals = streams(seed)
        for _ in range(trials):
            yield injected_run(tm, uniforms.uniform(*init, tm.n), horizon, noise, plan, normals)[1]

    @pytest.mark.parametrize("start", [0, 20])
    def test_superposed_input_matches_injection_oracle(self, tm, tm_wide, start):
        # an unexcited chunk plus e times the unit response from the injection
        # row on, against an oracle that injects the input inside the
        # recursion.  Start 0 replays the noisy draws; a start past 0 samples
        # its state, so it is checked noiselessly.
        noise = NoiseModel(1.0, 0.5) if start == 0 else NoiseModel.noiseless()
        for net in (tm, tm_wide):
            for plan in ((1, 20, 40.0), (net.n - 1, 22, -3.5)):
                node, time, e = plan
                [chunk] = simulate_batch(net, (-100.0, 100.0), 23, noise, 9, 6, start)
                chunk[:, time - start:] += e * dynamics._response(net, node, 23 - time)
                expected = np.array([
                    trial[start:]
                    for trial in self.injected_trials(net, (-100.0, 100.0), 23, noise, plan, 9, 6)
                ])
                assert np.abs(chunk - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_one_trial_is_seeded_trial(self, tm_wide):
        # one trial steps as one column, the same recursion as ``simulate``,
        # and its start state is the oracle's matrix-vector products: bit for bit
        noise = NoiseModel(0.5, 2.0)
        for start in (0, 5, 6):
            [window] = simulate_batch(tm_wide, (-3.0, 9.0), 9, noise, 8, 1, start)
            expected = stream_trials(tm_wide, (-3.0, 9.0), 9, noise, None, 8, 1, start)
            assert np.array_equal(window, expected)

    def test_start_at_horizon_keeps_one_row(self, tm):
        [windows] = simulate_batch(tm, (-1.0, 1.0), 7, NoiseModel(), 6, 3, 7)
        assert windows.shape == (3, 1, 10)
        uniforms, normals = streams(6)
        power, factor = dynamics._start_law(tm, 7, NoiseModel())
        for window in windows:
            # no kept step: each trial's normals are z, then upsilon for its one row
            x0 = uniforms.uniform(-1.0, 1.0, 10)
            state = power @ x0 + factor @ normals.standard_normal(10)
            want = state + normals.standard_normal(10)
            # three columns: the start state's products may round apart from the oracle's
            assert np.abs(window[0] - want).max() <= 1e-12 * np.abs(want).max()

    def test_chunks_give_the_same_rows(self, monkeypatch, tm_wide):
        # 13 trials in chunks of 5, 5 and 3, one trial a chunk, and one chunk
        # (the default budget): a trial's draws do not depend on its chunk, so
        # only the products' last bits may move.  A trial keeps 3 rows from
        # step 10, so its normals are z, two theta rows and three upsilon rows.
        args = (tm_wide, (-100.0, 100.0), 12, NoiseModel(), 21, 13, 10)
        whole = list(simulate_batch(*args))
        assert [len(chunk) for chunk in whole] == [13]
        for per_chunk, sizes in ((5, [5, 5, 3]), (1, [1] * 13)):
            monkeypatch.setattr(dynamics, "CHUNK_BYTES", per_chunk * 8 * 6 * tm_wide.n)
            chunks = list(simulate_batch(*args))
            assert [len(chunk) for chunk in chunks] == sizes
            parts = np.concatenate(chunks)
            assert np.abs(parts - whole[0]).max() <= 1e-12 * np.abs(whole[0]).max()

    def test_draws_match_normal(self):
        # standard_normal scaled in place is what normal(0, sigma) draws,
        # positive zeros at sigma 0 included
        for sigma in (1.7, 1.0, 0.0):
            want = np.random.default_rng(5).normal(0.0, sigma, (6, 4))
            got = dynamics._scale(np.random.default_rng(5).standard_normal((6, 4)), sigma)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_chunk_size_from_byte_budget(self, tm):
        # a chunk's normals (z, theta for the kept steps, upsilon for the kept
        # rows) stay within CHUNK_BYTES, at least one trial a chunk
        budget = dynamics.CHUNK_BYTES
        assert budget == 1 << 20
        # fig1b at n = 300 keeps 4 rows from step 50: 8 normal vectors a trial, 54 a chunk
        tm300 = laplacian_weights(generate_random_digraph(300, 0.005, 3), 1.0)
        chunks = simulate_batch(tm300, (-1.0, 1.0), 53, NoiseModel(), 2, 120, 50)
        assert [chunk.shape for chunk in chunks] == [(54, 4, 300)] * 2 + [(12, 4, 300)]
        # ... and in the one chunk of a run that fits
        chunks = simulate_batch(tm300, (-1.0, 1.0), 53, NoiseModel(), 2, 54, 50)
        assert [chunk.shape for chunk in chunks] == [(54, 4, 300)]
        assert 54 * 8 * 8 * 300 <= budget < 55 * 8 * 8 * 300
        # fig1a's 1,000 trials at n = 20 keep 2 rows from step 50: one chunk
        tm20 = laplacian_weights(generate_random_digraph(20, 0.08, 102), 1.0)
        chunks = simulate_batch(tm20, (-1.0, 1.0), 51, NoiseModel(), 2, 1000, 50)
        assert [len(chunk) for chunk in chunks] == [1000]
        # fig1c at n = 300 keeps all 307 rows: one trial a chunk
        chunks = simulate_batch(tm300, (-1.0, 1.0), 306, NoiseModel(), 2, 3)
        assert [chunk.shape for chunk in chunks] == [(1, 307, 300)] * 3

    def test_rejects_bad_inputs(self, tm):
        # the call raises, before any chunk is asked for
        args = (tm, (-1.0, 1.0))
        with pytest.raises(ValueError, match="first kept step 6 outside 0..5"):
            simulate_batch(*args, 5, NoiseModel(), 1, 1, 6)
        for start in (-1, 2.0, True, None):
            with pytest.raises(ValueError, match="start must be an integer >= 0"):
                simulate_batch(*args, 5, NoiseModel(), 1, 1, start)
        for horizon in (0, 5.0, True, None):
            with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
                simulate_batch(*args, horizon, NoiseModel(), 1, 1)
        # None would draw fresh OS entropy, so a run could not be reproduced
        for seed in (None, -1, 2.0, True, "3", [1]):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                simulate_batch(*args, 5, NoiseModel(), seed, 1, 2)
        for trials in (0, -3, 2.0, None, True):
            with pytest.raises(ValueError, match="trials must be an integer >= 1"):
                simulate_batch(*args, 5, NoiseModel(), 1, trials, 2)
        assert len(next(simulate_batch(*args, 5, NoiseModel(), np.int64(1), np.int64(2), 2))) == 2


class TestStartLaw:
    """``_start_law``'s (W^s, L), and the start states ``simulate_batch`` samples from it."""

    @staticmethod
    def plain_law(w, s, sigma):
        # the recursion step by step: x_{t+1} = W x_t + theta_t from x_0 = x0
        power, cov = np.eye(len(w)), np.zeros_like(w)
        for _ in range(s):
            power = w @ power
            cov = w @ cov @ w.T + sigma**2 * np.eye(len(w))
        return power, cov

    @pytest.mark.parametrize("stable", ["marginal", "asymptotic"])
    @pytest.mark.parametrize("s", [0, 1, 2, 3, 7, 50, 51, 64])
    def test_matches_plain_recursion(self, tm, stable, s):
        net = tm if stable == "marginal" else scale_to_asymptotic(tm, 0.9)
        power, factor = dynamics._start_law(net, s, NoiseModel(1.3, 1.0))
        want_power, want_cov = self.plain_law(net.matrix, s, 1.3)
        assert np.abs(power - want_power).max() <= 1e-12
        assert np.array_equal(factor, np.tril(factor))
        scale = max(np.abs(want_cov).max(), 1.0)
        assert np.abs(factor @ factor.T - want_cov).max() <= 1e-12 * scale

    def test_no_process_noise_gives_the_propagated_x0(self, tm):
        power, factor = dynamics._start_law(tm, 50, NoiseModel(0.0, 1.0))
        assert not factor.any()
        assert np.abs(power - np.linalg.matrix_power(tm.matrix, 50)).max() <= 1e-12
        # noiseless: the sampled windows are the full run's rows from step 50
        # on, since both runs draw the same x0 rows from the seed's first stream
        [windows] = simulate_batch(tm, (-100.0, 100.0), 53, NoiseModel.noiseless(), 4, 5, 50)
        full = stream_trials(tm, (-100.0, 100.0), 53, NoiseModel.noiseless(), None, 4, 5, 0)
        want = full[:, 50:]
        assert np.abs(windows - want).max() <= 1e-12 * np.abs(want).max()

    def test_sampled_state_matches_full_burn_in(self):
        # the shipped network and burn-in: x_50 of 10^4 trials, sampled and
        # stepped.  x0 has its own stream either way, so both runs share each
        # trial's x0, and x_50 - W^50 x0 carries the process noise alone.
        tm20 = laplacian_weights(generate_random_digraph(20, 0.08, 102), 1.0)
        s, count, init = 50, 10**4, (-100.0, 100.0)
        noise = NoiseModel(1.0, 0.0)  # no measurement noise: the rows are the states

        def states(start):
            chunks = simulate_batch(tm20, init, s, noise, 7, count, start)
            return np.concatenate([chunk[:, -1] for chunk in chunks])

        sampled, stepped = states(s), states(0)
        spread = np.sqrt((sampled.var(axis=0) + stepped.var(axis=0)) / count)
        assert (np.abs(sampled.mean(axis=0) - stepped.mean(axis=0)) <= 4 * spread).all()
        x0 = streams(7)[0].uniform(*init, (count, 20))
        drift = x0 @ np.linalg.matrix_power(tm20.matrix, s).T
        residual = sampled - drift
        assert (np.abs(residual.mean(axis=0)) <= 4 * residual.std(axis=0) / np.sqrt(count)).all()
        # each sample covariance is off by about sqrt(2 / count) = 1.4% in norm
        want = np.cov(stepped - drift, rowvar=False)
        got = np.cov(residual, rowvar=False)
        assert np.linalg.norm(got - want) <= 0.06 * np.linalg.norm(want)


class TestDeviationBound:
    """The dynamics' excitation-free drift bound, as infer's threshold reads it (``_drift_bound``)."""

    def test_marginal_is_spread(self):
        assert _drift_bound(np.array([3.0, 1.0, 2.0]), StabilityClass.MARGINALLY_STABLE) == 2.0

    def test_asymptotic_is_max_abs(self):
        assert _drift_bound(np.array([3.0, 1.0, 2.0]), StabilityClass.ASYMPTOTICALLY_STABLE) == 3.0
        assert _drift_bound(np.array([-4.0, 1.0]), StabilityClass.ASYMPTOTICALLY_STABLE) == 4.0

    def test_consensus_vector(self):
        assert _drift_bound(np.full(6, 1.7), StabilityClass.MARGINALLY_STABLE) == 0.0

    def test_rows_give_one_bound_each(self):
        y = np.array([[3.0, 1.0, 2.0], [-4.0, 1.0, 0.0]])
        marginal = _drift_bound(y, StabilityClass.MARGINALLY_STABLE)
        assert marginal.tolist() == [2.0, 5.0]
        asymptotic = _drift_bound(y, StabilityClass.ASYMPTOTICALLY_STABLE)
        assert asymptotic.tolist() == [3.0, 4.0]

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            _drift_bound(np.array([1.0, 2.0]), StabilityClass.UNSTABLE)


class TestObservationDeviation:
    def test_noiseless_one_step(self, tm):
        x0 = np.random.default_rng(3).uniform(-10, 10, 10)
        _, y = simulate(tm, x0, 4, NoiseModel.noiseless(), seed=0)
        y0 = y[0]
        for i in range(10):
            expected = (tm.matrix @ y0)[i] - y0[i]
            deviation = y[1, i] - y0[i]
            assert deviation == pytest.approx(expected, abs=1e-12)

    def test_consensus_excitation_reads_weight(self, tm):
        x0 = np.full(10, 3.0)
        e, j = 7.0, 1
        _, y = simulate(tm, x0, 2, NoiseModel.noiseless(), seed=0)
        y += e * dynamics._response(tm, j, 2)
        deviations = y[1] - y[0]
        for i in range(10):
            assert deviations[i] == pytest.approx(e * tm.matrix[i, j], abs=1e-12)

    def test_noise_variance_matches_closed_form(self):
        # deviation minus the propagated-snapshot drift is the h-step noise
        tm_small = laplacian_weights(generate_random_digraph(6, 0.4, 11), 1.0)
        i, h = 0, 3
        noise = NoiseModel(1.0, 1.0)
        target = deviation_noise_std(tm_small, h, noise)[h - 1, i] ** 2
        gh = np.linalg.matrix_power(tm_small.matrix, h)
        y = np.concatenate(list(simulate_batch(tm_small, (1.0, 3.0), h, noise, 0, 10**5)))
        y0 = y[:, 0]
        samples = (y[:, h, i] - y0[:, i]) - ((y0 @ gh.T)[:, i] - y0[:, i])
        assert abs(samples.var(ddof=1) - target) / target <= 0.05


class TestTypesAndExport:
    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                NoiseModel(bad, 1.0)
            with pytest.raises(ValueError, match="finite"):
                NoiseModel(1.0, bad)
        # the noise bounds square sigma, so its square must be finite too
        assert NoiseModel(1e154, 1e154).sigma_theta == 1e154
        for name, noise in (("sigma_theta", (1e200, 1.0)), ("sigma_upsilon", (1.0, 1.35e154))):
            with pytest.raises(ValueError, match=f"^{name} must be >= 0 with a finite square, got"):
                NoiseModel(*noise)

    def test_csv_export_rejects_unequal_shapes(self, tmp_path):
        path = tmp_path / "traj.csv"
        for states, observations in ((np.zeros((3, 2)), np.zeros((4, 2))), (np.zeros(3), np.zeros(3))):
            with pytest.raises(ValueError, match="equal shape"):
                write_trajectory_csv(path, states, observations)
        assert not path.exists()

    def test_csv_export(self, tm, tmp_path):
        states, observations = simulate(tm, np.ones(10), 3, NoiseModel(1, 1), seed=6)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, states, observations, (2, 1, 4.5))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,node,state,observation"
        assert lines[-1] == "# excite node=2 t=1 e=4.5"
        body = [row for row in csv.reader(lines[1:]) if not row[0].startswith("#")]
        assert len(body) == 4 * 10
        t, node, state, obs = body[17]
        assert (int(t), int(node)) == (1, 7)
        assert float(state) == states[1, 7]
        assert float(obs) == observations[1, 7]
