"""Experiment runners and CLI: determinism, theory columns, file formats."""

import json
import math
import re
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from netprobe import cli, detect, dynamics, estimate, harness, infer
from netprobe.dynamics import NoiseModel, simulate
from netprobe.harness import (
    ExperimentConfig,
    ResultTable,
    binomial_half_width,
    default_config,
    load_config,
    pick_source_node,
    run_ls_improvement,
    run_multihop_accuracy,
    run_onehop_accuracy,
)
from netprobe.infer import decide, infer_one_hop
from netprobe.topology import WeightedDigraph, generate_random_digraph, load_weights, true_hop_sets

from test_dynamics import stream_trials


SMALL = ExperimentConfig(trial_count=20)


def per_trial_observations(config, tm, horizon, plan, start):
    """Each of the run's trials' rows y_start..y_horizon on its own, as the batch engine's oracle.

    ``plan`` is None or the input (node, time, e), stepped inside each trial's recursion.
    """
    init, noise = (config.init_low, config.init_high), config.noise()
    return stream_trials(tm, init, horizon, noise, plan, config.seed, config.trial_count, start)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trial_count=0)
        with pytest.raises(ValueError):
            ExperimentConfig(error_targets=(0.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(weight_rule="ring")
        with pytest.raises(ValueError):
            ExperimentConfig(alpha_scale=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(error_targets=())
        for scale in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                ExperimentConfig(excitation_scale=scale)
        # the placement bound needs a false-alarm level in (0, 1/2)
        for level in (0.5, 0.6, 0.0, math.nan):
            with pytest.raises(ValueError, match="false_alarm"):
                ExperimentConfig(false_alarm=level)

    @pytest.mark.parametrize(
        "field", ["weight_floor", "excitation_magnitude", "excitation_scale", "init_low", "init_high",
                  "gamma", "sigma_theta", "sigma_upsilon"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite|> 0"):
            ExperimentConfig(**{field: value})

    def test_rejects_nonpositive_weight_floor(self):
        for floor in (0.0, -0.4):
            with pytest.raises(ValueError, match="weight floor"):
                ExperimentConfig(weight_floor=floor)

    def test_default_network_premises(self):
        # every positive weight of the default network reaches the test floor
        graph, tm = ExperimentConfig().build_network()
        assert tm.weight_floor >= 0.4
        assert graph.in_degrees().max() <= 2

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "n = 12\n"
            "trial_count = 5\n"
            "error_targets = 0.1, 0.2\n"
            "excited_node = none\n"
            "weight_rule = metropolis\n"
            "edge_probability = 0.3\n"
        )
        config = load_config(path)
        assert config.n == 12
        assert config.trial_count == 5
        assert config.error_targets == (0.1, 0.2)
        assert config.excited_node is None
        assert config.weight_rule == "metropolis"

    def test_every_field_round_trip(self, tmp_path):
        config = ExperimentConfig(
            n=12,
            edge_probability=0.3,
            graph_seed=7,
            trial_count=5,
            sigma_theta=0.5,
            sigma_upsilon=0.25,
            weight_rule="metropolis",
            gamma=0.8,
            alpha_scale=0.9,
            weight_floor=0.2,
            error_targets=(0.1, 0.2),
            false_alarm=0.1,
            max_hop=2,
            excited_node=3,
            excitation_magnitude=7.5,
            excitation_scale=2.0,
            burn_in=10,
            init_low=-5.0,
            init_high=5.0,
            seed=99,
        )
        default = ExperimentConfig()
        lines = []
        for f in fields(config):
            value = getattr(config, f.name)
            assert value != getattr(default, f.name), f.name
            text = ", ".join(map(repr, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{f.name} = {text}\n")
        path = tmp_path / "every.cfg"
        path.write_text("".join(lines))
        assert load_config(path) == config
        path.write_text("alpha_scale = none\nexcited_node = null\n")
        assert load_config(path) == default

    def test_none_only_clears_optional_fields(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for line in ("n = none\n", "weight_floor = none\n"):
            path.write_text(line)
            with pytest.raises(ValueError):
                load_config(path)

    def test_bad_value_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for text in ("abc", "12 # twelve nodes"):
            path.write_text(f"# header\nn = {text}\n")
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: bad value for 'n': "):
                load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("banana = 3\n")
        with pytest.raises(ValueError):
            load_config(path)


class TestResultTable:
    def test_row_width_checked(self):
        for rows in (
            ({"a": 1, "b": 2}, {"a": 1}),
            ({"a": 1, "b": 2}, {"a": 1, "c": 2}),
            ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
        ):
            with pytest.raises(ValueError):
                ResultTable(rows)

    def test_exports(self, tmp_path):
        table = ResultTable([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert table.columns == ("a", "b")
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        table.write_csv(csv_path)
        table.write_json(json_path)
        assert csv_path.read_text().splitlines() == ["a,b", "1,2.5", "3,4.0"]
        assert json.loads(json_path.read_text())[1] == {"a": 3, "b": 4.0}
        assert table.pretty().splitlines()[1].split() == ["1", "2.5"]

    def test_half_width(self):
        assert binomial_half_width(0.5, 0) == 0.5
        assert binomial_half_width(1.0, 1) == 0.5  # capped
        assert binomial_half_width(0.5, 10000) == pytest.approx(1.96 * 0.005)


class TestPickSourceNode:
    def test_prefers_small_out_degree(self):
        graph = generate_random_digraph(20, 0.08, 102)
        out_degrees = graph.adjacency.sum(axis=0).tolist()
        expected = min((d, k) for k, d in enumerate(out_degrees) if d)[1]
        assert pick_source_node(graph) == expected
        assert out_degrees[expected] == 1

    def test_multihop_requires_depth(self):
        graph = generate_random_digraph(20, 0.08, 102)
        j = pick_source_node(graph, max_hop=3)
        assert set(true_hop_sets(graph, j, 3).tolist()) >= {1, 2, 3}
        for k in range(j):
            assert 3 not in true_hop_sets(graph, k, 3).tolist()

    def test_shallow_graph_rejected(self):
        # a 2-cycle reaches nothing at hop 2: the return is the source itself
        with pytest.raises(ValueError, match="depth 2"):
            pick_source_node(generate_random_digraph(2, 1.0, 0), max_hop=2)
        with pytest.raises(ValueError, match="no edges"):
            pick_source_node(WeightedDigraph(np.zeros((3, 3), dtype=int)))


class TestRunners:
    def test_onehop_deterministic(self):
        a = run_onehop_accuracy(SMALL)
        b = run_onehop_accuracy(SMALL)
        assert a == b

    def test_onehop_theory_column_from_detect(self):
        table = run_onehop_accuracy(SMALL)
        sigma = detect.onehop_noise_std(SMALL.build_network()[1], SMALL.noise())
        assert sigma == math.sqrt(3.0)  # the row-stochastic bound at unit noise
        for row in table.as_dicts():
            e = detect.critical_excitation(sigma, SMALL.weight_floor, row["error_target"])
            assert row["excitation"] == e
            assert row["theory_accuracy"] == 1.0 - detect.misjudgement_probability(
                sigma, SMALL.weight_floor, e
            )
            assert row["theory_accuracy"] == pytest.approx(1.0 - row["error_target"], abs=1e-10)

    def test_onehop_theory_column_ignores_input_sign(self):
        # the rule thresholds on |e|, so +-20 share one theory column
        theory = [
            [row["theory_accuracy"] for row in run_onehop_accuracy(
                replace(SMALL, trial_count=2, excitation_magnitude=e)
            ).as_dicts()]
            for e in (20.0, -20.0)
        ]
        assert theory[0] == theory[1]
        assert all(0.0 <= t <= 1.0 for t in theory[0])

    @pytest.mark.parametrize("figure", ["fig1a", "fig1b"])
    def test_noiseless_runs_finish(self, figure):
        config = replace(SMALL, trial_count=5, sigma_theta=0.0, sigma_upsilon=0.0)
        probabilities = ("theory_accuracy", "pair_accuracy", "set_accuracy",
                         "theory_lower_bound", "empirical_probability")
        for row in harness.run_experiment(figure, config).as_dicts():
            assert all(math.isfinite(value) for value in row.values())
            assert all(0.0 <= row[key] <= 1.0 for key in probabilities if key in row)
            # a designed input of 1 is told apart with certainty
            assert row.get("theory_accuracy", 1.0) == 1.0

    def test_onehop_single_trial_well_formed(self):
        table = run_onehop_accuracy(replace(SMALL, trial_count=1))
        for row in table.as_dicts():
            assert 0.0 <= row["pair_accuracy"] <= 1.0
            assert row["ci_half_width"] <= 0.5

    def test_multihop_theory_column_from_detect(self):
        config = replace(SMALL, trial_count=10)
        table = run_multihop_accuracy(config)
        for row in table.as_dicts():
            assert row["theory_lower_bound"] == detect.hop_inference_lower_bound(
                row["gain"],
                row["critical_excitation"],
                config.false_alarm,
                # sigma is internal; re-derive via the critical-excitation identity
                row["critical_excitation"]
                * row["gain"]
                / (2 * abs(NormalDist().inv_cdf(config.false_alarm))),
            )
            assert 0.0 <= row["empirical_probability"] <= 1.0

    def test_multihop_excitation_override(self):
        table = run_multihop_accuracy(replace(SMALL, trial_count=5, excitation_magnitude=123.0))
        assert all(row["excitation"] == 123.0 for row in table.as_dicts())

    def test_ls_improvement_rows_and_ranks(self):
        table = run_ls_improvement(replace(SMALL, trial_count=8))
        dicts = table.as_dicts()
        assert len(dicts) == 8
        assert all(row["rank"] == 20 and row["rank_deficient"] == 0 for row in dicts)
        assert all(row["ols_structure_error"] <= 1.0 for row in dicts)

    def test_ls_improvement_solves_plain_problem_once(self, monkeypatch):
        # with a zero-only pattern a trial needs one factorisation: OLS and
        # constrained LS share the plain solve, the pattern is downdated
        # through the same factor, and lstsq never runs
        calls = {"qr": [], "lstsq": []}

        def counting(name):
            original = getattr(np.linalg, name)

            def count(*args, **kwargs):
                calls[name].append(args[0].shape)
                return original(*args, **kwargs)

            return count

        def zero_only(decision):
            return {key: estimate.EntryConstraint.ZERO for key in estimate.constraints_from_decision(decision)}

        for name in calls:
            monkeypatch.setattr(estimate.np.linalg, name, counting(name))
        monkeypatch.setattr(harness, "constraints_from_decision", zero_only)
        run_ls_improvement(replace(SMALL, trial_count=3))
        # per trial: the full (25, 20) design only
        assert calls == {"qr": [(25, 20)] * 3, "lstsq": []}

    @pytest.mark.parametrize("n", [20, 100])
    def test_ls_improvement_matches_separate_solves(self, monkeypatch, n):
        config = replace(SMALL, trial_count=4)
        if n != config.n:
            config = replace(config, n=n, edge_probability=1.6 / n)
            config = replace(config, weight_floor=config.build_network()[1].weight_floor)
        shared = run_ls_improvement(config)

        # each estimator on a fresh problem of its own, so each solves the
        # plain problem itself
        def fresh(estimator):
            return lambda p: estimator(estimate.LsProblem(p.regressors, p.targets, p.constraints))

        monkeypatch.setattr(harness, "ols_estimate", fresh(estimate.ols_estimate))
        monkeypatch.setattr(harness, "constrained_estimate", fresh(estimate.constrained_estimate))
        assert run_ls_improvement(config).as_dicts() == shared.as_dicts()

    @pytest.mark.parametrize("n, seed, trials", [(300, 21, 2), (100, 8, 4)])
    def test_ls_improvement_agrees_with_lstsq_tables(self, monkeypatch, n, seed, trials):
        # the reference runs every solve through lstsq (the QR path off):
        # the plain solve and a fresh solve of each zero-only pattern's design
        config = replace(SMALL, trial_count=trials, seed=seed, n=n, edge_probability=1.6 / n)
        config = replace(config, weight_floor=config.build_network()[1].weight_floor)
        got = run_ls_improvement(config).as_dicts()
        monkeypatch.setattr(estimate, "_full_rank_solve", lambda x, y: None)
        reference = run_ls_improvement(config).as_dicts()
        assert len(got) == len(reference) == trials
        for row, ref in zip(got, reference):
            assert row["rank"] == n and not row["rank_deficient"]
            for key in ref:
                if key.endswith("magnitude_error"):
                    assert row[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0)
                else:
                    assert row[key] == ref[key]

    def test_runners_reject_floor_above_weights(self):
        # the default network's weights are all 0.5
        config = replace(SMALL, trial_count=1, weight_floor=0.6)
        config.build_network()  # building alone stays permissive
        for runner in (run_onehop_accuracy, run_multihop_accuracy, run_ls_improvement):
            with pytest.raises(ValueError, match="weight_floor"):
                runner(config)

    def test_onehop_counts_match_per_trial_decisions(self):
        config = replace(SMALL, trial_count=30)
        graph, tm = config.build_network()
        source = pick_source_node(graph)
        truth = true_hop_sets(graph, source, 1) == 1
        others = np.arange(20) != source
        t = config.burn_in
        for row in run_onehop_accuracy(config).as_dicts():
            e = row["excitation"]
            pair_ok = set_ok = 0
            for y in per_trial_observations(config, tm, t + 1, (source, t, e), t):
                estimated = infer_one_hop(
                    y[0], y[1], source, e, config.weight_floor, tm.stability
                ).first_hop == 1
                correct = (estimated == truth)[others]
                pair_ok += int(correct.sum())
                set_ok += bool(correct.all())
            assert row["pair_accuracy"] == pair_ok / row["decision_count"]
            assert row["set_accuracy"] == set_ok / config.trial_count

    def test_multihop_counts_match_per_trial_decisions(self):
        # a sub-critical input, so that some placements miss
        config = replace(SMALL, trial_count=40, excitation_scale=0.5)
        graph, tm = config.build_network()
        source = pick_source_node(graph, config.max_hop)
        rows = run_multihop_accuracy(config).as_dicts()
        e, t = rows[0]["excitation"], config.burn_in
        hits = {row["hop"]: 0 for row in rows}
        for y in per_trial_observations(config, tm, t + config.max_hop, (source, t, e), t):
            decision = decide(y[None], source, e, config.weight_floor, tm.stability)
            for row in rows:
                hits[row["hop"]] += row["target_node"] in decision.at_hop(row["hop"])
        assert [row["empirical_probability"] for row in rows] == [
            hits[row["hop"]] / config.trial_count for row in rows
        ]
        assert any(0 < hits[h] < config.trial_count for h in hits)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_multihop_targets_and_gains_match_per_hop_powers(self, scaled):
        # oracle: per hop, the level's smallest node and its gain (W^h)[target,
        # source], from matrix powers built from scratch
        config = replace(SMALL, trial_count=2)
        if scaled:
            config = replace(config, n=60, edge_probability=1.6 / 60, weight_rule="metropolis",
                             alpha_scale=0.9, max_hop=4)
            config = replace(config, weight_floor=config.build_network()[1].weight_floor)
        graph, tm = config.build_network()
        source = pick_source_node(graph, config.max_hop)
        levels = true_hop_sets(graph, source, config.max_hop)
        rows = run_multihop_accuracy(config).as_dicts()
        assert [row["hop"] for row in rows] == list(range(1, config.max_hop + 1))
        for row in rows:
            h = row["hop"]
            target = min(np.flatnonzero(levels == h).tolist())
            power = np.eye(config.n)
            for k in range(1, h + 1):
                power = power @ tm.matrix
                if k < h:
                    # the runner's premise: no walk shorter than h reaches the target
                    assert power[target, source] == 0.0
            assert row["target_node"] == target
            # the runner's column chain W(W..e_source) sums in another order than W^h
            assert row["gain"] > 0.0
            assert row["gain"] == pytest.approx(power[target, source], rel=1e-12)

    def test_tables_do_not_depend_on_chunk_size(self, monkeypatch):
        # 13 trials: one chunk by default.  fig1a/b/c trials carry 4, 8 and 53
        # normal vectors of n = 20, and a run of several chunks holds two
        # chunks' normals at once, so the budgets below give one trial a
        # chunk; chunks of 6, 3 and 1; and chunks of 13, 13 and 3.
        config = replace(SMALL, trial_count=13, excitation_scale=0.5)
        runners = (run_onehop_accuracy, run_multihop_accuracy, run_ls_improvement)
        whole = [runner(config) for runner in runners]
        _, tm = config.build_network()
        for budget, fig1b_sizes in ((2, [1] * 13), (2 * 3 * 8 * 8 * 20, [3, 3, 3, 3, 1]),
                                    (2 * 3 * 8 * 53 * 20, [13])):
            monkeypatch.setattr(dynamics, "CHUNK_BYTES", budget)
            assert [len(chunk) for chunk in harness._trials(config, tm, 53, 50)] == fig1b_sizes
            chunked = [runner(config) for runner in runners]
            assert chunked[:2] == whole[:2]
            for a, b in zip(chunked[2].rows, whole[2].rows):
                assert a == pytest.approx(b, rel=1e-12)

    def test_default_config_trial_counts(self):
        assert default_config("fig1a").trial_count == 1000
        assert default_config("fig1c").trial_count == 50
        with pytest.raises(ValueError):
            default_config("fig2")

    def test_readme_column_lists_match_tables(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = dict(re.findall(r"`experiment (fig1[abc])` \([^)]*\):\s*`([^`]*)`", readme))
        assert sorted(listed) == ["fig1a", "fig1b", "fig1c"]
        config = replace(SMALL, trial_count=2)
        for figure, text in listed.items():
            columns = tuple(c.strip() for c in text.split(","))
            assert columns == harness.run_experiment(figure, config).columns, figure


class TestTrialPipeline:
    """``harness._trials`` yields the run's unexcited chunks in trial order.

    A run of one chunk is drawn on the calling thread; a longer run's chunks
    are drawn one ahead on a worker thread that ends with the run.
    """

    CONFIG = replace(SMALL, trial_count=20)
    HORIZON, START = 53, 50

    def trials(self, monkeypatch, per_chunk):
        # a trial's normals: z, three theta rows and four upsilon rows; a run
        # of several chunks holds two chunks' normals at once
        _, tm = self.CONFIG.build_network()
        monkeypatch.setattr(dynamics, "CHUNK_BYTES", 2 * per_chunk * 8 * 8 * self.CONFIG.n)
        return tm, harness._trials(self.CONFIG, tm, self.HORIZON, self.START)

    @pytest.mark.parametrize(
        "per_chunk", [20, 9, 6, 3], ids=["1-chunk", "3-chunks", "4-chunks", "7-chunks"]
    )
    def test_chunks_equal_per_chunk_simulate_batch(self, monkeypatch, per_chunk):
        # the run builds its start-state law once, at the simulate_batch call
        laws = []
        law = dynamics._start_law
        monkeypatch.setattr(dynamics, "_start_law", lambda *args: laws.append(args) or law(*args))
        tm, chunks = self.trials(monkeypatch, per_chunk)
        assert len(laws) == 1
        chunks = list(chunks)
        assert len(laws) == 1
        config = self.CONFIG
        # the run's trials, first..first + per_chunk in each chunk; a chunk of
        # other width than the whole run's may round its products' last bits apart
        monkeypatch.undo()
        [whole] = dynamics.simulate_batch(
            tm, (config.init_low, config.init_high), self.HORIZON, config.noise(),
            config.seed, config.trial_count, self.START,
        )
        firsts = range(0, config.trial_count, per_chunk)
        assert len(chunks) == len(firsts)
        for first, chunk in zip(firsts, chunks):
            want = whole[first:first + per_chunk]
            assert chunk.shape == want.shape
            assert np.abs(chunk - want).max() <= 1e-12 * np.abs(want).max()
        assert len(chunks[-1]) == config.trial_count - firsts[-1]  # 20, 2, 2 and 2 trials

    def test_one_chunk_run_starts_no_thread(self, monkeypatch):
        before = threading.active_count()
        _, chunks = self.trials(monkeypatch, 20)
        for _ in chunks:
            assert threading.active_count() == before
        assert threading.active_count() == before

    @pytest.mark.parametrize("stop", ["exhausted", "closed"])
    def test_worker_ends_with_the_run(self, monkeypatch, stop):
        before = set(threading.enumerate())
        _, chunks = self.trials(monkeypatch, 3)
        next(chunks)
        [worker] = set(threading.enumerate()) - before
        if stop == "exhausted":
            assert len(list(chunks)) == 6
        else:
            chunks.close()
        worker.join(timeout=10)
        assert not worker.is_alive()

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # every draw of a run of several chunks is the worker's, and the
        # third raises there; the caller gets that same exception object when
        # it asks for the third chunk, after two chunks
        error = RuntimeError("draw failed")
        draw, calls = dynamics._draw, []

        def failing(*args):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise error
            return draw(*args)

        monkeypatch.setattr(dynamics, "_draw", failing)
        _, chunks = self.trials(monkeypatch, 3)
        got = []
        with pytest.raises(RuntimeError) as info:
            for chunk in chunks:
                got.append(chunk)
        assert info.value is error
        assert len(got) == 2
        assert threading.main_thread() not in calls

    def test_bits_under_a_short_switch_interval(self, monkeypatch):
        # the worker and the caller swap threads every microsecond: a run of 7
        # chunks keeps its bits, and agrees with the run of one chunk
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [np.concatenate(list(self.trials(monkeypatch, 3)[1])) for _ in range(2)]
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(runs[0], runs[1])
        [whole] = self.trials(monkeypatch, 20)[1]
        assert np.abs(runs[0] - whole).max() <= 1e-12 * np.abs(whole).max()

    def test_onehop_draws_each_chunk_once(self, monkeypatch):
        # fig1a decides its four error targets on one draw: one draw call per
        # chunk, not one per chunk and target
        config = replace(SMALL, trial_count=20)
        # a trial's normals: z, one theta row and two upsilon rows
        monkeypatch.setattr(dynamics, "CHUNK_BYTES", 2 * 3 * 8 * 4 * config.n)
        calls = []
        draw = dynamics._draw
        monkeypatch.setattr(dynamics, "_draw", lambda *args: calls.append(len(args[3])) or draw(*args))
        table = run_onehop_accuracy(config)
        assert len(table.rows) == len(config.error_targets) == 4
        assert calls == [3] * 6 + [2]


def oracle_trials(argv):
    """The unexcited observations infer/estimate draw, one trial at a time.

    ``stream_trials`` of the ``--seed`` run: one trial per round from the
    burn-in on, or estimate's one trial with every row.  Shaped like a
    ``simulate_batch`` chunk, so that ``iter([oracle_trials(argv)])`` can
    stand in for it.
    """
    args = cli.build_parser().parse_args(argv)
    tm, noise = load_weights(args.weights), NoiseModel(args.sigma_theta, args.sigma_upsilon)
    init = (args.init_low, args.init_high)
    if args.command == "estimate":
        steps = args.pairs + (args.mode == "constrained")
        return stream_trials(tm, init, steps, noise, None, args.seed, 1, 0)
    return stream_trials(
        tm, init, args.burn_in + args.max_hop, noise, None, args.seed, args.rounds, args.burn_in
    )


SHARED_DEFAULTS = {"seed": 0, "init_low": -100.0, "init_high": 100.0,
                   "sigma_theta": 1.0, "sigma_upsilon": 1.0}
# unset, so that estimate ols can reject them; --error-target 0.05 applies
DESIGN_DEFAULTS = {"excite_magnitude": None, "weight_floor": None, "error_target": None}


class TestCli:
    def run(self, *argv):
        assert cli.main(list(argv)) == 0

    @pytest.mark.parametrize(
        "argv, defaults",
        [
            (
                ["simulate", "--weights", "w.txt", "--out", "t.csv"],
                # unset, so that a run without --excite-node can reject them
                {**SHARED_DEFAULTS, "steps": 100, "excite_node": None, "excite_time": None,
                 "excite_magnitude": None},
            ),
            (
                ["infer", "--weights", "w.txt", "--excite-node", "2"],
                # one round, decided one hop deep
                {**SHARED_DEFAULTS, **DESIGN_DEFAULTS, "max_hop": 1, "rounds": 1,
                 "burn_in": 50, "out": None},
            ),
            (
                # unset, so that ols can reject it; constrained mode excites node 0
                ["estimate", "ols", "--weights", "w.txt"],
                {**SHARED_DEFAULTS, **DESIGN_DEFAULTS, "pairs": 25, "excite_node": None,
                 "constraints_out": None, "out": None},
            ),
            (
                # unset, so that --sigma can reject them; the bound uses n = 20 and unit noise
                ["design-excitation", "--weight-floor", "0.4", "--error-target", "0.05"],
                {"sigma_theta": None, "sigma_upsilon": None, "n": None, "sigma": None,
                 "row_stochastic": False},
            ),
        ],
        ids=["simulate", "infer", "estimate", "design-excitation"],
    )
    def test_minimal_argv_keeps_defaults(self, argv, defaults):
        args = vars(cli.build_parser().parse_args(argv))
        assert {name: args[name] for name in defaults} == defaults
        if "--weights" in argv:
            at = argv.index("--weights")
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv[:at] + argv[at + 2:])

    @staticmethod
    def assert_decisions_agree(batch_text, loop_text):
        # several rounds step as one (n, n) @ (n, rounds) product: the last bits may move
        batch, loop = json.loads(batch_text), json.loads(loop_text)
        for got, want in zip(batch, loop, strict=True):
            assert got["members"] == want["members"]
            want_values = [want["threshold"], *want["deviations"].values()]
            got_values = [got["threshold"], *got["deviations"].values()]
            scale = max(abs(v) for v in want_values)
            assert got_values == pytest.approx(want_values, rel=0, abs=1e-12 * scale)

    @pytest.mark.parametrize(
        "network",
        [("--n", "20", "--p", "0.08", "--seed", "102"), ("--n", "150", "--p", "0.02", "--seed", "5")],
        ids=["n20", "n150"],
    )
    def test_trials_match_per_round_loop(self, tmp_path, capsys, monkeypatch, network):
        w, out = tmp_path / "w.txt", tmp_path / "out"
        self.run("generate", *network, "--weights-out", str(w))
        common = ("--weights", str(w), "--seed", "3", "--out", str(out))
        node = ("--excite-node", "1")
        rounds = (("infer", *node, "--rounds", "8"), ("infer", *node, "--max-hop", "2", "--rounds", "3"))
        commands = (
            ("infer", *node), ("infer", *node, "--max-hop", "3"),
            ("infer", *node, "--rounds", "1"), ("estimate", "ols"),
            ("estimate", "constrained", *node), *rounds,
        )
        for command in commands:
            argv = [*command, *common]
            texts = []
            for draws in (None, oracle_trials(argv)):
                if draws is not None:
                    monkeypatch.setattr(cli, "simulate_batch", lambda *args: iter([draws]))
                capsys.readouterr()
                self.run(*argv)
                texts.append(capsys.readouterr().out + out.read_text())
                monkeypatch.undo()
            if command in rounds:
                self.assert_decisions_agree(*texts)
            else:
                assert texts[0] == texts[1], command

    def test_multi_rounds_over_chunks_match_per_round_loop(self, tmp_path, monkeypatch):
        # 8 rounds of 51 steps in chunks of 3, 3 and 2
        w, out = tmp_path / "w.txt", tmp_path / "out"
        self.run("generate", "--n", "20", "--p", "0.08", "--seed", "102", "--weights-out", str(w))
        argv = ["infer", "--rounds", "8", "--weights", str(w), "--excite-node", "1",
                "--seed", "3", "--out", str(out)]
        chunks = []
        draw = dynamics._draw
        monkeypatch.setattr(dynamics, "_draw", lambda *args: chunks.append(len(args[3])) or draw(*args))
        # a round's normals: z, one theta row and two upsilon rows, two chunks' at once
        monkeypatch.setattr(dynamics, "CHUNK_BYTES", 2 * 3 * 8 * 4 * 20)
        self.run(*argv)
        chunked = out.read_text()
        assert chunks == [3, 3, 2]
        monkeypatch.undo()
        draws = oracle_trials(argv)
        monkeypatch.setattr(cli, "simulate_batch", lambda *args: iter([draws]))
        self.run(*argv)
        self.assert_decisions_agree(chunked, out.read_text())

    def test_design_covers_rows_beyond_unit_norm(self, tmp_path):
        # stable, yet row 1's squared sum is 1.53 > 1, so the tight bound
        # sqrt(2 su^2 + st^2) = 1.732 understates node 1's one-step noise 1.879
        w = tmp_path / "w.txt"
        w.write_text("4\n0.5 0 0 0\n1.2 0.3 0 0\n0 0.9 0.05 0\n0 0 0.6 0.2\n")
        for command in (("infer", "--excite-node", "0"), ("estimate", "constrained")):
            args = cli.build_parser().parse_args([*command, "--weights", str(w)])
            tm, floor, noise, e = cli._trial_setup(args, 0)
            for i in range(tm.n):
                sigma = detect.deviation_noise_std(tm, 1, noise)[0, i]
                assert detect.misjudgement_probability(sigma, floor, e) <= 0.05 + 1e-12
        # where every squared row sum is <= 1 the design stays the tight bound's
        self.run("generate", "--n", "20", "--p", "0.08", "--seed", "102", "--weights-out", str(w))
        args = cli.build_parser().parse_args(["infer", "--weights", str(w), "--excite-node", "1"])
        tm, floor, noise, e = cli._trial_setup(args, 1)
        assert e == detect.critical_excitation(math.sqrt(3.0), floor, 0.05)

    def test_generate_and_infer_flow(self, tmp_path, capsys):
        w = tmp_path / "w.txt"
        adj = tmp_path / "adj.txt"
        self.run(
            "generate", "--n", "12", "--p", "0.2", "--seed", "5",
            "--adjacency-out", str(adj), "--weights-out", str(w),
        )
        info = json.loads(capsys.readouterr().out)
        assert info["n"] == 12 and adj.exists() and w.exists()

        out = tmp_path / "dec.json"
        self.run(
            "infer", "--weights", str(w), "--excite-node", "0",
            "--seed", "3", "--out", str(out),
        )
        records = json.loads(out.read_text())
        assert records[0]["source"] == 0

    def test_simulate_writes_csv(self, tmp_path, capsys):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        capsys.readouterr()
        out = tmp_path / "traj.csv"
        self.run(
            "simulate", "--weights", str(w), "--steps", "10", "--seed", "2",
            "--excite-node", "1", "--excite-time", "5", "--excite-magnitude", "4.0",
            "--init-low", "-3", "--init-high", "9", "--sigma-theta", "0.5", "--sigma-upsilon", "2",
            "--out", str(out),
        )
        text = out.read_text()
        assert text.startswith("t,node,state,observation")
        assert "# excite node=1 t=5" in text
        # x0 ~ U(init) is drawn first, then the unexcited dynamics on the same
        # generator, and the input is added to both columns from step 5 on as
        # 4.0 times the unit response (W^k)[:, 1], stepped here by hand; %.17g
        # round-trips every value, so the columns match bit for bit
        tm = load_weights(w)
        rng = np.random.default_rng(2)
        x0 = rng.uniform(-3.0, 9.0, tm.n)
        states, observations = simulate(tm, x0, 10, NoiseModel(0.5, 2.0), rng)
        kick, unit = np.zeros((11, 6)), tm.matrix[:, 1]
        for t in range(6, 11):
            kick[t] = 4.0 * unit
            unit = tm.matrix @ unit
        rows = [line.split(",") for line in text.splitlines()[1:] if not line.startswith("#")]
        assert [(int(t), int(i)) for t, i, _, _ in rows] == [(t, i) for t in range(11) for i in range(6)]
        got = np.array([[float(x), float(y)] for _, _, x, y in rows]).reshape(11, 6, 2)
        assert np.array_equal(got[..., 0], states + kick)
        assert np.array_equal(got[..., 1], observations + kick)

    def test_design_excitation_value(self, capsys):
        self.run(
            "design-excitation", "--weight-floor", "0.4", "--error-target", "0.05",
            "--row-stochastic",
        )
        out = json.loads(capsys.readouterr().out)
        assert out["excitation"] == pytest.approx(16.973786011142575, abs=1e-9)

    def test_design_excitation_tiny_error_target(self, capsys):
        # a target below the float spacing at one: the design still meets it
        self.run("design-excitation", "--weight-floor", "0.4", "--error-target", "1e-17")
        out = json.loads(capsys.readouterr().out)
        misjudged = detect.misjudgement_probability(out["sigma_bound"], 0.4, out["excitation"])
        assert misjudged == pytest.approx(1e-17, rel=1e-9, abs=0.0)

    def test_design_excitation_rejects_bad_inputs(self):
        for extra in (("--error-target", "1.0"), ("--error-target", "0.05", "--sigma", "-1")):
            with pytest.raises(SystemExit) as info:
                cli.main(["design-excitation", "--weight-floor", "0.4", *extra])
            assert info.value.code not in (None, 0)

    def test_weight_floor_comes_from_matrix(self, tmp_path, capsys):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "12", "--p", "0.2", "--seed", "5", "--weights-out", str(w))
        capsys.readouterr()
        floor = load_weights(w).weight_floor
        assert floor != 0.4
        infer = ("infer", "--weights", str(w), "--excite-node", "0", "--seed", "3")
        self.run(*infer)
        omitted = capsys.readouterr().out
        self.run(*infer, "--weight-floor", repr(floor))
        assert capsys.readouterr().out == omitted
        for command in (infer, ("estimate", "constrained", "--weights", str(w))):
            with pytest.raises(SystemExit) as info:
                cli.main([*command, "--weight-floor", repr(floor + 0.1)])
            assert info.value.code not in (None, 0)

    def test_non_stochastic_marginal_matrix_rejected(self, tmp_path):
        # node 2 has no out-neighbours, yet the spread drift bound, applied
        # without its row-stochastic premise, accepted node 0 noiselessly
        w = tmp_path / "w.txt"
        w.write_text("3\n0 2 0\n0.5 0 0\n0 0.5 0.5\n")
        with pytest.raises(SystemExit) as info:
            cli.main([
                "infer", "--weights", str(w), "--excite-node", "2",
                "--excite-magnitude", "1", "--sigma-theta", "0", "--sigma-upsilon", "0",
                "--burn-in", "1",
            ])
        assert info.value.code not in (None, 0)

    def test_non_finite_weights_file_named(self, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("2\nnan 0.5\n0.5 0.5\n")
        with pytest.raises(SystemExit) as info:
            cli.main(["infer", "--weights", str(w), "--excite-node", "0"])
        assert info.value.code == f"netprobe infer: {w}: matrix entries must be finite"

    def test_counts_below_one_rejected(self, tmp_path, capsys):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        capsys.readouterr()
        infer = ("infer", "--weights", str(w), "--excite-node", "0")
        for argv in (
            (*infer, "--rounds", "0"),
            (*infer, "--max-hop", "0"),
            ("estimate", "ols", "--weights", str(w), "--pairs", "0"),
        ):
            with pytest.raises(SystemExit) as info:
                cli.main(list(argv))
            assert info.value.code not in (None, 0)
        assert "must be >= 1" in capsys.readouterr().err

    def test_noiseless_runs_apply_unit_excitation(self, tmp_path, capsys):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "12", "--p", "0.2", "--seed", "5", "--weights-out", str(w))
        capsys.readouterr()
        noiseless = ("--weights", str(w), "--excite-node", "0",
                     "--sigma-theta", "0", "--sigma-upsilon", "0")
        for depth_or_rounds in ((), ("--max-hop", "3"), ("--rounds", "4")):
            self.run("infer", *noiseless, *depth_or_rounds)
            records = json.loads(capsys.readouterr().out)
            assert records[0]["source"] == 0
        self.run("estimate", "constrained", *noiseless)
        assert json.loads(capsys.readouterr().out)["mode"] == "constrained"

    BAD_INPUTS = {
        "infer-node-out-of-range": ("infer", "--excite-node", "99", "--weights", "{w}"),
        "estimate-node-out-of-range": (
            "estimate", "constrained", "--excite-node", "99", "--weights", "{w}",
        ),
        "simulate-zero-steps": ("simulate", "--steps", "0", "--weights", "{w}", "--out", "{d}/t.csv"),
        "simulate-zero-steps-excited": (
            "simulate", "--steps", "0", "--excite-node", "1", "--excite-magnitude", "4",
            "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "simulate-excite-after-horizon": (
            "simulate", "--steps", "5", "--excite-node", "1", "--excite-time", "9",
            "--excite-magnitude", "4", "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "simulate-node-out-of-range": (
            "simulate", "--steps", "5", "--excite-node", "6", "--excite-time", "2",
            "--excite-magnitude", "4", "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "simulate-negative-excite-time": (
            "simulate", "--steps", "5", "--excite-node", "1", "--excite-time", "-1",
            "--excite-magnitude", "4", "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "experiment-zero-trials": ("experiment", "fig1a", "--trials", "0"),
        "config-unknown-key": ("experiment", "fig1a", "--config", "{d}/unknown.cfg"),
        "config-word-for-int": ("experiment", "fig1a", "--config", "{d}/word.cfg"),
        "config-duplicate-key": ("experiment", "fig1a", "--config", "{d}/twice.cfg"),
        "missing-weights-file": ("infer", "--excite-node", "0", "--weights", "{d}/none.txt"),
        "infer-weights-header-only": ("infer", "--excite-node", "0", "--weights", "{d}/header.txt"),
        "simulate-weights-header-only": (
            "simulate", "--steps", "5", "--weights", "{d}/header.txt", "--out", "{d}/t.csv",
        ),
        "infer-weights-empty-file": ("infer", "--excite-node", "0", "--weights", "{d}/empty.txt"),
        "missing-config-file": ("experiment", "fig1a", "--config", "{d}/none.cfg"),
        "config-nan-weight-floor": ("experiment", "fig1b", "--config", "{d}/nanfloor.cfg"),
        "config-nan-magnitude": ("experiment", "fig1b", "--config", "{d}/nanmag.cfg"),
        "config-inf-init-high": ("experiment", "fig1b", "--config", "{d}/infinit.cfg"),
        "simulate-inf-init-high": (
            "simulate", "--steps", "5", "--init-high", "inf", "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "simulate-nan-magnitude": (
            "simulate", "--steps", "5", "--excite-node", "1", "--excite-time", "2",
            "--excite-magnitude", "nan", "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "infer-nan-magnitude": (
            "infer", "--excite-node", "0", "--excite-magnitude", "nan", "--weights", "{w}",
        ),
        "infer-inf-magnitude": (
            "infer", "--excite-node", "0", "--excite-magnitude", "inf", "--weights", "{w}",
        ),
        "estimate-nan-magnitude": (
            "estimate", "constrained", "--excite-magnitude", "nan", "--weights", "{w}",
        ),
        "estimate-negative-node": (
            "estimate", "constrained", "--excite-node", "-1", "--weights", "{w}",
        ),
        "simulate-nan-sigma": (
            "simulate", "--steps", "5", "--sigma-theta", "nan", "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "infer-floor-above-smallest-weight": (
            "infer", "--excite-node", "0", "--weight-floor", "5", "--weights", "{w}",
        ),
        "infer-nan-weight-floor": (
            "infer", "--excite-node", "0", "--weight-floor", "nan",
            "--excite-magnitude", "5", "--weights", "{w}",
        ),
        "design-nan-sigma": (
            "design-excitation", "--weight-floor", "0.5", "--error-target", "0.1", "--sigma", "nan",
        ),
        "infer-nan-init-low": (
            "infer", "--excite-node", "0", "--init-low", "nan", "--weights", "{w}",
        ),
        "design-error-target-above-one": (
            "design-excitation", "--weight-floor", "0.5", "--error-target", "1.5",
        ),
        "design-zero-sigma": (
            "design-excitation", "--weight-floor", "0.5", "--error-target", "0.1", "--sigma", "0",
        ),
        "design-sigma-with-row-stochastic": (
            "design-excitation", "--weight-floor", "0.5", "--error-target", "0.1", "--sigma", "2",
            "--row-stochastic",
        ),
        "generate-weight-options-without-weights-out": (
            "generate", "--n", "6", "--rule", "metropolis", "--gamma", "0.5", "--alpha", "0.9",
        ),
        "design-sigma-with-bound-options": (
            "design-excitation", "--weight-floor", "0.5", "--error-target", "0.1", "--sigma", "2",
            "--n", "50", "--sigma-theta", "7",
        ),
        "simulate-excite-time-without-node": (
            "simulate", "--steps", "10", "--excite-time", "5", "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "simulate-excite-magnitude-without-node": (
            "simulate", "--steps", "10", "--excite-magnitude", "4", "--weights", "{w}",
            "--out", "{d}/t.csv",
        ),
        "generate-metropolis-gamma": (
            "generate", "--n", "6", "--p", "0.4", "--rule", "metropolis", "--gamma", "0.5",
            "--weights-out", "{d}/m.txt",
        ),
        "config-metropolis-gamma": ("experiment", "fig1b", "--config", "{d}/metrogamma.cfg"),
        "unstable-weights": ("simulate", "--weights", "{d}/unstable.txt", "--out", "{d}/t.csv"),
        "experiment-odd-extension": ("experiment", "fig1a", "--trials", "2", "--out", "{d}/r.xml"),
        "simulate-reversed-init": (
            "simulate", "--steps", "2", "--init-low", "50", "--init-high", "-50",
            "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "estimate-empty-init": (
            "estimate", "ols", "--init-low", "5", "--init-high", "5", "--weights", "{w}",
        ),
        "estimate-ols-ignored-excite-node-99": (
            "estimate", "ols", "--excite-node", "99", "--weights", "{w}",
        ),
        "estimate-ols-ignored-excite-node-negative": (
            "estimate", "ols", "--excite-node", "-1", "--weights", "{w}",
        ),
        "estimate-ols-ignored-excite-magnitude-nan": (
            "estimate", "ols", "--excite-magnitude", "nan", "--weights", "{w}",
        ),
        "estimate-ols-constraints-out": (
            "estimate", "ols", "--constraints-out", "{d}/c.txt", "--weights", "{w}",
        ),
        "infer-error-target-one": (
            "infer", "--excite-node", "0", "--error-target", "1", "--weights", "{w}",
        ),
        "estimate-error-target-one": (
            "estimate", "constrained", "--error-target", "1", "--weights", "{w}",
        ),
        "estimate-ols-weight-floor": (
            "estimate", "ols", "--weight-floor", "0.1", "--weights", "{w}",
        ),
        "estimate-ols-error-target": (
            "estimate", "ols", "--error-target", "0.2", "--weights", "{w}",
        ),
        "simulate-init-too-wide": (
            "simulate", "--init-low=-1e308", "--init-high=1e308", "--weights", "{w}",
            "--out", "{d}/t.csv",
        ),
        "infer-init-too-wide": (
            "infer", "--excite-node", "0", "--init-low=-1e308", "--init-high=1e308", "--weights", "{w}",
        ),
        "estimate-init-too-wide": (
            "estimate", "ols", "--init-low=-1e308", "--init-high=1e308", "--weights", "{w}",
        ),
        "config-init-too-wide": ("experiment", "fig1a", "--config", "{d}/wideinit.cfg"),
        "config-sigma-square-overflows": ("experiment", "fig1a", "--config", "{d}/hugesigma.cfg"),
        "infer-sigma-square-overflows": (
            "infer", "--excite-node", "0", "--sigma-theta", "1e200", "--weights", "{w}",
        ),
        "design-sigma-square-overflows": (
            "design-excitation", "--weight-floor", "0.5", "--error-target", "0.1",
            "--sigma-theta", "1e200",
        ),
        "config-inf-excitation-scale": ("experiment", "fig1b", "--config", "{d}/infscale.cfg"),
        "config-excitation-scale-overflows": ("experiment", "fig1b", "--config", "{d}/hugescale.cfg"),
    }

    @pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_exits_with_message(self, tmp_path, argv):
        argv = self.bad_input_argv(tmp_path, argv)
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert str(info.value.code).startswith(f"netprobe {argv[0]}: ")

    def bad_input_argv(self, tmp_path, argv):
        """``argv`` with its weights, config and matrix files written to ``tmp_path``."""
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        (tmp_path / "unknown.cfg").write_text("banana = 3\n")
        (tmp_path / "word.cfg").write_text("n = twelve\n")
        (tmp_path / "nanfloor.cfg").write_text("weight_floor = nan\ntrial_count = 3\n")
        (tmp_path / "nanmag.cfg").write_text("excitation_magnitude = nan\ntrial_count = 3\n")
        (tmp_path / "infinit.cfg").write_text("init_high = inf\ntrial_count = 3\n")
        (tmp_path / "twice.cfg").write_text("n = 12\nn = 14\ntrial_count = 3\n")
        (tmp_path / "unstable.txt").write_text("2\n0 2\n2 0\n")
        (tmp_path / "header.txt").write_text("2\n\n")
        (tmp_path / "empty.txt").write_text("")
        (tmp_path / "metrogamma.cfg").write_text(
            "weight_rule = metropolis\ngamma = 0.3\ntrial_count = 3\n"
        )
        (tmp_path / "wideinit.cfg").write_text("init_low = -1e308\ninit_high = 1e308\ntrial_count = 3\n")
        (tmp_path / "hugesigma.cfg").write_text("sigma_upsilon = 1e200\ntrial_count = 3\n")
        (tmp_path / "infscale.cfg").write_text("excitation_scale = inf\ntrial_count = 3\n")
        (tmp_path / "hugescale.cfg").write_text("excitation_scale = 1e308\ntrial_count = 3\n")
        return [a.format(w=w, d=tmp_path) for a in argv]

    WIDE = "initial-state interval is too wide to draw from, got (-1e+308, 1e+308)"
    SQUARE = "must be >= 0 with a finite square, got 1e+200"
    OVERFLOW_MESSAGES = {
        "simulate-init-too-wide": f"simulate: {WIDE}",
        "infer-init-too-wide": f"infer: {WIDE}",
        "estimate-init-too-wide": f"estimate: {WIDE}",
        "config-init-too-wide": f"experiment: {WIDE}",
        "config-sigma-square-overflows": f"experiment: sigma_upsilon {SQUARE}",
        "infer-sigma-square-overflows": f"infer: sigma_theta {SQUARE}",
        "design-sigma-square-overflows": f"design-excitation: sigma_theta {SQUARE}",
        "config-inf-excitation-scale": "experiment: excitation_scale must be finite, got inf",
        "config-excitation-scale-overflows": "experiment: excitation_scale 1e+308 makes the excitation inf",
    }

    @pytest.mark.parametrize("case", OVERFLOW_MESSAGES)
    def test_overflowing_input_named_before_any_trial(self, tmp_path, monkeypatch, case):
        # finite values too large to draw from or to square, or a design they overflow
        argv = self.bad_input_argv(tmp_path, self.BAD_INPUTS[case])

        def draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(dynamics, "_draw", draw)
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == f"netprobe {self.OVERFLOW_MESSAGES[case]}"
        assert not (tmp_path / "t.csv").exists()

    SIMULATE_EXCITE_MESSAGES = {
        "simulate-zero-steps": "netprobe simulate: --steps must be an integer >= 1, got 0",
        "simulate-zero-steps-excited": "netprobe simulate: --steps must be an integer >= 1, got 0",
        "simulate-node-out-of-range": "netprobe simulate: excited node 6 outside 0..5",
        "simulate-negative-excite-time": "netprobe simulate: --excite-time -1 outside 0..4",
        "simulate-excite-after-horizon": "netprobe simulate: --excite-time 9 outside 0..4",
    }

    @pytest.mark.parametrize("case", SIMULATE_EXCITE_MESSAGES)
    def test_simulate_checks_its_input_before_drawing(self, tmp_path, case):
        # the step count, excited node and time are checked before any draw, and no CSV is written
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        with pytest.raises(SystemExit) as info:
            cli.main([a.format(w=w, d=tmp_path) for a in self.BAD_INPUTS[case]])
        assert info.value.code == self.SIMULATE_EXCITE_MESSAGES[case]
        assert not (tmp_path / "t.csv").exists()

    def test_error_messages_name_the_cause(self, tmp_path):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        twice = tmp_path / "twice.cfg"
        twice.write_text("n = 12\nn = 14\n")
        for argv, message in (
            (
                ["experiment", "fig1a", "--config", str(twice)],
                f"netprobe experiment: {twice}:2: duplicate config key 'n'",
            ),
            (
                ["design-excitation", "--weight-floor", "0.5", "--error-target", "1.5"],
                "netprobe design-excitation: --error-target must lie in (0, 1), got 1.5",
            ),
            (
                ["infer", "--weights", str(w), "--excite-node", "0", "--error-target", "1"],
                "netprobe infer: --error-target must lie in (0, 1), got 1.0",
            ),
            (
                ["simulate", "--steps", "2", "--init-low", "50", "--init-high", "-50",
                 "--weights", str(w), "--out", str(tmp_path / "t.csv")],
                "netprobe simulate: initial-state interval is empty",
            ),
            (
                ["estimate", "ols", "--weights", str(w), "--constraints-out", str(tmp_path / "c.txt")],
                "netprobe estimate: --constraints-out needs constrained mode",
            ),
            (
                ["estimate", "constrained", "--weights", str(w), "--excite-node", "6"],
                "netprobe estimate: excited node 6 outside 0..5",
            ),
            (
                # ols injects no input, so the options that design one are refused
                ["estimate", "ols", "--weights", str(w), "--excite-node", "5", "--excite-magnitude", "3",
                 "--weight-floor", "0.1", "--error-target", "0.2"],
                "netprobe estimate: --excite-node, --excite-magnitude, --weight-floor, --error-target: "
                "ignored outside constrained mode",
            ),
            (
                ["generate", "--rule", "metropolis", "--gamma", "0.5", "--alpha", "0.9",
                 "--adjacency-out", str(tmp_path / "a.txt")],
                "netprobe generate: --rule, --gamma, --alpha: ignored without --weights-out",
            ),
            (
                ["design-excitation", "--weight-floor", "0.5", "--error-target", "0.1",
                 "--sigma", "2", "--n", "50", "--sigma-theta", "7"],
                "netprobe design-excitation: --n, --sigma-theta: ignored when --sigma gives the bound",
            ),
            (
                ["design-excitation", "--weight-floor", "0.5", "--error-target", "0.1",
                 "--sigma", "2", "--row-stochastic"],
                "netprobe design-excitation: --row-stochastic: ignored when --sigma gives the bound",
            ),
            (
                ["simulate", "--weights", str(w), "--steps", "10", "--excite-magnitude", "4",
                 "--out", str(tmp_path / "t.csv")],
                "netprobe simulate: --excite-magnitude: ignored without --excite-node",
            ),
            (
                ["simulate", "--weights", str(w), "--steps", "10", "--excite-time", "5",
                 "--excite-magnitude", "0", "--out", str(tmp_path / "t.csv")],
                "netprobe simulate: --excite-time, --excite-magnitude: ignored without --excite-node",
            ),
            (
                # an excited run needs the magnitude: a zero input would be recorded as applied
                ["simulate", "--weights", str(w), "--steps", "5", "--excite-node", "1",
                 "--out", str(tmp_path / "t.csv")],
                "netprobe simulate: --excite-magnitude must be finite and nonzero, got None",
            ),
        ):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert str(info.value.code).startswith(message)
        assert not (tmp_path / "c.txt").exists()
        assert not (tmp_path / "a.txt").exists()
        assert not (tmp_path / "t.csv").exists()

    def test_unset_options_keep_effective_defaults(self, tmp_path, capsys):
        # generate and design-excitation parse these options as None when unset
        design = ("design-excitation", "--weight-floor", "0.4", "--error-target", "0.05")
        outputs = []
        for extra in ((), ("--n", "20", "--sigma-theta", "1", "--sigma-upsilon", "1")):
            self.run(*design, *extra)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["sigma_bound"] == math.sqrt(22.0)  # sqrt((1 + n) + 1), n = 20
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        self.run("generate", "--weights-out", str(a))
        self.run("generate", "--rule", "laplacian", "--gamma", "1", "--weights-out", str(b))
        assert a.read_text() == b.read_text()
        # unset, infer's --max-hop and --rounds are 1: one round, one hop deep
        capsys.readouterr()
        infer = ("infer", "--weights", str(a), "--excite-node", "1", "--seed", "4")
        outputs = []
        for extra in ((), ("--max-hop", "1", "--rounds", "1")):
            self.run(*infer, *extra)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    NEGATIVE_SEEDS = {
        "generate": ("generate", "--n", "6", "--seed", "-1"),
        "simulate": ("simulate", "--weights", "{w}", "--seed", "-1", "--out", "{d}/t.csv"),
        "infer": ("infer", "--weights", "{w}", "--excite-node", "0", "--seed", "-1"),
        "estimate": ("estimate", "ols", "--weights", "{w}", "--seed", "-1"),
        "experiment": ("experiment", "fig1a", "--trials", "2", "--seed", "-1"),
        "config-seed": ("experiment", "fig1a", "--config", "{d}/seed.cfg"),
        "config-graph-seed": ("experiment", "fig1a", "--config", "{d}/graphseed.cfg"),
    }

    @pytest.mark.parametrize("argv", NEGATIVE_SEEDS.values(), ids=NEGATIVE_SEEDS.keys())
    def test_negative_seed_named(self, tmp_path, capsys, argv):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        (tmp_path / "seed.cfg").write_text("trial_count = 2\nseed = -1\n")
        (tmp_path / "graphseed.cfg").write_text("trial_count = 2\ngraph_seed = -3\n")
        argv = [a.format(w=w, d=tmp_path) for a in argv]
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        if argv[0] == "experiment":
            # the config rejects it, from the command line and from a file alike
            name, value = ("graph_seed", -3) if "graphseed" in argv[-1] else ("seed", -1)
            assert info.value.code == f"netprobe experiment: {name} must be >= 0, got {value}"
        else:
            # the parser rejects it before the command runs
            assert info.value.code == 2
            assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_negative_burn_in_named(self, tmp_path, capsys):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            cli.main(["infer", "--excite-node", "0", "--burn-in", "-1", "--weights", str(w)])
        # the parser rejects it before the command runs
        assert info.value.code == 2
        assert "argument --burn-in: must be >= 0, got -1" in capsys.readouterr().err

    def test_infer_takes_no_mode(self, tmp_path, capsys):
        # depth and rounds are plain counts, so the parser refuses a mode word
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        capsys.readouterr()
        for mode in ("onehop", "multihop", "multi"):
            with pytest.raises(SystemExit) as info:
                cli.main(["infer", mode, "--weights", str(w), "--excite-node", "0"])
            assert info.value.code == 2
            assert f"unrecognized arguments: {mode}" in capsys.readouterr().err

    ZERO_INPUTS = {
        "simulate": (
            "simulate", "--steps", "5", "--excite-node", "1", "--excite-magnitude", "0",
            "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "infer": ("infer", "--excite-node", "0", "--excite-magnitude", "0", "--weights", "{w}"),
        "estimate-ols": ("estimate", "ols", "--excite-magnitude", "0", "--weights", "{w}"),
        "estimate-constrained": (
            "estimate", "constrained", "--excite-magnitude", "-0", "--weights", "{w}",
        ),
        "fig1a": ("experiment", "fig1a", "--config", "{d}/zero.cfg"),
        "fig1b": ("experiment", "fig1b", "--config", "{d}/zero.cfg"),
        "fig1c": ("experiment", "fig1c", "--config", "{d}/zero.cfg"),
    }

    @pytest.mark.parametrize("argv", ZERO_INPUTS.values(), ids=ZERO_INPUTS.keys())
    def test_zero_excitation_named_before_any_trial(self, tmp_path, monkeypatch, argv):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        (tmp_path / "zero.cfg").write_text("excitation_magnitude = 0\ntrial_count = 3\n")
        argv = [a.format(w=w, d=tmp_path) for a in argv]

        def draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(dynamics, "_draw", draw)
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        if argv[0] == "experiment":
            assert info.value.code == "netprobe experiment: excitation_magnitude must be nonzero, got 0.0"
        elif argv[:2] == ["estimate", "ols"]:
            # ols injects nothing, so any --excite-magnitude is refused as ignored
            assert info.value.code == "netprobe estimate: --excite-magnitude: ignored outside constrained mode"
        else:
            value = argv[argv.index("--excite-magnitude") + 1]
            assert info.value.code == (
                f"netprobe {argv[0]}: --excite-magnitude must be finite and nonzero, got {float(value)}"
            )

    @pytest.mark.parametrize("figure", ["fig1a", "fig1b", "fig1c"])
    @pytest.mark.parametrize("node", [-1, 20])
    def test_config_excited_node_outside_network_named(self, tmp_path, figure, node):
        # the config rejects it before any trial runs, for every runner
        cfg = tmp_path / "node.cfg"
        cfg.write_text(f"trial_count = 2\nexcited_node = {node}\n")
        with pytest.raises(SystemExit) as info:
            cli.main(["experiment", figure, "--config", str(cfg)])
        assert info.value.code == f"netprobe experiment: excited_node {node} outside 0..19"

    def test_estimate_constrained(self, tmp_path, capsys):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "10", "--p", "0.2", "--seed", "7", "--weights-out", str(w))
        capsys.readouterr()
        est_path = tmp_path / "est.txt"
        cons_path = tmp_path / "cons.txt"
        self.run(
            "estimate", "constrained", "--weights", str(w), "--pairs", "15",
            "--seed", "3", "--excite-node", "0",
            "--out", str(est_path), "--constraints-out", str(cons_path),
        )
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["mode"] == "constrained"
        assert est_path.exists() and cons_path.exists()

    def test_experiment_reproducible_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            self.run(
                "experiment", "fig1c", "--trials", "3", "--seed", "11", "--out", str(out)
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_experiment_json_output(self, tmp_path):
        out = tmp_path / "r.json"
        self.run("experiment", "fig1a", "--trials", "2", "--out", str(out))
        rows = json.loads(out.read_text())
        assert {"error_target", "pair_accuracy"} <= set(rows[0])

    def test_experiment_rejects_odd_extension(self, tmp_path, monkeypatch):
        # the extension is refused before the experiment runs
        def run_experiment(figure, config):
            raise AssertionError("the experiment ran before --out was checked")

        monkeypatch.setattr(harness, "run_experiment", run_experiment)
        with pytest.raises(SystemExit, match="--out must end in .csv or .json"):
            self.run("experiment", "fig1a", "--trials", "2", "--out", str(tmp_path / "r.xml"))

    def test_experiment_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("trial_count = 2\nerror_targets = 0.2\n")
        out = tmp_path / "r.csv"
        self.run("experiment", "fig1a", "--config", str(cfg), "--out", str(out))
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one error target
