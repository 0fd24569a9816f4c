"""Experiment runners and CLI: determinism, theory columns, file formats."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from netprobe import cli, detect
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
from netprobe.topology import generate_random_digraph, load_weights


SMALL = ExperimentConfig(trial_count=20)


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

    def test_default_network_premises(self):
        # every positive weight of the default network reaches the test floor
        graph, tm = ExperimentConfig().build_network()
        assert tm.weight_floor >= 0.4
        assert graph.in_degrees().max() <= 2

    def test_sigma_bound_matches_detect(self):
        config = ExperimentConfig()
        assert config.sigma_bound() == detect.deviation_noise_bound(
            config.n, config.noise(), row_stochastic=True
        )

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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("banana = 3\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("trial_count = 5\n")
        assert load_config(path, trial_count=9).trial_count == 9


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
        assert table.column("b") == [2.5, 4.0]
        assert table.pretty().splitlines()[1].split() == ["1", "2.5"]

    def test_half_width(self):
        assert binomial_half_width(0.5, 0) == 0.5
        assert binomial_half_width(1.0, 1) == 0.5  # capped
        assert binomial_half_width(0.5, 10000) == pytest.approx(1.96 * 0.005)


class TestPickSourceNode:
    def test_prefers_small_out_degree(self):
        graph = generate_random_digraph(20, 0.08, 102)
        j = pick_source_node(graph)
        assert len(graph.out_neighbors(j)) == 1

    def test_multihop_requires_depth(self):
        graph = generate_random_digraph(20, 0.08, 102)
        j = pick_source_node(graph, max_hop=3)
        from netprobe.topology import true_hop_sets

        hs = true_hop_sets(graph, j, 3)
        assert all(hs.at_hop(h) for h in (1, 2, 3))


class TestRunners:
    def test_onehop_deterministic(self):
        a = run_onehop_accuracy(SMALL)
        b = run_onehop_accuracy(SMALL)
        assert a == b

    def test_onehop_theory_column_from_detect(self):
        table = run_onehop_accuracy(SMALL)
        sigma = SMALL.sigma_bound()
        for row in table.as_dicts():
            e = detect.critical_excitation(sigma, SMALL.weight_floor, row["error_target"])
            assert row["excitation"] == e
            assert row["theory_accuracy"] == 1.0 - detect.misjudgement_probability(
                sigma, SMALL.weight_floor, e
            )
            assert row["theory_accuracy"] == pytest.approx(1.0 - row["error_target"], abs=1e-10)

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
                row["gain_min"],
                row["gain_max"],
                row["critical_excitation"],
                config.false_alarm,
                # sigma is internal; re-derive via the critical-excitation identity
                row["critical_excitation"]
                * row["gain_min"]
                / (2 * math.sqrt(2) * detect.erf_inv(1 - 2 * config.false_alarm)),
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

    def test_runners_reject_floor_above_weights(self):
        # the default network's weights are all 0.5
        config = replace(SMALL, trial_count=1, weight_floor=0.6)
        config.build_network()  # building alone stays permissive
        for runner in (run_onehop_accuracy, run_multihop_accuracy, run_ls_improvement):
            with pytest.raises(ValueError, match="weight_floor"):
                runner(config)

    def test_default_config_trial_counts(self):
        assert default_config("fig1a").trial_count == 1000
        assert default_config("fig1c").trial_count == 50
        with pytest.raises(ValueError):
            default_config("fig2")


class TestCli:
    def run(self, *argv):
        assert cli.main(list(argv)) == 0

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
            "infer", "onehop", "--weights", str(w), "--excite-node", "0",
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
            "--out", str(out),
        )
        text = out.read_text()
        assert text.startswith("t,node,state,observation")
        assert "# excite node=1 t=5" in text

    def test_design_excitation_value(self, capsys):
        self.run(
            "design-excitation", "--weight-floor", "0.4", "--error-target", "0.05",
            "--row-stochastic",
        )
        out = json.loads(capsys.readouterr().out)
        assert out["excitation"] == pytest.approx(16.973786011142575, abs=1e-9)

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
        infer = ("infer", "onehop", "--weights", str(w), "--excite-node", "0", "--seed", "3")
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
                "infer", "onehop", "--weights", str(w), "--excite-node", "2",
                "--excite-magnitude", "1", "--sigma-theta", "0", "--sigma-upsilon", "0",
                "--burn-in", "1",
            ])
        assert info.value.code not in (None, 0)

    def test_counts_below_one_rejected(self, tmp_path, capsys):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        capsys.readouterr()
        infer = ("infer", "multi", "--weights", str(w), "--excite-node", "0")
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
        for mode in ("onehop", "multihop", "multi"):
            self.run("infer", mode, *noiseless)
            records = json.loads(capsys.readouterr().out)
            assert records[0]["source"] == 0
        self.run("estimate", "constrained", *noiseless)
        assert json.loads(capsys.readouterr().out)["mode"] == "constrained"

    BAD_INPUTS = {
        "infer-node-out-of-range": ("infer", "onehop", "--excite-node", "99", "--weights", "{w}"),
        "estimate-node-out-of-range": (
            "estimate", "constrained", "--excite-node", "99", "--weights", "{w}",
        ),
        "simulate-zero-steps": ("simulate", "--steps", "0", "--weights", "{w}", "--out", "{d}/t.csv"),
        "simulate-excite-after-horizon": (
            "simulate", "--steps", "5", "--excite-node", "1", "--excite-time", "9",
            "--weights", "{w}", "--out", "{d}/t.csv",
        ),
        "infer-negative-burn-in": (
            "infer", "onehop", "--excite-node", "0", "--burn-in", "-1", "--weights", "{w}",
        ),
        "experiment-zero-trials": ("experiment", "fig1a", "--trials", "0"),
        "config-unknown-key": ("experiment", "fig1a", "--config", "{d}/unknown.cfg"),
        "config-word-for-int": ("experiment", "fig1a", "--config", "{d}/word.cfg"),
        "missing-weights-file": ("infer", "onehop", "--excite-node", "0", "--weights", "{d}/none.txt"),
        "missing-config-file": ("experiment", "fig1a", "--config", "{d}/none.cfg"),
    }

    @pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_exits_with_message(self, tmp_path, argv):
        w = tmp_path / "w.txt"
        self.run("generate", "--n", "6", "--p", "0.4", "--seed", "1", "--weights-out", str(w))
        (tmp_path / "unknown.cfg").write_text("banana = 3\n")
        (tmp_path / "word.cfg").write_text("n = twelve\n")
        argv = [a.format(w=w, d=tmp_path) for a in argv]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert str(info.value.code).startswith(f"netprobe {argv[0]}: ")

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

    def test_experiment_rejects_odd_extension(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run("experiment", "fig1a", "--trials", "2", "--out", str(tmp_path / "r.xml"))

    def test_experiment_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("trial_count = 2\nerror_targets = 0.2\n")
        out = tmp_path / "r.csv"
        self.run("experiment", "fig1a", "--config", str(cfg), "--out", str(out))
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one error target
