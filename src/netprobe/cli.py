"""Command-line front end.

Subcommands: generate, simulate, design-excitation, infer, estimate
{ols,constrained}, experiment {fig1a,fig1b,fig1c}.  Tables are written as
CSV or JSON depending on the --out extension; graph and weight matrices use
the plain text matrix format; neighbor decisions are JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from netprobe import detect, dynamics, estimate, harness, infer, topology
from netprobe.dynamics import NoiseModel, simulate, simulate_batch


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_network(path: str) -> topology.TopologyMatrix:
    tm = topology.load_weights(path)
    if tm.stability is topology.StabilityClass.UNSTABLE:
        raise ValueError(f"weight matrix in {path} is spectrally unstable")
    return tm


def _given(args, *names) -> dict:
    """The named options given on the command line: parsed as neither None nor False."""
    values = {name: getattr(args, name) for name in names}
    return {name: value for name, value in values.items() if value is not None and value is not False}


def _reject_given(given: dict, reason: str) -> None:
    if given:
        raise ValueError(f"{', '.join('--' + name.replace('_', '-') for name in given)}: {reason}")


def _cmd_generate(args) -> None:
    weight_options = _given(args, "rule", "gamma", "alpha")
    if not args.weights_out:
        _reject_given(weight_options, "ignored without --weights-out")
    graph = topology.generate_random_digraph(args.n, args.p, args.seed)
    if args.adjacency_out:
        topology.save_matrix(args.adjacency_out, graph.adjacency)
    if args.weights_out:
        tm = topology.rule_weights(graph, **weight_options)
        topology.save_matrix(args.weights_out, tm.matrix)
    print(
        json.dumps(
            {
                "n": graph.n,
                "edges": graph.edge_count(),
                "max_in_degree": int(graph.in_degrees().max()),
            }
        )
    )


def _cmd_simulate(args) -> None:
    # first, as the --excite-time range and the simulator both read it
    dynamics._check_integer("--steps", args.steps, 1)
    tm = _load_network(args.weights)
    node, time = args.excite_node, args.excite_time
    if node is not None:
        e = _excite_magnitude(args.excite_magnitude)
        if not 0 <= node < tm.n:
            raise ValueError(f"excited node {node} outside 0..{tm.n - 1}")
        time = args.steps - 1 if time is None else time
        if not 0 <= time < args.steps:
            raise ValueError(f"--excite-time {time} outside 0..{args.steps - 1}")
    else:
        _reject_given(_given(args, "excite_time", "excite_magnitude"), "ignored without --excite-node")
    noise = NoiseModel(args.sigma_theta, args.sigma_upsilon)
    init = (args.init_low, args.init_high)
    dynamics._check_init(init)
    # x0 ~ U(init) first, then the dynamics on the same generator
    rng = np.random.default_rng(args.seed)
    states, observations = simulate(tm, rng.uniform(*init, tm.n), args.steps, noise, rng)
    if node is not None:
        # by superposition: the input adds e (W^k)[:, node] to the row k steps after it
        kick = e * dynamics._response(tm, node, args.steps - time)
        states[time:] += kick
        observations[time:] += kick
    excitation = None if node is None else (node, time, e)
    dynamics.write_trajectory_csv(args.out, states, observations, excitation)
    print(json.dumps({"steps": args.steps, "nodes": tm.n, "out": args.out}))


def _excite_magnitude(e: float | None) -> float:
    if e is None or not (math.isfinite(e) and e != 0.0):
        raise ValueError(f"--excite-magnitude must be finite and nonzero, got {e}")
    return e


def _error_target(args) -> float:
    target = 0.05 if args.error_target is None else args.error_target
    if not 0.0 < target < 1.0:
        raise ValueError(f"--error-target must lie in (0, 1), got {target}")
    return target


def _cmd_design(args) -> None:
    bound_options = _given(args, "n", "sigma_theta", "sigma_upsilon", "row_stochastic")
    if args.sigma is not None:
        _reject_given(bound_options, "ignored when --sigma gives the bound")
        sigma = args.sigma
    else:
        noise = NoiseModel(**_given(args, "sigma_theta", "sigma_upsilon"))
        n = bound_options.get("n", 20)
        sigma = detect.deviation_noise_bound(n, noise, row_stochastic=args.row_stochastic)
    budget = _error_target(args)
    if sigma <= 0.0:
        raise ValueError(f"noise std bound must be > 0, got {sigma}")
    print(
        json.dumps(
            {
                "weight_floor": args.weight_floor,
                "error_budget": budget,
                "sigma_bound": sigma,
                "excitation": detect.critical_excitation(sigma, args.weight_floor, budget),
            }
        )
    )


def _weight_floor(args, tm: topology.TopologyMatrix) -> float:
    """--weight-floor, defaulting to the loaded matrix's smallest weight."""
    if args.weight_floor is None:
        return tm.weight_floor
    if not 0.0 < args.weight_floor <= tm.weight_floor:
        raise ValueError(
            f"--weight-floor {args.weight_floor} must be > 0 and at most the smallest "
            f"weight {tm.weight_floor} in {args.weights}"
        )
    return args.weight_floor


def _trial_setup(args, source: int):
    """Network, weight floor, noise and applied magnitude for an input at ``source``."""
    tm = _load_network(args.weights)
    floor = _weight_floor(args, tm)
    budget = _error_target(args)
    noise = NoiseModel(args.sigma_theta, args.sigma_upsilon)
    if not 0 <= source < tm.n:
        raise ValueError(f"excited node {source} outside 0..{tm.n - 1}")
    given = None if args.excite_magnitude is None else _excite_magnitude(args.excite_magnitude)
    _, e = detect.design([detect.onehop_noise_std(tm, noise)], [floor], budget, given=given)
    return tm, floor, noise, e


def _cmd_infer(args) -> None:
    source = args.excite_node
    tm, floor, noise, e = _trial_setup(args, source)
    # the rounds are the trials of one seeded run, drawn in turn on its streams
    chunks = simulate_batch(
        tm, (args.init_low, args.init_high), args.burn_in + args.max_hop, noise, args.seed,
        args.rounds, args.burn_in,
    )
    windows = np.concatenate(list(chunks)) + e * dynamics._response(tm, source, args.max_hop)
    decision = infer.decide(windows, source, e, floor, tm.stability)
    text = json.dumps(decision.to_records(), indent=2)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


def _cmd_estimate(args) -> None:
    constrained = args.mode == "constrained"
    if constrained:
        source = 0 if args.excite_node is None else args.excite_node
        tm, floor, noise, e = _trial_setup(args, source)
    else:
        if args.constraints_out:
            raise ValueError("--constraints-out needs constrained mode")
        design = _given(args, "excite_node", "excite_magnitude", "weight_floor", "error_target")
        _reject_given(design, "ignored outside constrained mode")
        tm, noise = _load_network(args.weights), NoiseModel(args.sigma_theta, args.sigma_upsilon)
    horizon = args.pairs
    # the constrained run also observes the step after its injection
    steps = horizon + 1 if constrained else horizon
    y = next(simulate_batch(tm, (args.init_low, args.init_high), steps, noise, args.seed, 1))[0]
    constraints = {}
    if constrained:
        # the input at the last pair's step reaches only the decision row
        after = y[horizon + 1] + e * tm.matrix[:, source]
        decision = infer.infer_one_hop(y[horizon], after, source, e, floor, tm.stability)
        constraints = estimate.constraints_from_decision(decision)
        if args.constraints_out:
            estimate.save_constraints(args.constraints_out, constraints)
    problem = estimate.LsProblem(y[:horizon], y[1:horizon + 1], constraints)
    sol = (estimate.constrained_estimate if constrained else estimate.ols_estimate)(problem)
    if args.out:
        topology.save_matrix(args.out, sol.matrix)
    structure, magnitude = estimate.error_metrics(sol.matrix, tm.matrix)
    print(
        json.dumps(
            {
                "mode": args.mode,
                "rank": sol.rank,
                "rank_deficient": sol.rank_deficient,
                "structure_error": structure,
                "magnitude_error": magnitude,
            }
        )
    )


def _cmd_experiment(args) -> None:
    # checked before the run, which can take minutes
    if args.out is not None and not args.out.endswith((".csv", ".json")):
        raise ValueError(f"--out must end in .csv or .json, got {args.out!r}")
    if args.config:
        config = harness.load_config(args.config)
    else:
        config = harness.default_config(args.figure)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trial_count"] = args.trials
    if overrides:
        config = replace(config, **overrides)
    table = harness.run_experiment(args.figure, config)
    if args.out is None:
        print(table.pretty())
    elif args.out.endswith(".json"):
        table.write_json(args.out)
    else:
        table.write_csv(args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netprobe",
        description="Excitation-based topology inference for noisy networked dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    noise = argparse.ArgumentParser(add_help=False)
    noise.add_argument("--sigma-theta", type=float, default=1.0, help="process noise std")
    noise.add_argument("--sigma-upsilon", type=float, default=1.0, help="measurement noise std")

    trial = argparse.ArgumentParser(add_help=False, parents=[noise])
    trial.add_argument("--weights", required=True)
    trial.add_argument("--seed", type=_non_negative_int, default=0)
    trial.add_argument("--init-low", type=float, default=-100.0)
    trial.add_argument("--init-high", type=float, default=100.0)

    # unset options stay None, so that estimate ols can reject them
    design = argparse.ArgumentParser(add_help=False)
    design.add_argument("--excite-magnitude", type=float, default=None)
    design.add_argument("--weight-floor", type=float, default=None, help="default: smallest weight")
    design.add_argument("--error-target", type=float, default=None, help="default 0.05")

    p = sub.add_parser("generate", help="random digraph and weight matrix files")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--p", type=float, default=0.2, help="edge probability")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--rule", choices=topology.WEIGHT_RULES, default=None, help="default: laplacian")
    p.add_argument("--gamma", type=float, default=None, help="laplacian scale (default 1)")
    p.add_argument("--alpha", type=float, default=None, help="rescale into the stable regime")
    p.add_argument("--adjacency-out", default=None)
    p.add_argument("--weights-out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", parents=[trial], help="simulate a trajectory to CSV")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--excite-node", type=int, default=None)
    p.add_argument("--excite-time", type=int, default=None)
    p.add_argument("--excite-magnitude", type=float, default=None, help="needed with --excite-node")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("design-excitation", help="critical excitation for a target error")
    # unset options stay None, so that --sigma can reject the ones it overrides
    p.add_argument("--sigma-theta", type=float, default=None, help="process noise std (default 1)")
    p.add_argument("--sigma-upsilon", type=float, default=None, help="measurement noise std (default 1)")
    p.add_argument("--weight-floor", type=float, required=True)
    p.add_argument("--error-target", type=float, required=True)
    p.add_argument("--n", type=int, default=None, help="node count (default 20)")
    p.add_argument("--sigma", type=float, default=None, help="explicit noise std bound")
    p.add_argument("--row-stochastic", action="store_true")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("infer", parents=[trial, design], help="simulate and decide neighbor sets")
    p.add_argument("--excite-node", type=int, required=True)
    p.add_argument("--max-hop", type=_positive_int, default=1, help="deepest hop decided (default 1)")
    p.add_argument("--rounds", type=_positive_int, default=1, help="excitations averaged (default 1)")
    p.add_argument("--burn-in", type=_non_negative_int, default=50)
    p.add_argument("--out", default=None, help="decision JSON path (default stdout)")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("estimate", parents=[trial, design], help="least-squares topology estimation")
    p.add_argument("mode", choices=("ols", "constrained"))
    p.add_argument("--pairs", type=_positive_int, default=25, help="observation pair count")
    p.add_argument("--excite-node", type=int, default=None, help="constrained mode (default 0)")
    p.add_argument("--constraints-out", default=None)
    p.add_argument("--out", default=None, help="estimated matrix text path")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a shipped experiment")
    p.add_argument("figure", choices=("fig1a", "fig1b", "fig1c"))
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", default=None, help=".csv or .json result path (default stdout)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    """Run one command; bad input exits with a message naming the command."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"netprobe {args.command}: {exc}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
