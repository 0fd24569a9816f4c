"""Timed experiment calls, result checks and the metrics they report.

Each run writes its workload's config from the seed, then calls
``netprobe.cli.main(["experiment", ...])`` in-process, repeating the
identical call until the run's seconds have passed.  Every call's result
file is hashed (the hashes must agree) and its rows are checked against the
acceptance suite's gates; rows that miss their gate and calls that raise
count as failed.

Untraced runs report the end-to-end metrics.  Traced runs alternate
untraced and traced calls and report, per traced call, each layer's self
time and counts, plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

import spans
import workloads
from netprobe import cli

SETUP_REPEATS = 5
WARMUP_TRIALS = {"fig1a": 10, "fig1b": 10, "fig1c": 1}

# Functions with per-function metrics: those the three workloads call.
FUNCTIONS = (
    "cli.main",
    "cli.build_parser",
    "harness.run_experiment",
    "harness.load_config",
    "harness.run_onehop_accuracy",
    "harness.run_multihop_accuracy",
    "harness.run_ls_improvement",
    "harness.pick_source_node",
    "harness.binomial_half_width",
    "topology.generate_random_digraph",
    "topology.laplacian_weights",
    "topology.true_hop_sets",
    "dynamics.simulate",
    "dynamics.deviation_bound",
    "detect.deviation_noise_bound",
    "detect.deviation_noise_std",
    "detect.critical_excitation",
    "detect.detection_probability",
    "detect.misjudgement_probability",
    "detect.hop_inference_lower_bound",
    "detect.erf",
    "detect.erf_inv",
    "infer.infer_one_hop",
    "infer.infer_within_hops",
    "estimate.ols_estimate",
    "estimate.constrained_estimate",
    "estimate.constraints_from_decision",
    "estimate.error_metrics",
)
COUNTS = (
    "dynamics.steps",
    "dynamics.flops_computed",
    "infer.pair_decisions",
    "estimate.rows_constrained",
    "estimate.rows_positive",
)


class Profile(NamedTuple):
    """What one traced call recorded."""

    self_s: dict[str, float]
    calls: Counter
    counts: dict[str, int]
    spans: int


def host_info(blas_threads: int) -> dict:
    """Core count, interpreter, NumPy and OpenBLAS versions, BLAS threads."""
    blas = {"library": None, "config": None, "threads": None}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    if libs:
        # dlopen of the already loaded library returns that same instance
        lib = ctypes.CDLL(str(libs[0]))
        blas["library"] = libs[0].name
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                blas.update(config=get_config().decode(), threads=get_threads())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_set": blas_threads,
    }


class Runner:
    """One workload's config, result checks and per-call bookkeeping."""

    def __init__(self, workload: workloads.Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.figure = workload.figure
        self.seed = seed
        self.workdir = workdir
        self.config = None
        self.config_path = workdir / f"{workload.name}.cfg"
        self.out_path = workdir / f"{workload.name}.json"
        self.hashes: set[str] = set()
        self.rows_attempted = 0
        self.rows_failed = 0
        self.raised = 0
        self.malformed = 0

    def setup(self) -> None:
        """Build the network for the floor, write the config, warm up at n = 20."""
        self.config = workloads.make_config(self.workload, self.seed)
        workloads.write_config(self.config_path, self.config)
        warmup = workloads.Workload("warmup", self.figure, 20, WARMUP_TRIALS[self.figure])
        warm_path = self.workdir / "warmup.cfg"
        workloads.write_config(warm_path, workloads.make_config(warmup, self.seed))
        cli.main(["experiment", self.figure, "--config", str(warm_path),
                  "--out", str(self.workdir / "warmup.json")])

    def call(self) -> float:
        """One timed experiment call; returns its wall seconds."""
        argv = ["experiment", self.figure, "--config", str(self.config_path),
                "--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            cli.main(argv)
        except Exception as exc:  # a raising call is counted, not fatal
            elapsed = time.perf_counter() - start
            print(f"call raised {type(exc).__name__}: {exc}", file=sys.stderr)
            self.raised += 1
            self.rows_attempted += workloads.expected_rows(self.figure, self.config)
            return elapsed
        elapsed = time.perf_counter() - start
        self._check(self.out_path.read_bytes())
        return elapsed

    def _check(self, data: bytes) -> None:
        self.hashes.add(hashlib.sha256(data).hexdigest())
        rows = json.loads(data)
        expected = workloads.expected_rows(self.figure, self.config)
        values = [v for row in rows for v in row.values()]
        if len(rows) != expected or not all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in values
        ):
            self.malformed += 1
        self.rows_attempted += expected
        self.rows_failed += max(0, expected - len(rows)) + sum(
            not workloads.row_passes(self.figure, self.config, row) for row in rows
        )

    @property
    def trials(self) -> int:
        return workloads.trials_per_call(self.figure, self.config)

    @property
    def failed(self) -> int:
        return self.rows_failed + self.raised

    @property
    def correct(self) -> bool:
        """Every call wrote well-formed rows, byte-identical across calls."""
        return len(self.hashes) == 1 and self.malformed == 0


def measure(runner: Runner, seconds: float, tracer: spans.Tracer | None):
    """Repeat the call for about ``seconds``, at least once.

    Stops before a round that would overrun, so a run's length stays within
    its budget.  Returns untraced call times, traced call times and one
    profile per traced call; with a tracer, untraced and traced calls
    alternate.
    """
    untraced, traced, profiles = [], [], []
    begin = time.perf_counter()
    while True:
        untraced.append(runner.call())
        if tracer is not None:
            tracer.reset()
            with spans.installed(tracer):
                traced.append(runner.call())
            profiles.append(Profile(*tracer.profile(), dict(tracer.counts), len(tracer.spans)))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            return untraced, traced, profiles


def per_layer_metrics(profiles: list[Profile], untraced, traced) -> dict:
    """Medians over traced calls of per-call self times and counts."""
    metrics = {}

    def add(name, values, unit):
        metrics[name] = {"value": statistics.median(values), "unit": unit}

    def in_layer(layer, table):
        return sum(v for k, v in table.items() if k.partition(".")[0] == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    for layer in spans.LAYERS:
        add(f"{layer}.self_s", [in_layer(layer, p.self_s) for p in profiles], "s")
        add(f"{layer}.calls", [in_layer(layer, p.calls) for p in profiles], "count")
    for fn in FUNCTIONS:
        add(f"{fn}.self_s", [p.self_s.get(fn, 0.0) for p in profiles], "s")
        add(f"{fn}.calls", [p.calls[fn] for p in profiles], "count")
    for name in COUNTS:
        add(name, [p.counts.get(name, 0) for p in profiles], "count")
    add("dynamics.gflops", [
        ratio(p.counts.get("dynamics.flops_computed", 0) / 1e9, p.self_s.get("dynamics.simulate"))
        for p in profiles
    ], "GFLOP/s")
    add("estimate.positive_row_share", [
        ratio(p.counts.get("estimate.rows_positive", 0), p.counts.get("estimate.rows_constrained"))
        for p in profiles
    ], "frac")
    add("trace.spans", [p.spans for p in profiles], "count")
    add("trace.overhead_frac",
        [statistics.median(traced) / statistics.median(untraced) - 1.0], "frac")
    return metrics


def run(args, start: float, root: Path, blas_threads: int) -> int:
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".bench_build"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        runner = Runner(workloads.WORKLOADS[args.workload], args.seed, workdir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            runner.setup()
            setup_times.append(time.perf_counter() - t0)
        # imports happen once per process; the rest of set-up is repeated
        setup_s = import_s + statistics.median(setup_times)
        tracer = spans.Tracer() if args.trace else None
        untraced, traced, profiles = measure(runner, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rates = [runner.trials / t for t in untraced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = runner.rows_attempted
    calls = len(untraced) + len(traced)
    quartiles = statistics.quantiles(rates, n=4) if len(rates) >= 2 else [rates[0]] * 3

    print(json.dumps({"host": host_info(blas_threads)}))
    print(f"workload {args.workload}: {runner.figure}, n = {runner.config.n}, "
          f"{runner.trials} trials per call, seed {args.seed}")
    print(f"result sha256 {' '.join(sorted(runner.hashes)) or 'none'} "
          f"({'identical' if len(runner.hashes) == 1 else 'DIFFERENT'} over {calls} calls)")
    print(f"trials_per_s {statistics.median(rates):.6g} 1/s (median of {len(rates)} untraced calls, "
          f"quartiles {quartiles[0]:.6g} .. {quartiles[2]:.6g})")
    print(f"setup_s {setup_s:.6g} s (imports {import_s:.4g} s once, "
          f"plus the median of {SETUP_REPEATS} set-ups)")
    print(f"peak_rss_mb {peak_rss_mb:.6g} MB")
    print(f"failed_frac {runner.failed / attempted:.6g} frac ({runner.rows_failed} rows missed "
          f"their gate, {runner.raised} calls raised, {runner.rows_attempted} rows attempted)")

    if args.trace:
        metrics = per_layer_metrics(profiles, untraced, traced)
        for layer in spans.LAYERS:
            self_s = metrics[f"{layer}.self_s"]["value"]
            print(f"{layer}.self_s {self_s:.6g} s per traced call "
                  f"({self_s / statistics.median(traced):.2%} of its wall time)")
    else:
        metrics = {
            "trials_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "gate_pass_frac": {"value": 1.0 - runner.failed / attempted, "unit": "frac"},
        }
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.rows_attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0
