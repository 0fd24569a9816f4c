"""Acceptance gate: one test per shipped criterion at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
Every Monte Carlo here is seeded, so a passing suite is reproducible.
"""

import math
import time

import numpy as np
import pytest

from netprobe import detect, dynamics, harness
from netprobe.dynamics import NoiseModel, simulate
from netprobe.harness import default_config, run_ls_improvement, run_multihop_accuracy, run_onehop_accuracy
from netprobe.infer import decide, infer_one_hop
from netprobe.topology import (
    StabilityClass,
    classify_stability,
    generate_random_digraph,
    laplacian_weights,
    metropolis_weights,
    scale_to_asymptotic,
    true_hop_sets,
)


def report(name: str, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s) {detail}")


def erf_series(x: float) -> float:
    total, term, k = 0.0, x, 0
    while abs(term) > 1e-18:
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 2.0 / math.sqrt(math.pi) * total


def test_criterion_1_special_function_fidelity():
    # the design rests on NormalDist.inv_cdf and math.erfc: the misjudgement
    # probability at the critical excitation must return the budget
    start = time.perf_counter()
    worst = 0.0
    for sigma, weight in ((math.sqrt(3.0), 0.4), (1.0, 1.0), (2.43, 1 / 6), (1e-3, 0.9)):
        for budget in np.logspace(-300, 0, 10**4).tolist():
            e = detect.critical_excitation(sigma, weight, budget)
            worst = max(worst, abs(detect.misjudgement_probability(sigma, weight, e) / budget - 1.0))
    assert worst <= 1e-10
    # w*e / (2*sqrt(2)*sigma) = 1, so the misjudgement is erfc(1)
    series_err = abs(detect.misjudgement_probability(1.0, 1.0, 2 * math.sqrt(2)) - (1 - erf_series(1.0)))
    assert series_err <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        "1 special functions",
        elapsed,
        f"design round-trip worst {worst:.2e} relative, erfc(1) vs series {series_err:.2e}",
    )


def test_criterion_2_two_gaussian_monte_carlo():
    start = time.perf_counter()
    sigma, weight = math.sqrt(3.0), 0.4
    rng = np.random.default_rng(20240501)
    draws = 10**5
    details = []
    for budget in (0.05, 0.1, 0.2, 0.3):
        e = detect.critical_excitation(sigma, weight, budget)
        z0 = weight * e / 2.0
        false_alarm = float((rng.normal(0.0, sigma, draws) >= z0).mean())
        missed = float((rng.normal(weight * e, sigma, draws) < z0).mean())
        empirical = false_alarm + missed
        theory = detect.misjudgement_probability(sigma, weight, e)
        assert abs(empirical - theory) <= 0.015
        details.append(f"{budget}:{empirical - theory:+.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("2 two-gaussian core", elapsed, "empirical-theory " + ", ".join(details))


def onehop_gate(rows, trial_count):
    """Criterion 3 on fig1a rows: each pair accuracy at or above its floor.

    An error target beta's floor is 1 - beta less three binomial standard
    deviations at beta over ``trial_count`` trials.  Returns the
    (beta, accuracy, floor) checks and whether every one holds.
    """
    checks = []
    for row in rows:
        budget = row["error_target"]
        floor = (1.0 - budget) - 3.0 * math.sqrt(budget * (1.0 - budget) / trial_count)
        checks.append((budget, row["pair_accuracy"], floor))
    return checks, all(accuracy >= floor for _, accuracy, floor in checks)


def multihop_gate(rows, trial_count):
    """Criterion 4 on fig1b rows: every hop placed at least as often as its bound.

    Each row's input must reach its critical magnitude and its placement
    probability its theory lower bound, and a deeper hop may be placed more
    often than the hop before by at most two binomial standard deviations.
    """
    passed = all(
        row["excitation"] >= row["critical_excitation"]
        and row["empirical_probability"] >= row["theory_lower_bound"]
        for row in rows
    )
    for prev, nxt in zip(rows, rows[1:]):
        p = prev["empirical_probability"]
        step_sigma = math.sqrt(max(p * (1 - p), 0.25 / trial_count) / trial_count)
        passed = passed and nxt["empirical_probability"] <= p + 2.0 * step_sigma
    return passed


def test_criterion_3_end_to_end_onehop():
    start = time.perf_counter()
    config = default_config("fig1a")
    table = run_onehop_accuracy(config)
    checks, passed = onehop_gate(table.as_dicts(), config.trial_count)
    details = [f"{budget}:{accuracy:.4f}>={floor:.4f}" for budget, accuracy, floor in checks]
    assert passed, details
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("3 one-hop end-to-end", elapsed, ", ".join(details))


def test_criterion_4_multihop():
    start = time.perf_counter()
    config = default_config("fig1b")
    table = run_multihop_accuracy(config)
    rows = table.as_dicts()
    assert [row["hop"] for row in rows] == [1, 2, 3]
    assert multihop_gate(rows, config.trial_count), rows
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    detail = ", ".join(
        f"h={row['hop']}:{row['empirical_probability']:.3f}>={row['theory_lower_bound']:.3f}"
        for row in rows
    )
    report("4 multi-hop", elapsed, detail)


def test_criterion_5_multi_excitation():
    start = time.perf_counter()
    sigma = math.sqrt(3.0)
    floor = 0.3
    e = 0.9 * detect.critical_excitation(sigma, floor, 0.5)  # below single-shot critical
    rng = np.random.default_rng(55555)
    reps = 10**4
    n, source, edge, nonedge = 4, 0, 1, 2
    rates = {}
    for rounds in (1, 4, 16, 64):
        wrong = 0
        y_before = np.zeros((rounds, n))
        for _ in range(reps):
            devs = rng.normal(0.0, sigma, size=(rounds, n))
            devs[:, edge] += 1.0 * e
            windows = np.stack([y_before, y_before + devs], axis=1)
            est = decide(windows, source, e, floor, StabilityClass.MARGINALLY_STABLE).at_hop(1)
            wrong += (edge not in est) + (nonedge in est)
        rates[rounds] = wrong / reps
    details = []
    for rounds, rate in rates.items():
        bound = detect.multi_excitation_bound(e, floor, sigma, rounds)
        slack = 3.0 * math.sqrt(max(bound * (1.0 - bound), 0.25 / reps) / reps)
        assert rate <= bound + slack
        details.append(f"m={rounds}:{rate:.4f}<={bound + slack:.4f}")
    ordered = [rates[m] for m in (1, 4, 16, 64)]
    assert all(b <= a for a, b in zip(ordered, ordered[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("5 multi-excitation", elapsed, ", ".join(details))


def ls_refinement_gate(rows):
    """Criterion 6 on fig1c rows: strict structure-error wins and both medians.

    The gate passes when the constrained estimate's structure error is
    strictly lower on at least 45 of the 50 seeds and its median magnitude
    error is strictly lower than plain least squares'.  Ties count as
    losses, so constraints that change nothing cannot pass.
    """
    wins = sum(row["constrained_structure_error"] < row["ols_structure_error"] for row in rows)
    med_con = float(np.median([row["constrained_magnitude_error"] for row in rows]))
    med_ols = float(np.median([row["ols_magnitude_error"] for row in rows]))
    return wins, med_con, med_ols, wins >= 45 and med_con < med_ols


def test_criterion_6_ls_refinement():
    start = time.perf_counter()
    config = default_config("fig1c")
    table = run_ls_improvement(config)
    rows = table.as_dicts()
    assert len(rows) == 50
    structure_wins, med_con, med_ols, _ = ls_refinement_gate(rows)
    assert structure_wins >= 45
    assert med_con < med_ols
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        "6 LS refinement",
        elapsed,
        f"strict structure wins {structure_wins}/50, median eps2 {med_con:.3f} vs {med_ols:.3f}",
    )


def test_criterion_6_fails_without_constraints(monkeypatch):
    # negative control: with every decision turned into no constraint the
    # constrained estimate is plain least squares, and the gate must fail
    monkeypatch.setattr(harness, "constraints_from_decision", lambda decision: {})
    rows = run_ls_improvement(default_config("fig1c")).as_dicts()
    structure_wins, med_con, med_ols, passed = ls_refinement_gate(rows)
    assert structure_wins == 0
    assert med_con == med_ols
    assert not passed


def always(answer):
    """A stand-in for ``first_hops`` that places every node but the source at ``answer``."""
    def decide(windows, source, *args):
        first = np.full((len(windows), windows.shape[2]), answer)
        first[:, source] = 0
        return first
    return decide


ITEM_2 = (
    "ROADMAP item 2: the paper's rule leaves the drift term out of its design, so fig1a's "
    "pair accuracy is about 18/19 whatever the true edge's decisions are"
)
# only the gate's assertion counts as expected: a control whose patch target is gone fails
PASSES_ITS_GATE = pytest.mark.xfail(strict=True, reason=ITEM_2, raises=AssertionError)


@pytest.mark.parametrize(
    "figure, control",
    [
        pytest.param("fig1a", "always-no", marks=PASSES_ITS_GATE),
        ("fig1a", "always-yes"),
        pytest.param("fig1a", "half-input", marks=PASSES_ITS_GATE),
        ("fig1b", "always-no"),
        ("fig1b", "always-yes"),
        ("fig1b", "half-input"),
    ],
)
def test_negative_controls_fail_their_gate(monkeypatch, figure, control):
    # the real runner with one piece swapped: a decider that always answers
    # no edge, one that always answers yes, or half the designed input
    if control == "half-input":
        design = detect.design

        def half(*args, **kwargs):
            critical, e = design(*args, **kwargs)
            return critical, 0.5 * e

        monkeypatch.setattr(detect, "design", half)
    else:
        monkeypatch.setattr(harness, "first_hops", always(int(control == "always-yes")))
    config = default_config(figure)
    rows = harness.run_experiment(figure, config).as_dicts()
    if figure == "fig1a":
        assert not onehop_gate(rows, config.trial_count)[1]
    else:
        assert not multihop_gate(rows, config.trial_count)


def test_criterion_7_structural_invariants():
    start = time.perf_counter()
    noiseless = NoiseModel.noiseless()

    # spectral classification spot checks
    assert classify_stability(0.5 * np.eye(3)) is StabilityClass.ASYMPTOTICALLY_STABLE
    assert classify_stability(np.eye(2)) is StabilityClass.UNSTABLE

    oracle_nodes = 0
    for s in range(50):
        graph = generate_random_digraph(20, 0.2, seed=s)
        tm = laplacian_weights(graph, 1.0)
        # row stochasticity for both rules
        assert np.abs(tm.matrix.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(metropolis_weights(graph).matrix.sum(axis=1) - 1.0).max() <= 1e-12
        scaled = scale_to_asymptotic(tm, 0.9).matrix
        assert abs(np.abs(np.linalg.eigvals(scaled)).max() - 0.9) <= 1e-9

        # hop levels: node i's is the smallest h <= 5 with (A^h)[i, 0] > 0, else 0
        levels = np.zeros(20, dtype=int)
        power = np.eye(20)
        for h in range(1, 6):
            power = power @ graph.adjacency
            levels[(power[:, 0] > 0) & (levels == 0)] = h
        levels[0] = 0
        assert np.array_equal(true_hop_sets(graph, 0, 5), levels)

        # noiseless one-hop oracle agreement at consensus, every source node,
        # the input at step 0 added by superposition
        for j in range(20):
            _, y = simulate(tm, np.full(20, 3.0), 1, noiseless, seed=0)
            y = y + 10.0 * dynamics._response(tm, j, 1)
            decision = infer_one_hop(y[0], y[1], j, 10.0, tm.weight_floor, tm.stability)
            assert np.array_equal(decision.first_hop, true_hop_sets(graph, j, 1))
            oracle_nodes += 1

    # noiseless simulator exactness and excitation superposition
    graph = generate_random_digraph(20, 0.2, seed=7)
    tm = laplacian_weights(graph, 1.0)
    x0 = np.random.default_rng(1).uniform(-100, 100, 20)
    _, observations = simulate(tm, x0, 30, noiseless, seed=0)
    power = np.eye(20)
    for t in range(31):
        assert np.abs(observations[t] - power @ x0).max() <= 1e-12
        power = power @ tm.matrix

    noisy = NoiseModel(1.0, 1.0)
    states, _ = simulate(tm, x0, 15, noisy, seed=42)
    excited = states.copy()
    excited[5:] += 12.0 * dynamics._response(tm, 3, 10)
    assert np.array_equal(excited[:6], states[:6])
    kick = np.zeros(20)
    kick[3] = 12.0
    for t in range(6, 16):
        kick = tm.matrix @ kick
        assert np.abs((excited[t] - states[t]) - kick).max() <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("7 structural invariants", elapsed, f"one-hop oracle agreement on {oracle_nodes} node probes")
