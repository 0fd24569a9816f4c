"""Special functions and detection closed forms vs independent oracles."""

import math

import numpy as np
import pytest

from netprobe import detect
from netprobe.detect import (
    applied_excitation,
    critical_excitation,
    detection_probability,
    deviation_noise_bound,
    deviation_noise_std,
    erf,
    erf_inv,
    false_alarm_probability,
    hop_inference_lower_bound,
    misjudgement_probability,
    multi_excitation_bound,
)
from netprobe.dynamics import NoiseModel
from netprobe.topology import StabilityClass, TopologyMatrix, generate_random_digraph, laplacian_weights


def erf_series(x: float) -> float:
    """Maclaurin-series oracle, valid to ~1e-15 for |x| <= 3."""
    total = 0.0
    term = x
    k = 0
    while abs(term) > 1e-18:
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 2.0 / math.sqrt(math.pi) * total


def erf_inv_oracle(p: float) -> float:
    """Bisection on the series oracle."""
    lo, hi = 0.0, 3.0
    if p < 0:
        return -erf_inv_oracle(-p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if erf_series(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gauss_tail_quadrature(lower: float, mean: float, sigma: float, points: int = 200001) -> float:
    """Simpson quadrature of the N(mean, sigma^2) density over [lower, +8 sigma]."""
    upper = mean + 8.0 * sigma
    if lower >= upper:
        return 0.0
    xs = np.linspace(lower, upper, points)
    pdf = np.exp(-((xs - mean) ** 2) / (2 * sigma**2)) / (math.sqrt(2 * math.pi) * sigma)
    h = xs[1] - xs[0]
    return float(h / 3 * (pdf[0] + pdf[-1] + 4 * pdf[1:-1:2].sum() + 2 * pdf[2:-1:2].sum()))


class TestErf:
    def test_odd_and_zero(self):
        assert erf(0.0) == 0.0
        assert erf_inv(0.0) == 0.0
        for z in np.linspace(0.01, 5.0, 97):
            assert erf(-z) == -erf(z)

    def test_against_series_oracle(self):
        for z in np.linspace(-3.0, 3.0, 601):
            assert abs(erf(z) - erf_series(z)) <= 1e-13

    def test_erf_one_frozen(self):
        # series oracle gives 0.8427007929497149
        assert abs(erf(1.0) - 0.8427007929497149) <= 1e-12
        assert abs(erf(1.0) - erf_series(1.0)) <= 1e-12

    def test_monotone_and_bounded(self):
        # strictly increasing until the value saturates to 1.0 in doubles
        grid = np.linspace(-5.5, 5.5, 1101)
        vals = [erf(z) for z in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(abs(v) < 1.0 for v in vals)
        wide = [erf(z) for z in np.linspace(-8.0, 8.0, 801)]
        assert all(b >= a for a, b in zip(wide, wide[1:]))
        assert all(abs(v) <= 1.0 for v in wide)

    def test_large_arguments_saturate(self):
        assert erf(6.5) == 1.0
        assert erf(-7.0) == -1.0


class TestErfInv:
    def test_round_trip(self):
        for p in np.linspace(-0.9999, 0.9999, 2001):
            assert abs(erf(erf_inv(p)) - p) <= 1e-10

    def test_frozen_value(self):
        # bisection-on-series oracle gives 1.3859038243496777
        assert abs(erf_inv(0.95) - 1.3859038243496777) <= 1e-10
        assert abs(erf_inv(0.95) - erf_inv_oracle(0.95)) <= 1e-10

    def test_domain_rejected(self):
        for p in (-1.0, 1.0, 1.5, -2.0):
            with pytest.raises(ValueError):
                erf_inv(p)

    def test_extreme_but_valid(self):
        for p in (0.999999999, -0.999999999):
            assert abs(erf(erf_inv(p)) - p) <= 1e-10
        # erf(x) ~ 2x/sqrt(pi) near zero: relative, not absolute, accuracy
        for t in (1e-20, 1e-300):
            assert erf_inv(t) == pytest.approx(t * math.sqrt(math.pi) / 2, rel=1e-15, abs=0.0)
        # near one the tail mass 1 - p, not p, must be reproduced
        for k in range(1, 16):
            p = 1.0 - 10.0**-k
            assert math.erfc(erf_inv(p)) == pytest.approx(1.0 - p, rel=1e-12, abs=0.0)


class TestNoiseBounds:
    def test_row_stochastic_bound(self):
        noise = NoiseModel(1.0, 1.0)
        assert deviation_noise_bound(20, noise, row_stochastic=True) == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_general_bound(self):
        noise = NoiseModel(1.0, 1.0)
        assert deviation_noise_bound(20, noise) == pytest.approx(math.sqrt(22), abs=1e-15)

    def test_no_measurement_noise(self):
        noise = NoiseModel(1.0, 0.0)
        assert deviation_noise_bound(20, noise) == pytest.approx(1.0)
        assert deviation_noise_bound(20, noise, row_stochastic=True) == pytest.approx(1.0)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            deviation_noise_bound(0, NoiseModel(1, 1))


class TestDeviationNoiseStd:
    def test_two_node_hand_value(self):
        w = TopologyMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]), StabilityClass.MARGINALLY_STABLE)
        got = deviation_noise_std(w, 0, 1, NoiseModel(1.0, 1.0))
        assert got == pytest.approx(math.sqrt(2.5), abs=1e-14)

    def test_one_step_matches_covariance_diagonal(self):
        g = generate_random_digraph(10, 0.3, 3)
        tm = laplacian_weights(g, 0.8)
        w = tm.matrix
        noise = NoiseModel(1.3, 0.7)
        cov = noise.sigma_upsilon**2 * (w @ w.T) + (noise.sigma_upsilon**2 + noise.sigma_theta**2) * np.eye(10)
        for i in range(10):
            assert deviation_noise_std(tm, i, 1, noise) == pytest.approx(math.sqrt(cov[i, i]), abs=1e-12)

    def test_capped_by_worst_case(self):
        g = generate_random_digraph(12, 0.25, 9)
        tm = laplacian_weights(g, 1.0)
        noise = NoiseModel(1.0, 1.0)
        for h in range(1, 11):
            cap = 2 * noise.sigma_upsilon**2 + h * noise.sigma_theta**2
            for i in range(12):
                assert deviation_noise_std(tm, i, h, noise) ** 2 <= cap + 1e-12

    def test_hstep_noise_matches_per_node(self):
        # all nodes at once from full matrix powers G(l) = W^l
        g = generate_random_digraph(8, 0.3, 21)
        tm = laplacian_weights(g, 1.0)
        noise = NoiseModel(1.0, 1.0)
        power = np.eye(8)
        theta_sum = np.zeros(8)
        for _ in range(4):
            theta_sum += (power**2).sum(axis=1)
            power = power @ tm.matrix
        var = (1.0 + (power**2).sum(axis=1)) * noise.sigma_upsilon**2 + theta_sum * noise.sigma_theta**2
        for i in range(8):
            assert math.sqrt(var[i]) == pytest.approx(deviation_noise_std(tm, i, 4, noise), abs=1e-12)


class TestCriticalExcitation:
    def test_budget_one_gives_zero(self):
        assert critical_excitation(1.0, 0.5, 1.0) == 0.0

    def test_frozen_design_point(self):
        # 2*sqrt(2)*sqrt(3)*erf_inv(0.95)/0.4, with erf_inv from the oracle
        expected = 2 * math.sqrt(2) * math.sqrt(3) * erf_inv_oracle(0.95) / 0.4
        assert critical_excitation(math.sqrt(3), 0.4, 0.05) == pytest.approx(expected, abs=1e-8)
        assert critical_excitation(math.sqrt(3), 0.4, 0.05) == pytest.approx(16.973786011142575, abs=1e-9)

    def test_halving_weight_doubles(self):
        e1 = critical_excitation(1.7, 0.4, 0.1)
        e2 = critical_excitation(1.7, 0.2, 0.1)
        assert e2 == pytest.approx(2 * e1, rel=1e-12)

    def test_monotone_in_arguments(self):
        budgets = np.linspace(0.05, 0.9, 18)
        vals = [critical_excitation(1.0, 0.5, b) for b in budgets]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        weights = np.linspace(0.1, 1.0, 10)
        vals = [critical_excitation(1.0, w, 0.1) for w in weights]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        sigmas = np.linspace(0.5, 3.0, 11)
        vals = [critical_excitation(s, 0.5, 0.1) for s in sigmas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_applied_magnitude_replaces_zero_design(self):
        assert applied_excitation(critical_excitation(0.0, 0.5, 0.05)) == 1.0
        assert applied_excitation(critical_excitation(1.0, 0.5, 0.05)) == critical_excitation(
            1.0, 0.5, 0.05
        )

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            critical_excitation(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            critical_excitation(1.0, -0.3, 0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                critical_excitation(1.0, bad, 0.1)
            with pytest.raises(ValueError, match="finite"):
                critical_excitation(bad, 0.5, 0.1)


class TestMisjudgement:
    def test_zero_excitation(self):
        assert misjudgement_probability(1.0, 1.0, 0.0) == 1.0

    def test_round_trip_with_critical(self):
        for budget in (0.05, 0.1, 0.2, 0.3):
            e = critical_excitation(math.sqrt(3), 0.4, budget)
            assert misjudgement_probability(math.sqrt(3), 0.4, e) == pytest.approx(budget, abs=1e-10)

    def test_frozen_value(self):
        # w*e/(2*sqrt(2)*sigma) = sqrt(2)
        assert misjudgement_probability(1.0, 1.0, 4.0) == pytest.approx(1 - erf_series(math.sqrt(2)), abs=1e-13)

    def test_monte_carlo_two_gaussian(self):
        # isolated binary test: N(0, s^2) vs N(w e, s^2), threshold w e / 2
        rng = np.random.default_rng(42)
        sigma, w, e = 1.4, 0.6, 4.0
        z0 = w * e / 2
        n = 10**5
        fa = (rng.normal(0, sigma, n) >= z0).mean()
        miss = (rng.normal(w * e, sigma, n) < z0).mean()
        assert fa + miss == pytest.approx(misjudgement_probability(sigma, w, e), abs=0.015)


class TestTailProbabilities:
    def test_half_mass_at_zero(self):
        assert false_alarm_probability(0.0, 3.0, 1.0) == 0.5
        assert detection_probability(0.5, 0.0, 1.0) == 0.5

    def test_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gain, e, sigma = rng.uniform(0.05, 1), rng.uniform(0, 30), rng.uniform(0.3, 3)
            assert false_alarm_probability(gain, e, sigma) + detection_probability(gain, e, sigma) == 1.0

    def test_threshold_tail_value(self):
        sigma = 1.7
        e = 2 * sigma * math.sqrt(2) * erf_inv(0.9)
        assert false_alarm_probability(1.0, e, sigma) == pytest.approx(0.05, abs=1e-12)

    def test_quadrature_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            gain, e, sigma = rng.uniform(0.1, 1), rng.uniform(0, 20), rng.uniform(0.5, 2.5)
            thr = gain * e / 2
            assert false_alarm_probability(gain, e, sigma) == pytest.approx(
                gauss_tail_quadrature(thr, 0.0, sigma), abs=1e-9
            )
            assert detection_probability(gain, e, sigma) == pytest.approx(
                gauss_tail_quadrature(thr, gain * e, sigma), abs=1e-9
            )


class TestHopBound:
    def test_equal_gains_substitution(self):
        sigma, e, alpha = 1.2, 20.0, 0.05
        d = detection_probability(0.3, e, sigma)
        assert hop_inference_lower_bound(0.3, 0.3, e, alpha, sigma) == pytest.approx(
            d * (2 - alpha - d), rel=1e-12
        )

    def test_detection_at_critical_matches_one_minus_alpha(self):
        alpha, sigma = 0.05, 1.5
        gmin, gmax = 0.2, 0.45
        e_m = critical_excitation(sigma, gmin, 2 * alpha)
        assert detection_probability(gmin, e_m, sigma) == pytest.approx(1 - alpha, abs=1e-12)
        expected = (1 - alpha) * (2 - alpha - detection_probability(gmax, e_m, sigma))
        assert hop_inference_lower_bound(gmin, gmax, e_m, alpha, sigma) == pytest.approx(expected, rel=1e-12)

    def test_limit_toward_one(self):
        assert hop_inference_lower_bound(0.5, 0.5, 1e6, 1e-9, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            hop_inference_lower_bound(0.0, 0.5, 10.0, 0.05, 1.0)
        with pytest.raises(ValueError):
            hop_inference_lower_bound(0.5, 0.4, 10.0, 0.05, 1.0)


class TestMultiExcitationBound:
    def test_zero_excitation_full_mass(self):
        for m in (1, 4, 16, 64):
            assert multi_excitation_bound(0.0, 0.4, 1.0, m) == 1.0

    def test_single_round_matches_misjudgement(self):
        assert multi_excitation_bound(5.0, 0.4, 1.3, 1) == misjudgement_probability(1.3, 0.4, 5.0)

    def test_four_rounds_halve_sigma(self):
        assert multi_excitation_bound(5.0, 0.4, 1.3, 4) == pytest.approx(
            misjudgement_probability(0.65, 0.4, 5.0), rel=1e-12
        )

    def test_nonincreasing_in_rounds(self):
        vals = [multi_excitation_bound(3.0, 0.4, 1.5, m) for m in range(1, 65)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            multi_excitation_bound(3.0, 0.4, 1.5, 0)

