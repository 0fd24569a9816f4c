"""Noise-level bounds and detection closed forms built on the Gaussian tail.

Everything the excitation designer and the decision rules need: erf (the
standard library's) and its inverse, the worst-case and exact standard
deviations of the h-step observation deviation noise, critical excitation
magnitudes, misjudgement probabilities, the false-alarm/detection tail
integrals, and the bounds for multi-hop and repeated-excitation tests.
"""

from __future__ import annotations

import math
from math import erf
from statistics import NormalDist

import numpy as np

from netprobe.topology import TopologyMatrix
from netprobe.dynamics import NoiseModel

SQRT2 = math.sqrt(2.0)
_ERF_SLOPE_AT_ZERO = 2.0 / math.sqrt(math.pi)
_STANDARD_NORMAL = NormalDist()


def erf_inv(p: float) -> float:
    """Inverse of erf on (-1, 1), accurate to a few ulps across the domain.

    Starts from the standard normal quantile (Wichura's AS241, as in
    ``statistics.NormalDist.inv_cdf``) and takes one Newton step: on erf for
    |p| <= 0.5, and on erfc for |p| > 0.5, where 1 - |p| is exact, so tiny
    arguments and arguments near one keep their relative accuracy.
    """
    p = float(p)
    if not -1.0 < p < 1.0:
        raise ValueError(f"erf_inv argument must lie strictly in (-1, 1), got {p}")
    a = abs(p)
    if a <= 0.5:
        x = _STANDARD_NORMAL.inv_cdf((1.0 + a) / 2.0) / SQRT2
        residual = erf(x) - a
    else:
        q = 1.0 - a
        x = -_STANDARD_NORMAL.inv_cdf(q / 2.0) / SQRT2
        residual = q - math.erfc(x)
    x -= residual / (_ERF_SLOPE_AT_ZERO * math.exp(-x * x))
    return math.copysign(x, p)


def _upper_tail(gain: float, excitation: float, sigma: float) -> float:
    """P(N(0, sigma^2) >= gain*e/2) = (1 - erf(gain*e / (2*sqrt(2)*sigma))) / 2."""
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    return 0.5 * (1.0 - erf(gain * excitation / (2.0 * SQRT2 * sigma)))


def deviation_noise_bound(n: int, noise: NoiseModel, row_stochastic: bool = False) -> float:
    """Worst-case one-step deviation noise std, computable without W.

    The general bound is sqrt((1+n) sigma_upsilon^2 + sigma_theta^2); when W
    is known to be row-stochastic the squared row norms are at most one and
    the bound tightens to sqrt(2 sigma_upsilon^2 + sigma_theta^2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sv2 = noise.sigma_upsilon ** 2
    st2 = noise.sigma_theta ** 2
    if row_stochastic:
        return math.sqrt(2.0 * sv2 + st2)
    return math.sqrt((1.0 + n) * sv2 + st2)


def deviation_noise_std(tm: TopologyMatrix | np.ndarray, node: int, steps: int, noise: NoiseModel) -> float:
    """Exact std of the h-step deviation noise at one node.

    Its variance is (1 + sum_j G_ij(h)^2) sigma_upsilon^2 plus
    sigma_theta^2 * sum_{m=1..h} sum_j G_ij(m-1)^2, where G(l) = W^l.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    w = tm.matrix if isinstance(tm, TopologyMatrix) else np.asarray(tm, dtype=float)
    n = w.shape[0]
    if not 0 <= node < n:
        raise IndexError(f"node {node} outside 0..{n - 1}")
    row = np.zeros(n)
    row[node] = 1.0
    theta_sum = 0.0
    for _ in range(steps):
        theta_sum += float((row ** 2).sum())
        row = row @ w
    var = (1.0 + float((row ** 2).sum())) * noise.sigma_upsilon ** 2
    var += theta_sum * noise.sigma_theta ** 2
    return math.sqrt(var)


def onehop_noise_std(tm: TopologyMatrix, noise: NoiseModel) -> float:
    """The noise std the one-hop excitation is designed for.

    The row-stochastic bound sqrt(2 sigma_upsilon^2 + sigma_theta^2), or the
    largest exact one-step std sqrt((1 + sum_j w_ij^2) sigma_upsilon^2 +
    sigma_theta^2) where a stable matrix has a squared row sum above one.
    """
    exact = np.sqrt((1.0 + (tm.matrix ** 2).sum(axis=1)) * noise.sigma_upsilon ** 2
                    + noise.sigma_theta ** 2)
    return max(deviation_noise_bound(tm.n, noise, row_stochastic=True), float(exact.max()))


def critical_excitation(sigma: float, weight: float, error_budget: float) -> float:
    """Smallest |e| that keeps the edge-test misjudgement within the budget.

    Returns 2*sqrt(2)*sigma*erf_inv(1 - budget) / weight.  With the h-step
    noise std and an h-step gain in place of (sigma, weight) the same formula
    designs the within-h-hop test.
    """
    if not 0.0 < weight < math.inf:
        raise ValueError(f"weight must be finite and > 0, got {weight!r}")
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"noise std must be finite and >= 0, got {sigma!r}")
    if not 0.0 < error_budget <= 1.0:
        raise ValueError("error budget must lie in (0, 1]")
    return 2.0 * SQRT2 * sigma * erf_inv(1.0 - error_budget) / weight


def applied_excitation(designed: float) -> float:
    """The magnitude to inject for a designed one: itself, or 1 when it is zero.

    A noiseless design yields a zero critical input; any positive magnitude
    then discriminates perfectly, so one stands in for it.
    """
    return designed if designed > 0.0 else 1.0


def misjudgement_probability(sigma: float, weight: float, excitation: float) -> float:
    """Total error probability of the one-step edge test at threshold w*e/2.

    False alarm plus missed detection for the equal-prior binary test between
    N(0, sigma^2) and N(w*e, sigma^2); inverse of ``critical_excitation``.
    """
    return 2.0 * _upper_tail(weight, excitation, sigma)


def false_alarm_probability(gain: float, excitation: float, sigma: float) -> float:
    """P(deviation >= gain*e/2) when the node is not influenced (pure noise)."""
    return _upper_tail(gain, excitation, sigma)


def detection_probability(gain: float, excitation: float, sigma: float) -> float:
    """P(deviation >= gain*e/2) when the node receives the gain*e influence.

    Complements ``false_alarm_probability``: the two sum to one exactly.
    """
    return _upper_tail(-gain, excitation, sigma)


def hop_inference_lower_bound(
    gain_min: float,
    gain_max: float,
    excitation: float,
    false_alarm: float,
    sigma: float,
) -> float:
    """Lower bound on the probability of placing a node at its true hop.

    Evaluates D(gain_min)*(2 - alpha - D(gain_max)) with D the detection
    probability at the given excitation; valid when the excitation meets the
    critical magnitude 2*sqrt(2)*sigma*erf_inv(1-2*alpha)/gain_min.
    """
    if gain_min <= 0.0:
        raise ValueError("gain_min must be > 0")
    if gain_max < gain_min:
        raise ValueError("gain_max must be >= gain_min")
    if not 0.0 < false_alarm < 0.5:
        raise ValueError("false alarm level must lie in (0, 0.5)")
    d_min = detection_probability(gain_min, excitation, sigma)
    d_max = detection_probability(gain_max, excitation, sigma)
    return d_min * (2.0 - false_alarm - d_max)


def multi_excitation_bound(excitation: float, weight_floor: float, sigma: float, rounds: int) -> float:
    """Misjudgement bound after averaging the deviations of m excitations.

    Averaging m independent rounds shrinks the noise std by sqrt(m), so the
    bound is 1 - erf(q0*e*sqrt(m) / (2*sqrt(2)*sigma)); it is nonincreasing
    in m and vanishes as m grows.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if weight_floor <= 0.0:
        raise ValueError("weight floor must be > 0")
    return 2.0 * _upper_tail(weight_floor, excitation * math.sqrt(rounds), sigma)
