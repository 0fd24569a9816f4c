"""Noise-level bounds and detection closed forms built on the Gaussian tail.

Everything the excitation designer and the decision rules need: the
worst-case and exact standard deviations of the h-step observation deviation
noise, critical excitation magnitudes (from the standard normal quantile
Phi^-1, ``statistics.NormalDist.inv_cdf``), misjudgement probabilities, the
false-alarm/detection tail integrals (from ``math.erfc``), and the bounds for
multi-hop and repeated-excitation tests.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from netprobe.topology import TopologyMatrix
from netprobe.dynamics import NoiseModel

SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()


def _upper_tail(gain: float, excitation: float, sigma: float) -> float:
    """P(N(0, sigma^2) >= |gain*e|/2) = erfc(|gain*e| / (2*sqrt(2)*sigma)) / 2.

    The decision rules threshold on |e|, so the input's sign does not count.
    At sigma = 0 it is the limit as sigma -> 0: 0, or 1/2 when gain*e = 0.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    shift = abs(gain * excitation)
    if sigma == 0.0:
        return 0.0 if shift > 0.0 else 0.5
    return 0.5 * math.erfc(shift / (2.0 * SQRT2 * sigma))


def _finite(std, noise: NoiseModel):
    """``std``, or a ValueError naming the noise levels when any of it overflowed."""
    if not np.isfinite(std).all():
        raise ValueError(
            f"sigma_theta {noise.sigma_theta!r} and sigma_upsilon {noise.sigma_upsilon!r} "
            "make the deviation noise std overflow"
        )
    return std


def deviation_noise_bound(n: int, noise: NoiseModel, row_stochastic: bool = False) -> float:
    """Worst-case one-step deviation noise std, computable without W.

    The general bound is sqrt((1+n) sigma_upsilon^2 + sigma_theta^2); when W
    is known to be row-stochastic the squared row norms are at most one and
    the bound tightens to sqrt(2 sigma_upsilon^2 + sigma_theta^2).  Noise
    levels that overflow it are rejected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sv2 = noise.sigma_upsilon ** 2
    st2 = noise.sigma_theta ** 2
    return _finite(math.sqrt((2.0 if row_stochastic else 1.0 + n) * sv2 + st2), noise)


def deviation_noise_std(tm: TopologyMatrix, steps: int, noise: NoiseModel) -> np.ndarray:
    """Exact std of the h-step deviation noise at every node, as a (steps, n) array.

    Row h-1 holds the h-step stds.  Node i's variance is (1 + sum_j G_ij(h)^2)
    sigma_upsilon^2 plus sigma_theta^2 * sum_{m=1..h} sum_j G_ij(m-1)^2, where
    G(l) = W^l; one chain of powers starting at W serves every row.  Noise
    levels that overflow a std are rejected.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    powers = [tm.matrix]
    for _ in range(steps - 1):
        powers.append(powers[-1] @ tm.matrix)
    # row l holds sum_j G_ij(l)^2 for l = 0..steps, with G(0) = I
    squares = np.vstack([np.ones(tm.n), *((p ** 2).sum(axis=1) for p in powers)])
    with np.errstate(over="ignore"):
        var = (1.0 + squares[1:]) * noise.sigma_upsilon ** 2
        return _finite(np.sqrt(var + np.cumsum(squares[:-1], axis=0) * noise.sigma_theta ** 2), noise)


def onehop_noise_std(tm: TopologyMatrix, noise: NoiseModel) -> float:
    """The noise std the one-hop excitation is designed for.

    The row-stochastic bound sqrt(2 sigma_upsilon^2 + sigma_theta^2), or the
    largest exact one-step std where a stable matrix has a squared row sum
    above one.
    """
    exact = float(deviation_noise_std(tm, 1, noise)[0].max())
    return max(deviation_noise_bound(tm.n, noise, row_stochastic=True), exact)


def critical_excitation(sigma: float, weight: float, error_budget: float) -> float:
    """Smallest |e| that keeps the edge-test misjudgement within the budget.

    Returns 2*sigma*|Phi^-1(budget/2)| / weight with Phi^-1 the standard
    normal quantile, so a budget too small to change 1 - budget keeps its
    value.  With the h-step noise std and an h-step gain in place of
    (sigma, weight) the same formula designs the within-h-hop test.
    """
    if not 0.0 < weight < math.inf:
        raise ValueError(f"weight must be finite and > 0, got {weight!r}")
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"noise std must be finite and >= 0, got {sigma!r}")
    if not 0.0 < error_budget <= 1.0:
        raise ValueError("error budget must lie in (0, 1]")
    return 2.0 * sigma * abs(_STANDARD_NORMAL.inv_cdf(error_budget / 2.0)) / weight


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
    return 1.0 - _upper_tail(gain, excitation, sigma)


def hop_inference_lower_bound(gain: float, excitation: float, false_alarm: float, sigma: float) -> float:
    """Lower bound on the probability of placing a node at its true hop.

    Evaluates D(gain)*(2 - alpha - D(gain)) with D the detection probability
    at the given excitation; valid when the excitation meets the critical
    magnitude 2*sigma*|Phi^-1(alpha)|/gain.
    """
    if gain <= 0.0:
        raise ValueError("gain must be > 0")
    if not 0.0 < false_alarm < 0.5:
        raise ValueError("false alarm level must lie in (0, 0.5)")
    d = detection_probability(gain, excitation, sigma)
    return d * (2.0 - false_alarm - d)


def multi_excitation_bound(excitation: float, weight_floor: float, sigma: float, rounds: int) -> float:
    """Misjudgement bound after averaging the deviations of m excitations.

    Averaging m independent rounds shrinks the noise std by sqrt(m), so the
    bound is erfc(q0*e*sqrt(m) / (2*sqrt(2)*sigma)); it is nonincreasing
    in m and vanishes as m grows.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if weight_floor <= 0.0:
        raise ValueError("weight floor must be > 0")
    return 2.0 * _upper_tail(weight_floor, excitation * math.sqrt(rounds), sigma)
