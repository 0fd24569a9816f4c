"""Forward simulation of the noisy network dynamics with excitation inputs.

The state recursion is x_t = W x_{t-1} + theta_{t-1} with observations
y_t = x_t + upsilon_t.  An input e at node j at step t acts as e added to
x_t[j] before the W-multiplication: the model is linear and its noise does
not depend on the input, so it adds exactly e (W^k)[:, j] to the state k
steps later (superposition), and the rows up to the injection step are
untouched.  ``simulate`` runs one trajectory from a given x0 and adds an
``ExcitationPlan``'s response to its states.  ``simulate_batch`` runs a
seeded run of trials unexcited, chunk by chunk, and keeps the rows from a
first step s on; its callers add e times ``_response`` to the rows they
excite.  A run's seed spawns two streams, one per purpose (L'Ecuyer et al.,
*Math. Comput. Simul.* 135, 2017): the first draws every trial's
x0 ~ U(init), the second every trial's normals in trial order, (when
s > 0) z ~ N(0, I), then theta for its kept steps, then upsilon for its
kept rows.  A trial's state at step s is sampled exactly as W^s x0 + L z,
L the Cholesky factor of the process noise's covariance at s, so the steps
before s are never simulated.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from netprobe.topology import StabilityClass, TopologyMatrix, _frozen


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of the i.i.d. Gaussian process/measurement noise."""

    sigma_theta: float = 1.0
    sigma_upsilon: float = 1.0

    def __post_init__(self) -> None:
        for sigma in (self.sigma_theta, self.sigma_upsilon):
            if not 0.0 <= sigma < math.inf:
                raise ValueError(f"noise standard deviations must be finite and >= 0, got {sigma!r}")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(0.0, 0.0)


@dataclass(frozen=True)
class ExcitationPlan:
    """One excitation: which node, at which step, how large."""

    node: int
    time: int
    magnitude: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("excitation time must be >= 0")
        if not math.isfinite(self.magnitude):
            raise ValueError(f"excitation magnitude must be finite, got {self.magnitude}")


@dataclass(frozen=True)
class Trajectory:
    """Simulated states and observations, both shaped (T+1, n)."""

    states: np.ndarray
    observations: np.ndarray
    excitations_applied: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        x = np.asarray(self.states, dtype=float)
        y = np.asarray(self.observations, dtype=float)
        if x.shape != y.shape:
            raise ValueError("states and observations must have equal shapes")
        object.__setattr__(self, "states", _frozen(x))
        object.__setattr__(self, "observations", _frozen(y))

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]


# Bytes of one chunk's normals (z, theta for the kept steps, upsilon for the
# kept rows): 1 MiB is 54 trials of 4 kept rows at n = 300, 1,638 trials of
# 2 kept rows at n = 20, and less than one trial of 307 rows at n = 300.
CHUNK_BYTES = 1 << 20


def _check_run(tm: TopologyMatrix, horizon: int, plan: ExcitationPlan | None) -> None:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if plan is not None:
        if not 0 <= plan.node < tm.n:
            raise ValueError(f"excited node {plan.node} outside 0..{tm.n - 1}")
        if plan.time >= horizon:
            raise ValueError("excitation time must precede the horizon")


def _check_init(init: tuple[float, float]) -> None:
    if not all(math.isfinite(bound) for bound in init):
        raise ValueError(f"initial-state interval must be finite, got {tuple(init)!r}")
    if init[0] >= init[1]:
        raise ValueError(f"initial-state interval is empty, got {tuple(init)!r}")


def _check_integer(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _scale(normals: np.ndarray, sigma: float) -> np.ndarray:
    """Scale standard normals in place to the values ``normal(0.0, sigma)`` returns for them."""
    if sigma == 0.0:
        normals.fill(0.0)  # normal() returns 0.0 + 0.0 * z, a positive zero
    else:
        normals *= sigma
    return normals


def _propagate(tm: TopologyMatrix, x0: np.ndarray, theta: np.ndarray, states: np.ndarray) -> None:
    """Run the unexcited noise recursion x_{t+1} = W x_t + theta_t from every column of ``x0``.

    ``x0`` is (n, k) and ``theta`` (k, steps, n); state x_t goes to
    ``states[:, t]``.  The states step as the columns of one (n, k) array:
    that is the faster product, and with one column it gives the bits of
    ``W @ x``.  An excitation's ``_response`` is added afterwards.
    """
    w = tm.matrix
    x = np.array(x0, order="C")
    nxt = np.empty_like(x)
    horizon = theta.shape[1]
    for t in range(horizon + 1):
        states[:, t] = x.T
        if t == horizon:
            break
        np.matmul(w, x, out=nxt)
        nxt += theta[:, t].T
        x, nxt = nxt, x


def _response(tm: TopologyMatrix, node: int, steps: int) -> np.ndarray:
    """(steps + 1, n) unit response to an input at ``node``: row 0 zero, row k (W^k)[:, node]."""
    rows = np.zeros((steps + 1, tm.n))
    for k in range(1, steps + 1):
        rows[k] = tm.matrix[:, node] if k == 1 else tm.matrix @ rows[k - 1]
    return rows


def simulate(
    tm: TopologyMatrix,
    x0,
    horizon: int,
    noise: NoiseModel,
    plan: ExcitationPlan | None = None,
    seed=None,
) -> Trajectory:
    """Run the dynamics for ``horizon`` steps from ``x0``.

    All noise draws are made up front in a fixed order, so two runs with the
    same seed share identical noise whether or not an excitation is applied;
    their difference is the added response, to rounding.  A
    ``Generator`` passed as ``seed`` draws on from where its stream stands.
    """
    x0 = np.asarray(x0, dtype=float)
    n = tm.n
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    _check_run(tm, horizon, plan)

    rng = np.random.default_rng(seed)
    theta = _scale(rng.standard_normal((1, horizon, n)), noise.sigma_theta)
    upsilon = _scale(rng.standard_normal((horizon + 1, n)), noise.sigma_upsilon)
    states = np.empty((1, horizon + 1, n))
    _propagate(tm, x0[:, None], theta, states)
    if plan is not None:
        states[0, plan.time:] += plan.magnitude * _response(tm, plan.node, horizon - plan.time)

    applied = () if plan is None else ((plan.node, plan.time, plan.magnitude),)
    return Trajectory(states[0], states[0] + upsilon, applied)


def _start_law(tm: TopologyMatrix, start: int, noise: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """(W^s, L) for s = ``start``: given x0, x_s = W^s x0 + L z with z ~ N(0, I).

    L is the Cholesky factor of the process noise's covariance at step s,
    C_s = sigma_theta^2 G_s with G_s = sum_{k<s} W^k W^k^T (Anderson & Moore,
    *Optimal Filtering*, 1979); G_s >= I for s >= 1, also at a marginally
    stable W.  The bits of s are read most significant first from
    (W^1, G_1) = (W, I): each doubles, G_2r = G_r + W^r G_r W^r^T and
    W^2r = W^r W^r, and a 1 bit then steps once, G_(r+1) = G_r + W^r W^r^T
    and W^(r+1) = W^r W.  That is at most 5 log2(s) products, 18 at s = 50.
    L is zero when s or sigma_theta is.
    """
    n = tm.n
    # W^r and G_r at r = 1; W^0 at s = 0
    power, gram = (tm.matrix if start else np.eye(n)), np.eye(n)
    for r, bit in enumerate(bin(start)[3:]):
        gram += power @ power.T if r == 0 else power @ gram @ power.T  # G_1 = I
        power = power @ power
        if bit == "1":
            gram += power @ power.T
            power = power @ tm.matrix
    if not start or noise.sigma_theta == 0.0:
        return power, np.zeros((n, n))
    return power, noise.sigma_theta * np.linalg.cholesky(gram)


def _simulate_chunk(tm, init, noise, streams, trials, steps, law) -> np.ndarray:
    """The next ``trials`` trials of ``simulate_batch``; ``law`` is None at start 0.

    Two bulk draws: every trial's x0 from the first stream, and from the
    second one row per trial holding its z, theta and upsilon in turn.
    The returned windows are a new array, so the draws are freed on return.
    """
    uniforms, normals = streams
    n = tm.n
    states = np.empty((trials, steps + 1, n))
    x = uniforms.uniform(*init, (trials, n)).T
    lead = 0 if law is None else n
    draws = normals.standard_normal((trials, lead + (2 * steps + 1) * n))
    mid = lead + steps * n
    theta = _scale(draws[:, lead:mid], noise.sigma_theta).reshape(trials, steps, n)
    upsilon = _scale(draws[:, mid:], noise.sigma_upsilon).reshape(trials, steps + 1, n)
    if law is not None:
        power, factor = law
        x = power @ x + factor @ draws[:, :n].T
    _propagate(tm, x, theta, states)
    states += upsilon
    return states


def simulate_batch(
    tm: TopologyMatrix,
    init: tuple[float, float],
    horizon: int,
    noise: NoiseModel,
    seed: int,
    trials: int,
    start: int = 0,
) -> Iterator[np.ndarray]:
    """Unexcited rows y_start..y_horizon of a seeded run of ``trials`` trials, as (chunk, rows, n).

    The arguments are checked and the start-state law is built when called;
    the returned iterator then draws the trials in order, as many per chunk
    as keep a chunk's normals within CHUNK_BYTES.  ``SeedSequence(seed)``
    spawns two streams: trial k's x0 is the k-th ``uniform(*init, n)`` row of
    the first, and its normals are the next run of the second, z (when
    ``start`` > 0), then theta and upsilon as ``simulate`` draws them.  A
    chunk of k trials is one (k, n) and one (k, normals) draw, so the chunk
    size never changes which draws a trial gets.  A caller adds an input e
    at node j and step t >= ``start`` as e times ``_response(tm, j,
    horizon - t)`` on the rows from t on.  The trials of a chunk step
    together, one (n, n) @ (n, trials) product per step, which may round the
    last bits differently from the matrix-vector product of ``simulate``.
    """
    _check_init(init)
    _check_run(tm, horizon, None)
    _check_integer("seed", seed, 0)
    _check_integer("trials", trials, 1)
    if not 0 <= start <= horizon:
        raise ValueError(f"first kept step {start} outside 0..{horizon}")
    law = _start_law(tm, start, noise) if start else None
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    steps = horizon - start
    normals = (2 * steps + 1 + (start > 0)) * tm.n  # one trial's z, theta and upsilon
    size = max(1, CHUNK_BYTES // (8 * normals))
    return (
        _simulate_chunk(tm, init, noise, streams, min(size, trials - first), steps, law)
        for first in range(0, trials, size)
    )


def deviation_bound(y, stability: StabilityClass) -> float | np.ndarray:
    """Bound on the excitation-free drift |(W^h y)_i - y_i| from one snapshot.

    Marginally stable dynamics keep every propagated value inside the convex
    hull of the current entries, so the max pairwise spread bounds the drift;
    asymptotically stable dynamics contract toward zero, so the max absolute
    entry does.  A vector gives a float; an (..., n) stack of snapshots gives
    one bound per snapshot.
    """
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("observation vector must be finite")
    bound = _drift_bound(y, stability)
    return float(bound) if y.ndim == 1 else bound


def _drift_bound(y: np.ndarray, stability: StabilityClass) -> np.ndarray:
    """``deviation_bound``'s rule, unchecked, on finite (..., n) snapshots: one bound each."""
    if stability is StabilityClass.MARGINALLY_STABLE:
        return y.max(axis=-1) - y.min(axis=-1)
    if stability is StabilityClass.ASYMPTOTICALLY_STABLE:
        return np.abs(y).max(axis=-1)
    raise ValueError("deviation bound undefined for unstable dynamics")


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Export as CSV rows ``t,node,state,observation``.

    Excitation events are appended as ``# excite node=<j> t=<t> e=<val>``
    comment lines.
    """
    with open(path, "w") as fh:
        fh.write("t,node,state,observation\n")
        for t in range(traj.horizon + 1):
            for i in range(traj.n):
                fh.write(
                    f"{t},{i},{traj.states[t, i]:.17g},{traj.observations[t, i]:.17g}\n"
                )
        for node, t, mag in traj.excitations_applied:
            fh.write(f"# excite node={node} t={t} e={mag:.17g}\n")
