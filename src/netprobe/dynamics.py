"""Forward simulation of the noisy network dynamics with excitation inputs.

The state recursion is x_t = W x_{t-1} + theta_{t-1} with observations
y_t = x_t + upsilon_t.  An input e at node j at step t acts as e added to
x_t[j] before the W-multiplication: the model is linear and its noise does
not depend on the input, so it adds exactly e (W^k)[:, j] to the state k
steps later (superposition), and the rows up to the injection step are
untouched.  ``simulate`` runs one trajectory from a given x0 and adds an
``ExcitationPlan``'s response to its states.  ``simulate_batch`` runs many
seeded trials unexcited, chunk by chunk, and keeps the rows from a first
step s on; its callers add e times ``_response`` to the rows they excite.
Each trial draws, from its own generator, x0 ~ U(init), then (when s > 0)
z ~ N(0, I), then theta for its kept steps, then upsilon for its kept rows;
its state at step s is sampled exactly as W^s x0 + L z, L the Cholesky
factor of the process noise's covariance at s, so the steps before s are
never simulated.
"""

from __future__ import annotations

import math
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


# Bytes of one chunk's process noise, counted over the whole horizon: 1 MiB
# is 8 trials of 53 steps at n = 300 and 128 trials of 51 steps at n = 20.
# A chunk that samples its start state draws theta for its kept steps only,
# so its buffers stay well inside this budget.
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


def _normal(rng: np.random.Generator, sigma: float, out: np.ndarray) -> None:
    """Fill ``out`` with the values ``rng.normal(0.0, sigma, out.shape)`` returns."""
    rng.standard_normal(out=out)
    if sigma == 0.0:
        out.fill(0.0)  # normal() returns 0.0 + 0.0 * z, a positive zero
    else:
        out *= sigma


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
    theta = np.empty((1, horizon, n))
    upsilon = np.empty((horizon + 1, n))
    _normal(rng, noise.sigma_theta, theta[0])
    _normal(rng, noise.sigma_upsilon, upsilon)
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
    stable W.  Doubling, W^(r+a) = W^r W^a and G_(r+a) = G_r + W^r G_a W^r^T,
    takes about 3 log2(s) products.  L is zero when s or sigma_theta is.
    """
    n = tm.n
    power, gram = np.eye(n), np.zeros((n, n))  # W^r and G_r over the bits of s read so far
    step, step_gram = tm.matrix, np.eye(n)  # W^a and G_a, a the next bit's value
    bits = start
    while bits:
        if bits & 1:
            gram += power @ step_gram @ power.T
            power = power @ step
        bits >>= 1
        if bits:
            step_gram = step_gram + step @ step_gram @ step.T
            step = step @ step
    if not start or noise.sigma_theta == 0.0:
        return power, np.zeros((n, n))
    return power, noise.sigma_theta * np.linalg.cholesky(gram)


def _simulate_chunk(tm, init, horizon, noise, seeds, start, law) -> np.ndarray:
    """One chunk of ``simulate_batch``; ``law`` is ``_start_law``'s, None at ``start`` 0."""
    k, n, steps = len(seeds), tm.n, horizon - start
    out = np.empty((k, steps + 1, n))  # first, below the buffers freed on return
    x0, z = np.empty((k, n)), np.empty((k, n))
    theta = np.empty((k, steps, n))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        x0[i] = rng.uniform(*init, n)
        if law is not None:
            rng.standard_normal(out=z[i])
        _normal(rng, noise.sigma_theta, theta[i])
        _normal(rng, noise.sigma_upsilon, out[i])
    x = x0.T
    if law is not None:
        power, factor = law
        x = power @ x + factor @ z.T
    states = np.empty_like(out)
    _propagate(tm, x, theta, states)
    out += states
    return out


def simulate_batch(
    tm: TopologyMatrix,
    init: tuple[float, float],
    horizon: int,
    noise: NoiseModel,
    seeds,
    start: int = 0,
) -> Iterator[np.ndarray]:
    """Unexcited observations y_start..y_horizon of seeded trials, as (chunk, rows, n) arrays.

    The arguments are checked and the start-state law is built when called;
    the returned iterator then draws the ``seeds`` in order, as many per
    chunk as keep a chunk's process noise, counted over the whole horizon,
    within CHUNK_BYTES.  Trial k draws from ``default_rng(seeds[k])`` in the
    module's order: with ``start`` = 0, x0 ~ U(init) and then what
    ``simulate`` draws.  A caller adds an input e at node j and step
    t >= ``start`` as e times ``_response(tm, j, horizon - t)`` on the rows
    from t on.  The trials of a chunk step together, one (n, n) @ (n, trials)
    product per step, which may round the last bits differently from the
    matrix-vector product of ``simulate``.  One ``Generator`` repeated in
    ``seeds`` draws the trials in turn on its stream.
    """
    _check_init(init)
    _check_run(tm, horizon, None)
    if not 0 <= start <= horizon:
        raise ValueError(f"first kept step {start} outside 0..{horizon}")
    law = _start_law(tm, start, noise) if start else None
    size = max(1, CHUNK_BYTES // (8 * horizon * tm.n))
    return (
        _simulate_chunk(tm, init, horizon, noise, seeds[first:first + size], start, law)
        for first in range(0, len(seeds), size)
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
    if stability is StabilityClass.MARGINALLY_STABLE:
        bound = y.max(axis=-1) - y.min(axis=-1)
    elif stability is StabilityClass.ASYMPTOTICALLY_STABLE:
        bound = np.abs(y).max(axis=-1)
    else:
        raise ValueError("deviation bound undefined for unstable dynamics")
    return float(bound) if y.ndim == 1 else bound


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
