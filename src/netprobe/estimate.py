"""Global least-squares topology estimation and excitation-derived constraints.

The interaction matrix is estimated row by row from consecutive observation
pairs.  An excitation round supplies sign information for one column: entries
decided present are constrained nonnegative, entries decided absent are fixed
to zero.  Rows are grouped by their constraint pattern: the rows of a
pattern with only zero entries are refit together, and rows with
nonnegativity constraints are solved exactly by an active-set method
(Lawson-Hanson with the free variables pre-seeded into the passive set) on
their pattern's shared design.

The plain (unconstrained) solve is computed once per ``LsProblem`` and
shared: ``ols_estimate`` returns it, and ``constrained_estimate`` copies it
for the rows no constraint touches.  When the design X (T x n) has at least
as many rows as columns, the problem factors it once as X = QR and keeps
inv(R) when ||R||_F ||inv(R)||_F eps max(T, n) < 1.  That bound implies
``lstsq``'s own rank test, so the design has full column rank, and the plain
solution is inv(R) (Q^T Y) (Golub & Van Loan, *Matrix Computations*,
sec. 5.3).  A zero-only pattern's rows then come from that solution by an
exact column-deletion downdate (sec. 6.5) through the same inv(R), with no
new least-squares solve.  A short or ill-conditioned design keeps the
SVD-based ``lstsq``: its plain solve is minimum-norm when rank-deficient,
and each zero-only pattern is one multi-right-hand-side ``lstsq`` call.  The
active-set solver for patterns with a positive entry also solves with
``lstsq``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from netprobe.infer import NeighborDecision
from netprobe.topology import _frozen

# Entries within this distance of zero count as zero in the structure error.
SIGN_TOL = 1e-6


class EntryConstraint(enum.Enum):
    POSITIVE = "pos"
    ZERO = "zero"


@dataclass(frozen=True)
class LsProblem:
    """Stacked (T, n) rows y_{t-1} and y_t plus per-entry constraints; an entry left out is free."""

    regressors: np.ndarray
    targets: np.ndarray
    constraints: dict[tuple[int, int], EntryConstraint] = field(default_factory=dict)

    def __post_init__(self) -> None:
        x = np.asarray(self.regressors, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if x.ndim != 2 or x.shape != y.shape or x.shape[0] == 0:
            raise ValueError("regressors and targets must be equal-shape (T, n) arrays, T >= 1")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("regressors and targets must be finite")
        n = x.shape[1]
        for (i, j), kind in self.constraints.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"constraint index ({i}, {j}) outside the matrix")
            if not isinstance(kind, EntryConstraint):
                raise ValueError(f"constraint ({i}, {j}) is {kind!r}, not an EntryConstraint")
        object.__setattr__(self, "regressors", _frozen(x))
        object.__setattr__(self, "targets", _frozen(y))

    @property
    def n(self) -> int:
        return self.regressors.shape[1]

    @cached_property
    def _factor(self) -> tuple[LsSolution, np.ndarray | None]:
        """The plain solution, and inv(R) of the design when ``_full_rank_solve`` succeeds."""
        solved = _full_rank_solve(self.regressors, self.targets)
        if solved is None:
            rinv = None
            sol, _, rank, _ = np.linalg.lstsq(self.regressors, self.targets, rcond=None)
        else:
            rinv, sol = solved
            rank = self.n
        sol.flags.writeable = False
        return LsSolution(sol.T, int(rank), int(rank) < self.n), rinv


def _full_rank_solve(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(inv(R), inv(R) Q^T y)`` for the reduced QR x = QR, or None.

    None when x has fewer rows than columns, R is singular, or
    ||R||_F ||inv(R)||_F eps max(T, n) < 1 fails.  Since ||R||_F ||inv(R)||_F
    >= cond_2(x), passing the bound puts x's smallest singular value above
    ``lstsq``'s cutoff, eps max(T, n) times the largest, so ``lstsq`` would
    call x full rank too.  Q is freed as soon as Q^T y is formed.
    """
    t, n = x.shape
    if t < n:
        return None
    q, r = np.linalg.qr(x)
    qty = q.T @ y
    del q
    try:
        rinv = _upper_inverse(r)
    except np.linalg.LinAlgError:
        return None
    # written so that a NaN product fails too
    if not np.linalg.norm(r) * np.linalg.norm(rinv) * np.finfo(float).eps * max(t, n) < 1.0:
        return None
    return rinv, rinv @ qty


def _upper_inverse(r: np.ndarray) -> np.ndarray:
    """inv(R) of an upper-triangular R from the inverses of its diagonal blocks.

    [[A, B], [0, C]]^-1 = [[inv(A), -inv(A) B inv(C)], [0, inv(C)]].  ``inv``
    copies its input and solves against a full identity; on the half-size
    blocks those copies are a quarter the size, so the plain solve's peak
    memory stays at the QR factorisation's own, and the zero blocks below
    the diagonal are never solved for.  Raises ``LinAlgError`` when R is
    singular.
    """
    h = r.shape[0] // 2
    rinv = np.zeros_like(r)
    rinv[:h, :h] = np.linalg.inv(r[:h, :h])
    rinv[h:, h:] = np.linalg.inv(r[h:, h:])
    rinv[:h, h:] = -(rinv[:h, :h] @ r[:h, h:]) @ rinv[h:, h:]
    return rinv


@dataclass(frozen=True)
class LsSolution:
    """Estimated matrix plus rank diagnostics of the stacked regressors."""

    matrix: np.ndarray
    rank: int
    rank_deficient: bool


def ols_estimate(problem: LsProblem) -> LsSolution:
    """Row-wise least squares over all observation pairs.

    A design that passes ``LsProblem``'s condition bound is solved through
    its QR factor; any other design, rank-deficient ones included, gets
    ``lstsq``'s minimum-norm solution, with ``rank_deficient`` flagged when
    its rank is short.  Constraints on the problem are ignored here.  The
    plain solve runs once per problem, on first use; the result is shared
    with ``constrained_estimate``, so its matrix is read-only.
    """
    return problem._factor[0]


def _nonneg_row_lstsq(a: np.ndarray, b: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """min ||a @ x - b|| with x[k] >= 0 where positive[k], other x free.

    Lawson-Hanson active set; free variables start (and stay) passive.
    """
    m, n = a.shape
    x = np.zeros(n)
    passive = ~positive

    def solve_passive() -> np.ndarray:
        z = np.zeros(n)
        if passive.any():
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        return z

    # Optimize the initially passive (free) variables before touching the
    # constrained ones; no feasibility issue since none of them is bounded.
    z = solve_passive()
    x = z
    grad_tol = 10 * np.finfo(float).eps * max(m, n) * max(1.0, float(np.abs(a.T @ b).max(initial=0.0)))
    for _ in range(3 * n + 10):
        w = a.T @ (b - a @ x)
        candidates = ~passive & (w > grad_tol)
        if not candidates.any():
            break
        entering = int(np.argmax(np.where(candidates, w, -np.inf)))
        passive[entering] = True
        while True:
            z = solve_passive()
            violating = passive & positive & (z <= 0.0)
            if not violating.any():
                x = z
                break
            ratios = np.full(n, np.inf)
            gaps = x[violating] - z[violating]
            # x >= 0 and z <= 0 on violating entries; a zero gap means both
            # are zero, and a zero step just drops that variable again
            ratios[violating] = np.where(gaps > 0.0, x[violating] / np.where(gaps > 0.0, gaps, 1.0), 0.0)
            leaving = int(np.argmin(ratios))
            x = x + float(ratios[leaving]) * (z - x)
            # The leaving variable hits zero by construction; clear any
            # rounding residue so it re-enters the active set cleanly.
            drop = violating & (x <= 1e-14 * max(1.0, float(np.abs(x).max())))
            drop[leaving] = True
            x[drop] = 0.0
            passive[drop] = False
    else:
        raise RuntimeError("active-set iteration limit exceeded")
    x[positive] = np.maximum(x[positive], 0.0)
    return x


def _row_patterns(constraints: dict[tuple[int, int], EntryConstraint]) -> dict[tuple, list[int]]:
    """Rows grouped by their constraints, as sorted ``(column, kind)`` keys.

    Keys and member lists are sorted, so the grouping does not depend on the
    dict's insertion order.  Rows with no constrained entry are left out.
    """
    by_row: dict[int, list[tuple[int, EntryConstraint]]] = {}
    for (i, j), kind in constraints.items():
        by_row.setdefault(i, []).append((j, kind))
    groups: dict[tuple, list[int]] = {}
    for i in sorted(by_row):
        groups.setdefault(tuple(sorted(by_row[i])), []).append(i)
    return groups


def _downdate(
    beta: np.ndarray, rinv: np.ndarray, zero: list[int], keep: np.ndarray, rows: list[int]
) -> np.ndarray:
    """Rows of the plain solution ``beta`` refit without the columns ``zero``.

    With the design X = QR of full column rank, G = inv(X^T X) = inv(R) inv(R)^T,
    and dropping the columns Z turns a row b of the plain solution into
    b - G[:, Z] inv(G[Z, Z]) b[Z], which is zero on Z.  G[:, Z] is
    inv(R) inv(R)[Z]^T, one product with the problem's stored inverse, so
    the normal equations are never formed.
    """
    g = rinv @ rinv[zero].T
    # one column per row: inv(G[Z, Z]) b[Z]
    coef = np.linalg.solve(g[zero], beta[np.ix_(rows, zero)].T)
    return beta[np.ix_(rows, keep)] - (g[keep] @ coef).T


def _solve_pattern(
    x: np.ndarray,
    y: np.ndarray,
    pattern: tuple,
    rows: list[int],
    beta: np.ndarray,
    rinv: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The columns a pattern keeps, and its rows' values on them, one row each.

    Every row of the pattern shares the design ``x[:, keep]``.  Without a
    positive entry the rows are downdated from the plain solution ``beta``
    when ``rinv`` (inv(R) of ``x``, given only when ``x`` passed the
    condition bound) is set, and otherwise are one multi-right-hand-side
    ``lstsq`` solve, which is minimum-norm when the design is rank-deficient.
    With a positive entry each row runs the active-set solver on that design.
    """
    zero = [j for j, kind in pattern if kind is EntryConstraint.ZERO]
    keep = np.delete(np.arange(x.shape[1]), zero)
    zero_only = len(zero) == len(pattern)
    if zero_only and rinv is not None:
        return keep, _downdate(beta, rinv, zero, keep, rows)
    a = x[:, keep]
    if zero_only:
        # solving for every column of y avoids copying y[:, rows]
        return keep, np.linalg.lstsq(a, y, rcond=None)[0][:, rows].T
    positive = np.isin(keep, [j for j, kind in pattern if kind is EntryConstraint.POSITIVE])
    return keep, np.array([_nonneg_row_lstsq(a, y[:, i], positive) for i in rows])


def constrained_estimate(problem: LsProblem) -> LsSolution:
    """Row-wise least squares honoring the problem's entry constraints.

    Rows are grouped by their constraint pattern and each pattern is solved
    on its shared design (see ``_solve_pattern``); zero-constrained entries
    are eliminated and positive-constrained ones solved under nonnegativity.
    Fully unconstrained rows are copied from the problem's shared plain
    solution, so they equal ``ols_estimate``'s rows bit for bit.
    When the problem holds inv(R) of its design (the design passed the
    condition bound), zero-only patterns are downdated from the plain
    solution through it, and no factorisation runs here; their values agree
    with a fresh solve of the reduced design to rounding.  Otherwise
    zero-only patterns, like patterns with a positive entry, use ``lstsq``.
    """
    x = problem.regressors
    y = problem.targets
    plain, rinv = problem._factor
    solved = [
        (rows, *_solve_pattern(x, y, pattern, rows, plain.matrix, rinv))
        for pattern, rows in _row_patterns(problem.constraints).items()
    ]
    # rows of W; free rows keep the plain solution, and the copy keeps its
    # (column-major) memory layout
    w = plain.matrix.copy(order="K")
    for rows, keep, values in solved:
        w[rows] = 0.0
        w[np.ix_(rows, keep)] = values
    return LsSolution(w, plain.rank, plain.rank_deficient)


def _thresholded_sign(m: np.ndarray) -> np.ndarray:
    # one byte per entry: error_metrics runs on n x n matrices in fig1c's
    # loop, and float temporaries there set the workload's peak memory
    return (m > SIGN_TOL).view(np.int8) - (m < -SIGN_TOL).view(np.int8)


def error_metrics(estimate: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(structure error, magnitude error) of an estimated interaction matrix.

    The structure error counts entries whose thresholded sign differs from
    the truth's, normalized by the entry count (so it lies in [0, 1]); the
    magnitude error is the Frobenius distance relative to the truth's norm.
    """
    est = np.asarray(estimate, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError("estimate and truth must have the same shape")
    if not (np.isfinite(est).all() and np.isfinite(tru).all()):
        raise ValueError("estimate and truth must be finite")
    denom = float(np.linalg.norm(tru))
    if denom == 0.0:
        raise ValueError("truth matrix must be nonzero")
    mismatches = (_thresholded_sign(est) != _thresholded_sign(tru)).sum()
    structure = float(mismatches) / est.size
    magnitude = float(np.linalg.norm(est - tru)) / denom
    return structure, magnitude


def constraints_from_decision(decision: NeighborDecision) -> dict[tuple[int, int], EntryConstraint]:
    """Column constraints for the excited node from a one-hop decision.

    Accepted nodes force W[i, source] nonnegative-active, rejected nodes
    force it to zero; the diagonal entry is left out, so it stays free.
    """
    j = decision.source
    return {
        (i, j): EntryConstraint.POSITIVE if hop == 1 else EntryConstraint.ZERO
        for i, hop in enumerate(decision.first_hop.tolist())
        if i != j
    }


def save_constraints(path, constraints: dict[tuple[int, int], EntryConstraint]) -> None:
    """Write constraints as lines ``i j {pos|zero}``."""
    with open(path, "w") as fh:
        for (i, j), kind in sorted(constraints.items()):
            fh.write(f"{i} {j} {kind.value}\n")
