"""Directed graphs, interaction weight matrices, and hop-neighbor ground truth.

Conventions: ``adjacency[i, j] == 1`` means node ``i`` uses information from
node ``j``, so information flows along ``j -> i``.  The in-neighbor set of
``i`` is the support of row ``i``; the 1-hop out-neighbors of ``j`` are the
support of column ``j``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

# Eigensolver noise allowance for spectral-radius comparisons.
SPECTRAL_TOL = 1e-9
ROW_SUM_TOL = 1e-12
WEIGHT_RULES = ("laplacian", "metropolis")


class StabilityClass(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically_stable"
    MARGINALLY_STABLE = "marginally_stable"
    UNSTABLE = "unstable"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph given by a 0/1 adjacency matrix with zero diagonal."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if np.diagonal(a).any():
            raise ValueError("adjacency diagonal must be zero (no self-loops)")
        object.__setattr__(self, "adjacency", _frozen(a.astype(np.int64)))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def in_degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def edge_count(self) -> int:
        return int(self.adjacency.sum())


@dataclass(frozen=True)
class TopologyMatrix:
    """Nonnegative interaction matrix together with its declared stability.

    ``weight_floor`` is the smallest strictly positive entry (0.0 for an
    all-zero matrix); it is the least interaction weight the hypothesis
    tests can be asked to discriminate.  A marginally stable matrix must be
    row-stochastic: its drift bound presumes rows that are convex
    combinations, and a nonnegative matrix whose rows sum to one has
    spectral radius one.
    """

    matrix: np.ndarray
    stability: StabilityClass
    weight_floor: float = field(init=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.matrix, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isfinite(w).all():
            raise ValueError("matrix entries must be finite")
        if (w < 0).any():
            raise ValueError("matrix entries must be non-negative")
        if (
            self.stability is StabilityClass.MARGINALLY_STABLE
            and np.abs(w.sum(axis=1) - 1.0).max() > ROW_SUM_TOL
        ):
            raise ValueError("a marginally stable matrix must have rows summing to one")
        positive = w[w > 0]
        floor = float(positive.min()) if positive.size else 0.0
        object.__setattr__(self, "weight_floor", floor)
        object.__setattr__(self, "matrix", _frozen(w))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def generate_random_digraph(n: int, edge_probability: float, seed=None) -> WeightedDigraph:
    """Random directed graph with independent Bernoulli(p) off-diagonal edges.

    Rows left without any in-edge get one uniformly random in-edge, so every
    node has in-degree >= 1.  Reproducible for a fixed seed.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not 0 < edge_probability <= 1:
        raise ValueError(f"edge probability must be in (0, 1], got {edge_probability}")
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < edge_probability).astype(np.int64)
    np.fill_diagonal(a, 0)
    for i in np.flatnonzero(a.sum(axis=1) == 0):
        # a uniform pick among the n - 1 other nodes, skipping i
        j = int(rng.integers(n - 1))
        a[i, j + (j >= i)] = 1
    return WeightedDigraph(a)


def _closing_diagonal(w: np.ndarray) -> np.ndarray:
    """Diagonal entries closing each row to sum one.

    Values within the row-sum tolerance of zero are snapped to exact zero so
    a rounding residue never becomes the matrix's smallest positive weight.
    """
    closing = 1.0 - w.sum(axis=1)
    if (closing < -ROW_SUM_TOL).any():
        raise AssertionError("negative diagonal entry; weight rule violated")
    return np.where(closing > ROW_SUM_TOL, closing, 0.0)


def laplacian_weights(graph: WeightedDigraph, gamma: float = 1.0) -> TopologyMatrix:
    """Uniform-weight rule: off-diagonal w_ij = gamma * a_ij / max in-degree.

    The diagonal closes each row to sum one, which makes the matrix
    row-stochastic with spectral radius one.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    degrees = graph.in_degrees()
    max_degree = int(degrees.max())
    if max_degree < 1:
        raise ValueError("graph has no edges")
    w = gamma * graph.adjacency.astype(float) / max_degree
    np.fill_diagonal(w, _closing_diagonal(w))
    return TopologyMatrix(w, StabilityClass.MARGINALLY_STABLE)


def metropolis_weights(graph: WeightedDigraph) -> TopologyMatrix:
    """Degree-pair rule: off-diagonal w_ij = a_ij / max(d_i, d_j)."""
    degrees = graph.in_degrees()
    if degrees.max() < 1:
        raise ValueError("graph has no edges")
    pair_max = np.maximum.outer(degrees, degrees)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(graph.adjacency > 0, graph.adjacency / pair_max, 0.0)
    np.fill_diagonal(w, _closing_diagonal(w))
    return TopologyMatrix(w, StabilityClass.MARGINALLY_STABLE)


def rule_weights(
    graph: WeightedDigraph, rule: str = "laplacian", gamma: float = 1.0, alpha: float | None = None
) -> TopologyMatrix:
    """Weights by the named rule, shrunk by ``alpha`` into the stable regime when given.

    ``gamma`` scales the Laplacian rule only; the Metropolis rule takes none.
    """
    if rule not in WEIGHT_RULES:
        raise ValueError(f"weight rule must be one of {WEIGHT_RULES}, got {rule!r}")
    if rule == "metropolis" and gamma != 1.0:
        raise ValueError(f"the metropolis rule takes no gamma, got {gamma!r}")
    tm = laplacian_weights(graph, gamma) if rule == "laplacian" else metropolis_weights(graph)
    return tm if alpha is None else scale_to_asymptotic(tm, alpha)


def scale_to_asymptotic(tm: TopologyMatrix, alpha: float) -> TopologyMatrix:
    """Shrink a marginally stable matrix by 0 < alpha < 1.

    The result has spectral radius alpha < 1 and is therefore
    asymptotically stable.
    """
    if tm.stability is not StabilityClass.MARGINALLY_STABLE:
        raise ValueError("input must be marginally stable")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return TopologyMatrix(alpha * tm.matrix, StabilityClass.ASYMPTOTICALLY_STABLE)


def classify_stability(w: np.ndarray) -> StabilityClass:
    """Classify a square matrix from its spectrum.

    Asymptotically stable when the spectral radius is below 1 - SPECTRAL_TOL;
    marginally stable when it is 1 within SPECTRAL_TOL and eigenvalue 1 has
    geometric multiplicity one; unstable otherwise.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(w).all():
        raise ValueError("matrix entries must be finite")
    radius = float(np.abs(np.linalg.eigvals(w)).max())
    if radius < 1.0 - SPECTRAL_TOL:
        return StabilityClass.ASYMPTOTICALLY_STABLE
    if abs(radius - 1.0) <= SPECTRAL_TOL:
        n = w.shape[0]
        multiplicity = n - np.linalg.matrix_rank(w - np.eye(n))
        if multiplicity == 1:
            return StabilityClass.MARGINALLY_STABLE
    return StabilityClass.UNSTABLE


def true_hop_sets(graph: WeightedDigraph, source: int, max_hop: int) -> np.ndarray:
    """Ground-truth first hops by breadth-first search along information flow.

    Returns an (n,) integer array in the format of
    ``NeighborDecision.first_hop``: entry i is the BFS level (at most
    ``max_hop``) at which node i is first reached from ``source``, 0 when it
    is not reached.  Hop 1 is the support of adjacency column ``source``.
    The source itself is always 0, even on cycles returning to it.
    """
    n = graph.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside 0..{n - 1}")
    if max_hop < 1:
        raise ValueError("max_hop must be >= 1")
    first = np.zeros(n, dtype=np.int64)
    reached = np.zeros(n, dtype=bool)
    reached[source] = True
    frontier = reached.copy()
    for h in range(1, max_hop + 1):
        frontier = graph.adjacency[:, frontier].any(axis=1) & ~reached
        reached |= frontier
        first[frontier] = h
    return first


def save_matrix(path, matrix: np.ndarray) -> None:
    """Write a header line ``n`` plus n rows: integer dtypes as ``%d``, others as ``%.17g``."""
    m = np.asarray(matrix)
    n = m.shape[0]
    fmt = "%d" if np.issubdtype(m.dtype, np.integer) else "%.17g"
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for row in m:
            fh.write(" ".join(fmt % v for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError("expected the matrix size n on the first line, found none")
        n = int(header)
        if n < 1:
            raise ValueError(f"matrix size must be >= 1, got {n}")
        rows = [line for line in fh if line.partition("#")[0].strip()]
    if not rows:  # loadtxt would only warn
        raise ValueError(f"expected {n}x{n} matrix, got no rows")
    m = np.loadtxt(rows, ndmin=2)
    if m.shape != (n, n):
        raise ValueError(f"expected {n}x{n} matrix, got {m.shape}")
    return m


def load_weights(path) -> TopologyMatrix:
    """Load a weight matrix, re-deriving its stability class spectrally.

    A file that fails to parse or to pass a check raises ``ValueError`` naming it.
    """
    try:
        w = load_matrix(path)
        return TopologyMatrix(w, classify_stability(w))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
