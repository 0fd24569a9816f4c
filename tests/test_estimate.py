"""Least-squares estimators: exact identification, constraints, error metrics."""

import itertools
import math
import random

import numpy as np
import pytest

from netprobe.estimate import (
    EntryConstraint,
    LsProblem,
    constrained_estimate,
    constraints_from_decision,
    error_metrics,
    _nonneg_row_lstsq,
    _upper_inverse,
    ols_estimate,
    save_constraints,
)
from netprobe.dynamics import NoiseModel, simulate
from netprobe.infer import infer_one_hop
from netprobe.topology import StabilityClass, generate_random_digraph, laplacian_weights

POS = EntryConstraint.POSITIVE
ZERO = EntryConstraint.ZERO


def basis_rows(w):
    """Regressor rows e_k and target rows W e_k."""
    eye = np.eye(w.shape[0])
    return eye, eye @ w.T


def noisy_rows(tm, count, seed, sigma=1.0):
    _, y = simulate(tm, np.zeros(tm.n), count, NoiseModel(sigma, sigma), seed=seed)
    return y[:count], y[1:count + 1]


def row_objective(x_mat, y_col, row):
    return float(((x_mat @ row - y_col) ** 2).sum())


def brute_force_constrained_row(x_mat, y_col, kinds):
    """Enumerate active sets: globally optimal row under the constraints."""
    n = x_mat.shape[1]
    keep = [j for j in range(n) if kinds[j] is not ZERO]
    pos = [j for j in keep if kinds[j] is POS]
    best, best_obj = None, np.inf
    for zeroed in itertools.chain.from_iterable(
        itertools.combinations(pos, r) for r in range(len(pos) + 1)
    ):
        active = [j for j in keep if j not in zeroed]
        row = np.zeros(n)
        if active:
            sol = np.linalg.lstsq(x_mat[:, active], y_col, rcond=None)[0]
            row[active] = sol
        if any(row[j] < -1e-12 for j in pos):
            continue
        obj = row_objective(x_mat, y_col, row)
        if obj < best_obj - 1e-15:
            best, best_obj = row, obj
    return best, best_obj


def per_row_reference(problem):
    """Row-at-a-time oracle: one active-set solve per constrained row."""
    x, y, n = problem.regressors, problem.targets, problem.n
    base = np.linalg.lstsq(x, y, rcond=None)[0]
    w = np.zeros((n, n))
    for i in range(n):
        kinds = [problem.constraints.get((i, j)) for j in range(n)]
        if all(k is None for k in kinds):
            w[i] = base[:, i]
            continue
        keep = [j for j in range(n) if kinds[j] is not ZERO]
        if not keep:
            continue
        positive = np.array([kinds[j] is POS for j in keep], dtype=bool)
        w[i, keep] = _nonneg_row_lstsq(x[:, keep], y[:, i], positive)
    return w


class TestOls:
    def test_exact_identification_from_basis(self):
        tm = laplacian_weights(generate_random_digraph(8, 0.3, 5), 0.9)
        sol = ols_estimate(LsProblem(*basis_rows(tm.matrix)))
        assert np.abs(sol.matrix - tm.matrix).max() <= 1e-10
        assert not sol.rank_deficient

    def test_single_pair_min_norm_flagged(self):
        a = np.array([1.0, 2.0, 0.5])
        b = np.array([0.3, -0.1, 0.9])
        sol = ols_estimate(LsProblem(a[None], b[None]))
        assert sol.rank_deficient and sol.rank == 1
        expected = np.outer(b, a) / (a @ a)  # pseudo-inverse solution
        assert np.abs(sol.matrix - expected).max() <= 1e-12

    def test_residual_orthogonality(self):
        tm = laplacian_weights(generate_random_digraph(10, 0.3, 8), 1.0)
        problem = LsProblem(*noisy_rows(tm, 25, seed=1))
        sol = ols_estimate(problem)
        x, y = problem.regressors, problem.targets
        gram = x.T @ (y - x @ sol.matrix.T)
        assert np.abs(gram).max() <= 1e-8

    def test_row_separability(self):
        tm = laplacian_weights(generate_random_digraph(9, 0.3, 2), 1.0)
        problem = LsProblem(*noisy_rows(tm, 20, seed=4))
        x, y = problem.regressors, problem.targets
        joint = ols_estimate(problem).matrix
        for i in range(9):
            row = np.linalg.lstsq(x, y[:, i], rcond=None)[0]
            assert row_objective(x, y[:, i], joint[i]) == pytest.approx(
                row_objective(x, y[:, i], row), abs=1e-10
            )

    def test_error_shrinks_with_data(self):
        tm = laplacian_weights(generate_random_digraph(20, 0.2, 44), 1.0)
        short, long = [], []
        for s in range(20):
            _, m_short = error_metrics(ols_estimate(LsProblem(*noisy_rows(tm, 25, seed=s))).matrix, tm.matrix)
            _, m_long = error_metrics(ols_estimate(LsProblem(*noisy_rows(tm, 50, seed=1000 + s))).matrix, tm.matrix)
            short.append(m_short)
            long.append(m_long)
        assert np.median(long) < np.median(short)

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_upper_inverse_matches_inv(self, n):
        r = np.triu(np.random.default_rng(n).normal(size=(n, n))) + 4.0 * np.eye(n)
        got = _upper_inverse(r)
        assert np.array_equal(np.tril(got, -1), np.zeros((n, n)))
        expected = np.linalg.inv(r)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_upper_inverse_rejects_singular(self):
        r = np.triu(np.ones((6, 6)))
        for k in (0, 4):
            singular = r.copy()
            singular[k, k] = 0.0
            with pytest.raises(np.linalg.LinAlgError):
                _upper_inverse(singular)


class TestConstrained:
    def test_all_free_equals_ols_bitwise(self):
        tm = laplacian_weights(generate_random_digraph(8, 0.3, 5), 1.0)
        problem = LsProblem(*noisy_rows(tm, 15, seed=2))
        assert np.array_equal(constrained_estimate(problem).matrix, ols_estimate(problem).matrix)

    def test_true_pattern_noiseless_exact(self):
        tm = laplacian_weights(generate_random_digraph(7, 0.35, 6), 1.0)
        w = tm.matrix
        constraints = {
            (i, j): (POS if w[i, j] > 0 else ZERO)
            for i in range(7)
            for j in range(7)
        }
        sol = constrained_estimate(LsProblem(*basis_rows(w), constraints))
        assert np.abs(sol.matrix - w).max() <= 1e-10

    def test_constraint_soundness(self):
        tm = laplacian_weights(generate_random_digraph(10, 0.3, 9), 1.0)
        rng = np.random.default_rng(12)
        problem_rows = noisy_rows(tm, 16, seed=3)
        constraints = {}
        for i in range(10):
            for j in range(10):
                r = rng.random()
                if r < 0.15:
                    constraints[(i, j)] = ZERO
                elif r < 0.3:
                    constraints[(i, j)] = POS
        sol = constrained_estimate(LsProblem(*problem_rows, constraints))
        for (i, j), kind in constraints.items():
            if kind is ZERO:
                assert sol.matrix[i, j] == 0.0
            elif kind is POS:
                assert sol.matrix[i, j] >= 0.0

    def test_objective_beats_projected_ols(self):
        tm = laplacian_weights(generate_random_digraph(8, 0.3, 19), 1.0)
        problem_rows = noisy_rows(tm, 14, seed=5)
        constraints = {(i, 2): (POS if tm.matrix[i, 2] > 0 else ZERO) for i in range(8) if i != 2}
        problem = LsProblem(*problem_rows, constraints)
        x, y = problem.regressors, problem.targets
        con = constrained_estimate(problem).matrix
        proj = ols_estimate(problem).matrix.copy()
        for (i, j), kind in constraints.items():
            if kind is ZERO:
                proj[i, j] = 0.0
            elif kind is POS:
                proj[i, j] = max(proj[i, j], 0.0)
        for i in range(8):
            assert row_objective(x, y[:, i], con[i]) <= row_objective(x, y[:, i], proj[i]) + 1e-10

    def test_active_set_matches_enumeration_oracle(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            m, n = 12, 4
            x = rng.normal(size=(m, n))
            y = rng.normal(size=m)
            # None: the entry is left out, so it is unconstrained
            kinds = [rng.choice([None, POS, ZERO], p=[0.4, 0.4, 0.2]) for _ in range(n)]
            constraints = {(0, j): kind for j, kind in enumerate(kinds) if kind is not None}
            targets = np.repeat(y[:, None], n, axis=1)
            sol = constrained_estimate(LsProblem(x, targets, constraints))
            _, best_obj = brute_force_constrained_row(x, y, kinds)
            got_obj = row_objective(x, y, sol.matrix[0])
            assert got_obj <= best_obj + 1e-9

    def test_fully_zeroed_row(self):
        tm = laplacian_weights(generate_random_digraph(5, 0.4, 2), 1.0)
        constraints = {(0, j): ZERO for j in range(5)}
        sol = constrained_estimate(LsProblem(*noisy_rows(tm, 8, seed=1), constraints))
        assert np.array_equal(sol.matrix[0], np.zeros(5))

    def test_dominance_with_correct_constraints(self):
        tm = laplacian_weights(generate_random_digraph(10, 0.3, 23), 1.0)
        w = tm.matrix
        constraints = {
            (i, j): (POS if w[i, j] > 0 else ZERO) for i in range(10) for j in range(10) if i != j
        }
        for seed, sigma in ((1, 0.0), (2, 0.05), (3, 0.05)):
            rows = (
                basis_rows(w)
                if sigma == 0.0
                else noisy_rows(tm, 30, seed=seed, sigma=sigma)
            )
            problem = LsProblem(*rows, constraints)
            err_con = np.linalg.norm(constrained_estimate(problem).matrix - w)
            err_ols = np.linalg.norm(ols_estimate(problem).matrix - w)
            assert err_con <= err_ols + 1e-9


class TestGroupedSolve:
    """Pattern-grouped solves against the per-row oracle."""

    def assert_matches_reference(self, problem):
        got = constrained_estimate(problem).matrix
        assert np.abs(got - per_row_reference(problem)).max() <= 1e-12

    def test_fig1c_shaped(self):
        n = 60
        tm = laplacian_weights(generate_random_digraph(n, 1.6 / n, 102), 1.0)
        w = tm.matrix
        j = int(np.argmax((w > 0).sum(axis=0) - np.diag(w > 0)))
        constraints = {(i, j): (POS if w[i, j] > 0 else ZERO) for i in range(n) if i != j}
        assert sum(kind is POS for kind in constraints.values()) >= 3
        for seed in (1, 2):
            self.assert_matches_reference(LsProblem(*noisy_rows(tm, n + 5, seed=seed), constraints))

    def random_patterns(self, n, seed):
        """Rows drawn from a few shared patterns (two with POS entries), some left free."""
        rng = np.random.default_rng(seed)
        patterns = [
            {2: ZERO, 5: ZERO},
            {1: POS, 7: ZERO},
            {3: POS, 4: POS},
            {6: ZERO},
        ]
        constraints = {}
        for i in range(n):
            k = int(rng.integers(len(patterns) + 1))
            if k < len(patterns):
                constraints.update({(i, j): kind for j, kind in patterns[k].items()})
        return constraints

    def test_shared_random_patterns(self):
        tm = laplacian_weights(generate_random_digraph(12, 0.3, 4), 1.0)
        for seed in range(5):
            constraints = self.random_patterns(12, seed)
            self.assert_matches_reference(LsProblem(*noisy_rows(tm, 30, seed=seed), constraints))

    def test_rank_deficient_design(self):
        tm = laplacian_weights(generate_random_digraph(12, 0.3, 4), 1.0)
        for seed in range(5):
            problem = LsProblem(*noisy_rows(tm, 6, seed=seed), self.random_patterns(12, seed))
            assert constrained_estimate(problem).rank_deficient
            self.assert_matches_reference(problem)

    def test_fully_zeroed_group(self):
        tm = laplacian_weights(generate_random_digraph(8, 0.3, 2), 1.0)
        constraints = {(i, j): ZERO for i in (1, 4, 6) for j in range(8)}
        constraints.update({(i, 3): ZERO for i in (0, 2)})
        problem = LsProblem(*noisy_rows(tm, 20, seed=3), constraints)
        got = constrained_estimate(problem).matrix
        assert np.array_equal(got[[1, 4, 6]], np.zeros((3, 8)))
        self.assert_matches_reference(problem)

    def test_insertion_order_bitwise(self):
        tm = laplacian_weights(generate_random_digraph(12, 0.3, 4), 1.0)
        constraints = self.random_patterns(12, 9)
        items = list(constraints.items())
        random.Random(3).shuffle(items)
        rows = noisy_rows(tm, 30, seed=9)
        ordered = constrained_estimate(LsProblem(*rows, constraints)).matrix
        shuffled = constrained_estimate(LsProblem(*rows, dict(items))).matrix
        assert np.array_equal(ordered, shuffled)


class TestZeroOnlyDowndate:
    """Zero-only patterns against a multi-right-hand-side solve of the reduced design."""

    def reference(self, problem, zero, rows):
        x, y = problem.regressors, problem.targets
        keep = np.delete(np.arange(problem.n), zero)
        return keep, np.linalg.lstsq(x[:, keep], y, rcond=None)[0][:, rows].T

    def check(self, problem, zero, rows):
        got = constrained_estimate(problem).matrix
        keep, ref = self.reference(problem, zero, rows)
        assert np.array_equal(got[np.ix_(rows, zero)], np.zeros((len(rows), len(zero))))
        return got[np.ix_(rows, keep)], ref

    def test_fig1c_shaped_n300(self):
        n = 300
        tm = laplacian_weights(generate_random_digraph(n, 1.6 / n, 7), 1.0)
        j = 11
        rows = [i for i in range(n) if i != j]
        problem = LsProblem(*noisy_rows(tm, n + 5, seed=1), {(i, j): ZERO for i in rows})
        assert not ols_estimate(problem).rank_deficient
        got, ref = self.check(problem, [j], rows)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_several_zero_columns(self):
        tm = laplacian_weights(generate_random_digraph(40, 0.1, 3), 1.0)
        zero = [2, 9, 17, 30]
        rows = [0, 5, 9, 21, 39]
        constraints = {(i, j): ZERO for i in rows for j in zero}
        problem = LsProblem(*noisy_rows(tm, 60, seed=2), constraints)
        assert not ols_estimate(problem).rank_deficient
        got, ref = self.check(problem, zero, rows)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_rank_deficient_keeps_lstsq_bits(self):
        tm = laplacian_weights(generate_random_digraph(30, 0.1, 5), 1.0)
        zero = [3, 8]
        rows = [i for i in range(30) if i not in zero]
        problem = LsProblem(*noisy_rows(tm, 20, seed=4), {(i, j): ZERO for i in rows for j in zero})
        assert ols_estimate(problem).rank_deficient
        got, ref = self.check(problem, zero, rows)
        assert np.array_equal(got, ref)

    def assert_keeps_lstsq_bits(self, x, y, zero):
        rows = [i for i in range(x.shape[1]) if i not in zero]
        problem = LsProblem(x, y, {(i, j): ZERO for i in rows for j in zero})
        sol, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
        plain = ols_estimate(problem)
        assert (plain.rank, plain.rank_deficient) == (rank, rank < problem.n)
        assert np.array_equal(plain.matrix, sol.T)
        got, ref = self.check(problem, zero, rows)
        assert np.array_equal(got, ref)

    def test_duplicated_column_keeps_lstsq_bits(self):
        # T >= n but rank n - 1; R's last pivot is rounding noise, not zero,
        # so only the condition bound keeps this design off the QR path
        tm = laplacian_weights(generate_random_digraph(30, 0.1, 5), 1.0)
        x, y = noisy_rows(tm, 40, seed=2)
        x = x.copy()
        x[:, 3] = x[:, 7]
        self.assert_keeps_lstsq_bits(x, y, [5, 11])

    @pytest.mark.parametrize(
        "n, scale, lstsq_rank",
        [
            # full rank, but lstsq's cutoff drops the scaled column
            (300, 1e-12, 299),
            # full rank by lstsq's cutoff too, yet outside the bound
            (60, 3e-13, 60),
        ],
    )
    def test_scaled_column_keeps_lstsq_bits(self, n, scale, lstsq_rank):
        tm = laplacian_weights(generate_random_digraph(n, 1.6 / n, 7), 1.0)
        x, y = noisy_rows(tm, n + 5, seed=1)
        x = x.copy()
        x[:, 3] *= scale
        assert np.linalg.matrix_rank(x, tol=0.0) == n
        assert np.linalg.lstsq(x, y, rcond=None)[2] == lstsq_rank
        self.assert_keeps_lstsq_bits(x, y, [11])


class TestSharedPlainSolve:
    """OLS and constrained LS on one problem share a single plain solve."""

    def problem(self):
        tm = laplacian_weights(generate_random_digraph(12, 0.3, 4), 1.0)
        constraints = TestGroupedSolve().random_patterns(12, 2)
        return LsProblem(*noisy_rows(tm, 30, seed=5), constraints)

    def test_constrained_first_keeps_ols_bits(self):
        # the plain solve is inv(R) (Q^T Y) whichever estimator runs first
        problem = self.problem()
        constrained_estimate(problem)
        ols = ols_estimate(problem)
        fresh = ols_estimate(LsProblem(problem.regressors, problem.targets, problem.constraints))
        assert np.array_equal(ols.matrix, fresh.matrix)
        assert ols.matrix.strides == fresh.matrix.strides
        x, y = problem.regressors, problem.targets
        q, r = np.linalg.qr(x)
        assert np.array_equal(ols.matrix, (_upper_inverse(r) @ (q.T @ y)).T)
        assert (ols.rank, ols.rank_deficient) == (problem.n, False)
        reference = np.linalg.lstsq(x, y, rcond=None)[0].T
        assert ols.matrix.strides == reference.strides
        assert np.abs(ols.matrix - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_constrained_copy_is_private(self):
        problem = self.problem()
        ols = ols_estimate(problem)
        before = ols.matrix.copy()
        constrained = constrained_estimate(problem)
        assert constrained.matrix.flags.writeable
        assert constrained.matrix.strides == ols.matrix.strides
        constrained.matrix[:] = 7.0
        assert np.array_equal(ols.matrix, before)
        assert ols_estimate(problem) is ols
        assert not ols.matrix.flags.writeable
        with pytest.raises(ValueError):
            ols.matrix[0, 0] = 1.0


class TestErrorMetrics:
    def test_perfect_estimate(self):
        w = np.array([[0.0, 1.0], [0.5, 0.5]])
        assert error_metrics(w, w) == (0.0, 0.0)

    def test_zero_estimate(self):
        w = np.array([[0.0, 1.0], [0.5, 0.5]])
        structure, magnitude = error_metrics(np.zeros((2, 2)), w)
        assert magnitude == 1.0
        assert structure == 3 / 4

    def test_single_entry_flip(self):
        w = np.zeros((5, 5))
        w[0, 1] = 1.0
        est = w.copy()
        est[3, 3] = 2e-6  # just above the default sign tolerance
        assert error_metrics(est, w)[0] == pytest.approx(1 / 25)

    def test_structure_error_matches_float_sign_oracle(self):
        def float_sign(m):
            s = np.sign(m)
            s[np.abs(m) <= 1e-6] = 0.0
            return s

        rng = np.random.default_rng(5)
        edge = np.array([0.0, -0.0, 1e-6, -1e-6, np.nextafter(1e-6, 1), np.nextafter(-1e-6, -1), 0.5, -0.5])
        for _ in range(20):
            est = rng.choice(edge, size=(9, 9)) * rng.choice([1.0, 3e-6, 1e-7], size=(9, 9))
            tru = rng.choice(edge, size=(9, 9))
            tru[0, 0] = 1.0
            expected = (float_sign(est) != float_sign(tru)).sum() / est.size
            assert error_metrics(est, tru)[0] == expected

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            error_metrics(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            error_metrics(np.zeros((2, 2)), np.zeros((3, 3)))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                error_metrics(np.array([[0.0, bad], [0.5, 0.5]]), np.eye(2))
            with pytest.raises(ValueError, match="finite"):
                error_metrics(np.eye(2), np.array([[0.0, bad], [0.5, 0.5]]))


class TestConstraintPlumbing:
    def test_constraints_from_decision(self):
        decision = infer_one_hop(
            np.zeros(4), np.array([0.0, 5.0, 0.1, 5.0]), 0, 4.0, 0.5,
            StabilityClass.MARGINALLY_STABLE,
        )
        constraints = constraints_from_decision(decision)
        assert constraints[(1, 0)] is POS
        assert constraints[(3, 0)] is POS
        assert constraints[(2, 0)] is ZERO
        assert (0, 0) not in constraints

    def test_file_round_trip(self, tmp_path):
        constraints = {(0, 1): POS, (2, 1): ZERO}
        path = tmp_path / "cons.txt"
        save_constraints(path, constraints)
        assert path.read_text() == "0 1 pos\n2 1 zero\n"

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            LsProblem(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            LsProblem(np.zeros((1, 3)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            LsProblem(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            LsProblem(np.zeros((1, 3)), np.zeros((1, 3)), {(5, 0): ZERO})
        for kind in ("zero", None):
            with pytest.raises(ValueError, match=r"\(1, 0\)"):
                LsProblem(np.zeros((1, 3)), np.zeros((1, 3)), {(0, 0): ZERO, (1, 0): kind})
        for bad in (np.nan, np.inf, -np.inf):
            finite, broken = np.ones((4, 3)), np.ones((4, 3))
            broken[2, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                LsProblem(broken, finite)
            with pytest.raises(ValueError, match="finite"):
                LsProblem(finite, broken)
