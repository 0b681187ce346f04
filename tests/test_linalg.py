"""Matrix kernel tests: frozen examples plus seeded property checks."""

import numpy as np
import pytest

from simnet import (
    DEFAULT_TOL,
    ConvergenceError,
    DimensionMismatchError,
    IndefiniteMatrixError,
    SymMatrix,
    ToleranceProfile,
    edge_pattern,
    principal_sqrt_batch,
    psd_margin_batch,
    radius_bracket,
    solve_linear_least_squares,
    spectral_radius_dense,
)

# the swing-benchmark certificate matrix, used as a frozen operand
M_BENCH = np.array([[11.20, 12.50], [12.50, 17.83]])
# eig_tol bounds the bracket width relative to hi; random dense
# matrices here have radii up to about 40, so an absolute 1e-8 agreement
# with the eigenvalue reference needs a tighter width than the default
TIGHT = ToleranceProfile(eig_tol=1e-11)


def loewner_le(a, b, tol=DEFAULT_TOL):
    """a <= b in the Loewner order, decided by psd_margin_batch on stacks
    of one."""
    lam_min, scale = psd_margin_batch(np.asarray(a)[None], np.asarray(b)[None])
    return lam_min[0] >= -tol.psd_tol * scale[0]


def sqrt_of(a):
    return principal_sqrt_batch(np.asarray(a, dtype=float)[None])[0]


def bracket(mat, tol=TIGHT, **kwargs):
    """radius_bracket on the positive entries of a dense matrix."""
    rows, cols = np.nonzero(mat)
    return radius_bracket(edge_pattern(rows, cols, mat.shape[0]), mat[rows, cols], tol, **kwargs)


class TestPsdOrder:
    def test_zero_below_identity(self):
        assert loewner_le(np.zeros((2, 2)), np.eye(2))

    def test_identity_below_benchmark_matrix(self):
        # C stacks [0 1] and [1 0], so C'C is the identity
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert loewner_le(c.T @ c, M_BENCH)

    def test_diag_two_not_below_identity(self):
        assert not loewner_le(np.diag([2.0, 0.0]), np.eye(2))

    def test_dimension_mismatch_names_both_dims(self):
        with pytest.raises(ValueError, match=r"\(1,3,3\) \(1,2,2\)"):
            loewner_le(np.eye(2), np.eye(3))

    def test_not_antisymmetric_strictness(self):
        # borderline equality counts as ordered (relative tolerance)
        assert loewner_le(np.eye(2), np.eye(2))

    @pytest.mark.parametrize("seed", range(8))
    def test_transitivity_with_summed_tolerances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        base = rng.standard_normal((n, n))
        a = SymMatrix(base @ base.T)
        inc1 = rng.standard_normal((n, n))
        inc2 = rng.standard_normal((n, n))
        b = SymMatrix(a.entries + inc1 @ inc1.T)
        c = SymMatrix(b.entries + inc2 @ inc2.T)
        assert loewner_le(a, b) and loewner_le(b, c)
        doubled = ToleranceProfile(psd_tol=2e-8, eig_tol=1e-8)
        assert loewner_le(a, c, doubled)


class TestPrincipalSqrt:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_of(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        s = sqrt_of(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(s, np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction(self, seed):
        # oracle: S @ S must reproduce the input within 1e-10 relative
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        x = rng.standard_normal((n, n))
        a = x @ x.T
        s = sqrt_of(a)
        assert np.abs(s @ s - a).max() <= 1e-10 * (1.0 + np.abs(a).max())

    @pytest.mark.parametrize("seed", range(8))
    def test_idempotence(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((4, 4))
        s = sqrt_of(x @ x.T)
        again = sqrt_of(s @ s)
        assert np.abs(again - s).max() <= 1e-8 * (1.0 + np.abs(s).max())

    def test_output_symmetric_psd(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 5))
        s = sqrt_of(x @ x.T)
        assert np.array_equal(s, s.T)
        assert np.linalg.eigvalsh(s).min() >= -1e-12

    def test_indefinite_reports_lambda_min(self):
        with pytest.raises(IndefiniteMatrixError) as err:
            sqrt_of(np.diag([1.0, -0.5]))
        assert err.value.details["lambda_min"] == pytest.approx(-0.5)

    def test_small_negative_eigenvalue_clamped(self):
        s = sqrt_of(np.diag([1.0, -1e-12]))
        np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-9)

    def test_stack_raises_for_first_indefinite(self):
        stack = np.array([np.eye(2), np.diag([1.0, -0.25]), np.diag([1.0, -0.5])])
        with pytest.raises(IndefiniteMatrixError) as err:
            principal_sqrt_batch(stack)
        assert err.value.details["lambda_min"] == -0.25


class TestSpectralRadius:
    def test_nilpotent(self):
        assert spectral_radius_dense(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_antidiagonal_closed_form(self):
        # sqrt(a b) for the two-cycle with weights a, b
        a, b = 0.4, 0.9
        r = spectral_radius_dense(np.array([[0.0, a], [b, 0.0]]))
        assert r == pytest.approx(np.sqrt(a * b), abs=1e-12)
        assert r == pytest.approx(0.6, abs=1e-12)

    def test_uniform_ring_below_column_sum_bound(self):
        # normalized ring gains at the reported benchmark level
        psi = 0.1455 / 0.2
        n = 12
        mat = np.zeros((n, n))
        for i in range(n):
            mat[i, (i - 1) % n] = psi
        r = spectral_radius_dense(mat)
        assert r < 1.0
        assert r <= mat.sum(axis=0).max() + 1e-9
        assert r == pytest.approx(0.7275, abs=1e-9)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius_dense(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_straddling_bracket_raises_with_bounds(self):
        rng = np.random.default_rng(3)
        mat = rng.uniform(0.0, 1.0, (40, 40))
        dense = spectral_radius_dense(mat)
        short = ToleranceProfile(eig_tol=1e-10, iter_max=2)
        with pytest.raises(ConvergenceError) as err:
            bracket(mat, short, threshold=dense)
        assert err.value.details["lo"] <= dense <= err.value.details["hi"]

    @pytest.mark.parametrize("seed", range(10))
    def test_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        mat = rng.uniform(0.0, 1.0, (n, n))
        alpha = float(rng.uniform(0.1, 10.0))
        r1 = spectral_radius_dense(alpha * mat)
        r2 = alpha * spectral_radius_dense(mat)
        assert abs(r1 - r2) <= 1e-10 * max(1.0, r2)

    def test_homogeneity_bracket(self):
        rng = np.random.default_rng(11)
        mat = rng.uniform(0.0, 1.0, (80, 80))
        r1 = bracket(3.0 * mat).hi
        r2 = 3.0 * bracket(mat).hi
        assert abs(r1 - r2) <= 1e-10 * max(1.0, r2)

    @pytest.mark.parametrize("seed", range(10))
    def test_column_sum_bound(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 20))
        mat = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
        assert spectral_radius_dense(mat) <= mat.sum(axis=0).max() + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_and_power_agree(self, seed):
        """The iterative path (now the radius bracket, which replaced power
        iteration) against dense eigenvalues."""
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 64))
        mat = rng.uniform(0.0, 1.0, (n, n))
        dense = spectral_radius_dense(mat)
        b = bracket(mat)
        assert abs(dense - b.hi) <= 1e-8
        assert b.lo <= dense


class TestRadiusBracket:
    def test_components_of_a_reducible_pattern(self):
        # 0 -> 1 -> 2 -> 0 is a cycle, 3 hangs off it, 4 is isolated
        rows, cols = np.array([1, 2, 0, 3]), np.array([0, 1, 2, 2])
        pattern = edge_pattern(rows, cols, 5)
        groups = np.split(pattern.order, pattern.starts[1:])
        assert sorted(sorted(g.tolist()) for g in groups) == [[0, 1, 2], [3], [4]]
        # only the cycle's entries lie inside a component
        np.testing.assert_array_equal(np.sort(pattern.inner), [0, 1, 2])

    @pytest.mark.parametrize("seed", range(5))
    def test_components_match_mutual_reachability(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = 40
        adj = rng.random((n, n)) < 0.04
        reach = adj | np.eye(n, dtype=bool)
        for k in range(n):  # transitive closure, Warshall
            reach |= reach[:, [k]] & reach[[k], :]
        rows, cols = np.nonzero(adj)
        pattern = edge_pattern(rows, cols, n)
        label = np.empty(n, dtype=int)
        for c, (start, size) in enumerate(zip(pattern.starts, pattern.sizes)):
            label[pattern.order[start:start + size]] = c
        np.testing.assert_array_equal(label[:, None] == label[None, :], reach & reach.T)
        mat = adj * rng.uniform(0.5, 1.5, (n, n))
        b = bracket(mat)
        dense = spectral_radius_dense(mat)
        # 1e-12: the eigenvalue reference's own rounding, where the bracket is exact
        assert b.lo - 1e-12 <= dense <= b.hi + 1e-12

    def test_periodic_ring_closes(self):
        # a one-way 6-cycle: eigenvalues r * exp(2 pi i k / 6), all of modulus r
        mat = np.zeros((6, 6))
        gains = np.array([0.5, 2.0, 0.8, 1.5, 0.3, 1.1])
        mat[np.arange(6), (np.arange(6) - 1) % 6] = gains
        b = bracket(mat)
        assert b.lo <= np.prod(gains) ** (1 / 6) <= b.hi
        assert b.hi - b.lo <= 1e-11 * b.hi

    def test_warm_start_from_own_vector(self):
        rng = np.random.default_rng(4)
        mat = rng.uniform(0.0, 1.0, (30, 30)) * (rng.random((30, 30)) < 0.2)
        first = bracket(mat)
        rows, cols = np.nonzero(mat)
        again = radius_bracket(edge_pattern(rows, cols, 30), mat[rows, cols], TIGHT, v0=first.v)
        assert again.iterations == 1
        assert first.lo <= again.lo <= again.hi <= first.hi

    def test_early_exit_stops_once_decided(self):
        rng = np.random.default_rng(5)
        mat = rng.uniform(0.0, 1.0, (30, 30))
        dense = spectral_radius_dense(mat)
        quick = bracket(mat, threshold=2.0 * dense, early_exit=True)
        assert quick.hi < 2.0 * dense
        assert quick.iterations < bracket(mat).iterations


class TestLeastSquares:
    def test_identity_system(self):
        x, res = solve_linear_least_squares(np.eye(2), M_BENCH)
        np.testing.assert_allclose(x, M_BENCH)
        assert res == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_target(self):
        x, res = solve_linear_least_squares(
            np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
        )
        assert x == pytest.approx(np.zeros((1, 1)))
        assert res == pytest.approx(1.0)

    def test_swing_structural_column(self):
        # B = [0; 1/m]; the target P Ahat - A P lies in range(B) up to the
        # closed form's own quadratic defect, and X recovers the coupling gain
        m, d, l = 1e5, 1.0, 4e3
        a = np.array([[1.0, 1.0], [-l / m, 1.0 - d / m]])
        b = np.array([[0.0], [1.0 / m]])
        c = 1.0 - d / (2.0 * m)
        p = np.array([[1.0], [c - 1.0]])
        target = p @ np.array([[c]]) - a @ p
        x, res = solve_linear_least_squares(b, target)
        assert res <= 1e-12
        assert abs(float(x[0, 0]) - l) <= 1e-5

    def test_minimum_norm_for_wide_system(self):
        a = np.array([[1.0, 1.0]])
        x, res = solve_linear_least_squares(a, np.array([[2.0]]))
        assert res == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(x, np.array([[1.0], [1.0]]))  # minimum norm


class TestSymMatrix:
    def test_symmetrized_on_construction(self):
        s = SymMatrix([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(s.entries, [[1.0, 1.0], [1.0, 1.0]])
        assert s.entries[0, 1] == s.entries[1, 0]

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            SymMatrix(np.ones((2, 3)))

    def test_read_only(self):
        s = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            s.entries[0, 0] = 5.0
