"""Dense matrix decision kernels: semidefinite ordering, principal square
root, spectral radius and minimum-norm least squares.

All decisions are deterministic for fixed inputs and tolerances, and all
functions are pure, so they are safe to call concurrently.  Tolerances are
relative: a quantity of size eps is compared against tol * (1 + scale of the
operands), which keeps the tests meaningful both for O(1e-10) residuals and
for O(10) certificate matrices.

The ``*_batch`` kernels take (k, n, n) stacks and make one stacked numpy
call per operand, whatever k.  numpy runs the same LAPACK routine on every
matrix of a stack, so each result equals the per-matrix kernel's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, IndefiniteMatrixError

# Above this dimension the spectral radius switches from dense eigenvalues
# to power iteration.
DENSE_EIG_LIMIT = 64


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical tolerances used by every decision kernel.

    psd_tol   relative slack allowed on semidefiniteness decisions
    eig_tol   relative accuracy target for iterative/residual checks
    iter_max  iteration budget for power iteration and fixed points
    """

    psd_tol: float = 1e-8
    eig_tol: float = 1e-8
    iter_max: int = 10_000

    def __post_init__(self):
        if not (0.0 <= self.psd_tol <= 1e-2):
            raise ValueError(f"psd_tol must lie in [0, 1e-2], got {self.psd_tol}")
        if not (0.0 <= self.eig_tol <= 1e-2):
            raise ValueError(f"eig_tol must lie in [0, 1e-2], got {self.eig_tol}")
        if self.iter_max < 1:
            raise ValueError(f"iter_max must be positive, got {self.iter_max}")


DEFAULT_TOL = ToleranceProfile()


class SymMatrix:
    """A real symmetric matrix, symmetrized by averaging on construction.

    The wrapped array is read-only; ``entries`` is the ndarray view.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(
                f"symmetric matrix must be square, got shape {a.shape}",
                shape=tuple(a.shape),
            )
        if a.shape[0] < 1:
            raise DimensionMismatchError("symmetric matrix must have dim >= 1")
        a = 0.5 * (a + a.T)
        a.flags.writeable = False
        self.entries = a

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    def __repr__(self):
        return f"SymMatrix({self.entries!r})"


def _as_sym(a) -> np.ndarray:
    """Coerce a SymMatrix or array-like to a symmetric ndarray."""
    if isinstance(a, SymMatrix):
        return a.entries
    return SymMatrix(a).entries


def _eig_scale(a: np.ndarray) -> float:
    """Largest-magnitude eigenvalue of a symmetric matrix."""
    return float(np.abs(np.linalg.eigvalsh(a)).max()) if a.size else 0.0


def psd_order(a, b, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Decide the semidefinite ordering a <= b (Loewner order).

    True iff lambda_min(b - a) >= -psd_tol * (1 + max(||a||, ||b||)), with
    ||.|| the largest-magnitude eigenvalue.
    """
    a = _as_sym(a)
    b = _as_sym(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"psd_order operands must share a dimension, got {a.shape[0]} and {b.shape[0]}",
            dim_a=a.shape[0],
            dim_b=b.shape[0],
        )
    scale = 1.0 + max(_eig_scale(a), _eig_scale(b))
    lam_min = float(np.linalg.eigvalsh(b - a).min())
    return lam_min >= -tol.psd_tol * scale


def psd_margin(a, b) -> float:
    """lambda_min(b - a); positive when a is strictly below b."""
    a = _as_sym(a)
    b = _as_sym(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"psd_margin operands must share a dimension, got {a.shape[0]} and {b.shape[0]}",
            dim_a=a.shape[0],
            dim_b=b.shape[0],
        )
    return float(np.linalg.eigvalsh(b - a).min())


def psd_margin_batch(a, b) -> tuple[np.ndarray, np.ndarray]:
    """psd_margin and psd_order's scale over stacks of symmetric matrices.

    For (k, n, n) stacks returns lambda_min(b_i - a_i) and
    1 + max(||a_i||, ||b_i||), so psd_order(a_i, b_i, tol) is
    ``lam_min[i] >= -tol.psd_tol * scale[i]``.  Three stacked eigvalsh calls.
    """
    scale = 1.0 + np.maximum(_eig_scale_batch(a), _eig_scale_batch(b))
    return np.linalg.eigvalsh(b - a).min(axis=-1), scale


def _eig_scale_batch(a: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(a)).max(axis=-1)


def principal_sqrt(a, tol: ToleranceProfile = DEFAULT_TOL) -> SymMatrix:
    """Principal square root of a positive semidefinite symmetric matrix.

    Eigenvalues within -psd_tol * (1 + ||a||) of zero are clamped to zero;
    anything more negative raises IndefiniteMatrixError carrying lambda_min.
    """
    return SymMatrix(principal_sqrt_batch(_as_sym(a)[None], tol)[0])


def principal_sqrt_batch(a, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """principal_sqrt over a (k, n, n) stack of symmetric matrices, with one
    stacked eigh; raises for the first matrix of the stack that is
    indefinite beyond tolerance.  Returns the (k, n, n) symmetric roots.
    """
    w, v = np.linalg.eigh(a)
    scale = 1.0 + np.abs(w).max(axis=-1)
    lam_min = w.min(axis=-1)
    bad = np.flatnonzero(lam_min < -tol.psd_tol * scale)
    if bad.size:
        worst = float(lam_min[bad[0]])
        raise IndefiniteMatrixError(
            f"matrix is indefinite beyond tolerance (lambda_min = {worst:.3e})",
            lambda_min=worst,
        )
    s = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (s + np.swapaxes(s, -1, -2))


def operator_norm(a) -> float:
    """Induced 2-norm (largest singular value)."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def operator_norm_batch(a) -> np.ndarray:
    """operator_norm of each matrix of a (k, r, c) stack: one stacked svd."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False).max(axis=-1)


def spectral_radius(a, tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Spectral radius of an entrywise-nonnegative square matrix.

    Dense eigenvalues up to dimension DENSE_EIG_LIMIT, deterministic power
    iteration (all-ones start) above; both paths are exposed separately for
    cross-checking.
    """
    a = _check_nonnegative(a)
    if a.shape[0] <= DENSE_EIG_LIMIT:
        return spectral_radius_dense(a)
    return spectral_radius_power(a, tol)


def spectral_radius_dense(a) -> float:
    a = _check_nonnegative(a)
    if a.shape[0] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(a)).max())


def spectral_radius_power(a, tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Power iteration with all-ones start vector.

    Converges when successive Rayleigh estimates differ by less than
    eig_tol on two consecutive checks (a single small difference can be a
    transient plateau when subdominant eigenvalues are complex).  The
    all-ones start is deterministic, nonnegative and guaranteed to overlap
    the dominant direction of a nonnegative matrix; a zero iterate means
    the reachable part of the cone was annihilated, which pins the radius
    seen from it at zero.
    """
    a = _check_nonnegative(a)
    n = a.shape[0]
    if n == 0:
        return 0.0
    v = np.ones(n)
    estimate = None
    settled = 0
    for _ in range(tol.iter_max):
        w = a @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        new_estimate = float(v @ w / (v @ v))
        v = w / norm_w
        if estimate is not None and abs(new_estimate - estimate) < tol.eig_tol:
            settled += 1
            if settled >= 2:
                return new_estimate
        else:
            settled = 0
        estimate = new_estimate
    raise ConvergenceError(
        f"power iteration did not converge within {tol.iter_max} iterations "
        f"(last estimate {estimate:.6e})",
        last_estimate=estimate,
        iter_max=tol.iter_max,
    )


def _check_nonnegative(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"spectral radius needs a square matrix, got shape {a.shape}",
            shape=tuple(a.shape),
        )
    if a.size and float(a.min()) < 0.0:
        raise ValueError("spectral radius is only defined here for nonnegative matrices")
    return a


def solve_linear_least_squares(a, b, tol: ToleranceProfile = DEFAULT_TOL):
    """Minimum-norm least-squares solution X of a @ X ~= b.

    Returns (X, residual) with residual the Frobenius norm of a @ X - b as
    actually achieved.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("least squares expects 2-d operands")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"row counts differ: {a.shape[0]} vs {b.shape[0]}",
            rows_a=a.shape[0],
            rows_b=b.shape[0],
        )
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual
