"""Matrix decision kernels: semidefinite ordering, principal square root,
a certified spectral-radius bracket for sparse nonnegative matrices, and
minimum-norm least squares.

All decisions are deterministic for fixed inputs and tolerances, and all
functions are pure, so they are safe to call concurrently.  Tolerances are
relative: a quantity of size eps is compared against tol * (1 + scale of the
operands), which keeps the tests meaningful both for O(1e-10) residuals and
for O(10) certificate matrices.

``radius_bracket`` works on an edge list and never forms the dense matrix;
``spectral_radius_dense`` (dense eigenvalues) is kept as its reference.

Each semidefinite decision, square root and operator norm has one kernel,
``*_batch``: it takes a (k, n, n) stack and makes one stacked numpy call per
operand, whatever k.  numpy runs the same LAPACK routine on every matrix of
a stack, so a stack of one gives the single-matrix result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, IndefiniteMatrixError

@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical tolerances used by every decision kernel.

    psd_tol   relative slack allowed on semidefiniteness decisions
    eig_tol   relative width of the spectral-radius bracket: it is tightened
              until hi - lo <= eig_tol * hi; also the residual target of the
              structural checks
    iter_max  iteration budget of the radius bracket (a bracket that still
              straddles its decision threshold then raises) and of the
              certificate-matrix fixed point
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


def psd_margin_batch(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Semidefinite margins over (k, n, n) stacks of symmetric matrices.

    Returns lambda_min(b_i - a_i) and the scale 1 + max(||a_i||, ||b_i||),
    with ||.|| the largest-magnitude eigenvalue; a_i <= b_i in the Loewner
    order is decided as ``lam_min[i] >= -tol.psd_tol * scale[i]``.  Three
    stacked eigvalsh calls.
    """
    scale = 1.0 + np.maximum(*(np.abs(np.linalg.eigvalsh(m)).max(axis=-1) for m in (a, b)))
    return np.linalg.eigvalsh(b - a).min(axis=-1), scale


def principal_sqrt_batch(a, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Principal square roots of a (k, n, n) stack of positive semidefinite
    symmetric matrices, with one stacked eigh.  Eigenvalues within
    -psd_tol * (1 + ||a_i||) of zero are clamped to zero; the first matrix
    more indefinite raises IndefiniteMatrixError carrying its lambda_min.
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


def operator_norm_batch(a) -> np.ndarray:
    """Induced 2-norm (largest singular value) of each matrix of a (k, r, c)
    stack, 0 for empty matrices: one stacked svd."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False).max(axis=-1)


def spectral_radius_dense(a) -> float:
    """Spectral radius of a dense entrywise-nonnegative square matrix by its
    eigenvalues; the reference the sparse ``radius_bracket`` is tested
    against."""
    a = _check_nonnegative(a)
    if a.shape[0] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(a)).max())


@dataclass(frozen=True)
class EdgePattern:
    """Sparsity pattern of an n x n nonnegative matrix given by its entries
    (rows[k], cols[k]), split into strongly connected components.

    The radius of the matrix is the largest radius of its diagonal blocks,
    one per component, so only the entries inside a component are kept:
    ``inner`` indexes them in the given entry list, and ``rows``/``cols``
    are their positions in ``order``, which lists the nodes component by
    component; component c occupies positions starts[c] : starts[c] + sizes[c].
    """

    n: int
    inner: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


def edge_pattern(rows, cols, n: int) -> EdgePattern:
    """The EdgePattern of the n x n matrix with entries at (rows[k], cols[k])."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    label = _scc_labels(rows, cols, n)
    order = np.argsort(label, kind="stable")
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    inner = np.flatnonzero(label[rows] == label[cols])
    sizes = np.bincount(label, minlength=int(label.max(initial=-1)) + 1)
    starts = np.cumsum(sizes) - sizes
    return EdgePattern(
        n, inner, position[rows[inner]], position[cols[inner]], order, starts, sizes
    )


def _scc_labels(rows, cols, n: int) -> np.ndarray:
    """Strongly connected component of each node of the graph with an edge
    i -> j per entry (i, j): iterative Tarjan, O(n + entries)."""
    by_row = np.argsort(rows, kind="stable")
    succ = cols[by_row].tolist()
    ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))).tolist()
    index = [-1] * n
    low = [0] * n
    label = [-1] * n
    stack = []
    counter = components = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [[root, ptr[root]]]
        while work:
            frame = work[-1]
            v, k = frame
            if k < ptr[v + 1]:
                frame[1] = k + 1
                w = succ[k]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append([w, ptr[w]])
                elif label[w] < 0:  # on the stack
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    label[w] = components
                    if w == v:
                        break
                components += 1
    return np.array(label, dtype=np.intp)


@dataclass(frozen=True)
class RadiusBracket:
    """lo <= rho(A) <= hi, certified by the positive vector v: on each
    component C, min (A_C v)_i / v_i <= rho(A_C) <= max (A_C v)_i / v_i.
    ``iterations`` counts the products with A it took."""

    lo: float
    hi: float
    v: np.ndarray
    iterations: int


def radius_bracket(
    pattern: EdgePattern,
    vals,
    tol: ToleranceProfile = DEFAULT_TOL,
    *,
    threshold: float | None = None,
    early_exit: bool = False,
    v0=None,
) -> RadiusBracket:
    """Collatz-Wielandt bracket on the spectral radius of the nonnegative
    matrix with entries ``vals`` (positive, aligned with the entries the
    pattern was built from).

    Iterates v <- (A_C / hi_C + I) v, with hi_C the component's current
    upper bound, on every strongly connected component C at once, from
    ``v0`` (a positive vector, e.g. the ``v`` of an earlier call on the same
    pattern) or all ones.  A_C / hi_C + I is primitive, so the bracket
    closes on periodic and bipartite graphs too, and scaling by hi_C makes
    the rate independent of the radius's size; rho(A) is the largest
    rho(A_C), so lo and hi are the largest per-component bounds.

    Iterates until hi - lo <= eig_tol * hi and, when a threshold is
    given, the bracket decides it (hi < threshold or lo >= threshold); with
    ``early_exit`` either one ends the iteration.  If iter_max runs out
    first, a bracket that decides the threshold is returned; otherwise
    ConvergenceError carries lo and hi.
    """
    n = pattern.n
    if n == 0:
        return RadiusBracket(0.0, 0.0, np.ones(0), 0)
    vals = np.asarray(vals, dtype=float)[pattern.inner]
    rows, cols, starts, sizes = pattern.rows, pattern.cols, pattern.starts, pattern.sizes
    v = np.ones(n) if v0 is None else np.asarray(v0, dtype=float)[pattern.order]
    for iteration in range(1, tol.iter_max + 1):
        av = np.bincount(rows, vals * v[cols], minlength=n)
        ratio = av / v
        hi_c = np.maximum.reduceat(ratio, starts)
        lo = float(np.minimum.reduceat(ratio, starts).max())
        hi = float(hi_c.max())
        narrow = hi - lo <= tol.eig_tol * hi
        decided = threshold is not None and (hi < threshold or lo >= threshold)
        settled = narrow and (decided or threshold is None)
        if settled or (early_exit and (narrow or decided)):
            break
        if iteration == tol.iter_max:
            if decided:
                break
            raise ConvergenceError(
                f"radius bracket [{lo:.9e}, {hi:.9e}] neither closed nor decided "
                f"{threshold} within {tol.iter_max} iterations",
                lo=lo, hi=hi, threshold=threshold, iter_max=tol.iter_max,
            )
        # (A_C + hi_C I) v, a multiple of (A_C / hi_C + I) v; a component
        # whose ratios are all zero has hi_C = 0 and keeps its vector
        w = av + np.repeat(np.where(hi_c > 0.0, hi_c, 1.0), sizes) * v
        v = w / np.repeat(np.maximum.reduceat(w, starts), sizes)
    out = np.empty(n)
    out[pattern.order] = v
    return RadiusBracket(lo, hi, out, iteration)


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
