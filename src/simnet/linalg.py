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
``resolvent_solve`` solves (I - A') x = 1 on the same edge list by a
Perron-deflated Neumann iteration; its dense solve is only a fallback.

Each semidefinite decision, square root and operator norm has one kernel,
``*_batch``: it takes a (k, n, n) stack and makes one stacked numpy call,
whatever k.  numpy runs the same LAPACK routine on every matrix of
a stack, so a stack of one gives the single-matrix result bit for bit.
"""

from __future__ import annotations

import math
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
              straddles its decision threshold then raises)
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


def symmetrized(a: np.ndarray) -> np.ndarray:
    """(a + a') / 2 over the last two axes, as 0.5 a + 0.5 a' so that no
    finite entry overflows; equal to the plain average bit for bit while the
    entries are finite, below overflow and outside the subnormal range."""
    return 0.5 * a + 0.5 * np.swapaxes(a, -1, -2)


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
        a = symmetrized(a)
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
    order is decided as ``lam_min[i] >= -tol.psd_tol * scale[i]``.  One
    stacked eigvalsh over a, b and b - a; a stack of one is broadcast
    against a stack of k.
    """
    d = b - a
    a, b = (m if m.shape == d.shape else np.broadcast_to(m, d.shape) for m in (a, b))
    eigs = np.linalg.eigvalsh(np.concatenate((a, b, d))).reshape(3, *d.shape[:-1])
    return eigs[2].min(axis=-1), 1.0 + np.abs(eigs[:2]).max(axis=(0, -1))


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
    return symmetrized(s)


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


# resolvent_solve: products with A or A' before the dense fallback, a
# Perron iteration's last step (max-norm, on a vector of max 1), the radius
# estimate below which nothing is deflated, the share of its sum that ends
# a Neumann sum, the residual target, and the products over which a stage's
# contraction is measured
RESOLVENT_SWEEPS = 4000
PERRON_STEP = 1e-14
DEFLATE_ABOVE = 0.5
NEUMANN_TAIL = 1e-6
RESIDUAL_TARGET = 1e-8
STALL_WINDOW = 32


@dataclass(frozen=True)
class ResolventSolution:
    """x = (I - A')^-1 1 with ``residual`` = ||1 - x + A'x||_inf as
    computed.  ``sweeps`` counts the products with A or A'; ``dense`` says
    that the iteration gave up and x came from the dense fallback.  Only
    from the iteration is the residual at most RESIDUAL_TARGET and a bound
    |x - x*| <= residual x*; the dense fallback's can exceed one where x*
    spans many magnitudes (128 on a 3000-node one-way ring at radius
    1 - 1e-6, with x up to 2.7e19), and then bounds nothing."""

    x: np.ndarray
    residual: float
    sweeps: int
    dense: bool


def resolvent_solve(rows, cols, vals, n: int, v0=None) -> ResolventSolution:
    """Solve (I - A') x = 1 for the nonnegative n x n matrix A with entries
    ``vals`` at (rows[k], cols[k]) and rho(A) < 1, without forming A.

    (I - A')^-1 = sum_k A'^k is nonnegative, so x >= 1.  Near rho = 1 that
    sum converges too slowly, so the Perron pair is deflated: q with
    A q = rho q (power iteration from ``v0``, a positive vector such as a
    radius bracket's ``v`` on the same entries, or ones) and p with
    A'p = rho p (from ones), both shifted by the current estimate as in
    ``radius_bracket`` so that periodic matrices converge, each ending when
    the step is at most PERRON_STEP; 1 - rho^ = q.(p - A'p) / q.p, one dot
    of small terms, which keeps its relative accuracy near rho = 1.
    Refinement then repeats, from x = 0: r = 1 - x + A'x, c = q.r / q.p and
    x += c / (1 - rho^) p + sum_k A'^k (r - c p), the Neumann sum ending at
    a term of at most NEUMANN_TAIL of the sum or of ||r||_inf, whichever is
    larger (the sum is rounding noise when r lies along p), so the rest of
    r converges at the rate of the second eigenvalue.  It stops at ||r||_inf <=
    RESIDUAL_TARGET: since (I - A')^-1 >= 0 maps 1 to x*, that gives
    |x - x*| <= ||r||_inf x* componentwise (not so for the dense path).
    When p's radius estimate is at most DEFLATE_ABOVE, nothing is deflated
    (c = 0): the plain sum is fast there, and a nilpotent or defective
    matrix has no usable pair.  A matrix without entries gives x = 1.

    The one dense path: when RESOLVENT_SWEEPS products run out, a Perron
    iteration or Neumann sum cannot reach its target within the products
    left at the rate it contracted over its last STALL_WINDOW products, a
    residual does not halve between rounds or rho^ >= 1, x comes from
    ``np.linalg.solve`` on the n x n system.  Matrices without a spectral
    gap (a one-way ring) or with a -rho eigenvalue (bipartite ones) take it,
    a few STALL_WINDOWs into the stage that cannot finish.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    vals = np.asarray(vals, dtype=float)
    ones = np.ones(n)
    if vals.size == 0:
        return ResolventSolution(ones, 0.0, 0, False)
    sweeps = 0

    def product(v, out_idx, in_idx):
        nonlocal sweeps
        sweeps += 1
        return np.bincount(out_idx, vals * v[in_idx], minlength=n)

    def perron(v, out_idx, in_idx):
        # (vector of max 1, radius estimate), or None when the stage gives up
        v = v / v.max()
        steps = []
        while not _out_of_reach(steps, PERRON_STEP, RESOLVENT_SWEEPS - sweeps):
            av = product(v, out_idx, in_idx)
            est = av.max()
            if est == 0.0:
                return v, 0.0
            w = av + est * v
            w /= w.max()
            steps.append(np.abs(w - v).max())
            if steps[-1] <= PERRON_STEP:
                return w, est
            v = w
        return None

    right = perron(ones if v0 is None else np.asarray(v0, dtype=float), rows, cols)
    left = None if right is None else perron(ones, cols, rows)
    x = np.zeros(n)
    if left is not None:
        (q, _), (p, est) = right, left
        qp = float(q @ p)
        if est > DEFLATE_ABOVE and qp > 0.0:
            q = q / qp
            gap = float(q @ (p - product(p, cols, rows)))
        else:
            q, gap = np.zeros(n), 1.0
        last = np.inf
        while gap > 0.0:
            r = ones - x + product(x, cols, rows)
            residual = float(np.abs(r).max())
            if residual <= RESIDUAL_TARGET:
                return ResolventSolution(x, residual, sweeps, False)
            if residual > 0.5 * last:
                break
            last = residual
            c = float(q @ r)
            term = r - c * p
            total = term.copy()
            sizes, target = [], np.inf
            while not _out_of_reach(sizes, target, RESOLVENT_SWEEPS - sweeps):
                term = product(term, cols, rows)
                total += term
                sizes.append(np.abs(term).max())
                target = NEUMANN_TAIL * max(np.abs(total).max(), residual)
                if sizes[-1] <= target:
                    break
            else:
                break
            x += c / gap * p + total
    system = np.zeros((n, n))
    system[cols, rows] = -vals
    system[np.arange(n), np.arange(n)] += 1.0
    x = np.linalg.solve(system, ones)
    r = ones - x + np.bincount(cols, vals * x[rows], minlength=n)
    return ResolventSolution(x, float(np.abs(r).max()), sweeps, True)


def _out_of_reach(sizes: list, target: float, left: int) -> bool:
    """Whether an iteration whose measure was ``sizes`` after each product,
    the last above ``target``, cannot bring it to ``target`` within ``left``
    more products at the rate it contracted over its last STALL_WINDOW
    products; always when no product is left."""
    if left <= 0:
        return True
    if len(sizes) <= STALL_WINDOW:
        return False
    now, then = sizes[-1], sizes[-1 - STALL_WINDOW]
    return now >= then or STALL_WINDOW * math.log(now / target) > left * math.log(then / now)


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
