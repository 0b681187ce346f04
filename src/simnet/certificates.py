"""Quadratic tracking certificates for one subsystem/abstraction pair.

A certificate bundles per-mode matrices (M, K) with the abstraction maps
(P, Q, R, T) and a decay rate kappa.  Its obligations are three matrix
conditions, checked mode by mode:

  output dominance   C_s' C_s <= M_s   and   C_s P = Chat_s
  decay              3 F_s' M_s2 F_s <= (1 - kappa) M_s,  F_s = A_s + B_s K_s,
                     for every admissible ordered mode pair (s, s2)
  structure          A_s P = P Ahat_s - B_s Q_s   and   D_s = P Dhat_s - B_s T_s

From a verified certificate the dissipation gains follow in closed form and
the refinement interface u = K(x - P xhat) + Q xhat + R uhat + T what makes
the tracking energy V = (x - P xhat)' M (x - P xhat) decrease up to the
gain-weighted input terms.  A seeded sampler provides the refutation oracle
for that inequality.

Certificate files are ingested column by column: ``load_certificates``
walks the decoded entries once (an integral id, mode keys that are
integers, every field present), converts each matrix family (M, K, P, Q,
R, T) with one ``np.array`` call per shape and checks all certificates
together, in this order per certificate: the matrices numeric and M
square; kappa a number and transitions mode pairs; kappa in (0, 1); P's
rows; per mode M's dimension, M positive semidefinite (one stacked
``eigvalsh`` per M dimension, lambda_min >= -1e-8 (1 + max
|eigenvalue|)), the shapes of K, Q, R and T; the transitions within the
modes; every entry finite (NaN and infinities are rejected, naming the
node, mode and matrix).  The columns only flag: the first certificate
flagged is checked again on its own (``_checked``), which raises its
first defect, so the first defect of the first defective certificate in
file order is raised.  ``LocalCertificate(...)`` runs ``_checked`` on its
one certificate; loaded certificates are read-only views into the stacks.
The obligations, the structural solve and the sampled oracle decide with
comparisons that fail when a residual, margin or slack is NaN.

Verification checks first that each certificate fits its node: as many
modes, K with the node's input count as rows, P with the abstract state
dimension as columns, R and T as wide as the abstraction's external and
internal inputs (and the abstraction as many modes, outputs and internal
inputs as the node); a misfit raises DimensionMismatchError naming the
node.  Nodes are then grouped by the dimensions that fix their operands'
shapes, each group stacks every matrix family once, and each obligation is
one array expression over the stacks, the mode pairs gathered by index.
``verify_network`` returns columns (a NetworkVerification: verdicts and
gains per node, failure strings of the failing nodes only); reports with
their margins are built only by the one-node ``verify_certificate``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificateError,
    ConvergenceError,
    DimensionMismatchError,
    SchemaError,
    StructuralInfeasibleError,
)
from .linalg import (
    DEFAULT_TOL,
    SymMatrix,
    ToleranceProfile,
    operator_norm_batch,
    principal_sqrt_batch,
    psd_margin_batch,
    solve_linear_least_squares,
)
from .network import (
    Layout,
    NetworkSpec,
    SwitchedLinearSubsystem,
    _check_subsystems,
    _extents,
    _integral,
    _Matrices,
    _paused_gc,
    _placed,
    _read_json,
    _view,
    _write_json,
)

SCHEMA_CERTS = "simnet-certs-v1"


class LocalCertificate:
    """Per-subsystem certificate data; immutable after construction.

    Constructing one checks it (see ``_checked``); certificates loaded from
    a file are checked column by column instead (see ``_certificates``) and
    are read-only views into the file's matrix stacks.
    """

    def __init__(self, M, K, P, Q, R, T, kappa, transitions=None, node_id=None):
        M, K, Q, R, T = list(M), list(K), list(Q), list(R), list(T)
        if not M:
            raise SchemaError(f"{_where(node_id)} declares no modes", node=node_id)
        if not (len(K) == len(Q) == len(R) == len(T) == len(M)):
            raise DimensionMismatchError(
                "per-mode matrix families must all have the same length", modes=len(M)
            )
        (self.M, self.K, (self.P,), self.Q, self.R, self.T), self.kappa, self.transitions = (
            _checked((node_id, M, K, P, Q, R, T, kappa, transitions))
        )
        self.node_id = node_id

    @property
    def n_modes(self) -> int:
        return len(self.M)

    @property
    def n(self) -> int:
        return self.M[0].dim

    @property
    def m(self) -> int:
        return self.K[0].shape[0]

    @property
    def n_abstract(self) -> int:
        return self.P.shape[1]

    def admissible_pairs(self):
        """Ordered (current, next) mode pairs; all pairs unless restricted."""
        if self.transitions is not None:
            return self.transitions
        return tuple(itertools.product(range(self.n_modes), repeat=2))


_CERT_FAMILIES = ("M", "K", "P", "Q", "R", "T")


def _as_matrix(obj) -> np.ndarray:
    try:
        return np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError("matrix has non-numeric entries") from exc


def _where(node, mode=None) -> str:
    head = "certificate" if node is None else f"certificate for node {node}"
    return head if mode is None else f"{head} mode {mode}"


_PSD_SLACK = 1e-8  # M's eigenvalues may reach -1e-8 (1 + max |eigenvalue|)


def _certificates(raws) -> list[LocalCertificate]:
    """Checked LocalCertificates from raw ``(node, M, K, P, Q, R, T, kappa,
    transitions)`` tuples, with at least one mode and every per-mode family
    as long as M; matrices as arrays or decoded lists.

    Each family is converted with one ``np.array`` call per shape (see
    ``_Matrices``), and the checks of ``_checked`` run column by column
    over all certificates and (certificate, mode) rows; the M of each
    dimension are symmetrized and decided positive semidefinite with one
    stacked ``eigvalsh``.  ``_checked`` then raises the first defect of the
    first certificate flagged.  The certificates hold views into the
    stacks.
    """
    n_certs = len(raws)
    r = [len(raw[1]) for raw in raws]
    bounds = [0, *itertools.accumulate(r)]
    heads = np.array(bounds[:-1], dtype=np.intp)
    row_cert = np.repeat(np.arange(n_certs), r)
    mats = _Matrices(
        [[m for raw in raws for m in raw[f]] if f != 3 else [raw[3] for raw in raws]
         for f in range(1, 7)],
        _as_matrix,
    )
    dims, plain = mats.dims, mats.plain
    side = dims[0][:, 0]
    square = plain[0] & (side == dims[0][:, 1]) & (side >= 1)
    n, m, nh = side[heads], dims[1][heads, 0], dims[2][:, 1]
    n_r, m_r = n[row_cert], m[row_cert]
    sym, lam_min, scale = _semidefinite(mats.arrays[0], np.where(square, side, 0), mats.finite[0])

    def misshaped(f, rows, cols):
        return ~plain[f] | (dims[f][:, 0] != rows) | (dims[f][:, 1] != cols)

    # a matrix that does not convert is not plain, so it fails its shape check
    per_row = (  # M square and n x n, M >= 0, K, Q, R, T shapes, finite
        ~square | (side != n_r) | (lam_min < -_PSD_SLACK * scale)
        | misshaped(1, m_r, n_r) | misshaped(3, m_r, nh[row_cert])
        | misshaped(4, m_r, dims[4][heads, 1][row_cert])
        | misshaped(5, m_r, dims[5][heads, 1][row_cert])
        | ~np.logical_and.reduce([mats.finite[f] for f in (0, 1, 3, 4, 5)])
    )
    kappas, transitions, malformed = _scalars(raws)
    rates = np.array(kappas, dtype=float)
    flagged = (  # per certificate: kappa and transitions, then P
        malformed
        | ~((0.0 < rates) & (rates < 1.0))
        | np.array([pairs is not None and any(not (0 <= s < k and 0 <= s2 < k) for s, s2 in pairs)
                    for pairs, k in zip(transitions, r)], dtype=bool)
        | mats.bad[2] | (dims[2][:, 0] != n) | ~mats.finite[2]
    )
    flagged[row_cert[per_row]] = True
    if flagged.any():
        _checked(raws[int(np.argmax(flagged))])  # raises the certificate's first defect
        raise AssertionError("a flagged certificate passed its checks")

    def per_cert(items):
        return [tuple(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    arrays = mats.arrays
    return [
        _view(LocalCertificate, M=ms, K=ks, P=p, Q=qs, R=rs, T=ts, kappa=kappa,
              node_id=raw[0], transitions=pairs)
        for raw, ms, ks, p, qs, rs, ts, kappa, pairs in zip(
            raws, per_cert(sym), per_cert(arrays[1]), arrays[2], per_cert(arrays[3]),
            per_cert(arrays[4]), per_cert(arrays[5]), kappas, transitions,
        )
    ]


def _scalars(raws):
    """Per certificate its kappa as a float (NaN if it is not a number),
    its transitions as int pairs (None when absent or malformed), and
    whether either does not convert."""
    kappas, transitions = [], []
    malformed = np.zeros(len(raws), dtype=bool)
    for c, raw in enumerate(raws):
        try:
            kappas.append(float(raw[7]))
        except (TypeError, ValueError):
            kappas.append(np.nan)
            malformed[c] = True
        try:
            transitions.append(tuple((int(a), int(b)) for a, b in raw[8]) if raw[8] else None)
        except (TypeError, ValueError):
            transitions.append(None)
            malformed[c] = True
    return kappas, transitions, malformed


def _semidefinite(ms, side: np.ndarray, finite: np.ndarray):
    """The symmetrized M (SymMatrix views into one read-only stack per
    dimension ``side``; None where ``side`` is 0) and per M its lambda_min
    and 1 + max |eigenvalue|: one stacked eigvalsh per dimension.
    Non-finite M are decided on zeros."""
    sym = [None] * len(ms)
    lam_min, scale = np.zeros(len(ms)), np.ones(len(ms))
    for dim in np.unique(side[side > 0]).tolist():
        idx = np.flatnonzero(side == dim)
        stack = np.array([ms[i] for i in idx.tolist()], dtype=float).reshape(-1, dim, dim)
        stack = np.where(finite[idx, None, None], stack, 0.0)
        stack = 0.5 * (stack + np.swapaxes(stack, -1, -2))
        stack.flags.writeable = False
        eigs = np.linalg.eigvalsh(stack)
        lam_min[idx], scale[idx] = eigs[:, 0], 1.0 + np.abs(eigs).max(axis=1)
        for i, entries in zip(idx.tolist(), stack):
            sym[i] = _sym_view(entries)
    return sym, lam_min, scale


def _checked(raw) -> tuple:
    """One raw certificate (see ``_certificates``) checked on its own: its
    six families as tuples of read-only arrays (M as SymMatrix, P as a
    family of one), its kappa and its transitions.  Raises the first
    defect, in order: each matrix numeric and M square (M, K, P, Q, R, T,
    mode by mode); kappa a number; transitions mode pairs; kappa in
    (0, 1); P's rows; per mode M's dimension, M positive semidefinite, the
    shapes of K, Q, R and T; transitions within the modes; every entry
    finite (last, so that every defect found before non-finite entries
    were rejected is still the one reported)."""
    node = raw[0]
    families = []
    for name, value in zip(_CERT_FAMILIES, raw[1:7]):
        family = []
        for s, obj in enumerate([value] if name == "P" else value):
            if isinstance(obj, SymMatrix):  # symmetric and read-only already
                family.append(obj.entries)
                continue
            mode = None if name == "P" else s
            try:
                a = _as_matrix(obj)
            except SchemaError:
                raise SchemaError(
                    f"{_where(node, mode)}: matrix {name} has non-numeric entries",
                    node=node, mode=mode, matrix=name,
                ) from None
            if name == "M":
                a = SymMatrix(a).entries
            a.flags.writeable = False
            family.append(a)
        families.append(tuple(family))
    try:
        kappa = float(raw[7])
    except (TypeError, ValueError):
        raise SchemaError(f"{_where(node)}: kappa {raw[7]!r} is not a number", node=node) from None
    try:
        pairs = tuple((int(a), int(b)) for a, b in raw[8]) if raw[8] else None
    except (TypeError, ValueError):
        raise SchemaError(
            f"{_where(node)}: transitions must be [current, next] mode pairs", node=node
        ) from None
    if not (0.0 < kappa < 1.0):
        raise CertificateError(f"kappa must lie in (0, 1), got {kappa}")
    ms, ks, (p,), qs, rs, ts = families
    n, m, nh = ms[0].shape[0], _extents(ks[0].shape)[0], _extents(p.shape)[1]
    if _extents(p.shape)[0] != n:
        raise DimensionMismatchError(f"P must have {n} rows, got {p.shape}", matrix="P")
    finite = np.isfinite(np.concatenate([a.ravel() for family in families for a in family])).all()
    for s in range(len(ms)):
        if ms[s].shape[0] != n:
            raise DimensionMismatchError(f"M[{s}] must be {n}x{n}", mode=s)
        if finite or np.isfinite(ms[s]).all():  # non-finite M are rejected below
            eigs = np.linalg.eigvalsh(ms[s])
            if eigs[0] < -_PSD_SLACK * (1.0 + np.abs(eigs).max()):
                low = float(eigs[0])
                raise CertificateError(
                    f"M[{s}] must be positive semidefinite (lambda_min = {low:.3e})",
                    mode=s, lambda_min=low,
                )
        if ks[s].shape != (m, n):
            raise DimensionMismatchError(f"K[{s}] must be {m}x{n}", mode=s)
        if qs[s].shape != (m, nh):
            raise DimensionMismatchError(f"Q[{s}] must be {m}x{nh}", mode=s)
        for name, family in (("R", rs), ("T", ts)):
            if family[s].shape != (m, _extents(family[0].shape)[1]):
                raise DimensionMismatchError(
                    f"{name}[{s}] must have {m} rows and as many columns as {name}[0]", mode=s
                )
    for s, s2 in pairs or ():
        if not (0 <= s < len(ms) and 0 <= s2 < len(ms)):
            raise CertificateError(
                f"transition pair ({s}, {s2}) references an unknown mode", pair=(s, s2)
            )
    for name, family in zip(_CERT_FAMILIES, families if not finite else ()):
        for s, a in enumerate(family):
            if not np.isfinite(a).all():
                mode = None if name == "P" else s
                raise SchemaError(
                    f"{_where(node, mode)}: matrix {name} has non-finite entries",
                    node=node, mode=mode, matrix=name,
                )
    return (tuple(map(_sym_view, ms)), ks, (p,), qs, rs, ts), kappa, pairs


def _sym_view(entries: np.ndarray) -> SymMatrix:
    """A SymMatrix around an already symmetric, read-only array."""
    sym = object.__new__(SymMatrix)
    sym.entries = entries
    return sym


@dataclass(frozen=True)
class LocalGains:
    """Dissipation gains extracted from a verified certificate."""

    alpha: float
    lam: float
    rho_int: float
    rho_ext: float

    def __post_init__(self):  # each comparison fails on NaN
        if not self.alpha > 0:
            raise CertificateError(f"alpha must be positive, got {self.alpha}")
        if not (0.0 < self.lam < 1.0):
            raise CertificateError(f"lambda must lie in (0, 1), got {self.lam}")
        if not (self.rho_int >= 0 and self.rho_ext >= 0):
            raise CertificateError("gain coefficients must be nonnegative")


@dataclass(frozen=True)
class VerificationReport:
    """Boolean verdict plus per-mode diagnostics; truthy iff the check passed."""

    ok: bool
    check: str
    failures: tuple[str, ...] = ()
    margins: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class VerifiedCertificate:
    """One node's verification outcome: the three obligation reports and,
    when all three pass, the dissipation gains (None otherwise)."""

    output_dominance: VerificationReport
    decay: VerificationReport
    structure: VerificationReport
    gains: LocalGains | None

    @property
    def reports(self) -> tuple[VerificationReport, ...]:
        return (self.output_dominance, self.decay, self.structure)

    def __bool__(self) -> bool:
        return self.gains is not None


@dataclass(frozen=True)
class NetworkVerification:
    """Every node's verification outcome as columns in the spec's node
    order.  Row i of ``passed`` holds node_ids[i]'s verdicts on output
    dominance, decay and structure; its gains ``lam``, ``rho_int`` and
    ``rho_ext`` (alpha is 1) are NaN unless all three pass.  ``failures``
    maps each failing node, and only those, to its failure strings."""

    node_ids: tuple[int, ...]
    passed: np.ndarray
    lam: np.ndarray
    rho_int: np.ndarray
    rho_ext: np.ndarray
    failures: dict[int, tuple[str, ...]]


def verify_network(
    spec: NetworkSpec,
    certs: dict[int, LocalCertificate],
    tol: ToleranceProfile = DEFAULT_TOL,
) -> NetworkVerification:
    """Verify every node's certificate against its abstraction in one pass.

    A node without a certificate, or a network without abstraction, raises
    SchemaError; a certificate that does not fit its node raises
    DimensionMismatchError naming the node (see ``_FIT``).  The nodes are
    verified group by group (equal mode count, n, m, nhat, mhat and
    internal width), so the number of eigen-decompositions depends on the
    number of groups, not on the node count.  Verdicts, failure strings and
    gains equal the per-node checks' bit for bit; no margins are kept.
    """
    missing = [sub.id for sub in spec.subsystems if sub.id not in certs]
    if missing:
        raise SchemaError(f"certificate file lacks nodes {missing}", nodes=missing)
    if spec.abstract_subsystems is None:
        raise SchemaError("network declares no abstract subsystems; nothing to verify against")
    items = [
        (certs[sub.id], sub, abstract)
        for sub, abstract in zip(spec.subsystems, spec.abstract_subsystems)
    ]
    node_ids = tuple(sub.id for sub in spec.subsystems)
    passed = np.empty((len(items), 3), dtype=bool)
    gains = np.empty((3, len(items)))
    failures = {}
    dims = _fitted(items)
    keys, group = np.unique(dims[:, _GROUP], axis=0, return_inverse=True)
    for g, key in enumerate(keys.tolist()):
        idx = np.flatnonzero(group == g)
        checks, passed[idx], gains[:, idx] = _verify_group(
            [items[i] for i in idx.tolist()], key[0], dims[idx, _DIMS.index("q")], tol
        )
        for item in np.flatnonzero(~passed[idx].all(axis=1)).tolist():
            failures[node_ids[idx[item]]] = sum((_failures(c, item) for c in checks), ())
    return NetworkVerification(node_ids, passed, *gains, failures)


def _dims(cert, concrete, abstract) -> tuple:
    """The dimensions of one (certificate, concrete, abstract) item, in the
    order of ``_DIMS``."""
    mode, abstract_mode = concrete.modes[0], abstract.modes[0]
    return (
        len(concrete.modes), *mode.B.shape, mode.D.shape[1], mode.C.shape[0],
        len(abstract.modes), *abstract_mode.B.shape, abstract_mode.D.shape[1],
        abstract_mode.C.shape[0],
        len(cert.M), *cert.P.shape, cert.K[0].shape[0], cert.R[0].shape[1], cert.T[0].shape[1],
    )


_DIMS = (  # w is the internal input width, q the output width
    "modes", "n", "m", "w", "q",
    "abstract modes", "abstract n", "abstract m", "abstract w", "abstract q",
    "certificate modes", "P rows", "P columns", "K rows", "R columns", "T columns",
)
_FIT = (  # (dimension, the dimension it must equal, message), checked in this order
    ("abstract modes", "modes", "abstract mode count {} differs from concrete {}"),
    ("abstract q", "q", "abstract output width {} differs from concrete {}"),
    ("abstract w", "w", "abstract internal input width {} differs from concrete {}"),
    ("certificate modes", "modes", "certificate mode count {} differs from the subsystem's {}"),
    ("P rows", "n", "certificate matrices are {0}x{0} but the state has dimension {1}"),
    ("K rows", "m", "certificate K row count {} differs from the input count {}"),
    ("P columns", "abstract n",
     "certificate P column count {} differs from the abstract state dimension {}"),
    ("R columns", "abstract m",
     "certificate R column count {} differs from the abstract input count {}"),
    ("T columns", "abstract w",
     "certificate T column count {} differs from the abstract internal input width {}"),
)
# items that agree on these stack every operand but C and Chat, whose rows are q
_GROUP = [_DIMS.index(name) for name in ("modes", "n", "m", "w", "abstract n", "abstract m")]
_CHECKS = ("output_dominance", "decay", "structure")


def _fitted(items) -> np.ndarray:
    """The dimensions of (cert, concrete, abstract) items, one row each (see
    ``_DIMS``), once both subsystems are checked; DimensionMismatchError at
    the first item whose certificate or abstraction misfits its node."""
    _check_subsystems(sub for item in items for sub in item[1:])
    dims = np.array([_dims(*item) for item in items], dtype=np.int64).reshape(-1, len(_DIMS))
    got, want = (dims[:, [_DIMS.index(rule[i]) for rule in _FIT]] for i in (0, 1))
    misfit = np.flatnonzero((got != want).any(axis=1))
    if misfit.size:  # the first item's first misfit, in _FIT's order
        pos = int(misfit[0])
        rule = int(np.argmax(got[pos] != want[pos]))
        node, values = items[pos][1].id, (int(got[pos, rule]), int(want[pos, rule]))
        raise DimensionMismatchError(
            f"subsystem {node}: " + _FIT[rule][2].format(*values),
            node=node, got=values[0], expected=values[1],
        )
    return dims


def _verify_group(items, r: int, widths: np.ndarray, tol: ToleranceProfile):
    """The obligations and gains of items that share every dimension but
    the output width (``widths``, per item): the three checks, the (items,
    3) pass flags and the gain rows lam, rho_int and rho_ext (NaN unless an
    item passes all three).  Rows are the (item, mode) pairs, item by item;
    each family is one stack over them, and the admissible mode pairs index
    into it.  A check is (bounds, pairs, tests): item i owns its rows
    bounds[i]:bounds[i+1], labelled by mode, or by mode pair when ``pairs``
    (one per row) is given; ``tests`` are (margin key, passed, value,
    message) over the rows, and a single test's margin is its bare value."""
    certs = [item[0] for item in items]
    modes = [mode for item in items for mode in item[1].modes]
    abstract = [mode for item in items for mode in item[2].modes]
    a, b, d = (np.array([getattr(mode, f) for mode in modes]) for f in "ABD")
    a_hat, b_hat, d_hat = (np.array([getattr(mode, f) for mode in abstract]) for f in "ABD")
    ms = np.array([m.entries for cert in certs for m in cert.M])
    ks, qs, rs, ts = (np.array([x for cert in certs for x in getattr(cert, f)]) for f in "KQRT")
    kappa = np.array([cert.kappa for cert in certs])
    row_item = np.repeat(np.arange(len(items)), r)
    p = np.array([cert.P for cert in certs])[row_item]
    full = np.array(list(itertools.product(range(r), repeat=2)))
    listed = [full if cert.transitions is None else cert.transitions for cert in certs]
    pairs = np.concatenate(listed).reshape(-1, 2)
    pair_bounds = np.concatenate(([0], np.cumsum([len(x) for x in listed])))
    pair_item = np.repeat(np.arange(len(items)), np.diff(pair_bounds))
    now, nxt = pair_item * r + pairs[:, 0], pair_item * r + pairs[:, 1]

    # output dominance; C and Chat stack per output width
    gram, match = np.empty_like(ms), np.zeros(len(ms))
    row_width = widths[row_item]
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(row_width == width)
        c = np.array([modes[i].C for i in rows.tolist()])
        c_hat = np.array([abstract[i].C for i in rows.tolist()])
        gram[rows] = _sym(np.swapaxes(c, -1, -2) @ c)
        if c_hat.size:
            match[rows] = _max_abs(c @ p[rows] - c_hat)
    psd, psd_scale = psd_margin_batch(gram, ms)

    # decay over the admissible pairs (s, s2)
    loops = (a + b @ ks)[now]
    lhs = _sym(3.0 * np.swapaxes(loops, -1, -2) @ ms[nxt] @ loops)
    rate = 1.0 - kappa[pair_item]
    decay, decay_scale = psd_margin_batch(lhs, _sym(rate[:, None, None] * ms[now]))

    # structure
    state = _max_abs(a @ p - p @ a_hat + b @ qs)
    coupling = _max_abs(d - p @ d_hat + b @ ts) if d.size else np.zeros(len(a))
    limit = tol.eig_tol * (1.0 + _max_abs(a))

    mode_bounds = np.arange(len(items) + 1) * r
    checks = (
        (mode_bounds, None, [
            ("psd_margin", psd >= -tol.psd_tol * psd_scale, psd,
             "mode {}: output Gram matrix is not dominated by M"),
            ("output_match", match <= tol.eig_tol, match,
             "mode {}: C P differs from the abstract C by {:.3e}"),
        ]),
        (pair_bounds, pairs, [
            (None, decay >= -tol.psd_tol * decay_scale, decay,
             "mode pair ({0[0]} -> {0[1]}): decay inequality fails (lambda_min margin {1:.3e})"),
        ]),
        (mode_bounds, None, [
            ("state", state <= limit, state, "mode {}: state matching residual {:.3e}"),
            ("coupling", coupling <= limit, coupling,
             "mode {}: coupling matching residual {:.3e}"),
        ]),
    )
    passed = np.column_stack([
        np.logical_and.reduceat(np.logical_and.reduce([t[1] for t in tests]), bounds[:-1])
        for bounds, _, tests in checks
    ])
    # gains of the items that pass all three, over their admissible pairs
    # (see derive_gains); 3 |.|^2 grows with |.|, so an item's worst pair is
    # the one of largest norm, squared on Python floats (numpy's square, a
    # multiply, can be an ulp off)
    ok = passed.all(axis=1)
    gains = np.full((3, len(items)), np.nan)
    if ok.any():
        chosen = ok[pair_item]
        entered, at = np.unique(nxt[chosen], return_inverse=True)
        roots = principal_sqrt_batch(ms[entered], tol)[at]  # sqrt(M_s2) per pair
        starts = np.flatnonzero(np.diff(pair_item[chosen], prepend=-1))
        norms = (np.maximum.reduceat(operator_norm_batch(roots @ x[now[chosen]]), starts)
                 for x in (d, b @ rs - p @ b_hat))
        gains[:, ok] = kappa[ok], *([3.0 * x**2 for x in y.tolist()] for y in norms)
    return checks, passed, gains


def _rows(check, item: int):
    """(row, label) for the rows of ``item`` in ``check``: its modes, or its
    mode pairs as tuples."""
    bounds, pairs, _ = check
    lo, hi = bounds[item], bounds[item + 1]
    if pairs is None:
        return zip(range(lo, hi), range(hi - lo))
    return ((row, tuple(pairs[row].tolist())) for row in range(lo, hi))


def _failures(check, item: int) -> tuple[str, ...]:
    """The failure strings of ``item``: ``message.format(label, value)``
    for each row and test it fails, row by row and test by test."""
    return tuple(
        message.format(label, value[row])
        for row, label in _rows(check, item)
        for _, ok, value, message in check[2] if not ok[row]
    )


def _report(name: str, check) -> VerificationReport:
    """The report of a one-item check, with its margins by label."""
    failures = _failures(check, 0)
    margins = {}
    for row, label in _rows(check, 0):
        margin = {key: float(value[row]) for key, _, value, _ in check[2]}
        margins[label] = margin.get(None, margin)
    return VerificationReport(not failures, name, failures, margins)


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize a stack as SymMatrix does."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _max_abs(a: np.ndarray) -> np.ndarray:
    return np.abs(a).max(axis=(-2, -1))


def verify_certificate(
    cert: LocalCertificate,
    concrete: SwitchedLinearSubsystem,
    abstract_sub: SwitchedLinearSubsystem,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> VerifiedCertificate:
    """The three obligations of one node (see the module docstring: the
    semidefinite orders within psd_tol, C P = Chat entrywise within eig_tol,
    the structure within eig_tol * (1 + max|A|)) with their margins per mode
    or mode pair and, when all pass, its gains: the one-node case of
    ``verify_network``."""
    item = (cert, concrete, abstract_sub)
    dims = _fitted([item])
    checks, passed, gains = _verify_group([item], dims[0, 0], dims[:, _DIMS.index("q")], tol)
    lam, rho_int, rho_ext = gains[:, 0].tolist()
    return VerifiedCertificate(
        *map(_report, _CHECKS, checks),
        LocalGains(alpha=1.0, lam=lam, rho_int=rho_int, rho_ext=rho_ext)
        if passed.all() else None,
    )


def derive_gains(
    cert: LocalCertificate,
    concrete: SwitchedLinearSubsystem,
    abstract_sub: SwitchedLinearSubsystem,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> LocalGains:
    """Dissipation gains of a verified certificate.

    alpha = 1 and lambda = kappa by construction; the input gains are the
    worst case over admissible mode pairs of

        rho_int = 3 |sqrt(M_s2) D_s|^2
        rho_ext = 3 |sqrt(M_s2) (B_s R_s - P Bhat_s)|^2

    with |.| the induced 2-norm.  Raises CertificateError if any of the three
    verification obligations fails.
    """
    verified = verify_certificate(cert, concrete, abstract_sub, tol)
    if not verified:
        bad = [r for r in verified.reports if not r]
        raise CertificateError(
            "certificate verification failed: "
            + "; ".join(f"{r.check}: {', '.join(r.failures)}" for r in bad),
            checks={r.check: r.failures for r in bad},
        )
    return verified.gains


class CompiledCertificates:
    """The certificates of a node list, in node order, compiled for flat
    vectors like network.NetworkEngine: the P, M, K, Q, R and T matrices
    of every (node, mode) slot are placed as entries tagged with the slot,
    one stack per shape.  The layouts follow the certificates (R and T set
    the abstract input widths).
    """

    def __init__(self, certs):
        certs = list(certs)
        ids = [i if c.node_id is None else c.node_id for i, c in enumerate(certs)]
        self.slots = Layout(ids, [c.n_modes for c in certs], "mode")
        self.state = Layout(ids, [c.n for c in certs], "state")
        self.abstract_state = Layout(ids, [c.n_abstract for c in certs], "abstract state")
        self.input = Layout(ids, [c.m for c in certs], "input")
        self.abstract_input = Layout(ids, [c.R[0].shape[1] for c in certs], "abstract input")
        self.abstract_internal = Layout(
            ids, [c.T[0].shape[1] for c in certs], "abstract internal input"
        )

        def family(per_node, rows, cols):
            return _placed(list(itertools.chain.from_iterable(per_node)), rows, cols, self.slots)

        self._P = family([[c.P] * c.n_modes for c in certs], self.state, self.abstract_state)
        self._M = family([[m.entries for m in c.M] for c in certs], self.state, self.state)
        self._K = family([c.K for c in certs], self.input, self.state)
        self._Q = family([c.Q for c in certs], self.input, self.abstract_state)
        self._R = family([c.R for c in certs], self.input, self.abstract_input)
        self._T = family([c.T for c in certs], self.input, self.abstract_internal)
        self._node = np.repeat(np.arange(len(certs)), self.state.sizes)

    def interface_input(self, active, x, x_hat, u_hat, w_hat) -> np.ndarray:
        """u = K (x - P xhat) + Q xhat + R uhat + T what."""
        e = x - self._P.apply(active, x_hat)
        return (self._K.apply(active, e) + self._Q.apply(active, x_hat)
                + self._R.apply(active, u_hat) + self._T.apply(active, w_hat))

    def energies(self, active, x, x_hat) -> np.ndarray:
        """Per node (x - P xhat)' M (x - P xhat), clipped at zero."""
        e = x - self._P.apply(active, x_hat)
        v = e * self._M.apply(active, e)
        return np.maximum(np.bincount(self._node, v, minlength=len(self.state.ids)), 0.0)


@dataclass(frozen=True)
class DissipationReport:
    """Outcome of the sampled dissipation check; truthy iff no violation."""

    ok: bool
    worst_slack: float
    samples: int
    violations: int
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_dissipation_sampled(
    cert: LocalCertificate,
    concrete: SwitchedLinearSubsystem,
    abstract_sub: SwitchedLinearSubsystem,
    samples: int = 1000,
    seed: int = 0,
    gains: LocalGains | None = None,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> DissipationReport:
    """Refutation oracle for the one-step dissipation inequality.

    Draws ``samples`` tuples (x, xhat, w, what, uhat) per admissible mode
    pair from uniform [-1, 1] boxes (all terms are quadratic, so scale is
    immaterial), refines u through the interface, advances both systems one
    step and checks

        V_s2(x+, xhat+) - V_s(x, xhat)
            <= -lam V_s + rho_ext |uhat|^2 + rho_int |w - what|^2

    pointwise with slack 1e-9 * (1 + |V|); a NaN slack counts as a
    violation.  Slack is reported so that negative means satisfied; the
    worst case is the max over samples, where a NaN slack ranks above every
    number, and the witness is the worst violating sample.  Both subsystems
    and the certificate's fit are checked first (see ``_fitted``).
    """
    _fitted([(cert, concrete, abstract_sub)])
    if gains is None:
        gains = derive_gains(cert, concrete, abstract_sub, tol)
    rng = np.random.default_rng(seed)
    worst = worst_rank = witness_rank = -np.inf
    witness = None
    violations = 0
    total = 0
    for s, s2 in cert.admissible_pairs():
        cm = concrete.modes[s]
        am = abstract_sub.modes[s]
        x = rng.uniform(-1.0, 1.0, size=(samples, concrete.n))
        xh = rng.uniform(-1.0, 1.0, size=(samples, abstract_sub.n))
        w = rng.uniform(-1.0, 1.0, size=(samples, concrete.internal_width))
        wh = rng.uniform(-1.0, 1.0, size=(samples, abstract_sub.internal_width))
        uh = rng.uniform(-1.0, 1.0, size=(samples, abstract_sub.m))
        e = x - xh @ cert.P.T
        u = e @ cert.K[s].T + xh @ cert.Q[s].T + uh @ cert.R[s].T + wh @ cert.T[s].T
        x_next = x @ cm.A.T + w @ cm.D.T + u @ cm.B.T
        xh_next = xh @ am.A.T + wh @ am.D.T + uh @ am.B.T
        e_next = x_next - xh_next @ cert.P.T
        v = np.einsum("ij,jk,ik->i", e, cert.M[s].entries, e)
        v_next = np.einsum("ij,jk,ik->i", e_next, cert.M[s2].entries, e_next)
        rhs = (
            -gains.lam * v
            + gains.rho_ext * np.sum(uh**2, axis=1)
            + gains.rho_int * np.sum((w - wh) ** 2, axis=1)
        )
        slack = v_next - v - rhs
        allowed = 1e-9 * (1.0 + np.abs(v))
        bad = ~(slack <= allowed)  # a NaN slack is a violation
        violations += int(bad.sum())
        total += samples
        rank = np.where(np.isnan(slack), np.inf, slack)  # a NaN slack ranks worst
        idx = int(np.argmax(rank))
        if rank[idx] > worst_rank:
            worst_rank, worst = rank[idx], float(slack[idx])
        idx = int(np.argmax(np.where(bad, rank, -np.inf)))
        if bad[idx] and (witness is None or rank[idx] > witness_rank):
            witness_rank = rank[idx]
            witness = {
                "mode_pair": (s, s2),
                "x": x[idx].tolist(),
                "x_hat": xh[idx].tolist(),
                "w": w[idx].tolist(),
                "w_hat": wh[idx].tolist(),
                "u_hat": uh[idx].tolist(),
                "slack": float(slack[idx]),
            }
    return DissipationReport(
        ok=violations == 0,
        worst_slack=worst,
        samples=total,
        violations=violations,
        witness=witness,
    )


def synthesize_certificate_matrix(
    concrete: SwitchedLinearSubsystem,
    K,
    kappa: float,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> SymMatrix:
    """Conservative mode-independent certificate matrix by fixed-point iteration.

    Iterates M <- sum_s C_s'C_s + sum_s Ft_s' M Ft_s with the scaled closed
    loops Ft_s = sqrt(3/(1-kappa)) (A_s + B_s K_s).  Convergence yields a
    common M verifying both matrix conditions with margin; divergence means
    this sufficient-only scheme fails, not that no certificate exists.
    The subsystem is checked first (see ``_check_subsystems``).
    """
    _check_subsystems((concrete,))
    if not (0.0 < kappa < 1.0):
        raise CertificateError(f"kappa must lie in (0, 1), got {kappa}")
    ks = [np.asarray(k, dtype=float) for k in K]
    if len(ks) != concrete.n_modes:
        raise DimensionMismatchError(
            f"need one feedback gain per mode ({concrete.n_modes}), got {len(ks)}"
        )
    scale = np.sqrt(3.0 / (1.0 - kappa))
    loops = [
        scale * (concrete.modes[s].A + concrete.modes[s].B @ ks[s])
        for s in range(concrete.n_modes)
    ]
    base = sum(m.C.T @ m.C for m in concrete.modes)
    m_cur = base.copy()
    cap = 1e12 * (1.0 + float(np.abs(base).max()))
    for _ in range(tol.iter_max):
        m_next = base + sum(f.T @ m_cur @ f for f in loops)
        change = float(np.abs(m_next - m_cur).max())
        if not np.isfinite(change) or float(np.abs(m_next).max()) > cap:
            raise ConvergenceError(
                "certificate-matrix iteration diverged (joint spectral condition "
                "fails for this conservative scheme); this does not prove that no "
                "certificate exists",
                growth=float(np.abs(m_next).max()),
            )
        m_cur = m_next
        if change < tol.eig_tol * (1.0 + float(np.abs(m_cur).max())):
            break
    else:
        raise ConvergenceError(
            f"certificate-matrix iteration did not settle within {tol.iter_max} "
            f"iterations",
            iter_max=tol.iter_max,
        )
    result = SymMatrix(m_cur)
    m = result.entries[None]
    grams = _sym(np.array([mode.C.T @ mode.C for mode in concrete.modes]))
    closed = np.array(loops) / scale
    checks = (
        ("output dominance", psd_margin_batch(grams, m)),
        ("the decay condition", psd_margin_batch(
            _sym(3.0 * np.swapaxes(closed, -1, -2) @ m @ closed), (1.0 - kappa) * m)),
    )
    for s in range(concrete.n_modes):
        for what, (margin, size) in checks:
            if not margin[s] >= -tol.psd_tol * size[s]:
                raise CertificateError(f"synthesized matrix fails {what}", mode=s)
    return result


@dataclass(frozen=True)
class StructuralSolution:
    Q: tuple
    T: tuple
    C_hat: tuple
    D_hat: tuple
    R: tuple


def solve_structural(
    concrete: SwitchedLinearSubsystem,
    abstract_A,
    P,
    *,
    abstract_B,
    abstract_D=None,
    weight=None,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> StructuralSolution:
    """Solve the structural matching equations for Q, T and the abstract maps.

    Per mode, Q_s and T_s are minimum-norm least-squares solutions of
    B_s Q = P Ahat_s - A_s P and B_s T = P Dhat_s - D_s; a residual above
    eig_tol * (1 + max|A_s|), or NaN, means the abstraction is infeasible
    for this P.  The subsystem is checked first (see ``_check_subsystems``).
    Chat_s = C_s P always; R_s is the weight-optimal interface gain
    (BMB)^-1 BMP Bhat minimizing the external-input mismatch (identity
    weight when none is given).  Dhat defaults to zero (fully decoupled
    abstraction).
    """
    _check_subsystems((concrete,))
    p = np.asarray(P, dtype=float)
    n_hat = p.shape[1]
    r = concrete.n_modes
    a_hats = _per_mode(abstract_A, r)
    b_hats = _per_mode(abstract_B, r)
    if abstract_D is None:
        d_hats = [np.zeros((n_hat, concrete.internal_width))] * r
    else:
        d_hats = [np.asarray(d, dtype=float) for d in _per_mode(abstract_D, r)]
    weights = (
        [np.eye(concrete.n)] * r
        if weight is None
        else [np.asarray(w) for w in _per_mode(weight, r)]
    )
    qs, ts, c_hats, rs = [], [], [], []
    for s in range(r):
        cm = concrete.modes[s]
        limit = tol.eig_tol * (1.0 + float(np.abs(cm.A).max()))
        q, res_q = solve_linear_least_squares(cm.B, p @ a_hats[s] - cm.A @ p, tol)
        if not res_q <= limit:
            raise StructuralInfeasibleError(
                f"abstraction infeasible for this P: state matching residual "
                f"{res_q:.3e} in mode {s}",
                equation="state", mode=s, residual=res_q,
            )
        t, res_t = solve_linear_least_squares(cm.B, p @ d_hats[s] - cm.D, tol)
        if not res_t <= limit:
            raise StructuralInfeasibleError(
                f"abstraction infeasible for this P: coupling matching residual "
                f"{res_t:.3e} in mode {s}",
                equation="coupling", mode=s, residual=res_t,
            )
        w = weights[s]
        gram = cm.B.T @ w @ cm.B
        rhs = cm.B.T @ w @ p @ b_hats[s]
        r_gain, _ = solve_linear_least_squares(gram, rhs, tol)
        qs.append(q)
        ts.append(t)
        c_hats.append(cm.C @ p)
        rs.append(r_gain)
    return StructuralSolution(
        Q=tuple(qs), T=tuple(ts), C_hat=tuple(c_hats), D_hat=tuple(d_hats), R=tuple(rs)
    )


def _per_mode(value, r: int) -> list:
    """Broadcast a single matrix to all modes, or pass a per-mode list through.

    A 2-d array (or nested list of scalars) is one matrix for every mode; a
    sequence of 2-d matrices is a per-mode family.
    """
    if isinstance(value, (list, tuple)):
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            arr = None
        if arr is not None and arr.ndim == 2:
            return [arr] * r
        seq = [np.asarray(v, dtype=float) for v in value]
        if len(seq) != r:
            raise DimensionMismatchError(
                f"per-mode list must have {r} entries, got {len(seq)}"
            )
        return seq
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 3:
        if arr.shape[0] != r:
            raise DimensionMismatchError(
                f"per-mode stack must have {r} entries, got {arr.shape[0]}"
            )
        return list(arr)
    return [arr] * r


# ---------------------------------------------------------------------------
# JSON ingestion


def certificates_to_json(certs: dict[int, LocalCertificate]) -> dict:
    def cert_json(node_id: int, cert: LocalCertificate) -> dict:
        def mode_map(family):
            return {str(s): np.asarray(mat).tolist() for s, mat in enumerate(family)}

        data = {
            "id": node_id,
            "kappa": cert.kappa,
            "M": {str(s): cert.M[s].entries.tolist() for s in range(cert.n_modes)},
            "K": mode_map(cert.K),
            "P": cert.P.tolist(),
            "Q": mode_map(cert.Q),
            "R": mode_map(cert.R),
            "T": mode_map(cert.T),
        }
        if cert.transitions is not None:
            data["transitions"] = [list(p) for p in cert.transitions]
        return data

    return {
        "schema": SCHEMA_CERTS,
        "certificates": [cert_json(i, c) for i, c in sorted(certs.items())],
    }


def save_certificates(certs: dict[int, LocalCertificate], path) -> None:
    _write_json(certificates_to_json(certs), path)


def load_certificates(path) -> dict[int, LocalCertificate]:
    """Load and check a certificate file (schema ``simnet-certs-v1``): one
    walk over its entries, then the columnar checks of ``_certificates``.
    The first defect in file order is raised."""
    with _paused_gc():
        return _parse_certificates(_read_json(path))


def _parse_certificates(data) -> dict[int, LocalCertificate]:
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_CERTS:
        raise SchemaError(
            f"missing or unsupported schema tag (expected '{SCHEMA_CERTS}')",
            schema=data.get("schema") if isinstance(data, dict) else None,
        )
    entries = data.get("certificates", [])
    if not isinstance(entries, list):
        raise SchemaError("certificate file must declare a 'certificates' array")
    raws, malformed = [], None
    try:
        for pos, entry in enumerate(entries):
            raws.append(_certificate_entry(pos, entry))
    except SchemaError as exc:
        malformed = exc
    certs = {cert.node_id: cert for cert in _certificates(raws)}
    if malformed is not None:
        raise malformed
    return certs


def _certificate_entry(pos: int, entry) -> tuple:
    """The raw tuple of one decoded certificate entry (see
    ``_certificates``); SchemaError when its structure is malformed."""
    if not isinstance(entry, dict) or "id" not in entry:
        raise SchemaError("certificate entries must carry an 'id'")
    try:
        node = _integral(entry["id"])
    except (TypeError, ValueError):
        raise SchemaError(
            f"certificate at position {pos}: id {entry['id']!r} is not an integer",
            position=pos, id=entry["id"],
        ) from None
    try:
        per_mode = []
        for name in ("M", "K", "Q", "R", "T"):
            family = entry[name]
            if not isinstance(family, dict):
                raise SchemaError(
                    f"certificate for node {node}: {name} must be an object of mode -> matrix",
                    node=node, matrix=name,
                )
            if name == "M":
                try:
                    keys = sorted(family, key=int)
                except ValueError:
                    key = next(k for k in family if not _is_int(k))
                    raise SchemaError(
                        f"certificate for node {node}: mode key {key!r} is not an integer",
                        node=node, key=key,
                    ) from None
                if not keys:
                    raise SchemaError(f"{_where(node)} declares no modes", node=node)
            per_mode.append(list(map(family.__getitem__, keys)))
            if name == "K":
                per_mode.append(entry["P"])
        per_mode.append(entry["kappa"])
    except KeyError as exc:
        raise SchemaError(f"certificate for node {node} lacks field {exc}", node=node) from exc
    return (node, *per_mode, entry.get("transitions"))


def _is_int(key) -> bool:
    try:
        int(key)
    except ValueError:
        return False
    return True
