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

All functions are pure; mode pairs and samples may be checked in parallel
and reports aggregate order-independently (worst slack is a max).
"""

from __future__ import annotations

import itertools
import json
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
    psd_order,
    solve_linear_least_squares,
)
from .network import Layout, NetworkSpec, SwitchedLinearSubsystem, TaggedEntries

SCHEMA_CERTS = "simnet-certs-v1"


class LocalCertificate:
    """Per-subsystem certificate data; immutable after construction."""

    def __init__(self, M, K, P, Q, R, T, kappa, transitions=None, node_id=None):
        self.M = tuple(m if isinstance(m, SymMatrix) else SymMatrix(m) for m in M)
        self.K = tuple(np.array(k, dtype=float) for k in K)
        self.P = np.array(P, dtype=float)
        self.Q = tuple(np.array(q, dtype=float) for q in Q)
        self.R = tuple(np.array(r, dtype=float) for r in R)
        self.T = tuple(np.array(t, dtype=float) for t in T)
        self.kappa = float(kappa)
        self.node_id = node_id
        self.transitions = (
            tuple((int(a), int(b)) for a, b in transitions) if transitions else None
        )
        self._validate()

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

    def error_vector(self, x, x_hat) -> np.ndarray:
        return np.asarray(x, dtype=float) - self.P @ np.asarray(x_hat, dtype=float)

    def _validate(self):
        if not (0.0 < self.kappa < 1.0):
            raise CertificateError(f"kappa must lie in (0, 1), got {self.kappa}")
        r = self.n_modes
        if not (len(self.K) == len(self.Q) == len(self.R) == len(self.T) == r):
            raise DimensionMismatchError(
                "per-mode matrix families must all have the same length",
                modes=r,
            )
        n, m, nh = self.n, self.m, self.n_abstract
        if self.P.shape[0] != n:
            raise DimensionMismatchError(
                f"P must have {n} rows, got {self.P.shape}", matrix="P"
            )
        for s in range(r):
            if self.M[s].dim != n:
                raise DimensionMismatchError(f"M[{s}] must be {n}x{n}", mode=s)
            eigs = np.linalg.eigvalsh(self.M[s].entries)
            if float(eigs.min()) < -1e-8 * (1.0 + float(np.abs(eigs).max())):
                raise CertificateError(
                    f"M[{s}] must be positive semidefinite "
                    f"(lambda_min = {float(eigs.min()):.3e})",
                    mode=s, lambda_min=float(eigs.min()),
                )
            if self.K[s].shape != (m, n):
                raise DimensionMismatchError(f"K[{s}] must be {m}x{n}", mode=s)
            if self.Q[s].shape != (m, nh):
                raise DimensionMismatchError(f"Q[{s}] must be {m}x{nh}", mode=s)
            for name, family in (("R", self.R), ("T", self.T)):
                if family[s].ndim != 2 or family[s].shape != (m, family[0].shape[1]):
                    raise DimensionMismatchError(
                        f"{name}[{s}] must have {m} rows and as many columns as {name}[0]", mode=s
                    )
        if self.transitions is not None:
            for s, s2 in self.transitions:
                if not (0 <= s < r and 0 <= s2 < r):
                    raise CertificateError(
                        f"transition pair ({s}, {s2}) references an unknown mode",
                        pair=(s, s2),
                    )


@dataclass(frozen=True)
class LocalGains:
    """Dissipation gains extracted from a verified certificate."""

    alpha: float
    lam: float
    rho_int: float
    rho_ext: float
    p_exp: int = 2
    q_exp: int = 2

    def __post_init__(self):
        if self.alpha <= 0:
            raise CertificateError(f"alpha must be positive, got {self.alpha}")
        if not (0.0 < self.lam < 1.0):
            raise CertificateError(f"lambda must lie in (0, 1), got {self.lam}")
        if self.rho_int < 0 or self.rho_ext < 0:
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

    @property
    def failures(self) -> tuple[str, ...]:
        return sum((r.failures for r in self.reports), ())

    def __bool__(self) -> bool:
        return self.gains is not None


def verify_network(
    spec: NetworkSpec,
    certs: dict[int, LocalCertificate],
    tol: ToleranceProfile = DEFAULT_TOL,
) -> dict[int, VerifiedCertificate]:
    """Verify every node's certificate against its abstraction in one pass.

    Returns the outcome per node id, in the spec's node order.  The
    obligations of all nodes are checked together: operands of equal shape
    are stacked and decided with one numpy call per shape and operand, so
    the number of eigen-decompositions depends on the number of distinct
    node shapes, not on the node count.  Reports, margins and gains equal
    the per-node checks' bit for bit.
    """
    if spec.abstract_subsystems is None:
        raise SchemaError("network declares no abstract subsystems; nothing to verify against")
    items = [
        (certs[sub.id], sub, abstract)
        for sub, abstract in zip(spec.subsystems, spec.abstract_subsystems)
    ]
    return dict(zip((sub.id for sub in spec.subsystems), _verify(items, tol)))


def _verify(items, tol: ToleranceProfile) -> list[VerifiedCertificate]:
    """All three obligations and the gains for (cert, concrete, abstract)
    items; gains only for items that pass every obligation."""
    batch = _Batch(items)
    reports = list(
        zip(_output_dominance(batch, tol), _decay(batch, tol), _structure(batch, tol))
    )
    passed = [all(r) for r in reports]
    gains = iter(_gains(_Batch([it for it, ok in zip(items, passed) if ok]), tol))
    return [
        VerifiedCertificate(*r, next(gains) if ok else None)
        for r, ok in zip(reports, passed)
    ]


class _Batch:
    """The (node, mode) and (node, mode pair) items of a list of
    (certificate, concrete, abstract) triples, with their grouping keys.

    ``*_shape`` keys are a node's full shape signature, under which every
    operand of an item stacks; ``*_dim`` keys are the state dimension, under
    which the n x n operands of the eigen-decompositions stack.
    """

    def __init__(self, items):
        self.items = items
        for cert, concrete, _ in items:
            if cert.n != concrete.n:
                raise DimensionMismatchError(
                    f"subsystem {concrete.id}: certificate matrices are {cert.n}x{cert.n} "
                    f"but the state has dimension {concrete.n}",
                    node=concrete.id, n=concrete.n, n_certificate=cert.n,
                )
        codes: dict[tuple, int] = {}  # small ints hash faster than signatures
        signature = [codes.setdefault(_shape_signature(item), len(codes)) for item in items]
        dim = [cert.n for cert, _, _ in items]
        self.modes = [(k, s) for k, (cert, _, _) in enumerate(items) for s in range(cert.n_modes)]
        self.pairs = [
            (k, s, s2) for k, (cert, _, _) in enumerate(items) for s, s2 in cert.admissible_pairs()
        ]
        self.row = {mode: i for i, mode in enumerate(self.modes)}
        self.mode_shape = [signature[k] for k, _ in self.modes]
        self.pair_shape = [signature[k] for k, _, _ in self.pairs]
        self.mode_dim = [dim[k] for k, _ in self.modes]
        self.pair_dim = [dim[k] for k, _, _ in self.pairs]

    def cert(self, field: str, pairs: bool = False, next_mode: bool = False) -> list:
        """Certificate matrix ``field`` per (node, mode) item, or per
        (node, pair) item at the pair's current or next mode."""
        keys = self.pairs if pairs else self.modes
        pos = 2 if next_mode else 1
        items = self.items
        if field == "M":
            return [items[key[0]][0].M[key[pos]].entries for key in keys]
        if field == "P":
            return [items[key[0]][0].P for key in keys]
        return [getattr(items[key[0]][0], field)[key[pos]] for key in keys]

    def system(self, layer: str, field: str, pairs: bool = False) -> list:
        """Mode matrix ``field`` of the concrete or abstract subsystem per
        item, at the item's current mode."""
        keys = self.pairs if pairs else self.modes
        pos = 1 if layer == "concrete" else 2
        items = self.items
        return [getattr(items[key[0]][pos].modes[key[1]], field) for key in keys]


def _shape_signature(item) -> tuple:
    cert, concrete, abstract = item
    mode = concrete.modes[0]
    shapes = [mode.A.shape, mode.B.shape, mode.C.shape, mode.D.shape, cert.P.shape]
    if abstract is not None:
        a_mode = abstract.modes[0]
        shapes += [a_mode.A.shape, a_mode.B.shape, a_mode.C.shape, a_mode.D.shape]
    for family in (cert.K, cert.Q, cert.R, cert.T):
        shapes += [x.shape for x in family]
    return tuple(shapes)


def _batched(fn, keys, *operands) -> list:
    """Apply ``fn`` to stacks of items that share a key.

    ``operands`` are per-item sequences of arrays whose shapes depend only
    on the item's key.  The operands of each key are stacked along a new
    leading axis and passed to ``fn`` in one call; ``fn`` returns one
    array, or a tuple of arrays, with that leading axis.  Returns the
    per-item results in item order, 1-d results as Python floats.
    """
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out = [None] * len(keys)
    for idx in groups.values():
        if len(groups) == 1:
            stacks = [np.array(seq) for seq in operands]
        else:
            stacks = [np.array([seq[i] for i in idx]) for seq in operands]
        result = fn(*stacks)
        single = not isinstance(result, tuple)
        columns = [r.tolist() if r.ndim == 1 else r for r in ((result,) if single else result)]
        for i, r in zip(idx, columns[0] if single else zip(*columns)):
            out[i] = r
    return out


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize a stack as SymMatrix does."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _max_abs(a: np.ndarray) -> np.ndarray:
    return np.abs(a).max(axis=(-2, -1))


def _report(check: str, failures: list, margins: dict) -> VerificationReport:
    return VerificationReport(not failures, check, tuple(failures), margins)


def _output_dominance(batch: _Batch, tol: ToleranceProfile) -> list[VerificationReport]:
    c = batch.system("concrete", "C")
    grams = _batched(lambda c: _sym(np.swapaxes(c, -1, -2) @ c), batch.mode_shape, c)
    psd = _batched(psd_margin_batch, batch.mode_dim, grams, batch.cert("M"))

    def output_match(c, p, c_hat):
        return _max_abs(c @ p - c_hat) if c_hat[0].size else np.zeros(len(c))

    match = _batched(
        output_match, batch.mode_shape, c, batch.cert("P"), batch.system("abstract", "C")
    )
    out = [([], {}) for _ in batch.items]
    for (k, s), (margin, scale), mt in zip(batch.modes, psd, match):
        failures, margins = out[k]
        margins[s] = {"psd_margin": margin, "output_match": mt}
        if margin < -tol.psd_tol * scale:
            failures.append(f"mode {s}: output Gram matrix is not dominated by M")
        if mt > tol.eig_tol:
            failures.append(f"mode {s}: C P differs from the abstract C by {mt:.3e}")
    return [_report("output_dominance", *o) for o in out]


def _decay(batch: _Batch, tol: ToleranceProfile) -> list[VerificationReport]:
    loops = _batched(
        lambda a, b, k: a + b @ k,
        batch.mode_shape,
        batch.system("concrete", "A"),
        batch.system("concrete", "B"),
        batch.cert("K"),
    )
    lhs = _batched(
        lambda f, m_next: _sym(3.0 * np.swapaxes(f, -1, -2) @ m_next @ f),
        batch.pair_dim,
        [loops[batch.row[k, s]] for k, s, _ in batch.pairs],
        batch.cert("M", pairs=True, next_mode=True),
    )
    rhs = _batched(
        lambda rate, m: _sym(rate[:, None, None] * m),
        batch.pair_dim,
        [1.0 - batch.items[k][0].kappa for k, _, _ in batch.pairs],
        batch.cert("M", pairs=True),
    )
    psd = _batched(psd_margin_batch, batch.pair_dim, lhs, rhs)
    out = [([], {}) for _ in batch.items]
    for (k, s, s2), (margin, scale) in zip(batch.pairs, psd):
        failures, margins = out[k]
        margins[(s, s2)] = margin
        if not margin >= -tol.psd_tol * scale:
            failures.append(
                f"mode pair ({s} -> {s2}): decay inequality fails "
                f"(lambda_min margin {margin:.3e})"
            )
    return [_report("decay", *o) for o in out]


def _structure(batch: _Batch, tol: ToleranceProfile) -> list[VerificationReport]:
    a = batch.system("concrete", "A")
    b = batch.system("concrete", "B")
    p = batch.cert("P")
    state = _batched(
        lambda a, p, a_hat, b, q: _max_abs(a @ p - p @ a_hat + b @ q),
        batch.mode_shape, a, p, batch.system("abstract", "A"), b, batch.cert("Q"),
    )

    def coupling(d, p, d_hat, b, t):
        if d[0].size or d_hat[0].size or t[0].size:
            return _max_abs(d - p @ d_hat + b @ t)
        return np.zeros(len(d))

    coupled = _batched(
        coupling, batch.mode_shape,
        batch.system("concrete", "D"), p, batch.system("abstract", "D"), b, batch.cert("T"),
    )
    a_max = _batched(_max_abs, batch.mode_shape, a)
    out = [([], {}) for _ in batch.items]
    for (k, s), res_state, res_coupling, amax in zip(batch.modes, state, coupled, a_max):
        failures, margins = out[k]
        margins[s] = {"state": res_state, "coupling": res_coupling}
        limit = tol.eig_tol * (1.0 + amax)
        if res_state > limit:
            failures.append(f"mode {s}: state matching residual {res_state:.3e}")
        if res_coupling > limit:
            failures.append(f"mode {s}: coupling matching residual {res_coupling:.3e}")
    return [_report("structure", *o) for o in out]


def _gains(batch: _Batch, tol: ToleranceProfile) -> list[LocalGains]:
    """Gains of certificates that passed all three obligations; see
    derive_gains for the formulas."""
    items = batch.items
    # square roots of the M_s2 that some admissible pair enters
    entered = list(dict.fromkeys((k, s2) for k, _, s2 in batch.pairs))
    roots = dict(zip(entered, _batched(
        lambda m: principal_sqrt_batch(m, tol),
        [items[k][0].n for k, _ in entered],
        [items[k][0].M[s2].entries for k, s2 in entered],
    )))
    mismatch = _batched(
        lambda b, r, p, b_hat: b @ r - p @ b_hat,
        batch.mode_shape, batch.system("concrete", "B"), batch.cert("R"), batch.cert("P"),
        batch.system("abstract", "B"),
    )
    root = [roots[k, s2] for k, _, s2 in batch.pairs]

    def norms(sq, x):
        return operator_norm_batch(sq @ x)

    internal = _batched(norms, batch.pair_shape, root, batch.system("concrete", "D", pairs=True))
    external = _batched(
        norms, batch.pair_shape, root, [mismatch[batch.row[k, s]] for k, s, _ in batch.pairs]
    )
    rho = [[0.0, 0.0] for _ in items]
    for (k, _, _), n_int, n_ext in zip(batch.pairs, internal, external):
        acc = rho[k]
        acc[0] = max(acc[0], 3.0 * n_int**2)
        acc[1] = max(acc[1], 3.0 * n_ext**2)
    return [
        LocalGains(alpha=1.0, lam=cert.kappa, rho_int=r_int, rho_ext=r_ext)
        for (cert, _, _), (r_int, r_ext) in zip(items, rho)
    ]


def verify_output_dominance(
    cert: LocalCertificate,
    concrete: SwitchedLinearSubsystem,
    abstract_sub: SwitchedLinearSubsystem,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> VerificationReport:
    """Per mode: C'C below M in the semidefinite order, and C P matching the
    abstract output map entrywise within eig_tol.

    Together these give the output-error lower bound with unit coefficient.
    """
    return _output_dominance(_Batch([(cert, concrete, abstract_sub)]), tol)[0]


def verify_decay(
    cert: LocalCertificate,
    concrete: SwitchedLinearSubsystem,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> VerificationReport:
    """3 F_s' M_s2 F_s <= (1 - kappa) M_s over all admissible mode pairs."""
    return _decay(_Batch([(cert, concrete, None)]), tol)[0]


def verify_structure(
    cert: LocalCertificate,
    concrete: SwitchedLinearSubsystem,
    abstract_sub: SwitchedLinearSubsystem,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> VerificationReport:
    """Structural matching: A P = P Ahat - B Q and D = P Dhat - B T per mode,
    with residuals measured entrywise against eig_tol * (1 + max|A|).
    """
    return _structure(_Batch([(cert, concrete, abstract_sub)]), tol)[0]


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
    verified = _verify([(cert, concrete, abstract_sub)], tol)[0]
    if not verified:
        bad = [r for r in verified.reports if not r]
        raise CertificateError(
            "certificate verification failed: "
            + "; ".join(f"{r.check}: {', '.join(r.failures)}" for r in bad),
            checks={r.check: r.failures for r in bad},
        )
    return verified.gains


def interface_input(cert: LocalCertificate, x, x_hat, u_hat, w_hat, mode: int) -> np.ndarray:
    """Refined input u = K (x - P xhat) + Q xhat + R uhat + T what."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    u_hat = np.asarray(u_hat, dtype=float)
    w_hat = np.asarray(w_hat, dtype=float)
    if x.shape != (cert.n,) or x_hat.shape != (cert.n_abstract,):
        raise DimensionMismatchError(
            f"interface expects state dims ({cert.n},)/({cert.n_abstract},), "
            f"got {x.shape}/{x_hat.shape}"
        )
    return (
        cert.K[mode] @ cert.error_vector(x, x_hat)
        + cert.Q[mode] @ x_hat
        + cert.R[mode] @ u_hat
        + cert.T[mode] @ w_hat
    )


def evaluate_V(cert: LocalCertificate, x, x_hat, mode: int) -> float:
    """Tracking energy (x - P xhat)' M_mode (x - P xhat); nonnegative."""
    e = cert.error_vector(x, x_hat)
    return max(float(e @ cert.M[mode].entries @ e), 0.0)


class CompiledCertificates:
    """The certificates of a node list, in node order, compiled for flat
    vectors like network.NetworkEngine: the P, K, Q, R, T and M blocks of
    every (node, mode) become tagged entries.  The layouts follow the
    certificates (R and T set the abstract input widths); ``interface_input``
    and ``evaluate_V`` above are the per-node references.
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
            return TaggedEntries.family(per_node, rows, cols, self.slots)

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

    pointwise with slack 1e-9 * (1 + |V|).  Slack is reported so that
    negative means satisfied; the worst case is the max over samples.
    """
    if gains is None:
        gains = derive_gains(cert, concrete, abstract_sub, tol)
    rng = np.random.default_rng(seed)
    worst = -np.inf
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
        bad = slack > allowed
        violations += int(bad.sum())
        total += samples
        idx = int(np.argmax(slack))
        if slack[idx] > worst:
            worst = float(slack[idx])
            if bad[idx]:
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
    """
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
    for s in range(concrete.n_modes):
        c = concrete.modes[s].C
        if not psd_order(SymMatrix(c.T @ c), result, tol):
            raise CertificateError("synthesized matrix fails output dominance", mode=s)
        lhs = SymMatrix(3.0 * (loops[s] / scale).T @ result.entries @ (loops[s] / scale))
        if not psd_order(lhs, SymMatrix((1.0 - kappa) * result.entries), tol):
            raise CertificateError("synthesized matrix fails the decay condition", mode=s)
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
    eig_tol * (1 + max|A_s|) means the abstraction is infeasible for this P.
    Chat_s = C_s P always; R_s is the weight-optimal interface gain
    (BMB)^-1 BMP Bhat minimizing the external-input mismatch (identity
    weight when none is given).  Dhat defaults to zero (fully decoupled
    abstraction).
    """
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
        if res_q > limit:
            raise StructuralInfeasibleError(
                f"abstraction infeasible for this P: state matching residual "
                f"{res_q:.3e} in mode {s}",
                equation="state", mode=s, residual=res_q,
            )
        t, res_t = solve_linear_least_squares(cm.B, p @ d_hats[s] - cm.D, tol)
        if res_t > limit:
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificates_to_json(certs), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_certificates(path) -> dict[int, LocalCertificate]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}", path=str(path)) from exc
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_CERTS:
        raise SchemaError(
            f"missing or unsupported schema tag (expected '{SCHEMA_CERTS}')",
            schema=data.get("schema") if isinstance(data, dict) else None,
        )
    certs = {}
    for entry in data.get("certificates", []):
        if "id" not in entry:
            raise SchemaError("certificate entries must carry an 'id'")
        node = int(entry["id"])
        try:
            mode_keys = sorted(entry["M"], key=int)
            certs[node] = LocalCertificate(
                M=[entry["M"][k] for k in mode_keys],
                K=[entry["K"][k] for k in mode_keys],
                P=entry["P"],
                Q=[entry["Q"][k] for k in mode_keys],
                R=[entry["R"][k] for k in mode_keys],
                T=[entry["T"][k] for k in mode_keys],
                kappa=entry["kappa"],
                transitions=entry.get("transitions"),
                node_id=node,
            )
        except KeyError as exc:
            raise SchemaError(
                f"certificate for node {node} lacks field {exc}", node=node
            ) from exc
    return certs
