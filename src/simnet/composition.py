"""Network-level gain composition.

From verified per-node gains, read as columns (a NetworkVerification's,
or those of LocalGains per node), this module assembles the coupling-gain
operator as an edge list, certifies the small-gain condition (a certified
upper bound on the spectral radius of the normalized operator below one,
from a Collatz-Wielandt bracket, or a column-sum bound for templated
families), constructs the aggregation weights mu with the network decay
rate (bisection on brackets, then a sparse solve on the same edge list),
and emits the composed certificate whose value is

    V(x, xhat, modes) = sum_i mu_i V_i(x_i, xhat_i).

Infinite families are handled in templated form only: finitely many node
templates with uniform gains and bounded fan-in/fan-out, certified through
column-sum bounds (valid because the spectral radius of a nonnegative
operator is dominated by its sup column sum); simulation always runs on
finite instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certificates import CompiledCertificates, DissipationReport, NetworkVerification
from .errors import CompositionError, ConvergenceError, DimensionMismatchError
from .linalg import (
    DEFAULT_TOL,
    EdgePattern,
    ToleranceProfile,
    edge_pattern,
    radius_bracket,
    resolvent_solve,
)
from .network import InterconnectionGraph, NetworkSpec

# strictness margins pinned by the contract
RADIUS_MARGIN = 1e-9
MU_FEASIBILITY_MARGIN = 1e-6
EQ_SLACK = 1e-9


@dataclass(frozen=True)
class TemplateGains:
    """Uniform gains of one node template plus who reads its output.

    readers lists (reader_template_index, count): how many instances of that
    template take a node of this template as in-neighbor.  A non-finite
    count models unbounded fan-out and is rejected by the bound check.
    """

    lam: float
    alpha: float
    rho_int: float
    n_bar: int
    readers: tuple[tuple[int, float], ...]
    rho_ext: float = 0.0


@dataclass(frozen=True)
class GainOperator:
    """Coupling gains of a finite network as an edge list.

    Entry k is gamma[k] = Gamma[rows[k], cols[k]] > 0, the gain with which
    node cols[k] loads node rows[k] (positions in ``node_ids``); entries are
    sorted by (row, col), one per pair, and zero gains are left out.
    """

    node_ids: tuple[int, ...]
    rows: np.ndarray
    cols: np.ndarray
    gamma: np.ndarray
    lam: np.ndarray

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @cached_property
    def pattern(self) -> EdgePattern:
        """Strongly connected components of the coupling graph, shared by
        every radius bracket on this operator."""
        return edge_pattern(self.rows, self.cols, self.n)

    @property
    def gamma_colsum_sup(self) -> float:
        """sup over columns of the gamma column sums (finite-loading statistic)."""
        return float(np.bincount(self.cols, self.gamma, minlength=self.n).max(initial=0.0))


@dataclass(frozen=True)
class TemplatedGainOperator:
    """Uniform gains of finitely many node templates, for infinite families."""

    templates: tuple[TemplateGains, ...]

    def gamma_column_sum(self, j: int) -> float:
        """Total gain loading on the output of template j."""
        tpl = self.templates[j]
        return sum(
            count * self.templates[t].rho_int * self.templates[t].n_bar / tpl.alpha
            for t, count in tpl.readers
        )

    def psi_column_sum(self, j: int) -> float:
        tpl = self.templates[j]
        return sum(
            count
            * self.templates[t].rho_int
            * self.templates[t].n_bar
            / (tpl.alpha * self.templates[t].lam)
            for t, count in tpl.readers
        )


def build_gain_operator(gains, graph: InterconnectionGraph) -> GainOperator:
    """Gain operator on the given graph: the one-mode case of
    build_gain_operator_from_network.

    gamma[i, j] = rho_int_i * N_i * (1 / alpha_j) for j feeding i, with N_i
    the in-degree of i in this graph.  ``gains`` is a NetworkVerification
    or a sequence of LocalGains aligned with graph.nodes, or a dict of
    LocalGains keyed by node id.
    """
    pos = {node: p for p, node in enumerate(graph.nodes)}
    fan_ins = [graph.in_neighbors.get(i, ()) for i in graph.nodes]
    degree = np.array([len(fan_in) for fan_in in fan_ins], dtype=np.intp)
    reader = np.repeat(np.arange(len(fan_ins)), degree)
    source = np.array([pos[j] for fan_in in fan_ins for j in fan_in], dtype=np.intp)
    return _edge_operator(graph.nodes, gains, reader, source, degree[reader])


def build_gain_operator_from_network(spec: NetworkSpec, gains) -> GainOperator:
    """Mode-robust gain operator straight from a network spec.

    Uses per-mode in-neighbor sets and takes the entrywise worst case over
    modes, so the result is valid for arbitrary (asynchronous) switching.
    The sets are the live in-blocks of the concrete layer's block table,
    which an abstract view shares.
    """
    return _edge_operator(spec.graph.nodes, gains, *spec._wired.fan_in)


def _edge_operator(node_ids, gains, reader, source, degree) -> GainOperator:
    """Edge-list operator with gamma[i, j] the largest rho_int_i * d / alpha_j
    over the entries k with (reader, source, degree)[k] = (i, j, d), i and j
    positions in ``node_ids``."""
    lam, alpha, rho_int, _ = _gain_columns(gains, node_ids)
    n = len(node_ids)
    cand = rho_int[reader] * degree.astype(float) / alpha[source]
    keys, slot = np.unique(reader * n + source, return_inverse=True)
    gamma = np.zeros(keys.size)
    np.maximum.at(gamma, slot, cand)
    keep = gamma > 0.0
    rows, cols = np.divmod(keys[keep], n)
    return GainOperator(
        node_ids=tuple(node_ids),
        rows=rows,
        cols=cols,
        gamma=gamma[keep],
        lam=lam,
    )


def templated_gain_operator(templates) -> TemplatedGainOperator:
    return TemplatedGainOperator(templates=tuple(templates))


def _gain_columns(gains, node_ids) -> tuple[np.ndarray, ...]:
    """lam, alpha, rho_int and rho_ext in ``node_ids`` order: ``gains`` is
    a dict of LocalGains keyed by node id, or a NetworkVerification or a
    sequence of LocalGains aligned with node_ids.  A node without gains
    raises CompositionError naming it (a failed node by the verification's
    own id)."""
    verified = isinstance(gains, NetworkVerification)
    if verified:
        missing = [i for i, ok in zip(gains.node_ids, gains.passed.all(axis=1)) if not ok]
    elif isinstance(gains, dict):
        missing = [i for i in node_ids if i not in gains]
        gains = [gains.get(i) for i in node_ids]
    else:
        gains, missing = list(gains), []
    count = len(gains.node_ids if verified else gains)
    if count != len(node_ids):
        raise DimensionMismatchError(f"need gains for {len(node_ids)} nodes, got {count}")
    if missing:
        raise CompositionError(f"missing gains for nodes {missing}", nodes=missing)
    if verified:
        return gains.lam, np.ones(count), gains.rho_int, gains.rho_ext
    return tuple(
        np.array([getattr(g, f) for g in gains], dtype=float)
        for f in ("lam", "alpha", "rho_int", "rho_ext")
    )


@dataclass(frozen=True)
class SmallGainResult:
    """The decision and its evidence.  For a finite operator radius_or_bound
    is the certified upper bound hi on rho(Psi), ``lower`` the lower bound
    lo and ``v`` the positive vector certifying both; a templated operator
    has only its column-sum bound."""

    radius_or_bound: float
    satisfied: bool
    kind: str
    lower: float | None = None
    v: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.satisfied


def check_small_gain(
    op: GainOperator | TemplatedGainOperator, tol: ToleranceProfile = DEFAULT_TOL
) -> SmallGainResult:
    """Certify the small-gain condition.

    Finite: a Collatz-Wielandt bracket lo <= rho(Psi) <= hi on
    Psi = Lambda^-1 Gamma, tightened to width eig_tol * hi; satisfied
    iff hi < 1 - RADIUS_MARGIN, not satisfied iff lo >= 1 - RADIUS_MARGIN,
    and a bracket still straddling that line after iter_max raises
    ConvergenceError.  Templated: sup column sum of Psi below one (which
    dominates the radius for nonnegative operators, and is finite exactly
    when every template has bounded fan-out).
    """
    if isinstance(op, GainOperator):
        bracket = radius_bracket(
            op.pattern, op.gamma / op.lam[op.rows], tol, threshold=1.0 - RADIUS_MARGIN
        )
        return SmallGainResult(
            bracket.hi, bracket.hi < 1.0 - RADIUS_MARGIN, "finite", bracket.lo, bracket.v
        )
    sums = [op.psi_column_sum(j) for j in range(len(op.templates))]
    if any(not math.isfinite(s) for s in sums):
        raise CompositionError(
            "templated gain operator has unbounded column sums (infinite fan-out)",
            column_sums=sums,
        )
    bound = max(sums)
    return SmallGainResult(bound, bound < 1.0, "templated")


@dataclass(frozen=True)
class MuCertificate:
    """Aggregation weights and the network decay rate they certify.

    mu is None for templated operators (uniform weights, materialized when
    the composed certificate is built for a finite instance).
    """

    lambda_inf: float
    mu: np.ndarray | None
    operator: GainOperator | TemplatedGainOperator


def construct_mu(
    op: GainOperator | TemplatedGainOperator,
    tol: ToleranceProfile = DEFAULT_TOL,
    small_gain: SmallGainResult | None = None,
) -> MuCertificate:
    """Construct weights mu > 0 and the largest certifiable decay rate.

    ``small_gain`` is check_small_gain's result for ``op`` when the caller
    already has it; otherwise the check runs here.

    Finite case: bisection for the largest lam_inf in (0, min lam_i) with a
    radius bracket on T = Gamma (Lambda - lam_inf I)^-1 certifying
    r(T) <= 1 - 1e-6 (each probe stops once its bracket decides, warm
    started from the previous probe's vector); at that rate mu solves
    (I - T') mu = 1, which by Neumann nonnegativity gives mu >= 1 and the
    componentwise weighted-decay inequality with margin.  The solve is
    linalg.resolvent_solve on T's edge list, its right Perron vector warm
    started from the bisection's last bracket: a Perron-deflated Neumann
    iteration with residual at most 1e-8, so mu is within a relative 1e-8
    of the exact solution, and no n x n array is formed.  Only when that
    iteration gives up (no spectral gap, as on a one-way ring, or a -rho
    eigenvalue, as on a bipartite graph) does it take a dense solve, whose
    residual bounds nothing (see linalg.ResolventSolution); the weights
    pass _verify_weighted_decay either way.
    Templated case: uniform weights and lam_inf = min over templates of
    (lam - gamma column sum), required positive.
    """
    sg = small_gain if small_gain is not None else check_small_gain(op, tol)
    if not sg.satisfied:
        raise CompositionError(
            f"small-gain condition not satisfied (radius/bound {sg.radius_or_bound:.6f})",
            radius_or_bound=sg.radius_or_bound,
        )
    if isinstance(op, TemplatedGainOperator):
        lam_inf = min(
            t.lam - op.gamma_column_sum(j) for j, t in enumerate(op.templates)
        )
        if lam_inf <= 0.0:
            raise CompositionError(
                f"templated decay margin is nonpositive ({lam_inf:.3e})",
                lambda_inf=lam_inf,
            )
        return MuCertificate(lambda_inf=lam_inf, mu=None, operator=op)

    lam, rows, cols, gamma = op.lam, op.rows, op.cols, op.gamma
    lam_floor = float(lam.min())
    # Lambda maps the Perron vector of Psi = Lambda^-1 Gamma to that of
    # T = Gamma Lambda^-1, the first probe's operator
    v = None if sg.v is None else lam * sg.v

    def feasible(x: float) -> bool:
        nonlocal v
        if x >= lam_floor:
            return False
        try:
            bracket = radius_bracket(
                op.pattern, gamma / (lam[cols] - x), tol,
                threshold=1.0 - MU_FEASIBILITY_MARGIN, early_exit=True, v0=v,
            )
        except ConvergenceError:  # still straddling: not certified feasible
            return False
        v = bracket.v
        return bracket.hi <= 1.0 - MU_FEASIBILITY_MARGIN

    if not feasible(0.0):
        raise CompositionError(
            "no feasible decay rate: the normalized gain operator is too close "
            "to the small-gain boundary (numerical degeneracy)",
        )
    lo, hi = 0.0, lam_floor
    while hi - lo > MU_FEASIBILITY_MARGIN:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    lam_inf = lo
    if lam_inf <= MU_FEASIBILITY_MARGIN:
        raise CompositionError(
            f"no feasible decay rate above tolerance (lambda_inf = {lam_inf:.3e})",
            lambda_inf=lam_inf,
        )
    # T[i, j] = gamma_ij / (lam_j - lam_inf); the last probe's v is close to
    # its Perron vector
    mu = resolvent_solve(rows, cols, gamma / (lam[cols] - lam_inf), op.n, v).x
    core = MuCertificate(lambda_inf=lam_inf, mu=mu, operator=op)
    _verify_weighted_decay(core)
    return core


def _verify_weighted_decay(core: MuCertificate) -> None:
    """Componentwise check of the weighted-decay inequality before returning."""
    op = core.operator
    mu = core.mu
    if np.any(mu <= 0.0):
        raise CompositionError("constructed weights are not positive", mu=mu.tolist())
    gamma_t_mu = np.bincount(op.cols, op.gamma * mu[op.rows], minlength=op.n)
    lhs = (-op.lam * mu + gamma_t_mu) / mu
    worst = float(lhs.max())
    if worst > -core.lambda_inf + EQ_SLACK:
        raise CompositionError(
            f"weighted-decay inequality violated (worst {worst:.3e} vs "
            f"{-core.lambda_inf:.3e})",
            worst=worst, lambda_inf=core.lambda_inf,
        )


class ComposedCertificate:
    """Network certificate: weighted sum of local tracking energies."""

    b_exp = 2

    def __init__(self, mu, lambda_inf, alpha_total, rho_ext_coeff, certificates):
        self.mu = np.asarray(mu, dtype=float)
        self.lambda_inf = float(lambda_inf)
        self.alpha_total = float(alpha_total)
        self.rho_ext_coeff = float(rho_ext_coeff)
        self.certificates = tuple(certificates)
        if not np.all(self.mu > 0.0):  # each comparison fails on NaN
            raise CompositionError("mu must be positive componentwise")
        if not (0.0 < self.lambda_inf < 1.0):
            raise CompositionError(
                f"lambda_inf must lie in (0, 1), got {self.lambda_inf}"
            )
        if not self.alpha_total > 0.0:
            raise CompositionError("alpha_total must be positive")
        if not self.rho_ext_coeff >= 0.0:
            raise CompositionError("rho_ext_coeff must be nonnegative")

    @property
    def mu_min(self) -> float:
        return float(self.mu.min())

    @property
    def mu_max(self) -> float:
        return float(self.mu.max())

    @cached_property
    def engine(self) -> CompiledCertificates:
        """The certificates compiled for flat evaluation, on first use."""
        return CompiledCertificates(self.certificates)

    def evaluate_V(self, x: np.ndarray, x_hat: np.ndarray, modes) -> float:
        """V = sum_i mu_i V_i at flat stacked states and abstract states
        (``engine`` layouts) and one mode per node."""
        return self._value(self.engine.slots.select(modes), x, x_hat)

    def _value(self, active: np.ndarray, x: np.ndarray, x_hat: np.ndarray) -> float:
        """V at the active (node, mode) slots of ``engine``."""
        return float(np.sum(self.mu * self.engine.energies(active, x, x_hat)))


def compose_certificate(core: MuCertificate, gains, local_certs) -> ComposedCertificate:
    """Materialize the composed certificate for a finite node list.

    ``gains`` (see ``_gain_columns``) is read against the certificates'
    node ids; for templated cores the uniform weights are instantiated at
    their count.  alpha = mu_min * min alpha_i and the external-input term
    is rho_ext(t) = mu_max * max rho_ext_i * t^2.
    """
    certs = list(local_certs)
    ids = [p if c.node_id is None else c.node_id for p, c in enumerate(certs)]
    _, alpha, _, rho_ext = _gain_columns(gains, ids)
    if core.mu is None:
        mu = np.ones(len(certs))
    else:
        if len(core.mu) != len(certs):
            raise DimensionMismatchError(
                f"mu has {len(core.mu)} entries but {len(certs)} certificates given"
            )
        mu = core.mu
    alpha_total = float(mu.min()) * float(alpha.min())
    rho_ext_coeff = float(mu.max()) * float(rho_ext.max())
    return ComposedCertificate(mu, core.lambda_inf, alpha_total, rho_ext_coeff, certs)


class Lockstep:
    """A network, its abstraction and the interfaces, stepped together on
    flat vectors (the layouts of ``spec.engine`` and of the abstract view's
    engine).

    A step assembles what from the abstract outputs, refines uhat into
    u = K (x - P xhat) + Q xhat + R uhat + T what through the certificates
    ``certs``, advances both layers under the same modes and evaluates the
    composed V at the current states.
    """

    def __init__(self, spec: NetworkSpec, certs, composed: ComposedCertificate):
        certs = tuple(certs)
        self.concrete = spec.engine
        self.abstract = spec.abstract_view().engine
        self.composed = composed
        # the composed certificate's own certificates are compiled once
        self.interface = (
            composed.engine if certs == composed.certificates else CompiledCertificates(certs)
        )
        # equal slot layouts let one mode selection serve every engine
        ours = [self.concrete.input, self.abstract.input, self.abstract.internal_input]
        ours += [self.concrete.state, self.abstract.state, self.concrete.slots] * 2
        theirs = [self.interface.input, self.interface.abstract_input,
                  self.interface.abstract_internal]
        for compiled in (self.interface, composed.engine):
            theirs += [compiled.state, compiled.abstract_state, compiled.slots]
        if [a.sizes for a in ours] != [b.sizes for b in theirs]:
            raise DimensionMismatchError("certificate dimensions do not match the network")

    def step(self, x: np.ndarray, x_hat: np.ndarray, u_hat: np.ndarray, modes):
        """(x_next, x_hat_next, y, y_hat, V): the next states, the external
        outputs of both layers and V, all at ``modes``."""
        active = self.concrete.slots.select(modes)
        x_hat_next, _, w_hat, y_hat = self.abstract.step(x_hat, u_hat, active)
        u = self.interface.interface_input(active, x, x_hat, u_hat, w_hat)
        x_next, _, _, y = self.concrete.step(x, u, active)
        return x_next, x_hat_next, y, y_hat, self.composed._value(active, x, x_hat)


def check_composed_dissipation(
    composed: ComposedCertificate,
    spec: NetworkSpec,
    samples: int = 500,
    seed: int = 0,
    synchronized: bool = False,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> DissipationReport:
    """Refutation oracle for the composed one-step inequality on a finite net.

    Each sample draws states, abstract states, abstract inputs and a mode
    pair (per node, or when ``synchronized`` one shared pair among those
    admissible for every node, in node 0's order; use that for certificates
    that cover synchronized topology switching only), wires the
    internal inputs consistently on both layers, refines u through the
    interfaces and requires

        V'(x+, xhat+) - V(x, xhat) <= -lambda_inf V + rho_ext(|uhat|_2)

    with slack 1e-9 * (1 + V); a NaN slack counts as a violation and ranks
    above every number, and the witness is the worst violating sample.
    ``samples`` must be positive.
    """
    if samples < 1:
        raise DimensionMismatchError(f"samples must be positive, got {samples}")
    certs = composed.certificates
    if spec.abstract_subsystems is None:
        raise CompositionError("composed dissipation needs declared abstract subsystems")
    if len(certs) != spec.n_nodes:
        raise DimensionMismatchError(
            f"composed certificate covers {len(certs)} nodes, network has {spec.n_nodes}"
        )
    rng = np.random.default_rng(seed)
    if synchronized:
        if len({sub.n_modes for sub in spec.subsystems}) != 1:
            raise CompositionError(
                "synchronized mode draws need a uniform mode count across nodes"
            )
        # one pair for all nodes, drawn from those every node admits
        admissible = [[p for p in certs[0].admissible_pairs()
                       if all(p in cert.admissible_pairs() for cert in certs)]]
        if not admissible[0]:
            raise CompositionError("no mode pair is admissible for every node")
    else:
        admissible = [cert.admissible_pairs() for cert in certs]
    lockstep = Lockstep(spec, certs, composed)
    # one flat draw per quantity is the same stream as one draw per node
    sizes = (lockstep.concrete.state.size, lockstep.abstract.state.size,
             lockstep.abstract.input.size)
    worst = worst_rank = witness_rank = -np.inf
    witness = None
    violations = 0
    for _ in range(samples):
        x, x_hat, u_hat = (rng.uniform(-1, 1, size) for size in sizes)
        draws = [pairs[rng.integers(len(pairs))] for pairs in admissible]
        if synchronized:
            draws *= spec.n_nodes
        modes_now, modes_next = [s for s, _ in draws], [s2 for _, s2 in draws]
        x_next, x_hat_next, _, _, v_now = lockstep.step(x, x_hat, u_hat, modes_now)
        v_next = composed.evaluate_V(x_next, x_hat_next, modes_next)
        u_hat_sq = float(np.sum(u_hat**2))
        slack = v_next - v_now - (
            -composed.lambda_inf * v_now + composed.rho_ext_coeff * u_hat_sq
        )
        allowed = 1e-9 * (1.0 + abs(v_now))
        rank = math.inf if math.isnan(slack) else slack
        if rank > worst_rank:
            worst_rank, worst = rank, float(slack)
        if not slack <= allowed:
            violations += 1
            if witness is None or rank > witness_rank:
                witness_rank = rank
                witness = {
                    "modes_now": modes_now,
                    "modes_next": modes_next,
                    "V": v_now,
                    "V_next": v_next,
                    "slack": float(slack),
                }
    return DissipationReport(
        ok=violations == 0,
        worst_slack=worst,
        samples=samples,
        violations=violations,
        witness=witness,
    )
