"""Swing-dynamics ring benchmark: a power network with a switched topology.

Each bus is a discrete-time second-order system in (phase, frequency); the
coupling topology alternates between two rings (fed by the previous or the
next bus), switching synchronously every few steps.  The whole construction
is closed-form: a one-dimensional abstraction per bus, a common quadratic
certificate matrix, interface gains, and uniform coupling gains, so the
ring composes through a single node template at any size.

The module reproduces the published benchmark quantities for this
configuration next to the formula-derived ones; the two disagree for the
input gains (see ``benchmark_report``), and the formula values are the ones
used for all certified decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import LocalCertificate, LocalGains, derive_gains
from .composition import (
    ComposedCertificate,
    MuCertificate,
    TemplateGains,
    check_small_gain,
    compose_certificate,
    construct_mu,
    templated_gain_operator,
)
from .errors import CertificateError, SchemaError
from .linalg import DEFAULT_TOL, ToleranceProfile
from .network import InterconnectionGraph, Mode, NetworkSpec, SwitchedLinearSubsystem, _paused_gc
from .simulate import SimulationRun, _synchronized, simulate_lockstep

# Certificate matrix for the swing family (verified against the conditions
# at construction time rather than re-synthesized).
CERTIFICATE_M = ((11.20, 12.50), (12.50, 17.83))

# Benchmark values reported elsewhere for the default parameter set, echoed
# for comparison only; certified decisions use the formula-derived values.
REPORTED_RHO_INT = 0.1455
REPORTED_RHO_EXT = 8.1487e-11
REPORTED_SMALL_GAIN_BOUND = 0.7275


@dataclass(frozen=True)
class SwingParams:
    """Ring parameters: per-bus inertia/damping and coupling coefficients.

    l_self is the bus's own voltage-susceptance product from the parameter
    table; the per-mode matrices use the active neighbor coupling (l_prev in
    mode 0, l_next in mode 1).
    """

    n_nodes: int
    m: float = 1e5
    d: float = 1.0
    l_self: float = 4e3
    l_prev: float = 4e3
    l_next: float = 4e3
    kappa: float = 0.2
    switch_period: int = 5

    def __post_init__(self):
        if self.n_nodes < 3:
            raise SchemaError(f"ring needs at least 3 nodes, got {self.n_nodes}")
        if self.m <= 0 or self.d <= 0:
            raise SchemaError("inertia and damping must be positive")
        if not (0.0 < self.d / (2 * self.m) < 1.0):
            raise SchemaError("d/(2m) must lie in (0, 1)")
        if not (0.0 < self.kappa < 1.0):
            raise SchemaError(f"kappa must lie in (0, 1), got {self.kappa}")
        if self.switch_period < 1:
            raise SchemaError("switch period must be >= 1")

    @property
    def c(self) -> float:
        """Abstract pole: 1 - d/(2m)."""
        return 1.0 - self.d / (2.0 * self.m)

    def coupling(self, mode: int) -> float:
        return self.l_prev if mode == 0 else self.l_next


def _concrete_mode(params: SwingParams, i: int, mode: int, n: int) -> Mode:
    lc = params.coupling(mode)
    nb = (i - 1) % n if mode == 0 else (i + 1) % n  # who feeds i
    dest = (i + 1) % n if mode == 0 else (i - 1) % n  # whom i feeds
    return Mode(
        A=[[1.0, 1.0], [-lc / params.m, 1.0 - params.d / params.m]],
        B=[[0.0], [1.0 / params.m]],
        C=[[0.0, 1.0], [1.0, 0.0]],  # row 0: frequency (external); row 1: phase
        D=[[0.0], [lc / params.m]],
        out_blocks={i: (0, 1), dest: (1, 2)},
        in_blocks={nb: (0, 1)},
    )


def _abstract_mode(params: SwingParams, i: int, mode: int, n: int) -> Mode:
    c = params.c
    nb = (i - 1) % n if mode == 0 else (i + 1) % n
    dest = (i + 1) % n if mode == 0 else (i - 1) % n
    return Mode(
        A=[[c]],
        B=[[params.d / (2.0 * params.m) - 0.6]],
        C=[[c - 1.0], [1.0]],  # equals C P
        D=[[0.0]],
        out_blocks={i: (0, 1), dest: (1, 2)},
        in_blocks={nb: (0, 1)},
    )


def generate_ring_network(params: SwingParams) -> NetworkSpec:
    """The n-node switched ring with its one-dimensional abstraction.

    Mode 0 couples each bus to its predecessor, mode 1 to its successor
    (indices wrap, closing the ring), so every bus has exactly one
    in-neighbor per topology.
    """
    n = params.n_nodes
    with _paused_gc():  # a large tree, built as the loaders build theirs
        subs = [
            SwitchedLinearSubsystem(i, [_concrete_mode(params, i, s, n) for s in (0, 1)])
            for i in range(n)
        ]
        abst = [
            SwitchedLinearSubsystem(i, [_abstract_mode(params, i, s, n) for s in (0, 1)])
            for i in range(n)
        ]
        return NetworkSpec(subs, abst)


def template_pair(params: SwingParams):
    """(concrete, abstract) subsystem pair shared by every bus of the ring:
    bus 0, wired as in the smallest (3-node) ring."""
    concrete = SwitchedLinearSubsystem(0, [_concrete_mode(params, 0, s, 3) for s in (0, 1)])
    abstract = SwitchedLinearSubsystem(0, [_abstract_mode(params, 0, s, 3) for s in (0, 1)])
    return concrete, abstract


def verified_template(
    params: SwingParams, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[LocalCertificate, LocalGains]:
    """The closed-form certificate of the swing family and its gains.

    K_s = [l_s - (9/16) m, d - 1.5 m] places the closed loop at a double
    pole 1/4 independently of the coupling; M is the fixed certificate
    matrix; the abstraction maps are P = [1; c - 1], Q_s = l_s, T_s = -l_s,
    R from the weight-optimal interface formula.  The certificate is
    verified once, against the template pair, and the gains come from that
    verification; failure means the parameters left the closed form's
    validity regime.
    """
    m, d = params.m, params.d
    p = np.array([[1.0], [params.c - 1.0]])
    big_m = np.array(CERTIFICATE_M)
    b = np.array([[0.0], [1.0 / m]])
    b_hat = np.array([[d / (2.0 * m) - 0.6]])
    gram = (b.T @ big_m @ b)[0, 0]
    r_gain = np.array([[(b.T @ big_m @ p @ b_hat)[0, 0] / gram]])
    cert = LocalCertificate(
        M=[big_m, big_m],
        K=[
            np.array([[params.coupling(s) - (9.0 / 16.0) * m, d - 1.5 * m]])
            for s in (0, 1)
        ],
        P=p,
        Q=[np.array([[params.coupling(s)]]) for s in (0, 1)],
        R=[r_gain, r_gain],
        T=[np.array([[-params.coupling(s)]]) for s in (0, 1)],
        kappa=params.kappa,
        node_id=0,
    )
    concrete, abstract = template_pair(params)
    try:
        gains = derive_gains(cert, concrete, abstract, tol)
    except CertificateError as exc:
        raise CertificateError(
            f"closed-form certificate invalid for these parameters: {exc}",
            **exc.details,
        ) from exc
    return cert, gains


def closed_form_certificate(
    params: SwingParams, tol: ToleranceProfile = DEFAULT_TOL
) -> LocalCertificate:
    """The verified closed-form certificate (see ``verified_template``)."""
    return verified_template(params, tol)[0]


def ring_gains(params: SwingParams, tol: ToleranceProfile = DEFAULT_TOL) -> LocalGains:
    return verified_template(params, tol)[1]


def topology_graph(params: SwingParams, mode: int) -> InterconnectionGraph:
    """The interconnection graph of one synchronized topology (in-degree 1)."""
    n = params.n_nodes
    step = -1 if mode == 0 else 1
    return InterconnectionGraph(tuple(range(n)), {i: ((i + step) % n,) for i in range(n)})


def templated_ring_operator(gains: LocalGains):
    """One-template gain operator of the ring: every bus reads one neighbor
    and is read by exactly one neighbor, in either topology."""
    return templated_gain_operator(
        [
            TemplateGains(
                lam=gains.lam,
                alpha=gains.alpha,
                rho_int=gains.rho_int,
                n_bar=1,
                readers=((0, 1),),
                rho_ext=gains.rho_ext,
            )
        ]
    )


def compose_ring(
    params: SwingParams, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[ComposedCertificate, MuCertificate, LocalGains, list[LocalCertificate]]:
    """Templated composition materialized for the finite ring.

    Covers synchronized topology switching (each topology has column sums
    equal to the template's), with uniform weights at any ring size.
    """
    cert, gains = verified_template(params, tol)
    core = construct_mu(templated_ring_operator(gains), tol)
    certs = [cert] * params.n_nodes
    composed = compose_certificate(core, [gains] * params.n_nodes, certs)
    return composed, core, gains, certs


@dataclass(frozen=True)
class SwingReport:
    """Formula-derived certificate quantities next to the reported benchmark
    values; ``satisfied`` is decided from the formula values only."""

    alpha: float
    lam: float
    rho_int_formula: float
    rho_int_reported: float
    rho_ext_formula: float
    rho_ext_reported: float
    small_gain_bound_formula: float
    small_gain_bound_reported: float
    satisfied: bool


def benchmark_report(
    params: SwingParams,
    tol: ToleranceProfile = DEFAULT_TOL,
    gains: LocalGains | None = None,
) -> SwingReport:
    """The report for ``params``; pass the template's ``gains`` when they are
    already verified, so the template is not verified again."""
    if gains is None:
        gains = ring_gains(params, tol)
    small_gain = check_small_gain(templated_ring_operator(gains))
    return SwingReport(
        alpha=gains.alpha,
        lam=gains.lam,
        rho_int_formula=gains.rho_int,
        rho_int_reported=REPORTED_RHO_INT,
        rho_ext_formula=gains.rho_ext,
        rho_ext_reported=REPORTED_RHO_EXT,
        small_gain_bound_formula=small_gain.radius_or_bound,
        small_gain_bound_reported=REPORTED_SMALL_GAIN_BOUND,
        satisfied=small_gain.satisfied,
    )


@dataclass
class RingExperiment:
    params: SwingParams
    spec: NetworkSpec
    composed: ComposedCertificate
    gains: LocalGains
    certificates: list[LocalCertificate]
    run: SimulationRun


def run_ring_experiment(
    params: SwingParams,
    horizon: int,
    seed: int = 0,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> RingExperiment:
    """Reference experiment: uhat_i = xhat_i, synchronized period switching.

    The abstract closed loop contracts by 0.4 per step under this controller
    for the default parameters, so uhat vanishes and the output error decays
    to zero.  Initial states are seeded uniform in [-1, 1] per coordinate.
    """
    spec = generate_ring_network(params)
    composed, _, gains, certs = compose_ring(params, tol)
    modes = _synchronized(params.n_nodes, 2, params.switch_period, horizon)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, spec.engine.state.size)
    xhat0 = rng.uniform(-1.0, 1.0, spec.abstract_view().engine.state.size)
    run = simulate_lockstep(spec, certs, composed, x0, xhat0, lambda x_hat, k: x_hat, modes)
    return RingExperiment(params, spec, composed, gains, certs, run)
