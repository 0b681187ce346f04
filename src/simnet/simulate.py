"""Lockstep simulation of a concrete network against its abstraction.

Both layers advance under a shared switching signal.  At every step the
abstract controller picks uhat, each node's interface refines it into the
concrete input u_i (wiring what from abstract neighbor outputs and w from
concrete neighbor outputs), and the run records output errors, the composed
certificate value and input norms.  Two trajectory checks make the run an
oracle for the certificate: the one-step decrease of V and the closed-form
error envelope

    |y(k) - yhat(k)|_2 <= theta beta^k V(0)^(1/b) + gamma_ext(sup_{j<=k} |uhat(j)|_2)

with theta = alpha^(-1/b), beta = (1 - lambda_inf)^(1/b) and
gamma_ext(t) = (rho_ext(t) / (lambda_inf alpha))^(1/b), obtained by unrolling
the decrease inequality and splitting the 1/b power subadditively.

Each step is one compiled lockstep step (composition.Lockstep) on the flat
stacked states of all nodes: a fixed sequence of gathers and bincounts over
tagged matrix entries, in an order that does not depend on the data or on
the thread count, so identical inputs give bitwise-identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composition import ComposedCertificate, Lockstep
from .errors import DimensionMismatchError
from .network import NetworkSpec, SwitchingSignal


@dataclass
class SimulationRun:
    """Trajectories and traces of one lockstep run (indices are time steps)."""

    horizon: int
    node_ids: tuple[int, ...]
    abstract_states: list[list[np.ndarray]]
    external_outputs: list[list[np.ndarray]]
    abstract_external_outputs: list[list[np.ndarray]]
    modes: list[list[int]]
    v_trace: list[float]
    error_trace: list[float]
    u_hat_norms: list[float]


def simulate_lockstep(
    spec: NetworkSpec,
    local_certs,
    composed: ComposedCertificate,
    x0,
    xhat0,
    abstract_controller,
    switching: SwitchingSignal,
    horizon: int,
) -> SimulationRun:
    """Run both networks for ``horizon`` steps, refining inputs per node.

    ``abstract_controller(abstract_states, k)`` returns the per-node uhat.
    Traces cover k = 0..horizon inclusive; inputs at the final step are
    evaluated but not applied.
    """
    certs = list(local_certs)
    if len(certs) != spec.n_nodes:
        raise DimensionMismatchError(
            f"need one certificate per node ({spec.n_nodes}), got {len(certs)}"
        )
    if horizon < 0:
        raise DimensionMismatchError(f"horizon must be nonnegative, got {horizon}")
    if switching.horizon is not None and switching.horizon < horizon + 1:
        raise DimensionMismatchError(
            f"switching horizon {switching.horizon} does not cover {horizon + 1} steps",
            horizon=horizon,
        )
    lockstep = Lockstep(spec, certs, composed)
    concrete, abstract = lockstep.concrete, lockstep.abstract
    x = concrete.state.stack(x0)
    x_hat = abstract.state.stack(xhat0)

    run = SimulationRun(
        horizon=horizon,
        node_ids=spec.graph.nodes,
        abstract_states=[],
        external_outputs=[], abstract_external_outputs=[],
        modes=[], v_trace=[], error_trace=[], u_hat_norms=[],
    )
    for k in range(horizon + 1):
        modes = switching.modes_at(k)
        hat_states = abstract.state.split(x_hat)
        u_hat = abstract.input.stack(abstract_controller(hat_states, k))
        x_next, x_hat_next, y, y_hat, v = lockstep.step(x, x_hat, u_hat, modes)
        run.abstract_states.append(hat_states)
        run.external_outputs.append(concrete.external.split(y))
        run.abstract_external_outputs.append(abstract.external.split(y_hat))
        run.modes.append(list(modes))
        run.v_trace.append(v)
        run.error_trace.append(float(np.sqrt(np.sum((y - y_hat) ** 2))))
        run.u_hat_norms.append(float(np.sqrt(np.sum(u_hat**2))))
        x, x_hat = x_next, x_hat_next
    return run


@dataclass(frozen=True)
class BoundConstants:
    """Envelope constants derived from a composed certificate.

    beta = (1 - lambda_inf)^(1/b), theta = alpha^(-1/b) and
    gamma_ext(t) = (rho_ext_coeff t^q / (lambda_inf alpha))^(1/b); with
    b = q = 2 the last is linear in t.
    """

    theta: float
    beta: float
    gamma_ext_coeff: float
    b_exp: int = 2

    def __post_init__(self):
        if self.theta <= 0 or not (0.0 < self.beta < 1.0) or self.gamma_ext_coeff < 0:
            raise ValueError(
                "bound constants must satisfy theta > 0, 0 < beta < 1, gamma >= 0"
            )

    @classmethod
    def from_composed(cls, composed: ComposedCertificate) -> "BoundConstants":
        b = composed.b_exp
        return cls(
            theta=composed.alpha_total ** (-1.0 / b),
            beta=(1.0 - composed.lambda_inf) ** (1.0 / b),
            gamma_ext_coeff=(
                composed.rho_ext_coeff / (composed.lambda_inf * composed.alpha_total)
            )
            ** (1.0 / b),
            b_exp=b,
        )

    def gamma_ext(self, t: float) -> float:
        return self.gamma_ext_coeff * t  # q = b: the power cancels

    def envelope(self, k: int, v0: float, sup_u_hat: float) -> float:
        return self.theta * self.beta**k * v0 ** (1.0 / self.b_exp) + self.gamma_ext(
            sup_u_hat
        )


@dataclass(frozen=True)
class TrajectoryReport:
    """Per-run check outcome; worst margin/slack aggregates order-free."""

    ok: bool
    worst_margin: float
    witness_step: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_trajectory_bound(
    run: SimulationRun,
    composed: ComposedCertificate,
    bound: BoundConstants | None = None,
) -> TrajectoryReport:
    """Error envelope check at every recorded step.

    The sup of |uhat| is the running supremum up to the current step, which
    is tighter than the full-horizon sup and still valid.  The witness is
    the first step with the most negative margin.
    """
    if bound is None:
        bound = BoundConstants.from_composed(composed)
    v0 = run.v_trace[0]
    sup = np.maximum.accumulate(run.u_hat_norms[: run.horizon + 1]).tolist()
    margins = [
        bound.envelope(k, v0, s) + 1e-9 - err
        for k, (s, err) in enumerate(zip(sup, run.error_trace))
    ]
    worst = min(margins)
    witness = margins.index(worst) if worst < 0 else None
    return TrajectoryReport(ok=worst >= 0.0, worst_margin=worst, witness_step=witness)


def check_V_decrease(
    run: SimulationRun, composed: ComposedCertificate, lambda_inf: float | None = None
) -> TrajectoryReport:
    """One-step decrease of the composed value along the realized trajectory.

    V(k+1) - V(k) <= -lambda_inf V(k) + rho_ext(|uhat(k)|) with slack
    1e-9 (1 + V(k)); worst slack reported (negative means satisfied), the
    witness is the first step with the largest positive slack.
    """
    lam = composed.lambda_inf if lambda_inf is None else lambda_inf
    if run.horizon == 0:
        return TrajectoryReport(ok=True, worst_margin=-np.inf)
    v = np.asarray(run.v_trace[: run.horizon + 1])
    u = np.asarray(run.u_hat_norms[: run.horizon])
    allowed = -lam * v[:-1] + composed.rho_ext_coeff * u**2 + 1e-9 * (1.0 + v[:-1])
    slack = v[1:] - v[:-1] - allowed
    k = int(np.argmax(slack))
    worst = float(slack[k])
    return TrajectoryReport(
        ok=worst <= 0.0, worst_margin=worst, witness_step=k + 1 if worst > 0 else None
    )


def export_run(run: SimulationRun, path) -> None:
    """Write the run as CSV: one row per step, 17-significant-digit floats.

    Columns: k, error_norm, V, u_hat_norm, then the external output
    components of every node (y<i> or y<i>_<c> for multi-component blocks).
    """
    header = ["k", "error_norm", "V", "u_hat_norm"]
    widths = [y.shape[0] for y in run.external_outputs[0]] if run.external_outputs else []
    for node, width in zip(run.node_ids, widths):
        if width == 1:
            header.append(f"y{node}")
        else:
            header.extend(f"y{node}_{c}" for c in range(width))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(len(run.error_trace)):
            cells = [
                str(k),
                _fmt(run.error_trace[k]),
                _fmt(run.v_trace[k]),
                _fmt(run.u_hat_norms[k]),
            ]
            for y in run.external_outputs[k]:
                cells.extend(_fmt(v) for v in y)
            fh.write(",".join(cells) + "\n")


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"
