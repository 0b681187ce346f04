"""Refine an abstract controller to the ring and validate the error bound.

The abstract layer is a chain of scalar systems stabilized by the unit
state feedback (closed loop contracts by 0.4 per step); each bus's
interface refines that input to the full dynamics.  The lockstep run
records the output error against the closed-form envelope

    error(k) <= theta beta^k sqrt(V(0)) + gamma_ext(sup |uhat|)

and exports everything as CSV.

Run from the repository root:  python3 demos/03_lockstep_simulation.py
"""

import numpy as np

from simnet import (
    SwingParams,
    check_trajectory_bound,
    check_V_decrease,
    export_run,
    run_ring_experiment,
)
from simnet.simulate import BoundConstants

params = SwingParams(n_nodes=20, switch_period=5)
horizon = 100
exp = run_ring_experiment(params, horizon=horizon, seed=0)
run = exp.run

bc = BoundConstants.from_composed(exp.composed)
print(f"{params.n_nodes}-node ring, horizon {horizon}, topology switches every "
      f"{params.switch_period} steps")
print(f"envelope constants: theta = {bc.theta}, beta = {bc.beta:.6f}, "
      f"gamma_ext coefficient = {bc.gamma_ext_coeff:.4f}\n")

print(" k   error norm      envelope        V")
sup_u_hat = np.maximum.accumulate(run.u_hat_norms)  # running supremum of |uhat|
for k in (0, 5, 10, 20, 40, 60, 100):
    env = bc.envelope(k, run.v_trace[0], sup_u_hat[k])
    print(f"{k:3d}  {run.error_trace[k]:-14.6e}  {env:-14.6e}  {run.v_trace[k]:-12.4e}")

bound = check_trajectory_bound(run, exp.composed)
decrease = check_V_decrease(run, exp.composed)
print(f"\nenvelope holds at every step: {bound.ok} (worst margin {bound.worst_margin:.4f})")
print(f"one-step decrease holds along the run: {decrease.ok}")
print(f"error contraction: {run.error_trace[horizon] / run.error_trace[0]:.3e} "
      f"over {horizon} steps")

out = "ring_run.csv"
export_run(run, out)
print(f"\nwrote {out} ({horizon + 1} rows, "
      f"{4 + params.n_nodes} columns, 17-significant-digit floats)")
