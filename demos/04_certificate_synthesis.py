"""Synthesize a certificate for a switched system from scratch.

Given only the mode dynamics and stabilizing feedback gains, the toolkit
can construct a common certificate matrix as the fixed point of a
Lyapunov-type Stein equation, found by one linear solve (conservative: a
common matrix for all modes), and then solve the structural equations for
the abstraction maps.  The result is a complete,
verified certificate - no semidefinite-programming solver involved.

Run from the repository root:  python3 demos/04_certificate_synthesis.py
"""

import numpy as np

from simnet import (
    LocalCertificate,
    Mode,
    SwitchedLinearSubsystem,
    check_dissipation_sampled,
    derive_gains,
    solve_structural,
    synthesize_certificate_matrix,
)

rng = np.random.default_rng(42)

# a two-mode, three-state system with one external input and one coupling input
n, kappa = 3, 0.2
b = np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n))
a_modes = [rng.uniform(-1, 1, (n, n)) for _ in range(2)]
d_modes = [5e-3 * rng.uniform(-1, 1, (n, 1)) for _ in range(2)]
c = np.vstack([np.eye(n)[:1], rng.uniform(-1, 1, (1, n))])  # external + coupling rows

# feedbacks placing each closed loop at a mild rotation (norm 0.22)
targets = [0.22 * np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2)]
k_modes = [np.linalg.solve(b, targets[s] - a_modes[s]) for s in range(2)]

concrete = SwitchedLinearSubsystem(
    0,
    [
        Mode(A=a_modes[s], B=b, C=c, D=d_modes[s],
             out_blocks={0: (0, 1), 1: (1, 2)}, in_blocks={1: (0, 1)})
        for s in range(2)
    ],
)

print("synthesizing a common certificate matrix (one Stein-equation solve)...")
big_m = synthesize_certificate_matrix(concrete, k_modes, kappa)
print("M =\n", np.array_str(big_m.entries, precision=4))
print("eigenvalues:", np.round(np.linalg.eigvalsh(big_m.entries), 4))

# a one-dimensional abstraction along the dominant certificate direction
p = np.linalg.qr(rng.standard_normal((n, 1)))[0]
a_hat = np.array([[0.5]])
b_hat = np.array([[0.4]])
print("\nsolving the structural equations for P of shape", p.shape, "...")
sol = solve_structural(
    concrete, [a_hat, a_hat], p, abstract_B=b_hat, weight=big_m.entries
)
print("Q per mode:", [np.round(q.ravel(), 4) for q in sol.Q])
print("T per mode:", [np.round(t.ravel(), 4) for t in sol.T])
print("interface gain R:", np.round(sol.R[0].ravel(), 4))

abstract = SwitchedLinearSubsystem(
    0,
    [
        Mode(A=a_hat, B=b_hat, C=sol.C_hat[s], D=sol.D_hat[s],
             out_blocks={0: (0, 1), 1: (1, 2)}, in_blocks={1: (0, 1)})
        for s in range(2)
    ],
)
cert = LocalCertificate(
    M=[big_m, big_m], K=k_modes, P=p, Q=sol.Q, R=sol.R, T=sol.T, kappa=kappa
)

gains = derive_gains(cert, concrete, abstract)
print(f"\nverified gains: lambda = {gains.lam}, rho_int = {gains.rho_int:.3e}, "
      f"rho_ext = {gains.rho_ext:.3e}")

oracle = check_dissipation_sampled(cert, concrete, abstract, samples=2000, seed=1)
print(f"sampled dissipation oracle: violations = {oracle.violations} "
      f"(worst slack {oracle.worst_slack:.3e})")
