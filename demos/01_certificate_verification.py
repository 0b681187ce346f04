"""Verify the closed-form certificate of the swing-ring benchmark.

Walks through the three per-node obligations (output dominance, decay over
all ordered mode pairs, structural matching), extracts the dissipation
gains, and shows the sampled refutation oracle accepting the valid
certificate and catching a weakened one.

Run from the repository root:  python3 demos/01_certificate_verification.py
"""

from simnet import (
    LocalGains,
    SwingParams,
    check_dissipation_sampled,
    closed_form_certificate,
    derive_gains,
    verify_certificate,
)
from simnet.swing import template_pair

params = SwingParams(n_nodes=3)
print(f"swing ring: inertia {params.m:.0e}, damping {params.d}, coupling {params.l_prev:.0e}")

concrete, abstract = template_pair(params)
print("\nper-bus dynamics, mode 0 (fed by the predecessor):")
print("A =\n", concrete.modes[0].A)
print("B =", concrete.modes[0].B.ravel(), "  D =", concrete.modes[0].D.ravel())
print("abstract pole:", abstract.modes[0].A.ravel()[0], " abstract input gain:",
      abstract.modes[0].B.ravel()[0])

cert = closed_form_certificate(params)
print("\ncertificate matrix M =\n", cert.M[0].entries)
print("feedback K =", cert.K[0].ravel(), " decay kappa =", cert.kappa)

dom, dec, struct = verify_certificate(cert, concrete, abstract).reports
print("\noutput dominance:", bool(dom),
      " (worst margin", min(m["psd_margin"] for m in dom.margins.values()), ")")
print("decay over mode pairs:", bool(dec),
      " (worst margin", min(dec.margins.values()), ")")
print("structural matching:", bool(struct),
      " (state residual", struct.margins[0]["state"], ")")

gains = derive_gains(cert, concrete, abstract)
print("\nderived gains:")
print(f"  alpha = {gains.alpha},  lambda = {gains.lam}")
print(f"  rho_int = {gains.rho_int:.6f}   (reported benchmark value: 0.1455)")
print(f"  rho_ext = {gains.rho_ext:.6f}   (reported benchmark value: 8.1487e-11;")
print("   unreachable from the printed closed forms, see README)")

print("\nsampled dissipation oracle, 1000 samples per mode pair:")
ok = check_dissipation_sampled(cert, concrete, abstract, samples=1000, seed=0)
print(f"  valid certificate: violations = {ok.violations}, worst slack = {ok.worst_slack:.3e}")

weak = LocalGains(alpha=1.0, lam=gains.lam, rho_int=gains.rho_int / 10, rho_ext=gains.rho_ext)
bad = check_dissipation_sampled(
    cert, concrete, abstract, samples=50_000, seed=123, gains=weak
)
print(f"  internal gain cut 10x: violations = {bad.violations} "
      f"(witness found: {bad.witness is not None})")
