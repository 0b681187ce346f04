"""Compose per-node certificates into a network certificate.

Builds the coupling-gain operator of the swing ring both ways (templated,
size-free, and as an edge list for finite truncations), certifies the
small-gain condition, constructs the aggregation weights with the network
decay rate, and runs the composed one-step oracle on a 3-node instance.

Run from the repository root:  python3 demos/02_small_gain_composition.py
"""

from simnet import (
    SwingParams,
    build_gain_operator,
    check_composed_dissipation,
    check_small_gain,
    construct_mu,
    generate_ring_network,
)
from simnet.swing import compose_ring, ring_gains, templated_ring_operator, topology_graph

params = SwingParams(n_nodes=3)
gains = ring_gains(params)
print(f"per-bus gains: lambda = {gains.lam}, rho_int = {gains.rho_int:.6f}, "
      f"alpha = {gains.alpha}")

# templated: one node template, one reader per node, any ring size
templated = templated_ring_operator(gains)
bound = check_small_gain(templated)
print(f"\ntemplated ring column-sum bound: {bound.radius_or_bound:.6f} "
      f"(< 1: {bound.satisfied})")

# finite truncations: the circulant radius equals the templated bound
for n in (3, 10, 50):
    graph = topology_graph(SwingParams(n_nodes=n), mode=0)
    finite = check_small_gain(build_gain_operator([gains] * n, graph))
    print(f"  finite ring n = {n:3d}: radius = {finite.radius_or_bound:.12f}")

core = construct_mu(templated)
print(f"\nweights: uniform, network decay rate lambda_inf = {core.lambda_inf:.6f} "
      f"(= lambda - column sum)")

composed, _, _, certs = compose_ring(params)
print(f"composed certificate: alpha = {composed.alpha_total}, "
      f"rho_ext coefficient = {composed.rho_ext_coeff:.4f}, "
      f"mu in [{composed.mu_min}, {composed.mu_max}]")

print("\ncomposed one-step oracle on the 3-node ring "
      "(synchronized topology switching, 500 samples):")
spec = generate_ring_network(params)
result = check_composed_dissipation(composed, spec, samples=500, seed=0, synchronized=True)
print(f"  violations = {result.violations}, worst slack = {result.worst_slack:.3e}")

# pushing the coupling up breaks the condition: gains grow quadratically
hot = SwingParams(n_nodes=3, l_self=2e4, l_prev=2e4, l_next=2e4)
hot_bound = check_small_gain(templated_ring_operator(ring_gains(hot)))
print(f"\ncoupling x5: bound = {hot_bound.radius_or_bound:.3f} "
      f"(< 1: {hot_bound.satisfied}) - composition correctly refused")
