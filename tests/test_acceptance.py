"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and asserts every clause of its criterion, including the runtime budget.

Criterion 2 contains a clause that is expected to fail: the formula-derived
external-input gain of the swing benchmark cannot be within one order of
magnitude of the reported 8.1487e-11.  With the benchmark's own data the
first component of B R - P Bhat equals -Bhat = 0.599995 for every R, and
output dominance forces the certificate matrix above the identity, so the
gain is bounded below by 3 * 0.36 ~ 1.08; two independent computation
routes both give 2.6315702734.  The test asserts the criterion as stated
and documents the discrepancy when it fails.
"""

import time

import numpy as np

from simnet import (
    LocalCertificate,
    LocalGains,
    SwingParams,
    ToleranceProfile,
    build_gain_operator,
    check_composed_dissipation,
    check_dissipation_sampled,
    check_small_gain,
    check_trajectory_bound,
    check_V_decrease,
    construct_mu,
    derive_gains,
    edge_pattern,
    generate_ring_network,
    radius_bracket,
    run_ring_experiment,
    simulate_lockstep,
    spectral_radius_dense,
    verify_certificate,
)
from simnet.simulate import BoundConstants
from simnet.swing import compose_ring, templated_ring_operator, topology_graph
from vehicles import (
    certified_network,
    per_node,
    random_network,
    stacked_step_oracle,
    tight_subsystem_pair,
    tight_two_node_network,
)

REPORTED_RHO_EXT = 8.1487e-11
REPORTED_RHO_INT = 0.1455


class stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(name, failures, elapsed, note=""):
    verdict = "PASS" if not failures else "FAIL"
    extra = f" ({note})" if note else ""
    print(f"[acceptance] {name}: {verdict} in {elapsed:.2f}s{extra}", flush=True)
    if failures:
        print("  failed clauses:", "; ".join(failures), flush=True)


def test_criterion_1_certificate_verification(swing_params, swing_cert, swing_pair):
    """Closed-form certificate passes all matrix conditions within 1e-8 scale."""
    failures = []
    with stopwatch() as sw:
        concrete, abstract = swing_pair
        dom, dec, struct = verify_certificate(swing_cert, concrete, abstract).reports
        if not dom:
            failures.append(f"output dominance: {dom.failures}")
        if not dec:
            failures.append(f"decay: {dec.failures}")
        if len(dec.margins) != 4:
            failures.append("decay must cover all four ordered mode pairs")
        if not struct:
            failures.append(f"structure: {struct.failures}")
        for s in (0, 1):
            scale = 1e-8 * (1.0 + float(np.abs(concrete.modes[s].A).max()))
            for kind in ("state", "coupling"):
                if struct.margins[s][kind] > scale:
                    failures.append(f"mode {s} {kind} residual above 1e-8 scale")
        for s in (0, 1):
            if dom.margins[s]["output_match"] > 1e-8:
                failures.append(f"mode {s} output map residual above 1e-8")
    if sw.elapsed >= 1.0:
        failures.append(f"runtime {sw.elapsed:.2f}s >= 1s")
    report("criterion 1 (certificate verification)", failures, sw.elapsed)
    assert not failures


def test_criterion_2_gains(swing_params, swing_cert, swing_pair):
    """Gain extraction: exact rate and scaling, reported-value agreement."""
    failures = []
    with stopwatch() as sw:
        concrete, abstract = swing_pair
        gains = derive_gains(swing_cert, concrete, abstract)
        if gains.lam != 0.2:
            failures.append(f"lambda must be exactly 0.2, got {gains.lam}")
        if gains.alpha != 1.0:
            failures.append(f"alpha must be exactly 1.0, got {gains.alpha}")
        ratio_formula = gains.rho_int * 1 / (gains.alpha * gains.lam)
        ratio_reported = REPORTED_RHO_INT * 1 / (1.0 * 0.2)
        if not ratio_formula < 1.0:
            failures.append(f"formula small-gain ratio {ratio_formula} not < 1")
        if not ratio_reported < 1.0:
            failures.append(f"reported small-gain ratio {ratio_reported} not < 1")
        magnitude_gap = abs(np.log10(gains.rho_ext / REPORTED_RHO_EXT))
        if magnitude_gap > 1.0:
            failures.append(
                f"rho_ext formula value {gains.rho_ext:.6e} is {magnitude_gap:.1f} "
                f"orders of magnitude from the reported {REPORTED_RHO_EXT:.4e}; "
                f"the reported value is unreachable from the benchmark's own "
                f"closed forms (see module docstring)"
            )
    if sw.elapsed >= 1.0:
        failures.append(f"runtime {sw.elapsed:.2f}s >= 1s")
    note = (
        f"rho_int formula {gains.rho_int:.6f} vs reported {REPORTED_RHO_INT}; "
        f"rho_ext formula {gains.rho_ext:.6e} vs reported {REPORTED_RHO_EXT:.4e}"
    )
    report("criterion 2 (gain extraction)", failures, sw.elapsed, note)
    assert not failures


def test_criterion_3_small_gain(swing_params, swing_gains):
    """Templated bound, uniform weights, and finite-ring radius agreement."""
    failures = []
    with stopwatch() as sw:
        op = templated_ring_operator(swing_gains)
        sg = check_small_gain(op)
        if not (sg.satisfied and sg.radius_or_bound < 1.0):
            failures.append(f"templated bound {sg.radius_or_bound} not < 1")
        core = construct_mu(op)
        if core.mu is not None:
            failures.append("templated weights must be uniform")
        expected_rate = swing_gains.lam - swing_gains.rho_int
        if core.lambda_inf != expected_rate:
            failures.append(
                f"lambda_inf {core.lambda_inf} != lam - colsum {expected_rate}"
            )
        if not core.lambda_inf > 0:
            failures.append("lambda_inf must be positive")
        for n in (3, 10, 50):
            graph = topology_graph(SwingParams(n_nodes=n), mode=0)
            finite = check_small_gain(build_gain_operator([swing_gains] * n, graph))
            if abs(finite.radius_or_bound - sg.radius_or_bound) > 1e-9:
                failures.append(
                    f"ring n={n}: radius {finite.radius_or_bound} differs from "
                    f"templated bound {sg.radius_or_bound}"
                )
    if sw.elapsed >= 1.0:
        failures.append(f"runtime {sw.elapsed:.2f}s >= 1s")
    report("criterion 3 (small gain)", failures, sw.elapsed)
    assert not failures


def test_criterion_4_composed_dissipation(swing_params):
    """3-node ring, 500 seeded samples, zero one-step violations."""
    failures = []
    with stopwatch() as sw:
        spec = generate_ring_network(swing_params)
        composed, _, _, _ = compose_ring(swing_params)
        result = check_composed_dissipation(
            composed, spec, samples=500, seed=0, synchronized=True
        )
        if result.violations != 0:
            failures.append(
                f"{result.violations} violations, witness {result.witness}"
            )
    if sw.elapsed >= 10.0:
        failures.append(f"runtime {sw.elapsed:.2f}s >= 10s")
    report("criterion 4 (composed dissipation)", failures, sw.elapsed)
    assert not failures


def _experiment_clauses(n_nodes, failures):
    exp = run_ring_experiment(SwingParams(n_nodes=n_nodes), horizon=100, seed=0)
    bound = check_trajectory_bound(exp.run, exp.composed)
    if not bound.ok:
        failures.append(f"n={n_nodes}: envelope violated at step {bound.witness_step}")
    ratio = exp.run.error_trace[100] / exp.run.error_trace[0]
    if not ratio < 1e-3:
        failures.append(f"n={n_nodes}: error ratio {ratio:.3e} not < 1e-3")
    freq = per_node(exp.spec.engine.external, exp.run.external_outputs)
    y0 = max(abs(float(y[0, 0])) for y in freq)
    y_end = max(abs(float(y[100, 0])) for y in freq)
    if not y_end < 1e-3 * y0:
        failures.append(f"n={n_nodes}: final frequency magnitude {y_end:.3e} too large")
    return exp


def test_criterion_5_experiment_reproduction():
    """Desk-scale benchmark run: envelope, error decay, frequency decay."""
    failures = []
    with stopwatch() as sw:
        _experiment_clauses(50, failures)
    if sw.elapsed >= 30.0:
        failures.append(f"runtime {sw.elapsed:.2f}s >= 30s")
    report("criterion 5 (experiment at 50 nodes)", failures, sw.elapsed)
    assert not failures


def test_criterion_5_optional_full_scale():
    """The optional 1000-node variant of criterion 5; must also pass."""
    failures = []
    with stopwatch() as sw:
        _experiment_clauses(1000, failures)
    report("criterion 5 (optional 1000 nodes)", failures, sw.elapsed)
    assert not failures


def test_criterion_6_exact_matching():
    """Matched starts, zero abstract input, zero abstract coupling:
    outputs coincide within 1e-12 for 50 steps on 20 seeded networks."""
    failures = []
    with stopwatch() as sw:
        for seed in range(20):
            spec, certs, gains, composed = certified_network(
                seed, max_nodes=4, max_modes=3
            )
            rng = np.random.default_rng(10_000 + seed)
            abstract = spec.abstract_view()
            xhat0 = [rng.uniform(-1, 1, sub.n) for sub in abstract.subsystems]
            x0 = [certs[i].P @ xhat0[i] for i in range(spec.n_nodes)]
            u_hat = np.zeros(abstract.engine.input.size)
            run = simulate_lockstep(
                spec, certs, composed, np.concatenate(x0), np.concatenate(xhat0),
                lambda x_hat, k: u_hat, np.zeros((51, spec.n_nodes), dtype=int),
            )
            worst = float(np.abs(run.external_outputs - run.abstract_external_outputs).max())
            if worst > 1e-12:
                failures.append(f"seed {seed}: output mismatch {worst:.3e}")
    if sw.elapsed >= 10.0:
        failures.append(f"runtime {sw.elapsed:.2f}s >= 10s")
    report("criterion 6 (exact matching)", failures, sw.elapsed)
    assert not failures


def test_criterion_7_oracle_equivalence():
    """Stacked vs blockwise step within 1e-12; the radius bracket's upper
    bound within 1e-8 of the dense radius, its lower bound below it."""
    failures = []
    with stopwatch() as sw:
        for seed in range(50):
            spec = random_network(seed)
            rng = np.random.default_rng(20_000 + seed)
            modes = [int(rng.integers(0, s.n_modes)) for s in spec.subsystems]
            states = [rng.uniform(-1, 1, s.n) for s in spec.subsystems]
            inputs = [rng.uniform(-1, 1, s.m) for s in spec.subsystems]
            engine = spec.engine
            x_next = engine.step(np.concatenate(states), np.concatenate(inputs),
                                 engine.slots.select(modes))[0]
            stacked = np.concatenate(stacked_step_oracle(spec, states, inputs, modes))
            dev = float(np.abs(x_next - stacked).max())
            if dev > 1e-12:
                failures.append(f"seed {seed}: step deviation {dev:.3e}")
        for seed in range(50):
            rng = np.random.default_rng(30_000 + seed)
            n = int(rng.integers(2, 65))
            mat = rng.uniform(0.0, 1.0, (n, n))
            rows, cols = np.nonzero(mat)
            # radii reach about 32: an absolute 1e-8 needs a relative
            # bracket width below 3e-10
            b = radius_bracket(
                edge_pattern(rows, cols, n), mat[rows, cols], ToleranceProfile(eig_tol=1e-11)
            )
            dense = spectral_radius_dense(mat)
            if abs(dense - b.hi) > 1e-8 or b.lo > dense:
                failures.append(f"seed {seed}: bracket [{b.lo}, {b.hi}] vs dense radius {dense}")
    if sw.elapsed >= 5.0:
        failures.append(f"runtime {sw.elapsed:.2f}s >= 5s")
    report("criterion 7 (oracle equivalence)", failures, sw.elapsed)
    assert not failures


def test_criterion_8_falsification_sensitivity():
    """Corrupted feedback, halved internal gain, halved envelope rate:
    each must produce at least one detected violation."""
    failures = []
    with stopwatch() as sw:
        # halved internal gain on a tight certificate
        concrete, abstract, cert = tight_subsystem_pair()
        gains = derive_gains(cert, concrete, abstract)
        halved = LocalGains(
            alpha=gains.alpha, lam=gains.lam,
            rho_int=gains.rho_int / 2.0, rho_ext=gains.rho_ext,
        )
        sampled = check_dissipation_sampled(
            cert, concrete, abstract, samples=4000, seed=7, gains=halved
        )
        if sampled.ok:
            failures.append("halved rho_int produced no sampled violation")
        clean = check_dissipation_sampled(
            cert, concrete, abstract, samples=4000, seed=7, gains=gains
        )
        if not clean.ok:
            failures.append("uncorrupted gains must pass the sampled check")

        # corrupted feedback entry detected along a trajectory
        spec, certs, g2, composed = tight_two_node_network()
        rng = np.random.default_rng(4)
        xhat0 = [rng.uniform(-1, 1, 1) for _ in range(2)]
        x0 = np.concatenate([certs[0].P @ xhat0[0] + np.array([0.5, 0.0]), certs[1].P @ xhat0[1]])
        xhat0 = np.concatenate(xhat0)
        c0 = certs[0]
        k_bad = [c0.K[0].copy()]
        k_bad[0][0, 0] += 1.0
        corrupted = LocalCertificate(
            M=c0.M, K=k_bad, P=c0.P, Q=c0.Q, R=c0.R, T=c0.T, kappa=c0.kappa
        )
        controller = lambda x_hat, k: np.zeros(2)
        modes = np.zeros((61, 2), dtype=int)
        bad_run = simulate_lockstep(
            spec, [corrupted, certs[1]], composed, x0, xhat0, controller, modes[:11]
        )
        if check_V_decrease(bad_run, composed).ok:
            failures.append("corrupted feedback gain produced no decrease violation")
        good_run = simulate_lockstep(
            spec, certs, composed, x0, xhat0, controller, modes[:11]
        )
        if not check_V_decrease(good_run, composed).ok:
            failures.append("clean feedback must pass the decrease check")

        # halved envelope rate detected on the same network
        rng = np.random.default_rng(4)
        x0b, xhat0b = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 2)
        run = simulate_lockstep(spec, certs, composed, x0b, xhat0b, controller, modes)
        clean_bc = BoundConstants.from_composed(composed)
        if not check_trajectory_bound(run, composed, clean_bc).ok:
            failures.append("clean envelope must hold")
        tightened = BoundConstants(
            theta=clean_bc.theta, beta=clean_bc.beta / 2.0,
            gamma_ext_coeff=clean_bc.gamma_ext_coeff,
        )
        if check_trajectory_bound(run, composed, tightened).ok:
            failures.append("halved beta produced no envelope violation")
    if sw.elapsed >= 10.0:
        failures.append(f"runtime {sw.elapsed:.2f}s >= 10s")
    report("criterion 8 (falsification sensitivity)", failures, sw.elapsed)
    assert not failures
