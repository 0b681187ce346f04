"""Swing-ring benchmark tests: generation, closed forms, reported values."""

import numpy as np
import pytest

from simnet import (
    CertificateError,
    SchemaError,
    SwingParams,
    benchmark_report,
    check_small_gain,
    closed_form_certificate,
    generate_ring_network,
    load_network,
    run_ring_experiment,
    save_network,
    verify_certificate,
)
from simnet.composition import build_gain_operator
from simnet.swing import (
    REPORTED_RHO_EXT,
    REPORTED_RHO_INT,
    REPORTED_SMALL_GAIN_BOUND,
    compose_ring,
    templated_ring_operator,
    topology_graph,
)
from vehicles import live_peers, per_node


class TestGenerateRingNetwork:
    def test_default_parameter_matrices(self, swing_pair):
        concrete, abstract = swing_pair
        mode = concrete.modes[0]
        np.testing.assert_allclose(mode.A, [[1.0, 1.0], [-0.04, 0.99999]])
        np.testing.assert_allclose(mode.B, [[0.0], [1e-5]])
        np.testing.assert_allclose(mode.D, [[0.0], [0.04]])
        np.testing.assert_allclose(mode.C, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(abstract.modes[0].A, [[0.999995]])
        np.testing.assert_allclose(abstract.modes[0].B, [[-0.599995]])

    def test_ring_structure_per_mode(self):
        spec = generate_ring_network(SwingParams(n_nodes=5))
        for i, sub in enumerate(spec.subsystems):
            first, second = sub.modes
            assert live_peers(first.in_blocks) == ((i - 1) % 5,)
            assert live_peers(second.in_blocks) == ((i + 1) % 5,)
            assert live_peers(first.out_blocks, i) == ((i + 1) % 5,)
            assert live_peers(second.out_blocks, i) == ((i - 1) % 5,)

    def test_rotation_symmetry(self):
        # rotating node indices maps the ring onto itself
        spec = generate_ring_network(SwingParams(n_nodes=4))
        for s in (0, 1):
            for i, sub in enumerate(spec.subsystems):
                rotated = spec.subsystems[(i + 1) % 4]
                np.testing.assert_array_equal(sub.modes[s].A, rotated.modes[s].A)
                shifted_in = tuple((j + 1) % 4 for j in live_peers(sub.modes[s].in_blocks))
                assert shifted_in == live_peers(rotated.modes[s].in_blocks)

    def test_save_load_round_trip_validates(self, tmp_path):
        spec = generate_ring_network(SwingParams(n_nodes=3))
        path = tmp_path / "ring.json"
        save_network(spec, path)
        loaded = load_network(path)
        assert loaded.n_nodes == 3
        assert loaded.abstract_subsystems is not None

    def test_parameter_invariants(self):
        with pytest.raises(SchemaError):
            SwingParams(n_nodes=2)
        with pytest.raises(SchemaError):
            SwingParams(n_nodes=3, m=-1.0)
        with pytest.raises(SchemaError):
            SwingParams(n_nodes=3, d=3e5)  # d/(2m) >= 1


class TestClosedFormCertificate:
    def test_abstraction_constants(self, swing_params, swing_cert, swing_pair):
        _, abstract = swing_pair
        assert swing_params.c == pytest.approx(0.999995, abs=1e-12)
        assert float(abstract.modes[0].A[0, 0]) == pytest.approx(0.999995)
        assert float(abstract.modes[0].B[0, 0]) == pytest.approx(-0.599995)
        np.testing.assert_allclose(swing_cert.P, [[1.0], [-5e-6]], atol=1e-18)

    def test_closed_loop_double_pole(self, swing_cert, swing_pair):
        concrete, _ = swing_pair
        for s in (0, 1):
            f = concrete.modes[s].A + concrete.modes[s].B @ swing_cert.K[s]
            np.testing.assert_allclose(f, [[1.0, 1.0], [-0.5625, -0.5]], atol=1e-12)
            eigs = np.linalg.eigvals(f)
            np.testing.assert_allclose(sorted(np.abs(eigs)), [0.25, 0.25], atol=1e-7)

    def test_all_verifications_pass_with_margin(self, swing_cert, swing_pair):
        concrete, abstract = swing_pair
        dom, dec, struct = verify_certificate(swing_cert, concrete, abstract).reports
        assert dom and dec and struct
        assert min(m["psd_margin"] for m in dom.margins.values()) > 0.5
        assert min(dec.margins.values()) > 0.3

    def test_gain_rate_matches_decay(self, swing_gains):
        assert swing_gains.lam == 0.2

    def test_invalid_regime_rejected(self):
        # large kappa leaves no decay margin for the fixed certificate matrix
        with pytest.raises(CertificateError):
            closed_form_certificate(SwingParams(n_nodes=3, kappa=0.9))


class TestBenchmarkReport:
    def test_reported_values_echoed(self, swing_params):
        report = benchmark_report(swing_params)
        assert report.rho_int_reported == REPORTED_RHO_INT
        assert report.rho_ext_reported == REPORTED_RHO_EXT
        assert report.small_gain_bound_reported == REPORTED_SMALL_GAIN_BOUND

    def test_formula_values(self, swing_params):
        report = benchmark_report(swing_params)
        assert report.alpha == 1.0
        assert report.lam == 0.2
        assert report.rho_int_formula == pytest.approx(0.085584, rel=1e-12)
        assert report.small_gain_bound_formula == pytest.approx(0.42792, rel=1e-12)
        assert report.satisfied

    def test_satisfied_under_both_gain_values(self, swing_params):
        report = benchmark_report(swing_params)
        assert report.small_gain_bound_formula < 1.0
        assert report.small_gain_bound_reported < 1.0

    def test_scaled_coupling_quadratic_growth(self):
        base = benchmark_report(SwingParams(n_nodes=3))
        scaled = benchmark_report(
            SwingParams(n_nodes=3, l_self=2e4, l_prev=2e4, l_next=2e4)
        )
        assert scaled.rho_int_formula == pytest.approx(
            25 * base.rho_int_formula, rel=1e-9
        )
        assert not scaled.satisfied


class TestRingComposition:
    def test_templated_equals_finite_bound(self, swing_gains):
        templated = check_small_gain(templated_ring_operator(swing_gains))
        for n in (3, 10, 50):
            graph = topology_graph(SwingParams(n_nodes=n), mode=0)
            finite = check_small_gain(build_gain_operator([swing_gains] * n, graph))
            assert abs(finite.radius_or_bound - templated.radius_or_bound) <= 1e-9

    def test_composed_constants(self, swing_params, swing_gains):
        composed, core, gains, certs = compose_ring(swing_params)
        assert composed.lambda_inf == pytest.approx(0.2 - swing_gains.rho_int)
        assert composed.alpha_total == 1.0
        assert composed.mu_min == composed.mu_max == 1.0


class TestRingExperiment:
    def test_abstract_closed_loop_factor(self, swing_pair):
        _, abstract = swing_pair
        factor = float(abstract.modes[0].A[0, 0] + abstract.modes[0].B[0, 0])
        assert factor == pytest.approx(0.4, abs=1e-12)

    def test_error_and_frequency_decay(self):
        exp = run_ring_experiment(SwingParams(n_nodes=10), horizon=100, seed=0)
        err = exp.run.error_trace
        assert err[100] / err[0] < 1e-3
        freq = per_node(exp.spec.engine.external, exp.run.external_outputs)
        y0_max = max(abs(float(y[0, 0])) for y in freq)
        y100_max = max(abs(float(y[100, 0])) for y in freq)
        assert y100_max < 1e-3 * y0_max

    def test_abstract_trajectory_contracts(self):
        exp = run_ring_experiment(SwingParams(n_nodes=3), horizon=10, seed=5)
        layout = exp.spec.abstract_view().engine.state
        hat0 = per_node(layout, exp.run.abstract_states[0])
        hat1 = per_node(layout, exp.run.abstract_states[1])
        for h0, h1 in zip(hat0, hat1):
            assert float(h1[0]) == pytest.approx(0.4 * float(h0[0]), rel=1e-9)

    def test_switch_period_respected(self):
        exp = run_ring_experiment(SwingParams(n_nodes=3, switch_period=5), horizon=12, seed=0)
        assert exp.run.modes[0].tolist() == [0, 0, 0]
        assert exp.run.modes[4].tolist() == [0, 0, 0]
        assert exp.run.modes[5].tolist() == [1, 1, 1]
        assert exp.run.modes[10].tolist() == [0, 0, 0]

    def test_seed_determinism(self):
        a = run_ring_experiment(SwingParams(n_nodes=3), horizon=10, seed=7)
        b = run_ring_experiment(SwingParams(n_nodes=3), horizon=10, seed=7)
        assert a.run.error_trace.tolist() == b.run.error_trace.tolist()
