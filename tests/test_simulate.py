"""Lockstep simulator tests: exact matching, trajectory checks, CSV export."""

import csv

import numpy as np
import pytest

from simnet import (
    DimensionMismatchError,
    LocalCertificate,
    Mode,
    NetworkSpec,
    SwingParams,
    SwitchedLinearSubsystem,
    SwitchingSignal,
    check_trajectory_bound,
    check_V_decrease,
    derive_gains,
    evaluate_V,
    export_run,
    interface_input,
    run_ring_experiment,
    simulate_lockstep,
)
from simnet.certificates import CompiledCertificates
from simnet.composition import (
    ComposedCertificate,
    Lockstep,
    build_gain_operator_from_network,
    compose_certificate,
    construct_mu,
)
from simnet.simulate import BoundConstants
from vehicles import (
    blockwise_internal_input,
    certified_network,
    heterogeneous_network,
    stacked_step_oracle,
    tight_two_node_network,
)


def zero_controller(spec):
    dims = [sub.m for sub in spec.abstract_view().subsystems]

    def controller(hat_states, k):
        return [np.zeros(m) for m in dims]

    return controller


def constant_switching(spec):
    return SwitchingSignal.constant(spec.n_nodes, 0)


def deadbeat_network():
    """Both layers map to the input in one step: outputs match from k = 1."""
    concrete = SwitchedLinearSubsystem(
        0,
        [
            Mode(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=np.zeros((1, 0)),
                 out_blocks={0: (0, 1)}, in_blocks={})
        ],
    )
    abstract = SwitchedLinearSubsystem(
        0,
        [
            Mode(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=np.zeros((1, 0)),
                 out_blocks={0: (0, 1)}, in_blocks={})
        ],
    )
    cert = LocalCertificate(
        M=[[[1.0]]], K=[[[0.0]]], P=[[1.0]], Q=[[[0.0]]],
        R=[[[1.0]]], T=[np.zeros((1, 0))], kappa=0.5,
    )
    spec = NetworkSpec([concrete], [abstract])
    gains = [derive_gains(cert, concrete, abstract)]
    op = build_gain_operator_from_network(spec, gains)
    composed = compose_certificate(construct_mu(op), gains, [cert])
    return spec, [cert], composed


class TestSimulateLockstep:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_matching(self, seed):
        # matched start, zero abstract input, decoupled abstraction:
        # outputs coincide for the whole run
        spec, certs, gains, composed = certified_network(seed, max_nodes=4, max_modes=3)
        rng = np.random.default_rng(seed + 500)
        xhat0 = [rng.uniform(-1, 1, sub.n) for sub in spec.abstract_view().subsystems]
        x0 = [certs[i].P @ xhat0[i] for i in range(spec.n_nodes)]
        run = simulate_lockstep(
            spec, certs, composed, x0, xhat0, zero_controller(spec),
            constant_switching(spec), 50,
        )
        assert max(run.error_trace) <= 1e-12
        for k in (0, 10, 50):
            for y, yh in zip(run.external_outputs[k], run.abstract_external_outputs[k]):
                assert float(np.abs(y - yh).max()) <= 1e-12

    def test_deadbeat_error_vanishes_from_step_one(self):
        spec, certs, composed = deadbeat_network()
        rng = np.random.default_rng(0)

        def controller(hat_states, k):
            return [rng.uniform(-1, 1, 1)]  # arbitrary abstract input

        run = simulate_lockstep(
            spec, certs, composed, [np.array([0.8])], [np.array([-0.3])],
            controller, constant_switching(spec), 10,
        )
        assert run.error_trace[0] > 0.5
        assert max(run.error_trace[1:]) == 0.0

    def test_swing_ring_error_decays(self):
        exp = run_ring_experiment(SwingParams(n_nodes=10), horizon=100, seed=0)
        err = exp.run.error_trace
        assert err[100] < 1e-3 * err[0]
        assert max(err[40:]) < err[0]
        # frequency outputs settle at zero
        finals = [abs(float(y[0])) for y in exp.run.external_outputs[100]]
        assert max(finals) < 1e-6

    def test_traces_dominate_output_error(self):
        # pointwise realization of the output lower bound
        spec, certs, gains, composed = certified_network(2)
        rng = np.random.default_rng(9)
        x0 = [rng.uniform(-1, 1, sub.n) for sub in spec.subsystems]
        xhat0 = [rng.uniform(-1, 1, sub.n) for sub in spec.abstract_view().subsystems]
        run = simulate_lockstep(
            spec, certs, composed, x0, xhat0, zero_controller(spec),
            constant_switching(spec), 30,
        )
        for k in range(31):
            assert (
                run.v_trace[k]
                >= composed.alpha_total * run.error_trace[k] ** 2 - 1e-9
            )

    def test_determinism_bitwise(self):
        spec, certs, gains, composed = tight_two_node_network()
        rng = np.random.default_rng(1)
        x0 = [rng.uniform(-1, 1, 2) for _ in range(2)]
        xhat0 = [rng.uniform(-1, 1, 1) for _ in range(2)]
        ctrl = zero_controller(spec)
        runs = [
            simulate_lockstep(
                spec, certs, composed, x0, xhat0, ctrl, constant_switching(spec), 25
            )
            for _ in range(2)
        ]
        assert runs[0].error_trace == runs[1].error_trace
        assert runs[0].v_trace == runs[1].v_trace

    def test_prefix_property(self):
        spec, certs, gains, composed = tight_two_node_network()
        rng = np.random.default_rng(2)
        x0 = [rng.uniform(-1, 1, 2) for _ in range(2)]
        xhat0 = [rng.uniform(-1, 1, 1) for _ in range(2)]
        ctrl = zero_controller(spec)
        short = simulate_lockstep(
            spec, certs, composed, x0, xhat0, ctrl, constant_switching(spec), 20
        )
        long = simulate_lockstep(
            spec, certs, composed, x0, xhat0, ctrl, constant_switching(spec), 40
        )
        assert long.error_trace[:21] == short.error_trace
        assert check_trajectory_bound(short, composed).ok
        assert check_trajectory_bound(long, composed).ok


    @pytest.mark.parametrize("signal_nodes", [1, 3])
    def test_switching_signal_must_cover_every_node(self, signal_nodes):
        spec, certs, gains, composed = tight_two_node_network()
        with pytest.raises(DimensionMismatchError):
            simulate_lockstep(
                spec, certs, composed, [np.zeros(2)] * 2, [np.zeros(1)] * 2,
                zero_controller(spec), SwitchingSignal.constant(signal_nodes, 0), 5,
            )

    def test_ten_thousand_node_ring(self):
        exp = run_ring_experiment(SwingParams(n_nodes=10_000), horizon=10)
        assert check_trajectory_bound(exp.run, exp.composed).ok
        assert check_V_decrease(exp.run, exp.composed).ok


class TestLockstepStep:
    """The compiled step against the per-node references under mixed modes."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_node_reference(self, seed):
        spec, by_id = heterogeneous_network(seed)
        certs = [by_id[i] for i in spec.graph.nodes]
        abstract = spec.abstract_view()
        rng = np.random.default_rng(seed + 300)
        mu = rng.uniform(0.5, 2.0, spec.n_nodes)
        composed = ComposedCertificate(mu, 0.1, 1.0, 1.0, certs)
        lockstep = Lockstep(spec, certs, composed)
        for _ in range(5):
            modes = [int(rng.integers(sub.n_modes)) for sub in spec.subsystems]
            xs = [rng.uniform(-1, 1, sub.n) for sub in spec.subsystems]
            hats = [rng.uniform(-1, 1, sub.n) for sub in abstract.subsystems]
            u_hats = [rng.uniform(-1, 1, sub.m) for sub in abstract.subsystems]
            w_hats = blockwise_internal_input(abstract, hats, modes)
            inputs = [
                interface_input(c, x, h, u, w, s)
                for c, x, h, u, w, s in zip(certs, xs, hats, u_hats, w_hats, modes)
            ]
            v_ref = sum(
                m * evaluate_V(c, x, h, s) for m, c, x, h, s in zip(mu, certs, xs, hats, modes)
            )

            x, x_hat, u_hat = (np.concatenate(v) for v in (xs, hats, u_hats))
            compiled = CompiledCertificates(certs)
            u = compiled.interface_input(
                compiled.slots.select(modes), x, x_hat, u_hat, np.concatenate(w_hats)
            )
            np.testing.assert_allclose(u, np.concatenate(inputs), rtol=1e-12, atol=1e-12)
            assert composed.evaluate_V(xs, hats, modes) == pytest.approx(v_ref, rel=1e-12)

            x_next, x_hat_next, _, _, v = lockstep.step(x, x_hat, u_hat, modes)
            assert v == pytest.approx(v_ref, rel=1e-12)
            ref = np.concatenate(stacked_step_oracle(spec, xs, inputs, modes))
            np.testing.assert_allclose(x_next, ref, rtol=1e-12, atol=1e-12)
            ref = np.concatenate(stacked_step_oracle(abstract, hats, u_hats, modes))
            np.testing.assert_allclose(x_hat_next, ref, rtol=1e-12, atol=1e-12)


class TestTrajectoryBound:
    def test_matched_zero_input_run_trivial(self):
        spec, certs, gains, composed = certified_network(1)
        rng = np.random.default_rng(11)
        xhat0 = [rng.uniform(-1, 1, sub.n) for sub in spec.abstract_view().subsystems]
        x0 = [certs[i].P @ xhat0[i] for i in range(spec.n_nodes)]
        run = simulate_lockstep(
            spec, certs, composed, x0, xhat0, zero_controller(spec),
            constant_switching(spec), 15,
        )
        report = check_trajectory_bound(run, composed)
        assert report.ok

    def test_swing_ring_bound_holds_everywhere(self):
        exp = run_ring_experiment(SwingParams(n_nodes=10), horizon=80, seed=1)
        report = check_trajectory_bound(exp.run, exp.composed)
        assert report.ok
        assert report.worst_margin >= 0.0

    def test_halved_beta_is_falsified(self):
        spec, certs, gains, composed = tight_two_node_network()
        rng = np.random.default_rng(4)
        x0 = [rng.uniform(-1, 1, 2) for _ in range(2)]
        xhat0 = [rng.uniform(-1, 1, 1) for _ in range(2)]
        run = simulate_lockstep(
            spec, certs, composed, x0, xhat0, zero_controller(spec),
            constant_switching(spec), 60,
        )
        clean = BoundConstants.from_composed(composed)
        assert check_trajectory_bound(run, composed, clean).ok
        tightened = BoundConstants(
            theta=clean.theta, beta=clean.beta / 2,
            gamma_ext_coeff=clean.gamma_ext_coeff,
        )
        report = check_trajectory_bound(run, composed, tightened)
        assert not report.ok
        assert report.witness_step is not None and report.witness_step <= 20

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_bound_holds_under_abstract_forcing(self, seed):
        # nonzero abstract inputs exercise the gamma_ext term of the envelope
        spec, certs, gains, composed = certified_network(seed, max_nodes=3, max_modes=2)
        rng = np.random.default_rng(40 + seed)
        x0 = [rng.uniform(-1, 1, sub.n) for sub in spec.subsystems]
        xhat0 = [rng.uniform(-1, 1, sub.n) for sub in spec.abstract_view().subsystems]
        dims = [sub.m for sub in spec.abstract_view().subsystems]
        ctrl_rng = np.random.default_rng(99 + seed)

        def controller(hat_states, k):
            return [ctrl_rng.uniform(-1, 1, m) for m in dims]

        run = simulate_lockstep(
            spec, certs, composed, x0, xhat0, controller,
            constant_switching(spec), 40,
        )
        assert run.u_hat_norms[0] > 0
        assert check_V_decrease(run, composed).ok
        assert check_trajectory_bound(run, composed).ok

    def test_constants_derived_from_composed(self):
        spec, certs, gains, composed = tight_two_node_network()
        bc = BoundConstants.from_composed(composed)
        assert bc.theta == pytest.approx(composed.alpha_total ** -0.5)
        assert bc.beta == pytest.approx(np.sqrt(1 - composed.lambda_inf))
        assert bc.gamma_ext(2.0) == pytest.approx(
            np.sqrt(composed.rho_ext_coeff * 4.0 / (composed.lambda_inf * composed.alpha_total))
        )


class TestVDecrease:
    def test_zero_input_geometric_decay(self):
        spec, certs, gains, composed = tight_two_node_network()
        rng = np.random.default_rng(6)
        x0 = [rng.uniform(-1, 1, 2) for _ in range(2)]
        xhat0 = [rng.uniform(-1, 1, 1) for _ in range(2)]
        run = simulate_lockstep(
            spec, certs, composed, x0, xhat0, zero_controller(spec),
            constant_switching(spec), 30,
        )
        lam = composed.lambda_inf
        for k in range(30):
            assert run.v_trace[k + 1] <= (1 - lam) * run.v_trace[k] + 1e-9 * (
                1 + run.v_trace[k]
            )
        assert check_V_decrease(run, composed).ok

    def test_swing_run_strictly_negative_worst_slack(self):
        exp = run_ring_experiment(SwingParams(n_nodes=5), horizon=60, seed=2)
        report = check_V_decrease(exp.run, exp.composed)
        assert report.ok
        assert report.worst_margin < 0.0

    def test_corrupted_interface_gain_is_falsified(self):
        spec, certs, gains, composed = tight_two_node_network()
        rng = np.random.default_rng(4)
        xhat0 = [rng.uniform(-1, 1, 1) for _ in range(2)]
        # error aligned with the direction the corruption excites
        x0 = [certs[0].P @ xhat0[0] + np.array([0.5, 0.0]), certs[1].P @ xhat0[1]]
        c0 = certs[0]
        k_bad = [c0.K[0].copy()]
        k_bad[0][0, 0] += 1.0
        corrupted = LocalCertificate(
            M=c0.M, K=k_bad, P=c0.P, Q=c0.Q, R=c0.R, T=c0.T, kappa=c0.kappa
        )
        ctrl = zero_controller(spec)
        clean_run = simulate_lockstep(
            spec, certs, composed, x0, xhat0, ctrl, constant_switching(spec), 10
        )
        assert check_V_decrease(clean_run, composed).ok
        bad_run = simulate_lockstep(
            spec, [corrupted, certs[1]], composed, x0, xhat0, ctrl,
            constant_switching(spec), 10,
        )
        report = check_V_decrease(bad_run, composed)
        assert not report.ok
        assert report.witness_step == 1


class TestExportRun:
    def _small_run(self, horizon):
        exp = run_ring_experiment(SwingParams(n_nodes=5), horizon=horizon, seed=3)
        return exp.run

    def test_row_and_column_counts(self, tmp_path):
        run = self._small_run(7)
        path = tmp_path / "run.csv"
        export_run(run, path)
        rows = path.read_text().strip().split("\n")
        assert len(rows) == 1 + 8  # header + horizon + 1
        assert rows[0].split(",") == [
            "k", "error_norm", "V", "u_hat_norm", "y0", "y1", "y2", "y3", "y4",
        ]

    def test_large_ring_column_count(self, tmp_path):
        exp = run_ring_experiment(SwingParams(n_nodes=1000), horizon=2, seed=0)
        path = tmp_path / "wide.csv"
        export_run(exp.run, path)
        rows = path.read_text().strip().split("\n")
        assert len(rows) == 4  # header + 3 steps
        assert all(len(r.split(",")) == 4 + 1000 for r in rows)

    def test_horizon_zero_single_row(self, tmp_path):
        run = self._small_run(0)
        path = tmp_path / "run0.csv"
        export_run(run, path)
        rows = path.read_text().strip().split("\n")
        assert len(rows) == 2  # header + the k = 0 row

    def test_round_trip_bitwise(self, tmp_path):
        run = self._small_run(12)
        path = tmp_path / "run.csv"
        export_run(run, path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            errors = [float(row["error_norm"]) for row in reader]
        assert errors == run.error_trace

    def test_deterministic_bytes(self, tmp_path):
        run = self._small_run(5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_run(run, p1)
        export_run(run, p2)
        assert p1.read_bytes() == p2.read_bytes()
