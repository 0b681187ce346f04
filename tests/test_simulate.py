"""Lockstep simulator tests: exact matching, trajectory checks, CSV export."""

import csv

import numpy as np
import pytest

from simnet import (
    DimensionMismatchError,
    LocalCertificate,
    Mode,
    NetworkSpec,
    SchemaError,
    SwingParams,
    SwitchedLinearSubsystem,
    SwitchingSignal,
    check_trajectory_bound,
    check_V_decrease,
    closed_form_certificate,
    derive_gains,
    export_run,
    generate_ring_network,
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
from simnet.simulate import BoundConstants, SimulationRun
from vehicles import (
    blockwise_internal_input,
    certified_network,
    evaluate_V,
    export_run_reference,
    heterogeneous_network,
    interface_input,
    stacked_step_oracle,
    tight_two_node_network,
)


def zero_controller(spec):
    u_hat = np.zeros(spec.abstract_view().engine.input.size)
    return lambda x_hat, k: u_hat


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
            gap = run.external_outputs[k] - run.abstract_external_outputs[k]
            assert float(np.abs(gap).max()) <= 1e-12

    def test_deadbeat_error_vanishes_from_step_one(self):
        spec, certs, composed = deadbeat_network()
        rng = np.random.default_rng(0)

        def controller(x_hat, k):
            return rng.uniform(-1, 1, 1)  # arbitrary abstract input

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
        assert float(np.abs(exp.run.external_outputs[100]).max()) < 1e-6

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
        assert runs[0].error_trace.tolist() == runs[1].error_trace.tolist()
        assert runs[0].v_trace.tolist() == runs[1].v_trace.tolist()

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
        assert long.error_trace[:21].tolist() == short.error_trace.tolist()
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

    @pytest.mark.parametrize(
        "u_hat", [np.zeros(1), np.zeros(3), np.zeros((2, 1)), [np.zeros(1)] * 2],
        ids=["short", "long", "column", "per-node"],
    )
    def test_controller_must_return_the_stacked_input(self, u_hat):
        spec, certs, gains, composed = tight_two_node_network()
        match = r"abstract controller gave shape .*, expected length 2"
        with pytest.raises(DimensionMismatchError, match=match) as err:
            simulate_lockstep(
                spec, certs, composed, [np.zeros(2)] * 2, [np.zeros(1)] * 2,
                lambda x_hat, k: u_hat, constant_switching(spec), 5,
            )
        assert err.value.details == {"expected": 2, "step": 0}

    @pytest.mark.parametrize("horizon", [0, 7])
    def test_run_arrays_have_one_row_per_step(self, horizon):
        spec, by_id = heterogeneous_network(0)
        certs = [by_id[i] for i in spec.graph.nodes]
        composed = ComposedCertificate(np.ones(spec.n_nodes), 0.1, 1.0, 1.0, certs)
        engine, abstract = spec.engine, spec.abstract_view().engine
        rng = np.random.default_rng(5)
        run = simulate_lockstep(
            spec, certs, composed,
            [rng.uniform(-1, 1, sub.n) for sub in spec.subsystems],
            [rng.uniform(-1, 1, sub.n) for sub in spec.abstract_view().subsystems],
            zero_controller(spec), SwitchingSignal.synchronized(spec.n_nodes, [0, 1, 2], 2),
            horizon,
        )
        rows = horizon + 1
        assert run.abstract_states.shape == (rows, abstract.state.size)
        assert run.external_outputs.shape == (rows, engine.external.size)
        assert run.abstract_external_outputs.shape == (rows, abstract.external.size)
        assert run.modes.shape == (rows, spec.n_nodes) and run.modes.dtype == np.int64
        for trace in (run.v_trace, run.error_trace, run.u_hat_norms):
            assert trace.shape == (rows,) and trace.dtype == np.float64
        assert run.external_widths == tuple(engine.external.sizes)
        assert run.modes[:, 0].tolist() == [(k // 2) % 3 for k in range(rows)]

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

    @pytest.mark.parametrize("short", ["interface", "composed"])
    def test_certificates_of_another_mode_count_rejected(self, short):
        # one mode selection per step serves every engine, so the slot
        # layouts must agree when the lockstep is built
        params = SwingParams(n_nodes=3)
        spec = generate_ring_network(params)
        good = closed_form_certificate(params)
        one_mode = LocalCertificate(
            M=good.M[:1], K=good.K[:1], P=good.P, Q=good.Q[:1], R=good.R[:1], T=good.T[:1],
            kappa=good.kappa,
        )
        certs = [one_mode if short == "interface" else good] * 3
        composed_certs = [one_mode if short == "composed" else good] * 3
        composed = ComposedCertificate(np.ones(3), 0.1, 1.0, 1.0, composed_certs)
        with pytest.raises(DimensionMismatchError, match="certificate dimensions"):
            Lockstep(spec, certs, composed)


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
        n_inputs = spec.abstract_view().engine.input.size
        ctrl_rng = np.random.default_rng(99 + seed)

        def controller(x_hat, k):
            return ctrl_rng.uniform(-1, 1, n_inputs)

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


def one_node_run(errors, v) -> SimulationRun:
    """A one-node run with the given error and V traces and zero inputs."""
    steps = len(errors)
    zeros = np.zeros((steps, 1))
    return SimulationRun(
        horizon=steps - 1, node_ids=(0,), external_widths=(1,), abstract_states=zeros,
        external_outputs=zeros, abstract_external_outputs=zeros,
        modes=np.zeros((steps, 1), dtype=np.int64), v_trace=np.array(v, dtype=float),
        error_trace=np.array(errors, dtype=float), u_hat_norms=np.zeros(steps),
    )


class TestNaNRanksWorst:
    """A NaN margin or slack fails its check, with the first NaN step as the
    witness; Python's min used to skip a NaN after the first element."""

    @pytest.mark.parametrize("errors, witness", [
        ([0.1, np.nan, 0.05], 1), ([np.nan, 0.1, 0.05], 0), ([0.1, 0.05, np.nan], 2),
        ([0.1, np.nan, 2.0, np.nan], 1),
    ])
    def test_envelope(self, errors, witness):
        run = one_node_run(errors, [1.0] * len(errors))
        report = check_trajectory_bound(run, None, BoundConstants(1.0, 0.5, 0.0))
        assert not report.ok
        assert report.witness_step == witness
        assert np.isnan(report.worst_margin)

    @pytest.mark.parametrize("v, witness", [([1.0, np.nan, 0.1], 1), ([1.0, 0.4, np.nan], 2)])
    def test_decrease(self, v, witness):
        composed = ComposedCertificate(np.ones(1), 0.5, 1.0, 0.0, [])
        report = check_V_decrease(one_node_run([0.0] * len(v), v), composed)
        assert not report.ok
        assert report.witness_step == witness
        assert np.isnan(report.worst_margin)


def test_composed_value_rejects_a_fractional_mode():
    # the selection used to cast 0.7 to mode 0
    spec, certs, gains, composed = tight_two_node_network()
    layout = composed.engine
    x, x_hat = np.zeros(layout.state.size), np.zeros(layout.abstract_state.size)
    with pytest.raises(SchemaError, match="mode 0.7 is not an integer"):
        composed.value(x, x_hat, [0.7, 0])


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
        assert errors == run.error_trace.tolist()

    def test_matches_per_cell_reference_on_ring(self, tmp_path):
        run = self._small_run(12)
        export_run(run, tmp_path / "rows.csv")
        export_run_reference(run, tmp_path / "cells.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_matches_per_cell_reference_on_wide_blocks(self, tmp_path):
        # external blocks 1 to 3 wide, non-contiguous ids, awkward floats
        rng = np.random.default_rng(8)
        widths = (1, 2, 3, 2, 1)
        steps = 6
        scales = 10.0 ** rng.integers(-300, 300, (steps, sum(widths)))
        outputs = rng.standard_normal((steps, sum(widths))) * scales
        outputs[0, :4] = [0.0, -0.0, 0.1, 1e16]
        run = SimulationRun(
            horizon=steps - 1, node_ids=(0, 3, 4, 9, 12), external_widths=widths,
            abstract_states=np.zeros((steps, 5)), external_outputs=outputs,
            abstract_external_outputs=np.zeros_like(outputs),
            modes=np.zeros((steps, 5), dtype=np.int64), v_trace=rng.uniform(0, 1e6, steps),
            error_trace=rng.uniform(0, 1, steps), u_hat_norms=np.linspace(0.0, 1.0, steps),
        )
        export_run(run, tmp_path / "rows.csv")
        export_run_reference(run, tmp_path / "cells.csv")
        rows = (tmp_path / "rows.csv").read_bytes()
        assert rows == (tmp_path / "cells.csv").read_bytes()
        header = b"k,error_norm,V,u_hat_norm,y0,y3_0,y3_1,y4_0,y4_1,y4_2,y9_0,y9_1,y12"
        assert rows.split(b"\n")[0] == header

    def test_deterministic_bytes(self, tmp_path):
        run = self._small_run(5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_run(run, p1)
        export_run(run, p2)
        assert p1.read_bytes() == p2.read_bytes()
