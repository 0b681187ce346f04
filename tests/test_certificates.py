"""Certificate verification, gain derivation, interface and synthesis tests.

Expected values marked as frozen were computed from independent closed
forms (projection residuals, geometric series, scalar arithmetic) rather
than from the code paths under test.
"""

import numpy as np
import pytest

import simnet.certificates
from simnet import (
    DEFAULT_TOL,
    CertificateError,
    ConvergenceError,
    DimensionMismatchError,
    LocalCertificate,
    LocalGains,
    Mode,
    SchemaError,
    StructuralInfeasibleError,
    SwingParams,
    SwitchedLinearSubsystem,
    VerificationReport,
    VerifiedCertificate,
    check_dissipation_sampled,
    closed_form_certificate,
    derive_gains,
    generate_ring_network,
    load_certificates,
    save_certificates,
    solve_structural,
    synthesize_certificate_matrix,
    verify_certificate,
    verify_network,
)
from simnet.certificates import CompiledCertificates
from simnet.cli import main
from vehicles import (
    certified_network,
    evaluate_V,
    heterogeneous_network,
    interface_input,
    tight_subsystem_pair,
)

M_BENCH = np.array([[11.20, 12.50], [12.50, 17.83]])

# independent projection-route value: 3 Bhat^2 (P'MP - (B'MP)^2 / B'MB)
RHO_EXT_ORACLE = 2.631570273430087
# 3 * (l/m)^2 * M[1,1]
RHO_INT_ORACLE = 0.085584


def scalar_pair(a=0.1, a_hat=0.1, m_val=1.0, kappa=0.5):
    """One-dimensional self-abstraction with K = 0."""
    concrete = SwitchedLinearSubsystem(
        0,
        [
            Mode(A=[[a]], B=[[1.0]], C=[[1.0]], D=np.zeros((1, 0)),
                 out_blocks={0: (0, 1)}, in_blocks={})
        ],
    )
    abstract = SwitchedLinearSubsystem(
        0,
        [
            Mode(A=[[a_hat]], B=[[1.0]], C=[[1.0]], D=np.zeros((1, 0)),
                 out_blocks={0: (0, 1)}, in_blocks={})
        ],
    )
    cert = LocalCertificate(
        M=[[[m_val]]], K=[[[0.0]]], P=[[1.0]], Q=[[[a_hat - a]]],
        R=[[[1.0]]], T=[np.zeros((1, 0))], kappa=kappa,
    )
    return concrete, abstract, cert


class TestOutputDominance:
    def test_swing_certificate_passes(self, swing_cert, swing_pair):
        concrete, abstract = swing_pair
        report = verify_certificate(swing_cert, concrete, abstract).output_dominance
        assert report
        assert all(m["psd_margin"] > 0 for m in report.margins.values())

    def test_self_abstraction_gram_matrix(self):
        concrete, abstract, cert = scalar_pair()
        assert verify_certificate(cert, concrete, abstract).output_dominance

    def test_halved_matrix_fails(self, swing_cert, swing_pair):
        concrete, abstract = swing_pair
        weak = LocalCertificate(
            M=[0.5 * np.eye(2)] * 2, K=swing_cert.K, P=swing_cert.P,
            Q=swing_cert.Q, R=swing_cert.R, T=swing_cert.T, kappa=swing_cert.kappa,
        )
        report = verify_certificate(weak, concrete, abstract).output_dominance
        assert not report
        assert report.failures


class TestDecay:
    def test_swing_all_four_mode_pairs(self, swing_cert, swing_pair):
        concrete, abstract = swing_pair
        report = verify_certificate(swing_cert, concrete, abstract).decay
        assert report
        assert len(report.margins) == 4
        # frozen margin: lambda_min(0.8 M - 3 F'MF) = 0.302325...
        for margin in report.margins.values():
            assert margin == pytest.approx(0.30232509, abs=1e-6)

    def test_unstable_loop_fails(self):
        concrete = SwitchedLinearSubsystem(
            0,
            [
                Mode(A=[[1.5]], B=[[0.0]], C=[[1.0]], D=np.zeros((1, 0)),
                     out_blocks={0: (0, 1)}, in_blocks={})
            ],
        )
        cert = LocalCertificate(
            M=[[[1.0]]], K=[[[0.0]]], P=[[1.0]], Q=[[[0.0]]],
            R=[[[1.0]]], T=[np.zeros((1, 0))], kappa=0.2,
        )
        # a scalar node with P = 1 abstracts itself; the decay report does not read it
        report = verify_certificate(cert, concrete, concrete).decay
        assert not report
        assert "(0 -> 0)" in report.failures[0]

    def test_scalar_decay_arithmetic(self):
        # 3 * 0.01 - 1 = -0.97 <= -0.5, so kappa = 0.5 holds
        concrete, abstract, cert = scalar_pair(a=0.1, kappa=0.5)
        assert verify_certificate(cert, concrete, abstract).decay

    def test_transition_restriction_respected(self):
        concrete = SwitchedLinearSubsystem(
            0,
            [
                Mode(A=[[0.1]], B=[[0.0]], C=[[1.0]], D=np.zeros((1, 0)),
                     out_blocks={0: (0, 1)}, in_blocks={}),
                Mode(A=[[10.0]], B=[[0.0]], C=[[1.0]], D=np.zeros((1, 0)),
                     out_blocks={0: (0, 1)}, in_blocks={}),
            ],
        )
        cert = LocalCertificate(
            M=[[[1.0]]] * 2, K=[[[0.0]]] * 2, P=[[1.0]], Q=[[[0.0]]] * 2,
            R=[[[1.0]]] * 2, T=[np.zeros((1, 0))] * 2, kappa=0.5,
            transitions=[(0, 0), (0, 1)],  # mode 1 never active
        )
        # a scalar node with P = 1 abstracts itself; the decay report does not read it
        assert verify_certificate(cert, concrete, concrete).decay
        unrestricted = LocalCertificate(
            M=cert.M, K=cert.K, P=cert.P, Q=cert.Q, R=cert.R, T=cert.T, kappa=0.5
        )
        assert not verify_certificate(unrestricted, concrete, concrete).decay


class TestStructure:
    def test_swing_closed_forms(self, swing_cert, swing_pair):
        concrete, abstract = swing_pair
        report = verify_certificate(swing_cert, concrete, abstract).structure
        assert report
        # the closed form's own quadratic defect: (d / 2m)^2 = 2.5e-11
        assert report.margins[0]["state"] == pytest.approx(2.5e-11, rel=1e-3)
        assert report.margins[0]["coupling"] == 0.0

    def test_identity_abstraction(self):
        concrete, abstract, cert = scalar_pair(a=0.3, a_hat=0.3)
        assert verify_certificate(cert, concrete, abstract).structure

    def test_perturbed_abstract_pole_fails(self, swing_cert, swing_pair):
        concrete, abstract = swing_pair
        c = 1.0 - 1.0 / (2.0 * 1e5)
        bumped = SwitchedLinearSubsystem(
            abstract.id,
            [
                Mode(
                    A=[[c + 1e-3]], B=mode.B, C=mode.C, D=mode.D,
                    out_blocks=dict(mode.out_blocks), in_blocks=dict(mode.in_blocks),
                )
                for mode in abstract.modes
            ],
        )
        assert not verify_certificate(swing_cert, concrete, bumped).structure


class TestDeriveGains:
    def test_swing_lambda_alpha_exact(self, swing_gains):
        assert swing_gains.lam == 0.2
        assert swing_gains.alpha == 1.0

    def test_swing_rho_int_matches_projection_oracle(self, swing_gains):
        assert swing_gains.rho_int == pytest.approx(RHO_INT_ORACLE, rel=1e-12)

    def test_swing_rho_ext_matches_projection_oracle(self, swing_gains):
        # dual route: operator-norm path vs weighted projection residual
        assert swing_gains.rho_ext == pytest.approx(RHO_EXT_ORACLE, rel=1e-9)

    def test_decoupled_node_zero_internal_gain(self):
        concrete, abstract, cert = scalar_pair(a=0.1, kappa=0.5)
        gains = derive_gains(cert, concrete, abstract)
        assert gains.rho_int == 0.0
        assert gains.rho_ext == 0.0  # B R = P Bhat exactly here

    def test_failed_verification_propagates(self, swing_pair):
        concrete, abstract = swing_pair
        bad = LocalCertificate(
            M=[0.5 * np.eye(2)] * 2,
            K=[np.zeros((1, 2))] * 2,
            P=[[1.0], [0.0]],
            Q=[np.zeros((1, 1))] * 2,
            R=[np.zeros((1, 1))] * 2,
            T=[np.zeros((1, 1))] * 2,
            kappa=0.2,
        )
        with pytest.raises(CertificateError):
            derive_gains(bad, concrete, abstract)


def psd_reference(a, b, tol):
    """lambda_min(b - a) and whether a <= b within tol.psd_tol * (1 +
    max(||a||, ||b||)), from one eigvalsh per matrix."""
    margin = float(np.linalg.eigvalsh(b - a).min())
    scale = 1.0 + max(np.abs(np.linalg.eigvalsh(m)).max() for m in (a, b))
    return margin, margin >= -tol.psd_tol * scale


def per_node_reference(cert, concrete, abstract, tol=DEFAULT_TOL):
    """The three obligations and the gains of one node, checked mode by mode
    and pair by pair with unstacked numpy calls.  Returns the three reports
    and the gains (None unless every obligation passes)."""
    def sym(a):
        return 0.5 * (a + a.T)

    failures, margins = [], {}
    for s in range(cert.n_modes):
        c = concrete.modes[s].C
        margin, ordered = psd_reference(sym(c.T @ c), cert.M[s].entries, tol)
        match = float(np.abs(c @ cert.P - abstract.modes[s].C).max())
        margins[s] = {"psd_margin": margin, "output_match": match}
        if not ordered:
            failures.append(f"mode {s}: output Gram matrix is not dominated by M")
        if match > tol.eig_tol:
            failures.append(f"mode {s}: C P differs from the abstract C by {match:.3e}")
    dominance = VerificationReport(not failures, "output_dominance", tuple(failures), margins)

    failures, margins = [], {}
    for s, s2 in cert.admissible_pairs():
        f = concrete.modes[s].A + concrete.modes[s].B @ cert.K[s]
        lhs = sym(3.0 * f.T @ cert.M[s2].entries @ f)
        rhs = sym((1.0 - cert.kappa) * cert.M[s].entries)
        margins[(s, s2)], ordered = psd_reference(lhs, rhs, tol)
        if not ordered:
            failures.append(
                f"mode pair ({s} -> {s2}): decay inequality fails "
                f"(lambda_min margin {margins[(s, s2)]:.3e})"
            )
    decay = VerificationReport(not failures, "decay", tuple(failures), margins)

    failures, margins = [], {}
    for s in range(cert.n_modes):
        cm, am = concrete.modes[s], abstract.modes[s]
        res_state = float(np.abs(cm.A @ cert.P - cert.P @ am.A + cm.B @ cert.Q[s]).max())
        res_coupling = (
            float(np.abs(cm.D - cert.P @ am.D + cm.B @ cert.T[s]).max()) if cm.D.size else 0.0
        )
        margins[s] = {"state": res_state, "coupling": res_coupling}
        limit = tol.eig_tol * (1.0 + float(np.abs(cm.A).max()))
        if res_state > limit:
            failures.append(f"mode {s}: state matching residual {res_state:.3e}")
        if res_coupling > limit:
            failures.append(f"mode {s}: coupling matching residual {res_coupling:.3e}")
    structure = VerificationReport(not failures, "structure", tuple(failures), margins)

    def norm(a):
        return float(np.linalg.norm(a, 2)) if a.size else 0.0

    gains = None
    if dominance and decay and structure:
        rho_int = rho_ext = 0.0
        for s, s2 in cert.admissible_pairs():
            w, v = np.linalg.eigh(cert.M[s2].entries)
            sq = sym((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)
            cm, am = concrete.modes[s], abstract.modes[s]
            rho_int = max(rho_int, 3.0 * norm(sq @ cm.D) ** 2)
            mismatch = cm.B @ cert.R[s] - cert.P @ am.B
            rho_ext = max(rho_ext, 3.0 * norm(sq @ mismatch) ** 2)
        gains = LocalGains(alpha=1.0, lam=cert.kappa, rho_int=rho_int, rho_ext=rho_ext)
    return dominance, decay, structure, gains


def assert_matches_reference(spec, certs):
    """The one-node calls equal the per-node reference exactly (reports,
    margins, failure strings and gains), and verify_network's columns equal
    its verdicts, failure strings and gains."""
    verified = verify_network(spec, certs)
    assert verified.node_ids == tuple(sub.id for sub in spec.subsystems)
    assert verified.passed.shape == (spec.n_nodes, 3)
    for pos, (sub, abstract) in enumerate(zip(spec.subsystems, spec.abstract_subsystems)):
        cert = certs[sub.id]
        *reports, gains = per_node_reference(cert, sub, abstract)
        assert verify_certificate(cert, sub, abstract) == VerifiedCertificate(*reports, gains)
        assert verified.passed[pos].tolist() == [r.ok for r in reports]
        failures = sum((r.failures for r in reports), ())
        assert verified.failures.get(sub.id, ()) == failures
        assert (sub.id in verified.failures) == bool(failures)
        got = [verified.lam[pos], verified.rho_int[pos], verified.rho_ext[pos]]
        if gains is None:
            assert np.isnan(got).all()
        else:
            assert derive_gains(cert, sub, abstract) == gains
            assert got == [gains.lam, gains.rho_int, gains.rho_ext]
    return verified


MISFITS = [  # how a certificate or abstraction misfits its node, and the message
    ("state", "certificate matrices are 1x1 but the state has dimension 2"),
    ("fewer_modes", "certificate mode count 1 differs from the subsystem's 2"),
    ("more_modes", "certificate mode count 3 differs from the subsystem's 2"),
    ("K_rows", "certificate K row count 2 differs from the input count 1"),
    ("P_columns", "certificate P column count 2 differs from the abstract state dimension 1"),
    ("R_columns", "certificate R column count 2 differs from the abstract input count 1"),
    ("T_columns", "certificate T column count 2 differs from the abstract internal input width 1"),
    ("abstract_output_width", "abstract output width 1 differs from concrete 2"),
]


class TestVerifyNetwork:
    def test_swing_ring_matches_reference(self):
        params = SwingParams(n_nodes=8)
        cert = closed_form_certificate(params)
        verified = assert_matches_reference(
            generate_ring_network(params), {i: cert for i in range(8)}
        )
        assert verified.passed.all() and not verified.failures

    @pytest.mark.parametrize("seed", [0, 1])
    def test_heterogeneous_network_matches_reference(self, seed):
        spec, certs = heterogeneous_network(seed)
        # the batches must span several state dimensions, zero-width
        # couplings and restricted transitions
        assert {cert.n for cert in certs.values()} == {1, 2, 3, 4}
        assert any(sub.internal_width == 0 for sub in spec.subsystems)
        assert any(cert.transitions is not None for cert in certs.values())
        assert assert_matches_reference(spec, certs).passed.all()

    def test_corrupted_certificate_failure_strings(self):
        spec, certs = heterogeneous_network(0)
        good = certs[3]
        certs[3] = LocalCertificate(
            M=good.M, K=[3.0 * k for k in good.K], P=1.001 * good.P, Q=good.Q,
            R=good.R, T=good.T, kappa=good.kappa, node_id=3,
        )
        verified = assert_matches_reference(spec, certs)
        pos = verified.node_ids.index(3)
        assert np.isnan(verified.lam[pos]) and list(verified.failures) == [3]
        assert not verified.passed[pos, 1] and not verified.passed[pos, 2]
        assert np.delete(verified.passed, pos, axis=0).all()

    def test_missing_certificate_names_the_nodes(self):
        params = SwingParams(n_nodes=3)
        cert = closed_form_certificate(params)
        with pytest.raises(SchemaError, match=r"^certificate file lacks nodes \[2\]$") as err:
            verify_network(generate_ring_network(params), {0: cert, 1: cert})
        assert err.value.details == {"nodes": [2]}

    @pytest.mark.parametrize("case, what", MISFITS, ids=[case for case, _ in MISFITS])
    def test_certificate_dimension_mismatch_rejected(self, swing_pair, swing_cert, case, what):
        # a certificate or abstraction that does not fit the node is named,
        # neither certified nor left to numpy broadcasting
        concrete, abstract = swing_pair
        fields = {f: getattr(swing_cert, f) for f in ("M", "K", "P", "Q", "R", "T")}

        def padded(family, rows=0, cols=0):
            return [np.pad(x, ((0, rows), (0, cols))) for x in family]

        if case == "state":
            fields = dict(M=[[[1.0]]] * 2, K=[[[0.0]]] * 2, P=[[1.0]], Q=[[[0.0]]] * 2,
                          R=[[[1.0]]] * 2, T=[[[0.0]]] * 2)
        elif case == "fewer_modes":
            fields = {f: v if f == "P" else v[:1] for f, v in fields.items()}
        elif case == "more_modes":
            fields = {f: v if f == "P" else [*v, v[0]] for f, v in fields.items()}
        elif case == "K_rows":
            fields.update({f: padded(fields[f], rows=1) for f in "KQRT"})
        elif case == "P_columns":
            fields.update(P=np.pad(fields["P"], ((0, 0), (0, 1))), Q=padded(fields["Q"], cols=1))
        elif case in ("R_columns", "T_columns"):
            fields[case[0]] = padded(fields[case[0]], cols=1)
        else:
            abstract = SwitchedLinearSubsystem(abstract.id, [
                Mode(A=m.A, B=m.B, C=m.C[:1], D=m.D, out_blocks={0: (0, 1)},
                     in_blocks=dict(m.in_blocks))
                for m in abstract.modes
            ])
        cert = LocalCertificate(**fields, kappa=swing_cert.kappa)
        with pytest.raises(DimensionMismatchError, match=f"^subsystem 0: {what}$") as err:
            verify_certificate(cert, concrete, abstract)
        assert err.value.details["node"] == 0

    @pytest.mark.parametrize("modes", [1, 3])
    def test_mode_count_mismatch_names_the_node(self, modes):
        # every mode and every pair entering it is checked, or the node is named
        params = SwingParams(n_nodes=8)
        good = closed_form_certificate(params)
        fields = {f: [*getattr(good, f), getattr(good, f)[0]][:modes] for f in "MKQRT"}
        certs = {i: good for i in range(8)}
        certs[5] = LocalCertificate(**fields, P=good.P, kappa=good.kappa, node_id=5)
        with pytest.raises(DimensionMismatchError, match="^subsystem 5: certificate mode") as err:
            verify_network(generate_ring_network(params), certs)
        assert err.value.details == {"node": 5, "got": modes, "expected": 2}

    def test_decompositions_independent_of_node_count(self, tmp_path, monkeypatch, capsys):
        counts = {}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        for name in ("eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        load = simnet.certificates.load_certificates

        def load_then_reset(path):
            # loading checks each M once; count only what follows it
            certs = load(path)
            counts.clear()
            return certs

        monkeypatch.setattr(simnet.certificates, "load_certificates", load_then_reset)
        per_size = {}
        for nodes in (10, 40):
            net, certs = tmp_path / f"net{nodes}.json", tmp_path / f"certs{nodes}.json"
            main(["swing-gen", "--nodes", str(nodes), "-o", str(net), "--certs-out", str(certs)])
            assert main(["compose", str(net), str(certs)]) == 0
            per_size[nodes] = dict(counts)
        capsys.readouterr()
        assert per_size[10] == per_size[40], per_size
        assert per_size[10]["eigvalsh"] > 0 and per_size[10]["eigh"] > 0


def compiled_interface(cert, x, x_hat, u_hat, w_hat, mode):
    """CompiledCertificates' refined input for one node, checked against
    the per-node reference."""
    compiled = CompiledCertificates([cert])
    args = [np.asarray(v, dtype=float) for v in (x, x_hat, u_hat, w_hat)]
    u = compiled.interface_input(compiled.slots.select([mode]), *args)
    np.testing.assert_allclose(u, interface_input(cert, *args, mode), rtol=1e-12, atol=1e-12)
    return u


def compiled_energy(cert, x, x_hat, mode):
    """CompiledCertificates' tracking energy of one node, checked against
    the per-node reference."""
    compiled = CompiledCertificates([cert])
    x, x_hat = np.asarray(x, dtype=float), np.asarray(x_hat, dtype=float)
    v = float(compiled.energies(compiled.slots.select([mode]), x, x_hat)[0])
    assert v == pytest.approx(evaluate_V(cert, x, x_hat, mode), rel=1e-12, abs=1e-12)
    return v


class TestInterface:
    def test_matched_state_reduces_to_feedforward(self, swing_cert):
        x_hat = np.array([0.7])
        x = swing_cert.P @ x_hat
        u = compiled_interface(swing_cert, x, x_hat, np.zeros(1), np.zeros(1), 0)
        np.testing.assert_allclose(u, swing_cert.Q[0] @ x_hat)

    def test_all_zero(self, swing_cert):
        u = compiled_interface(swing_cert, np.zeros(2), np.zeros(1), np.zeros(1), np.zeros(1), 0)
        np.testing.assert_allclose(u, [0.0])

    def test_swing_unit_inputs(self, swing_cert):
        # x = P, xhat = 1 kills the error term; u = Q + R
        u = compiled_interface(
            swing_cert, swing_cert.P[:, 0], np.ones(1), np.ones(1), np.zeros(1), 0
        )
        expected = float(swing_cert.Q[0][0, 0] + swing_cert.R[0][0, 0])
        assert u[0] == pytest.approx(expected, rel=1e-12)
        assert swing_cert.Q[0][0, 0] == 4000.0

    @pytest.mark.parametrize("seed", range(4))
    def test_affine_in_stacked_arguments(self, seed, swing_cert):
        rng = np.random.default_rng(seed)
        z1 = [rng.uniform(-1, 1, d) for d in (2, 1, 1, 1)]
        z2 = [rng.uniform(-1, 1, d) for d in (2, 1, 1, 1)]
        a, b = 2.0, -0.5
        mixed = compiled_interface(
            swing_cert, *[a * p + b * q for p, q in zip(z1, z2)], 0
        )
        u1 = compiled_interface(swing_cert, *z1, 0)
        u2 = compiled_interface(swing_cert, *z2, 0)
        np.testing.assert_allclose(mixed, a * u1 + b * u2, rtol=1e-9, atol=1e-9)


class TestEvaluateV:
    def test_matched_state_is_zero(self, swing_cert):
        x_hat = np.array([-0.4])
        assert compiled_energy(swing_cert, swing_cert.P @ x_hat, x_hat, 0) == 0.0

    def test_unit_error_picks_matrix_entry(self, swing_cert):
        x_hat = np.zeros(1)
        x = np.array([1.0, 0.0])  # error e1
        assert compiled_energy(swing_cert, x, x_hat, 0) == pytest.approx(11.20)

    def test_quadratic_homogeneity(self, swing_cert):
        x = np.array([0.3, -0.2])
        x_hat = np.array([0.5])
        v1 = compiled_energy(swing_cert, x, x_hat, 0)
        v4 = compiled_energy(swing_cert, 2 * x, 2 * x_hat, 0)
        assert v4 == pytest.approx(4 * v1, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_dominates_output_error(self, seed, swing_cert, swing_pair):
        # alpha = 1 realized pointwise: V >= |C x - Chat xhat|^2
        concrete, abstract = swing_pair
        rng = np.random.default_rng(seed)
        for _ in range(200):
            x = rng.uniform(-1, 1, 2)
            x_hat = rng.uniform(-1, 1, 1)
            s = int(rng.integers(0, 2))
            err = concrete.modes[s].C @ x - abstract.modes[s].C @ x_hat
            assert compiled_energy(swing_cert, x, x_hat, s) >= float(err @ err) - 1e-12


class TestDissipationSampled:
    def test_swing_certificate_satisfies_everywhere(self, swing_cert, swing_pair):
        concrete, abstract = swing_pair
        report = check_dissipation_sampled(
            swing_cert, concrete, abstract, samples=1000, seed=0
        )
        assert report.ok
        assert report.violations == 0
        assert report.samples == 4000  # 1000 per ordered mode pair

    def test_swing_gain_tenth_is_falsified(self, swing_cert, swing_pair, swing_gains):
        concrete, abstract = swing_pair
        weakened = LocalGains(
            alpha=1.0, lam=swing_gains.lam,
            rho_int=swing_gains.rho_int / 10.0, rho_ext=swing_gains.rho_ext,
        )
        report = check_dissipation_sampled(
            swing_cert, concrete, abstract, samples=50000, seed=123, gains=weakened
        )
        assert not report.ok
        assert report.witness is not None

    def test_tight_certificate_halved_gain_is_falsified(self):
        concrete, abstract, cert = tight_subsystem_pair()
        gains = derive_gains(cert, concrete, abstract)
        halved = LocalGains(
            alpha=1.0, lam=gains.lam, rho_int=gains.rho_int / 2.0, rho_ext=gains.rho_ext
        )
        report = check_dissipation_sampled(
            concrete=concrete, abstract_sub=abstract, cert=cert,
            samples=4000, seed=7, gains=halved,
        )
        assert not report.ok
        assert report.violations > 0

    def test_decoupled_zero_input_reduces_to_decay(self):
        concrete, abstract, cert = scalar_pair(a=0.1, kappa=0.5)
        report = check_dissipation_sampled(cert, concrete, abstract, samples=500, seed=1)
        assert report.ok

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, swing_cert, swing_pair, samples):
        # zero samples used to raise numpy's "argmax of an empty sequence"
        concrete, abstract = swing_pair
        with pytest.raises(DimensionMismatchError, match=f"samples must be positive, got {samples}"):
            check_dissipation_sampled(swing_cert, concrete, abstract, samples=samples)

    @pytest.mark.parametrize("modes", [1, 3])
    def test_misfit_certificate_rejected_with_given_gains(self, swing_pair, swing_cert,
                                                          swing_gains, modes):
        # with the gains given nothing else checks the certificate: one mode
        # short sampled only (0, 0) and passed, one mode more raised IndexError
        concrete, abstract = swing_pair
        fields = {f: [*getattr(swing_cert, f), getattr(swing_cert, f)[0]][:modes]
                  for f in "MKQRT"}
        cert = LocalCertificate(**fields, P=swing_cert.P, kappa=swing_cert.kappa)
        with pytest.raises(DimensionMismatchError, match="certificate mode count"):
            check_dissipation_sampled(cert, concrete, abstract, samples=10, gains=swing_gains)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_certified_vehicles_pass_any_seed(self, seed):
        spec, certs, gains, _ = certified_network(seed, max_nodes=3, max_modes=2)
        abstract = spec.abstract_view()
        for i, cert in enumerate(certs):
            report = check_dissipation_sampled(
                cert, spec.subsystems[i], abstract.subsystems[i],
                samples=300, seed=seed + 1,
            )
            assert report.ok, report.witness


def scalar_node(a, c=1.0, b=0.0):
    return SwitchedLinearSubsystem(0, [
        Mode(A=[[a]], B=[[b]], C=[[c]], D=np.zeros((1, 0)), out_blocks={0: (0, 1)}, in_blocks={})
    ])


def stein_loop(concrete, ks, kappa):
    """Reference fixed point: iterate the Stein equation to a 1e-15 relative step."""
    loops = [np.sqrt(3.0 / (1.0 - kappa)) * (mode.A + mode.B @ k)
             for mode, k in zip(concrete.modes, ks)]
    base = sum(mode.C.T @ mode.C for mode in concrete.modes)
    m = base
    for _ in range(10_000):
        m, prev = base + sum(f.T @ m @ f for f in loops), m
        if np.abs(m - prev).max() <= 1e-15 * np.abs(m).max():
            return m
    raise AssertionError("reference loop did not settle")


class TestSynthesizeCertificateMatrix:
    def test_scalar_fixed_point(self):
        # geometric series: M = 1 / (1 - 3 a^2 / (1 - kappa)) at a = 0.25
        m = synthesize_certificate_matrix(scalar_node(0.25), [np.zeros((1, 1))], kappa=0.2)
        assert float(m.entries[0, 0]) == pytest.approx(64.0 / 49.0, rel=1e-12)

    def test_small_matrix_is_exact(self):
        # an absolute step test stopped about 7e-4 short of this fixed point
        m = synthesize_certificate_matrix(scalar_node(0.25, c=1e-3), [np.zeros((1, 1))], kappa=0.2)
        assert float(m.entries[0, 0]) == pytest.approx(1e-6 * 64.0 / 49.0, rel=1e-12)

    def test_entries_near_overflow_are_symmetrized(self):
        # M = 1e308 * 64 / 49 is finite, but the average (M + M') / 2 overflowed
        # in the sum and the result was reported to fail output dominance
        node = scalar_node(0.25, c=1e154)
        m = synthesize_certificate_matrix(node, [np.zeros((1, 1))], kappa=0.2)
        assert float(m.entries[0, 0]) == pytest.approx(1e308 / 49.0 * 64.0, rel=1e-12)

    def test_unstable_loop_diverges(self):
        with pytest.raises(ConvergenceError) as err:
            synthesize_certificate_matrix(scalar_node(1.1), [np.zeros((1, 1))], kappa=0.2)
        # the Stein operator is the scalar 3 a^2 / (1 - kappa)
        assert err.value.details["radius"] == pytest.approx(3 * 1.1**2 / 0.8, rel=1e-12)

    # 3 a^2 / (1 - kappa) = 1 +- 1e-3 at kappa = 0.2: a tolerance-stopped loop
    # ran out of iterations on both sides of radius one
    def test_radius_just_above_one_is_refused(self):
        a = np.sqrt((1.0 + 1e-3) * 0.8 / 3.0)
        with pytest.raises(ConvergenceError) as err:
            synthesize_certificate_matrix(scalar_node(a), [np.zeros((1, 1))], kappa=0.2)
        assert err.value.details["radius"] > 1.0

    def test_radius_just_below_one_is_solved(self):
        a = np.sqrt((1.0 - 1e-3) * 0.8 / 3.0)
        m = synthesize_certificate_matrix(scalar_node(a), [np.zeros((1, 1))], kappa=0.2)
        assert float(m.entries[0, 0]) == pytest.approx(1.0 / (1.0 - 3.0 * a * a / 0.8), rel=1e-10)

    def test_random_node_matches_the_iteration(self):
        rng = np.random.default_rng(11)
        n, m, r, kappa = 3, 2, 3, 0.3
        a, b, ks = (rng.standard_normal((r, n, n)), rng.standard_normal((r, n, m)),
                    rng.standard_normal((r, m, n)))
        # sum_s ||Ft_s||^2 = 0.6 bounds the Stein operator's norm below one
        size = sum(np.linalg.norm(a[s] + b[s] @ ks[s], 2) ** 2 for s in range(r))
        c = np.sqrt(0.6 * (1.0 - kappa) / (3.0 * size))
        a, ks = c * a, c * ks  # scales every closed loop by c
        concrete = SwitchedLinearSubsystem(0, [
            Mode(A=a[s], B=b[s], C=rng.standard_normal((2, n)), D=np.zeros((n, 0)),
                 out_blocks={0: (0, 2)}, in_blocks={})
            for s in range(r)
        ])
        got = synthesize_certificate_matrix(concrete, list(ks), kappa).entries
        want = stein_loop(concrete, ks, kappa)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_overflowing_operands_do_not_converge(self):
        # finite entries whose Stein operator overflows; RuntimeWarning is an error here
        with pytest.raises(ConvergenceError) as err:
            synthesize_certificate_matrix(scalar_node(0.25, b=1.0), [np.array([[1e200]])], 0.2)
        assert err.value.details == {"radius": np.inf}

    def test_feedback_gain_shape_checked(self, swing_cert, swing_pair):
        concrete, _ = swing_pair
        ks = [swing_cert.K[0], np.zeros((2, 2))]
        with pytest.raises(DimensionMismatchError, match=r"K\[1\] must be 1x2") as err:
            synthesize_certificate_matrix(concrete, ks, kappa=0.2)
        assert err.value.details == {"mode": 1}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_feedback_gain_finiteness_checked(self, swing_cert, swing_pair, bad):
        # a NaN gain used to be reported as a diverged iteration
        concrete, _ = swing_pair
        ks = [swing_cert.K[0], np.array([[0.0, bad]])]
        with pytest.raises(SchemaError) as err:
            synthesize_certificate_matrix(concrete, ks, kappa=0.2)
        assert (str(err.value), err.value.details) == (
            "certificate for node 0 mode 1: matrix K has non-finite entries",
            {"node": 0, "mode": 1, "matrix": "K"},
        )

    def test_swing_feedback_converges_and_verifies(self, swing_cert, swing_pair):
        concrete, abstract = swing_pair
        m = synthesize_certificate_matrix(concrete, list(swing_cert.K), kappa=0.2)
        fresh = LocalCertificate(
            M=[m] * 2, K=swing_cert.K, P=swing_cert.P, Q=swing_cert.Q,
            R=swing_cert.R, T=swing_cert.T, kappa=0.2,
        )
        assert verify_certificate(fresh, concrete, abstract).decay
        # output dominance for the synthesized common matrix
        for s in (0, 1):
            c = concrete.modes[s].C
            assert np.linalg.eigvalsh(m.entries - c.T @ c).min() >= -1e-9

    @pytest.mark.parametrize("check, what", [(0, "output dominance"), (1, "the decay condition")])
    def test_recheck_names_the_failing_mode(self, monkeypatch, swing_cert, swing_pair, check, what):
        # one psd_margin_batch call per condition, over all modes
        calls, real = [], simnet.certificates.psd_margin_batch

        def failing_in_mode_1(a, b):
            lam_min, scale = real(a, b)
            if len(calls) == check:
                lam_min = np.where(np.arange(len(lam_min)) == 1, -1.0, lam_min)
            calls.append(len(lam_min))
            return lam_min, scale

        monkeypatch.setattr(simnet.certificates, "psd_margin_batch", failing_in_mode_1)
        concrete, _ = swing_pair
        with pytest.raises(CertificateError, match=f"synthesized matrix fails {what}") as err:
            synthesize_certificate_matrix(concrete, list(swing_cert.K), kappa=0.2)
        assert err.value.details == {"mode": 1} and calls == [2, 2]

    @pytest.mark.parametrize("seed", range(4))
    def test_self_consistency_on_random_vehicles(self, seed):
        spec, certs, _, _ = certified_network(seed, max_nodes=3, max_modes=3)
        for cert, concrete, abstract in zip(certs, spec.subsystems, spec.abstract_subsystems):
            assert verify_certificate(cert, concrete, abstract).decay


class TestSolveStructural:
    def test_swing_closed_forms_reproduced(self, swing_params, swing_pair):
        concrete, abstract = swing_pair
        c = swing_params.c
        sol = solve_structural(
            concrete,
            [[[c]], [[c]]],
            [[1.0], [c - 1.0]],
            abstract_B=[[swing_params.d / (2 * swing_params.m) - 0.6]],
            weight=M_BENCH,
        )
        for s in (0, 1):
            assert float(sol.Q[s][0, 0]) == pytest.approx(4000.0, abs=1e-5)
            assert float(sol.T[s][0, 0]) == pytest.approx(-4000.0, abs=1e-9)
            np.testing.assert_allclose(
                sol.C_hat[s], [[c - 1.0], [1.0]], atol=1e-12
            )
            assert float(sol.D_hat[s][0, 0]) == 0.0
        # R matches the weighted projection closed form
        b = np.array([[0.0], [1e-5]])
        p = np.array([[1.0], [c - 1.0]])
        b_hat = np.array([[swing_params.d / (2 * swing_params.m) - 0.6]])
        r_expected = (b.T @ M_BENCH @ p @ b_hat)[0, 0] / (b.T @ M_BENCH @ b)[0, 0]
        assert float(sol.R[0][0, 0]) == pytest.approx(r_expected, rel=1e-12)

    def test_identity_abstraction_trivial_solution(self):
        concrete, _, _ = scalar_pair(a=0.3)
        sol = solve_structural(
            concrete, [[0.3]], [[1.0]], abstract_B=[[1.0]]
        )
        assert float(sol.Q[0][0, 0]) == pytest.approx(0.0, abs=1e-12)
        assert sol.T[0].shape == (1, 0)

    def test_incompatible_abstract_pole_raises(self):
        # B = [0; 1] cannot absorb a first-row mismatch
        concrete = SwitchedLinearSubsystem(
            0,
            [
                Mode(A=np.zeros((2, 2)), B=[[0.0], [1.0]], C=np.eye(2),
                     D=np.zeros((2, 0)), out_blocks={0: (0, 2)}, in_blocks={})
            ],
        )
        with pytest.raises(StructuralInfeasibleError) as err:
            solve_structural(
                concrete, np.eye(2) + np.diag([1.0, 0.0]),
                np.eye(2), abstract_B=np.zeros((2, 1)),
            )
        assert err.value.details["equation"] == "state"

    @pytest.mark.parametrize("operand, value, message, details", [
        ("P", [[1.0], [0.5], [0.0]], "P must have 2 rows, got shape (3, 1)", {"matrix": "P"}),
        ("abstract_A", [[1.0, 0.0]], "Ahat[0] must be 1x1, got shape (1, 2)",
         {"mode": 0, "matrix": "Ahat"}),
        ("abstract_B", [[1.0], [0.0]], "Bhat[0] must have 1 rows, got shape (2, 1)",
         {"mode": 0, "matrix": "Bhat"}),
        ("abstract_D", [[0.0, 0.0]], "Dhat[0] must be 1x1, got shape (1, 2)",
         {"mode": 0, "matrix": "Dhat"}),
        ("weight", np.eye(3), "weight[0] must be 2x2, got shape (3, 3)",
         {"mode": 0, "matrix": "weight"}),
    ])
    def test_operand_shapes_checked(self, swing_params, swing_pair, operand, value,
                                    message, details):
        # these used to raise numpy's ValueError or be broadcast into a 2x2 Q or T
        concrete, _ = swing_pair
        c = swing_params.c
        args = {"abstract_A": [[c]], "P": [[1.0], [c - 1.0]], "abstract_B": [[0.5]],
                "weight": M_BENCH, operand: value}
        with pytest.raises(DimensionMismatchError) as err:
            solve_structural(concrete, **args)
        assert (str(err.value), err.value.details) == (message, details)


class TestCertificateIO:
    def test_round_trip(self, tmp_path, swing_cert):
        path = tmp_path / "certs.json"
        save_certificates({0: swing_cert, 1: swing_cert}, path)
        loaded = load_certificates(path)
        assert set(loaded) == {0, 1}
        got = loaded[0]
        np.testing.assert_array_equal(got.P, swing_cert.P)
        for s in range(2):
            np.testing.assert_array_equal(got.M[s].entries, swing_cert.M[s].entries)
            np.testing.assert_array_equal(got.K[s], swing_cert.K[s])
            np.testing.assert_array_equal(got.Q[s], swing_cert.Q[s])
            np.testing.assert_array_equal(got.R[s], swing_cert.R[s])
            np.testing.assert_array_equal(got.T[s], swing_cert.T[s])
        assert got.kappa == swing_cert.kappa

    def test_kappa_range_enforced(self):
        with pytest.raises(CertificateError):
            LocalCertificate(
                M=[[[1.0]]], K=[[[0.0]]], P=[[1.0]], Q=[[[0.0]]],
                R=[[[1.0]]], T=[[[0.0]]], kappa=1.5,
            )

    @pytest.mark.parametrize("family", ["R", "T"])
    def test_interface_widths_fixed_across_modes(self, family):
        # the compiled interface lays uhat and what out with one width per node
        widths = {"R": [[[1.0]], [[1.0]]], "T": [[[0.0]], [[0.0]]]}
        widths[family] = [[[1.0]], [[1.0, 0.5]]]
        with pytest.raises(DimensionMismatchError, match=f"{family}\\[1\\]"):
            LocalCertificate(
                M=[[[1.0]]] * 2, K=[[[0.0]]] * 2, P=[[1.0]], Q=[[[0.0]]] * 2,
                R=widths["R"], T=widths["T"], kappa=0.2,
            )

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(CertificateError):
            LocalCertificate(
                M=[[[-1.0]]], K=[[[0.0]]], P=[[1.0]], Q=[[[0.0]]],
                R=[[[1.0]]], T=[[[0.0]]], kappa=0.2,
            )
