"""Gain-operator assembly, small-gain certification, weight construction
and the composed dissipation oracle."""

import numpy as np
import pytest

from simnet import (
    CompositionError,
    GainOperator,
    InterconnectionGraph,
    LocalGains,
    TemplateGains,
    ToleranceProfile,
    build_gain_operator,
    build_gain_operator_from_network,
    check_composed_dissipation,
    check_small_gain,
    construct_mu,
    spectral_radius_dense,
    templated_gain_operator,
)
from simnet.swing import (
    SwingParams,
    compose_ring,
    templated_ring_operator,
    topology_graph,
)
from vehicles import (
    certified_network,
    decoupled_tight_node,
    evaluate_V,
    heterogeneous_network,
    tight_two_node_network,
)

# bracket width relative to hi, for comparisons with an absolute 1e-8 at
# radii well above one
TIGHT = ToleranceProfile(eig_tol=1e-11)


def gains(lam=0.2, rho_int=0.0, rho_ext=0.0, alpha=1.0):
    return LocalGains(alpha=alpha, lam=lam, rho_int=rho_int, rho_ext=rho_ext)


def chain_graph():
    return InterconnectionGraph(
        nodes=(0, 1),
        in_neighbors={0: (1,), 1: (0,)},
        out_neighbors={0: (1,), 1: (0,)},
    )


def dense_gamma(op):
    """Gamma scattered from the operator's edge list."""
    gamma = np.zeros((op.n, op.n))
    gamma[op.rows, op.cols] = op.gamma
    return gamma


def operator_from_dense(gamma, lam):
    """Finite operator on nodes 0..n-1 with the positive entries of gamma."""
    n = len(lam)
    rows, cols = np.nonzero(gamma)
    return GainOperator(
        node_ids=tuple(range(n)), rows=rows, cols=cols, gamma=gamma[rows, cols],
        lam=np.asarray(lam, dtype=float),
    )


def reference_gamma(spec, gains):
    """The mode-robust Gamma by the per-node, per-mode loop, as a dense array."""
    pos = {node: p for p, node in enumerate(spec.graph.nodes)}
    gamma = np.zeros((spec.n_nodes, spec.n_nodes))
    for sub in spec.subsystems:
        for s in range(sub.n_modes):
            fan_in = sub.in_neighbors(s)
            for j in fan_in:
                cand = gains[sub.id].rho_int * len(fan_in) / gains[j].alpha
                gamma[pos[sub.id], pos[j]] = max(gamma[pos[sub.id], pos[j]], cand)
    return gamma


def fan_in_switching_network():
    """Node 0 reads nodes 1, 3, 4 in mode 0 and nodes 1, 2 in mode 1 (the
    edge from 2 is two wide), so its fan-in is 3 in one mode and 2 in the
    other, and the entry for node 1 differs between the modes."""
    from simnet import Mode, NetworkSpec, SwitchedLinearSubsystem

    width = {1: 1, 2: 2, 3: 1, 4: 1}
    reads = (
        {1: (0, 1), 3: (1, 2), 4: (2, 3), 2: (3, 3)},
        {1: (0, 1), 2: (1, 3), 3: (3, 3), 4: (3, 3)},
    )
    hub = SwitchedLinearSubsystem(0, [
        Mode(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[1.0, 1.0, 1.0]],
             out_blocks={0: (0, 1)}, in_blocks=blocks)
        for blocks in reads
    ])
    feeders = [
        SwitchedLinearSubsystem(j, [
            Mode(A=[[0.5]], B=[[1.0]], C=np.ones((1 + w, 1)), D=np.zeros((1, 0)),
                 out_blocks={j: (0, 1), 0: (1, 1 + w)}, in_blocks={})
        ] * 2)
        for j, w in width.items()
    ]
    return NetworkSpec([hub] + feeders)


class TestBuildGainOperator:
    def test_entry_is_the_largest_over_modes(self):
        spec = fan_in_switching_network()
        g = {i: gains(rho_int=0.01 * (i + 1), alpha=0.5 + 0.1 * i) for i in range(5)}
        op = build_gain_operator_from_network(spec, g)
        np.testing.assert_array_equal(dense_gamma(op), reference_gamma(spec, g))
        assert dense_gamma(op)[0, 1] == g[0].rho_int * 3 / g[1].alpha

    @pytest.mark.parametrize("seed", range(3))
    def test_edge_list_matches_loop_reference(self, seed):
        from simnet import generate_ring_network

        if seed == 2:  # each mode reads a different neighbour
            spec = generate_ring_network(SwingParams(n_nodes=9))
        else:
            spec, _ = heterogeneous_network(seed)
        rng = np.random.default_rng(seed)
        g = {
            i: gains(lam=float(rng.uniform(0.2, 0.8)), rho_int=float(rng.uniform(0.0, 0.3)),
                     alpha=float(rng.uniform(0.5, 2.0)))
            for i in spec.graph.nodes
        }
        op = build_gain_operator_from_network(spec, g)
        np.testing.assert_array_equal(dense_gamma(op), reference_gamma(spec, g))
        assert np.all(op.gamma > 0.0)
        assert np.all(np.diff(op.rows * op.n + op.cols) > 0)  # sorted, one entry per pair

    def test_decoupled_network_zero_matrix(self):
        graph = InterconnectionGraph((0, 1), {0: (), 1: ()}, {0: (), 1: ()})
        op = build_gain_operator([gains(), gains()], graph)
        assert np.all(dense_gamma(op) == 0.0)
        assert op.gamma_colsum_sup == 0.0

    def test_ring_topology_single_entry_per_row(self, swing_params, swing_gains):
        graph = topology_graph(swing_params, mode=0)
        op = build_gain_operator([swing_gains] * 3, graph)
        for row in dense_gamma(op):
            nz = row[row > 0]
            assert len(nz) == 1
            # one neighbor, unit alpha: gamma equals rho_int exactly
            assert nz[0] == pytest.approx(swing_gains.rho_int, rel=1e-12)

    def test_two_node_chain_symmetric(self):
        op = build_gain_operator(
            [gains(lam=0.5, rho_int=0.1), gains(lam=0.5, rho_int=0.1)], chain_graph()
        )
        np.testing.assert_allclose(dense_gamma(op), [[0.0, 0.1], [0.1, 0.0]])

    def test_missing_gains_rejected(self):
        with pytest.raises(CompositionError):
            build_gain_operator({0: gains()}, chain_graph())

    def test_mode_robust_operator_uses_per_mode_in_degree(self, swing_params, swing_gains):
        from simnet import generate_ring_network

        spec = generate_ring_network(swing_params)
        op = build_gain_operator_from_network(spec, [swing_gains] * 3)
        # union wiring: two potential feeders, each active alone per mode
        for i in range(3):
            row = dense_gamma(op)[i]
            assert (row > 0).sum() == 2
            for v in row[row > 0]:
                assert v == pytest.approx(swing_gains.rho_int, rel=1e-12)


class TestCheckSmallGain:
    def test_zero_gamma_radius_zero(self):
        graph = InterconnectionGraph((0,), {0: ()}, {0: ()})
        op = build_gain_operator([gains()], graph)
        res = check_small_gain(op)
        assert res.satisfied and res.radius_or_bound == 0.0

    def test_templated_ring_formula_bound(self, swing_gains):
        op = templated_ring_operator(swing_gains)
        res = check_small_gain(op)
        assert res.satisfied
        assert res.radius_or_bound == pytest.approx(
            swing_gains.rho_int / swing_gains.lam, rel=1e-12
        )
        assert res.radius_or_bound == pytest.approx(0.42792, abs=1e-9)

    def test_templated_ring_reported_gain_level(self):
        # at the reported benchmark input gain the bound is 0.7275
        op = templated_gain_operator(
            [TemplateGains(lam=0.2, alpha=1.0, rho_int=0.1455, n_bar=1, readers=((0, 1),))]
        )
        res = check_small_gain(op)
        assert res.satisfied
        assert res.radius_or_bound == pytest.approx(0.7275, abs=1e-12)

    def test_four_cycle_above_one_not_satisfied(self):
        lam = np.full(4, 0.5)
        gamma = np.zeros((4, 4))
        for i in range(4):
            gamma[i, (i - 1) % 4] = 0.6  # psi = 1.2 per edge
        res = check_small_gain(operator_from_dense(gamma, lam))
        assert not res.satisfied
        assert res.radius_or_bound == pytest.approx(1.2, abs=1e-9)

    def test_unbounded_fan_out_rejected(self):
        op = templated_gain_operator(
            [
                TemplateGains(
                    lam=0.2, alpha=1.0, rho_int=0.01, n_bar=1,
                    readers=((0, float("inf")),),
                )
            ]
        )
        with pytest.raises(CompositionError):
            check_small_gain(op)

    def test_templated_bound_dominates_ring_truncations(self, swing_gains):
        templated = templated_ring_operator(swing_gains)
        bound = check_small_gain(templated).radius_or_bound
        for n in range(3, 65):
            graph = topology_graph(SwingParams(n_nodes=n), mode=0)
            finite = build_gain_operator([swing_gains] * n, graph)
            assert check_small_gain(finite).radius_or_bound <= bound + 1e-9


class TestConstructMu:
    def test_single_node_full_rate(self):
        graph = InterconnectionGraph((0,), {0: ()}, {0: ()})
        op = build_gain_operator([gains(lam=0.2)], graph)
        core = construct_mu(op)
        np.testing.assert_allclose(core.mu, [1.0])
        assert core.lambda_inf >= 0.2 - 1e-4
        assert core.lambda_inf < 0.2

    def test_templated_ring_rate(self, swing_gains):
        core = construct_mu(templated_ring_operator(swing_gains))
        assert core.mu is None  # uniform weights
        assert core.lambda_inf == pytest.approx(0.2 - swing_gains.rho_int, rel=1e-12)
        assert core.lambda_inf == pytest.approx(0.114416, abs=1e-9)

    def test_templated_ring_reported_gain_rate(self):
        op = templated_gain_operator(
            [
                TemplateGains(
                    lam=0.2, alpha=1.0, rho_int=0.1455, n_bar=1,
                    readers=((0, 1),), rho_ext=8.1487e-11,
                )
            ]
        )
        core = construct_mu(op)
        assert core.lambda_inf == pytest.approx(0.0545, abs=1e-12)

    def test_two_node_chain_symmetric_weights(self):
        op = build_gain_operator(
            [gains(lam=0.5, rho_int=0.1), gains(lam=0.5, rho_int=0.1)], chain_graph()
        )
        core = construct_mu(op)
        assert core.lambda_inf == pytest.approx(0.4, abs=1e-4)
        assert core.mu[0] == pytest.approx(core.mu[1], rel=1e-9)
        # direct substitution in the weighted-decay inequality
        lhs = (-op.lam * core.mu + dense_gamma(op).T @ core.mu) / core.mu
        assert np.all(lhs <= -core.lambda_inf + 1e-9)

    def test_small_gain_failure_raises(self):
        op = build_gain_operator(
            [gains(lam=0.2, rho_int=0.5), gains(lam=0.2, rho_int=0.5)], chain_graph()
        )
        with pytest.raises(CompositionError):
            construct_mu(op)

    def test_degenerate_margin_raises(self):
        # radius inside the small-gain region but above the weight
        # construction's feasibility cap: certified, yet no usable rate
        rho = 0.2 * (1.0 - 5e-7)
        op = build_gain_operator(
            [gains(lam=0.2, rho_int=rho), gains(lam=0.2, rho_int=rho)], chain_graph()
        )
        assert check_small_gain(op).satisfied
        with pytest.raises(CompositionError):
            construct_mu(op)

    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_decay_componentwise_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        nodes = tuple(range(n))
        in_n = {}
        for i in nodes:
            others = [j for j in nodes if j != i]
            in_n[i] = tuple(j for j in others if rng.random() < 0.5)
        out_n = {j: tuple(i for i in nodes if j in in_n[i]) for j in nodes}
        graph = InterconnectionGraph(nodes, in_n, out_n)
        lams = rng.uniform(0.2, 0.8, n)
        g = [
            gains(lam=float(lams[i]), rho_int=float(rng.uniform(0.0, 0.02)))
            for i in range(n)
        ]
        op = build_gain_operator(g, graph)
        if not check_small_gain(op).satisfied:
            pytest.skip("instance not composable")
        core = construct_mu(op)
        lhs = (-op.lam * core.mu + dense_gamma(op).T @ core.mu) / core.mu
        assert float(lhs.max()) <= -core.lambda_inf + 1e-9
        assert np.all(core.mu >= 1.0 - 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_scaling_gamma_down_never_lowers_rate(self, seed):
        rng = np.random.default_rng(100 + seed)
        op = build_gain_operator(
            [
                gains(lam=0.5, rho_int=float(rng.uniform(0.05, 0.2))),
                gains(lam=0.4, rho_int=float(rng.uniform(0.05, 0.2))),
            ],
            chain_graph(),
        )
        if not check_small_gain(op).satisfied:
            pytest.skip("instance not composable")
        base = construct_mu(op).lambda_inf
        for theta in (0.9, 0.5, 0.1):
            scaled = operator_from_dense(theta * dense_gamma(op), op.lam)
            assert construct_mu(scaled).lambda_inf >= base - 1e-9


class TestComposeCertificate:
    def test_uniform_weights_unit_alpha(self, swing_params):
        composed, core, g, certs = compose_ring(swing_params)
        assert composed.alpha_total == 1.0
        assert composed.mu_min == composed.mu_max == 1.0
        assert composed.rho_ext_coeff == pytest.approx(g.rho_ext, rel=1e-12)

    def test_value_is_weighted_sum(self, swing_params):
        composed, _, _, certs = compose_ring(swing_params)
        rng = np.random.default_rng(3)
        states = [rng.uniform(-1, 1, 2) for _ in range(3)]
        hats = [rng.uniform(-1, 1, 1) for _ in range(3)]
        direct = sum(
            evaluate_V(certs[i], states[i], hats[i], 0) for i in range(3)
        )
        assert composed.evaluate_V(states, hats, [0, 0, 0]) == pytest.approx(
            direct, rel=1e-12
        )

    def test_two_node_weighted_sum_oracle(self):
        spec, certs, g, composed = tight_two_node_network()
        rng = np.random.default_rng(5)
        states = [rng.uniform(-1, 1, 2) for _ in range(2)]
        hats = [rng.uniform(-1, 1, 1) for _ in range(2)]
        direct = sum(
            composed.mu[i] * evaluate_V(certs[i], states[i], hats[i], 0)
            for i in range(2)
        )
        assert composed.evaluate_V(states, hats, [0, 0]) == pytest.approx(
            direct, rel=1e-12
        )


class TestComposedDissipation:
    def test_single_decoupled_node_passes(self):
        spec, cert, g, composed = decoupled_tight_node()
        report = check_composed_dissipation(composed, spec, samples=200, seed=0)
        assert report.ok, report.witness

    def test_swing_ring_synchronized_passes(self, swing_params):
        from simnet import generate_ring_network

        spec = generate_ring_network(swing_params)
        composed, _, _, _ = compose_ring(swing_params)
        report = check_composed_dissipation(
            composed, spec, samples=500, seed=0, synchronized=True
        )
        assert report.ok, report.witness
        assert report.violations == 0

    def test_synchronized_pairs_admissible_for_every_node(self, swing_params, monkeypatch):
        # node 1 admits only the staying pairs, so a shared draw of (0, 1) or
        # (1, 0) from node 0's pairs would step node 1 through a transition
        # its certificate does not cover
        from simnet import LocalCertificate, generate_ring_network
        from simnet.composition import ComposedCertificate, Lockstep

        spec = generate_ring_network(swing_params)
        composed, _, _, certs = compose_ring(swing_params)
        c = certs[0]
        staying = LocalCertificate(M=[m.entries for m in c.M], K=c.K, P=c.P, Q=c.Q, R=c.R,
                                   T=c.T, kappa=c.kappa, transitions=[(0, 0), (1, 1)])
        restricted = ComposedCertificate(composed.mu, composed.lambda_inf,
                                         composed.alpha_total, composed.rho_ext_coeff,
                                         [c, staying, c])
        now, nxt, step, value = [], [], Lockstep.step, ComposedCertificate.value

        def record_now(self, x, x_hat, u_hat, modes):
            now.append(tuple(modes))
            return step(self, x, x_hat, u_hat, modes)

        def record_next(self, x, x_hat, modes):
            nxt.append(tuple(modes))
            return value(self, x, x_hat, modes)

        monkeypatch.setattr(Lockstep, "step", record_now)
        monkeypatch.setattr(ComposedCertificate, "value", record_next)
        check_composed_dissipation(restricted, spec, samples=40, synchronized=True)
        assert set(zip(now, nxt)) == {((0,) * 3, (0,) * 3), ((1,) * 3, (1,) * 3)}
        monkeypatch.undo()
        # the draws follow node 0's order: with every node agreeing, the same stream
        both = check_composed_dissipation(restricted, spec, samples=40, seed=3, synchronized=True)
        again = check_composed_dissipation(
            ComposedCertificate(composed.mu, composed.lambda_inf, composed.alpha_total,
                                composed.rho_ext_coeff, [staying] * 3),
            spec, samples=40, seed=3, synchronized=True,
        )
        assert both == again

    def test_synchronized_without_a_common_pair_rejected(self, swing_params):
        from simnet import LocalCertificate, generate_ring_network
        from simnet.composition import ComposedCertificate

        spec = generate_ring_network(swing_params)
        composed, _, _, certs = compose_ring(swing_params)
        c = certs[0]
        only = [LocalCertificate(M=[m.entries for m in c.M], K=c.K, P=c.P, Q=c.Q, R=c.R,
                                 T=c.T, kappa=c.kappa, transitions=[pair])
                for pair in ((0, 1), (1, 0), (0, 1))]
        restricted = ComposedCertificate(composed.mu, composed.lambda_inf,
                                         composed.alpha_total, composed.rho_ext_coeff, only)
        with pytest.raises(CompositionError, match="no mode pair is admissible for every node"):
            check_composed_dissipation(restricted, spec, samples=5, synchronized=True)

    def test_tight_network_asynchronous_passes(self):
        spec, certs, g, composed = tight_two_node_network()
        report = check_composed_dissipation(composed, spec, samples=400, seed=2)
        assert report.ok, report.witness

    def test_inflated_rate_is_falsified(self):
        # decay rate pushed past one makes the allowed right side negative,
        # so any sample with positive value is a witness
        from simnet.composition import ComposedCertificate

        spec, cert, g, composed = decoupled_tight_node(kappa=0.6)
        assert composed.lambda_inf > 0.5
        inflated = ComposedCertificate(
            mu=composed.mu,
            lambda_inf=min(2.0 * composed.lambda_inf, 0.999999),
            alpha_total=composed.alpha_total,
            rho_ext_coeff=composed.rho_ext_coeff,
            certificates=composed.certificates,
        )
        report = check_composed_dissipation(inflated, spec, samples=200, seed=1)
        assert not report.ok
        assert report.witness is not None

    @pytest.mark.parametrize("seed", [0, 3])
    def test_certified_random_networks_pass(self, seed):
        spec, certs, g, composed = certified_network(seed, max_nodes=3, max_modes=2)
        report = check_composed_dissipation(composed, spec, samples=250, seed=seed)
        assert report.ok, report.witness


class TestRadiusCrossCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_dense_vs_power_on_psi(self, seed):
        """Dense eigenvalues against the iterative path, now the radius
        bracket that replaced power iteration."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 64))
        psi = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.3)
        dense = spectral_radius_dense(psi)
        # unit lam, so the operator's Psi is psi itself; radii reach about
        # 10, so an absolute 1e-8 needs a relative width below 1e-9
        res = check_small_gain(operator_from_dense(psi, np.ones(n)), TIGHT)
        assert abs(dense - res.radius_or_bound) <= 1e-8
        assert res.lower <= dense


def graph_of(in_neighbors):
    """InterconnectionGraph on nodes 0..n-1 from per-node in-neighbor lists."""
    n = len(in_neighbors)
    out = {j: [] for j in range(n)}
    for i, js in enumerate(in_neighbors):
        for j in js:
            out[j].append(i)
    return InterconnectionGraph(
        tuple(range(n)),
        {i: tuple(js) for i, js in enumerate(in_neighbors)},
        {j: tuple(v) for j, v in out.items()},
    )


def operator_with_psi(in_neighbors, psi_rows, lam=0.2):
    """Operator whose Psi entries in row i all equal psi_rows[i]:
    rho_int_i = psi_i * lam / N_i with unit alphas."""
    g = [
        gains(lam=lam, rho_int=float(p) * lam / max(len(js), 1))
        for p, js in zip(psi_rows, in_neighbors)
    ]
    return build_gain_operator(g, graph_of(in_neighbors))


def decide_against_dense(op, tol=None):
    """check_small_gain's verdict and bracket against the dense eigenvalues
    of Psi; the 1e-12 slack is the eigenvalue reference's own rounding,
    which matters where the bracket is exact."""
    from simnet.composition import RADIUS_MARGIN

    res = check_small_gain(op) if tol is None else check_small_gain(op, tol)
    dense = spectral_radius_dense(dense_gamma(op) / op.lam[:, None])
    slack = 1e-12 * (1.0 + dense)
    assert res.lower - slack <= dense <= res.radius_or_bound + slack
    assert res.satisfied == (dense < 1.0 - RADIUS_MARGIN)
    return res, dense


class TestSparseSmallGain:
    """Certified verdicts on the shapes where an estimate goes wrong."""

    def test_one_block_just_above_one_is_not_satisfied(self):
        # 33 disjoint complete 3-node blocks; Psi entries p give radius 2 p
        in_n = [[3 * (i // 3) + k for k in range(3) if 3 * (i // 3) + k != i] for i in range(99)]
        rng = np.random.default_rng(7)
        radii = rng.uniform(0.3, 0.9, 33)
        radii[17] = 1.0000001
        res, dense = decide_against_dense(operator_with_psi(in_n, np.repeat(radii / 2, 3)))
        assert not res.satisfied
        assert dense == pytest.approx(1.0000001, abs=1e-12)

    def test_one_way_ring_with_uneven_gains_decides(self):
        # period 101: the bracket does not narrow to eig_tol within
        # iter_max, but decides long before
        rng = np.random.default_rng(1)
        psi = rng.uniform(0.3, 1.6, 101)
        psi *= 0.8 / np.exp(np.log(psi).mean())  # radius = geometric mean = 0.8
        op = operator_with_psi([[(i - 1) % 101] for i in range(101)], psi)
        res, dense = decide_against_dense(op)
        assert res.satisfied
        assert dense == pytest.approx(0.8, abs=1e-12)
        full = construct_mu(op, small_gain=res)
        # probes still straddling the feasibility line after 10 iterations
        # count as infeasible: a lower rate, still verified by construct_mu
        short = construct_mu(op, ToleranceProfile(iter_max=10), small_gain=res)
        assert 0.0 < short.lambda_inf < full.lambda_inf

    def test_bipartite_operator(self):
        # two sides reading only each other: eigenvalues come in +- pairs
        rng = np.random.default_rng(2)
        left, right = list(range(20)), list(range(20, 50))
        in_n = [sorted(rng.choice(right, 3, replace=False).tolist()) for _ in left]
        in_n += [sorted(rng.choice(left, 3, replace=False).tolist()) for _ in right]
        res, dense = decide_against_dense(operator_with_psi(in_n, rng.uniform(0.1, 0.5, 50)))
        assert res.satisfied
        spectrum = np.linalg.eigvals(dense_gamma(operator_with_psi(in_n, np.ones(50))))
        assert np.any(np.isclose(spectrum, -np.abs(spectrum).max()))

    def test_reducible_operator_with_singleton_components(self):
        # a chain feeding a 3-cycle feeding a tail: the chain and tail nodes
        # are components of radius zero, the cycle sets the radius
        in_n = [[]] + [[i - 1] for i in range(1, 10)]
        in_n += [[9, 12], [10], [11], [12], [13]]
        psi = np.random.default_rng(3).uniform(0.5, 3.0, 15)
        res, dense = decide_against_dense(operator_with_psi(in_n, psi))
        cycle = (psi[10] * psi[11] * psi[12]) ** (1 / 3)
        assert dense == pytest.approx(cycle, rel=1e-12)
        chain_only = operator_with_psi(in_n[:10], psi[:10])
        res = check_small_gain(chain_only)
        assert res.lower == res.radius_or_bound == 0.0 and res.satisfied

    def test_wide_gain_thousand_node_operator_composes(self):
        # bench/gen.py's scalar shape with its wide ranges: rho_int weights
        # in [0.1, 3.0], kappa in [0.05, 0.5], 4 random in-neighbours
        n = 1000
        rng = np.random.default_rng(5)
        in_n = [
            sorted(int(j) + int(j >= i) for j in rng.choice(n - 1, 4, replace=False))
            for i in range(n)
        ]
        weights, kappa = rng.uniform(0.1, 3.0, n), rng.uniform(0.05, 0.5, n)
        graph = graph_of(in_n)

        def op_at(scale):
            g = [gains(lam=float(k), rho_int=float(scale * w)) for w, k in zip(weights, kappa)]
            return build_gain_operator(g, graph)

        unit = check_small_gain(op_at(1.0)).radius_or_bound
        op = op_at(0.8 / unit)
        res, dense = decide_against_dense(op)
        assert res.satisfied and dense == pytest.approx(0.8, rel=1e-6)
        core = construct_mu(op, small_gain=res)
        assert 0.0 < core.lambda_inf < op.lam.min()
        assert np.all(core.mu >= 1.0 - 1e-12)
        # at lambda_inf the weighted-decay operator T is certified below one
        t = dense_gamma(op) / (op.lam - core.lambda_inf)[None, :]
        assert spectral_radius_dense(t) <= 1.0 - 1e-6 + 1e-12

    def test_reused_check_matches_a_fresh_one(self):
        ring = [[(i - 1) % 7, (i + 1) % 7] for i in range(7)]
        op = operator_with_psi(ring, np.linspace(0.15, 0.45, 7))
        fresh = construct_mu(op)
        reused = construct_mu(op, small_gain=check_small_gain(op))
        assert fresh.lambda_inf == reused.lambda_inf
        np.testing.assert_array_equal(fresh.mu, reused.mu)

    def test_ten_thousand_node_ring_decides_small_and_fast(self):
        # the swing ring's topology (each bus reads both neighbours) with
        # eight bus types repeating around the ring
        import time
        import tracemalloc

        n = 10_000
        psi = np.resize([0.15, 0.45, 0.25, 0.6, 0.3, 0.1, 0.4, 0.2], n)
        op = operator_with_psi([[(i - 1) % n, (i + 1) % n] for i in range(n)], psi)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            res = check_small_gain(op)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.satisfied
        assert res.radius_or_bound - res.lower <= 1e-8 * res.radius_or_bound
        assert elapsed < 1.0
        assert peak < 20e6  # an n x n float array alone is 800 MB
