"""Synthetic test vehicles.

- stacked_step_oracle: an independent monolithic one-step update of the
  closed interconnection (dense matrices, single matmul), used to
  cross-check the blockwise network step.
- blockwise_internal_input: the internal inputs w_ij = y_ji assembled node
  by node, the reference for the compiled wiring.
- interface_input / evaluate_V: one node's refined input and tracking
  energy, the references for the compiled certificates.
- per_node: a flat vector cut into per-node parts by a layout's offsets.
- export_run_reference: the run CSV written one float at a time, the
  reference for the row-at-a-time export_run.
- random_network / certified_network: seeded generators; the certified
  variant builds exact structural data (B invertible, contraction targets)
  so every generated certificate passes all verifications and the coupling
  is weak enough for the small-gain condition.
- heterogeneous_network: the same construction with three modes, state
  dimensions 1 to 4, restricted transitions and an isolated node, for the
  batched verification kernel.
- tight vehicles: certificates where the decay inequality and the
  input-split inequality hold with equality in aligned directions, so
  corruptions (halved gains, inflated rates, perturbed feedback) have
  guaranteed violation witnesses.
"""

from __future__ import annotations

import numpy as np

from simnet import (
    DimensionMismatchError,
    LocalCertificate,
    Mode,
    NetworkSpec,
    SwitchedLinearSubsystem,
    build_gain_operator_from_network,
    check_small_gain,
    compose_certificate,
    construct_mu,
    derive_gains,
    synthesize_certificate_matrix,
)

KAPPA = 0.2


def stacked_step_oracle(spec: NetworkSpec, states, inputs, modes):
    """Monolithic next state of the closed interconnection.

    Builds the full coupled state matrix (diagonal A blocks plus
    D-block @ C-block coupling terms) and applies it in one shot.
    """
    sizes = [sub.n for sub in spec.subsystems]
    offs = np.concatenate(([0], np.cumsum(sizes)))
    total = int(offs[-1])
    a_full = np.zeros((total, total))
    x_full = np.concatenate([np.asarray(x, dtype=float) for x in states])
    bu_full = np.zeros(total)
    for pos, sub in enumerate(spec.subsystems):
        mode = sub.modes[modes[pos]]
        sl = slice(offs[pos], offs[pos + 1])
        a_full[sl, sl] += mode.A
        for j, (lo, hi) in mode.in_blocks.items():
            if hi <= lo:
                continue
            jpos = spec.graph.nodes.index(j)
            src_mode = spec.subsystems[jpos].modes[modes[jpos]]
            r0, r1 = src_mode.out_blocks[sub.id]
            a_full[sl, offs[jpos]:offs[jpos + 1]] += mode.D[:, lo:hi] @ src_mode.C[r0:r1]
        bu_full[sl] = mode.B @ np.asarray(inputs[pos], dtype=float)
    x_next = a_full @ x_full + bu_full
    return [x_next[offs[p]:offs[p + 1]] for p in range(len(sizes))]


def blockwise_internal_input(spec: NetworkSpec, states, modes):
    """Per-node internal inputs: w_i[lo:hi] = C_j[r] x_j for each in-block."""
    ws = []
    for pos, sub in enumerate(spec.subsystems):
        w = np.zeros(sub.internal_width)
        for j, (lo, hi) in sub.modes[modes[pos]].in_blocks.items():
            if hi > lo:
                jpos = spec.graph.nodes.index(j)
                src_mode = spec.subsystems[jpos].modes[modes[jpos]]
                r0, r1 = src_mode.out_blocks[sub.id]
                w[lo:hi] = src_mode.C[r0:r1] @ np.asarray(states[jpos], dtype=float)
        ws.append(w)
    return ws


def error_vector(cert: LocalCertificate, x, x_hat) -> np.ndarray:
    return np.asarray(x, dtype=float) - cert.P @ np.asarray(x_hat, dtype=float)


def interface_input(cert: LocalCertificate, x, x_hat, u_hat, w_hat, mode: int) -> np.ndarray:
    """Refined input u = K (x - P xhat) + Q xhat + R uhat + T what."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    u_hat = np.asarray(u_hat, dtype=float)
    w_hat = np.asarray(w_hat, dtype=float)
    if x.shape != (cert.n,) or x_hat.shape != (cert.n_abstract,):
        raise DimensionMismatchError(
            f"interface expects state dims ({cert.n},)/({cert.n_abstract},), "
            f"got {x.shape}/{x_hat.shape}"
        )
    return (
        cert.K[mode] @ error_vector(cert, x, x_hat)
        + cert.Q[mode] @ x_hat
        + cert.R[mode] @ u_hat
        + cert.T[mode] @ w_hat
    )


def evaluate_V(cert: LocalCertificate, x, x_hat, mode: int) -> float:
    """Tracking energy (x - P xhat)' M_mode (x - P xhat); nonnegative."""
    e = error_vector(cert, x, x_hat)
    return max(float(e @ cert.M[mode].entries @ e), 0.0)


def per_node(layout, flat) -> list[np.ndarray]:
    """The parts of a flat vector (or of each row of a stack of them) that
    belong to each node of ``layout``: ``[..., off[i]:off[i + 1]]``."""
    off = layout.off.tolist()
    return [flat[..., lo:hi] for lo, hi in zip(off, off[1:])]


def export_run_reference(run, path) -> None:
    """The run CSV as export_run writes it, built one cell at a time: per
    step k, error_norm, V, u_hat_norm, then every node's external output
    components, each formatted on its own with 17 significant digits."""

    def fmt(v) -> str:
        return f"{float(v):.17g}"

    header = ["k", "error_norm", "V", "u_hat_norm"]
    for node, width in zip(run.node_ids, run.external_widths):
        if width == 1:
            header.append(f"y{node}")
        else:
            header.extend(f"y{node}_{c}" for c in range(width))
    off = np.concatenate(([0], np.cumsum(run.external_widths, dtype=int)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(len(run.error_trace)):
            cells = [str(k), fmt(run.error_trace[k]), fmt(run.v_trace[k]), fmt(run.u_hat_norms[k])]
            for lo, hi in zip(off[:-1], off[1:]):
                cells.extend(fmt(v) for v in run.external_outputs[k][lo:hi])
            fh.write(",".join(cells) + "\n")


def random_network(seed: int, max_nodes: int = 4, max_modes: int = 3) -> NetworkSpec:
    """Seeded random network (no abstraction): arbitrary wiring and dynamics."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(2, max_nodes + 1))
    n_modes = [int(rng.integers(1, max_modes + 1)) for _ in range(n_nodes)]
    dims = [int(rng.integers(1, 4)) for _ in range(n_nodes)]
    m_dims = [int(rng.integers(1, 3)) for _ in range(n_nodes)]
    in_sets = []
    for i in range(n_nodes):
        others = [j for j in range(n_nodes) if j != i]
        picks = [j for j in others if rng.random() < 0.6]
        in_sets.append(tuple(picks))
    out_sets = [
        tuple(i for i in range(n_nodes) if j in in_sets[i]) for j in range(n_nodes)
    ]
    ext_w = [int(rng.integers(1, 3)) for _ in range(n_nodes)]
    subs = []
    for i in range(n_nodes):
        q = ext_w[i] + len(out_sets[i])
        out_blocks = {i: (0, ext_w[i])}
        cursor = ext_w[i]
        for j in out_sets[i]:
            out_blocks[j] = (cursor, cursor + 1)
            cursor += 1
        in_blocks = {}
        cursor = 0
        for j in in_sets[i]:
            in_blocks[j] = (cursor, cursor + 1)
            cursor += 1
        nw = cursor
        modes = [
            Mode(
                A=rng.uniform(-1, 1, (dims[i], dims[i])),
                B=rng.uniform(-1, 1, (dims[i], m_dims[i])),
                C=rng.uniform(-1, 1, (q, dims[i])),
                D=rng.uniform(-1, 1, (dims[i], nw)),
                out_blocks=dict(out_blocks),
                in_blocks=dict(in_blocks),
            )
            for _ in range(n_modes[i])
        ]
        subs.append(SwitchedLinearSubsystem(i, modes))
    return NetworkSpec(subs)


def _random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def certified_network(seed: int, max_nodes: int = 4, max_modes: int = 3):
    """Seeded random network with exact abstractions and valid certificates.

    Returns (spec, certs, gains, composed).  Construction: B well
    conditioned so the structural equations solve exactly; closed-loop
    targets are scaled rotations (spectral norm 0.22) so the certificate
    iteration converges; couplings are weak (|D| ~ 5e-3) so the network
    composes.  Abstract couplings are zero and abstract poles contractive.
    """
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(2, max_nodes + 1))
    n_modes = [int(rng.integers(1, max_modes + 1)) for _ in range(n_nodes)]
    dims = [int(rng.integers(1, 4)) for _ in range(n_nodes)]
    hat_dims = [int(rng.integers(1, dims[i] + 1)) for i in range(n_nodes)]
    in_sets = []
    for i in range(n_nodes):
        others = [j for j in range(n_nodes) if j != i]
        picks = [j for j in others if rng.random() < 0.6]
        in_sets.append(tuple(picks))
    out_sets = [
        tuple(i for i in range(n_nodes) if j in in_sets[i]) for j in range(n_nodes)
    ]

    subs, abstract_subs, certs, gains = [], [], [], []
    for i in range(n_nodes):
        n, nh, r = dims[i], hat_dims[i], n_modes[i]
        q = 1 + len(out_sets[i])
        out_blocks = {i: (0, 1)}
        for idx, j in enumerate(out_sets[i]):
            out_blocks[j] = (1 + idx, 2 + idx)
        in_blocks = {j: (idx, idx + 1) for idx, j in enumerate(in_sets[i])}
        nw = len(in_sets[i])

        b = _random_orthogonal(rng, n) @ np.diag(rng.uniform(0.8, 1.2, n))
        b_inv = np.linalg.inv(b)
        p = np.linalg.qr(rng.standard_normal((n, nh)))[0]
        b_hat = 0.5 * rng.uniform(-1, 1, (nh, 1))

        a_list, c_list, d_list, f_list, ah_list = [], [], [], [], []
        for _ in range(r):
            a_list.append(rng.uniform(-1, 1, (n, n)))
            c_list.append(rng.uniform(-1, 1, (q, n)))
            d_list.append(5e-3 * rng.uniform(-1, 1, (n, nw)))
            f_list.append(0.22 * _random_orthogonal(rng, n))
            ah_list.append(0.6 * _random_orthogonal(rng, nh))

        k_list = [b_inv @ (f_list[s] - a_list[s]) for s in range(r)]
        q_list = [b_inv @ (p @ ah_list[s] - a_list[s] @ p) for s in range(r)]
        t_list = [-b_inv @ d_list[s] for s in range(r)]
        d_hat = np.zeros((nh, nw))
        modes = [
            Mode(A=a_list[s], B=b, C=c_list[s], D=d_list[s],
                 out_blocks=dict(out_blocks), in_blocks=dict(in_blocks))
            for s in range(r)
        ]
        sub = SwitchedLinearSubsystem(i, modes)
        abstract_modes = [
            Mode(A=ah_list[s], B=b_hat, C=c_list[s] @ p, D=d_hat,
                 out_blocks=dict(out_blocks), in_blocks=dict(in_blocks))
            for s in range(r)
        ]
        abstract = SwitchedLinearSubsystem(i, abstract_modes)

        big_m = synthesize_certificate_matrix(sub, k_list, KAPPA)
        gram = b.T @ big_m.entries @ b
        r_list = [np.linalg.solve(gram, b.T @ big_m.entries @ p @ b_hat)] * r
        cert = LocalCertificate(
            M=[big_m] * r, K=k_list, P=p, Q=q_list, R=r_list, T=t_list,
            kappa=KAPPA, node_id=i,
        )
        subs.append(sub)
        abstract_subs.append(abstract)
        certs.append(cert)
        gains.append(derive_gains(cert, sub, abstract))

    spec = NetworkSpec(subs, abstract_subs)
    op = build_gain_operator_from_network(spec, gains)
    sg = check_small_gain(op)
    assert sg.satisfied, f"vehicle seed {seed} failed small gain: {sg.radius_or_bound}"
    composed = compose_certificate(construct_mu(op, small_gain=sg), gains, certs)
    return spec, certs, gains, composed


def heterogeneous_network(seed: int, n_nodes: int = 12):
    """Seeded 3-mode network with state dimensions 1 to 4, for batching tests.

    Node 0 has no in-neighbours (a zero-width D); every third node restricts
    its admissible mode transitions.  Construction as in certified_network,
    with kappa varying by node and M scaled differently per mode; the closed
    loops contract far enough that the certificates still pass.  No small-gain guarantee.  Returns
    (spec, certs) with certs keyed by node id.
    """
    rng = np.random.default_rng(seed)
    r = 3
    in_sets = [()] + [
        tuple(j for j in range(n_nodes) if j != i and rng.random() < 0.3)
        for i in range(1, n_nodes)
    ]
    subs, abstract_subs, certs = [], [], {}
    for i in range(n_nodes):
        n = int(rng.integers(1, 5))
        nh = int(rng.integers(1, n + 1))
        outs = [j for j in range(n_nodes) if i in in_sets[j]]
        out_blocks = {i: (0, 1), **{j: (1 + idx, 2 + idx) for idx, j in enumerate(outs)}}
        in_blocks = {j: (idx, idx + 1) for idx, j in enumerate(in_sets[i])}
        q, nw = 1 + len(outs), len(in_sets[i])
        b = _random_orthogonal(rng, n) @ np.diag(rng.uniform(0.8, 1.2, n))
        b_inv = np.linalg.inv(b)
        p = np.linalg.qr(rng.standard_normal((n, nh)))[0]
        b_hat = 0.5 * rng.uniform(-1, 1, (nh, 1))
        a = [rng.uniform(-1, 1, (n, n)) for _ in range(r)]
        c = [rng.uniform(-1, 1, (q, n)) for _ in range(r)]
        d = [5e-3 * rng.uniform(-1, 1, (n, nw)) for _ in range(r)]
        a_hat = [0.6 * _random_orthogonal(rng, nh) for _ in range(r)]
        k = [b_inv @ (0.22 * _random_orthogonal(rng, n) - a[s]) for s in range(r)]
        sub = SwitchedLinearSubsystem(i, [
            Mode(A=a[s], B=b, C=c[s], D=d[s], out_blocks=out_blocks, in_blocks=in_blocks)
            for s in range(r)
        ])
        abstract = SwitchedLinearSubsystem(i, [
            Mode(A=a_hat[s], B=b_hat, C=c[s] @ p, D=np.zeros((nh, nw)),
                 out_blocks=out_blocks, in_blocks=in_blocks)
            for s in range(r)
        ])
        kappa = (0.15, 0.2, 0.25)[i % 3]
        big_m = synthesize_certificate_matrix(sub, k, kappa)
        gram = b.T @ big_m.entries @ b
        certs[i] = LocalCertificate(
            M=[scale * big_m.entries for scale in (1.0, 1.25, 1.5)], K=k, P=p,
            Q=[b_inv @ (p @ a_hat[s] - a[s] @ p) for s in range(r)],
            R=[np.linalg.solve(gram, b.T @ big_m.entries @ p @ b_hat)] * r,
            T=[-b_inv @ d[s] for s in range(r)],
            kappa=kappa,
            transitions=[(0, 1), (1, 2), (2, 0), (2, 2)] if i % 3 == 1 else None,
            node_id=i,
        )
        subs.append(sub)
        abstract_subs.append(abstract)
    return NetworkSpec(subs, abstract_subs), certs


# ---------------------------------------------------------------------------
# Tight vehicles: every inequality in the gain derivation is achieved with
# equality along the first coordinate, so detection of corrupted gains is a
# matter of sampling the aligned region, not luck.


def tight_subsystem_pair(node_id=0, peer_id=1, d_coupling=0.2, b_hat=0.3, kappa=KAPPA):
    """Single subsystem/abstraction pair with a tight certificate.

    Closed loop f I with 3 f^2 = 1 - kappa (decay equality), M = C'C = I
    (dominance equality), and D, BR - P Bhat both along e1 (the input split
    is tight when the three error contributions align there).
    """
    f = np.sqrt((1.0 - kappa) / 3.0)
    a = np.array([[f, 0.0], [0.3, 0.1]])
    b = np.array([[0.0], [1.0]])
    c = np.eye(2)
    d = np.array([[d_coupling], [0.0]])
    out_blocks = {node_id: (0, 1), peer_id: (1, 2)}
    in_blocks = {peer_id: (0, 1)}
    concrete = SwitchedLinearSubsystem(
        node_id, [Mode(A=a, B=b, C=c, D=d, out_blocks=out_blocks, in_blocks=in_blocks)]
    )
    abstract = SwitchedLinearSubsystem(
        node_id,
        [
            Mode(
                A=[[f]], B=[[b_hat]], C=[[1.0], [0.0]], D=[[d_coupling]],
                out_blocks=out_blocks, in_blocks=in_blocks,
            )
        ],
    )
    cert = LocalCertificate(
        M=[np.eye(2)],
        K=[np.array([[-0.3, f - 0.1]])],
        P=np.array([[1.0], [0.0]]),
        Q=[np.array([[-0.3]])],
        R=[np.array([[0.0]])],
        T=[np.array([[0.0]])],
        kappa=kappa,
        node_id=node_id,
    )
    return concrete, abstract, cert


def tight_two_node_network(d_coupling=0.2, b_hat=0.3, kappa=KAPPA):
    """Two tight nodes reading each other; returns (spec, certs, gains, composed)."""
    subs, abstracts, certs = [], [], []
    for i in (0, 1):
        concrete, abstract, cert = tight_subsystem_pair(
            node_id=i, peer_id=1 - i, d_coupling=d_coupling, b_hat=b_hat, kappa=kappa
        )
        subs.append(concrete)
        abstracts.append(abstract)
        certs.append(cert)
    spec = NetworkSpec(subs, abstracts)
    gains = [
        derive_gains(certs[i], subs[i], abstracts[i]) for i in (0, 1)
    ]
    op = build_gain_operator_from_network(spec, gains)
    composed = compose_certificate(construct_mu(op), gains, certs)
    return spec, certs, gains, composed


def decoupled_tight_node(kappa=0.6):
    """One isolated scalar node (no neighbors); returns (spec, cert, gains, composed)."""
    f = np.sqrt((1.0 - kappa) / 3.0)
    a = 0.9
    concrete = SwitchedLinearSubsystem(
        0,
        [
            Mode(
                A=[[a]], B=[[1.0]], C=[[1.0]], D=np.zeros((1, 0)),
                out_blocks={0: (0, 1)}, in_blocks={},
            )
        ],
    )
    abstract = SwitchedLinearSubsystem(
        0,
        [
            Mode(
                A=[[f]], B=[[0.5]], C=[[1.0]], D=np.zeros((1, 0)),
                out_blocks={0: (0, 1)}, in_blocks={},
            )
        ],
    )
    cert = LocalCertificate(
        M=[np.eye(1)],
        K=[np.array([[f - a]])],
        P=np.eye(1),
        Q=[np.array([[f - a]])],
        R=[np.array([[0.5]])],
        T=[np.zeros((1, 0))],
        kappa=kappa,
        node_id=0,
    )
    spec = NetworkSpec([concrete], [abstract])
    gains = [derive_gains(cert, concrete, abstract)]
    op = build_gain_operator_from_network(spec, gains)
    composed = compose_certificate(construct_mu(op), gains, [cert])
    return spec, cert, gains, composed
