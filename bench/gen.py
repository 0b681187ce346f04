"""Seeded network generators for the benchmark's synthetic workloads.

Uses only the public ``simnet`` API to build and write a network file and
its certificate file:

  mesh    300 nodes with three modes each, state dims 1-4, abstract dims up
          to the state dim, 3 random in-neighbours per node, edge widths 1-2;
  scalar  3000 scalar single-mode nodes, 4 random in-neighbours each.

Every node is certified by construction: B is invertible, so the structural
equations solve exactly for Q and T; the closed loops A + B K are scaled
rotations of norm 0.22, so ``synthesize_certificate_matrix`` converges; the
abstract couplings and the interface gains R are zero (so every node has a
nonzero external-input gain rho_ext).  Each node's couplings D are scaled
so its gain rho_int equals a seeded weight, then all by one common factor so
that the spectral radius of the normalised gain operator
Psi = Lambda^-1 Gamma hits a seeded target inside the workload's band.  A
network whose radius misses the band raises ``GeneratorError``; a seed is
never silently replaced.

Run as a script to time set-up the way a user pays for it (a cold import of
``simnet`` plus generating and writing both files):

    PYTHONPATH=src python3 bench/gen.py mesh --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

import check
import simnet

# (nodes, modes, in-degree, radius band, seeded target range)
SHAPES = {
    "mesh": dict(nodes=300, modes=3, fan_in=3, band=(0.5, 0.9), target=(0.6, 0.8)),
    "scalar": dict(nodes=3000, modes=1, fan_in=4, band=(0.6, 0.9), target=(0.65, 0.85)),
}
LOOP_NORM = 0.22
# Bounded gain heterogeneity: each node's rho_int is set to a seeded weight
# before the common scale, and kappa varies by 40%.  Wider ranges create
# clusters of heavy nodes whose near-degenerate leading eigenvalues make the
# power iteration's work, and so the run time, swing from seed to seed; at
# weights in [0.1, 3.0] and kappa in [0.05, 0.5], scalar seed 5 makes
# ``compose`` fail to converge (see bench/README.md).
WEIGHT_RANGE = (0.8, 1.2)
KAPPA_RANGE = (0.25, 0.35)


class GeneratorError(RuntimeError):
    """The seeded network does not meet its workload's stated properties."""


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _in_neighbours(rng, nodes, fan_in):
    picks = []
    for i in range(nodes):
        others = rng.choice(nodes - 1, size=fan_in, replace=False)
        picks.append(sorted(int(j) + int(j >= i) for j in others))
    return picks


def _node_blocks(i, ins, outs, widths):
    """Subsystem-level block maps: external output first, then one block per
    out-edge; in-blocks in in-neighbour order."""
    out_blocks, cursor = {i: (0, 1)}, 1
    for j in outs:
        out_blocks[j] = (cursor, cursor + widths[(i, j)])
        cursor += widths[(i, j)]
    in_blocks, width = {}, 0
    for j in ins:
        in_blocks[j] = (width, width + widths[(j, i)])
        width += widths[(j, i)]
    return out_blocks, in_blocks, cursor, width


def gain_radius(rho_int, kappa, in_nbrs):
    """(lo, hi) bracket on the radius of Psi[i, j] = rho_int_i |in(i)| / kappa_i,
    j in in(i), from the benchmark's reference kernel."""
    rows = np.repeat(np.arange(len(in_nbrs)), [len(js) for js in in_nbrs])
    cols = np.concatenate([np.asarray(js, dtype=np.intp) for js in in_nbrs])
    coef = rho_int * np.array([len(js) for js in in_nbrs]) / kappa
    return check.spectral_radius(rows, cols, coef[rows], len(in_nbrs))


def generate(kind: str, seed: int):
    """Seeded (spec, certificates) for workload ``kind`` ('mesh' or 'scalar')."""
    shape = SHAPES[kind]
    n_nodes, r, fan_in = shape["nodes"], shape["modes"], shape["fan_in"]
    rng = np.random.default_rng([seed, n_nodes])
    in_nbrs = _in_neighbours(rng, n_nodes, fan_in)
    out_nbrs = [[] for _ in range(n_nodes)]
    for i, js in enumerate(in_nbrs):
        for j in js:
            out_nbrs[j].append(i)
    max_width = 2 if kind == "mesh" else 1
    widths = {
        (j, i): int(rng.integers(1, max_width + 1)) for i, js in enumerate(in_nbrs) for j in js
    }

    nodes = []
    for i in range(n_nodes):
        n = int(rng.integers(1, 5)) if kind == "mesh" else 1
        nh = int(rng.integers(1, n + 1))
        out_blocks, in_blocks, q, nw = _node_blocks(i, in_nbrs[i], out_nbrs[i], widths)
        b = _orthogonal(rng, n) @ np.diag(rng.uniform(0.8, 1.2, n))
        b_inv = np.linalg.inv(b)
        p = np.linalg.qr(rng.standard_normal((n, nh)))[0]
        b_hat = 0.5 * rng.uniform(-1.0, 1.0, (nh, 1))
        a = [rng.uniform(-1.0, 1.0, (n, n)) for _ in range(r)]
        c = [rng.uniform(-1.0, 1.0, (q, n)) for _ in range(r)]
        d = [rng.uniform(-1.0, 1.0, (n, nw)) for _ in range(r)]
        weight = float(rng.uniform(*WEIGHT_RANGE))
        a_hat = [0.6 * _orthogonal(rng, nh) for _ in range(r)]
        k = [b_inv @ (LOOP_NORM * _orthogonal(rng, n) - a[s]) for s in range(r)]
        kappa = float(rng.uniform(*KAPPA_RANGE))
        sub = _subsystem(i, a, [b] * r, c, d, out_blocks, in_blocks)
        big_m = simnet.synthesize_certificate_matrix(sub, k, kappa)
        sq = _sqrt_psd(big_m.entries)
        rho_raw = 3.0 * max(np.linalg.norm(sq @ d_s, 2) ** 2 for d_s in d)
        d = [d_s * np.sqrt(weight / rho_raw) for d_s in d]
        nodes.append(dict(
            n=n, nh=nh, out_blocks=out_blocks, in_blocks=in_blocks, a=a, b=b,
            b_inv=b_inv, c=c, d=d, p=p, b_hat=b_hat, a_hat=a_hat, k=k, kappa=kappa,
            M=big_m, weight=weight,
        ))

    kappas = np.array([nd["kappa"] for nd in nodes])
    weights = np.array([nd["weight"] for nd in nodes])
    unit_lo, unit_hi = gain_radius(weights, kappas, in_nbrs)
    target = float(rng.uniform(*shape["target"]))
    scale = np.sqrt(target / (0.5 * (unit_lo + unit_hi)))
    lo, hi = gain_radius(weights * scale**2, kappas, in_nbrs)
    band_lo, band_hi = shape["band"]
    if not band_lo <= lo <= hi <= band_hi:
        raise GeneratorError(
            f"{kind} seed {seed}: gain-operator radius in [{lo:.6f}, {hi:.6f}] "
            f"misses [{band_lo}, {band_hi}]"
        )
    radius = 0.5 * (lo + hi)

    subs, abstract, certs = [], [], {}
    for i, nd in enumerate(nodes):
        d = [scale * d_s for d_s in nd["d"]]
        subs.append(_subsystem(i, nd["a"], [nd["b"]] * r, nd["c"], d,
                               nd["out_blocks"], nd["in_blocks"]))
        nw = d[0].shape[1]
        abstract.append(_subsystem(
            i, nd["a_hat"], [nd["b_hat"]] * r, [c_s @ nd["p"] for c_s in nd["c"]],
            [np.zeros((nd["nh"], nw))] * r, nd["out_blocks"], nd["in_blocks"],
        ))
        certs[i] = simnet.LocalCertificate(
            M=[nd["M"]] * r,
            K=nd["k"],
            P=nd["p"],
            Q=[nd["b_inv"] @ (nd["p"] @ nd["a_hat"][s] - nd["a"][s] @ nd["p"]) for s in range(r)],
            R=[np.zeros((nd["n"], 1))] * r,
            T=[-nd["b_inv"] @ d_s for d_s in d],
            kappa=nd["kappa"],
            node_id=i,
        )
    return simnet.NetworkSpec(subs, abstract), certs, radius


def _subsystem(i, a, b, c, d, out_blocks, in_blocks):
    modes = [
        simnet.Mode(A=a[s], B=b[s], C=c[s], D=d[s],
                    out_blocks=dict(out_blocks), in_blocks=dict(in_blocks))
        for s in range(len(a))
    ]
    return simnet.SwitchedLinearSubsystem(i, modes)


def _sqrt_psd(m):
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def write(kind: str, seed: int, out_dir) -> float:
    """Generate and write ``net.json`` and ``certs.json``; return the radius."""
    spec, certs, radius = generate(kind, seed)
    simnet.save_network(spec, os.path.join(out_dir, "net.json"))
    simnet.save_certificates(certs, os.path.join(out_dir, "certs.json"))
    return radius


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for net.json and certs.json")
    args = parser.parse_args(argv)
    try:
        radius = write(args.kind, args.seed, args.out)
    except GeneratorError as exc:
        print(f"generator failure: {exc}", file=sys.stderr)
        return 3
    print(f"{args.kind} seed {args.seed}: radius {radius:.6f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
