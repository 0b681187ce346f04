"""Command-line front end: validate, verify, compose, simulate, and the
swing-ring benchmark.

Reports are JSON on stdout (byte-identical across reruns with the same
inputs and seed); the human-readable summary goes to stderr.  Exit codes:
0 success/certified, 1 a verification or small-gain check failed (the JSON
report says which), 2 input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    from .errors import SimnetError

    try:
        return args.handler(args)
    except SimnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit({"error": type(exc).__name__, "message": str(exc), "details": _plain(exc.details)})
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit({"error": type(exc).__name__, "message": str(exc), "details": {}})
        return 2


def _apply_thread_cap() -> None:
    """SIMNET_THREADS caps worker threads (0 = automatic).

    Results are order-independent and deterministic at any cap; this only
    bounds the BLAS pool.
    """
    raw = os.environ.get("SIMNET_THREADS")
    if raw is None:
        return
    try:
        threads = int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer SIMNET_THREADS={raw!r}", file=sys.stderr)
        return
    if threads < 0:
        print(f"warning: ignoring negative SIMNET_THREADS={threads}", file=sys.stderr)
        return
    if threads > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(threads))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simnet",
        description="Compositional certification and lockstep simulation for "
        "networks of switched linear subsystems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tols(p):
        p.add_argument("--tol-psd", type=float, default=None, help="semidefiniteness tolerance")
        p.add_argument("--tol-eig", type=float, default=None, help="residual/eigenvalue tolerance")

    p = sub.add_parser("validate", help="validate a network file")
    p.add_argument("network")
    add_tols(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("verify", help="verify per-node certificates and derive gains")
    p.add_argument("network")
    p.add_argument("certificates")
    add_tols(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("compose", help="certify the small-gain condition and compose")
    p.add_argument("network")
    p.add_argument("certificates")
    p.add_argument("-o", "--out", default=None, help="write the composition report here")
    add_tols(p)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("simulate", help="lockstep run with trajectory checks")
    p.add_argument("network")
    p.add_argument("certificates")
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--period", type=int, default=5, help="synchronized switching period")
    p.add_argument("-o", "--out", default=None, help="write the run CSV here")
    add_tols(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("swing-gen", help="generate the swing ring and its certificates")
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--coupling", type=float, default=4e3, help="line coupling coefficient")
    p.add_argument("--kappa", type=float, default=0.2)
    p.add_argument("--period", type=int, default=5)
    p.add_argument("-o", "--out", default="net.json")
    p.add_argument("--certs-out", default=None, help="default: certs.json next to the network")
    add_tols(p)
    p.set_defaults(handler=_cmd_swing_gen)

    p = sub.add_parser("swing-run", help="run the swing benchmark experiment")
    p.add_argument("--nodes", type=int, default=50)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--period", type=int, default=5)
    p.add_argument("--coupling", type=float, default=4e3)
    p.add_argument("-o", "--out", default=None, help="write the run CSV here")
    add_tols(p)
    p.set_defaults(handler=_cmd_swing_run)

    return parser


def _tolerances(args):
    from .linalg import DEFAULT_TOL, ToleranceProfile

    psd = args.tol_psd if args.tol_psd is not None else DEFAULT_TOL.psd_tol
    eig = args.tol_eig if args.tol_eig is not None else DEFAULT_TOL.eig_tol
    return ToleranceProfile(psd_tol=psd, eig_tol=eig, iter_max=DEFAULT_TOL.iter_max)


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True))


def _plain(obj):
    """JSON-safe copy of error details."""
    try:
        json.dumps(obj)
        return obj
    except TypeError:
        return {k: repr(v) for k, v in obj.items()}


def _load_pair(args, tol):
    from .certificates import load_certificates
    from .errors import SchemaError
    from .network import load_network

    spec = load_network(args.network)
    certs = load_certificates(args.certificates)
    missing = [s.id for s in spec.subsystems if s.id not in certs]
    if missing:
        raise SchemaError(f"certificate file lacks nodes {missing}", nodes=missing)
    if spec.abstract_subsystems is None:
        raise SchemaError("network declares no abstract subsystems; nothing to verify against")
    return spec, certs


def _cmd_validate(args) -> int:
    from .network import load_network

    spec = load_network(args.network)
    print(f"{args.network}: valid ({spec.n_nodes} subsystems)", file=sys.stderr)
    _emit(
        {
            "command": "validate",
            "valid": True,
            "nodes": spec.n_nodes,
            "edges": sorted(list(e) for e in spec.graph.edges),
            "has_abstraction": spec.abstract_subsystems is not None,
        }
    )
    return 0


def _verify_nodes(spec, certs, tol):
    """Verify every certificate once; JSON rows and the gains of the nodes
    that passed."""
    from .certificates import verify_network

    rows = []
    gains = {}
    for node_id, verified in verify_network(spec, certs, tol).items():
        row = {
            "id": node_id,
            "output_dominance": verified.output_dominance.ok,
            "decay": verified.decay.ok,
            "structure": verified.structure.ok,
            "failures": list(verified.failures),
        }
        g = verified.gains
        if g is not None:
            gains[node_id] = g
            row["gains"] = {
                "alpha": g.alpha,
                "lambda": g.lam,
                "rho_int": g.rho_int,
                "rho_ext": g.rho_ext,
            }
        rows.append(row)
    return rows, gains


def _cmd_verify(args) -> int:
    tol = _tolerances(args)
    spec, certs = _load_pair(args, tol)
    rows, gains = _verify_nodes(spec, certs, tol)
    ok = all(not r["failures"] and "gains" in r for r in rows)
    for r in rows:
        status = "ok" if not r["failures"] else "FAILED"
        print(f"node {r['id']}: {status}", file=sys.stderr)
    _emit({"command": "verify", "ok": ok, "nodes": rows})
    return 0 if ok else 1


def _compose(spec, certs, gains, tol):
    """The compose pipeline on verified gains: the mode-robust gain operator,
    the small-gain check (decided once; construct_mu reuses it and warm
    starts from its vector), the weights mu and the composed certificate.

    Returns (report, composed, degenerate).  ``composed`` is None when the
    small-gain condition fails or construct_mu rejects the operator; in the
    latter case ``degenerate`` is construct_mu's CompositionError.
    """
    from .composition import (
        build_gain_operator_from_network,
        check_small_gain,
        compose_certificate,
        construct_mu,
    )
    from .errors import CompositionError

    op = build_gain_operator_from_network(spec, gains)
    sg = check_small_gain(op, tol)
    report = {
        "command": "compose",
        "radius_or_bound": sg.radius_or_bound,
        "satisfied": sg.satisfied,
        "assumption4_stat": op.gamma_colsum_sup,
    }
    if not sg.satisfied:
        return report, None, None
    try:
        core = construct_mu(op, tol, small_gain=sg)
    except CompositionError as exc:
        report["satisfied"] = False
        report["degenerate"] = str(exc)
        return report, None, exc
    composed = compose_certificate(
        core, [gains[i] for i in spec.graph.nodes], [certs[i] for i in spec.graph.nodes]
    )
    report.update(
        {
            "lambda_inf": composed.lambda_inf,
            "mu_min": composed.mu_min,
            "mu_max": composed.mu_max,
            "alpha_total": composed.alpha_total,
            "rho_ext_coeff": composed.rho_ext_coeff,
        }
    )
    return report, composed, None


def _cmd_compose(args) -> int:
    tol = _tolerances(args)
    spec, certs = _load_pair(args, tol)
    rows, gains = _verify_nodes(spec, certs, tol)
    if len(gains) != spec.n_nodes:
        _emit({"command": "compose", "ok": False, "nodes": rows})
        print("verification failed; not composing", file=sys.stderr)
        return 1
    report, _, degenerate = _compose(spec, certs, gains, tol)
    if degenerate is not None:
        _emit(report)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
    print(
        f"small gain: {'satisfied' if report['satisfied'] else 'NOT satisfied'} "
        f"(radius/bound {report['radius_or_bound']:.6f})",
        file=sys.stderr,
    )
    _emit(report)
    return 0 if report["satisfied"] else 1


def _composed_from_files(args, tol):
    from .errors import CompositionError

    spec, certs = _load_pair(args, tol)
    _, gains = _verify_nodes(spec, certs, tol)
    if len(gains) != spec.n_nodes:
        raise CompositionError("certificate verification failed; cannot compose")
    report, composed, degenerate = _compose(spec, certs, gains, tol)
    if degenerate is not None:
        raise degenerate
    if composed is None:
        radius = report["radius_or_bound"]
        raise CompositionError(
            f"small-gain condition not satisfied (radius {radius:.6f})", radius=radius
        )
    return spec, certs, composed


def _cmd_simulate(args) -> int:
    import numpy as np

    from .errors import SchemaError
    from .network import SwitchingSignal
    from .simulate import check_trajectory_bound, check_V_decrease, export_run, simulate_lockstep

    tol = _tolerances(args)
    spec, certs, composed = _composed_from_files(args, tol)
    mode_counts = {sub.n_modes for sub in spec.subsystems}
    if len(mode_counts) != 1:
        raise SchemaError(
            "simulate's synchronized switching needs a uniform mode count across nodes",
            mode_counts=sorted(mode_counts),
        )
    r = mode_counts.pop()
    switching = SwitchingSignal.synchronized(spec.n_nodes, list(range(r)), args.period)
    rng = np.random.default_rng(args.seed)
    x0 = [rng.uniform(-1, 1, sub.n) for sub in spec.subsystems]
    abstract = spec.abstract_view().subsystems
    xhat0 = [rng.uniform(-1, 1, sub.n) for sub in abstract]

    def controller(hat_states, k):
        return [np.zeros(sub.m) for sub in abstract]

    ordered = [certs[i] for i in spec.graph.nodes]
    run = simulate_lockstep(spec, ordered, composed, x0, xhat0, controller, switching, args.horizon)
    bound = check_trajectory_bound(run, composed)
    decrease = check_V_decrease(run, composed)
    if args.out:
        export_run(run, args.out)
    ok = bound.ok and decrease.ok
    print(
        f"horizon {args.horizon}: bound {'ok' if bound.ok else 'VIOLATED'}, "
        f"decrease {'ok' if decrease.ok else 'VIOLATED'}",
        file=sys.stderr,
    )
    _emit(
        {
            "command": "simulate",
            "ok": ok,
            "bound_ok": bound.ok,
            "v_decrease_ok": decrease.ok,
            "worst_bound_margin": bound.worst_margin,
            "worst_decrease_slack": decrease.worst_margin,
            "error_initial": run.error_trace[0],
            "error_final": run.error_trace[-1],
            "csv": args.out,
        }
    )
    return 0 if ok else 1


def _swing_params(args):
    from .swing import SwingParams

    return SwingParams(
        n_nodes=args.nodes,
        l_self=args.coupling,
        l_prev=args.coupling,
        l_next=args.coupling,
        kappa=getattr(args, "kappa", 0.2),
        switch_period=args.period,
    )


def _cmd_swing_gen(args) -> int:
    from .certificates import save_certificates
    from .network import save_network
    from .swing import closed_form_certificate, generate_ring_network

    params = _swing_params(args)
    spec = generate_ring_network(params)
    cert = closed_form_certificate(params, _tolerances(args))
    save_network(spec, args.out)
    certs_path = args.certs_out or os.path.join(os.path.dirname(args.out) or ".", "certs.json")
    save_certificates({i: cert for i in range(params.n_nodes)}, certs_path)
    print(f"wrote {args.out} and {certs_path}", file=sys.stderr)
    _emit(
        {
            "command": "swing-gen",
            "nodes": params.n_nodes,
            "network": args.out,
            "certificates": certs_path,
        }
    )
    return 0


def _cmd_swing_run(args) -> int:
    from .simulate import check_trajectory_bound, check_V_decrease, export_run
    from .swing import benchmark_report, run_ring_experiment

    params = _swing_params(args)
    tol = _tolerances(args)
    exp = run_ring_experiment(params, args.horizon, seed=args.seed, tol=tol)
    report = benchmark_report(params, tol, gains=exp.gains)
    bound = check_trajectory_bound(exp.run, exp.composed)
    decrease = check_V_decrease(exp.run, exp.composed)
    if args.out:
        export_run(exp.run, args.out)
    err0, err_end = exp.run.error_trace[0], exp.run.error_trace[-1]
    ok = report.satisfied and bound.ok and decrease.ok
    print(
        f"{params.n_nodes} nodes, horizon {args.horizon}: error {err0:.3e} -> {err_end:.3e}",
        file=sys.stderr,
    )
    _emit(
        {
            "command": "swing-run",
            "ok": ok,
            "small_gain_bound": report.small_gain_bound_formula,
            "lambda_inf": exp.composed.lambda_inf,
            "bound_ok": bound.ok,
            "v_decrease_ok": decrease.ok,
            "error_initial": err0,
            "error_final": err_end,
            "error_ratio": err_end / err0 if err0 else 0.0,
            "csv": args.out,
        }
    )
    return 0 if ok else 1


if __name__ == "__main__":
    entry_point()
