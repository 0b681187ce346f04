"""Command-line front end: validate, verify, compose, simulate, and the
swing-ring benchmark.

Reports are JSON on stdout (byte-identical across reruns with the same
inputs and seed); the human-readable summary goes to stderr.  Exit codes:
0 success/certified, 1 a verification or small-gain check failed (the JSON
report says which), 2 input or usage errors, or a report that could not be
written to stdout.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv) -> int:
    _apply_thread_cap()
    # A command builds many objects and no reference cycles: from the numpy
    # import to the report, every collection would only walk them again.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    except _StdoutFailed as exc:
        # Python's EPIPE recipe: what stdout still buffers goes to the null device at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc.__cause__}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.tol = _tolerances(args)
    except ValueError as exc:  # exits 2 with the usage message
        parser.error(f"invalid tolerance: {exc}")
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
    """SIMNET_THREADS caps worker threads (0 = automatic): each BLAS thread
    variable becomes the smaller of its integer value and the cap, and one
    that is unset or not a positive integer becomes the cap.

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
            try:
                preset = int(os.environ.get(var, ""))
            except ValueError:
                preset = threads
            os.environ[var] = str(min(preset, threads) if preset >= 1 else threads)


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
    p.set_defaults(handler=_cmd_validate, tol_psd=None, tol_eig=None)

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


class _StdoutFailed(Exception):
    """A report could not be written to stdout (the OSError is the cause)."""


def _emit(report: dict) -> None:
    try:
        print(json.dumps(report, sort_keys=True), flush=True)
    except OSError as exc:
        raise _StdoutFailed from exc


def _plain(obj):
    """JSON-safe copy of error details."""
    try:
        json.dumps(obj)
        return obj
    except TypeError:
        return {k: repr(v) for k, v in obj.items()}


def _verified_pair(args):
    """The network, its certificates and their NetworkVerification."""
    from .certificates import load_certificates, verify_network
    from .network import load_network

    spec = load_network(args.network)
    certs = load_certificates(args.certificates)
    return spec, certs, verify_network(spec, certs, args.tol)


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


def _node_rows(verified) -> list[dict]:
    """The JSON row of every node of a NetworkVerification."""
    from .certificates import _CHECKS

    gains = zip(verified.lam.tolist(), verified.rho_int.tolist(), verified.rho_ext.tolist())
    rows = []
    for node_id, flags, (lam, rho_int, rho_ext) in zip(
        verified.node_ids, verified.passed.tolist(), gains
    ):
        row = {"id": node_id, **dict(zip(_CHECKS, flags))}
        row["failures"] = list(verified.failures.get(node_id, ()))
        if all(flags):
            row["gains"] = {"alpha": 1.0, "lambda": lam, "rho_int": rho_int, "rho_ext": rho_ext}
        rows.append(row)
    return rows


def _cmd_verify(args) -> int:
    _, _, verified = _verified_pair(args)
    failed = verified.failures
    for node_id in verified.node_ids:
        print(f"node {node_id}: {'FAILED' if node_id in failed else 'ok'}", file=sys.stderr)
    ok = not failed
    _emit({"command": "verify", "ok": ok, "nodes": _node_rows(verified)})
    return 0 if ok else 1


def _compose(spec, certs, verified, tol):
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

    op = build_gain_operator_from_network(spec, verified)
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
    composed = compose_certificate(core, verified, [certs[i] for i in spec.graph.nodes])
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
    spec, certs, verified = _verified_pair(args)
    if verified.failures:
        report = {"command": "compose", "ok": False, "nodes": _node_rows(verified)}
        print("verification failed; not composing", file=sys.stderr)
    else:
        report, _, degenerate = _compose(spec, certs, verified, args.tol)
        if degenerate is None:
            print(
                f"small gain: {'satisfied' if report['satisfied'] else 'NOT satisfied'} "
                f"(radius/bound {report['radius_or_bound']:.6f})",
                file=sys.stderr,
            )
    if args.out:  # the report printed below, whatever the verdict
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
    _emit(report)
    return 0 if report.get("satisfied") else 1


def _composed_from_files(args, tol):
    from .errors import CompositionError

    spec, certs, verified = _verified_pair(args)
    if verified.failures:
        raise CompositionError("certificate verification failed; cannot compose")
    report, composed, degenerate = _compose(spec, certs, verified, tol)
    if degenerate is not None:
        raise degenerate
    if composed is None:
        radius = report["radius_or_bound"]
        raise CompositionError(
            f"small-gain condition not satisfied (radius {radius:.6f})", radius=radius
        )
    return spec, certs, composed


def _check_seed(seed: int) -> None:
    """Refuse a negative seed before any work: numpy's generators take none."""
    if seed < 0:
        from .errors import SimnetError

        raise SimnetError(f"seed must be nonnegative, got {seed}", seed=seed)


def _cmd_simulate(args) -> int:
    _check_seed(args.seed)
    import numpy as np

    from .errors import SchemaError
    from .simulate import (
        _synchronized,
        check_trajectory_bound,
        check_V_decrease,
        export_run,
        simulate_lockstep,
    )

    tol = args.tol
    spec, certs, composed = _composed_from_files(args, tol)
    mode_counts = {sub.n_modes for sub in spec.subsystems}
    if len(mode_counts) != 1:
        raise SchemaError(
            "simulate's synchronized switching needs a uniform mode count across nodes",
            mode_counts=sorted(mode_counts),
        )
    modes = _synchronized(spec.n_nodes, mode_counts.pop(), args.period, args.horizon)
    concrete, abstract = spec.engine, spec.abstract_view().engine
    rng = np.random.default_rng(args.seed)
    x0 = rng.uniform(-1, 1, concrete.state.size)
    xhat0 = rng.uniform(-1, 1, abstract.state.size)

    u_hat = np.zeros(abstract.input.size)
    ordered = [certs[i] for i in spec.graph.nodes]
    run = simulate_lockstep(
        spec, ordered, composed, x0, xhat0, lambda x_hat, k: u_hat, modes
    )
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
            "error_initial": float(run.error_trace[0]),
            "error_final": float(run.error_trace[-1]),
            "csv": args.out,
        }
    )
    return 0 if ok else 1


def _swing_params(args, **fields):
    from .swing import SwingParams

    return SwingParams(
        n_nodes=args.nodes,
        l_self=args.coupling,
        l_prev=args.coupling,
        l_next=args.coupling,
        **fields,
    )


def _cmd_swing_gen(args) -> int:
    from .certificates import save_certificates
    from .errors import SimnetError
    from .network import save_network
    from .swing import closed_form_certificate, generate_ring_network

    certs_path = args.certs_out or os.path.join(os.path.dirname(args.out) or ".", "certs.json")
    if os.path.realpath(certs_path) == os.path.realpath(args.out):
        raise SimnetError(f"network and certificates would both be written to {args.out}",
                          path=args.out)
    params = _swing_params(args, kappa=args.kappa)
    spec = generate_ring_network(params)
    cert = closed_form_certificate(params, args.tol)
    certs = {i: cert for i in range(params.n_nodes)}
    _write_pair(((lambda path: save_network(spec, path), args.out),
                 (lambda path: save_certificates(certs, path), certs_path)))
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


def _write_pair(writes) -> None:
    """Run each ``(save, path)`` on a temporary file next to the file its
    path names (links followed; the temporary named from that file and the
    process id), then move both into place.  A path naming a directory is
    refused before anything is written, so when either write fails, neither
    file nor a temporary is left behind."""
    for _, path in writes:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    targets = [os.path.realpath(path) for _, path in writes]
    temps = [f"{target}.{os.getpid()}.tmp" for target in targets]
    try:
        for (save, path), temp in zip(writes, temps):
            try:
                save(temp)
            except OSError as exc:  # reported for the path asked for, as before
                raise type(exc)(exc.errno, exc.strerror, path) from exc
        for target, temp in zip(targets, temps):
            os.replace(temp, target)
    finally:
        for temp in temps:
            try:
                os.remove(temp)
            except FileNotFoundError:
                pass


def _cmd_swing_run(args) -> int:
    _check_seed(args.seed)
    from .simulate import check_trajectory_bound, check_V_decrease, export_run
    from .swing import benchmark_report, run_ring_experiment

    params = _swing_params(args, switch_period=args.period)
    tol = args.tol
    exp = run_ring_experiment(params, args.horizon, seed=args.seed, tol=tol)
    report = benchmark_report(params, tol, gains=exp.gains)
    bound = check_trajectory_bound(exp.run, exp.composed)
    decrease = check_V_decrease(exp.run, exp.composed)
    if args.out:
        export_run(exp.run, args.out)
    err0, err_end = exp.run.error_trace[[0, -1]].tolist()
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
