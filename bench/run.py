"""simnet benchmark: the CLI pipeline end to end, and per layer when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Scratch files go to ``.bench_work/`` at the root.

--trace 0 sets the workload up (a cold ``simnet`` import plus generating and
writing its network and certificate JSON), then runs the workload's
``simnet`` commands as subprocesses, one at a time, in passes until the
timed command wall time reaches --seconds (at least two passes), setting up
again before every pass after the first, each set-up followed by a run of
the fixed calibration work in bench/calibrate.py.  It reports the end-to-end
metrics: the median set-up time, the pipeline time (the sum over the
workload's commands of each command's median run), both scaled by the
calibration to seconds at a reference host speed, and the largest child
``ru_maxrss``.

--trace 1 sets up once and runs each command in-process through
``simnet.cli.main``, first untraced and then with every public simnet
function wrapped (bench/tracing.py), and reports the per-layer metrics.

Every command's first output is checked against the independent numpy
references in bench/check.py, and every later run of the command must
reproduce it byte for byte.  A command that exits non-zero or fails a check
counts as failed; nothing is retried or skipped.  The last stdout line is
the JSON result; a human summary goes to stderr.
"""

import os
import sys

# One BLAS thread in this process and in every child, set before numpy loads:
# SIMNET_THREADS cannot do it, because the package imports numpy first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")

RING_NODES = 1000
HORIZON = 100
PERIOD = 5  # the CLI's default synchronised switching period
MIN_PASSES = 2
# bench/calibrate.py's wall time on the reference host (2 vCPUs, Intel Xeon,
# Python 3.11, numpy 2.4 with OpenBLAS 0.3.31) when it was quiet
CAL_REFERENCE_S = 0.4
IMPORT_SAMPLES = 3
COMMAND_TIMEOUT_S = 100
COVERAGE = 0.98  # share of a traced command's wall time its root span must cover
MB = 1e6

# workload -> (set-up kind, simnet commands of one pass)
WORKLOADS = {
    "ring-certify": ("swing", ("validate", "verify", "compose")),
    "mesh-pipeline": ("mesh", ("validate", "verify", "compose", "simulate")),
    "scalar-compose": ("scalar", ("validate", "compose")),
}
VERIFYING = {"verify", "compose", "simulate"}

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "network.load_s": "s",
    "network.input_bytes": "B",
    "network.spec_builds": "count",
    "network.step_calls": "count",
    "network.step_s": "s",
    "network.assemble_s": "s",
    "network.save_s": "s",
    "certificates.load_s": "s",
    "certificates.verify_s": "s",
    "certificates.derive_gains_s": "s",
    "certificates.verify_passes_per_node": "1",
    "certificates.interface_calls": "count",
    "certificates.interface_s": "s",
    "certificates.evaluate_V_s": "s",
    "certificates.synthesize_s": "s",
    "linalg.eig_calls": "count",
    "linalg.psd_s": "s",
    "linalg.spectral_radius_calls": "count",
    "linalg.spectral_radius_s": "s",
    "composition.build_operator_s": "s",
    "composition.small_gain_s": "s",
    "composition.construct_mu_s": "s",
    "composition.bisection_steps": "count",
    "composition.operator_mb": "MB",
    "composition.peak_alloc_mb": "MB",
    "composition.evaluate_V_s": "s",
    "simulate.lockstep_s": "s",
    "simulate.node_steps": "count",
    "simulate.checks_s": "s",
    "simulate.export_s": "s",
    "simulate.csv_bytes": "B",
    "swing.generate_s": "s",
    "swing.closed_form_calls": "count",
    "cli.import_s": "s",
    "cli.unaccounted_s": "s",
    "cli.validate_s": "s",
    "cli.verify_s": "s",
    "cli.compose_s": "s",
    "cli.simulate_s": "s",
    "trace.overhead_s": "s",
}


class Ops:
    """Failure accounting: every command invocation is one op."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, error=None):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")


def cli_argv(verb, work, seed):
    net, certs, csv = work / "net.json", work / "certs.json", work / "run.csv"
    argv = {
        "validate": ["validate", net],
        "verify": ["verify", net, certs],
        "compose": ["compose", net, certs],
        "simulate": ["simulate", net, certs, "--horizon", HORIZON, "--seed", seed, "-o", csv],
    }[verb]
    return [str(a) for a in argv]


def swing_gen_argv(work):
    return ["swing-gen", "--nodes", str(RING_NODES), "-o", str(work / "net.json")]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SIMNET_THREADS", None)
    return env


def spawn(argv, log):
    """Run one child to completion; (exit code, wall s, cpu s, peak RSS MB, stdout)."""
    with open(log.with_suffix(".out"), "w+b") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / MB, stdout


def fresh_dir(workload):
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def files_digest(work):
    h = hashlib.sha256()
    for name in ("net.json", "certs.json"):
        h.update((work / name).read_bytes())
    return h.hexdigest()


def read_csv(verb, work):
    path = work / "run.csv"
    return path.read_bytes() if verb == "simulate" and path.exists() else b""


def remove_csv(work):
    (work / "run.csv").unlink(missing_ok=True)


class Verdicts:
    """First output of each command, its check result, and the rerun contract.

    ``simulate`` is checked against the mu and lambda_inf that the ``compose``
    check established, so a workload runs ``compose`` before ``simulate``.
    """

    def __init__(self, model, seed):
        self.model, self.seed = model, seed
        self.first, self.error = {}, {}
        self.composed = None

    def check(self, verb, stdout, csv):
        """None when the command's output matches its reference, else the reason."""
        try:
            report = json.loads(stdout)
            if verb == "validate":
                check.check_validate(report, self.model)
            elif verb == "verify":
                check.check_verify(report, self.model)
            elif verb == "compose":
                self.composed = check.check_compose(report, self.model)
            elif self.composed is None:
                return "simulate has no checked compose output to compare V with"
            else:
                check.check_run(csv.decode(), report, self.model, self.seed, HORIZON, PERIOD,
                                self.composed)
        except (check.CheckFailed, ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def judge(self, verb, code, stdout, csv):
        if code != 0:
            return f"exit code {code}"
        if verb not in self.first:
            self.first[verb] = (stdout, csv)
            self.error[verb] = self.check(verb, stdout, csv)
        elif (stdout, csv) != self.first[verb]:
            return "output differs from the first run byte for byte"
        return self.error[verb]


def run_untraced(workload, seed, seconds, ops):
    kind, verbs = WORKLOADS[workload]
    work = fresh_dir(workload)
    py = sys.executable
    if kind == "swing":
        setup_argv = [py, "-m", "simnet", *swing_gen_argv(work)]
    else:
        setup_argv = [py, BENCH / "gen.py", kind, "--seed", seed, "--out", work]
    setup_walls, digests, calibration = [], [], []

    def set_up():
        """Generate and write the workload's files once, then time the
        calibration beside it; False if the set-up failed."""
        code, wall, _, _, _ = spawn(setup_argv, work / "setup")
        if code != 0:
            reason = (work / "setup.err").read_text(errors="replace").strip()[-500:]
            ops.record("setup", f"exit code {code}: {reason}")
            return False
        digests.append(files_digest(work))
        ops.record("setup", None if digests[-1] == digests[0] else
                   "set-up output differs between repetitions")
        setup_walls.append(wall)
        code, wall, _, _, _ = spawn([py, BENCH / "calibrate.py"], work / "calibrate")
        if code != 0:
            raise RuntimeError(f"bench/calibrate.py exited with code {code}")
        calibration.append(wall)
        return True

    if not set_up():
        return None, {}
    verdicts = Verdicts(check.Model(work / "net.json", work / "certs.json"), seed)
    passes, timed, rss, per_cmd = [], 0.0, 0.0, {v: [] for v in verbs}
    while len(passes) < MIN_PASSES or timed < seconds:
        # Set-ups are spread over the run, one before every pass, so that a
        # burst of load covers few of them.  The files they write must match
        # the first set-up's byte for byte.
        if passes and not set_up():
            break
        total = 0.0
        for verb in verbs:
            remove_csv(work)
            code, wall, cpu, peak, stdout = spawn([py, "-m", "simnet", *cli_argv(verb, work, seed)], work / verb)
            ops.record(verb, verdicts.judge(verb, code, stdout, read_csv(verb, work)))
            total += wall
            rss = max(rss, peak)
            per_cmd[verb].append((wall, cpu))
        passes.append(total)
        timed += total
    # Co-tenant load on a shared host slows the commands by up to 1.8 times,
    # in spells that can outlast a run.  It slows the calibration, sampled
    # through the same run, by a similar factor (closely for the Python-bound
    # commands, less so for the BLAS-bound scalar compose; bench/README.md),
    # so the median times are scaled by the median calibration run to
    # seconds at the reference speed.  Every raw wall time is in the detail.
    speed = CAL_REFERENCE_S / statistics.median(calibration)
    metrics = {
        "setup_s": statistics.median(setup_walls) * speed,
        "pipeline_s": sum(statistics.median(w for w, _ in runs) for runs in per_cmd.values()) * speed,
        "peak_rss_mb": rss,
    }
    detail = {
        "setup_s": setup_walls,
        "calibrate_s": calibration,
        "pass_s": passes,
        "commands": {
            verb: {
                "wall_s": [w for w, _ in runs],
                "cpu_per_wall": sum(c for _, c in runs) / sum(w for w, _ in runs),
            }
            for verb, runs in per_cmd.items()
        },
    }
    return metrics, detail


def import_time():
    code = "import time; t = time.perf_counter(); import simnet; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                         check=True, timeout=COMMAND_TIMEOUT_S).stdout
    return float(out)


def run_traced(workload, seed, ops):
    kind, verbs = WORKLOADS[workload]
    work = fresh_dir(workload)
    import_s = statistics.median(import_time() for _ in range(IMPORT_SAMPLES))
    sys.path.insert(0, str(SRC))
    import gen
    from tracing import COMMAND, END, START, Spans, Tracer, call_main

    setup = Tracer()
    setup.install()
    setup.command = "setup"
    try:
        if kind == "swing":
            code, _, _ = setup.run("setup", swing_gen_argv(work))
        else:
            gen.write(kind, seed, work)
            code = 0
    except gen.GeneratorError as exc:
        ops.record("setup", str(exc))
        return None, {}
    finally:
        setup.uninstall()
    ops.record("setup", f"exit code {code}" if code != 0 else None)
    if code != 0:
        return None, {}

    verdicts = Verdicts(check.Model(work / "net.json", work / "certs.json"), seed)
    tracer = Tracer()
    untraced_wall, traced_wall, traced_error = {}, {}, {}
    for verb in verbs:
        argv = cli_argv(verb, work, seed)
        remove_csv(work)
        code, stdout, untraced_wall[verb] = call_main(argv)
        ops.record(verb, verdicts.judge(verb, code, stdout.encode(), read_csv(verb, work)))
        remove_csv(work)
        tracer.install()
        try:
            code, stdout, traced_wall[verb] = tracer.run(verb, argv)
        finally:
            tracer.uninstall()
        traced_error[verb] = verdicts.judge(verb, code, stdout.encode(), read_csv(verb, work))

    spans = Spans(tracer.spans)
    unaccounted = 0.0
    for verb in verbs:
        roots = [(i, s) for i, s in spans.roots("cli.main") if s[COMMAND] == verb]
        covered = sum(s[END] - s[START] for _, s in roots)
        if len(roots) != 1 or covered < COVERAGE * traced_wall[verb]:
            traced_error[verb] = traced_error[verb] or (
                f"the top-level span covers {covered:.4f} s of {traced_wall[verb]:.4f} s")
        unaccounted += sum(s[END] - s[START] - spans.child_time[i] for i, s in roots)
        ops.record(f"{verb} (traced)", traced_error[verb])
    setup_spans = Spans(setup.spans)
    mu_probes = spans.children_per_parent("linalg.spectral_radius", "composition.construct_mu")
    operator_n = spans.info("composition.build_gain_operator_from_network", "n")
    nodes_verified = verdicts.model.n * sum(v in VERIFYING for v in verbs)
    metrics = {
        "network.load_s": spans.total("network.load_network"),
        "network.input_bytes": max(spans.info("network.load_network", "bytes"), default=0),
        "network.spec_builds": spans.count("network.NetworkSpec.__init__"),
        "network.step_calls": spans.count("network.step_with_modes"),
        "network.step_s": spans.total("network.step_with_modes"),
        "network.assemble_s": spans.total("network.assemble_internal_input"),
        "network.save_s": setup_spans.total("network.save_network"),
        "certificates.load_s": spans.total("certificates.load_certificates"),
        "certificates.verify_s": spans.self_time(
            "certificates.verify_output_dominance", "certificates.verify_decay",
            "certificates.verify_structure"),
        "certificates.derive_gains_s": spans.total("certificates.derive_gains"),
        "certificates.verify_passes_per_node":
            spans.count("certificates.verify_decay") / nodes_verified,
        "certificates.interface_calls": spans.count("certificates.interface_input"),
        "certificates.interface_s": spans.total("certificates.interface_input"),
        "certificates.evaluate_V_s": spans.total("certificates.evaluate_V"),
        "certificates.synthesize_s": setup_spans.total("certificates.synthesize_certificate_matrix"),
        "linalg.eig_calls": tracer.eig_calls,
        "linalg.psd_s": spans.total("linalg.psd_order", "linalg.psd_margin", "linalg.principal_sqrt"),
        "linalg.spectral_radius_calls": spans.count("linalg.spectral_radius"),
        "linalg.spectral_radius_s": spans.total("linalg.spectral_radius"),
        "composition.build_operator_s": spans.total(
            "composition.build_gain_operator", "composition.build_gain_operator_from_network"),
        "composition.small_gain_s": spans.total("composition.check_small_gain"),
        "composition.construct_mu_s": spans.total("composition.construct_mu") - spans.total(
            "composition.check_small_gain", within="composition.construct_mu"),
        # one probe at lambda = 0, then one per bisection step
        "composition.bisection_steps": sum(c - 1 for c in mu_probes.values()),
        # computed, not measured: one dense float64 n x n operator
        "composition.operator_mb": max(operator_n, default=0) ** 2 * 8 / MB,
        "composition.peak_alloc_mb": max(tracer.alloc_peaks, default=0) / MB,
        "composition.evaluate_V_s": spans.total("composition.ComposedCertificate.evaluate_V"),
        "simulate.lockstep_s": spans.self_time("simulate.simulate_lockstep"),
        "simulate.node_steps": sum(spans.info("network.step_with_modes", "nodes")),
        "simulate.checks_s": spans.total("simulate.check_trajectory_bound", "simulate.check_V_decrease"),
        "simulate.export_s": spans.total("simulate.export_run"),
        "simulate.csv_bytes": sum(spans.info("simulate.export_run", "bytes")),
        "swing.generate_s": spans.total("swing.generate_ring_network")
        + setup_spans.total("swing.generate_ring_network"),
        "swing.closed_form_calls": spans.count("swing.closed_form_certificate")
        + setup_spans.count("swing.closed_form_certificate"),
        "cli.import_s": import_s,
        "cli.unaccounted_s": unaccounted,
        **{f"cli.{v}_s": untraced_wall.get(v, 0.0)
           for v in ("validate", "verify", "compose", "simulate")},
        "trace.overhead_s": sum(traced_wall.values()) - sum(untraced_wall.values()),
    }
    setup.dump(work / "setup_spans.jsonl")
    tracer.dump(work / "spans.jsonl")
    detail = {"untraced_s": untraced_wall, "traced_s": traced_wall, "spans": len(tracer.spans)}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description="simnet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "simnet" / "__init__.py").is_file():
        print(f"error: no simnet sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ops = Ops()
    if args.trace:
        metrics, detail = run_traced(args.workload, args.seed, ops)
        units = PER_LAYER
    else:
        metrics, detail = run_untraced(args.workload, args.seed, args.seconds, ops)
        units = END_TO_END
    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if metrics is None:
        print("error: set-up failed; nothing measured", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}), file=sys.stderr)
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
