"""CLI tests: exit codes, JSON reports, determinism, end-to-end pipelines."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simnet
from simnet import (
    SwingParams,
    closed_form_certificate,
    generate_ring_network,
    save_certificates,
    save_network,
)
from simnet.cli import main

SRC = str(Path(simnet.__file__).resolve().parent.parent)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs ``python -m simnet validate NET`` and prints, as its last stdout line,
# OPENBLAS_NUM_THREADS as it stood when numpy was first imported.
NUMPY_IMPORT_PROBE = """
import importlib.abc, json, os, runpy, sys
seen = []
class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Probe())
sys.argv = ["simnet", "validate", sys.argv[1]]
try:
    runpy.run_module("simnet", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"exit": code, "blas_threads_at_numpy_import": seen}))
"""


# Runs ``simnet simulate NET CERTS --horizon 20 -o CSV`` from its arguments.
SIMULATE_SCRIPT = """
import sys
from simnet.cli import main
net, certs, csv = sys.argv[1:]
raise SystemExit(main(["simulate", net, certs, "--horizon", "20", "--seed", "1", "-o", csv]))
"""


# Runs each command of ``simnet.cli.main`` in turn and prints, as its last
# stdout line, whether numpy and numpy.ma were loaded after each.
NUMPY_MA_PROBE = """
import json, sys
from simnet.cli import main
net, certs, out = sys.argv[1:]
seen = {}
for argv in (["validate", net], ["verify", net, certs], ["compose", net, certs],
             ["simulate", net, certs, "--horizon", "3"],
             ["swing-gen", "--nodes", "3", "-o", out + "/net.json"],
             ["swing-run", "--nodes", "3", "--horizon", "3"]):
    assert main(argv) == 0, argv
    seen[argv[0]] = ["numpy" in sys.modules, "numpy.ma" in sys.modules]
print(json.dumps(seen))
"""


def run_python(code, *args, **env_vars):
    """Run ``python -c code args`` on this checkout's sources with no BLAS
    thread variables set except ``env_vars``; return its stdout lines."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + ("SIMNET_THREADS",)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.strip().splitlines()


def run_simnet(argv, stdout, unbuffered):
    """Run ``python -m simnet argv`` with stdout on the given file or
    descriptor, Python's stdout buffered or not; return (exit code, stderr)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable, "-m", "simnet", *map(str, argv)], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stderr


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out.strip().splitlines()[-1]) if captured.out else None
    return code, report, captured.err


@pytest.fixture
def ring_files(tmp_path):
    net = tmp_path / "net.json"
    certs = tmp_path / "certs.json"
    code = main(["swing-gen", "--nodes", "3", "-o", str(net), "--certs-out", str(certs)])
    assert code == 0
    return net, certs


class TestPipeline:
    def test_swing_gen_then_verify_exit_zero(self, capsys, ring_files):
        net, certs = ring_files
        code, report, _ = run_cli(capsys, ["verify", str(net), str(certs)])
        assert code == 0
        assert report["ok"] is True
        assert all(r["gains"]["lambda"] == 0.2 for r in report["nodes"])

    def test_validate(self, capsys, ring_files):
        net, _ = ring_files
        code, report, err = run_cli(capsys, ["validate", str(net)])
        assert code == 0
        assert report["valid"] and report["nodes"] == 3
        assert "valid" in err

    def test_compose_satisfied(self, capsys, ring_files, tmp_path):
        net, certs = ring_files
        out = tmp_path / "composition.json"
        code, report, _ = run_cli(
            capsys, ["compose", str(net), str(certs), "-o", str(out)]
        )
        assert code == 0
        assert report["satisfied"] is True
        assert report["radius_or_bound"] < 1.0
        assert "assumption4_stat" in report
        assert json.loads(out.read_text())["satisfied"] is True

    def test_compose_failure_replaces_an_earlier_report(self, capsys, ring_files, tmp_path):
        # a failing compose used to leave an earlier "satisfied": true file
        net, certs = ring_files
        out = tmp_path / "composition.json"
        assert run_cli(capsys, ["compose", str(net), str(certs), "-o", str(out)])[0] == 0
        data = json.loads(certs.read_text())
        data["certificates"][0]["M"] = {k: [[0.5, 0.0], [0.0, 0.5]]
                                        for k in data["certificates"][0]["M"]}
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        code, report, _ = run_cli(capsys, ["compose", str(net), str(broken), "-o", str(out)])
        assert code == 1 and report["ok"] is False
        assert json.loads(out.read_text()) == report

    def test_compose_overloaded_coupling_exit_one(self, capsys, tmp_path):
        net = tmp_path / "hot.json"
        certs = tmp_path / "hot-certs.json"
        # 3x coupling: input gain grows 9x, the normalized operator leaves
        # the small-gain region but the certificate itself is still valid
        code = main(
            ["swing-gen", "--nodes", "3", "--coupling", "12000",
             "-o", str(net), "--certs-out", str(certs)]
        )
        assert code == 0
        code, report, _ = run_cli(capsys, ["compose", str(net), str(certs)])
        assert code == 1
        assert report["satisfied"] is False
        assert report["radius_or_bound"] > 1.0

    def test_verify_corrupted_certificate_exit_one(self, capsys, ring_files, tmp_path):
        net, certs = ring_files
        data = json.loads(certs.read_text())
        for entry in data["certificates"]:
            entry["M"] = {k: [[0.5, 0.0], [0.0, 0.5]] for k in entry["M"]}
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        code, report, _ = run_cli(capsys, ["verify", str(net), str(broken)])
        assert code == 1
        assert report["ok"] is False
        assert any(r["failures"] for r in report["nodes"])

    def test_simulate_writes_csv_and_passes(self, capsys, ring_files, tmp_path):
        net, certs = ring_files
        out = tmp_path / "run.csv"
        code, report, _ = run_cli(
            capsys,
            ["simulate", str(net), str(certs), "--horizon", "20", "--seed", "1",
             "-o", str(out)],
        )
        assert code == 0
        assert report["bound_ok"] and report["v_decrease_ok"]
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 22
        assert lines[0].startswith("k,error_norm,V,u_hat_norm")

    def test_swing_run(self, capsys, tmp_path):
        out = tmp_path / "swing.csv"
        code, report, _ = run_cli(
            capsys,
            ["swing-run", "--nodes", "5", "--horizon", "60", "--seed", "0",
             "-o", str(out)],
        )
        assert code == 0
        assert report["ok"] and report["error_ratio"] < 1e-6
        assert out.exists()


def strict_json(text):
    """json.loads that refuses the NaN/Infinity extensions json.dumps emits."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    # simulate --horizon 0 printed "worst_decrease_slack": -Infinity
    @pytest.mark.parametrize("argv", [
        ["validate", "{net}"],
        ["verify", "{net}", "{certs}"],
        ["compose", "{net}", "{certs}"],
        ["simulate", "{net}", "{certs}", "--horizon", "0"],
        ["simulate", "{net}", "{certs}", "--horizon", "3"],
        ["swing-gen", "--nodes", "3", "-o", "{tmp}/gen.json"],
        ["swing-run", "--nodes", "3", "--horizon", "0"],
        ["swing-run", "--nodes", "3", "--horizon", "3"],
    ], ids=lambda argv: "-".join(a for a in argv if "{" not in a))
    def test_stdout_is_strict_json(self, capsys, ring_files, tmp_path, argv):
        net, certs = ring_files
        capsys.readouterr()
        argv = [a.format(net=net, certs=certs, tmp=tmp_path) for a in argv]
        assert main(argv) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["command"] == argv[0]

    def test_horizon_zero_has_no_decrease_slack(self, capsys, ring_files):
        net, certs = ring_files
        capsys.readouterr()
        assert main(["simulate", str(net), str(certs), "--horizon", "0"]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["worst_decrease_slack"] is None and report["v_decrease_ok"] is True


class TestErrorPaths:
    def test_missing_file_exit_two(self, capsys):
        code, report, err = run_cli(capsys, ["validate", "does-not-exist.json"])
        assert code == 2
        assert "error" in report
        assert err.startswith("error:")

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, report, _ = run_cli(capsys, ["validate", str(bad)])
        assert code == 2
        assert report["error"] == "SchemaError"

    @pytest.mark.parametrize("bad_file", ["network", "certificates"])
    def test_non_utf8_file_exit_two(self, capsys, ring_files, tmp_path, bad_file):
        # used to exit 1 with a UnicodeDecodeError traceback
        net, certs = ring_files
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        argv = ["validate", str(bad)] if bad_file == "network" else ["verify", str(net), str(bad)]
        code, report, err = run_cli(capsys, argv)
        assert code == 2 and err.startswith("error: not valid JSON")
        assert report["error"] == "SchemaError" and report["details"] == {"path": str(bad)}
        assert report["message"].startswith("not valid JSON: 'utf-8' codec can't decode byte 0xff")

    def test_swing_gen_failure_leaves_no_file(self, capsys, tmp_path):
        # the network used to be written before the certificates failed
        out = tmp_path / "x"
        out.mkdir()
        argv = ["swing-gen", "--nodes", "3", "-o", str(out / "net.json"),
                "--certs-out", str(tmp_path / "nodir" / "certs.json")]
        code, report, _ = run_cli(capsys, argv)
        assert code == 2 and report["error"] == "FileNotFoundError"
        assert str(tmp_path / "nodir" / "certs.json") in report["message"]
        assert list(out.iterdir()) == []

    def test_swing_gen_directory_target_leaves_no_file(self, capsys, tmp_path):
        # refused before the network is written, and named as given
        out = tmp_path / "x"
        out.mkdir()
        (tmp_path / "certs").mkdir()
        argv = ["swing-gen", "--nodes", "3", "-o", str(out / "net.json"),
                "--certs-out", str(tmp_path / "certs")]
        code, report, _ = run_cli(capsys, argv)
        assert code == 2 and report["error"] == "IsADirectoryError"
        assert report["message"] == f"[Errno 21] Is a directory: '{tmp_path / 'certs'}'"
        assert list(out.iterdir()) == [] and list((tmp_path / "certs").iterdir()) == []

    def test_swing_gen_writes_through_a_link(self, capsys, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("old")
        link = tmp_path / "net.json"
        link.symlink_to(real)
        code, _, _ = run_cli(capsys, ["swing-gen", "--nodes", "3", "-o", str(link)])
        assert code == 0 and link.is_symlink()
        assert json.loads(real.read_text())["schema"] == "simnet-v1"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["certs.json", "net.json", "real.json"]

    def test_missing_certificates_exit_two(self, capsys, ring_files, tmp_path):
        net, certs = ring_files
        partial = json.loads(certs.read_text())
        partial["certificates"] = partial["certificates"][:1]
        short = tmp_path / "short.json"
        short.write_text(json.dumps(partial))
        code, report, _ = run_cli(capsys, ["verify", str(net), str(short)])
        assert code == 2
        assert report["error"] == "SchemaError"

    def test_integer_beyond_float_range_exit_two(self, capsys, ring_files, tmp_path):
        # a matrix entry of 1e400 written as an integer exited 1 with OverflowError
        net, _ = ring_files
        data = json.loads(net.read_text())
        data["subsystems"][0]["modes"][0]["A"][0][0] = 10**400
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(data))
        code, report, _ = run_cli(capsys, ["validate", str(huge)])
        assert code == 2 and report["error"] == "SchemaError"

    def test_network_without_abstraction_exit_two(self, capsys, ring_files, tmp_path):
        net, certs = ring_files
        data = json.loads(net.read_text())
        del data["abstract_subsystems"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(data))
        assert main(["validate", str(bare)]) == 0  # still a valid network
        capsys.readouterr()
        code, report, _ = run_cli(capsys, ["verify", str(bare), str(certs)])
        assert code == 2
        assert report["error"] == "SchemaError"

    @pytest.mark.parametrize("modes", [["0"], ["0", "1", "2"]])
    def test_certificate_mode_count_mismatch_exit_two(self, capsys, ring_files, tmp_path, modes):
        # a certificate without mode 1 was certified; one with a mode 2 crashed
        net, certs = ring_files
        data = json.loads(certs.read_text())
        for entry in data["certificates"]:
            for family in ("M", "K", "Q", "R", "T"):
                entry[family] = {s: entry[family].get(s, entry[family]["0"]) for s in modes}
        bad = tmp_path / "bad_certs.json"
        bad.write_text(json.dumps(data))
        code, report, _ = run_cli(capsys, ["verify", str(net), str(bad)])
        assert code == 2
        assert report["error"] == "DimensionMismatchError"
        assert report["details"] == {"node": 0, "got": len(modes), "expected": 2}

    @pytest.mark.parametrize("argv", [
        ["swing-gen", "--nodes", "3", "-o", "OUT/certs.json"],  # the default certs.json
        ["swing-gen", "--nodes", "3", "-o", "OUT/both.json", "--certs-out", "OUT/./both.json"],
    ], ids=["default-certs-path", "certs-out-equal"])
    def test_swing_gen_refuses_one_path_for_both_files(self, capsys, tmp_path, argv):
        # otherwise the certificates would overwrite the network
        out = tmp_path / "gen"
        out.mkdir()
        code, report, _ = run_cli(capsys, [a.replace("OUT", str(out)) for a in argv])
        assert code == 2 and report["error"] == "SimnetError"
        assert "would both be written to" in report["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "NET", "CERTS", "--horizon", "-2"],
        ["swing-run", "--nodes", "3", "--horizon", "-2"],
    ])
    def test_negative_horizon_exit_two(self, capsys, ring_files, argv):
        paths = {"NET": str(ring_files[0]), "CERTS": str(ring_files[1])}
        capsys.readouterr()
        code, report, _ = run_cli(capsys, [paths.get(a, a) for a in argv])
        assert code == 2 and report["error"] == "DimensionMismatchError"
        assert report["message"] == "horizon must be nonnegative, got -2"

    @pytest.mark.parametrize("argv", [
        ["simulate", "NET", "CERTS", "--seed", "-1"],
        ["swing-run", "--nodes", "3", "--horizon", "2", "--seed", "-1"],
    ], ids=["simulate", "swing-run"])
    def test_negative_seed_exit_two(self, capsys, tmp_path, argv):
        # numpy refused it with a traceback once the pipeline had run; it is
        # now refused before any file is read (these name none that exist)
        paths = {"NET": str(tmp_path / "net.json"), "CERTS": str(tmp_path / "certs.json")}
        code, report, err = run_cli(capsys, [paths.get(a, a) for a in argv])
        assert code == 2 and report == {"error": "SimnetError", "details": {"seed": -1},
                                        "message": "seed must be nonnegative, got -1"}
        assert err == "error: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("option", ["--tol-psd", "--tol-eig"])
    @pytest.mark.parametrize("value", ["0.5", "-1e-9", "nan"])
    def test_out_of_range_tolerance_is_usage_error(self, capsys, ring_files, option, value):
        net, certs = ring_files
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(net), str(certs), f"{option}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid tolerance" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["validate", "NET", "--tol-psd", "1e-9"],
        ["validate", "NET", "--tol-eig", "1e-9"],
        ["swing-gen", "--period", "3", "-o", "OUT"],
    ])
    def test_options_without_effect_are_rejected(self, ring_files, tmp_path, argv):
        # validate reads no tolerance, and the generated files do not
        # depend on a switching period
        paths = {"NET": str(ring_files[0]), "OUT": str(tmp_path / "net.json")}
        with pytest.raises(SystemExit) as exc:
            main([paths.get(arg, arg) for arg in argv])
        assert exc.value.code == 2

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestStdoutFailure:
    """A report that cannot be written to stdout exits 2 with one error line
    on stderr: no traceback, none at interpreter shutdown either."""

    @staticmethod
    def assert_one_error_line(code, err, reason):
        assert code == 2
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: cannot write to stdout: {reason}"]
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self, ring_files, unbuffered):
        with open("/dev/full", "w") as full:
            code, err = run_simnet(["validate", ring_files[0]], full, unbuffered)
        self.assert_one_error_line(code, err, "[Errno 28] No space left on device")

    def test_closed_pipe(self, ring_files, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            code, err = run_simnet(["verify", *ring_files], write, unbuffered)
        finally:
            os.close(write)
        self.assert_one_error_line(code, err, "[Errno 32] Broken pipe")


class TestCollectorPause:
    """main runs with the cyclic collector paused from start to finish and
    leaves it as it found it, on every exit path."""

    @pytest.fixture
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.fixture
    def paths(self, ring_files, tmp_path):
        net, certs = ring_files
        data = json.loads(certs.read_text())
        for entry in data["certificates"]:
            entry["M"] = {k: [[0.5, 0.0], [0.0, 0.5]] for k in entry["M"]}
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        return {"NET": str(net), "CERTS": str(certs), "BROKEN": str(broken),
                "MISSING": str(tmp_path / "missing.json")}

    # argv -> exit code, or SystemExit for argparse's exits
    EXITS = {
        "ok": (["compose", "NET", "CERTS"], 0),
        "check-failed": (["verify", "NET", "BROKEN"], 1),
        "os-error": (["validate", "MISSING"], 2),
        "simnet-error": (["simulate", "NET", "CERTS", "--seed", "-1"], 2),
        "usage": (["no-such-command"], SystemExit),
        "help": (["--help"], SystemExit),
    }

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case", sorted(EXITS))
    def test_state_left_as_found(self, capsys, paths, restore_gc, case, enabled):
        argv, expected = self.EXITS[case]
        argv = [paths.get(a, a) for a in argv]
        (gc.enable if enabled else gc.disable)()
        if expected is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == expected
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("argv", [
        ["validate", "NET"],
        ["verify", "NET", "CERTS"],
        ["compose", "NET", "CERTS"],
        ["simulate", "NET", "CERTS", "--horizon", "20"],
        ["swing-gen", "--nodes", "50", "-o", "OUT"],
    ], ids=lambda argv: argv[0])
    def test_no_collection_during_a_command(self, capsys, tmp_path, restore_gc, argv):
        net, certs = tmp_path / "ring.json", tmp_path / "ring-certs.json"
        assert main(["swing-gen", "--nodes", "50", "-o", str(net), "--certs-out", str(certs)]) == 0
        paths = {"NET": str(net), "CERTS": str(certs), "OUT": str(tmp_path / "gen.json")}
        gc.enable()
        starts = []
        callback = lambda phase, info: phase == "start" and starts.append(info["generation"])
        gc.callbacks.append(callback)
        try:
            assert main([paths.get(a, a) for a in argv]) == 0
        finally:
            gc.callbacks.remove(callback)
        assert starts == []


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, ring_files):
        net, certs = ring_files
        capsys.readouterr()  # drop fixture output

        def grab(argv):
            main(argv)
            return capsys.readouterr().out

        argv = ["simulate", str(net), str(certs), "--horizon", "10", "--seed", "3"]
        assert grab(argv) == grab(argv)
        argv = ["compose", str(net), str(certs)]
        assert grab(argv) == grab(argv)

    def test_thread_cap_env_var(self, capsys, ring_files, monkeypatch):
        net, _ = ring_files
        capsys.readouterr()
        monkeypatch.setenv("SIMNET_THREADS", "2")
        assert main(["validate", str(net)]) == 0
        first = capsys.readouterr().out
        monkeypatch.setenv("SIMNET_THREADS", "bogus")
        assert main(["validate", str(net)]) == 0
        second = capsys.readouterr()
        assert "ignoring" in second.err
        assert second.out == first  # results unaffected by the cap

    def test_package_import_does_not_load_numpy(self):
        code = "import sys, simnet; print('numpy' in sys.modules); simnet.Mode; " \
            "print('numpy' in sys.modules)"
        assert run_python(code) == ["False", "True"]

    def test_numpy_ma_never_imported(self, ring_files, tmp_path):
        # in a fresh interpreter: pytest's own process may hold numpy.ma
        seen = json.loads(run_python(NUMPY_MA_PROBE, *ring_files, tmp_path)[-1])
        assert seen == {command: [True, False] for command in (
            "validate", "verify", "compose", "simulate", "swing-gen", "swing-run")}

    def test_thread_cap_set_before_numpy_loads(self, ring_files):
        # (preset OPENBLAS_NUM_THREADS, SIMNET_THREADS, value at numpy import):
        # the cap used to leave a preset value, even a larger one, as it was
        net, _ = ring_files
        for preset, cap, seen in ((None, "1", "1"), ("4", "1", "1"), ("1", "2", "1"),
                                  ("many", "2", "2")):
            env = {"SIMNET_THREADS": cap}
            if preset is not None:
                env["OPENBLAS_NUM_THREADS"] = preset
            probe = json.loads(run_python(NUMPY_IMPORT_PROBE, net, **env)[-1])
            assert probe == {"exit": 0, "blas_threads_at_numpy_import": [seen]}, preset

    def test_simulate_csv_independent_of_thread_cap(self, tmp_path):
        net, certs = tmp_path / "net.json", tmp_path / "certs.json"
        assert main(["swing-gen", "--nodes", "200", "-o", str(net), "--certs-out", str(certs)]) == 0
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / f"run-{threads}.csv"
            run_python(SIMULATE_SCRIPT, net, certs, out, SIMNET_THREADS=threads)
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_only_simulate_compiles_the_engines(self, ring_files, monkeypatch):
        import simnet.certificates
        import simnet.network

        built = []
        for cls in (simnet.network.NetworkEngine, simnet.certificates.CompiledCertificates):
            def record(self, *args, _init=cls.__init__, _name=cls.__name__):
                built.append(_name)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", record)
        net, certs = ring_files
        for argv in (["validate", net], ["verify", net, certs], ["compose", net, certs]):
            assert main([str(a) for a in argv]) == 0
        assert built == []
        assert main(["simulate", str(net), str(certs), "--horizon", "2"]) == 0
        assert sorted(built) == ["CompiledCertificates", "NetworkEngine", "NetworkEngine"]

    def test_generated_files_byte_identical(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            net = tmp_path / f"{tag}.json"
            certs = tmp_path / f"{tag}-certs.json"
            main(["swing-gen", "--nodes", "4", "-o", str(net), "--certs-out", str(certs)])
            paths.append((net.read_bytes(), certs.read_bytes()))
        assert paths[0] == paths[1]
        # the files saved directly, and nothing else in the directory
        params = SwingParams(n_nodes=4)
        save_network(generate_ring_network(params), tmp_path / "net.json")
        cert = closed_form_certificate(params)
        save_certificates({i: cert for i in range(4)}, tmp_path / "certs.json")
        direct = ((tmp_path / "net.json").read_bytes(), (tmp_path / "certs.json").read_bytes())
        assert paths[0] == direct
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a-certs.json", "a.json", "b-certs.json", "b.json", "certs.json", "net.json"]
