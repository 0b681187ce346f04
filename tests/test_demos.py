"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import simnet

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(simnet.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    # run where the demos' output files may land, not in the checkout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    before = sorted(ROOT.iterdir())
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(ROOT.iterdir()) == before
