"""Every demo and the command-line tour run from a plain checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "demos" / "cli_reports.sh"]


def checkout_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # the tour calls python3 by name: make that this interpreter
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env["PATH"]])
    return env


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    cmd = ["sh", str(demo)] if demo.suffix == ".sh" else [sys.executable, str(demo)]
    run = subprocess.run(cmd, capture_output=True, env=checkout_env(), cwd=ROOT)
    assert run.returncode == 0, run.stderr.decode()
