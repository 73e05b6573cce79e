import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return env


def test_import_leaves_the_process_pool_unloaded():
    # only a solve with workers > 1 needs it
    code = "import sys, nonlocalgames; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
