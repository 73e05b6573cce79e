import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nonlocalgames

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return env


def test_import_leaves_the_process_pool_unloaded():
    # the solver scans in one process: neither importing the package nor
    # solving every catalog game loads a process pool
    code = (
        "import sys\n"
        "from nonlocalgames import classical, games\n"
        "for name in games.GAME_BUILDERS:\n"
        "    classical.classical_value(games.game_by_name(name))\n"
        "print('concurrent.futures' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out.strip() == "False"


def test_package_namespace_is_what_the_demos_import():
    imported = set()
    for path in (ROOT / "demos").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "nonlocalgames":
                imported |= {alias.name for alias in node.names}
    assert sorted(nonlocalgames.__all__) == sorted(imported)
    for name in imported:
        assert getattr(nonlocalgames, name, None) is not None, name


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
