import ast
import hashlib
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


def test_games_loads_without_numpy_or_the_rest_of_the_package():
    # the game formalism is plain Python: quantum imports games, never the reverse
    code = (
        "import importlib.util, sys\n"
        f"path = {str(ROOT / 'src' / 'nonlocalgames' / 'games.py')!r}\n"
        "spec = importlib.util.spec_from_file_location('games', path)\n"
        "games = sys.modules['games'] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(games)\n"
        "games.game_by_name('four-party')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'nonlocalgames')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_package_namespace_is_what_the_demos_import():
    imported = set()
    for path in (ROOT / "demos").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "nonlocalgames":
                imported |= {alias.name for alias in node.names}
    assert sorted(nonlocalgames.__all__) == sorted(imported)
    for name in imported:
        assert getattr(nonlocalgames, name, None) is not None, name


# sha256 of each demo's stdout; every demo is deterministic
DEMO_STDOUT_SHA256 = {
    "01_quantum_correlations.py": "0dae42f3e56d4b8ebee47d6a17e17eba88ceb07f0636a7ba48c89db4ebad0e8d",
    "02_flawed_experiment.py": "98fb8541729d2c8ae19b5440a06a4dcbcb9a7a98b4d33d2f36309e8be0517d50",
    "03_four_party_pseudotelepathy.py":
        "0360f197b968de4e829414200276f17dba4b075bb5d2fc9d5f096475aa56f460",
    "04_distributed_referee.py": "189b2ae14286f01c974ff7928bf2c5e53139f0954c03992ccafd438d2348408f",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=_env(), capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    digest = hashlib.sha256(done.stdout).hexdigest()
    assert digest == DEMO_STDOUT_SHA256[demo], done.stdout.decode()
