"""Reach gate: every ``raise`` in the package is reached by a test, or is
listed below with the reason it is not.

Run from anywhere, with the test requirements installed::

    python tests/reach.py

It runs the tier-1 suite in this process, with ``--hypothesis-seed=0`` so
that the lines reached are the same from run to run, under a stdlib
``sys.settrace`` line tracer that records the lines of
``src/nonlocalgames/`` only (threads included), by resolved path.

Python subprocesses the tests start, such as ``python -m
nonlocalgames.cli`` and the demos, are traced too: the gate writes a
``sitecustomize.py`` into a temporary directory put first on the
children's ``PYTHONPATH``. In each child it loads this file, installs the
same tracer, and at exit writes the lines reached to that directory,
where the gate merges them with its own. Players that
``run_local_session`` forks end through ``os._exit``, which runs no exit
handler, so their lines are not recorded: a raise reached only there
counts as unreached. A ``raise`` statement is reached when any of its
lines ran.

Exit status 0 means the suite passed, every raise it did not reach is in
``UNREACHED``, and every entry names a raise the suite did not reach.
Anything else fails the gate: failing tests, an unreached raise not
listed, or a listed raise that the suite now reaches or that no longer
exists (remove its entry). This file is not collected by the tier-1
suite (it does not match ``test_*.py``).
"""

from __future__ import annotations

import ast
import atexit
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nonlocalgames"

#: (file in src/nonlocalgames, the raise's first line, stripped) -> why no
#: tier-1 test reaches it, in the pytest process or a subprocess it starts
UNREACHED: dict[tuple[str, str], str] = {}

#: a child's ``sitecustomize.py``: trace through this file's ``_trace_child``
_CHILD_HOOK = """\
import importlib.util

spec = importlib.util.spec_from_file_location("_reach_gate", {gate!r})
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)
gate._trace_child({out!r})
"""


def _raises() -> dict[tuple[str, str], list[tuple[Path, int, int]]]:
    """Each raise statement of the package, keyed as ``UNREACHED`` is:
    (file, first line) -> [(path, first line number, last line number)]."""
    found: dict[tuple[str, str], list[tuple[Path, int, int]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                key = (path.name, lines[node.lineno - 1].strip())
                found.setdefault(key, []).append((path, node.lineno, node.end_lineno))
    return found


def _trace(reached: set[tuple[str, int]]) -> None:
    """From now on, add to ``reached`` the (file name, line) of each line of
    the package that runs, in this thread and in threads started later."""
    files = {str(path.resolve()) for path in PACKAGE.glob("*.py")}
    ours: dict[str, bool] = {}

    def on_line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        # trace only the package's frames; every other call runs untraced
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = str(Path(name).resolve()) in files
        return on_line if ours[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)


def _untrace() -> None:
    sys.settrace(None)
    threading.settrace(None)


def _trace_child(out: str) -> None:
    """In a subprocess: trace the package, and at exit write the lines
    reached, one ``file name<TAB>line`` each, to a file in ``out``."""
    reached: set[tuple[str, int]] = set()

    def write() -> None:
        _untrace()
        lines = "".join(f"{Path(name).name}\t{line}\n" for name, line in reached)
        Path(out, f"reached-{os.getpid()}.tsv").write_text(lines)

    atexit.register(write)
    _trace(reached)


def _traced_run() -> tuple[int, set[tuple[str, int]]]:
    """Run tier-1 under the line tracer, its Python subprocesses included;
    pytest's exit code and the (file name, line) pairs of the package that
    ran."""
    import pytest

    reached: set[tuple[str, int]] = set()
    saved = os.environ.get("PYTHONPATH")
    with tempfile.TemporaryDirectory(prefix="reach-") as out:
        Path(out, "sitecustomize.py").write_text(
            _CHILD_HOOK.format(gate=str(Path(__file__).resolve()), out=out)
        )
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [out, saved]))
        _trace(reached)
        try:
            status = pytest.main(
                ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
            )
        finally:
            _untrace()
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
        found = {(Path(name).name, line) for name, line in reached}
        for path in Path(out).glob("reached-*.tsv"):
            for row in path.read_text().splitlines():
                name, line = row.split("\t")
                found.add((name, int(line)))
    # pyproject.toml puts src/ first on pytest's path
    import nonlocalgames

    if Path(nonlocalgames.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"traced {PACKAGE}, but the tests imported {nonlocalgames.__file__}")
    return int(status), found


def main() -> int:
    begin = time.monotonic()
    status, reached = _traced_run()
    problems = []
    if status != 0:
        problems.append(f"the tier-1 suite did not pass under the tracer (pytest exit {status})")
    unreached = 0
    raises = _raises()
    for key, sites in raises.items():
        missed = [
            (path, first)
            for path, first, last in sites
            if not any((path.name, line) in reached for line in range(first, last + 1))
        ]
        unreached += len(missed)
        if missed and key not in UNREACHED:
            problems.extend(
                f"{path.relative_to(ROOT)}:{first}: unreached and not listed: {key[1]}"
                for path, first in missed
            )
        elif not missed and key in UNREACHED:
            problems.append(f"{key[0]}: listed but reached by the suite: {key[1]}")
    for key in UNREACHED.keys() - raises.keys():
        problems.append(f"{key[0]}: listed but no such raise: {key[1]}")
    total = sum(map(len, raises.values()))
    print(f"{total - unreached} of {total} raises reached in {time.monotonic() - begin:.1f}s")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
