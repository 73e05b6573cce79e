"""Reach gate: every ``raise`` in the package is reached by a test, or is
listed below with the reason it is not.

Run from anywhere, with the test requirements installed::

    python tests/reach.py

It runs the tier-1 suite in this process, with ``--hypothesis-seed=0`` so
that the lines reached are the same from run to run, under a stdlib
``sys.settrace`` line tracer that records the lines of
``src/nonlocalgames/`` only (threads included). A ``raise`` statement is
reached when any of its lines ran. The tracer does not follow player or
CLI subprocesses: a raise reached only there is listed in ``UNREACHED``
and its reason says so.

Exit status 0 means the suite passed, every raise it did not reach is in
``UNREACHED``, and every entry names a raise the suite did not reach.
Anything else fails the gate: failing tests, an unreached raise not
listed, or a listed raise that the suite now reaches or that no longer
exists (remove its entry). This file is not collected by the tier-1
suite (it does not match ``test_*.py``).
"""

from __future__ import annotations

import ast
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nonlocalgames"

#: (file in src/nonlocalgames, the raise's first line, stripped) -> why no
#: tier-1 test reaches it in the pytest process
UNREACHED = {
    ("cli.py", "raise SystemExit(main())"): (
        "runs only as `python -m nonlocalgames.cli`, in CLI subprocesses"
    ),
}


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


def _traced_run() -> tuple[int, set[tuple[str, int]]]:
    """Run tier-1 under the line tracer; pytest's exit code and the
    (file name, line) pairs of the package that ran."""
    import pytest

    files = {str(path) for path in PACKAGE.glob("*.py")}
    reached: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        # trace only the package's frames; every other call runs untraced
        return on_line if frame.f_code.co_filename in files else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    # pyproject.toml puts src/ first on pytest's path
    import nonlocalgames

    if Path(nonlocalgames.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"traced {PACKAGE}, but the tests imported {nonlocalgames.__file__}")
    return int(status), {(Path(name).name, line) for name, line in reached}


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
