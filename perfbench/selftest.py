"""Self-test of the benchmark itself, at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches spec.py and the benchmark contract;
that a smoke run of every workload, untraced and traced, passes and prints
every named metric with its unit; that a player which exits early, and one
which falls silent, each end in a counted failure rather than a hang; and
that without the package the benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def bench(*args: str, cwd: Path = ROOT, timeout: float = 170) -> tuple[int, list[str], float]:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )
    lines = [ln for ln in done.stdout.splitlines() if ln.strip()]
    return done.returncode, lines, time.monotonic() - start


def result_of(lines: list[str]) -> dict | None:
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def check_manifest() -> None:
    path = ROOT / "BENCHMARK.json"
    check(path.is_file() and path.read_text() == spec.manifest_text(),
          "BENCHMARK.json is what `run.py --write-manifest` writes")
    m = spec.manifest()
    names = [x["name"] for x in m["workloads"] + m["end_to_end"] + m["per_layer"]]
    check(len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names),
          "metric and workload names are unique and well formed")
    check(all(UNIT.fullmatch(x["unit"]) for x in m["end_to_end"] + m["per_layer"]),
          "units are well formed")
    check(all(0 < x["bound"] <= 0.25 for x in m["end_to_end"]), "bounds are within (0, 0.25]")
    setup = next(x for x in m["end_to_end"] if x["name"] == "setup_s")
    check(setup["bound"] == max(x["bound"] for x in m["end_to_end"]),
          "setup_s has the largest bound")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"]),
          "each workload's why is one line of at most 200 characters")
    runs = 4 + 22 * len(m["workloads"])
    check(runs * (m["run_seconds"] + 20) < 3420, f"{runs} runs fit the time budget")


def check_smoke() -> None:
    for workload in [w["name"] for w in spec.WORKLOADS]:
        for trace, metrics in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
            code, lines, _ = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                                   "--trace", trace, "--smoke")
            result = result_of(lines)
            label = f"smoke {workload} trace {trace}"
            check(code == 0 and result is not None and result.get("correct") is True
                  and result.get("failed") == 0, f"{label}: exits 0 with a correct result")
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{label}: result has exactly the four keys")
            expected = {m["name"]: m["unit"] for m in metrics}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == expected, f"{label}: every named metric with its unit")
            check(all(isinstance(v.get("value"), (int, float)) for v in result["metrics"].values()),
                  f"{label}: every value is a number")
            printed = "\n".join(lines[:-1])
            check(all(name in printed for name in expected), f"{label}: metrics printed by name")


def check_faults() -> None:
    code, lines, _ = bench("--workload", "referee", "--seconds", "0", "--trace", "0",
                           "--smoke", "--fault", "exit")
    result = result_of(lines)
    check(code == 1 and result is not None and result["failed"] > 0
          and result["correct"] is False,
          "a player that exits early is counted as failed (failed_frac > 0)")
    code, lines, elapsed = bench("--workload", "referee", "--seconds", "0", "--trace", "0",
                                 "--smoke", "--fault", "hang", "--timeout", "5")
    result = result_of(lines)
    check(code == 1 and result is not None and result["failed"] > 0 and elapsed < 60,
          f"a silent player ends in a counted failure after the timeout ({elapsed:.1f} s)")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines, _ = bench("--workload", "simulate", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=bare, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result_of(lines) is None,
          "without the package: nonzero exit and no result line")


def main() -> int:
    check_manifest()
    check_bare_directory()
    check_faults()
    check_smoke()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
