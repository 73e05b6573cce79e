"""Benchmark of nonlocalgames: the trial engine, the classical solver and the
TCP referee, end to end and layer by layer.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload simulate --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

A run starts fresh worker processes (``worker.py``) one after another, each
under a wall-clock limit, until ``--seconds`` have gone by. Each worker sets
the workload up and runs checked passes for about a second. Before the
first worker and after each one, once its process group is gone, a
machine-speed probe (``calibrator.py``) runs in a process of its own; each
worker's times are rescaled by the probes on either side of it. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``. Details, the environment and the spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

WORKER_MARGIN_S = 60  # a worker's limit beyond its pass time
PROBE_TIMEOUT_S = 30
RUN_BUDGET_S = 170  # a whole run, every worker included, ends within this
SEEDS_PER_WORKER = 64
EXIT_BROKEN = 2  # there is no package to measure: no result


def generated_inputs(workload: str, seed: int, worker: int, seconds: float,
                     trace: int, fault: str | None, smoke: bool) -> dict:
    """Everything one worker needs, made from the run's seed alone."""
    rng = random.Random(f"{workload}/{seed}/{worker}")
    inputs = {
        "workload": workload,
        "trace": trace,
        "pass_s": min(spec.WORKER_PASS_S, seconds),
        "pool": worker == 0,
        "seeds": [rng.randrange(2**32) for _ in range(SEEDS_PER_WORKER)],
        "run_id": f"{workload}-seed{seed}-trace{trace}-w{worker}",
    }
    if workload == "simulate":
        inputs.update(game=spec.SIMULATE_GAME, strategy=spec.SIMULATE_STRATEGY,
                      rounds=spec.SMOKE_ROUNDS if smoke else spec.SIMULATE_ROUNDS)
    elif workload == "solve":
        inputs.update(games=list(spec.SOLVE_GAMES))
    else:
        inputs.update(game=spec.REFEREE_GAME, strategy=spec.REFEREE_STRATEGY,
                      rounds=spec.SMOKE_ROUNDS if smoke else spec.REFEREE_ROUNDS, fault=fault)
    return inputs


# ---------------------------------------------------------------------------
# bounded worker processes and the probe
# ---------------------------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants (player processes of a killed worker) so
    that they can be waited for."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap_group(pgid: int, limit_s: float = 10.0) -> None:
    """Wait for the adopted members of a killed process group."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            pid, _ = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def child_env(*paths: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(map(str, paths))
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def run_worker(inputs: dict, timeout: float) -> dict:
    """Run one worker in its own process group; kill the group on timeout."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, "-m", "worker"], cwd=ROOT, env=child_env(ROOT / "src", HERE),
        text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(inputs), timeout=max(timeout, 1))
        status = "ok" if proc.returncode == 0 else "crashed"
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        out, _ = proc.communicate()
        status = "timeout"
    finally:
        kill_group(proc.pid)
        reap_group(proc.pid)
    lines = [ln for ln in (out or "").splitlines() if ln.strip()]
    result = None
    if status == "ok" and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            status = "crashed"
    return {"status": status, "spawn_ns": spawn_ns, "result": result,
            "returncode": proc.returncode}


class Probe:
    """The machine-speed probe, ``calibrator.py``, in a process of its own
    that never loads the package."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "calibrator"], cwd=ROOT, env=child_env(HERE), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )

    def measure(self) -> float | None:
        """Median kernel time over spec.PROBE_S seconds, or None."""
        try:
            self.proc.stdin.write(f"{spec.PROBE_S}\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], PROBE_TIMEOUT_S)
            return float(self.proc.stdout.readline()) if ready else None
        except (OSError, ValueError):
            return None

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        kill_group(self.proc.pid)
        self.proc.wait()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def setup_time(worker: dict) -> float | None:
    """Seconds from the worker's spawn to its first round or scan."""
    result = worker["result"]
    if result and result.get("setup_end_ns"):
        return (result["setup_end_ns"] - worker["spawn_ns"]) / 1e9
    return None


def timings(workers: list[dict], scaled: bool) -> dict[str, list[float]]:
    """Set-up times and untraced pass times and rates, as measured or
    rescaled to the reference machine speed by each worker's probes."""
    out: dict[str, list[float]] = {"setup_s": [], "run_s": [], "work_per_s": []}
    for w in workers:
        scale = w["scale"] if scaled else 1.0
        if not w["result"] or scale is None:
            continue
        if setup_time(w):
            out["setup_s"].append(setup_time(w) * scale)
        for p in w["result"]["passes"]:
            if not p["traced"] and p["run_s"] > 0:
                out["run_s"].append(p["run_s"] * scale)
                out["work_per_s"].append(p["work"] / (p["run_s"] * scale))
    return out


def end_to_end(workers: list[dict]) -> dict[str, float | None]:
    """Medians over every worker of the rescaled times and of peak RSS."""
    metrics = {name: median(values) for name, values in timings(workers, True).items()}
    metrics["peak_rss_mb"] = median(
        [w["result"]["peak_rss_mb"] for w in workers if w["result"] and "peak_rss_mb" in w["result"]]
    )
    return metrics


def per_layer(workers: list[dict]) -> dict[str, float | None]:
    """Per-layer metrics, as measured, over every worker: traced set-ups,
    traced passes, untraced passes (latencies that tracing would inflate)
    and pool scaling; a layer the workload does not call reads 0.

    Each value is the sum over these groups of the group's median; self
    times therefore cover one set-up plus one pass.
    """
    groups: dict[str, list[dict]] = {"setup": [], "pass": [], "plain": [], "pool": []}
    for w in workers:
        if w["result"]:
            for group, samples in w["result"]["layers"].items():
                groups[group].extend(samples)
    out: dict[str, float | None] = {}
    for metric in spec.PER_LAYER:
        name = metric["name"]
        total = 0.0
        for samples in groups.values():
            values = [s[name] for s in samples if name in s]
            if values:
                total += statistics.median(values)
        out[name] = total
    passes = [p for w in workers if w["result"] for p in w["result"]["passes"]]
    traced = median([p["run_s"] for p in passes if p["traced"]])
    untraced = median([p["run_s"] for p in passes if not p["traced"]])
    out["trace.overhead_s"] = traced - untraced if traced and untraced else None
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run_workers(workload: str, seed: int, seconds: float, trace: int,
                fault: str | None, timeout: float | None, smoke: bool) -> list[dict]:
    """Fresh workers one after another, each between two probes."""
    begin = time.monotonic()
    workers: list[dict] = []
    probe = Probe()
    try:
        before = probe.measure()
        while True:
            index = len(workers)
            inputs = generated_inputs(workload, seed, index, seconds, trace, fault, smoke)
            if trace:
                inputs["trace_path"] = str(OUT / f"spans-{inputs['run_id']}.jsonl")
            limit = timeout or inputs["pass_s"] + WORKER_MARGIN_S
            worker = run_worker(inputs, min(limit, RUN_BUDGET_S - (time.monotonic() - begin)))
            after = probe.measure()
            worker["probe_s"] = [before, after]
            worker["scale"] = (
                2 * spec.CALIBRATION_S / (before + after) if before and after else None
            )
            workers.append(worker)
            before = after
            if worker["status"] != "ok":
                break
            if len(workers) >= spec.MIN_WORKERS and time.monotonic() - begin >= seconds:
                break
    finally:
        probe.close()
    return workers


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 fault: str | None, timeout: float | None, smoke: bool) -> dict:
    workers = run_workers(workload, seed, seconds, trace, fault, timeout, smoke)
    attempted = failed = 0
    problems: list[str] = []
    for w in workers:
        if w["result"]:
            attempted += w["result"]["attempted"]
            failed += w["result"]["failed"]
            problems.extend(w["result"]["problems"])
        else:
            attempted += 1
            failed += 1
            problems.append(f"worker {w['status']} (exit code {w['returncode']})")
    metrics = per_layer(workers) if trace else end_to_end(workers)
    units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        problems.append("no value for " + ", ".join(missing))
    first = workers[0]["result"] or {}
    plain = [p for p in first.get("passes", []) if not p["traced"]]
    wall = timings(workers, False)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "env": {**first.get("env", {}), "git_commit": git_commit()},
        "correct": failed == 0 and not missing,
        "attempted": max(attempted, 1),
        "failed": failed,
        "problems": problems,
        "metrics": {n: {"value": v or 0.0, "unit": units[n]} for n, v in metrics.items()},
        "stream": {"seed": plain[0]["seed"], **plain[0]["stream"]} if plain else {},
        "samples": {
            "workers": len(workers),
            "passes": sum(len(w["result"]["passes"]) for w in workers if w["result"]),
        },
        "wall": {name: median(values) for name, values in wall.items()},
        "probe_s": [w["probe_s"] for w in workers],
        "worker_setup_s": wall["setup_s"],
        "pass_run_s": wall["run_s"],
    }


def report(outcome: dict) -> None:
    env = outcome["env"]
    name = outcome["workload"]
    print(f"# {name}: seed {outcome['seed']}, trace {outcome['trace']}, "
          f"python {env.get('python')}, numpy {env.get('numpy')}, nproc {env.get('nproc')}, "
          f"cpu {env.get('cpu')!r}, commit {env.get('git_commit')}")
    for metric, m in outcome["metrics"].items():
        print(f"{name:9s} {metric:64s} {m['value']:>16.6f} {m['unit']}")
    samples = outcome["samples"]
    print(f"{name:9s} samples: {samples['workers']} workers, {samples['passes']} passes")
    wall = outcome["wall"]
    if wall["run_s"] and wall["setup_s"]:
        probes = [t for pair in outcome["probe_s"] for t in pair if t]
        print(f"{name:9s} as measured: setup_s {wall['setup_s']:.6f} s, run_s {wall['run_s']:.6f} s; "
              f"probe median {median(probes):.6f} s (reference {spec.CALIBRATION_S} s)")
    for key, value in outcome["stream"].items():
        print(f"{name:9s} stream {key}: {value}")
    frac = outcome["failed"] / outcome["attempted"]
    print(f"{name:9s} attempted {outcome['attempted']}, failed {outcome['failed']}, "
          f"failed_frac {frac:.6f}")
    for problem in outcome["problems"]:
        print(f"{name:9s} problem: {problem}")
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[w["name"] for w in spec.WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock limit per worker process, seconds")
    parser.add_argument("--fault", choices=("exit", "hang"), default=None,
                        help="self-test: one referee player exits or falls silent")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: tiny trial and session sizes")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(spec.manifest_text())
        return 0
    if not (ROOT / "src" / "nonlocalgames" / "__init__.py").is_file():
        print(f"no nonlocalgames package under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_BROKEN
    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    become_subreaper()

    workloads = [w["name"] for w in spec.WORKLOADS] if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    status = 0
    for workload in workloads:
        for trace in traces:
            outcome = run_workload(workload, args.seed, args.seconds, trace,
                                   args.fault, args.timeout, args.smoke)
            path = OUT / f"{workload}-seed{args.seed}-trace{trace}.json"
            path.write_text(json.dumps(outcome, indent=1) + "\n")
            report(outcome)
            if not outcome["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
