"""One measured process of a benchmark run.

Reads its generated inputs as one JSON object on stdin, sets the workload
up, runs passes until its time is up, checks every result, and prints one
JSON object on its last stdout line. ``run.py`` starts it with
``python3 -m worker`` and ``PYTHONPATH=src:perfbench``.

Untraced passes call the package's public entry points exactly as a user
would. Traced passes make the same calls split at layer boundaries, with a
span around each call; spans are kept in memory and written out at exit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing.sharedctypes import RawArray
from pathlib import Path
from typing import Any

from nonlocalgames.netplay import PartyStrategy

# Failure probability allowed per context for the simulate TV check. With
# k outcomes and n samples, P(TV > t) <= 2**k * exp(-2 n t**2)
# (Bretagnolle-Huber-Carol), so t = sqrt((k ln 2 + ln(1/delta)) / (2 n)).
TV_DELTA = 1e-9

# Exact truths the solve workload checks. Classical values: the restricted
# game has a local model (1); the extended game has value 1; the four-party
# game 6/7 (12 of 14 equalities); Mermin-GHZ 3/4. Noncontextual values: a
# single assignment satisfies at most 12 of the 14 equalities and 3 of the 4
# tested in the restricted game, whose other 4 contexts always win.
CLASSICAL_VALUES = {
    "cabello-restricted": Fraction(1),
    "cabello-extended": Fraction(1),
    "four-party": Fraction(6, 7),
    "mermin-ghz": Fraction(3, 4),
}
NONCONTEXTUAL_VALUES = {
    "cabello-restricted": Fraction(7, 8),
    "cabello-extended": Fraction(12, 14),
    "four-party": Fraction(12, 14),
    "mermin-ghz": Fraction(3, 4),
}
MAXSAT = (12, 14)


def now() -> int:
    """CLOCK_MONOTONIC in ns: comparable across the processes of one host."""
    return time.monotonic_ns()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Tracer:
    """In-memory spans: [id, parent, name, start_ns, end_ns]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None, name, now(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            self._stack.pop()
            record[4] = now()

    def add(self, name: str, start: int, end: int, parent: int) -> None:
        """Record a span whose end was observed in another process."""
        self.spans.append([len(self.spans), parent, name, start, end])

    def summary(self, root: int) -> dict[str, float]:
        """Total seconds and calls per span name, and self seconds per layer,
        over the subtree under ``root``."""
        inside = {root}
        for sid, parent, *_ in self.spans[root + 1 :]:
            if parent in inside:
                inside.add(sid)
        child_ns: dict[int, int] = {}
        for sid in inside:
            _, parent, _, start, end = self.spans[sid]
            if parent in inside:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: dict[str, float] = {}
        for sid in inside:
            _, _, name, start, end = self.spans[sid]
            dur = end - start
            layer = name.split(".")[0]
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur / 1e9
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            self_s = (dur - child_ns.get(sid, 0)) / 1e9
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
        return out

    def write(self, path: Path, workload: str, run_id: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start_ns": start,
                    "end_ns": end, "workload": workload, "run_id": run_id,
                }) + "\n")


@dataclass
class Pass:
    """One pass: its wall time from first round to checked results."""

    seed: int
    traced: bool
    start_ns: int
    end_ns: int
    work: int
    attempted: int
    failed: int
    problems: list[str]
    stream: dict[str, str]
    layers: dict[str, float]

    @property
    def run_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def tv_tolerance(outcomes: int, samples: int) -> float:
    return math.sqrt((outcomes * math.log(2) + math.log(1 / TV_DELTA)) / (2 * samples))


class Simulate:
    def __init__(self, inputs: dict, tr: Tracer):
        from nonlocalgames import games, quantum, trials

        self.rounds = inputs["rounds"]
        with tr.span("games.game_by_name"):
            self.game = games.game_by_name(inputs["game"])
        with tr.span("trials.resolve_strategy"):
            self.strategy = trials.resolve_strategy(self.game, inputs["strategy"])
        if not tr.enabled:
            self.reference = trials.quantum_reference(self.game)
            return
        # quantum_reference, split per context
        with tr.span("trials.quantum_reference"):
            state = trials.quantum_strategy(self.game).state
            reference = {}
            for ctx in self.game.contexts:
                with tr.span("quantum.joint_distribution"):
                    reference[ctx.id] = quantum.joint_distribution(
                        state, self.game.measured_observables(ctx)
                    )
        if reference != trials.quantum_reference(self.game):
            raise RuntimeError("split quantum_reference differs from quantum_reference")
        self.reference = reference

    def run(self, seed: int, tr: Tracer) -> Pass:
        from nonlocalgames import trials

        start = now()
        if tr.enabled:
            log = run_trials_split(self.game, self.strategy, self.rounds, seed, tr)
        else:
            log = trials.run_trials(self.game, self.strategy, self.rounds, seed)
        with tr.span("trials.to_jsonl"):
            text = log.to_jsonl()
        with tr.span("trials.from_jsonl"):
            back = trials.TrialLog.from_jsonl(text)
        with tr.span("trials.statistics"):
            report = trials.statistics(back, self.reference)
        with tr.span("bench.check"):
            problems = []
            if back.records != log.records:
                problems.append("JSONL round trip changed the log")
            if report.rounds != self.rounds or report.wins != self.rounds:
                problems.append(
                    f"won {report.wins} of {report.rounds} rounds, expected all {self.rounds}"
                )
            for cid, stats in report.per_context.items():
                tol = tv_tolerance(len(self.reference[cid]), stats.asked)
                if stats.tv_distance is None or stats.tv_distance > tol:
                    problems.append(f"context {cid}: TV {stats.tv_distance} above {tol:.4f}")
        end = now()
        layers = {}
        if tr.enabled:
            layers["trials.wins"] = report.wins
            layers["trials.to_jsonl.bytes_per_round"] = len(text.encode()) / self.rounds
        return Pass(seed, tr.enabled, start, end, self.rounds, 1, int(bool(problems)),
                    problems, {"log_sha256": sha256(text)}, layers)


def run_trials_split(game, strategy, rounds: int, seed: int, tr: Tracer):
    """``run_trials`` split into its presample and win-check stages."""
    from nonlocalgames import trials

    with tr.span("trials.presample"):
        plans = trials.presample(game, strategy, rounds, seed)
    with tr.span("trials.record_for"):
        log = trials.TrialLog(game=game.name, strategy=strategy.name, seed=seed)
        for r, plan in enumerate(plans):
            log.records.append(trials._record_for(game, r, plan.context, plan.answers))
    return log


def per_round_us(layers: dict, rounds: int) -> None:
    for stage in ("trials.presample", "trials.record_for"):
        if f"{stage}.s" in layers:
            layers[f"{stage}.us_per_round"] = layers[f"{stage}.s"] * 1e6 / rounds


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


class Solve:
    def __init__(self, inputs: dict, tr: Tracer):
        from nonlocalgames import games

        self.games = {}
        for name in inputs["games"]:
            with tr.span("games.game_by_name"):
                self.games[name] = games.game_by_name(name)
        self.constraints = games.fourteen_equalities()

    def run(self, seed: int, tr: Tracer) -> Pass:
        order = random.Random(seed).sample(sorted(self.games), len(self.games))
        problems: list[str] = []
        stream: dict[str, str] = {}
        layers: dict[str, float] = {}
        failed = 0
        start = now()
        for name, op in [(n, self._solve_game) for n in order] + [("max-sat", self._maxsat)]:
            try:
                found = op(name, tr, stream, layers)
            except Exception as exc:  # a failed operation is counted, not fatal
                found = [f"{name}: {exc!r}"]
            problems.extend(found)
            failed += bool(found)
        end = now()
        # the same fixed work on every commit: the catalog's games plus max-sat
        operations = len(order) + 1
        return Pass(seed, tr.enabled, start, end, operations, operations, failed,
                    problems, stream, layers)

    def _solve_game(self, name: str, tr: Tracer, stream: dict, layers: dict) -> list[str]:
        from nonlocalgames import classical

        game = self.games[name]
        with tr.span(f"classical.classical_value.{name}"):
            result = classical.classical_value(game, workers=1)
        with tr.span("classical.noncontextual_value"):
            bound = classical.noncontextual_value(game)
        with tr.span("bench.check"):
            witness = result.optimal_strategies[0]
            achieved = classical.win_probability(game, witness)
        if tr.enabled:
            layers[f"classical.classical_value.{name}.strategies_examined"] = (
                result.strategies_examined
            )
        stream[f"{name}.witness"] = f"{witness.name}:" + sha256(
            json.dumps([sorted(a.items()) for a in witness.answers])
        )
        problems = []
        if result.value != CLASSICAL_VALUES[name]:
            problems.append(
                f"{name}: classical value {result.value}, expected {CLASSICAL_VALUES[name]}"
            )
        if bound != NONCONTEXTUAL_VALUES[name]:
            problems.append(
                f"{name}: noncontextual value {bound}, expected {NONCONTEXTUAL_VALUES[name]}"
            )
        if achieved != result.value:
            problems.append(f"{name}: first witness wins {achieved}, not {result.value}")
        return problems

    def _maxsat(self, name: str, tr: Tracer, stream: dict, layers: dict) -> list[str]:
        from nonlocalgames import classical

        with tr.span("classical.noncontextual_maxsat"):
            result = classical.noncontextual_maxsat(self.constraints)
        stream["maxsat.witness"] = sha256(
            json.dumps(sorted((str(v), b) for v, b in result.witnesses[0].items()))
        )
        got = (result.max_satisfied, len(self.constraints))
        if got != MAXSAT:
            return [f"max-sat {got[0]}/{got[1]}, expected {MAXSAT[0]}/{MAXSAT[1]}"]
        return []

    def pool_scaling(self, tr: Tracer) -> tuple[dict, list[str]]:
        """classical_value of cabello-extended on a two-worker process pool."""
        from nonlocalgames import classical

        game = self.games["cabello-extended"]
        with tr.span("bench.pool") as root:
            with tr.span("classical.classical_value.cabello-extended.workers2"):
                pooled = classical.classical_value(game, workers=2)
        single = classical.classical_value(game, workers=1)
        problems = []
        if (pooled.value, pooled.optimal_strategies) != (single.value, single.optimal_strategies):
            problems.append("workers=2 result differs from workers=1")
        return tr.summary(root[0]), problems


# ---------------------------------------------------------------------------
# referee
# ---------------------------------------------------------------------------


@dataclass
class Wrapped(PartyStrategy):
    """A player's own strategy, wrapped so the benchmark can observe it."""

    inner: Any = None

    def tape_length(self, rounds: int) -> int:
        return self.inner.tape_length(rounds)

    def set_tape(self, values: tuple[int, ...]) -> None:
        self.inner.set_tape(values)


@dataclass
class TimedParty(Wrapped):
    """Stamps each question's arrival and the time spent answering it."""

    arrivals: Any = None  # shared int64 array, monotonic ns per round
    answer_ns: Any = None  # shared int64 array, ns inside inner.answer

    def answer(self, round_index: int, observables: list[tuple[int, str]]) -> list[int]:
        start = now()
        values = self.inner.answer(round_index, observables)
        self.answer_ns[round_index] = now() - start
        self.arrivals[round_index] = start
        return values


@dataclass
class FaultyParty(Wrapped):
    """Self-test only: a player that exits or falls silent mid-session."""

    fault: str = "exit"
    at_round: int = 10

    def answer(self, round_index: int, observables: list[tuple[int, str]]) -> list[int]:
        if round_index == self.at_round:
            if self.fault == "exit":
                os._exit(5)
            time.sleep(3600)
        return self.inner.answer(round_index, observables)


class Referee:
    def __init__(self, inputs: dict, tr: Tracer):
        from nonlocalgames import games, trials

        self.rounds = inputs["rounds"]
        self.fault = inputs.get("fault")
        with tr.span("games.game_by_name"):
            self.game = games.game_by_name(inputs["game"])
        with tr.span("trials.resolve_strategy"):
            self.strategy = trials.resolve_strategy(self.game, inputs["strategy"])

    def run(self, seed: int, tr: Tracer) -> Pass:
        import numpy as np

        from nonlocalgames import netplay, trials

        game, strategy, rounds = self.game, self.strategy, self.rounds
        arrivals = RawArray("q", rounds)
        answer_ns = RawArray("q", rounds)
        players = [netplay.build_party_strategy(game, strategy, p) for p in range(game.parties)]
        players[0] = TimedParty(party=0, inner=players[0], arrivals=arrivals, answer_ns=answer_ns)
        if self.fault:
            last = players[-1]
            players[-1] = FaultyParty(party=last.party, inner=last, fault=self.fault)
        transcript: dict[int, list[bytes]] | None = {} if tr.enabled else None
        begin = now()
        with tr.span("netplay.session") as session:
            log = netplay.run_local_session(
                game, strategy, rounds, seed, transcript=transcript, player_specs=players
            )
        start = arrivals[0]
        with tr.span("trials.to_jsonl"):
            text = log.to_jsonl()
        if tr.enabled:
            expected = run_trials_split(game, strategy, rounds, seed, tr)
        else:
            expected = trials.run_trials(game, strategy, rounds, seed)
        with tr.span("bench.check"):
            problems = []
            if not log.complete:
                problems.append(f"incomplete log: {log.abort_reason}")
            if log.records != expected.records:
                problems.append("session log differs from run_trials record for record")
        end = now()
        layers: dict[str, float] = {}
        if tr.enabled:
            tr.add("netplay.first_question", begin, start, parent=session[0])
            sent = [m for msgs in transcript.values() for m in msgs]
            layers["netplay.bytes_sent_per_round"] = sum(map(len, sent)) / rounds
            layers["netplay.messages_sent_per_round"] = len(sent) / rounds
            layers["trials.wins"] = sum(r.win for r in log.records)
            layers["trials.to_jsonl.bytes_per_round"] = len(text.encode()) / rounds
        else:
            # latencies come from untraced sessions: tracing records every message
            gaps_us = np.diff(np.frombuffer(arrivals, dtype=np.int64)) / 1e3
            answer_us = np.frombuffer(answer_ns, dtype=np.int64) / 1e3
            layers["netplay.round_p50_us"] = float(np.percentile(gaps_us, 50))
            layers["netplay.round_p99_us"] = float(np.percentile(gaps_us, 99))
            layers["netplay.round_samples"] = len(gaps_us)
            layers["netplay.answer_us.p50"] = float(np.median(answer_us))
        return Pass(seed, tr.enabled, start, end, rounds, 1, int(bool(problems)),
                    problems, {"log_sha256": sha256(text)}, layers)


WORKLOADS = {"simulate": Simulate, "solve": Solve, "referee": Referee}


# ---------------------------------------------------------------------------
# one worker: set-up, passes, result
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run(inputs: dict) -> dict:
    tr = Tracer(bool(inputs["trace"]))
    workload = inputs["workload"]
    result: dict[str, Any] = {
        "env": environment(), "passes": [], "attempted": 0, "failed": 0,
        "problems": [], "layers": {"setup": [], "pass": [], "plain": [], "pool": []},
    }

    def fail(message: str, ops: int = 1) -> None:
        result["attempted"] += ops
        result["failed"] += ops
        result["problems"].append(message)

    try:
        with tr.span("bench.setup") as root:
            state = WORKLOADS[workload](inputs, tr)
        result["setup_end_ns"] = now()
    except Exception:
        fail("set-up failed: " + traceback.format_exc())
        return result
    if tr.enabled:
        result["layers"]["setup"].append(tr.summary(root[0]))

    def one_pass(seed: int, untraced: Pass | None = None) -> Pass | None:
        """Run one pass; traced when ``untraced``, its untraced twin, is given."""
        traced = untraced is not None
        pass_tr = tr if traced else Tracer(False)
        try:
            with pass_tr.span("bench.pass") as root:
                p = state.run(seed, pass_tr)
        except Exception:
            fail(f"pass with seed {seed} failed: " + traceback.format_exc())
            return None
        if traced and p.stream != untraced.stream and not p.failed:
            p.problems.append(f"seed {seed}: traced pass output differs from untraced")
            p.failed = 1
        result["attempted"] += p.attempted
        result["failed"] += p.failed
        result["problems"].extend(p.problems)
        if traced:
            layers = tr.summary(root[0])
            layers.update(p.layers)
            if workload in ("simulate", "referee"):
                per_round_us(layers, p.work)
            result["layers"]["pass"].append(layers)
        elif tr.enabled:
            result["layers"]["plain"].append(p.layers)
        result["passes"].append({
            "seed": p.seed, "traced": p.traced, "run_s": p.run_s, "work": p.work,
            "stream": p.stream,
        })
        return p

    seeds = inputs["seeds"]
    done = 0
    while done == 0 or now() < result["setup_end_ns"] + inputs["pass_s"] * 1e9:
        seed = seeds[done % len(seeds)]
        plain = one_pass(seed)
        if done == 0 and workload == "referee":
            # set-up ends at party 0's first question of the first session
            result["setup_end_ns"] = plain.start_ns if plain and plain.start_ns else None
        if tr.enabled and plain is not None:
            one_pass(seed, untraced=plain)
        done += 1
        if plain is None or result["setup_end_ns"] is None:
            break

    if tr.enabled and workload == "solve" and inputs.get("pool"):
        try:
            layers, problems = state.pool_scaling(tr)
            result["layers"]["pool"].append(layers)
            if problems:
                fail(problems[0])
        except Exception:
            fail("process-pool solve failed: " + traceback.format_exc())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tr.enabled and inputs.get("trace_path"):
        tr.write(Path(inputs["trace_path"]), workload, inputs["run_id"])
    return result


def main() -> int:
    print(json.dumps(run(json.load(sys.stdin))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
