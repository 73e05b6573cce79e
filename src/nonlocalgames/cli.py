"""Command-line front door.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
budget exceeded (the solver's budget, or memory the process cannot get,
such as for a session too large to hold), 4 protocol error or aborted
session, from ``serve`` and ``play`` alike; ``serve`` aborts when no
connection comes for 30 s while a party is missing, when the parties
have not all said hello 30 s after the first one did, or when a
player's message is not whole within 30 s. All output is deterministic
given the flags and seed. The solver's budget is set by ``solve
--budget`` alone; no environment variable sets it. ``solve`` has no
``--workers`` flag (exit 2, as for any unknown flag). ``serve`` opens
``--out`` and binds ``--bind`` before it accepts a player, and exits 2
with one line if either fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import classical, games, netplay, trials, verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PROTOCOL = 4

EQUATION_SETS = {
    "fourteen": games.fourteen_equalities,
    "four": games.contradiction_subset,
}


def _fraction_text(value: Fraction) -> str:
    return f"{value} ≈ {float(value):.6f}"


class CliError(Exception):
    """Carries the exit code for a user-facing failure."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_game(name: str) -> games.NonlocalGame:
    try:
        return games.game_by_name(name)
    except KeyError as exc:
        raise CliError(EXIT_USAGE, exc.args[0]) from None


def _check_at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise CliError(EXIT_USAGE, f"{flag} must be >= {minimum}, got {value}")


def _parse_host_port(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    port_ok = port.isascii() and port.isdigit()  # str.isdigit also takes "²" and "٣"
    if not sep or not port_ok or host.startswith("[") != host.endswith("]"):
        raise CliError(EXIT_USAGE, f"expected HOST:PORT, got {text!r}")
    if int(port) > 65535:
        raise CliError(EXIT_USAGE, f"port must be 0-65535, got {port}")
    return host.removeprefix("[").removesuffix("]") or "127.0.0.1", int(port)


def _cmd_show(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    print(games.describe(game))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    _check_at_least("--budget", args.budget, 0)
    _check_at_least("--witnesses", args.witnesses, 0)
    result = classical.classical_value(game, budget=args.budget, max_witnesses=args.witnesses)
    print(f"game {game.name}")
    print(f"classical value: {_fraction_text(result.value)}")
    print(f"outer strategies examined: {result.strategies_examined}")
    bound = classical.noncontextual_value(game)
    print(f"best noncontextual assignment value: {_fraction_text(bound)}")
    for strategy in result.optimal_strategies[: args.witnesses]:
        print(f"optimal strategy {strategy.name}:")
        for party, answers in enumerate(strategy.answers):
            parts = [
                f"{qid}->{'/'.join(f'{v:+d}' for v in values)}"
                for qid, values in sorted(answers.items())
            ]
            print(f"  party {party}: " + "  ".join(parts))
    return EXIT_OK


def _cmd_maxsat(args: argparse.Namespace) -> int:
    if args.file is not None:
        try:
            constraints = [
                games.parse_constraint_line(ln)
                for ln in Path(args.file).read_text().splitlines()
                if ln.strip() and not ln.lstrip().startswith("#")
            ]
        except (OSError, ValueError) as exc:
            raise CliError(EXIT_USAGE, f"cannot read {args.file}: {exc}") from None
        if not constraints:
            raise CliError(EXIT_USAGE, f"no constraints in {args.file}")
    else:
        if args.set is None:
            raise CliError(EXIT_USAGE, "need an equation-set name or --file")
        # argparse's choices have already rejected an unknown set name
        constraints = list(EQUATION_SETS[args.set]())
    result = classical.noncontextual_maxsat(constraints, max_witnesses=1)
    print(f"{result.max_satisfied}/{len(constraints)} satisfied")
    print(f"maximizing assignments: {result.count}")
    if result.witnesses:
        first = result.witnesses[0]
        text = " ".join(f"{var}={value:+d}" for var, value in sorted(first.items()))
        print(f"first witness: {text}")
    return EXIT_OK


def _resolve_strategy(game: games.NonlocalGame, name: str) -> trials.Strategy:
    try:
        return trials.resolve_strategy(game, name)
    except KeyError as exc:
        raise CliError(EXIT_USAGE, exc.args[0]) from None


def _emit_report(report: trials.StatReport, fmt: str) -> None:
    if fmt == "records":
        for record in report.to_records():
            print(json.dumps(record, sort_keys=True))
    else:
        print(report.to_text())


def _cmd_simulate(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    _check_at_least("--rounds", args.rounds, 1)
    _check_at_least("--seed", args.seed, 0)
    strategy = _resolve_strategy(game, args.strategy)
    log = trials.run_trials(game, strategy, rounds=args.rounds, seed=args.seed)
    reference = trials.quantum_reference(game) if args.reference else None
    report = trials.statistics(log, reference)
    _emit_report(report, args.format)
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    _check_at_least("--rounds", args.rounds, 1)
    _check_at_least("--seed", args.seed, 0)
    strategy = _resolve_strategy(game, args.strategy)
    address = _parse_host_port(args.bind)
    try:
        out = open(args.out, "w") if args.out is not None else contextlib.nullcontext()
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write {args.out}: {exc.strerror}") from None
    with out:
        server = netplay.RefereeServer(game, args.rounds, args.seed, strategy)
        try:
            server.bind(address)
        except OSError as exc:
            raise CliError(EXIT_USAGE, f"cannot bind {args.bind}: {exc.strerror or exc}") from None
        log = server.serve()
        if args.out is not None:
            out.write(log.to_jsonl())
    if not log.complete:
        print(f"session aborted: {log.abort_reason}", file=sys.stderr)
        return EXIT_PROTOCOL
    report = trials.statistics(log)
    _emit_report(report, args.format)
    return EXIT_OK


def _cmd_play(args: argparse.Namespace) -> int:
    # everything is checked before connecting
    game = _load_game(args.game)
    strategy = _resolve_strategy(game, args.strategy)
    try:
        player = netplay.build_party_strategy(game, strategy, args.party)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None
    address = _parse_host_port(args.connect)
    return netplay.run_player(address, player)


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verification.run_all()
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] criterion {result.criterion:02d}: {result.name}")
        print(f"       {result.detail}")
        if not result.passed:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocal-games",
        description="Nonlocal games: exact quantum statistics, exact classical "
        "values, and a distributed referee.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="print a game's structured description")
    p.add_argument("game")
    p.set_defaults(fn=_cmd_show)

    p = sub.add_parser("solve", help="exact classical value of a game")
    p.add_argument("game")
    p.add_argument("--budget", type=int, default=classical.DEFAULT_BUDGET)
    p.add_argument("--witnesses", type=int, default=1)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("maxsat", help="best noncontextual +-1 assignment")
    p.add_argument("set", nargs="?", choices=sorted(EQUATION_SETS), default=None)
    p.add_argument("--file", default=None, help="equation file: '<+1|-1> x1 y3 ...' per line")
    p.set_defaults(fn=_cmd_maxsat)

    p = sub.add_parser("simulate", help="run seeded trials in process")
    p.add_argument("game")
    p.add_argument("--strategy", default="quantum",
                   help="quantum, best-classical, or a local model the game names")
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference", action="store_true",
                   help="add per-context TV distance vs the quantum distribution")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("serve", help="referee a distributed session")
    p.add_argument("game")
    p.add_argument("--bind", default="127.0.0.1:4242")
    p.add_argument("--strategy", default="quantum")
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the trial log (JSON lines)")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("play", help="run one player process")
    p.add_argument("game")
    p.add_argument("--connect", required=True)
    p.add_argument("--party", type=int, required=True)
    p.add_argument("--strategy", default="quantum")
    p.set_defaults(fn=_cmd_play)

    p = sub.add_parser("verify", help="run the verification suite")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except classical.BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_BUDGET
    except netplay.ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    raise SystemExit(main())
