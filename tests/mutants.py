"""Mutation gate: each row breaks the package on purpose, and the tests it
names must catch it.

Run from anywhere, with the test requirements installed::

    python tests/mutants.py            # every row
    python tests/mutants.py int64      # rows whose name contains "int64"

For each row the gate copies ``src/``, ``tests/`` and ``pyproject.toml``
into a fresh temporary directory (tests that start subprocesses find the
``src/`` beside them, so they run the copy too), replaces the row's exact
old text with its new text, and runs the row's tests there with pytest.
The row is killed when those tests fail, or when they run past the row's
timeout: a mutant may hang by design, such as a read without a deadline.
First, the unmutated copy must pass every test the chosen rows name.

Exit status 0 means every row was killed. Anything else fails the gate:
a surviving row, an unmutated copy that fails, pytest unable to run the
named tests, or an anchor that does not occur exactly once in its file
("anchor missing"). A refactor that moves an anchor updates its row on
purpose; the gate never skips one. This file is not collected by the
tier-1 suite (it does not match ``test_*.py``).
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/nonlocalgames
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    timeout_s: float = 60.0


MUTANTS = (
    # the solver
    Mutant(
        "components-never-join",
        "classical.py",
        "for part in [part for part in parts if part[0] & mask]:",
        "for part in []:",
        ("tests/test_classical.py::test_classical_value_four_party",),
    ),
    Mutant(
        "sum-pairs-cut-too-soon",
        "classical.py",
        "for j in range(min(len(b), limit // (i + 1)))",
        "for j in range(min(len(b), limit // (i + 2)))",
        ("tests/test_classical.py::test_smallest_sums_merge_matches_brute_force",),
    ),
    Mutant(
        "indices-wrap-to-int64",
        "classical.py",
        "return sum(1 << b for k, b in enumerate(positions) if local >> k & 1)",
        "return (sum(1 << b for k, b in enumerate(positions) if local >> k & 1)"
        " + 2**63) % 2**64 - 2**63",
        ("tests/test_classical.py::test_indices_past_int64_are_exact",),
    ),
    Mutant(
        "untouched-bits-not-merged",
        "classical.py",
        "for bit in untouched:",
        "for bit in []:",
        ("tests/test_classical.py::test_an_outer_question_no_context_asks_takes_either_answer",),
    ),
    Mutant(
        "lower-chunk-bests-kept",
        "classical.py",
        "for chunk_best, _, idx in found if chunk_best == top for i in idx",
        "for chunk_best, _, idx in found for i in idx",
        ("tests/test_classical.py::test_chunk_boundaries_do_not_change_results",),
    ),
    Mutant(
        "untouched-bits-not-counted",
        "classical.py",
        "return best, winners, examined, count << len(untouched)",
        "return best, winners, examined, count",
        ("tests/test_classical.py::test_search_counts_every_optimal_index",),
    ),
    Mutant(
        "witness-answer-shifted-one-bit",
        "classical.py",
        "bits = [(index >> low) & mask for index in winners]",
        "bits = [(index >> (low + 1)) & mask for index in winners]",
        ("tests/test_classical.py::test_witnesses_of_a_fixed_game_match_the_reference",),
    ),
    Mutant(
        "win-probability-unchecked",
        "classical.py",
        "    strategy.check(game)\n",
        "",
        (
            "tests/test_classical.py::test_partial_strategy_rejected",
            "tests/test_classical.py::test_wrong_arity_rejected",
        ),
    ),
    # games, quantum layer and trials
    Mutant(
        "holds-ignores-the-sign",
        "games.py",
        "return prod == self.sign",
        "return prod == abs(self.sign)",
        ("tests/test_quantum.py::test_negated_equality_fails_with_full_mass",),
    ),
    Mutant(
        "nan-passes-the-norm-check",
        "quantum.py",
        "if not abs(norm - 1.0) <= NORM_TOL:",
        "if abs(norm - 1.0) > NORM_TOL:",
        ("tests/test_quantum.py::test_non_finite_amplitudes_are_rejected",),
    ),
    Mutant(
        "nan-passes-the-sum-check",
        "quantum.py",
        "if not abs(total - 1.0) <= SUM_TOL:",
        "if abs(total - 1.0) > SUM_TOL:",
        ("tests/test_quantum.py::test_non_finite_amplitudes_are_rejected",),
    ),
    Mutant(
        "site-accepts-qubit-0",
        "games.py",
        "or int(text[1:]) < 1:",
        "or int(text[1:]) < 0:",
        ("tests/test_quantum.py::test_site_parsing",),
    ),
    Mutant(
        "left-out-party-asked-x",
        "games.py",
        'text or " ".join(f"z{q}" for q in qubits)',
        'text or " ".join(f"x{q}" for q in qubits)',
        ("tests/test_games.py::test_describe_golden[four-party]",),
    ),
    Mutant(
        "joint-distribution-accepts-qubit-0",
        "quantum.py",
        "if not 1 <= q <= state.num_qubits]",
        "if not 0 <= q <= state.num_qubits]",
        ("tests/test_quantum.py::test_joint_distribution_rejects_a_bad_observable[qubit-0]",),
    ),
    Mutant(
        "joint-distribution-accepts-an-unknown-kind",
        "quantum.py",
        "unknown = [o for o in observables if o.kind not in _BASIS_CHANGES]",
        "unknown = []",
        ("tests/test_quantum.py::test_joint_distribution_rejects_a_bad_observable[kind-w]",),
    ),
    Mutant(
        "context-search-on-the-left",
        "trials.py",
        'contexts = np.searchsorted(bounds, doubles[:, 0], side="right")',
        'contexts = np.searchsorted(bounds, doubles[:, 0], side="left")',
        ("tests/test_trials.py::test_a_context_uniform_on_a_running_weight_takes_the_next_context",),
    ),
    Mutant(
        "outcome-search-on-the-left",
        "trials.py",
        'picked = np.searchsorted(total, uniforms[rows, 0], side="right")',
        'picked = np.searchsorted(total, uniforms[rows, 0], side="left")',
        ("tests/test_trials.py::test_quantum_outcomes_follow_draw_from",),
    ),
    Mutant(
        "high-half-word-first",
        "trials.py",
        "halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()",
        "halves = np.stack([words >> 32, words & 0xFFFFFFFF], axis=1).ravel()",
        ("tests/test_trials.py::test_session_draws_match_per_call_draws",),
    ),
    Mutant(
        "header-seed-may-be-a-bool",
        "trials.py",
        "if type(seed) is not int or seed < 0:",
        "if not isinstance(seed, int) or seed < 0:",
        ("tests/test_trials.py::test_from_jsonl_rejects_header_values_never_written",),
    ),
    Mutant(
        "header-version-may-equal-an-int",
        "trials.py",
        "if type(version) is not int or version != LOG_FORMAT_VERSION:",
        "if version != LOG_FORMAT_VERSION:",
        (
            "tests/test_trials.py::test_from_jsonl_rejects_header_values_never_written[version-true]",
            "tests/test_trials.py::test_from_jsonl_rejects_header_values_never_written[version-float]",
        ),
    ),
    Mutant(
        "row-answers-may-be-bools",
        "trials.py",
        "if any(type(v) is not int or v not in (1, -1) for a in answers for v in a):",
        "if any(v not in (1, -1) for a in answers for v in a):",
        ("tests/test_trials.py::test_from_jsonl_rejects_row_values_never_written",),
    ),
    Mutant(
        "row-questions-may-be-a-string",
        "trials.py",
        "if type(questions) is not list or any(type(q) is not str for q in questions):",
        "if any(type(q) is not str for q in questions):",
        ("tests/test_trials.py::test_from_jsonl_raises_as_plain_decoder[questions-a-string]",),
    ),
    Mutant(
        "line-round-off-its-position",
        "trials.py",
        'if type(rec["round"]) is not int or rec["round"] != k:',
        'if type(rec["round"]) is not int:',
        ("tests/test_trials.py::test_a_round_off_its_position_is_rejected[one-on-line-0]",),
    ),
    Mutant(
        "line-round-may-be-a-bool",
        "trials.py",
        'if type(rec["round"]) is not int or rec["round"] != k:',
        'if rec["round"] != k:',
        ("tests/test_trials.py::test_a_round_off_its_position_is_rejected[true]",),
    ),
    Mutant(
        "record-round-off-its-position",
        "trials.py",
        "if type(number) is not int or number != n:",
        "if type(number) is not int:",
        ("tests/test_trials.py::test_a_round_off_its_position_is_rejected[one-on-line-0]",),
    ),
    Mutant(
        "record-round-may-be-a-bool",
        "trials.py",
        "if type(number) is not int or number != n:",
        "if number != n:",
        ("tests/test_trials.py::test_a_round_off_its_position_is_rejected[true]",),
    ),
    Mutant(
        "views-compared-without-remapping-rows",
        "trials.py",
        "np.array_equal(mine[self.index], theirs[other.index])",
        "np.array_equal(self.index, other.index)",
        ("tests/test_trials.py::test_trial_log_jsonl_round_trip",),
    ),
    Mutant(
        "statistics-trusts-the-log",
        "trials.py",
        "            if written != due:\n",
        "            if False:\n",
        (
            "tests/test_trials.py::test_a_log_is_scored_by_its_game_not_by_its_claims[forged-win]",
            "tests/test_trials.py::test_a_log_is_scored_by_its_game_not_by_its_claims[question-y9]",
        ),
    ),
    Mutant(
        "log-of-another-game",
        "trials.py",
        "raise ValueError(f\"round {first}: field 'context' {row[0]!r} is no {log.game} context\")",
        "continue",
        ("tests/test_trials.py::test_a_log_is_scored_by_its_game_not_by_its_claims[other-game]",),
    ),
    Mutant(
        "log-of-an-unknown-game-is-a-key-error",
        "trials.py",
        "except KeyError as exc:\n        raise ValueError(f\"header field 'game'",
        "except IndexError as exc:\n        raise ValueError(f\"header field 'game'",
        ("tests/test_trials.py::test_a_log_is_scored_by_its_game_not_by_its_claims[unknown-game]",),
    ),
    Mutant(
        "row-truncates-answers",
        "games.py",
        "if len(values) != q.answer_arity:",
        "if False:",
        ("tests/test_trials.py::test_mismatched_answers_are_rejected_not_truncated[long-answer]",),
    ),
    Mutant(
        "row-drops-a-party",
        "games.py",
        "if len(answers) != len(self.questions):",
        "if False:",
        ("tests/test_trials.py::test_mismatched_answers_are_rejected_not_truncated[missing-answer]",),
    ),
    # the referee, the player and the CLI
    Mutant(
        "read-without-a-deadline",
        "netplay.py",
        "self._deadline = time.monotonic() + _PEER_TIMEOUT_S",
        "self._deadline = time.monotonic() + 3600",
        ("tests/test_netplay.py::test_stalled_player_times_out",),
    ),
    Mutant(
        "over-long-line-accepted",
        "netplay.py",
        "if (end if end >= 0 else len(self._buf)) - self._pos >= _MAX_LINE:",
        "if (end if end >= 0 else len(self._buf)) - self._pos >= 64 * _MAX_LINE:",
        ("tests/test_netplay.py::test_a_valid_answer_over_the_line_limit_is_a_protocol_error",),
    ),
    Mutant(
        "take-accepts-a-partial-line",
        "netplay.py",
        "            checked = have\n",
        "            checked = have\n            if have:\n                return True\n",
        ("tests/test_netplay.py::test_answers_written_in_pieces_give_the_same_session[one-byte]",),
    ),
    Mutant(
        "window-match-keeps-one-deadline",
        "netplay.py",
        'if b"\\n" in chunk:',
        "if False:",
        ("tests/test_netplay.py::test_a_slow_lock_step_player_still_plays",),
    ),
    Mutant(
        "window-taken-when-any-seat-matches",
        "netplay.py",
        "taken = all(seat.match(lines)",
        "taken = any(seat.match(lines)",
        ("tests/test_netplay.py::test_referee_rescores_a_later_seat_after_the_first_matched",),
    ),
    Mutant(
        "seat-forgets-its-failure",
        "netplay.py",
        "        if self._failure is None:\n            try:",
        "        if True:\n            try:",
        (
            "tests/test_netplay.py::"
            "test_a_party_failing_mid_window_is_named_with_the_rounds_before_it[reset]",
        ),
    ),
    Mutant(
        "player-lines-over-the-limit-accepted",
        "netplay.py",
        "if end < 0 or end - self._pos >= _MAX_LINE:",
        "if end < 0:",
        ("tests/test_netplay.py::test_a_question_over_the_line_limit_ends_the_player_with_4",),
    ),
    Mutant(
        "window-ignores-the-receive-buffer",
        "netplay.py",
        "return max(1, min(_WINDOW, granted // line_bytes))",
        "return _WINDOW",
        ("tests/test_netplay.py::test_a_small_receive_buffer_shortens_the_window[7]",),
    ),
    Mutant(
        "decoder-lets-a-huge-int-through",
        "netplay.py",
        'except ValueError as exc:\n        raise ProtocolError(f"undecodable message',
        'except json.JSONDecodeError as exc:\n        raise ProtocolError(f"undecodable message',
        (
            "tests/test_netplay.py::test_a_hello_with_a_huge_party_is_a_protocol_error",
            "tests/test_netplay.py::test_an_answer_with_a_huge_round_names_the_party",
        ),
    ),
    Mutant(
        "player-keys-questions-by-the-line-received",
        "netplay.py",
        "asked[_question_tail(observables)[:-1]] = observables",
        'asked[line[line.index(b",", len(_QUESTION_HEAD)) :]] = observables',
        (
            "tests/test_netplay.py::test_player_replies_are_the_decoded_answers_in_canonical_bytes"
            "[cabello-restricted-lambda-mu]",
        ),
    ),
    Mutant(
        "player-reads-any-round-as-the-next",
        "netplay.py",
        "if not tape and line.startswith(head):",
        "if not tape and line.startswith(_QUESTION_HEAD):",
        (
            "tests/test_netplay.py::"
            "test_canonical_questions_out_of_order_are_answered_for_their_rounds",
        ),
    ),
    Mutant(
        "player-truncates-the-round",
        "netplay.py",
        'round_index = message.get("round")',
        'round_index = int(message.get("round"))',
        (
            "tests/test_netplay.py::test_a_question_with_a_round_never_written_ends_the_player_with_4"
            "[true]",
            "tests/test_netplay.py::test_a_question_with_a_round_never_written_ends_the_player_with_4"
            "[float]",
        ),
    ),
    Mutant(
        "referee-takes-a-round-equal-to-an-int",
        "netplay.py",
        'if type(message.get("round")) is not int or message["round"] != r:',
        'if message.get("round") != r:',
        (
            "tests/test_netplay.py::"
            "test_an_answer_numbered_by_a_round_equal_to_an_int_names_the_party[true]",
        ),
    ),
    Mutant(
        "referee-logs-the-planned-row",
        "netplay.py",
        "if answers != plan.answers:",
        "if False:",
        ("tests/test_netplay.py::test_referee_scores_the_answers_sent",),
    ),
    Mutant(
        "seat-takes-any-message-type",
        "netplay.py",
        'if message["type"] != kind:',
        "if False:",
        (
            "tests/test_netplay.py::test_a_first_line_that_is_not_a_hello_is_a_protocol_error",
            "tests/test_netplay.py::test_a_line_in_place_of_an_answer_is_a_protocol_error",
        ),
    ),
    Mutant(
        "hello-party-may-be-a-bool",
        "netplay.py",
        "if type(party) is not int or not 0 <= party < game.parties:",
        "if not isinstance(party, int) or not 0 <= party < game.parties:",
        ("tests/test_netplay.py::test_a_hello_field_equal_to_an_int_is_rejected[party-true]",),
    ),
    Mutant(
        "hello-version-may-equal-an-int",
        "netplay.py",
        "if type(version) is not int or version != PROTOCOL_VERSION:",
        "if version != PROTOCOL_VERSION:",
        (
            "tests/test_netplay.py::test_a_hello_field_equal_to_an_int_is_rejected[version-true]",
            "tests/test_netplay.py::test_a_hello_field_equal_to_an_int_is_rejected[version-float]",
        ),
    ),
    Mutant(
        "player-casts-the-slot",
        "netplay.py",
        '(o["slot"], o["kind"]) for o in',
        '(int(o["slot"]), o["kind"]) for o in',
        tuple(
            "tests/test_netplay.py::"
            f"test_a_referee_field_of_the_wrong_type_ends_the_player_with_4[{case}]"
            for case in ("float-slot", "string-slot", "bool-slot")
        ),
    ),
    Mutant(
        "player-kind-unchecked",
        "netplay.py",
        "if type(kind) is not str:",
        "if False:",
        (
            "tests/test_netplay.py::"
            "test_a_referee_field_of_the_wrong_type_ends_the_player_with_4[int-kind]",
        ),
    ),
    Mutant(
        "tape-decoded-leniently",
        "netplay.py",
        "base64.b64decode(text.encode(), validate=True)",
        "base64.b64decode(text.encode())",
        (
            "tests/test_netplay.py::"
            "test_a_referee_field_of_the_wrong_type_ends_the_player_with_4[tape-off-the-alphabet]",
        ),
    ),
    Mutant(
        # a session that cannot be planned fails only once served, after
        # run_local_session has started the players (and then killed them)
        "session-planned-when-served",
        "netplay.py",
        "self._plans, self._index = _plan_session(game, strategy, rounds, seed)\n",
        "try:\n"
        "            self._plans, self._index = _plan_session(game, strategy, rounds, seed)\n"
        "        except ValueError as exc:\n"
        "            failure = exc\n"
        "\n"
        "            def serve():\n"
        "                raise failure\n"
        "\n"
        "            self.serve = serve\n",
        ("tests/test_netplay.py::test_a_session_that_cannot_be_planned_starts_no_player",),
    ),
    Mutant(
        "failed-serve-leaves-the-players-running",
        "netplay.py",
        "proc.kill()",
        "pass",
        ("tests/test_netplay.py::test_a_failed_serve_ends_the_players_at_once",),
        # the mutant waits out run_local_session's 30 s join of the player
        # whose connection was never accepted
        timeout_s=15.0,
    ),
    Mutant(
        "aborted-log-keeps-unplayed-rounds",
        "netplay.py",
        "log._fill(log.rows, index[:played])",
        "log._fill(log.rows, index)",
        (
            "tests/test_netplay.py::test_an_aborted_session_keeps_exactly_the_rounds_played"
            "[6-contrary]",
        ),
    ),
    Mutant(
        "player-exits-0-on-a-protocol-error",
        "netplay.py",
        'print(f"player {party_strategy.party}: {exc}", file=sys.stderr)\n        return 4',
        'print(f"player {party_strategy.party}: {exc}", file=sys.stderr)\n        return 0',
        ("tests/test_netplay.py::test_player_rejects_unknown_message_type",),
    ),
    Mutant(
        "answer-memo-ignores-the-tape",
        "netplay.py",
        "key = (tuple(observables), row)",
        "key = (tuple(observables), ())",
        ("tests/test_netplay.py::test_one_question_is_answered_by_each_rounds_tape_slice",),
    ),
    Mutant(
        "answer-memo-hit-skips-the-round-check",
        "netplay.py",
        "        elif round_index < 0:\n",
        "        elif False:\n",
        ("tests/test_netplay.py::test_a_memo_hit_still_needs_a_round",),
    ),
    Mutant(
        # the memo keeps one list per key and hands that list out
        "answer-memo-shares-its-list",
        "netplay.py",
        "= tuple(self.strategy.respond(self.party, question, row))\n",
        "= list(self.strategy.respond(self.party, question, row))\n"
        "            return values\n",
        ("tests/test_netplay.py::test_the_answer_list_is_the_callers",),
    ),
    Mutant(
        "out-of-memory-is-a-traceback",
        "cli.py",
        "except MemoryError as exc:",
        "except ArithmeticError as exc:",
        ("tests/test_cli.py::test_session_too_large_for_memory_exits_3",),
    ),
    Mutant(
        "unbalanced-host-bracket-accepted",
        "cli.py",
        ' or host.startswith("[") != host.endswith("]"):',
        ":",
        (
            "tests/test_cli.py::test_a_malformed_host_port_exits_2[unclosed-bracket]",
            "tests/test_cli.py::test_a_malformed_host_port_exits_2[unopened-bracket]",
        ),
    ),
    Mutant(
        "host-port-takes-any-digit",
        "cli.py",
        "port_ok = port.isascii() and port.isdigit()",
        "port_ok = port.isdigit()",
        (
            "tests/test_cli.py::test_a_malformed_host_port_exits_2[superscript-port]",
            "tests/test_cli.py::test_a_malformed_host_port_exits_2[arabic-indic-port]",
        ),
    ),
    Mutant(
        "serve-bind-error-is-a-traceback",
        "cli.py",
        "server.bind(address)\n        except OSError as exc:",
        "server.bind(address)\n        except ValueError as exc:",
        ("tests/test_cli.py::test_serve_on_a_port_in_use_exits_2",),
    ),
    Mutant(
        "serve-out-error-is-a-traceback",
        "cli.py",
        'except OSError as exc:\n        raise CliError(EXIT_USAGE, f"cannot write',
        'except ValueError as exc:\n        raise CliError(EXIT_USAGE, f"cannot write',
        ("tests/test_cli.py::test_serve_with_an_unwritable_out_exits_2_before_binding",),
    ),
    Mutant(
        "leak-check-passes-a-hello",
        "verification.py",
        "leaks.append(f\"party {party} received {message['type']!r}\")",
        "pass",
        ("tests/test_netplay.py::test_the_leak_check_names_each_leaky_message",),
    ),
)


class GateError(Exception):
    """The gate cannot judge a row: its anchor or its tests are broken."""


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _mutate(dest: Path, mutant: Mutant) -> None:
    path = dest / "src" / "nonlocalgames" / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise GateError(
            f"{mutant.name}: anchor missing ({found} occurrences in {mutant.file}): "
            f"{mutant.old!r}"
        )
    path.write_text(text.replace(mutant.old, mutant.new))


def _run_tests(dest: Path, tests: tuple[str, ...], timeout_s: float) -> tuple[str, str]:
    """("passed" | "failed" | "timeout", pytest's output) for ``tests`` run
    in ``dest``; any other pytest outcome (no such test, a collection
    error) raises GateError."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=dest, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,  # so a timeout ends the players a test started too
    )
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return "timeout", out
    if proc.returncode == 0:
        return "passed", out
    if proc.returncode == 1:
        return "failed", out
    raise GateError(f"pytest exited {proc.returncode} on {' '.join(tests)}:\n{out}")


def _in_a_copy(mutant: Mutant | None, tests: tuple[str, ...], timeout_s: float):
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        if mutant is not None:
            _mutate(dest, mutant)
        return _run_tests(dest, tests, timeout_s)


def main(argv: list[str]) -> int:
    rows = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    if not rows:
        print(f"no row matches {argv}", file=sys.stderr)
        return 2
    begin = time.monotonic()
    try:
        named = tuple(dict.fromkeys(t for m in rows for t in m.tests))
        outcome, out = _in_a_copy(None, named, 300.0)
        if outcome != "passed":
            print(f"unmutated copy {outcome}:\n{out}", file=sys.stderr)
            return 1
        print(f"unmutated copy passes {len(named)} tests")
        survivors = []
        for mutant in rows:
            start = time.monotonic()
            outcome, out = _in_a_copy(mutant, mutant.tests, mutant.timeout_s)
            verdict = "survived" if outcome == "passed" else f"killed ({outcome})"
            print(f"{mutant.name}: {verdict}, {time.monotonic() - start:.1f}s", flush=True)
            if outcome == "passed":
                survivors.append(mutant.name)
    except GateError as exc:
        print(f"gate error: {exc}", file=sys.stderr)
        return 1
    killed = len(rows) - len(survivors)
    print(f"{killed}/{len(rows)} mutants killed in {time.monotonic() - begin:.1f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
