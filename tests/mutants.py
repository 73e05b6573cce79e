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
        "package-reexports-a-numeric-name",
        "__init__.py",
        'four_party_game`.\n"""\n',
        'four_party_game`.\n"""\n\nfrom .quantum import joint_distribution\n',
        ("tests/test_demos.py::test_games_loads_without_numpy_or_the_rest_of_the_package",),
    ),
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
        "batched-default-kind-is-x",
        "quantum.py",
        '_BASIS_CHANGES[k.get(q, "z")]',
        '_BASIS_CHANGES[k.get(q, "x")]',
        ("tests/test_quantum.py::test_a_z_or_unmeasured_qubit_is_read_without_round_off",),
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
        "below = totals.take(rows, axis=0) <= uniforms[lo : lo + step, :1]",
        "below = totals.take(rows, axis=0) < uniforms[lo : lo + step, :1]",
        ("tests/test_trials.py::test_quantum_outcomes_follow_draw_from",),
    ),
    Mutant(
        "dealer-clamps-to-the-last-outcome",
        "trials.py",
        "last[i] = np.flatnonzero(p)[-1]",
        "last[i] = len(p) - 1",
        ("tests/test_trials.py::test_the_quantum_dealer_deals_no_losing_round_at_the_edges",),
    ),
    Mutant(
        "dealer-deals-round-off-mass",
        "trials.py",
        "p[p < quantum.PROB_TOL] = 0.0",
        "pass",
        (
            "tests/test_trials.py::"
            "test_round_off_mass_on_a_forbidden_outcome_is_never_dealt[mermin-ghz]",
        ),
    ),
    Mutant(
        "dealer-rows-end-without-inf",
        "trials.py",
        "totals = np.full((len(values), 1 + max(map(len, values))), np.inf)",
        "totals = np.full((len(values), max(map(len, values))), np.inf)",
        ("tests/test_trials.py::test_quantum_outcomes_follow_draw_from",),
    ),
    Mutant(
        "dealer-chunks-skip-a-round",
        "trials.py",
        "for lo in range(0, len(contexts), step):",
        "for lo in range(0, len(contexts), step + 1):",
        ("tests/test_trials.py::test_the_dealer_compares_rounds_in_chunks_of_any_size",),
    ),
    Mutant(
        "written-table-skips-every-block",
        "trials.py",
        "if not ids.keys() >= set(tails):",
        "if False:",
        (
            "tests/test_trials.py::"
            "test_a_written_log_is_read_a_block_at_a_time_as_line_by_line[1025]",
        ),
    ),
    Mutant(
        "written-lines-heads-unchecked",
        "trials.py",
        "            return None\n        after += map(",
        "            pass\n        after += map(",
        (
            "tests/test_trials.py::test_a_misnumbered_written_line_is_rejected",
            "tests/test_trials.py::test_a_round_off_its_position_is_rejected[one-on-line-0]",
        ),
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
        "join-without-a-deadline",
        "netplay.py",
        "self._listener.settimeout(wait)",
        "self._listener.settimeout(None)",
        ("tests/test_netplay.py::test_a_party_that_never_connects_ends_the_session_in_time",),
    ),
    Mutant(
        # each accept is bounded, the join as a whole is not
        "join-bound-only-per-accept",
        "netplay.py",
        "join_ends = min(join_ends, time.monotonic() + _PEER_TIMEOUT_S)",
        "pass",
        ("tests/test_netplay.py::test_silent_clients_after_a_hello_cannot_hold_the_join_open",),
    ),
    Mutant(
        "over-long-line-accepted",
        "netplay.py",
        "if (end if end >= 0 else len(self._buf)) >= _MAX_LINE:",
        "if (end if end >= 0 else len(self._buf)) >= 64 * _MAX_LINE:",
        ("tests/test_netplay.py::test_a_valid_answer_over_the_line_limit_is_a_protocol_error",),
    ),
    Mutant(
        "reader-rebuilds-its-buffer",
        "netplay.py",
        "self._buf += chunk",
        "self._buf = self._buf + chunk",
        (
            "tests/test_netplay.py::test_a_long_line_that_trickles_in_is_searched_once",
            "tests/test_netplay.py::test_a_window_that_trickles_in_is_matched_in_one_pass",
        ),
    ),
    Mutant(
        "line-searches-every-held-byte",
        "netplay.py",
        'end = self._buf.find(b"\\n", searched)',
        'end = self._buf.find(b"\\n")',
        ("tests/test_netplay.py::test_a_long_line_that_trickles_in_is_searched_once",),
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
        "if end < 0 or end >= _MAX_LINE:",
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
        # the run check takes each text after a round number, whatever the round
        "player-reads-any-round-as-the-next",
        "netplay.py",
        "tails = _after_heads(lines, _QUESTION_FORMAT, first)",
        'tails = [line[line.find(b",", len(_QUESTION_HEAD)) :] for line in lines]',
        (
            "tests/test_netplay.py::"
            "test_canonical_questions_out_of_order_are_answered_for_their_rounds",
        ),
    ),
    Mutant(
        # the head compare the player's run check shares with from_jsonl
        "player-run-heads-unchecked",
        "trials.py",
        "            return None\n        after += map(",
        "            pass\n        after += map(",
        ("tests/test_netplay.py::test_a_line_that_only_starts_like_a_question_is_decoded_whole",),
    ),
    Mutant(
        "player-run-takes-unknown-texts",
        "netplay.py",
        "return None if None in found else found",
        "return found",
        ("tests/test_netplay.py::test_a_player_answers_runs_as_it_answers_lines_decoded_whole",),
    ),
    Mutant(
        "player-run-check-unbounded",
        "netplay.py",
        "reach = max(reach, 2 * len(run))",
        "reach = len(batch)",
        (
            "tests/test_netplay.py::"
            "test_the_lines_a_player_checks_grow_linearly_with_odd_lines[200]",
        ),
    ),
    Mutant(
        "player-batch-stops-at-the-first-line",
        "netplay.py",
        '            batch.append(line)\n            end = self._buf.rfind(b"\\n")\n',
        "            return [line]\n",
        ("tests/test_netplay.py::test_each_batch_holds_every_whole_line_received_so_far",),
    ),
    Mutant(
        "referee-template-percent-unescaped",
        "netplay.py",
        'tail.replace(b"%", b"%%")',
        "tail",
        ("tests/test_netplay.py::test_a_template_escapes_every_percent_of_its_tail",),
    ),
    Mutant(
        "player-host-through-the-idna-codec",
        "netplay.py",
        "host = host.encode()",
        "host = host",
        ("tests/test_netplay.py::test_a_player_connects_without_loading_the_idna_codec",),
    ),
    Mutant(
        "player-truncates-the-round",
        "netplay.py",
        'first = message.get("round")',
        'first = int(message.get("round"))',
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
        "tape-packed-high-bit-first",
        "netplay.py",
        'bitorder="little"',
        'bitorder="big"',
        ("tests/test_netplay.py::test_tape_round_trip[9]",),
    ),
    Mutant(
        "tape-values-unchecked",
        "netplay.py",
        "    if bad.any():\n",
        "    if False:\n",
        ("tests/test_netplay.py::test_tape_rejects_non_pm_one",),
    ),
    Mutant(
        # the next round's head meets Python's 4,300-digit limit: a traceback
        "player-takes-any-round",
        "netplay.py",
        "if first >= 1 << 63:",
        "if False:",
        (
            "tests/test_netplay.py::test_a_question_round_past_int64_ends_the_player_with_4"
            "[most-digits-json-reads]",
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
        # a first slice of a question answers it at every other slice
        "answer-memo-ignores-the-tape",
        "netplay.py",
        "values = self._answers[observables][row]",
        "values = next(iter(self._answers[observables].values()))",
        ("tests/test_netplay.py::test_one_question_is_answered_by_each_rounds_tape_slice",),
    ),
    Mutant(
        "answer-memo-hit-skips-the-round-check",
        "netplay.py",
        "        if round_index < 0:\n",
        "        if False:\n",
        ("tests/test_netplay.py::test_a_memo_hit_still_needs_a_round",),
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
