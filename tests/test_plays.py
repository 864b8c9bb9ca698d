"""Play legality: the incremental monitor, the brute-force enumerator, and
the protocol automaton, checked against each other and against closed forms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gosyn.arena import arena_of_type
from gosyn.plays import (
    LimitExceeded, PlayMonitor, ProtocolAutomaton, check_play,
    check_sync_trace, enumerate_plays, linearize_round,
)
from gosyn.syntax import parse_type

FN = arena_of_type(parse_type("com -> com"))


def serial_language(n: int) -> set[tuple[str, ...]]:
    """Prefixes of q1 (q2 a2)* a1 up to length n, written out directly."""
    out = set()
    k = 0
    while 1 + 2 * k <= n:
        body = ("q1",) + ("q2", "a2") * k
        for full in (body, body + ("a1",)):
            for i in range(len(full) + 1):
                if i <= n:
                    out.add(full[:i])
        k += 1
    return {p for p in out if len(p) <= n}


def test_function_protocol_is_serial_reuse():
    want = serial_language(9)
    assert set(enumerate_plays(FN, 9)) == want
    assert ProtocolAutomaton(FN).session_language(9) == want


def test_call_after_return_is_fork():
    v = check_play(FN, ("q1", "a1", "q2"))
    assert not v.ok
    assert (v.violation.rule, v.violation.index, v.violation.move) == ("Fork", 2, "q2")


def test_double_answer_is_fork():
    v = check_play(FN, ("q1", "a1", "a1"))
    assert (v.violation.rule, v.violation.index) == ("Fork", 2)


def test_return_before_subcall_is_wait():
    v = check_play(FN, ("q1", "q2", "a1"))
    assert (v.violation.rule, v.violation.index, v.violation.move) == ("Wait", 2, "a1")
    assert "pending sub-requests" in v.violation.message


def test_reissued_open_request_is_serial():
    v = check_play(FN, ("q1", "q2", "q2"))
    assert (v.violation.rule, v.violation.index, v.violation.move) == ("Serial", 2, "q2")
    v = check_play(FN, ("q1", "q1"))
    assert (v.violation.rule, v.violation.index) == ("Serial", 1)


def test_unenabled_moves_are_justification_failures():
    for play, idx in ((("q1", "a2"), 1), (("a1",), 0), (("q2",), 0)):
        v = check_play(FN, play)
        assert (v.violation.rule, v.violation.index) == ("Justification", idx)


def test_sessions_may_restart_after_completion():
    v = check_play(FN, ("q1", "a1", "q1", "q2"))
    assert v.ok
    assert v.pending == ("q1", "q2")
    assert v.justifier == (None, 0, None, 2)


def test_verdict_reports_completion():
    assert check_play(FN, ("q1", "q2", "a2", "a1")).complete
    assert not check_play(FN, ("q1", "q2")).complete


def test_product_arguments_may_interleave():
    b = arena_of_type(parse_type("com * com -> com"))
    assert check_play(b, ("q1", "q2", "q3", "a3", "a2", "a1")).complete


def test_cell_write_answers_pick_the_open_write():
    c = arena_of_type(parse_type("cell"))
    v = check_play(c, ("wt", "a", "wf", "a"))
    assert v.ok
    assert v.justifier == (None, 0, None, 2)


def test_monitor_matches_batch_checker():
    mon = PlayMonitor(FN)
    for name in ("q1", "q2", "a2"):
        assert mon.step_name(name) is None
    assert mon.pending_names() == ("q1",)
    assert not mon.complete()
    assert mon.step_name("a1") is None
    assert mon.complete()


def test_monitor_poisons_after_violation():
    mon = PlayMonitor(FN)
    assert mon.step_name("q1") is None
    v = mon.step_name("a2")
    assert v is not None and v.rule == "Justification"
    with pytest.raises(RuntimeError):
        mon.step_name("q1")


def test_would_accept_agrees_with_step():
    mon = PlayMonitor(FN)
    mon.step_name("q1")
    legal = {FN.name(m) for m in mon.legal_moves()}
    assert legal == {"q2", "a1"}
    assert mon.would_accept(FN.by_name("q2"))
    assert not mon.would_accept(FN.by_name("a2"))


def test_probe_refuses_like_the_monitor_and_leaves_it_alone():
    mon = PlayMonitor(FN)
    for n in ("q1", "q2", "a2", "q2"):
        assert mon.step_name(n) is None
    probe = mon.probe()
    assert probe.state_key() == mon.state_key()
    # positions count from the two pending requests, not from the four moves
    assert str(probe.step_name("q2")) == (
        "Serial violation at move 2 (q2): that request is still pending; re-issuing it must wait")
    assert probe.failure is not None and mon.failure is None
    assert mon.step_name("a2") is None
    # q2 was seen before the probe, so a second a2 is a Fork, not a Justification
    assert str(mon.probe().step_name("a2")) == (
        "Fork violation at move 1 (a2): every request that enables it has already completed")
    assert mon.step_name("a1") is None
    assert mon.complete()


def test_protocol_automaton_structure():
    pa = ProtocolAutomaton(FN)
    assert pa.n_states == 3
    assert pa.is_quiet(pa.initial)
    assert pa.accepts(("q1", "a1", "q1", "a1"))     # transitions stay re-entrant
    assert not pa.accepts(("q1", "a1", "a1"))
    s = pa.step(pa.initial, FN.by_name("q1"))
    assert pa.pending_at(s) == (FN.by_name("q1"),)


def test_enumeration_flags():
    again = enumerate_plays(FN, 9, reentrant=True)
    assert len(again) == 62
    assert ("q1", "a1", "q1") in set(again)
    complete = enumerate_plays(FN, 6, complete_only=True)
    assert complete == [(), ("q1", "a1"), ("q1", "q2", "a2", "a1"),
                        ("q1", "q2", "a2", "q2", "a2", "a1")]
    with pytest.raises(LimitExceeded):
        enumerate_plays(FN, 9, reentrant=True, limit=10)


def test_enumeration_is_sorted_and_prefix_closed():
    plays = enumerate_plays(FN, 7)
    assert plays == sorted(plays, key=lambda p: (len(p), p))
    have = set(plays)
    for p in plays:
        assert p[:-1] in have or p == ()


def test_linearize_round_reorders_simultaneous_pulses():
    mon = PlayMonitor(FN)
    mon.step_name("q1")
    mon.step_name("q2")
    out = linearize_round(FN, mon, [FN.by_name("q2"), FN.by_name("a2")])
    assert [FN.name(m) for m in out] == ["a2", "q2"]
    # and the monitor advanced through the found order
    assert mon.pending_names() == ("q1", "q2")


def test_linearize_round_rejects_impossible_rounds():
    mon = PlayMonitor(FN)
    mon.step_name("q1")
    assert linearize_round(FN, mon, [FN.by_name("a2")]) is None
    assert mon.pending_names() == ("q1",)           # failure leaves it untouched


def test_check_sync_trace():
    ok, lin, viol = check_sync_trace(FN, [("q1", "q2"), ("a2", "a1")])
    assert ok and viol is None
    assert lin == [["q1", "q2"], ["a2", "a1"]]
    ok, lin, viol = check_sync_trace(FN, [("q1", "q2"), ("a2", "a2")])
    assert not ok and viol.rule == "Fork"
    assert lin == [["q1", "q2"]]
    # a quiet round is legal anywhere and moves nothing
    ok, lin, viol = check_sync_trace(FN, [(), ("q1",), (), ("q2",), ("a2", "a1")])
    assert ok and lin == [[], ["q1"], [], ["q2"], ["a2", "a1"]]


ARENAS = ["com", "exp", "cell", "com -> com", "exp -> exp",
          "com * com -> com", "(com -> com) -> com"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ARENAS), st.integers(0, 2**32))
def test_monitor_and_automaton_agree_on_random_walks(tyname, seed):
    a = arena_of_type(parse_type(tyname))
    pa = ProtocolAutomaton(a)
    rng = random.Random(seed)
    # half the walks follow legal transitions, half inject arbitrary moves
    mon = PlayMonitor(a)
    state = pa.initial
    alive = True
    for _ in range(rng.randrange(1, 12)):
        if rng.random() < 0.5:
            m = rng.choice(a.moves)
        else:
            row = pa.transitions[state] if alive else {}
            if not row:
                break
            m = rng.choice(sorted(row, key=a.name))
        nxt = pa.step(state, m) if alive else None
        v = mon.step(m) if alive else None
        assert (nxt is None) == (v is not None)
        if nxt is None:
            alive = False
            break
        state = nxt


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ARENAS))
def test_enumeration_agrees_with_automaton_language(tyname):
    a = arena_of_type(parse_type(tyname))
    n = 5 if len(a.moves) > 4 else 7
    assert set(enumerate_plays(a, n)) == ProtocolAutomaton(a).session_language(n)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ARENAS), st.integers(0, 2**32))
def test_every_enumerated_play_passes_the_checker(tyname, seed):
    a = arena_of_type(parse_type(tyname))
    plays = enumerate_plays(a, 5)
    rng = random.Random(seed)
    for p in rng.sample(plays, min(20, len(plays))):
        assert check_play(a, p).ok
