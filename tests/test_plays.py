"""Play legality: the key-based steps ``decide`` and ``decide_round``, the
checkers that fold them, the brute-force enumerator, and the protocol
automaton, checked against each other and against closed forms."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from helpers import LimitExceeded, ProtocolAutomaton, enumerate_plays

from gosyn.arena import arena_of_type, sharing_arena
from gosyn.plays import blame, check_play, check_sync_trace, decide, decide_round
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


def _key_after(arena, names) -> tuple:
    """The pending-forest key after stepping ``decide`` through a legal play."""
    key = ()
    for n in names:
        key = decide(arena, key, arena.by_name(n))[0]
        assert key is not None, n
    return key


def test_monitor_matches_batch_checker():
    play = ("q1", "q2", "a2", "a1")
    for n in range(len(play) + 1):
        key = _key_after(FN, play[:n])
        v = check_play(FN, play[:n])
        assert v.ok and v.pending == tuple(FN.name(m) for m, _ in key)
        assert v.complete == (not key)
    assert check_play(FN, play[:3]).pending == ("q1",)
    assert not check_play(FN, play[:3]).complete
    assert check_play(FN, play).complete


def test_check_play_stops_at_the_first_violation():
    # q1 again would be a Serial violation, but the play already broke at a2
    v = check_play(FN, ("q1", "a2", "q1"))
    assert (v.ok, v.violation.rule, v.violation.index) == (False, "Justification", 1)
    assert v.pending == () and v.justifier == ()


def test_a_violation_is_reported_before_a_later_unknown_port():
    # both checkers name ports one move (or round) at a time, so "zz" is never looked up
    v = check_play(FN, ("a1", "zz"))
    ok, _, w = check_sync_trace(FN, [["a1"], ["zz"]])
    assert not v.ok and not ok and v.violation == w
    assert (w.rule, w.index, w.move) == ("Justification", 0, "a1")
    with pytest.raises(KeyError):
        check_play(FN, ("zz",))


def test_decide_accepts_the_legal_moves_check_play_accepts():
    key = _key_after(FN, ("q1",))
    legal = {FN.name(m) for m in FN.moves if decide(FN, key, m)[0] is not None}
    assert legal == {"q2", "a1"}
    assert legal == {FN.name(m) for m in FN.moves if check_play(FN, ("q1", FN.name(m))).ok}
    assert decide(FN, key, FN.by_name("a2")) == (None, -1, "Fork")


def test_blame_names_a_refusal_from_the_moves_seen():
    key = _key_after(FN, ("q1", "q2", "a2", "q2"))
    seen = {FN.by_name(n) for n in ("q1", "q2", "a2")}
    # positions count from the two pending requests, not from the four moves
    i, v = blame(FN, key, [FN.by_name("q2")], seen)
    assert (i, str(v)) == (0, "Serial violation at move 2 (q2): that request is still "
                              "pending; re-issuing it must wait")
    key = decide(FN, key, FN.by_name("a2"))[0]
    # q2 was seen before, so a second a2 is a Fork, not a Justification
    assert str(blame(FN, key, [FN.by_name("a2")], seen)[1]) == (
        "Fork violation at move 1 (a2): every request that enables it has already completed")
    assert blame(FN, key, [FN.by_name("a2")], ())[1].rule == "Justification"
    # a move the round steps before the refused one counts as seen
    i, v = blame(FN, key, [FN.by_name(n) for n in ("q2", "a2", "a2")], ())
    assert (i, v.rule, v.index) == (2, "Fork", 3)
    with pytest.raises(ValueError):
        blame(FN, key, [FN.by_name("a1")], seen)
    assert decide(FN, key, FN.by_name("a1"))[0] == ()


@pytest.mark.parametrize("arena", [FN, sharing_arena(parse_type("com -> com")),
                                   arena_of_type(parse_type("cell"))],
                         ids=["com -> com", "share com -> com", "cell"])
def test_blame_names_a_refusal_as_the_monitor_does(arena):
    rng = random.Random(5)
    refused = {"Justification": 0, "Fork": 0}
    for _ in range(300):
        key, play = (), []
        for _ in range(rng.randrange(1, 12)):
            # mostly moves legal in turn, shuffled, now and then any move
            moves, at = [], key
            for _ in range(rng.choice((1, 1, 2, 3))):
                legal = [m for m in arena.moves if decide(arena, at, m)[0] is not None]
                m = rng.choice(legal if legal and rng.random() < 0.8 else arena.moves)
                moves.append(m)
                at = decide(arena, at, m)[0] or at
            rng.shuffle(moves)
            steps = decide_round(arena, key, moves)
            if steps is None:
                i, v = blame(arena, key, moves, play)
                names = [arena.name(m) for m in play + moves[:i + 1]]
                assert check_play(arena, names[:-1]).ok
                want = check_play(arena, names).violation
                assert (v.rule, v.move) == (want.rule, want.move)
                assert v.index + len(play) - len(key) == want.index
                refused[v.rule] = refused.get(v.rule, 0) + 1
                break
            play += [m for m, _, _ in steps]
            key = steps[-1][2] if steps else key
    assert min(refused.values()) >= 10, refused


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


def test_decide_round_reorders_simultaneous_pulses():
    key = _key_after(FN, ("q1", "q2"))
    steps = decide_round(FN, key, [FN.by_name("q2"), FN.by_name("a2")])
    assert [FN.name(m) for m, _, _ in steps] == ["a2", "q2"]
    # each step carries the key it leads to
    assert [nxt for _, _, nxt in steps] == [_key_after(FN, ("q1",)), key]


def test_decide_round_rejects_impossible_rounds():
    assert decide_round(FN, _key_after(FN, ("q1",)), [FN.by_name("a2")]) is None


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
    key = ()
    state = pa.initial
    for _ in range(rng.randrange(1, 12)):
        if rng.random() < 0.5:
            m = rng.choice(a.moves)
        else:
            row = pa.transitions[state]
            if not row:
                break
            m = rng.choice(sorted(row, key=a.name))
        nxt = pa.step(state, m)
        key = decide(a, key, m)[0]
        assert (nxt is None) == (key is None)
        if nxt is None:
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
