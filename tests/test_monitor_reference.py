"""The key-based protocol monitor, automaton and round linearizer, checked
against the object-forest reference monitor in ``helpers``, and the
round step of ``syncmin``, which reads the per-arena memo of
``plays.decide_round``, checked against the reference too.

Arenas are the single-face and sharing interfaces of small types.  The
sharing interface of a type with a ``cell`` argument is left out: its
protocol automaton takes minutes to build.  The round linearizer is also
checked on the interface of ``par4``, whose rounds of one request and its
four children are where refuting dead branches pays.
"""

import gc
import random
import weakref

import pytest

import gosyn.plays
from helpers import ReferenceMonitor, chain, reference_linearize
from gosyn.arena import arena_of_type, sharing_arena
from gosyn.denote import interpret
from gosyn.plays import (
    _ROUNDS, PlayMonitor, ProtocolAutomaton, decide, linearize_round, may_linearize,
)
from gosyn.syncmin import _product_states, _round_step, round_abstract
from gosyn.syntax import parse_type

TYPES = ("com -> com", "exp -> exp", "cell -> com", "(com -> com) -> com")
ARENAS = [(t, "single") for t in TYPES] + [(t, "sharing") for t in TYPES
                                           if not t.startswith("cell")]


def _arena(tyname: str, kind: str):
    ty = parse_type(tyname)
    return arena_of_type(ty) if kind == "single" else sharing_arena(ty)


def _walk(a, rng: random.Random, steps: int) -> list:
    """A move sequence that mostly follows legal moves, with stray ones mixed in."""
    mon = ReferenceMonitor(a)
    out = []
    for _ in range(steps):
        legal = [m for m in a.moves if mon.classify(m) is None]
        if legal and rng.random() < 0.8:
            m = rng.choice(legal)
        else:
            m = rng.choice(a.moves)
        out.append(m)
        if mon.step(m) is not None:
            break
    return out


def _reachable_keys(a, limit: int = 400) -> list:
    """Reference keys reached by reference stepping, breadth first."""
    keys = [()]
    seen = {()}
    k = 0
    while k < len(keys) and len(keys) < limit:
        for m in a.moves:
            ref = ReferenceMonitor.restored(a, keys[k])
            if ref.step(m) is None and ref.state_key() not in seen:
                seen.add(ref.state_key())
                keys.append(ref.state_key())
        k += 1
    return keys


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_monitor_matches_reference_on_random_sequences(tyname, kind):
    a = _arena(tyname, kind)
    rng = random.Random(f"{tyname}/{kind}")
    for _ in range(150):
        mine, ref = PlayMonitor(a), ReferenceMonitor(a)
        for m in _walk(a, rng, rng.randrange(1, 16)):
            v, want = mine.step(m), ref.step(m)
            if want is not None:
                assert v is not None and (v.rule, v.index, v.move) == (*want, a.name(m))
                break
            assert v is None
            assert mine.pending_names() == ref.pending_names()
            assert mine.state_key() == ref.state_key()
            assert mine.justifiers() == tuple(ref.justifier)


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_restored_monitor_matches_reference(tyname, kind):
    a = _arena(tyname, kind)
    for key in _reachable_keys(a):
        for m in a.moves:
            mine, ref = PlayMonitor(a, key), ReferenceMonitor.restored(a, key)
            v, want = mine.step(m), ref.step(m)
            assert (None if v is None else (v.rule, v.index)) == want
            if v is None:
                assert mine.state_key() == ref.state_key()
                assert mine.justifiers() == tuple(ref.justifier)


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_automaton_rows_match_reference_stepping(tyname, kind):
    a = _arena(tyname, kind)
    pa = ProtocolAutomaton(a)
    state_of = {(): pa.initial}
    work = [()]
    while work:
        key = work.pop()
        s = state_of[key]
        for m in a.moves:
            ref = ReferenceMonitor.restored(a, key)
            legal = ref.step(m) is None
            d = pa.step(s, m)
            assert (d is not None) == legal, (key, a.name(m))
            if not legal:
                continue
            nk = ref.state_key()
            if nk not in state_of:
                state_of[nk] = d
                work.append(nk)
            assert state_of[nk] == d
    # distinct keys are distinct states, and every state is reached
    assert len(set(state_of.values())) == len(state_of) == pa.n_states


PAR4 = "com -> com -> com -> com -> com"


@pytest.mark.parametrize("tyname,kind", ARENAS + [(PAR4, "single")])
def test_linearize_round_is_the_first_legal_permutation(tyname, kind):
    a = _arena(tyname, kind)
    most, rounds = (7, 150) if tyname == PAR4 else (6, 300)
    rng = random.Random(f"lin/{tyname}/{kind}")
    keys = _reachable_keys(a)
    for _ in range(rounds):
        key = rng.choice(keys)
        moves = rng.sample(a.moves, rng.randrange(1, min(most, len(a.moves)) + 1))
        if rng.random() < 0.1:
            moves.append(moves[0])  # the same pulse listed twice
        want = reference_linearize(a, key, moves)
        ref = ReferenceMonitor.restored(a, key)
        for m in want or ():
            assert ref.step(m) is None
        # the second ask, on a fresh monitor, reads the remembered answer
        for _ in range(2):
            mon = PlayMonitor(a, key)
            assert linearize_round(a, mon, moves) == want
            assert mon.state_key() == ref.state_key()
            assert mon.justifiers() == tuple(ref.justifier)


def test_par4_round_is_linearized_past_its_dead_branches():
    a = _arena(PAR4, "single")
    q1, a1, q2, a2 = (a.by_name(n) for n in ("q1", "a1", "q2", "a2"))
    key = ((q1, -1),) + tuple((a.by_name(f"q{k}"), 0) for k in range(2, 6))
    order = linearize_round(a, PlayMonitor(a, key), a.moves)
    assert [a.name(m) for m in order] == "a2 a3 a4 a5 a1 q1 q2 q3 q4 q5".split()
    ref = ReferenceMonitor.restored(a, key)
    assert all(ref.step(m) is None for m in order)
    # after a2 and a fresh q2, q2 can no longer be answered, so neither can
    # q1, and q1 cannot be issued again: the node holds no legal order
    node = decide(a, decide(a, key, a2)[0], q2)[0]
    rest = [m for m in a.moves if m not in (a2, q2)]
    assert not may_linearize(a, node, rest)
    assert may_linearize(a, key, a.moves)


def test_product_walk_refutes_dead_branches(monkeypatch):
    """``plays.decide`` calls of the product walk; the count repeats exactly."""
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return decide(*args)

    monkeypatch.setattr(gosyn.plays, "decide", counting)
    for n, most in ((4, 4_000), (6, 100_000)):
        raw = round_abstract(interpret(chain(n, "||")))
        _ROUNDS.pop(raw.arena, None)
        calls = 0
        rows, _ = _product_states(raw)
        assert len(rows) == 2 ** n
        assert calls <= most, (n, calls)


def _refused_rounds_have_no_order(a, key, moves) -> bool:
    """Whether ``may_linearize`` refused the round; a refusal must be right."""
    if may_linearize(a, key, moves):
        return False
    assert reference_linearize(a, key, moves) is None, (key, [a.name(m) for m in moves])
    return True


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_may_linearize_refuses_only_rounds_without_an_order(tyname, kind):
    a = _arena(tyname, kind)
    rng = random.Random(f"may/{tyname}/{kind}")
    keys = _reachable_keys(a)
    refused = 0
    for _ in range(300):
        key = rng.choice(keys)
        moves = rng.sample(a.moves, rng.randrange(1, min(6, len(a.moves)) + 1))
        refused += _refused_rounds_have_no_order(a, key, moves)
    assert refused


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_may_linearize_conditions_each_refuse(tyname, kind):
    a = _arena(tyname, kind)
    rng = random.Random(f"trip/{tyname}/{kind}")
    keys = _reachable_keys(a)
    tripped = {"a": 0, "b": 0}
    for _ in range(60):
        key = rng.choice(keys)
        pending = {e for e, _ in key}
        # (a): a move none of whose enablers is pending, with none in the round
        m = rng.choice(a.moves)
        if a.enablers_of(m) and not a.enablers_of(m) & pending:
            others = [x for x in a.moves if x not in a.enablers_of(m)]
            moves = [m] + rng.sample(others, min(rng.randrange(0, 6), len(others)))
            rng.shuffle(moves)
            assert _refused_rounds_have_no_order(a, key, moves)
            tripped["a"] += 1
        # (b): a pending request issued again, with none of its answers
        if pending:
            m = rng.choice(sorted(pending, key=a.name))
            answers = {x for x in a.enabled_by(m) if not a.is_question(x)}
            others = [x for x in a.moves if x not in answers]
            moves = [m] + rng.sample(others, min(rng.randrange(0, 6), len(others)))
            rng.shuffle(moves)
            assert _refused_rounds_have_no_order(a, key, moves)
            tripped["b"] += 1
    assert tripped["a"] and tripped["b"], tripped


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_round_step_is_the_rank_sorted_linearization(tyname, kind):
    a = _arena(tyname, kind)
    rng = random.Random(f"step/{tyname}/{kind}")
    keys = _reachable_keys(a)
    rounds = []
    for _ in range(300):
        moves = rng.sample(a.moves, rng.randrange(1, min(6, len(a.moves)) + 1))
        rounds.append((rng.choice(keys), frozenset(moves)))
    want = []
    for key, moves in rounds:
        order = reference_linearize(a, key, sorted(moves, key=a.rank.__getitem__))
        ref = ReferenceMonitor.restored(a, key)
        for m in order or ():
            ref.step(m)
        want.append(None if order is None else ref.state_key())
    assert any(w is not None for w in want) and None in want
    assert a not in _ROUNDS
    assert [_round_step(a, key, moves) for key, moves in rounds] == want  # cold memo
    assert len(_ROUNDS[a]) == len(set(rounds))
    assert [_round_step(a, key, moves) for key, moves in rounds] == want  # warm memo


def test_round_step_memo_dies_with_its_arena():
    a = _arena("com -> com", "sharing")
    assert _round_step(a, (), frozenset([a.by_name("Q'1")])) is not None
    assert a in _ROUNDS
    alive = weakref.ref(a)
    del a
    gc.collect()
    assert alive() is None
