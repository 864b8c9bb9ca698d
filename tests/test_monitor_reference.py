"""The key-based protocol monitor, automaton and round linearizer, checked
against the object-forest reference monitor in ``helpers``.

Arenas are the single-face and sharing interfaces of small types.  The
sharing interface of a type with a ``cell`` argument is left out: its
protocol automaton takes minutes to build.
"""

import random

import pytest

from helpers import ReferenceMonitor, reference_linearize
from gosyn.arena import arena_of_type, sharing_arena
from gosyn.plays import PlayMonitor, ProtocolAutomaton, linearize_round, restore_monitor
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
            assert tuple(mine._justifier) == tuple(ref.justifier)


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_restored_monitor_matches_reference(tyname, kind):
    a = _arena(tyname, kind)
    for key in _reachable_keys(a):
        for m in a.moves:
            mine, ref = restore_monitor(a, key), ReferenceMonitor.restored(a, key)
            v, want = mine.step(m), ref.step(m)
            assert (None if v is None else (v.rule, v.index)) == want
            if v is None:
                assert mine.state_key() == ref.state_key()
                assert tuple(mine._justifier) == tuple(ref.justifier)


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


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_linearize_round_is_the_first_legal_permutation(tyname, kind):
    a = _arena(tyname, kind)
    rng = random.Random(f"lin/{tyname}/{kind}")
    keys = _reachable_keys(a)
    for _ in range(300):
        key = rng.choice(keys)
        moves = rng.sample(a.moves, rng.randrange(1, min(4, len(a.moves)) + 1))
        if rng.random() < 0.1:
            moves.append(moves[0])  # the same pulse listed twice
        want = reference_linearize(a, key, moves)
        mon = restore_monitor(a, key)
        got = linearize_round(a, mon, moves)
        assert got == want
        ref = ReferenceMonitor.restored(a, key)
        for m in want or ():
            assert ref.step(m) is None
        assert mon.state_key() == ref.state_key()
