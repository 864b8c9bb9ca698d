"""The key-based protocol steps ``decide`` and ``decide_round``, the
checkers ``check_play`` and ``check_sync_trace`` that fold them, and the
protocol automaton, checked against the object-forest reference monitor in
``helpers``, and the round step of ``syncmin``, which reads the per-arena
memo of ``plays.decide_round``, checked against the reference too.

Arenas are the single-face and sharing interfaces of small types.  The
sharing interface of a type with a ``cell`` argument is left out: its
protocol automaton takes minutes to build.  The round linearizer is also
checked on the interface of ``par4``, whose rounds of one request and its
four children are where refuting dead branches pays.

``may_linearize`` must never refuse a round that has an order, and where
every answer has one enabler it must refuse every round that has none;
``cell``'s write acknowledgement has two, so ``cell -> com`` and
``com -> cell`` are held to the first half only.
"""

import gc
import random
import weakref

import pytest

import gosyn.plays
from helpers import ProtocolAutomaton, ReferenceMonitor, chain, reference_linearize
from gosyn.arena import arena_of_type, sharing_arena
from gosyn.denote import interpret
from gosyn.netlist import synthesis_view
from gosyn.plays import (_ROUNDS, blame, check_play, check_sync_trace, decide, decide_round,
                         may_linearize)
from gosyn.syncmin import (_product_states, _round_step, minimize_under_protocol,
                           prune_inadmissible, round_abstract)
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
    """``check_play`` of every prefix, and the key ``decide`` folds to."""
    a = _arena(tyname, kind)
    rng = random.Random(f"{tyname}/{kind}")
    for _ in range(150):
        play = _walk(a, rng, rng.randrange(1, 16))
        names = [a.name(m) for m in play]
        key, ref = (), ReferenceMonitor(a)
        for n, m in enumerate(play, start=1):
            got, want = check_play(a, names[:n]), ref.step(m)
            if want is not None:
                v = got.violation
                assert not got.ok and (v.rule, v.index, v.move) == (*want, a.name(m))
                break
            key = decide(a, key, m)[0]
            assert key == ref.state_key()
            assert got.ok and got.pending == ref.pending_names()
            assert got.justifier == tuple(ref.justifier)


def _seen_at(a, key) -> set:
    """The moves a play that leaves ``key`` pending has surely seen: its
    pending requests and their enablers, as ``ReferenceMonitor.restored`` has."""
    return {x for m, _ in key for x in (m, *a.enablers_of(m))}


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_restored_monitor_matches_reference(tyname, kind):
    """From every reachable key, each move gives the reference's next key and
    justifier position, or its violation, named by ``blame``."""
    a = _arena(tyname, kind)
    for key in _reachable_keys(a):
        for m in a.moves:
            ref = ReferenceMonitor.restored(a, key)
            nxt, j, rule = decide(a, key, m)
            want = ref.step(m)
            if want is None:
                assert (nxt, None if j < 0 else j) == (ref.state_key(), ref.justifier[-1])
            else:
                assert nxt is None and rule is not None
                i, v = blame(a, key, [m], _seen_at(a, key))
                assert (i, v.rule, v.index) == (0, *want) and want[1] == len(key)


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


def _justifiers(key, steps) -> tuple:
    """The play position of each step's justifier, counting ``key``'s
    pending requests as the play's first moves."""
    at = list(range(len(key)))  # the play position of each pending request
    out = []
    for n, (m, j, nxt) in enumerate(steps, start=len(key)):
        out.append(at[j] if j >= 0 else None)
        if len(nxt) > len(at):
            at.append(n)
        else:
            del at[j]
    return tuple(out)


@pytest.mark.parametrize("tyname,kind", ARENAS + [(PAR4, "single")])
def test_decide_round_is_the_first_legal_permutation(tyname, kind):
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
        # the second ask reads the remembered answer
        for _ in range(2):
            steps = decide_round(a, key, moves)
            if want is None:
                assert steps is None
                continue
            assert [m for m, _, _ in steps] == want
            assert steps[-1][2] == ref.state_key()
            assert _justifiers(key, steps) == tuple(ref.justifier)


def test_par4_round_is_linearized_past_its_dead_branches():
    a = _arena(PAR4, "single")
    q1, a1, q2, a2 = (a.by_name(n) for n in ("q1", "a1", "q2", "a2"))
    key = ((q1, -1),) + tuple((a.by_name(f"q{k}"), 0) for k in range(2, 6))
    order = [m for m, _, _ in decide_round(a, key, a.moves)]
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


def _cut(rng: random.Random, play: list, longest: int) -> list:
    """``play`` cut into consecutive rounds of 1 to ``longest`` moves."""
    rounds = []
    while play:
        n = rng.randrange(1, longest + 1)
        rounds.append(play[:n])
        play = play[n:]
    return rounds


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_check_sync_trace_matches_check_play_on_one_move_rounds(tyname, kind):
    a = _arena(tyname, kind)
    rng = random.Random(f"sync1/{tyname}/{kind}")
    refused = 0
    for _ in range(150):
        names = [a.name(m) for m in _walk(a, rng, rng.randrange(1, 16))]
        ok, lin, v = check_sync_trace(a, [[n] for n in names])
        want = check_play(a, names)
        assert ok == want.ok
        if ok:
            assert lin == [[n] for n in names] and v is None
        else:
            w = want.violation
            assert (v.rule, v.index, v.move) == (w.rule, w.index, w.move)
            assert lin == [[n] for n in names[:w.index]]
            refused += 1
    assert refused


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_check_sync_trace_matches_reference_on_random_rounds(tyname, kind):
    """Each chosen order is a permutation of its round and steps the reference
    legally; a refused round has no legal order, and its violation is the
    reference's on the round stepped as given, at the accepted play's length
    plus the position ``blame`` names."""
    a = _arena(tyname, kind)
    rng = random.Random(f"sync/{tyname}/{kind}")
    verdicts = set()
    for _ in range(150):
        rounds = _cut(rng, [a.name(m) for m in _walk(a, rng, rng.randrange(1, 16))], 4)
        ok, lin, v = check_sync_trace(a, rounds)
        verdicts.add(ok)
        assert ok == (v is None)
        ref, seen = ReferenceMonitor(a), set()
        for names, order in zip(rounds, lin):
            assert sorted(order) == sorted(names)
            for n in order:
                assert ref.step(a.by_name(n)) is None
            seen.update(a.by_name(n) for n in names)
        if ok:
            assert len(lin) == len(rounds)
            continue
        accepted = sum(len(order) for order in lin)
        moves = [a.by_name(n) for n in rounds[len(lin)]]
        key = ref.state_key()
        assert reference_linearize(a, key, moves) is None
        i, _ = blame(a, key, moves, seen)
        assert v.index == accepted + i and v.move == a.name(moves[i])
        for m in moves[:i]:
            assert ref.step(m) is None
        assert ref.step(moves[i]) == (v.rule, v.index)
    assert verdicts == {True, False}


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


def _random_round(a, rng: random.Random, repeat: float) -> list:
    moves = rng.sample(a.moves, rng.randrange(1, min(6, len(a.moves)) + 1))
    if rng.random() < repeat:
        moves.append(rng.choice(moves))  # the same pulse listed twice
    return moves


@pytest.mark.parametrize("tyname,kind", ARENAS + [("com -> cell", "single")])
def test_may_linearize_refuses_only_rounds_without_an_order_with_repeats(tyname, kind):
    a = _arena(tyname, kind)
    rng = random.Random(f"repeat/{tyname}/{kind}")
    keys = _reachable_keys(a)
    refused = 0
    for _ in range(300):
        refused += _refused_rounds_have_no_order(a, rng.choice(keys), _random_round(a, rng, 0.5))
    assert refused


def _answers_have_one_enabler(tyname: str, kind: str) -> bool:
    a = _arena(tyname, kind)
    return all(len(a.enablers_of(m)) == 1 for m in a.moves if not a.is_question(m))


EXACT = [arena for arena in ARENAS + [(PAR4, "single")] if _answers_have_one_enabler(*arena)]


@pytest.mark.parametrize("tyname,kind", EXACT)
def test_may_linearize_is_exact_where_answers_have_one_enabler(tyname, kind):
    a = _arena(tyname, kind)
    rng = random.Random(f"exact/{tyname}/{kind}")
    keys = _reachable_keys(a)
    verdicts = []
    for _ in range(300):
        key, moves = rng.choice(keys), _random_round(a, rng, 0.2)
        want = reference_linearize(a, key, moves) is not None
        assert may_linearize(a, key, moves) == want, (key, [a.name(m) for m in moves])
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_only_cell_answers_have_two_enablers():
    assert [arena for arena in ARENAS if arena not in EXACT] == [("cell -> com", "single")]
    assert not _answers_have_one_enabler("com -> cell", "single")


def test_pruning_the_seq12_block_refutes_rounds_without_an_order(monkeypatch):
    """``plays.decide`` calls of ``prune_inadmissible`` on the minimized
    ``seq12`` block, the memo emptied; the count repeats exactly."""
    small = minimize_under_protocol(round_abstract(interpret(chain(12, ";"))))
    _ROUNDS.pop(small.arena, None)
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return decide(*args)

    monkeypatch.setattr(gosyn.plays, "decide", counting)
    prune_inadmissible(small)
    assert calls <= 12_000, calls


def _counting_decide(monkeypatch) -> list:
    calls = []

    def counting(*args):
        calls.append(None)
        return decide(*args)

    monkeypatch.setattr(gosyn.plays, "decide", counting)
    return calls


def test_minimizing_the_par5_block_offers_each_key_only_rows_it_may_take(monkeypatch):
    """``plays.decide`` calls of ``minimize_under_protocol`` on the ``par5``
    block (12,912 when every row was decided at every key and only whole
    rounds were remembered)."""
    raw = round_abstract(interpret(chain(5, "||")))
    _ROUNDS.pop(raw.arena, None)
    calls = _counting_decide(monkeypatch)
    assert minimize_under_protocol(raw).n_states == 5
    assert len(calls) <= 5_000, len(calls)


def test_synthesis_reads_the_rounds_minimizing_decided(monkeypatch):
    """``plays.decide`` calls of ``synthesis_view`` on the minimized ``seq5``
    block, right after minimizing it (230 when only whole rounds were
    remembered): its rounds lead through nodes the minimizer searched."""
    small = minimize_under_protocol(round_abstract(interpret(chain(5, ";"))))
    calls = _counting_decide(monkeypatch)
    synthesis_view(small)
    assert len(calls) <= 40, len(calls)


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
            answers = {y for x, y in a.enabling if x == m and not a.is_question(y)}
            others = [x for x in a.moves if x not in answers]
            moves = [m] + rng.sample(others, min(rng.randrange(0, 6), len(others)))
            rng.shuffle(moves)
            assert _refused_rounds_have_no_order(a, key, moves)
            tripped["b"] += 1
    assert tripped["a"] and tripped["b"], tripped


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_round_step_is_the_rank_sorted_linearization(tyname, kind, monkeypatch):
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
    memo = _ROUNDS[a]
    assert all((key, tuple(sorted(moves, key=a.rank.__getitem__))) in memo
               for key, moves in rounds)
    calls = _counting_decide(monkeypatch)
    assert [_round_step(a, key, moves) for key, moves in rounds] == want  # warm memo
    assert calls == []


@pytest.mark.parametrize("tyname,kind", ARENAS)
def test_a_shared_node_memo_answers_every_round_as_a_fresh_search(tyname, kind):
    """The memo keeps every node of every search, so a round decided after
    others reads nodes they left; in either order each answer must be the
    first legal permutation."""
    a = _arena(tyname, kind)
    rng = random.Random(f"nodes/{tyname}/{kind}")
    keys = _reachable_keys(a)
    rounds = [(rng.choice(keys), tuple(_random_round(a, rng, 0.1))) for _ in range(300)]
    want = {r: reference_linearize(a, *r) for r in rounds}
    assert None in want.values() and any(want.values())
    _ROUNDS.pop(a, None)
    for _ in range(2):
        rng.shuffle(rounds)
        for key, moves in rounds:
            steps = decide_round(a, key, moves)
            got = None if steps is None else [m for m, _, _ in steps]
            assert got == want[key, moves], (key, [a.name(m) for m in moves])


def test_round_step_memo_dies_with_its_arena():
    a = _arena("com -> com", "sharing")
    assert _round_step(a, (), frozenset([a.by_name("Q'1")])) is not None
    assert a in _ROUNDS
    alive = weakref.ref(a)
    del a
    gc.collect()
    assert alive() is None
