"""Legality of handshake traces over an arena.

A play is a sequence of moves.  The protocol restricts which sequences a
well-behaved device and environment may produce:

* Justification: a move other than an initial request needs some earlier
  occurrence of a move that enables it.
* Fork: at the moment a move happens, at least one of its enablers must be
  pending (asked and not yet answered).  A request whose justifying request
  has already completed cannot fire again under that occurrence.
* Serial: a request that is itself still pending may not be re-issued; the
  second activation has to wait for the first to answer.
* Wait: a request may only be answered once every request it justified has
  been answered.

Initial requests are the exception to Justification: they may (re)start a
session whenever they are not already pending.  Checking is deterministic
by resolving each move to its most recently opened pending enabler.

The protocol state is the pending forest, encoded as a key of (move, parent
position) pairs.  :func:`decide` is the one transition on it per move, and
:func:`decide_round` the one per round of simultaneous pulses.  It
remembers, per arena, the answer at every node of its search (a key and the
moves still to place, in order), which is exact because the first legal
order from a node depends on that node alone.  So
:func:`check_sync_trace`, the simulator and ``syncmin`` search a round once
however often it recurs, and rounds that share a suffix, or whose keys
converge, share the search of what they have in common.
:func:`check_play` and :func:`check_sync_trace` are folds of the two over a
play and a clocked trace.

A move is legal only if one of its enablers is pending, and a pending
enabler has been seen, so the set of moves seen so far never decides
legality.  :func:`blame` takes it only to name a refusal Justification (no
enabler ever seen) rather than Fork: its callers hold keys alone and pass
the moves of their earlier rounds.

A round has a legal order only if its moves nest: each request's answers
and openings alternate, and each of its pending intervals lies inside one
of its parent's.  :func:`may_linearize` checks that in one pass over the
round.  It never refuses a round that has an order, and where every answer
has one enabler it refuses every round that has none.  :func:`decide_round`
asks it from the first move the search sees refused.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .arena import Arena, Move


@dataclass(frozen=True)
class Violation:
    rule: str          # Justification | Fork | Serial | Wait
    index: int         # 0-based position in the play
    move: str          # port name
    message: str

    def __str__(self) -> str:
        return f"{self.rule} violation at move {self.index} ({self.move}): {self.message}"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violation: Optional[Violation] = None
    pending: tuple[str, ...] = ()
    justifier: tuple[Optional[int], ...] = ()

    @property
    def complete(self) -> bool:
        return self.ok and not self.pending


# A pending-forest key is the protocol state: the pending requests in
# opening order, each as (move, position of the request that justified it
# in the same tuple, or -1 for an initial request).
Key = tuple


def decide(arena: Arena, key: Key, m: Move) -> tuple[Optional[Key], int, Optional[str]]:
    """Apply the four rules to ``m`` on the pending forest ``key``.

    Returns ``(next key, j, None)`` when ``m`` is legal, where ``j`` is the
    position in ``key`` of the request that justifies it (-1 for an initial
    request), or ``(None, -1, rule)`` naming the rule that refuses it.  The
    rule "Fork" stands for "no enabler is pending"; telling Justification
    apart needs the moves seen, which :func:`blame` takes.
    """
    enablers = arena.enablers_of(m)
    if not enablers:  # initial request
        for e, _ in key:
            if e == m:
                return None, -1, "Serial"
        return key + ((m, -1),), -1, None
    j = len(key) - 1
    while j >= 0 and key[j][0] not in enablers:
        j -= 1
    if j < 0:
        return None, -1, "Fork"
    if arena.is_question(m):
        for e, _ in key:
            if e == m:
                return None, -1, "Serial"
        return key + ((m, j),), j, None
    tail = key[j + 1:]  # children are opened after their parent
    for _, p in tail:
        if p == j:
            return None, -1, "Wait"
    return key[:j] + tuple((e, p - 1 if p > j else p) for e, p in tail), j, None


_MESSAGES = {
    "Justification": "no earlier request enables it",
    "Fork": "every request that enables it has already completed",
    "Serial": "that request is still pending; re-issuing it must wait",
    "Wait": "the request it answers still has pending sub-requests",
}


def blame(arena: Arena, key: Key, moves: Sequence[Move], seen) -> tuple[int, Violation]:
    """Where a round with no legal order breaks when stepped as given from ``key``.

    ``seen`` holds the moves played before ``key``.  Returns the index in
    ``moves`` of the first refused move and its violation, whose index
    counts from ``key``'s pending requests: ``len(key)`` plus the index in
    ``moves``, so a caller that knows the play's length adds that length
    less ``len(key)``.
    """
    seen = set(seen)
    at = key
    for i, m in enumerate(moves):
        at, _, rule = decide(arena, at, m)
        if at is None:
            if rule == "Fork" and arena.enablers_of(m).isdisjoint(seen):
                rule = "Justification"
            return i, Violation(rule, len(key) + i, arena.name(m), _MESSAGES[rule])
        seen.add(m)
    raise ValueError("the round is legal in the given order")


def check_play(arena: Arena, play: Sequence[str]) -> Verdict:
    """Check a whole play given as port names: a fold of :func:`decide`.

    Each move's justifier is the play position of the pending request
    :func:`decide` resolves it to, and a refusal is named by :func:`blame`
    from the moves played before it.
    """
    key: Key = ()
    played: list[Move] = []
    at: list[int] = []   # the play position of each pending request
    justifier: list[Optional[int]] = []
    for n, name in enumerate(play):
        m = arena.by_name(name)
        nxt, j, _ = decide(arena, key, m)
        if nxt is None:
            v = blame(arena, key, (m,), played)[1]
            return Verdict(False, violation=Violation(v.rule, n, v.move, v.message))
        played.append(m)
        justifier.append(at[j] if j >= 0 else None)
        if len(nxt) > len(key):
            at.append(n)
        else:
            del at[j]
        key = nxt
    return Verdict(True, pending=tuple(arena.name(m) for m, _ in key),
                   justifier=tuple(justifier))


def may_linearize(arena: Arena, key: Key, moves: Sequence[Move]) -> bool:
    """Whether some order of ``moves`` may be legal from ``key``: a nesting check.

    By Serial a request is pending at most once, so in a legal order its
    moves alternate answer and opening, starting with an answer when it is
    pending in ``key``.  Its answers thus number its openings plus one if it
    is pending, or one fewer, and the difference says whether it is pending
    after the round.  By Fork and Wait each pending interval of a request
    lies inside one interval of its parent, an enabler.  So a request opened
    in the round needs an enabler pending in ``key`` or opened in the round,
    one still pending after the round needs an enabler still pending after
    it, and a request pending in ``key`` whose parent the round answers must
    itself be answered (Hyland & Ong's pointers, as brackets).

    False means no order exists.  Where every answer has one enabler, True
    means one does: the intervals then nest, and walking them depth first
    is a legal order.  An answer with several enablers (``cell``'s write
    acknowledgement) closes whichever was opened last, so the requests it
    may close are only checked not to be answered more often than opened.
    """
    is_question, enablers_of = arena.is_question, arena.enablers_of
    opens: dict[Move, int] = {}
    answers: dict[Move, int] = {}   # of the answers with one enabler, per enabler
    several: list[frozenset] = []   # the enablers of each other answer
    for m in moves:
        if is_question(m):
            opens[m] = opens.get(m, 0) + 1
        else:
            enablers = enablers_of(m)
            if len(enablers) == 1:
                q, = enablers
                answers[q] = answers.get(q, 0) + 1
            else:
                several.append(enablers)
    pending = {e for e, _ in key}
    live = pending.union(opens)  # pending at some time of the round
    loose: set[Move] = set()     # requests an answer with several enablers may close
    for enablers in several:
        if live.isdisjoint(enablers):
            return False
        loose |= enablers
    after: set[Move] = set()     # pending after the round
    for q in live.union(answers):
        end = (q in pending) + opens.get(q, 0) - answers.get(q, 0)
        if end < 0 or end > 1 and q not in loose:
            return False
        if end:
            after.add(q)
    for c in opens:
        enablers = enablers_of(c)
        if enablers and (live.isdisjoint(enablers) or c in after and c not in loose
                         and after.isdisjoint(enablers) and loose.isdisjoint(enablers)):
            return False
    for c, p in key:
        if p >= 0 and c not in answers and c not in loose:
            parent = key[p][0]
            if parent in answers and parent not in loose:
                return False
    return True


class _NoOrder(Exception):
    """Unwinds the round search once :func:`may_linearize` refuses the round."""


# arena -> {(key, moves): steps or None}, for every round decided and every
# node of its search.  An answer depends on nothing else, so every caller
# shares it, and it lives only as long as its arena.
_ROUNDS: "weakref.WeakKeyDictionary[Arena, dict]" = weakref.WeakKeyDictionary()


def decide_round(arena: Arena, key: Key, moves: Iterable[Move]) -> Optional[tuple[tuple, ...]]:
    """:func:`decide` lifted to a round of simultaneous pulses.

    Returns the first legal order of ``moves`` from ``key``, in
    ``itertools.permutations`` order, as the (move, j, next key) steps
    :func:`decide` takes along it, or None; answers are remembered per arena.

    Legality depends only on the pending forest, so the search runs over
    nodes (key, moves still to place, in the given order), and the first
    legal order from a node depends on that node alone: it tries the moves
    left in their order, each followed by the first legal order from the
    node it leads to.  So every node's answer, an order or None, is
    remembered in the same per-arena table as whole rounds, and a round
    whose rows share a suffix with an earlier one, or whose keys converge
    on one already searched, reads the answer instead of searching again.

    The first time :func:`decide` refuses a move, the whole round is put to
    :func:`may_linearize`, and a refusal ends the search.  From the first
    dead end on, met or read from the table, every node is put to it
    before it is expanded.  Only subtrees holding no legal order are cut,
    so the order found is unchanged.  Where the check is exact, a round
    with no order costs one check, and after its first dead end the search
    enters no subtree that holds no order.  A round whose first choices all
    succeed never pays for the check.
    """
    moves = tuple(moves)
    memo = _ROUNDS.setdefault(arena, {})
    if (key, moves) in memo:
        return memo[key, moves]
    refused = False  # whether decide has refused a move of this round yet
    stuck = False    # whether the search has met a dead end yet

    def search(at: Key, rest: tuple) -> Optional[tuple[tuple, ...]]:
        nonlocal refused, stuck
        if not rest:
            return ()
        node = (at, rest)
        if node in memo:
            got = memo[node]
            stuck = stuck or got is None
            return got
        got = None
        if not stuck or may_linearize(arena, at, rest):
            for k, m in enumerate(rest):
                nxt, j, _ = decide(arena, at, m)
                if nxt is not None:
                    tail = search(nxt, rest[:k] + rest[k + 1:])
                    if tail is not None:
                        got = ((m, j, nxt),) + tail
                        break
                elif not refused:
                    if not may_linearize(arena, key, moves):
                        raise _NoOrder
                    refused = True
        memo[node] = got
        stuck = stuck or got is None
        return got

    try:
        return search(key, moves)
    except _NoOrder:
        memo[key, moves] = None
        return None
    finally:
        del search  # break the closure's reference cycle


def check_sync_trace(arena: Arena, rounds: Sequence[Sequence[str]]) -> tuple[bool, list[list[str]], Optional[Violation]]:
    """Legality of a clocked trace, each round a set of same-cycle pulses: a
    fold of :func:`decide_round`.

    A trace is legal when every round admits some linear order extending the
    play so far.  Returns (ok, chosen linearization per round, violation).
    The reported violation pins the first round with no legal order, and
    :func:`blame` names the first move refused when it is stepped as given.
    """
    key: Key = ()
    lin: list[list[str]] = []
    seen: set[Move] = set()
    consumed = 0
    for r in rounds:
        moves = [arena.by_name(n) for n in r]
        steps = decide_round(arena, key, moves)
        if steps is None:
            i, v = blame(arena, key, moves, seen)
            return False, lin, Violation(v.rule, consumed + i, v.move, v.message)
        lin.append([arena.name(m) for m, _, _ in steps])
        if steps:
            seen.update(moves)
            consumed += len(steps)
            key = steps[-1][2]
    return True, lin, None


# Only the benchmark's tracer (perfbench/tracer.py) reads these names, where
# ``syncmin`` and ``sim`` import them; ROADMAP item 11 drops them.
linearize_round = restore_monitor = decide_round
