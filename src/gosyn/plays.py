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
:func:`decide_round` the one per round of simultaneous pulses; it remembers
its answers per arena, so the monitor, the simulator and ``syncmin`` search
a round once however often it recurs.  A move is legal only if one of its
enablers is pending, and a pending enabler has been seen, so the set of
moves seen so far never decides legality; the monitor derives it from its
log of rounds only to name a refusal Justification (no enabler ever seen)
rather than Fork.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .arena import Arena, Move


class LimitExceeded(Exception):
    """Raised when an enumeration grows past its explicit bound."""


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
    apart needs the seen set, which only :class:`PlayMonitor` keeps.
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


class PlayMonitor:
    """Incremental legality checker; one instance tracks one interface.

    ``PlayMonitor(arena, key)`` restores one at a ``state_key()``: its play is
    the pending requests alone, whose enablers count as seen.
    """

    def __init__(self, arena: Arena, key: Key = ()):
        self.arena = arena
        self._start: Key = tuple(key)
        self._key: Key = self._start
        self._rounds: list[Sequence[tuple]] = []   # the steps of each round played, in order
        self._known = frozenset(x for m, _ in self._start for x in (m, *arena.enablers_of(m)))
        self._length = len(self._start)
        self.failure: Optional[Violation] = None

    # -- queries

    def pending(self) -> tuple[Move, ...]:
        return tuple(m for m, _ in self._key)

    def pending_names(self) -> tuple[str, ...]:
        # of a list, not a generator: see the note in sim.simulate
        return tuple([self.arena.name(m) for m, _ in self._key])

    def complete(self) -> bool:
        return self.failure is None and not self._key

    def state_key(self) -> Key:
        """The pending forest as (move, parent position) pairs."""
        return self._key

    def justifiers(self) -> tuple[Optional[int], ...]:
        """Per move played, the play position of its justifier (None if initial)."""
        return tuple(self._replay()[0])

    def would_accept(self, m: Move) -> bool:
        return decide(self.arena, self._key, m)[0] is not None

    def legal_moves(self) -> tuple[Move, ...]:
        return tuple(m for m in self.arena.moves if self.would_accept(m))

    def probe(self) -> "PlayMonitor":
        """A fresh monitor at this one's state, for trying moves without harm.

        It refuses the same moves under the same rules, but as a restored
        monitor it reports positions counted from the pending requests."""
        mon = PlayMonitor(self.arena, self._key)
        mon._known |= self._replay()[1]
        return mon

    def blame(self, moves: Sequence[Move]) -> tuple[int, Violation]:
        """Where a round with no legal order breaks when stepped as given.

        Returns the index in ``moves`` of the first refused move and the
        violation a :meth:`probe` reports for it.
        """
        probe = self.probe()
        for i, m in enumerate(moves):
            v = probe.step(m)
            if v is not None:
                return i, v
        raise ValueError("the round is legal in the given order")

    def _replay(self) -> tuple[list[Optional[int]], set[Move]]:
        """The justifier position of each move played, and every move seen,
        derived from the logged rounds when asked."""
        at = list(range(len(self._start)))   # play position of each pending request
        justifiers: list[Optional[int]] = []
        seen = set(self._known)
        size = length = len(self._start)
        for steps in self._rounds:
            for m, j, nxt in steps:
                seen.add(m)
                justifiers.append(at[j] if j >= 0 else None)
                if len(nxt) > size:
                    at.append(length)
                else:
                    del at[j]
                size = len(nxt)
                length += 1
        return justifiers, seen

    # -- stepping

    def step(self, m: Move) -> Optional[Violation]:
        """Feed one move; returns the violation if it is illegal.

        After a violation the monitor is poisoned and refuses further moves.
        """
        if self.failure is not None:
            raise RuntimeError("monitor already failed; create a fresh one")
        nxt, j, rule = decide(self.arena, self._key, m)
        if nxt is None:
            if rule == "Fork" and not (self.arena.enablers_of(m) & self._replay()[1]):
                rule = "Justification"
            name = self.arena.name(m)
            self.failure = Violation(rule, self._length, name, _MESSAGES[rule].format(name=name))
            return self.failure
        self.take(((m, j, nxt),))
        return None

    def take(self, steps: Sequence[tuple]) -> None:
        """Play one round: the (move, j, next key) steps :func:`decide_round`
        returned at this monitor's key.  The steps are only logged, so a
        round costs the same however long the play has grown."""
        if self.failure is not None:
            raise RuntimeError("monitor already failed; create a fresh one")
        if steps:
            self._rounds.append(steps)
            self._key = steps[-1][2]
            self._length += len(steps)

    def step_name(self, name: str) -> Optional[Violation]:
        return self.step(self.arena.by_name(name))


_MESSAGES = {
    "Justification": "no earlier request enables it",
    "Fork": "every request that enables it has already completed",
    "Serial": "that request is still pending; re-issuing it must wait",
    "Wait": "the request it answers still has pending sub-requests",
}


def check_play(arena: Arena, play: Sequence[str]) -> Verdict:
    """Check a whole play given as port names."""
    moves = [arena.by_name(n) for n in play]
    mon = PlayMonitor(arena)
    for m in moves:
        v = mon.step(m)
        if v is not None:
            return Verdict(False, violation=v)
    return Verdict(True, pending=mon.pending_names(), justifier=mon.justifiers())


class ProtocolAutomaton:
    """Deterministic automaton of legal plays over an arena.

    States encode the forest of pending requests; the empty forest is both
    the start state and the only state where a session may (re)start, so the
    transition structure is re-entrant by construction.
    """

    def __init__(self, arena: Arena):
        self.arena = arena
        key0: tuple = ()
        self._keys: list[tuple] = [key0]
        index = {key0: 0}
        self.transitions: dict[int, dict[Move, int]] = {}
        frontier = [key0]
        while frontier:
            key = frontier.pop()
            src = index[key]
            row: dict[Move, int] = {}
            for m in arena.moves:
                nk = decide(arena, key, m)[0]
                if nk is not None:
                    if nk not in index:
                        index[nk] = len(self._keys)
                        self._keys.append(nk)
                        frontier.append(nk)
                    row[m] = index[nk]
            self.transitions[src] = row
        self.initial = 0

    @property
    def n_states(self) -> int:
        return len(self._keys)

    def pending_at(self, state: int) -> tuple[Move, ...]:
        return tuple(m for m, _ in self._keys[state])

    def is_quiet(self, state: int) -> bool:
        """True when nothing is pending (a complete position)."""
        return not self._keys[state]

    def step(self, state: int, m: Move) -> Optional[int]:
        return self.transitions[state].get(m)

    def accepts(self, play: Sequence[str]) -> bool:
        s = self.initial
        for name in play:
            s = self.transitions[s].get(self.arena.by_name(name))
            if s is None:
                return False
        return True

    def session_language(self, max_len: int) -> set[tuple[str, ...]]:
        """All legal plays up to ``max_len`` with each initial fired at most once."""
        out: set[tuple[str, ...]] = set()

        def go(state: int, used: frozenset[Move], prefix: tuple[str, ...]) -> None:
            out.add(prefix)
            if len(prefix) == max_len:
                return
            for m, dst in self.transitions[state].items():
                if m in self.arena.initials and m in used:
                    continue
                go(dst, used | ({m} if m in self.arena.initials else frozenset()),
                   prefix + (self.arena.name(m),))

        go(self.initial, frozenset(), ())
        return out


restore_monitor = PlayMonitor  # the older name; perfbench/tracer.py counts its calls


def enumerate_plays(arena: Arena, max_len: int, reentrant: bool = False,
                    complete_only: bool = False, limit: int = 500_000) -> list[tuple[str, ...]]:
    """Brute-force enumeration of legal plays, the reference for everything else.

    Replays every prefix through a fresh :class:`PlayMonitor`, so it does not
    depend on :class:`ProtocolAutomaton`'s state numbering (both apply
    :func:`decide`).  By default a play is single-session: each initial
    request fires at most once.
    """
    results: list[tuple[str, ...]] = []

    def go(play: list[Move], used_initials: frozenset[Move]) -> None:
        if len(results) > limit:
            raise LimitExceeded(f"more than {limit} plays of length <= {max_len}")
        mon = PlayMonitor(arena)
        for m in play:
            assert mon.step(m) is None
        if not complete_only or mon.complete():
            results.append(tuple(arena.name(m) for m in play))
        if len(play) == max_len:
            return
        for m in arena.moves:
            if not reentrant and m in arena.initials and m in used_initials:
                continue
            if mon.would_accept(m):
                go(play + [m], used_initials | ({m} if m in arena.initials else frozenset()))

    go([], frozenset())
    return sorted(results, key=lambda p: (len(p), p))


def may_linearize(arena: Arena, key: Key, moves: Sequence[Move]) -> bool:
    """Necessary conditions for some order of ``moves`` to be legal from ``key``.

    (a) Every non-initial move has an enabler pending in ``key`` or in the
    round, since only those can be pending when it fires.  (c) A request
    pending in ``key`` is *stuck* when none of its answers is in the round,
    and so is every ancestor of a stuck request, since by Wait it cannot be
    answered before its children; a stuck request stays pending all round.
    So every answer in the round needs an enabler that is pending and not
    stuck, or in the round, and a request of the round must not be pending
    and stuck, since re-issuing it must wait until it is answered.  False
    means no order exists; True decides nothing.
    """
    present = set(moves)
    stuck = [not any(not arena.is_question(b) for b in arena.enabled_by(e) & present)
             for e, _ in key]
    for j in range(len(key) - 1, -1, -1):  # children sit after their parents
        if stuck[j] and key[j][1] >= 0:
            stuck[key[j][1]] = True
    pending = {e for e, _ in key}
    live = {e for (e, _), s in zip(key, stuck) if not s}
    for m in moves:
        enablers = arena.enablers_of(m)
        if arena.is_question(m):
            if m in pending and m not in live:
                return False
            if enablers and not (enablers & pending or enablers & present):
                return False
        elif not (enablers & live or enablers & present):
            return False
    return True


class _NoOrder(Exception):
    """Unwinds the round search once :func:`may_linearize` refuses the round."""


# arena -> {(key, round moves): steps or None}.  An answer depends on nothing
# else, so every caller shares it, and it lives only as long as its arena.
_ROUNDS: "weakref.WeakKeyDictionary[Arena, dict]" = weakref.WeakKeyDictionary()


def decide_round(arena: Arena, key: Key, moves: Iterable[Move]) -> Optional[tuple[tuple, ...]]:
    """:func:`decide` lifted to a round of simultaneous pulses.

    Returns the first legal order of ``moves`` from ``key``, in
    ``itertools.permutations`` order, as the (move, j, next key) steps
    :func:`decide` takes along it, or None; answers are remembered per arena.

    Legality depends only on the pending forest, so the search runs over
    (key, moves still to place) and remembers the pairs that fail; a
    success ends the search, so only failures need remembering.  At the
    first dead end the whole round is put to :func:`may_linearize`, and a
    refusal ends the search; from then on every node is put to it too, and
    a refused node is remembered as failed without being expanded.  Only
    subtrees holding no legal order are cut, so the order found is
    unchanged.  The checks wait for a dead end so that a round whose first
    choices succeed, as those of the simulated demos do, never pays for
    them.
    """
    moves = tuple(moves)
    memo = _ROUNDS.setdefault(arena, {})
    if (key, moves) in memo:
        return memo[key, moves]
    failed: set[tuple[Key, int]] = set()

    def search(at: Key, rest: int) -> Optional[list[tuple]]:
        # ``rest`` has bit i set while moves[i] is still to be placed
        if not rest:
            return []
        if (at, rest) in failed:
            return None
        if failed and not may_linearize(
                arena, at, [m for i, m in enumerate(moves) if rest >> i & 1]):
            failed.add((at, rest))
            return None
        for i, m in enumerate(moves):
            if rest >> i & 1:
                nxt, j, _ = decide(arena, at, m)
                if nxt is not None:
                    tail = search(nxt, rest & ~(1 << i))
                    if tail is not None:
                        return [(m, j, nxt)] + tail
        if not failed and not may_linearize(arena, key, moves):
            raise _NoOrder
        failed.add((at, rest))
        return None

    try:
        steps = search(key, (1 << len(moves)) - 1)
    except _NoOrder:
        steps = None
    del search  # break the closure's reference cycle
    memo[key, moves] = got = None if steps is None else tuple(steps)
    return got


def linearize_round(arena: Arena, mon: PlayMonitor, round_moves: Iterable[Move]) -> Optional[list[Move]]:
    """Find an order of simultaneous pulses legal after ``mon``'s history.

    Returns the order of :func:`decide_round` and advances the monitor along
    its steps, or None (monitor untouched).
    """
    steps = decide_round(arena, mon.state_key(), round_moves)
    if steps is None:
        return None
    mon.take(steps)
    return [m for m, _, _ in steps]


def check_sync_trace(arena: Arena, rounds: Sequence[Sequence[str]]) -> tuple[bool, list[list[str]], Optional[Violation]]:
    """Legality of a clocked trace: each round is a set of same-cycle pulses.

    A trace is legal when every round admits some linear order extending the
    play so far.  Returns (ok, chosen linearization per round, violation).
    The reported violation pins the first round with no legal order, blaming
    the move that fails last in the deterministic order.
    """
    mon = PlayMonitor(arena)
    lin: list[list[str]] = []
    consumed = 0
    for r in rounds:
        moves = [arena.by_name(n) for n in r]
        order = linearize_round(arena, mon, moves)
        if order is None:
            i, v = mon.blame(moves)
            return False, lin, Violation(v.rule, consumed + i, v.move, v.message)
        lin.append([arena.name(m) for m in order])
        consumed += len(order)
    return True, lin, None
