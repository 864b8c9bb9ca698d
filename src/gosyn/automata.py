"""Asynchronous strategy automata and their composition.

A :class:`StrategyAutomaton` is a finite automaton over the moves of an
arena.  Transitions on O-moves consume an input pulse, transitions on
P-moves produce an output pulse.  At every state there is at most one
transition per move (label determinism); several distinct output moves may
be enabled at once, which is how independent sub-requests interleave.

Composition synchronizes a flipped face of one automaton with a matching
face of another: a linked output/input pair becomes an internal event, and
the internal events are then hidden by a subset construction.  Hiding can
expose divergence (an internal loop that never offers an external event
again); that is reported rather than silently producing a stuck machine.

State 0 is the initial state of every machine, here and in the clocked
machines built from these, and state ids are ``0 .. n - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Optional

from .arena import Arena, Move
from .plays import decide


class DivergenceDetected(Exception):
    """The hidden interaction can run forever without an external event."""

    def __init__(self, message: str, cycle: tuple[str, ...] = ()):
        super().__init__(message)
        self.cycle = cycle


class CompositionStall(Exception):
    """One side offers an internal pulse its partner cannot accept."""


def explore(start: Hashable, row_of: Callable) -> tuple[list, dict]:
    """Number the states reachable from ``start`` in breadth-first discovery order.

    ``row_of(state, number)`` builds ``state``'s row and calls
    ``number(successor)`` for each successor's id; a state is numbered when
    first asked for.  Returns the rows in id order and the id of each state.
    """
    index = {start: 0}
    order = [start]

    def number(state) -> int:
        got = index.get(state)
        if got is None:
            got = index[state] = len(order)
            order.append(state)
        return got

    rows = [row_of(state, number) for state in order]  # ``order`` grows as it is read
    return rows, index


class StrategyAutomaton:
    def __init__(self, arena: Arena, transitions: dict[int, dict[Move, int]]):
        self.arena = arena
        self.transitions = transitions
        self._check()

    def _check(self) -> None:
        moveset = set(self.arena.moves)
        for s, row in self.transitions.items():
            for m, d in row.items():
                if m not in moveset:
                    raise ValueError(f"transition on unknown move {m!r}")
                if d not in self.transitions and d != 0:
                    # target must at least exist as a (possibly empty) row
                    raise ValueError(f"transition {s} --{self.arena.name(m)}--> {d}: no such state")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def step(self, s: int, m: Move) -> Optional[int]:
        return self.transitions[s].get(m)

    def outputs_from(self, s: int) -> tuple[Move, ...]:
        """The output moves of ``s``'s row, in row order."""
        return self._outputs[s]

    @cached_property
    def _outputs(self) -> dict[int, tuple[Move, ...]]:
        # built once, on first use: the round cascade asks at every node
        return {s: tuple(m for m in row if not self.arena.is_input(m))
                for s, row in self.transitions.items()}

    def remapped(self, arena: Arena, move_map: dict[Move, Move]) -> "StrategyAutomaton":
        """Same states and structure, moves renamed into another arena."""
        trans = {
            s: {move_map[m]: d for m, d in row.items()}
            for s, row in self.transitions.items()
        }
        return StrategyAutomaton(arena, trans)

    def trimmed(self) -> "StrategyAutomaton":
        """Canonical renumbering: :func:`explore` from state 0,
        successors numbered in ``arena.moves`` order, rows kept in their order."""
        def row_of(s, number):
            row = self.transitions.get(s, {})
            ids = {m: number(row[m]) for m in self.arena.moves if m in row}
            return {m: ids[m] for m in row}

        rows, _ = explore(0, row_of)
        return StrategyAutomaton(self.arena, dict(enumerate(rows)))

    def __repr__(self) -> str:
        return f"StrategyAutomaton({self.arena!r}, {self.n_states} states)"


def from_rows(arena: Arena, rows: dict[int, dict[str, int]]) -> StrategyAutomaton:
    """Build an automaton from port names; handy for the fixed constants."""
    trans = {
        s: {arena.by_name(n): d for n, d in row.items()}
        for s, row in rows.items()
    }
    return StrategyAutomaton(arena, trans)


def relay(arena: Arena, twins: dict[Move, Move]) -> StrategyAutomaton:
    """Forwarder: each received move is echoed as its twin on the other face.

    ``twins`` is a bidirectional map between complementary moves.  States are
    (pending-forest key, optional pending echo), built on demand by
    :func:`~gosyn.plays.decide` from the empty key, so the relay never offers
    a transition outside the legal plays of its own interface and visits only
    the protocol states its echoes reach.  :func:`explore` numbers them in
    breadth-first discovery order over ``arena.moves``.
    """
    for a, b in twins.items():
        if arena.polarity(a) == arena.polarity(b):
            raise ValueError(f"twins must be complementary: {arena.name(a)}/{arena.name(b)}")

    def row_of(state, number):
        key, carry = state
        if carry is not None:
            key2 = decide(arena, key, carry)[0]
            if key2 is None:
                raise AssertionError(
                    f"echo {arena.name(carry)} illegal where its twin was legal")
            return {carry: number((key2, None))}
        row: dict[Move, int] = {}
        for m in arena.moves:
            if not arena.is_input(m) or m not in twins:
                continue
            key2 = decide(arena, key, m)[0]
            if key2 is not None:
                row[m] = number((key2, twins[m]))
        return row

    rows, _ = explore(((), None), row_of)
    return StrategyAutomaton(arena, dict(enumerate(rows)))


@dataclass
class SyncStats:
    """What happened while gluing two automata."""
    product_states: int
    hidden_events: int
    stalls: tuple[str, ...] = ()


def synchronize_and_hide(
    a: StrategyAutomaton,
    b: StrategyAutomaton,
    link: dict[Move, Move],
    out_arena: Arena,
    relabel_a: dict[Move, Move],
    relabel_b: dict[Move, Move],
) -> tuple[StrategyAutomaton, SyncStats]:
    """Connect ``a``'s moves to ``b``'s per ``link``, hide them, relabel the rest.

    The product of the two automata and the hidden automaton are both
    walked by :func:`explore`.

    Raises :class:`DivergenceDetected` when a reachable hidden loop offers no
    external event.  Stalls (one side pulsing a linked move the other cannot
    take) are recorded in the stats; they cannot arise between components
    that respect the shared face's protocol.
    """
    linked_a = set(link)
    linked_b = set(link.values())
    back = {v: k for k, v in link.items()}
    if len(back) != len(link):
        raise ValueError("link must be a bijection")

    stalls: list[str] = []

    def product_row(state, number) -> tuple[list[tuple[int, Move]], dict[Move, int]]:
        """The internal (hidden) edges and the external row of a product state."""
        sa, sb = state
        taus: list[tuple[int, Move]] = []
        row: dict[Move, int] = {}
        for ma, da in a.transitions[sa].items():
            if ma in linked_a:
                db = b.transitions[sb].get(link[ma])
                if db is None:
                    if not a.arena.is_input(ma):
                        stalls.append(f"{a.arena.name(ma)} has no taker")
                    continue
                taus.append((number((da, db)), ma))
            else:
                row[relabel_a[ma]] = number((da, sb))
        for mb, db in b.transitions[sb].items():
            if mb in linked_b:
                # the pair itself is handled from a's side; only note a stall
                if not b.arena.is_input(mb) and back[mb] not in a.transitions[sa]:
                    stalls.append(f"{b.arena.name(mb)} has no taker")
                continue
            row[relabel_b[mb]] = number((sa, db))
        return taus, row

    product, _ = explore((0, 0), product_row)
    tau, ext = zip(*product)
    _check_divergence(tau, ext, a)

    # hide: subset construction over external labels, numbered breadth-first
    # over ``out_arena.moves`` as :meth:`StrategyAutomaton.trimmed` numbers
    def closure(states: frozenset) -> frozenset:
        acc = set(states)
        work = list(states)
        while work:
            s = work.pop()
            for nxt, _ in tau[s]:
                if nxt not in acc:
                    acc.add(nxt)
                    work.append(nxt)
        return frozenset(acc)

    def row_of(cur: frozenset, number) -> dict[Move, int]:
        labels: dict[Move, set] = {}
        for s in cur:
            for m, nxt in ext[s].items():
                labels.setdefault(m, set()).add(nxt)
        return {m: number(closure(frozenset(labels[m]))) for m in out_arena.moves if m in labels}

    rows, _ = explore(closure(frozenset({0})), row_of)
    hidden = sum(len(v) for v in tau)
    out = StrategyAutomaton(out_arena, dict(enumerate(rows)))
    return out, SyncStats(len(product), hidden, tuple(stalls))


def _check_divergence(tau, ext, a: StrategyAutomaton) -> None:
    # a state escapes if it offers an external event now or after some taus
    escapes = [bool(row) for row in ext]
    changed = True
    while changed:
        changed = False
        for s, taus in enumerate(tau):
            if not escapes[s] and any(escapes[n] for n, _ in taus):
                escapes[s] = True
                changed = True
    for s, taus in enumerate(tau):
        if not escapes[s] and taus:
            cycle = []
            cur = s
            seen = {}
            while cur not in seen:
                seen[cur] = len(cycle)
                nxt, via = tau[cur][0]
                cycle.append(a.arena.name(via))
                cur = nxt
            raise DivergenceDetected(
                "hidden interaction loops forever without any external event "
                f"(internal cycle through {', '.join(cycle[seen[cur]:])})",
                tuple(cycle[seen[cur]:]),
            )


def glue_pair(
    a: StrategyAutomaton,
    b: StrategyAutomaton,
    out_arena: Arena,
    relabel_a: dict[Move, Move],
    relabel_b: dict[Move, Move],
) -> StrategyAutomaton:
    """Disjoint union of two automata sharing the idle state.

    Each non-idle state is tagged with its side, the idle state of both is
    ``0``, and :meth:`StrategyAutomaton.trimmed` numbers the union.  Sound
    when at most one component is ever active: every consumer of a tuple
    drives its components strictly one at a time, so the glued machine
    serializes exactly like its environment does.
    """
    trans: dict[Hashable, dict[Move, Hashable]] = {}
    for side, m, relabel in ((0, a, relabel_a), (1, b, relabel_b)):
        tag: dict[int, Hashable] = {s: (side, s) for s in m.transitions}
        tag[0] = 0
        for s, row in m.transitions.items():
            dst = trans.setdefault(tag[s], {})
            for mv, d in row.items():
                mm = relabel[mv]
                if dst.setdefault(mm, tag[d]) != tag[d]:
                    raise ValueError(f"pair components clash on {out_arena.name(mm)} at the idle state")
    return StrategyAutomaton(out_arena, trans).trimmed()
