"""Clocking and state reduction for strategy automata.

:func:`round_abstract` turns an asynchronous strategy automaton into a
synchronous Mealy-style machine.  One clocked round consumes a *set* of
input pulses, fires every enabled output in the same cycle, and keeps
consuming presented inputs that become enabled mid-cycle (an output can
combinationally trigger the environment's next pulse).  A round is defined
for an input set only when every firing order consumes all of it and lands
on the same outputs and state.  Input sets whose outcome depends on arrival
order (a storage cell pulsed with a read and a write at once) are not
presentable as one round and stay undefined; disagreement between output
orders under a fixed arrival order raises :class:`NonConfluent`.  If a port
would have to pulse twice in one cycle the round is split and the leftover
work runs in follow-on rounds with empty input (the machine is then
"restless" in between).

Two reducers follow:

* :func:`minimize` merges states with identical completed behavior, reading
  an undefined entry as "hold" (no outputs, stay put);
* :func:`minimize_under_protocol` additionally treats input sets that the
  interface protocol cannot present as free choices, which is what lets a
  strictly sequential machine collapse into plain wires.

:func:`equivalent_under_protocol` replays both machines side by side over
every protocol-admissible round, which is the safety net for the reducers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .arena import Arena, Move
from .automata import StrategyAutomaton
from .plays import decide_round
from .plays import linearize_round, restore_monitor  # noqa: F401 (perfbench/tracer.py wraps these)


class NonConfluent(Exception):
    """Different firing orders of one round disagree on its outcome."""


@dataclass(frozen=True)
class RoundDiff:
    """First disagreement found by :func:`equivalent_under_protocol`."""
    depth: int
    state_pair: tuple[int, int]
    inputs: tuple[str, ...]
    expected: tuple[str, ...]
    actual: Optional[tuple[str, ...]]
    note: str

    def __str__(self) -> str:
        got = "no transition" if self.actual is None else f"{{{', '.join(self.actual)}}}"
        return (f"round {self.depth} from states {self.state_pair}: on inputs "
                f"{{{', '.join(self.inputs)}}} expected {{{', '.join(self.expected)}}}, got {got}"
                + (f" ({self.note})" if self.note else ""))


@dataclass(frozen=True)
class Equivalence:
    equivalent: bool
    rounds_checked: int
    diff: Optional[RoundDiff] = None


class SyncMachine:
    """Clocked machine: per state, input pulse set -> (output pulse set, next)."""

    def __init__(self, arena: Arena,
                 transitions: dict[int, dict[frozenset, tuple[frozenset, int]]],
                 initial: int = 0):
        self.arena = arena
        self.initial = initial
        self.transitions = transitions
        for s, row in transitions.items():
            for i, (o, d) in row.items():
                if d not in transitions:
                    raise ValueError(f"round target {d} missing from state table")
                for m in i:
                    if not arena.is_input(m):
                        raise ValueError(f"{arena.name(m)} is not an input")
                for m in o:
                    if arena.is_input(m):
                        raise ValueError(f"{arena.name(m)} is not an output")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def step(self, s: int, inputs: frozenset) -> Optional[tuple[frozenset, int]]:
        return self.transitions[s].get(frozenset(inputs))

    def names(self, moves: Iterable[Move]) -> tuple[str, ...]:
        return tuple(sorted(self.arena.name(m) for m in moves))

    def describe(self) -> str:
        lines = []
        for s in sorted(self.transitions):
            for i, (o, d) in sorted(self.transitions[s].items(),
                                    key=lambda kv: (len(kv[0]), self.names(kv[0]))):
                lines.append(f"  s{s} --{{{','.join(self.names(i))}}}/"
                             f"{{{','.join(self.names(o))}}}--> s{d}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"SyncMachine({self.n_states} states)"


def _cascade(auto: StrategyAutomaton, start: int, inputs: frozenset,
             input_order: bool = False):
    """All maximal same-cycle runs from ``start`` with ``inputs`` presented.

    Returns the set of outcomes (emitted, landing state, leftover, blocked),
    where ``blocked`` marks a run cut short because a port would pulse
    twice, and the set of nodes (state, leftover, emitted) the runs visit.
    With ``input_order`` the presented inputs are consumed in a fixed order
    (outputs still interleave freely), which isolates genuine output-order
    ambiguity from mere input-arrival ambiguity.
    """
    outcomes: set[tuple[frozenset, int, frozenset, bool]] = set()
    seen: set[tuple[int, frozenset, frozenset]] = set()

    def go(s: int, remaining: frozenset, emitted: frozenset) -> None:
        key = (s, remaining, emitted)
        if key in seen:
            return
        seen.add(key)
        progressed = False
        blocked = False
        for o in auto.outputs_from(s):
            if o in emitted:
                blocked = True
                continue
            progressed = True
            go(auto.step(s, o), remaining, emitted | {o})
        takeable = [i for i in remaining if auto.step(s, i) is not None]
        if input_order and takeable:
            takeable = [min(takeable, key=auto.arena.rank.__getitem__)]
        for i in takeable:
            progressed = True
            go(auto.step(s, i), remaining - {i}, emitted)
        if not progressed:
            outcomes.add((emitted, s, remaining, blocked))

    go(start, inputs, frozenset())
    del go  # a recursive closure is a reference cycle: unbind it so the sets die with their users
    return outcomes, seen


def round_abstract(auto: StrategyAutomaton) -> SyncMachine:
    """Synchronous view of an asynchronous automaton.

    States are the quiescent (no output pending) automaton states reachable
    by whole rounds, plus restless split points.  Per state, one cascade
    with every input presented proposes the sets to try: the inputs consumed
    at each of its nodes where every enabled output has been emitted.  A run
    that consumes a set in full ends at such a node of that cascade, so a
    set not proposed cannot be consumed in one round and its entry stays
    undefined.  Sets are tried by size, then in ``arena.rank`` order, so
    rows and state numbers are those of trying every input subset in turn.
    """
    if auto.outputs_from(auto.initial):
        raise ValueError("initial state must be quiescent")
    every = frozenset(m for m in auto.arena.moves if auto.arena.is_input(m))
    rank = auto.arena.rank.__getitem__

    index: dict[int, int] = {auto.initial: 0}
    order = [auto.initial]
    table: dict[int, dict[frozenset, tuple[frozenset, int]]] = {}
    k = 0
    while k < len(order):
        s = order[k]
        _, seen = _cascade(auto, s, every)
        proposed = {every - left for t, left, emitted in seen
                    if left != every and emitted.issuperset(auto.outputs_from(t))}
        tried = sorted(proposed, key=lambda i: (len(i), sorted(map(rank, i))))
        if auto.outputs_from(s):
            tried.insert(0, frozenset())  # restless: the leftover runs on empty input
        row: dict[frozenset, tuple[frozenset, int]] = {}
        for inputs in tried:
            outs, _ = _cascade(auto, s, inputs)
            complete = {(e, t) for e, t, left, blocked in outs if not left and not blocked}
            if len(complete) > 1:
                # Input-arrival order alone may not decide a round: such a
                # set is simply not presentable as one round and the entry
                # stays undefined.  Ambiguity among output orders for a fixed
                # arrival order is a real error.
                ordered, _ = _cascade(auto, s, inputs, input_order=True)
                ocomplete = {(e, t) for e, t, left, blocked in ordered
                             if not left and not blocked}
                if len(ocomplete) <= 1:
                    continue
                det = "; ".join(
                    f"outputs {{{','.join(sorted(auto.arena.name(m) for m in e))}}} -> state {t}"
                    for e, t in sorted(complete, key=str))
                raise NonConfluent(
                    f"round {{{','.join(sorted(auto.arena.name(m) for m in inputs))}}} from "
                    f"state {s} has {len(complete)} outcomes: {det}")
            if complete:
                (emitted, target), = complete
            else:
                # a port would pulse twice: split the round, if that is
                # unambiguous, and let the leftover run on empty input
                split = {(e, t) for e, t, left, blocked in outs if not left and blocked}
                if len(split) != 1 or any(left for _, _, left, _ in outs):
                    continue  # not realizable in one cycle; leave undefined
                (emitted, target), = split
            if target not in index:
                index[target] = len(order)
                order.append(target)
            row[inputs] = (emitted, index[target])
        table[index[s]] = row
        k += 1
    return SyncMachine(auto.arena, table, 0)


# ----------------------------------------------------------- plain reducer

def minimize(m: SyncMachine) -> SyncMachine:
    """Merge states indistinguishable when undefined entries mean "hold"."""
    states = sorted(m.transitions)
    cls = {s: 0 for s in states}
    while True:
        sigs: dict[tuple, int] = {}
        nxt: dict[int, int] = {}
        for s in states:
            rowsig = []
            for i in sorted(m.transitions[s], key=lambda i: (len(i), m.names(i))):
                o, d = m.transitions[s][i]
                if not o and cls[d] == cls[s]:
                    continue  # an explicit hold entry is the same as none
                rowsig.append((m.names(i), m.names(o), cls[d]))
            sig = (cls[s], tuple(rowsig))
            nxt[s] = sigs.setdefault(sig, len(sigs))
        if nxt == cls:
            break
        cls = nxt

    reps: dict[int, int] = {}
    for s in states:
        reps.setdefault(cls[s], s)
    renum = {c: i for i, c in enumerate(sorted(
        reps, key=lambda c: (c != cls[m.initial], c)))}
    table: dict[int, dict[frozenset, tuple[frozenset, int]]] = {renum[c]: {} for c in reps}
    for c, s in reps.items():
        row = table[renum[c]]
        for i, (o, d) in m.transitions[s].items():
            if not o and cls[d] == cls[s]:
                continue
            row[i] = (o, renum[cls[d]])
    return SyncMachine(m.arena, table, renum[cls[m.initial]])


# ----------------------------------------- protocol-aware (ISFSM) reducer

def _round_step(arena: Arena, key: tuple, moves: frozenset) -> Optional[tuple]:
    """The pending-forest key after the round ``moves`` from ``key``, or None.

    :func:`plays.decide_round` decides the round in ``arena.rank`` order, so
    the key it leaves does not depend on set iteration order, and remembers
    it: a round decided while minimizing a block is not decided again when
    its netlist prunes the minimized machine.
    """
    steps = decide_round(arena, key, sorted(moves, key=arena.rank.__getitem__))
    if steps is None:
        return None
    return steps[-1][2] if steps else key


def _product_states(m: SyncMachine):
    """Reachable (machine state, protocol forest) pairs with admissible rounds.

    Breadth-first over ``m.transitions`` order from ``(m.initial, ())``.  A
    round is admissible from a pair when :func:`_round_step` finds it a legal
    order; the pair it leads to carries the key of that canonical order.
    Returns the rows of the product (input set -> (outputs, product state))
    and the index of each (machine state, key) pair.
    """
    start = (m.initial, ())
    index = {start: 0}
    order = [start]
    rows: list[dict[frozenset, tuple[frozenset, int]]] = []
    k = 0
    while k < len(order):
        s, key = order[k]
        row: dict[frozenset, tuple[frozenset, int]] = {}
        for i, (o, d) in m.transitions[s].items():
            after = _round_step(m.arena, key, i | o)
            if after is None:
                continue
            nxt = (d, after)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row[i] = (o, index[nxt])
        rows.append(row)
        k += 1
    return rows, index


def _compatibility(rows) -> list[set[int]]:
    n = len(rows)
    incompat: set[tuple[int, int]] = set()
    changed = True
    # seed: same defined input set, different outputs
    for p, q in combinations(range(n), 2):
        for i in set(rows[p]) & set(rows[q]):
            if rows[p][i][0] != rows[q][i][0]:
                incompat.add((p, q))
                break
    while changed:
        changed = False
        for p, q in combinations(range(n), 2):
            if (p, q) in incompat:
                continue
            for i in set(rows[p]) & set(rows[q]):
                dp, dq = rows[p][i][1], rows[q][i][1]
                a, b = min(dp, dq), max(dp, dq)
                if a != b and (a, b) in incompat:
                    incompat.add((p, q))
                    changed = True
                    break
    compat = [set() for _ in range(n)]
    for p in range(n):
        for q in range(n):
            if p != q and (min(p, q), max(p, q)) not in incompat:
                compat[p].add(q)
    return compat


def _maximal_compatibles(compat: list[set[int]]) -> list[frozenset[int]]:
    n = len(compat)
    out: list[frozenset[int]] = []

    def bron(r: set, p: set, x: set) -> None:
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(compat[v] & p)) if (p | x) else None
        for v in list(p - (compat[pivot] if pivot is not None else set())):
            bron(r | {v}, p & compat[v], x & compat[v])
            p.remove(v)
            x.add(v)

    bron(set(), set(range(n)), set())
    del bron  # break the closure's reference cycle
    return out


def _cover_pool(compat: list[set[int]]) -> list[frozenset[int]]:
    """Cover candidates: the maximal compatibles plus every singleton,
    largest first, ties broken by member list."""
    pool = _maximal_compatibles(compat)
    pool.extend(frozenset([v]) for v in range(len(compat)))
    pool = list(dict.fromkeys(pool))
    pool.sort(key=lambda c: (-len(c), sorted(c)))
    return pool


def _incompatible_clique(compat: list[set[int]]) -> frozenset[int]:
    """A largest set of pairwise-incompatible states.

    No compatible holds two of them, so every cover needs at least this
    many classes.  Branch and bound over the incompatibility graph, with
    the states still addable as the bound.
    """
    n = len(compat)
    apart = [set(range(n)) - compat[v] - {v} for v in range(n)]
    best = frozenset()

    def grow(clique: frozenset, cands: set) -> None:
        nonlocal best
        if not cands:
            if len(clique) > len(best):
                best = clique
            return
        for v in sorted(cands, key=lambda v: len(apart[v] & cands)):
            if len(clique) + len(cands) <= len(best):
                return
            grow(clique | {v}, cands & apart[v])
            cands = cands - {v}

    grow(frozenset(), set(range(n)))
    del grow  # break the closure's reference cycle
    return best


def _closed_cover(rows, pool: list[frozenset[int]], compat: list[set[int]], exact: bool):
    """Pick a set of compatibles from ``pool`` covering all states, closed
    under round successors.  Exact search below a size threshold, greedy
    beyond.

    ``pool`` holds the maximal compatibles and the singletons, not every
    prime compatible, so "exact" means a smallest closed cover drawn from
    this pool; a cover using a non-maximal class outside it may be smaller.
    The exact search deepens from the size of a largest set of
    pairwise-incompatible states, not from 1: no smaller cover exists, and
    the search at each size does not depend on the sizes tried before it,
    so the first cover found is the same as when deepening from 1.  The
    successor sets a class implies are computed once per class, in the row
    order of its members, so the search does not depend on the hash seed.
    """
    n = len(rows)
    implied_by: dict[frozenset[int], list[frozenset[int]]] = {}

    def implied(c: frozenset[int]) -> list[frozenset[int]]:
        got = implied_by.get(c)
        if got is None:
            need = {}
            for i in dict.fromkeys(i for p in sorted(c) for i in rows[p]):
                need[i] = frozenset(rows[p][i][1] for p in c if i in rows[p])
            got = implied_by[c] = [t for t in need.values() if t]
        return got

    def closure_ok(chosen: list[frozenset[int]]) -> Optional[frozenset[int]]:
        for c in chosen:
            for t in implied(c):
                if not any(t <= c2 for c2 in chosen):
                    return t
        return None

    if exact:
        clique = _incompatible_clique(compat)
        for size in range(len(clique), len(pool) + 1):
            found = _exact_cover(rows, pool, size, implied, clique, compat)
            if found is not None:
                return found
    # greedy: cover by size, then patch closure
    chosen: list[frozenset[int]] = []
    uncovered = set(range(n))
    while uncovered:
        best = max(pool, key=lambda c: len(c & uncovered))
        chosen.append(best)
        uncovered -= best
    while True:
        missing = closure_ok(chosen)
        if missing is None:
            return chosen
        grow = [c for c in pool if missing <= c]
        chosen.append(grow[0] if grow else missing)


def _exact_cover(rows, pool, size, implied, clique: frozenset[int], compat: list[set[int]]):
    """First closed cover of at most ``size`` classes in depth-first order.

    A node is cut when its uncovered ``clique`` members, which each need a
    class of their own, cannot fit in the classes left.  At zero slack,
    when they exactly fill the classes left, every class still to choose
    holds one of them, so a node is cut too when some uncovered state or
    pending closure target lies in no pool set that meets them.  Targets
    are compatibles and the pool holds every maximal compatible, so a pool
    set holds member ``u`` and target ``t`` exactly when ``t - {u}`` lies
    in ``compat[u]``.  Such subtrees hold no cover, so the order in which
    covers are found is unchanged.
    """
    n = len(rows)

    def search(chosen: list, need_cover: set, need_close: list) -> Optional[list]:
        left = clique & need_cover
        if len(chosen) + len(left) > size:
            return None
        pending = [t for t in need_close if not any(t <= c for c in chosen)]
        if not need_cover and not pending:
            return list(chosen)
        if len(chosen) == size:
            return None
        if len(chosen) + len(left) == size:
            needs = [frozenset([v]) for v in need_cover] + pending
            if not all(any(t - {u} <= compat[u] for u in left) for t in needs):
                return None
        if pending:
            target = pending[0]
            cands = [c for c in pool if target <= c]
        else:
            v = min(need_cover)
            cands = [c for c in pool if v in c]
        for c in cands:
            if c in chosen:
                continue
            # first occurrences keep their order, so pending[0] is unchanged
            nxt_close = list(dict.fromkeys(need_close + implied(c)))
            got = search(chosen + [c], need_cover - c, nxt_close)
            if got is not None:
                return got
        return None

    found = search([], set(range(n)), [])
    del search  # break the closure's reference cycle
    return found


# Product sizes up to which the cover search is exact; greedy above.
EXACT_LIMIT = 64


def minimize_under_protocol(m: SyncMachine) -> SyncMachine:
    """Reduce using protocol-impossible rounds as don't-cares.

    The machine is paired with the legality monitor of its own interface, so
    entries that no legal environment can exercise from a state simply drop
    out.  The product is walked by :func:`_product_states`: each round is
    linearized in the arena's canonical move order, so the product does not
    depend on ``PYTHONHASHSEED``, and ``plays`` remembers its answers per
    arena for the netlist's pruning pass and for
    :func:`equivalent_under_protocol`.  States are then merged by a
    compatible-cover construction (cover candidates are the maximal
    compatibles and the singletons; search for a smallest cover over them
    up to 64 product states, ``EXACT_LIMIT``, greedy above).  The exact
    search starts at the size of a largest set of pairwise-incompatible
    states, a lower bound on every cover, and picks the same cover as a
    search deepening from one class.
    """
    rows, index = _product_states(m)
    if len(rows) == 1 and not rows[0]:
        return SyncMachine(m.arena, {0: {}}, 0)
    compat = _compatibility(rows)
    pool = _cover_pool(compat)
    chosen = _closed_cover(rows, pool, compat, exact=len(rows) <= EXACT_LIMIT)

    # deterministic class list, initial's class first
    chosen = sorted(set(chosen), key=lambda c: sorted(c))
    init_cls = next(i for i, c in enumerate(chosen) if 0 in c)

    def class_of(targets: frozenset[int]) -> int:
        for i, c in enumerate(chosen):
            if targets <= c:
                return i
        raise AssertionError("cover is not closed")

    table: dict[int, dict[frozenset, tuple[frozenset, int]]] = {i: {} for i in range(len(chosen))}
    for ci, c in enumerate(chosen):
        row = table[ci]
        for i in sorted({i for p in c for i in rows[p]}, key=lambda i: (len(i), m.names(i))):
            outs = {rows[p][i][0] for p in c if i in rows[p]}
            assert len(outs) == 1, "cover members disagree on outputs"
            tgt = frozenset(rows[p][i][1] for p in c if i in rows[p])
            row[i] = (next(iter(outs)), class_of(tgt))

    # renumber with the initial class as 0
    perm = {init_cls: 0}
    for i in range(len(chosen)):
        if i != init_cls:
            perm[i] = len(perm)
    out = {perm[s]: {i: (o, perm[d]) for i, (o, d) in row.items()}
           for s, row in table.items()}
    return SyncMachine(m.arena, out, 0)


def prune_inadmissible(m: SyncMachine) -> SyncMachine:
    """Drop rounds that no legal environment can produce, keep states as-is.

    A round survives if its moves linearize legally in at least one reachable
    protocol context of its state.  Netlist emission runs this first: the
    dropped entries become don't-cares, which is what lets support reduction
    cut the false combinational paths that order-conflated rounds would
    otherwise create (an answer pulse deciding the routing of a request that
    causally preceded it).

    The contexts are those of :func:`_product_states`, whose rounds are
    linearized in the arena's canonical move order and remembered per arena
    by ``plays``, so pruning a machine that :func:`minimize_under_protocol`
    produced mostly reads rounds already decided.
    """
    rows, index = _product_states(m)
    keep = {(s, i) for (s, _), p in index.items() for i in rows[p]}
    reach = {s for s, _ in index}

    # renumber over reachable states, initial first
    order = [m.initial] + sorted(reach - {m.initial})
    perm = {s: k for k, s in enumerate(order)}
    table = {perm[s]: {i: (o, perm[d]) for i, (o, d) in m.transitions[s].items()
                       if (s, i) in keep}
             for s in order}
    return SyncMachine(m.arena, table, 0)


# ------------------------------------------------------------- equivalence

def equivalent_under_protocol(ref: SyncMachine, other: SyncMachine,
                              max_rounds: int) -> Equivalence:
    """Does ``other`` reproduce every protocol-admissible round of ``ref``?

    Joint breadth-first run of both machines against the interface monitor.
    Admissibility is judged on the reference's round (inputs plus its
    outputs), stepped by :func:`_round_step` in the canonical order the
    reducers use.  ``other`` may define extra rounds; those are don't-cares.
    """
    if ref.arena.port_names() != other.arena.port_names():
        raise ValueError("machines talk over different interfaces")
    start = (ref.initial, other.initial, ())
    seen = {start}
    frontier = [start]
    checked = 0
    for depth in range(max_rounds):
        nxt = []
        for s1, s2, key in frontier:
            for i, (o1, d1) in sorted(ref.transitions[s1].items(),
                                      key=lambda kv: (len(kv[0]), ref.names(kv[0]))):
                after = _round_step(ref.arena, key, i | o1)
                if after is None:
                    continue
                checked += 1
                got = other.transitions[s2].get(i)
                if got is None or got[0] != o1:
                    return Equivalence(False, checked, RoundDiff(
                        depth, (s1, s2), ref.names(i), ref.names(o1),
                        None if got is None else ref.names(got[0]),
                        "" if got is None else "outputs differ"))
                state = (d1, got[1], after)
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
            # no spontaneous rounds the reference does not have
            spont = other.transitions[s2].get(frozenset())
            if spont is not None and spont[0] and frozenset() not in ref.transitions[s1]:
                return Equivalence(False, checked, RoundDiff(
                    depth, (s1, s2), (), (), ref.names(spont[0]),
                    "spontaneous outputs with no inputs"))
        frontier = nxt
        if not frontier:
            break
    return Equivalence(True, checked)
