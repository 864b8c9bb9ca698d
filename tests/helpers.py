"""Shared test utilities.

Two generators and a testbench driver used across the suite:

- ``random_term`` builds closed well-typed programs (affine by construction:
  applications split the available identifiers, pair components share them).
- ``to_source`` prints a term back to concrete syntax, fully parenthesized.
- ``chain`` writes the one-line ``seqN`` and ``parN`` programs.
- ``grow_stimulus`` drives a compiled design or a clocked machine
  adaptively, one legal boundary input per cycle, by replaying the observed
  trace to its pending-forest key and sampling the inputs ``decide`` takes
  there.

``ReferenceMonitor`` is the protocol monitor written as a forest of linked
pending-request objects, kept apart from the library's key-based one so the
two can be checked against each other.  ``reference_closed_cover`` is the
exact closed-cover search with no bounds, against which the library's
bounded one is checked.  ``reference_round_abstract`` tries every input
subset at every state, against which the library's cascade-proposed round
sets are checked.  ``expr_eval`` walks a netlist expression tree, against
which the library's compiled cones are checked.  ``reference_netlist_of``
writes every cone as one minterm per round, against which the library's
prime-cube cones are checked, and ``care_sets`` finds the input sets each
state's next state is cared for on by trying every input subset at every
protocol context.
``reference_prune_inadmissible`` is the depth-first pruning walk, against
which the library's breadth-first product walk is checked.
``reference_synthesis_view`` prunes first and drops race rows second, the
order that ``synthesis_view`` used before it dropped races first; the
library's view is checked to equal it.  ``SHARED_TYPES`` lists the types
whose duplicators and call managers are pinned.
``reference_preview`` picks a machine unit's row by scanning every row of
its state, against which the simulator's name tables are checked.
``parse_json`` and ``from_dict`` read back what ``gosyn.serialize`` writes;
no library code reads JSON.
``reference_arena`` builds an arena's tables by four separate walks over
each face's type, with ``reference_sharing_names`` for the duplicator's
ports, against which the library's one walk (``arena.type_ports``) is
checked through ``arena_tables``.
``reference_relay`` builds a forwarder over the
whole protocol automaton of its arena, against which the library's on-demand
relay is checked.  ``compose_oracle`` walks the interleavings of two glued
automata string by string, against which ``synchronize_and_hide`` is
checked, and ``contraction`` merges two faces of a denotation through the
duplicator, against which sharing in the source is checked.
``ProtocolAutomaton`` (the eager automaton of legal plays, with its
``session_language``), ``enumerate_plays``, ``language`` (the traces of a
strategy automaton) and ``LimitExceeded`` are enumeration oracles no
library code calls.
"""

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from gosyn.arena import Arena, Face, Move, arena_of_type, term_arena
from gosyn.automata import StrategyAutomaton, synchronize_and_hide
from gosyn.denote import diagonal
from gosyn.netlist import (EAnd, EConst, ENot, EOr, EVar, Expr, NetModule, _reduced_support,
                           eand, eor, synthesis_view)
from gosyn.plays import decide, decide_round
from gosyn.sim import SimReport, simulate
from gosyn.syncmin import (NonConfluent, SyncMachine, _cascade, _product_states,
                           prune_inadmissible)
from gosyn.syntax import (
    App, Arrow, Cell, Com, Const, Exp, Fst, Lam, Pair, Prod, Snd, Term, Var,
    parse_type, type_to_str,
)
from gosyn.typecheck import typecheck

COM = Com()
EXP = Exp()
CELL = Cell()

SHARED_TYPES = (
    "com", "exp", "cell", "com -> com", "exp -> com", "com -> exp", "exp -> exp",
    "com -> com -> com", "(com -> com) -> com", "(exp -> com) -> com", "exp -> exp -> exp",
    "cell -> com", "com * com", "com * exp", "exp * exp", "com * com * com",
    "com -> cell", "cell * exp", "cell * cell",
)


# ----------------------------------------------------------- source printing

def chain(n: int, op: str) -> str:
    """``fn c0 : com -> ... c0 op ... op c{n-1}``: ``seqN`` for ``;``, ``parN`` for ``||``."""
    params = " ".join(f"fn c{i} : com ->" for i in range(n))
    return f"{params} " + f" {op} ".join(f"c{i}" for i in range(n))


def to_source(t: Term) -> str:
    """Concrete syntax for a term; parses back to the same tree.

    Combinators print in surface form (``;``, ``||``, ``:=``, ``!``,
    ``new .. in``, ``if/then/else``) because their bare names are keywords
    or would re-parse differently.
    """
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Lam):
        return f"(fn {t.name} : {type_to_str(t.ty)} -> {to_source(t.body)})"
    if isinstance(t, Pair):
        return f"<{to_source(t.left)}, {to_source(t.right)}>"
    if isinstance(t, Fst):
        return f"fst {to_source(t.arg)}"
    if isinstance(t, Snd):
        return f"snd {to_source(t.arg)}"
    if isinstance(t, App):
        fn, arg = t.fn, t.arg
        if isinstance(fn, Const) and isinstance(arg, Pair):
            a, b = to_source(arg.left), to_source(arg.right)
            if fn.name == "seq":
                return f"({a} ; {b})"
            if fn.name == "while":
                return f"(while {a} do {b})"
            if fn.name == "asg":
                return f"({a} := {b})"
            if fn.name in ("and", "or", "xor", "eq"):
                return f"({a} {fn.name} {b})"
            if fn.name == "if" and isinstance(arg.left, Pair):
                e = to_source(arg.left.left)
                c1 = to_source(arg.left.right)
                return f"(if {e} then {c1} else {b})"
        if isinstance(fn, Const) and fn.name == "not":
            return f"(not {to_source(arg)})"
        if isinstance(fn, Const) and fn.name == "der":
            return f"(! {to_source(arg)})"
        if (isinstance(fn, Const) and fn.name == "newvar"
                and isinstance(arg, Lam)):
            return f"(new {arg.name} in {to_source(arg.body)})"
        if isinstance(fn, App) and fn.fn == Const("par"):
            return f"({to_source(fn.arg)} || {to_source(arg)})"
        return f"({to_source(fn)} {to_source(arg)})"
    raise TypeError(f"not a term: {t!r}")


# ----------------------------------------------------------- random programs

_BINDER_TYPES = (COM, EXP, Arrow(COM, COM), Arrow(EXP, EXP))


def _split(rng: random.Random, env: tuple) -> tuple[tuple, tuple]:
    """Random disjoint partition, for the two sides of an application."""
    left, right = [], []
    for entry in env:
        (left if rng.random() < 0.5 else right).append(entry)
    return tuple(left), tuple(right)


def random_term(rng: random.Random, ty, env: tuple = (), depth: int = 3) -> Term:
    """A well-typed term of type ``ty``, each ``env`` identifier used affinely."""
    if isinstance(ty, Arrow):
        name = f"v{rng.randrange(10_000)}"
        while any(n == name for n, _ in env):
            name = f"v{rng.randrange(10_000)}"
        return Lam(name, ty.arg, random_term(rng, ty.res, env + ((name, ty.arg),), depth))
    if isinstance(ty, Prod):
        # components may share, so no split here
        return Pair(random_term(rng, ty.left, env, depth - 1),
                    random_term(rng, ty.right, env, depth - 1))

    here = [n for n, t in env if t == ty]
    if ty == CELL:
        return Var(rng.choice(here))

    def atom() -> Term:
        if here and rng.random() < 0.6:
            return Var(rng.choice(here))
        return Const("skip") if ty == COM else Const(rng.choice("10"))

    if depth <= 0 or rng.random() < 0.25:
        return atom()

    fns = [n for n, t in env if isinstance(t, Arrow) and t.res == ty]
    cells = [n for n, t in env if t == CELL]

    def call() -> Term:
        name = rng.choice(fns)
        rest = tuple(e for e in env if e[0] != name)
        fty = dict(env)[name]
        return App(Var(name), random_term(rng, fty.arg, rest, depth - 1))

    if ty == COM:
        options = ["seq", "par", "if", "newvar"]
        if cells:
            options.append("asg")
        if fns:
            options += ["call", "call"]
        pick = rng.choice(options)
        if pick == "call":
            return call()
        if pick == "seq":
            return App(Const("seq"), Pair(random_term(rng, COM, env, depth - 1),
                                          random_term(rng, COM, env, depth - 1)))
        if pick == "par":
            lenv, renv = _split(rng, env)
            return App(App(Const("par"), random_term(rng, COM, lenv, depth - 1)),
                       random_term(rng, COM, renv, depth - 1))
        if pick == "if":
            return App(Const("if"),
                       Pair(Pair(random_term(rng, EXP, env, depth - 1),
                                 random_term(rng, COM, env, depth - 1)),
                            random_term(rng, COM, env, depth - 1)))
        if pick == "asg":
            return App(Const("asg"), Pair(Var(rng.choice(cells)),
                                          random_term(rng, EXP, env, depth - 1)))
        cname = f"c{rng.randrange(10_000)}"
        while any(n == cname for n, _ in env):
            cname = f"c{rng.randrange(10_000)}"
        return App(Const("newvar"),
                   Lam(cname, CELL,
                       random_term(rng, COM, env + ((cname, CELL),), depth - 1)))

    # ty == EXP
    options = ["binop", "not"]
    if cells:
        options.append("der")
    if fns:
        options += ["call", "call"]
    pick = rng.choice(options)
    if pick == "call":
        return call()
    if pick == "der":
        return App(Const("der"), Var(rng.choice(cells)))
    if pick == "not":
        return App(Const("not"), random_term(rng, EXP, env, depth - 1))
    op = rng.choice(("and", "or", "xor", "eq"))
    return App(Const(op), Pair(random_term(rng, EXP, env, depth - 1),
                               random_term(rng, EXP, env, depth - 1)))


RESULT_TYPES = (COM, EXP, Arrow(COM, COM), Arrow(EXP, EXP),
                Arrow(Arrow(COM, COM), COM), Arrow(COM, Arrow(COM, COM)))


def random_program(rng: random.Random, ty=None, depth: int = 3,
                   max_ports: int = 14) -> str:
    """Source text of a random closed program with a small boundary."""
    while True:
        want = ty if ty is not None else rng.choice(RESULT_TYPES)
        term = random_term(rng, want, (), depth)
        typed = typecheck(term)
        if len(term_arena(typed.ty, typed.ctx).moves) <= max_ports:
            return to_source(term)


# ------------------------------------------------------ enumeration oracles

class LimitExceeded(Exception):
    """Raised when an enumeration grows past its explicit bound."""


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


def enumerate_plays(arena: Arena, max_len: int, reentrant: bool = False,
                    complete_only: bool = False, limit: int = 500_000) -> list[tuple[str, ...]]:
    """Brute-force enumeration of legal plays, the reference for everything else.

    Carries each prefix's pending-forest key down the recursion, so it does
    not depend on :class:`ProtocolAutomaton`'s state numbering (both apply
    :func:`decide`).  By default a play is single-session: each initial
    request fires at most once.
    """
    results: list[tuple[str, ...]] = []

    def go(play: list[Move], key: tuple, used_initials: frozenset[Move]) -> None:
        if len(results) > limit:
            raise LimitExceeded(f"more than {limit} plays of length <= {max_len}")
        if not complete_only or not key:
            results.append(tuple(arena.name(m) for m in play))
        if len(play) == max_len:
            return
        for m in arena.moves:
            if not reentrant and m in arena.initials and m in used_initials:
                continue
            nxt = decide(arena, key, m)[0]
            if nxt is not None:
                go(play + [m], nxt, used_initials | ({m} if m in arena.initials else frozenset()))

    go([], (), frozenset())
    return sorted(results, key=lambda p: (len(p), p))


def language(auto: StrategyAutomaton, max_len: int, limit: int = 500_000) -> set[tuple[str, ...]]:
    """All name-level traces of ``auto`` up to ``max_len``, every output order explored."""
    out: set[tuple[str, ...]] = set()

    def go(s: int, prefix: tuple[str, ...]) -> None:
        if len(out) > limit:
            raise LimitExceeded(f"automaton language blew past {limit} traces")
        out.add(prefix)
        if len(prefix) == max_len:
            return
        for m, d in auto.transitions[s].items():
            go(d, prefix + (auto.arena.name(m),))

    go(0, ())
    return out


# ------------------------------------------------------- composition oracle

def compose_oracle(a: StrategyAutomaton, b: StrategyAutomaton, link: dict,
                   relabel_a: dict, relabel_b: dict, out_arena: Arena,
                   max_len: int) -> set:
    """External-trace language of the interaction, computed string by string.

    Walks interleavings of the two automata directly, never building the
    hidden product automaton, so it cross-checks ``synchronize_and_hide``
    by an independent route.  Capped at traces of length 16.
    """
    if max_len > 16:
        raise LimitExceeded("the interaction oracle is capped at traces of length 16")
    linked_a = set(link)
    linked_b = set(link.values())
    out: set = set()
    seen: set = set()

    def go(sa: int, sb: int, prefix: tuple) -> None:
        key = (sa, sb, prefix)
        if key in seen:
            return
        seen.add(key)
        out.add(prefix)
        for ma, da in a.transitions[sa].items():
            if ma in linked_a:
                db = b.transitions[sb].get(link[ma])
                if db is not None:
                    go(da, db, prefix)
            elif len(prefix) < max_len:
                go(da, sb, prefix + (out_arena.name(relabel_a[ma]),))
        for mb, db in b.transitions[sb].items():
            if mb in linked_b:
                continue
            if len(prefix) < max_len:
                go(sa, db, prefix + (out_arena.name(relabel_b[mb]),))

    go(0, 0, ())
    return out


def apply_oracle(fn: StrategyAutomaton, arg: StrategyAutomaton,
                 out_ctx: tuple, max_len: int) -> set:
    """Language of an application, walked string by string.

    Builds the same link and relabelings an application builds, then lets
    :func:`compose_oracle` explore interleavings directly instead of going
    through the product-and-hide construction.
    """
    fty = fn.arena.face("ret").ty
    assert isinstance(fty, Arrow)
    keys = [(m.path, m.token) for m in arena_of_type(fty.arg).moves]
    link = {Move("ret", (0,) + p, tok): Move("ret", p, tok) for p, tok in keys}
    out = term_arena(fty.res, out_ctx)
    relabel_a = {}
    for m in fn.arena.moves:
        if m.face == "ret":
            if m.path[0] == 1:
                relabel_a[m] = Move("ret", m.path[1:], m.token)
        else:
            relabel_a[m] = m
    relabel_b = {m: m for m in arg.arena.moves if m.face != "ret"}
    return compose_oracle(fn, arg, link, relabel_a, relabel_b, out, max_len)


def contraction(m: StrategyAutomaton, first: str, second: str, merged: str,
                out_ctx: tuple) -> StrategyAutomaton:
    """Merge two same-typed faces through the serializing duplicator.

    The face named ``first`` (the earlier syntactic use) is wired to client
    face 2 and ``second`` to client face 1; the shared face is re-exported
    under ``merged``.
    """
    ty = m.arena.face(first).ty
    assert m.arena.face(second).ty == ty
    diag = diagonal(ty)
    link = {}
    for x in arena_of_type(ty).moves:
        link[Move(first, x.path, x.token)] = Move("p2", x.path, x.token)
        link[Move(second, x.path, x.token)] = Move("p1", x.path, x.token)
    out = term_arena(m.arena.face("ret").ty, out_ctx)
    relabel_a = {mm: mm for mm in m.arena.moves if mm.face not in (first, second)}
    relabel_b = {
        mm: Move(merged, mm.path, mm.token)
        for mm in diag.arena.moves if mm.face == "p0"
    }
    auto, stats = synchronize_and_hide(m, diag, link, out, relabel_a, relabel_b)
    assert not stats.stalls, stats.stalls
    return auto


# ---------------------------------------------------------- adaptive driving

def replay_boundary(arena: Arena, report: SimReport) -> tuple:
    """The pending-forest key after every observed boundary round."""
    key: tuple = ()
    for r in report.trace:
        steps = decide_round(arena, key, [arena.by_name(p) for p in r])
        assert steps is not None, r
        if steps:
            key = steps[-1][2]
    return key


def grow_stimulus(device, arena: Arena, rng: random.Random, rounds: int = 12,
                  max_cycles: int = 64) -> tuple[list, SimReport]:
    """Extend a stimulus one random legal input per round.

    ``arena`` is the device's boundary interface.  Returns the stimulus and
    the report of its final run.  Stops early if the run ends abnormally or
    no boundary input is legal.
    """
    stim: list[tuple[str, ...]] = []
    report = simulate(device, stim, max_cycles=max_cycles)
    for _ in range(rounds):
        if report.status in ("Race", "ProtocolViolation"):
            return stim, report
        key = replay_boundary(arena, report)
        legal = sorted(arena.name(m) for m in arena.moves
                       if arena.is_input(m) and decide(arena, key, m)[0] is not None)
        if not legal:
            break
        stim.append((rng.choice(legal),))
        report = simulate(device, stim, max_cycles=max_cycles)
    return stim, report


# ------------------------------------------------------- reference monitor

@dataclass(eq=False)
class _Open:
    move: Move
    at: int
    parent: Optional["_Open"]
    children: int = 0


class ReferenceMonitor:
    """Play legality over a forest of pending-request objects.

    ``step`` returns None for a legal move, else ``(rule, index)``; after a
    refusal the monitor must not be stepped again.
    """

    def __init__(self, arena: Arena):
        self.arena = arena
        self.open: list[_Open] = []
        self.seen: set[Move] = set()
        self.length = 0
        self.justifier: list[Optional[int]] = []

    @classmethod
    def restored(cls, arena: Arena, key: tuple) -> "ReferenceMonitor":
        """A monitor whose play is the pending requests of ``key`` alone."""
        mon = cls(arena)
        for move, parent in key:
            e = _Open(move, len(mon.open), mon.open[parent] if parent >= 0 else None)
            if e.parent:
                e.parent.children += 1
            mon.open.append(e)
            mon.seen.add(move)
            mon.seen.update(arena.enablers_of(move))
        mon.length = len(key)
        return mon

    def pending_names(self) -> tuple[str, ...]:
        return tuple(self.arena.name(e.move) for e in self.open)

    def state_key(self) -> tuple:
        pos = {id(e): i for i, e in enumerate(self.open)}
        return tuple((e.move, pos[id(e.parent)] if e.parent else -1) for e in self.open)

    def _justifying(self, m: Move) -> Optional[_Open]:
        enablers = self.arena.enablers_of(m)
        for e in reversed(self.open):
            if e.move in enablers:
                return e
        return None

    def classify(self, m: Move) -> Optional[str]:
        enablers = self.arena.enablers_of(m)
        if not enablers:
            return "Serial" if any(e.move == m for e in self.open) else None
        if not (enablers & self.seen):
            return "Justification"
        cand = self._justifying(m)
        if cand is None:
            return "Fork"
        if self.arena.is_question(m):
            return "Serial" if any(e.move == m for e in self.open) else None
        return "Wait" if cand.children else None

    def step(self, m: Move) -> Optional[tuple[str, int]]:
        rule = self.classify(m)
        if rule is not None:
            return rule, self.length
        self.seen.add(m)
        just = self._justifying(m)
        self.justifier.append(just.at if just else None)
        if self.arena.is_question(m):
            if just:
                just.children += 1
            self.open.append(_Open(m, self.length, just))
        else:
            if just.parent:
                just.parent.children -= 1
            self.open.remove(just)
        self.length += 1
        return None


def reference_linearize(arena: Arena, key: tuple, moves: list) -> Optional[list]:
    """The first order in ``itertools.permutations`` legal from ``key``, if any."""
    for order in itertools.permutations(moves):
        mon = ReferenceMonitor.restored(arena, key)
        if all(mon.step(m) is None for m in order):
            return list(order)
    return None


# ------------------------------------------------- reference closed cover

def reference_closed_cover(rows, pool: list, start: int = 1) -> Optional[list]:
    """The first closed cover found by unbounded iterative deepening.

    Sizes run from ``start`` up; at each size a depth-first search covers
    the least uncovered state or, first, an implied successor set that no
    chosen class holds yet, trying ``pool`` in order.  No bound cuts the
    search, so with ``start=1`` every size below the result is refuted in
    full.
    """
    def implied(c):
        need = {}
        for i in dict.fromkeys(i for p in sorted(c) for i in rows[p]):
            need[i] = frozenset(rows[p][i][1] for p in c if i in rows[p])
        return [t for t in need.values() if t]

    def search(size, chosen, need_cover, need_close):
        pending = [t for t in need_close if not any(t <= c for c in chosen)]
        if not need_cover and not pending:
            return list(chosen)
        if len(chosen) == size:
            return None
        if pending:
            cands = [c for c in pool if pending[0] <= c]
        else:
            v = min(need_cover)
            cands = [c for c in pool if v in c]
        for c in cands:
            if c not in chosen:
                got = search(size, chosen + [c], need_cover - c, need_close + implied(c))
                if got is not None:
                    return got
        return None

    for size in range(start, len(pool) + 1):
        found = search(size, [], set(range(len(rows))), [])
        if found is not None:
            return found
    return None


# ------------------------------------------------ reference round abstraction

def reference_round_abstract(auto: StrategyAutomaton) -> SyncMachine:
    """``round_abstract`` trying every nonempty input subset at every state.

    Subsets come in ``itertools.combinations`` order over the arena's input
    moves, by size, and each goes through the same cascade checks as in the
    library, so the table, its row order and its state numbers are the ones
    the library's cascade-proposed sets must reproduce.
    """
    ins = [m for m in auto.arena.moves if auto.arena.is_input(m)]
    if auto.outputs_from(0):
        raise ValueError("initial state must be quiescent")

    subsets = [frozenset(c) for k in range(1, len(ins) + 1)
               for c in itertools.combinations(ins, k)]

    index: dict[int, int] = {0: 0}
    order = [0]
    table: dict[int, dict[frozenset, tuple[frozenset, int]]] = {}
    k = 0
    while k < len(order):
        s = order[k]
        restless = bool(auto.outputs_from(s))
        row: dict[frozenset, tuple[frozenset, int]] = {}
        for inputs in ([frozenset()] if restless else []) + subsets:
            outs, _ = _cascade(auto, s, inputs)
            complete = {(e, t) for e, t, left, blocked in outs if not left and not blocked}
            if len(complete) > 1:
                ordered, _ = _cascade(auto, s, inputs, input_order=True)
                ocomplete = {(e, t) for e, t, left, blocked in ordered
                             if not left and not blocked}
                if len(ocomplete) <= 1:
                    continue
                raise NonConfluent(
                    f"round {{{','.join(sorted(auto.arena.name(m) for m in inputs))}}} from "
                    f"state {s} has {len(complete)} outcomes")
            if complete:
                (emitted, target), = complete
            else:
                split = {(e, t) for e, t, left, blocked in outs if not left and blocked}
                if len(split) != 1 or any(left for _, _, left, _ in outs):
                    continue
                (emitted, target), = split
            if target not in index:
                index[target] = len(order)
                order.append(target)
            row[inputs] = (emitted, index[target])
        table[index[s]] = row
        k += 1
    return SyncMachine(auto.arena, table)


# ------------------------------------------------ reference round pruning

def initial_first(states: Iterable) -> dict:
    """State ids: state 0 keeps 0, the other states follow in ascending order."""
    return {s: k for k, s in enumerate([0, *sorted(set(states) - {0})])}


def reference_prune_inadmissible(m: SyncMachine) -> SyncMachine:
    """Rounds admissible in some reachable protocol context, found depth first.

    Every (machine state, pending-forest key) pair is expanded once, each
    round decided from the key with its moves sorted by ``arena.rank``;
    kept rounds and reached states are then renumbered with
    state 0 first, as ``prune_inadmissible`` does.
    """
    keep: set = set()
    reach: set = set()
    start = (0, ())
    seen = {start}
    work = [start]
    while work:
        s, key = work.pop()
        reach.add(s)
        for i, (o, d) in m.transitions[s].items():
            steps = decide_round(m.arena, key, sorted(i | o, key=m.arena.rank.__getitem__))
            if steps is None:
                continue
            keep.add((s, i))
            nxt = (d, steps[-1][2] if steps else key)
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    perm = initial_first(reach)
    table = {perm[s]: {i: (o, perm[d]) for i, (o, d) in m.transitions[s].items()
                       if (s, i) in keep}
             for s in perm}
    return SyncMachine(m.arena, table)


def reference_synthesis_view(m: SyncMachine) -> tuple[SyncMachine, dict]:
    """``synthesis_view`` with its reductions swapped: every round admissible
    in some context the whole machine reaches, races included, less the
    rounds with two opening requests.  The contexts are those of the walk
    with races."""
    m, contexts = prune_inadmissible(m)
    inits = frozenset(x for x in m.arena.initials if m.arena.is_input(x))
    table = {s: {i: e for i, e in row.items() if len(i & inits) <= 1}
             for s, row in m.transitions.items()}
    return SyncMachine(m.arena, table), contexts


# ------------------------------------------------------------ reference arena

_GROUND_TOKENS = {
    Com: (("q", "O", "Q"), ("a", "P", "A")),
    Exp: (("q", "O", "Q"), ("t", "P", "A"), ("f", "P", "A")),
    Cell: (("q", "O", "Q"), ("t", "P", "A"), ("f", "P", "A"),
           ("wt", "O", "Q"), ("wf", "O", "Q"), ("a", "P", "A")),
}
_GROUND_ENABLING = {
    Com: (("q", "a"),),
    Exp: (("q", "t"), ("q", "f")),
    Cell: (("q", "t"), ("q", "f"), ("wt", "a"), ("wf", "a")),
}
_GROUND_INITIALS = {Com: ("q",), Exp: ("q",), Cell: ("q", "wt", "wf")}


def _occurrences(t) -> list:
    """Ground-type occurrences of ``t``, result side first within arrows."""
    if isinstance(t, (Com, Exp, Cell)):
        return [((), t)]
    if isinstance(t, Prod):
        return ([((0,) + p, g) for p, g in _occurrences(t.left)]
                + [((1,) + p, g) for p, g in _occurrences(t.right)])
    return ([((1,) + p, g) for p, g in _occurrences(t.res)]
            + [((0,) + p, g) for p, g in _occurrences(t.arg)])


def _initials(t) -> list:
    if isinstance(t, (Com, Exp, Cell)):
        return [((), tok) for tok in _GROUND_INITIALS[type(t)]]
    if isinstance(t, Prod):
        return ([((0,) + p, tok) for p, tok in _initials(t.left)]
                + [((1,) + p, tok) for p, tok in _initials(t.right)])
    return [((1,) + p, tok) for p, tok in _initials(t.res)]


def _enabling(t) -> list:
    if isinstance(t, (Com, Exp, Cell)):
        return [(((), a), ((), b)) for a, b in _GROUND_ENABLING[type(t)]]
    if isinstance(t, Prod):
        halves = ((0, t.left), (1, t.right))
    else:
        halves = ((1, t.res), (0, t.arg))
    out = [(((k,) + p, x), ((k,) + q, y)) for k, h in halves for (p, x), (q, y) in _enabling(h)]
    if isinstance(t, Arrow):
        out += [(((1,) + p, x), ((0,) + q, y)) for p, x in _initials(t.res) for q, y in _initials(t.arg)]
    return out


def _flips(path: tuple, t) -> int:
    """Number of argument-side arrow edges along ``path``."""
    n = 0
    for step in path:
        if isinstance(t, Arrow):
            n += step == 0
            t = t.arg if step == 0 else t.res
        else:
            t = t.left if step == 0 else t.right
    return n


def reference_arena(faces: Sequence[Face], names: Optional[dict] = None) -> dict:
    """The tables of ``Arena(faces, names)``, built by four separate walks.

    Ground occurrences, initial moves and enabling pairs each come from
    their own recursion over a face's type, and each move's polarity from a
    walk down its path counting argument edges; each move's enablers and
    enabled moves come from a scan of every enabling pair.  The tables are
    keyed as :func:`arena_tables` keys an arena's.
    """
    moves, pol, kind = [], {}, {}
    for f in faces:
        for path, ground in _occurrences(f.ty):
            for token, base_pol, base_kind in _GROUND_TOKENS[type(ground)]:
                m = Move(f.label, path, token)
                moves.append(m)
                flip = (_flips(path, f.ty) + f.flipped) % 2
                pol[m] = ("O", "P")[({"O": 0, "P": 1}[base_pol] + flip) % 2]
                kind[m] = base_kind
    enabling = {(Move(f.label, p, x), Move(f.label, q, y))
                for f in faces for (p, x), (q, y) in _enabling(f.ty)}
    opening = [Move(f.label, p, tok) for f in faces if not f.flipped for p, tok in _initials(f.ty)]
    enabling |= {(r, Move(f.label, p, tok))
                 for f in faces if f.flipped for p, tok in _initials(f.ty) for r in opening}
    enablers = {m: frozenset(a for a, b in enabling if b == m) for m in moves}
    if names is None:
        occs = [(f.label, path) for f in faces for path, _ in _occurrences(f.ty)]
        index = {occ: k for k, occ in enumerate(occs, start=1)}
        names = {m: m.token + ("" if len(occs) == 1 else str(index[m.face, m.path])) for m in moves}
    return {
        "moves": tuple(moves),
        "rank": {m: k for k, m in enumerate(moves)},
        "names": {m: names[m] for m in moves},
        "polarity": pol,
        "kind": kind,
        "enablers_of": enablers,
        "enabling": frozenset(enabling),
        "initials": frozenset(m for m in moves if not enablers[m]),
    }


def reference_sharing_names(ty) -> dict:
    """Port names of ``sharing_arena(ty)``: per face, occurrence 1 primed,
    occurrence 2 bare, deeper occurrences tagged with their number."""
    names = {}
    for label, k in (("p1", 1), ("p2", 2), ("p0", 0)):
        for j, (path, ground) in enumerate(_occurrences(ty), start=1):
            prime = "'" if j == 1 else ""
            tag = "" if j <= 2 else f"_{j}"
            for token, _, _ in _GROUND_TOKENS[type(ground)]:
                names[Move(label, path, token)] = f"{token.upper()}{prime}{k}{tag}"
    return names


def arena_tables(a: Arena) -> dict:
    """An arena's tables, keyed as :func:`reference_arena` keys them."""
    return {
        "moves": a.moves,
        "rank": a.rank,
        "names": {m: a.name(m) for m in a.moves},
        "polarity": {m: a.polarity(m) for m in a.moves},
        "kind": {m: a.kind(m) for m in a.moves},
        "enablers_of": {m: a.enablers_of(m) for m in a.moves},
        "enabling": a.enabling,
        "initials": a.initials,
    }


# ------------------------------------------------------------ reference relay

def reference_relay(arena: Arena, twins: dict) -> StrategyAutomaton:
    """The forwarder of :func:`gosyn.automata.relay`, built eagerly.

    The whole :class:`ProtocolAutomaton` of ``arena`` is built first and the
    relay's states are (protocol state id, optional pending echo), numbered
    in the same breadth-first order over ``arena.moves``.
    """
    proto = ProtocolAutomaton(arena)
    start = (proto.initial, None)
    index = {start: 0}
    order = [start]
    trans: dict = {}
    k = 0
    while k < len(order):
        p, carry = order[k]
        row = {}
        if carry is None:
            steps = [(m, twins[m]) for m in arena.moves if arena.is_input(m) and m in twins]
        else:
            steps = [(carry, None)]
        for m, echo in steps:
            p2 = proto.step(p, m)
            if p2 is None:
                assert carry is None, f"echo {arena.name(carry)} illegal"
                continue
            nxt = (p2, echo)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row[m] = index[nxt]
        trans[k] = row
        k += 1
    return StrategyAutomaton(arena, trans)


# ------------------------------------------------ reference cone evaluation

def expr_eval(e: Expr, env: dict[str, bool]) -> bool:
    """Evaluate a netlist expression by walking its tree."""
    if isinstance(e, EVar):
        return env[e.name]
    if isinstance(e, EConst):
        return e.val
    if isinstance(e, ENot):
        return not expr_eval(e.x, env)
    if isinstance(e, EAnd):
        return all(expr_eval(x, env) for x in e.xs)
    if isinstance(e, EOr):
        return any(expr_eval(x, env) for x in e.xs)
    raise TypeError(f"not an expression: {e!r}")


# ------------------------------------------------ reference netlist

def reference_netlist_of(machine: SyncMachine, name: str = "top") -> NetModule:
    """The netlist written as one minterm per round.

    Each output sums, per state, one minterm per distinct ON projection
    over the output's reduced support; each state bit sums one minterm per
    row that enters it, from any state, plus a hold term that negates the
    sum of all of its own rows.  Registers, ports and supports are the
    library's, so every cone must compute the same function as
    ``netlist_of``'s.
    """
    machine, _ = synthesis_view(machine)
    arena = machine.arena
    in_ports, out_ports = arena.input_names(), arena.output_names()
    states = sorted(machine.transitions)
    order = initial_first(states)
    bit = {s: f"st{order[s]}" for s in states}
    single = len(states) == 1

    def names(ms) -> frozenset:
        return frozenset(arena.name(m) for m in ms)

    def minterm(vars_order, on) -> Expr:
        return eand(EVar(v) if v in on else ENot(EVar(v)) for v in vars_order)

    # _reduced_support reads port sets as masks, bit k for port k
    def mask(ports, names_) -> int:
        return sum(1 << k for k, v in enumerate(ports) if v in names_)

    def unmask(i: int) -> frozenset:
        return frozenset(v for k, v in enumerate(in_ports) if i >> k & 1)

    named = {s: [(names(i), names(outs), to) for i, (outs, to) in machine.rows(s)]
             for s in states}
    outs_of = {(s, mask(in_ports, i)): mask(out_ports, outs)
               for s in states for i, outs, _ in named[s]}
    enablers = [mask(out_ports, names(arena.enablers_of(arena.by_name(v)))) for v in in_ports]
    assigns = []
    for o in out_ports:
        entries = {}
        for s in states:
            on, off = set(), set()
            for i, outs, _ in named[s]:
                (on if o in outs else off).add(i)
            if on or off:
                if frozenset() not in machine.transitions[s]:
                    off.add(frozenset())
                entries[s] = (on, off)
        cared, entries = _reduced_support(
            {s: tuple({mask(in_ports, i) for i in side} for side in e) for s, e in entries.items()},
            (1 << len(in_ports)) - 1, outs_of, enablers)
        support = unmask(cared)
        entries = {s: tuple({unmask(i) for i in side} for side in e) for s, e in entries.items()}
        terms = []
        for s in states:
            for proj in sorted({i & frozenset(support) for i in entries.get(s, ((), ()))[0]},
                               key=sorted):
                lits = [] if single else [EVar(bit[s])]
                lits.append(minterm([v for v in in_ports if v in support], proj))
                terms.append(eand(x for x in lits if x != EConst(True)))
        assigns.append((o, eor(terms)))
    if single:
        return NetModule(name, in_ports, out_ports, (), tuple(assigns), ())
    nexts = []
    for d in sorted(states, key=lambda s: order[s]):
        terms = [eand([EVar(bit[s]), minterm(in_ports, i)])
                 for s in states for i, _, to in named[s] if to == d]
        terms.append(eand([EVar(bit[d]), ENot(eor(minterm(in_ports, i) for i, _, _ in named[d]))]))
        nexts.append((bit[d], eor(terms)))
    return NetModule(name, in_ports, out_ports, tuple(b for b, _ in nexts), tuple(assigns),
                     tuple(nexts))


def care_sets(view: SyncMachine) -> dict[int, set[frozenset]]:
    """Per state of a synthesis view, the input sets its next state is cared
    for on, by brute force: its rows, the empty round, and every input
    subset that ``decide_round`` admits at some key the product walk
    reaches the state with."""
    arena = view.arena
    inputs = sorted((m for m in arena.moves if arena.is_input(m)), key=arena.rank.__getitem__)
    care = {s: set(row) | {frozenset()} for s, row in view.transitions.items()}
    for s, key in _product_states(view)[1]:
        for n in range(len(inputs) + 1):
            for moves in itertools.combinations(inputs, n):
                if decide_round(arena, key, moves) is not None:
                    care[s].add(frozenset(moves))
    return care


# ------------------------------------------------ reference machine preview

def reference_preview(m: SyncMachine, state: int, pulsed: frozenset) -> tuple:
    """The row a machine unit fires at ``state`` on the input port names
    ``pulsed``, as (output names, input names of the row, next state): the
    exact row first, otherwise the largest defined subset, with ties broken
    by the rows' sorted names; (empty, empty, ``state``) when no row fits."""
    a = m.arena
    inset = frozenset(a.by_name(p) for p in pulsed & frozenset(a.input_names()))
    row = m.transitions[state]
    used = inset
    hit = row.get(inset)
    if hit is None:
        best = None
        for i, entry in row.items():
            if i <= inset:
                rank = (-len(i), m.names(i))
                if best is None or rank < best[0]:
                    best = (rank, i, entry)
        if best is None:
            return frozenset(), frozenset(), state
        _, used, hit = best
    outs, nxt = hit
    return frozenset(a.name(x) for x in outs), frozenset(a.name(x) for x in used), nxt


# ------------------------------------------------ reading the JSON views back

def _arena_from(d: dict) -> Arena:
    faces = [
        Face(f["label"], parse_type(f["type"]), f["flipped"])
        for f in d["faces"]
    ]
    names = {
        Move(p["face"], tuple(p["path"]), p["token"]): p["name"]
        for p in d["ports"]
    }
    return Arena(faces, names)


def _expr_from(d: dict) -> Expr:
    if "var" in d:
        return EVar(d["var"])
    if "not" in d:
        return ENot(_expr_from(d["not"]))
    if "and" in d:
        return EAnd(tuple(_expr_from(x) for x in d["and"]))
    if "or" in d:
        return EOr(tuple(_expr_from(x) for x in d["or"]))
    if "const" in d:
        return EConst(bool(d["const"]))
    raise ValueError(f"not an expression node: {sorted(d)}")


def from_dict(d: dict):
    """The object :func:`gosyn.serialize.to_dict` describes."""
    kind = d.get("kind")
    if kind == "arena":
        return _arena_from(d)
    if kind in ("strategy_automaton", "sync_machine") and d["initial"] != 0:
        raise ValueError(f"initial state {d['initial']}: every machine starts in state 0")
    if kind == "strategy_automaton":
        arena = _arena_from(d)
        trans: dict[int, dict[Move, int]] = {}
        states = {0}
        for t in d["transitions"]:
            states.add(t["from"])
            states.add(t["to"])
        for s in states:
            trans[s] = {}
        for t in d["transitions"]:
            trans[t["from"]][arena.by_name(t["move"])] = t["to"]
        return StrategyAutomaton(arena, trans)
    if kind == "sync_machine":
        arena = _arena_from(d)
        table: dict[int, dict[frozenset, tuple[frozenset, int]]] = {}
        states = {0}
        for r in d["rounds"]:
            states.add(r["state"])
            states.add(r["to"])
        for s in states:
            table[s] = {}
        for r in d["rounds"]:
            ins = frozenset(arena.by_name(n) for n in r["in"])
            outs = frozenset(arena.by_name(n) for n in r["out"])
            table[r["state"]][ins] = (outs, r["to"])
        return SyncMachine(arena, table)
    if kind == "netlist":
        return NetModule(
            name=d["name"],
            inputs=tuple(d["inputs"]),
            outputs=tuple(d["outputs"]),
            state_bits=tuple(d["state_bits"]),
            assigns=tuple((a["target"], _expr_from(a["expr"])) for a in d["assigns"]),
            nexts=tuple((n["target"], _expr_from(n["expr"])) for n in d["nexts"]),
        )
    raise ValueError(f"unknown kind {kind!r}")


def parse_json(text: str):
    return from_dict(json.loads(text))
