"""Shared test utilities.

Two generators and a testbench driver used across the suite:

- ``random_term`` builds closed well-typed programs (affine by construction:
  applications split the available identifiers, pair components share them).
- ``to_source`` prints a term back to concrete syntax, fully parenthesized.
- ``chain`` writes the one-line ``seqN`` and ``parN`` programs.
- ``grow_stimulus`` drives a compiled design or a clocked machine
  adaptively, one legal boundary input per cycle, by replaying the observed
  trace through a fresh monitor and sampling from its legal-move set.
- ``drive_session`` uses the same loop to steer a design through one
  complete session (every question answered), preferring answers.

``ReferenceMonitor`` is the protocol monitor written as a forest of linked
pending-request objects, kept apart from the library's key-based one so the
two can be checked against each other.  ``reference_closed_cover`` is the
exact closed-cover search with no bounds, against which the library's
bounded one is checked.  ``reference_round_abstract`` tries every input
subset at every state, against which the library's cascade-proposed round
sets are checked.  ``expr_eval`` walks a netlist expression tree, against
which the library's compiled cones are checked.
``reference_prune_inadmissible`` is the depth-first pruning walk, against
which the library's breadth-first product walk is checked.
``reference_relay`` builds a forwarder over the
whole protocol automaton of its arena, against which the library's on-demand
relay is checked.  ``compose_oracle`` walks the interleavings of two glued
automata string by string, against which ``synchronize_and_hide`` is
checked, and ``contraction`` merges two faces of a denotation through the
duplicator, against which sharing in the source is checked.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from gosyn.arena import Arena, Move, arena_of_type, term_arena
from gosyn.automata import StrategyAutomaton, synchronize_and_hide
from gosyn.denote import diagonal
from gosyn.design import Design, compile_design
from gosyn.netlist import EAnd, EConst, ENot, EOr, EVar, Expr
from gosyn.plays import (
    LimitExceeded, PlayMonitor, ProtocolAutomaton, linearize_round,
)
from gosyn.sim import SimReport, simulate
from gosyn.syncmin import NonConfluent, SyncMachine, _cascade
from gosyn.syntax import (
    App, Arrow, Cell, Com, Const, Exp, Fst, Lam, Pair, Prod, Snd, Term, Var,
    type_to_str,
)
from gosyn.typecheck import typecheck

COM = Com()
EXP = Exp()
CELL = Cell()


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

    go(a.initial, b.initial, ())
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

def replay_boundary(arena: Arena, report: SimReport) -> PlayMonitor:
    """A monitor advanced through every observed boundary round."""
    mon = PlayMonitor(arena)
    for r in report.trace:
        moves = [arena.by_name(p) for p in r]
        assert linearize_round(arena, mon, moves) is not None, r
    return mon


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
        mon = replay_boundary(arena, report)
        legal = sorted(arena.name(m) for m in mon.legal_moves() if arena.is_input(m))
        if not legal:
            break
        stim.append((rng.choice(legal),))
        report = simulate(device, stim, max_cycles=max_cycles)
    return stim, report


def drive_session(design: Design, max_rounds: int = 60,
                  max_cycles: int = 200) -> list:
    """A stimulus that steers one session to completion.

    Opens with the first legal initial, then always answers pending
    questions; raises if the design gets stuck before the play completes.
    """
    stim: list[tuple[str, ...]] = []
    for _ in range(max_rounds):
        report = simulate(design, stim, max_cycles=max_cycles)
        assert report.status in ("Completed", "Deadlock"), report.status
        mon = replay_boundary(design.boundary, report)
        if stim and mon.complete():
            return stim
        legal = [m for m in mon.legal_moves() if design.boundary.is_input(m)]
        answers = sorted(design.boundary.name(m) for m in legal
                         if not design.boundary.is_question(m))
        if answers:
            stim.append((answers[0],))
            continue
        initials = sorted(design.boundary.name(m) for m in legal)
        if not stim and initials:
            stim.append((initials[0],))
            continue
        raise AssertionError(
            f"session stuck: status={report.status} pending={report.pending}")
    raise AssertionError(f"session did not complete in {max_rounds} rounds")


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
    if auto.outputs_from(auto.initial):
        raise ValueError("initial state must be quiescent")

    subsets = [frozenset(c) for k in range(1, len(ins) + 1)
               for c in itertools.combinations(ins, k)]

    index: dict[int, int] = {auto.initial: 0}
    order = [auto.initial]
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
    return SyncMachine(auto.arena, table, 0)


# ------------------------------------------------ reference round pruning

def reference_prune_inadmissible(m: SyncMachine) -> SyncMachine:
    """Rounds admissible in some reachable protocol context, found depth first.

    Every (machine state, pending-forest key) pair is expanded once, each
    round from a fresh restored monitor with its moves sorted by
    ``arena.rank``; kept rounds and reached states are then renumbered with
    the initial state first, as ``prune_inadmissible`` does.
    """
    keep: set = set()
    reach: set = set()
    start = (m.initial, ())
    seen = {start}
    work = [start]
    while work:
        s, key = work.pop()
        reach.add(s)
        for i, (o, d) in m.transitions[s].items():
            mon = PlayMonitor(m.arena, key)
            if linearize_round(m.arena, mon, sorted(i | o, key=m.arena.rank.__getitem__)) is None:
                continue
            keep.add((s, i))
            nxt = (d, mon.state_key())
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    order = [m.initial] + sorted(reach - {m.initial})
    perm = {s: k for k, s in enumerate(order)}
    table = {perm[s]: {i: (o, perm[d]) for i, (o, d) in m.transitions[s].items()
                       if (s, i) in keep}
             for s in order}
    return SyncMachine(m.arena, table, 0)


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
    return StrategyAutomaton(arena, trans, 0)


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
