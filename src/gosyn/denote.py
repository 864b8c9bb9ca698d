"""Interpretation of typed terms as strategy automata.

Every construct of the language maps to an automaton over the arena of its
interface (result face plus one face per free identifier):

* constants have fixed, hand-written control machines;
* an identifier is a forwarder between its result face and its context face;
* application links the argument half of the function's result face to the
  argument's result face and hides the traffic;
* pairing glues two machines at their idle state (tuple components are only
  ever driven one at a time, so a shared identifier face is safe to reuse);
* abstraction just repaints ports: the bound identifier's face becomes the
  argument half of the arrow face.

The serializing duplicator (:func:`diagonal`) makes one provider face usable
by two client faces in strict alternation.  Ordinary evaluation never needs
it (sharing happens inside pairs, which the glue already serializes); it is
the machine that becomes an explicit call manager when a shared function is
split out as a separate circuit block, and a second route to the semantics
of sharing that the tests hold against the glued one.
"""

from __future__ import annotations

from .arena import Move, arena_of_type, sharing_arena, term_arena, type_ports
from .automata import (CompositionStall, StrategyAutomaton, SyncStats, explore, from_rows,
                       glue_pair, relay, synchronize_and_hide)
from .plays import decide
from .syntax import App, Arrow, Const, Fst, Lam, Pair, Prod, Snd, Type, Var, CONSTANTS, parse
from .typecheck import Typed, typecheck


# ---------------------------------------------------------------- constants

def _bool_op(name: str):
    table = {
        "and": lambda a, b: a and b,
        "or": lambda a, b: a or b,
        "xor": lambda a, b: a != b,
        "eq": lambda a, b: a == b,
    }
    return table[name]


def const_automaton(name: str) -> StrategyAutomaton:
    """The fixed machine for a language constant."""
    ty = CONSTANTS[name]
    a = arena_of_type(ty)

    if name == "skip":
        return from_rows(a, {0: {"q": 1}, 1: {"a": 0}})
    if name in ("0", "1"):
        tok = "t" if name == "1" else "f"
        return from_rows(a, {0: {"q": 1}, 1: {tok: 0}})
    if name == "seq":
        return from_rows(a, {
            0: {"q1": 1}, 1: {"q2": 2}, 2: {"a2": 3},
            3: {"q3": 4}, 4: {"a3": 5}, 5: {"a1": 0},
        })
    if name == "par":
        # fork q2/q3 in either order, join on both acknowledgements
        return from_rows(a, {
            0: {"q1": 1}, 1: {"q2": 4, "q3": 2}, 2: {"q2": 6, "a3": 3}, 3: {"q2": 7},
            4: {"q3": 6, "a2": 5}, 5: {"q3": 8}, 6: {"a2": 8, "a3": 7},
            7: {"a2": 9}, 8: {"a3": 9}, 9: {"a1": 0},
        })
    if name in ("and", "or", "xor", "eq"):
        op = _bool_op(name)
        out = {True: "t1", False: "f1"}
        rows = {
            0: {"q1": 1}, 1: {"q2": 2},
            2: {"t2": 3, "f2": 4},          # 3: left true, 4: left false
            3: {"q3": 5}, 4: {"q3": 6},
            5: {"t3": 7 if op(True, True) else 8, "f3": 7 if op(True, False) else 8},
            6: {"t3": 7 if op(False, True) else 8, "f3": 7 if op(False, False) else 8},
            7: {"t1": 0}, 8: {"f1": 0},
        }
        return from_rows(a, rows)
    if name == "not":
        return from_rows(a, {
            0: {"q1": 1}, 1: {"q2": 2}, 2: {"t2": 3, "f2": 4},
            3: {"f1": 0}, 4: {"t1": 0},
        })
    if name == "if":
        return from_rows(a, {
            0: {"q1": 1}, 1: {"q2": 2}, 2: {"t2": 3, "f2": 5},
            3: {"q3": 4}, 4: {"a3": 7},
            5: {"q4": 6}, 6: {"a4": 7},
            7: {"a1": 0},
        })
    if name == "while":
        return from_rows(a, {
            0: {"q1": 1}, 1: {"q2": 2}, 2: {"t2": 3, "f2": 5},
            3: {"q3": 4}, 4: {"a3": 1},   # loop: back to asking the guard
            5: {"a1": 0},
        })
    if name == "asg":
        return from_rows(a, {
            0: {"q1": 1}, 1: {"q3": 2}, 2: {"t3": 3, "f3": 4},
            3: {"wt2": 5}, 4: {"wf2": 5},
            5: {"a2": 6}, 6: {"a1": 0},
        })
    if name == "der":
        return from_rows(a, {
            0: {"q1": 1}, 1: {"q2": 2}, 2: {"t2": 3, "f2": 4},
            3: {"t1": 0}, 4: {"f1": 0},
        })
    if name == "newvar":
        # one stored bit, reset to false on each activation
        return from_rows(a, {
            0: {"q1": 1},
            1: {"q2": 2},                                   # launch the body
            2: {"q3": 3, "wt3": 5, "wf3": 6, "a2": 8},      # running, bit = F
            3: {"f3": 2},
            7: {"q3": 4, "wt3": 5, "wf3": 6, "a2": 8},      # running, bit = T
            4: {"t3": 7},
            5: {"a3": 7},                                   # write-true ack
            6: {"a3": 2},                                   # write-false ack
            8: {"a1": 0},
        })
    raise KeyError(f"no machine for constant {name!r}")


# ------------------------------------------------------------- combinators

def _check_stalls(what: str, stats: SyncStats) -> None:
    """Raise when gluing left a linked pulse that the partner cannot take."""
    if stats.stalls:
        raise CompositionStall(
            f"{what} stalls in {len(stats.stalls)} place(s), first: {stats.stalls[0]}")


def _keys(ty: Type) -> list[tuple[tuple[int, ...], str]]:
    return [(path, token) for path, token, _, _ in type_ports(ty)[0]]


def forwarder(ty: Type, var: str, var_ty: Type, prefix: tuple[int, ...] = ()) -> StrategyAutomaton:
    """``var : var_ty  |-  ty`` as a relay: port ``p`` of the result face is
    twinned with port ``prefix + p`` of ``var``'s face, where half ``which``
    of a product face has the prefix ``(which,)``."""
    a = term_arena(ty, [(var, var_ty)])
    twins: dict[Move, Move] = {}
    for p, tok in _keys(ty):
        twins[Move("ret", p, tok)] = Move(var, prefix + p, tok)
        twins[Move(var, prefix + p, tok)] = Move("ret", p, tok)
    return relay(a, twins)


def apply_strategy(fn: StrategyAutomaton, arg: StrategyAutomaton,
                   out_ctx: tuple[tuple[str, Type], ...]) -> StrategyAutomaton:
    """Feed ``arg`` to ``fn`` (whose result face must be an arrow)."""
    fty = fn.arena.face("ret").ty
    assert isinstance(fty, Arrow)
    link = {
        Move("ret", (0,) + p, tok): Move("ret", p, tok)
        for p, tok in _keys(fty.arg)
    }
    out = term_arena(fty.res, out_ctx)
    relabel_a = {}
    for m in fn.arena.moves:
        if m.face == "ret":
            if m.path[0] == 1:
                relabel_a[m] = Move("ret", m.path[1:], m.token)
        else:
            relabel_a[m] = m
    relabel_b = {m: m for m in arg.arena.moves if m.face != "ret"}
    auto, stats = synchronize_and_hide(fn, arg, link, out, relabel_a, relabel_b)
    _check_stalls("application", stats)
    return auto


def pair_strategy(left: StrategyAutomaton, right: StrategyAutomaton,
                  out_ctx: tuple[tuple[str, Type], ...]) -> StrategyAutomaton:
    lty = left.arena.face("ret").ty
    rty = right.arena.face("ret").ty
    out = term_arena(Prod(lty, rty), out_ctx)
    relabel_l = {}
    for m in left.arena.moves:
        relabel_l[m] = Move("ret", (0,) + m.path, m.token) if m.face == "ret" else m
    relabel_r = {}
    for m in right.arena.moves:
        relabel_r[m] = Move("ret", (1,) + m.path, m.token) if m.face == "ret" else m
    return glue_pair(left, right, out, relabel_l, relabel_r)


def lambda_strategy(body: StrategyAutomaton, var: str, var_ty: Type,
                    out_ctx: tuple[tuple[str, Type], ...]) -> StrategyAutomaton:
    """Repaint the bound identifier's face as the arrow's argument half."""
    rty = body.arena.face("ret").ty
    out = term_arena(Arrow(var_ty, rty), out_ctx)
    move_map = {}
    for m in body.arena.moves:
        if m.face == "ret":
            move_map[m] = Move("ret", (1,) + m.path, m.token)
        elif m.face == var:
            move_map[m] = Move("ret", (0,) + m.path, m.token)
        else:
            move_map[m] = m
    return body.remapped(out, move_map)


def project_strategy(m: StrategyAutomaton, which: int,
                     out_ctx: tuple[tuple[str, Type], ...]) -> StrategyAutomaton:
    pty = m.arena.face("ret").ty
    assert isinstance(pty, Prod)
    half = (pty.left, pty.right)[which]
    proj = forwarder(half, "_p", pty, (which,))
    link = {
        Move("_p", p, tok): Move("ret", p, tok)
        for p, tok in _keys(pty)
    }
    out = term_arena(half, out_ctx)
    relabel_a = {mm: mm for mm in proj.arena.moves if mm.face == "ret"}
    relabel_b = {mm: mm for mm in m.arena.moves if mm.face != "ret"}
    auto, stats = synchronize_and_hide(proj, m, link, out, relabel_a, relabel_b)
    _check_stalls("projection", stats)
    return auto


def diagonal(ty: Type) -> StrategyAutomaton:
    """Serializing duplicator: two client faces over one provider face.

    A session started on either client face is forwarded move by move to the
    shared face; the other client is not listened to until the session's
    opening request has been answered.  A state is (owner, the session's
    pending-forest key over ``ty``, pending echo): :func:`~gosyn.plays.decide`
    steps the key, and the session is over when the key is empty.
    :func:`~gosyn.automata.explore` numbers the states in breadth-first
    discovery order.
    """
    sa = sharing_arena(ty)
    session = arena_of_type(ty)
    start = (0, (), None)

    def row_of(state, number):
        owner, key, echo = state
        if echo is not None:
            return {echo: number((owner, key, None) if key else start)}
        row: dict[Move, int] = {}
        faces = ("p1", "p2") if owner == 0 else (f"p{owner}", "p0")
        for face in faces:
            for m in sa.face_moves(face):
                if not sa.is_input(m):
                    continue
                key2 = decide(session, key, Move("ret", m.path, m.token))[0]
                if key2 is None:
                    continue
                new_owner = owner if owner else (1 if face == "p1" else 2)
                to_face = "p0" if face != "p0" else f"p{new_owner}"
                row[m] = number((new_owner, key2, Move(to_face, m.path, m.token)))
        return row

    rows, _ = explore(start, row_of)
    return StrategyAutomaton(sa, dict(enumerate(rows)))


# ------------------------------------------------------------ the semantics

def denote(t: Typed) -> StrategyAutomaton:
    """Automaton of a typed term; its arena is the term's interface."""
    term = t.term
    if isinstance(term, Var):
        return forwarder(t.ty, term.name, t.ty)
    if isinstance(term, Const):
        return const_automaton(term.name)
    if isinstance(term, App):
        fn = denote(t.children[0])
        arg = denote(t.children[1])
        return apply_strategy(fn, arg, t.ctx)
    if isinstance(term, Pair):
        return pair_strategy(denote(t.children[0]), denote(t.children[1]), t.ctx)
    if isinstance(term, Lam):
        return lambda_strategy(denote(t.children[0]), term.name, term.ty, t.ctx)
    if isinstance(term, Fst):
        return project_strategy(denote(t.children[0]), 0, t.ctx)
    if isinstance(term, Snd):
        return project_strategy(denote(t.children[0]), 1, t.ctx)
    raise TypeError(f"not a term: {term!r}")


def interpret(source: str) -> StrategyAutomaton:
    """Parse, typecheck and interpret a closed program."""
    return denote(typecheck(parse(source)))
