"""Deterministic JSON and DOT views of arenas, automata, machines, netlists.

JSON schema (kind field selects the shape):

- arena: {"kind": "arena", "faces": [{"label", "type", "flipped", "result"}],
  "ports": [{"name", "face", "path", "token", "dir", "kind"}]}
- strategy_automaton: arena plus "initial" and "transitions"
  [{"from", "move", "dir", "to"}]
- sync_machine: arena plus "initial" and "rounds"
  [{"state", "in": [port...], "out": [port...], "to"}]
- netlist: {"kind": "netlist", "name", "inputs", "outputs", "state_bits",
  "assigns": [{"target", "expr"}], "nexts": [{"target", "expr"}]} where expr
  is a tree of {"var"}, {"not"}, {"and": [...]}, {"or": [...]}, {"const"}

"initial" is always 0, the initial state of every machine; it is kept so
that the output stays byte-stable.

``emit_json`` output is byte-stable: fixed key order, two-space indent,
sorted port lists, trailing newline.  The suite's ``parse_json``
(``tests/helpers.py``) inverts it.
"""

from __future__ import annotations

import json
from typing import Union

from .arena import Arena
from .automata import StrategyAutomaton
from .netlist import EAnd, EConst, ENot, EOr, EVar, Expr, NetModule
from .syncmin import SyncMachine
from .syntax import type_to_str

Serializable = Union[Arena, StrategyAutomaton, SyncMachine, NetModule]


# -- JSON


def _arena_dict(a: Arena) -> dict:
    return {
        "kind": "arena",
        "faces": [
            {
                "label": f.label,
                "type": type_to_str(f.ty),
                "flipped": f.flipped,
                "result": f.is_result,
            }
            for f in a.faces
        ],
        "ports": [
            {
                "name": a.name(m),
                "face": m.face,
                "path": list(m.path),
                "token": m.token,
                "dir": "in" if a.is_input(m) else "out",
                "kind": a.kind(m),
            }
            for m in a.moves
        ],
    }


def _expr_dict(e: Expr) -> dict:
    if isinstance(e, EVar):
        return {"var": e.name}
    if isinstance(e, ENot):
        return {"not": _expr_dict(e.x)}
    if isinstance(e, EAnd):
        return {"and": [_expr_dict(x) for x in e.xs]}
    if isinstance(e, EOr):
        return {"or": [_expr_dict(x) for x in e.xs]}
    if isinstance(e, EConst):
        return {"const": e.val}
    raise TypeError(f"not an expression: {e!r}")


def to_dict(x: Serializable) -> dict:
    if isinstance(x, Arena):
        return _arena_dict(x)

    if isinstance(x, StrategyAutomaton):
        d = _arena_dict(x.arena)
        d["kind"] = "strategy_automaton"
        d["initial"] = 0
        d["transitions"] = [
            {
                "from": s,
                "move": x.arena.name(m),
                "dir": "in" if x.arena.is_input(m) else "out",
                "to": t,
            }
            for s in sorted(x.transitions)
            for m, t in sorted(
                x.transitions[s].items(), key=lambda kv: x.arena.name(kv[0])
            )
        ]
        return d

    if isinstance(x, SyncMachine):
        d = _arena_dict(x.arena)
        d["kind"] = "sync_machine"
        d["initial"] = 0
        d["rounds"] = [
            {
                "state": s,
                "in": list(x.names(i)),
                "out": list(x.names(o)),
                "to": t,
            }
            for s in sorted(x.transitions)
            for i, (o, t) in x.rows(s)
        ]
        return d

    if isinstance(x, NetModule):
        return {
            "kind": "netlist",
            "name": x.name,
            "inputs": list(x.inputs),
            "outputs": list(x.outputs),
            "state_bits": list(x.state_bits),
            "assigns": [
                {"target": t, "expr": _expr_dict(e)} for t, e in x.assigns
            ],
            "nexts": [
                {"target": t, "expr": _expr_dict(e)} for t, e in x.nexts
            ],
        }

    raise TypeError(f"cannot serialize {type(x).__name__}")


def emit_json(x: Serializable) -> str:
    return json.dumps(to_dict(x), indent=2) + "\n"


# -- DOT


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(x, name: str = "g") -> str:
    """Graphviz text for an arena, automaton, machine, or netlist."""
    lines = [f"digraph {_q(name)} {{"]
    lines.append("  rankdir=LR;")

    if isinstance(x, Arena):
        lines.append("  node [shape=box];")
        for m in x.moves:
            deco = "?" if x.is_input(m) else "!"
            lines.append(f"  {_q(x.name(m))} [label={_q(x.name(m) + deco)}];")
        for a, b in sorted(x.enabling, key=lambda ab: (x.name(ab[0]), x.name(ab[1]))):
            lines.append(f"  {_q(x.name(a))} -> {_q(x.name(b))};")

    elif isinstance(x, StrategyAutomaton):
        lines.append("  node [shape=circle];")
        lines.append("  s0 [shape=doublecircle];")
        for s in sorted(x.transitions):
            for m, t in sorted(
                x.transitions[s].items(), key=lambda kv: x.arena.name(kv[0])
            ):
                deco = "?" if x.arena.is_input(m) else "!"
                lines.append(f"  s{s} -> s{t} [label={_q(x.arena.name(m) + deco)}];")

    elif isinstance(x, SyncMachine):
        lines.append("  node [shape=circle];")
        lines.append("  s0 [shape=doublecircle];")
        for s in sorted(x.transitions):
            for i, (o, t) in x.rows(s):
                label = "{%s} / {%s}" % (", ".join(x.names(i)), ", ".join(x.names(o)))
                lines.append(f"  s{s} -> s{t} [label={_q(label)}];")

    elif isinstance(x, NetModule):
        from .netlist import expr_vars

        lines.append("  node [shape=box];")
        for p in x.inputs:
            lines.append(f"  {_q(p)} [shape=plaintext];")
        for b in x.state_bits:
            lines.append(f"  {_q(b)} [shape=box style=rounded];")
        for tgt, e in x.assigns + x.nexts:
            for v in sorted(expr_vars(e)):
                lines.append(f"  {_q(v)} -> {_q(tgt)};")

    else:
        raise TypeError(f"cannot draw {type(x).__name__}")

    lines.append("}")
    return "\n".join(lines) + "\n"
