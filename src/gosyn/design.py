"""Hierarchical circuits: blocks, call managers, and the wiring between them.

A :class:`Design` is a set of synchronous machine instances plus ties
(point-to-point wires from a driver pin to sink pins) and named boundary
ports.  Designs come from three places:

* compiling a program whose outer lambda-bound identifiers are each used
  once (a single block wired straight to the boundary);
* compiling a program that uses a bound identifier several times: the body
  is compiled with the uses split apart, and a call manager instance
  serializes them onto one boundary face;
* a wire file written by hand (``share``/``inst``/``input``/``output``/
  ``tie`` lines), which is how deliberately broken hookups are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .arena import Arena, Move, arena_of_type, sharing_arena
from .denote import denote, diagonal
from .netlist import (NetModule, emit_verilog, expr_vars, module_header, netlist_of,
                      verilog_name)
from .syncmin import SyncMachine, minimize_under_protocol, round_abstract
from .syntax import (Lam, ParseError, Term, Type, Var, map_subterms, parse, parse_type,
                     type_to_str)
from .typecheck import typecheck


class DesignError(Exception):
    pass


@dataclass(frozen=True)
class PortRef:
    inst: Optional[str]   # None refers to the design boundary
    port: str

    def __str__(self) -> str:
        return self.port if self.inst is None else f"{self.inst}.{self.port}"


@dataclass
class Instance:
    name: str
    machine: SyncMachine
    kind: str                       # "block" or "share"


@dataclass
class Design:
    name: str
    instances: dict[str, Instance]
    ties: list[tuple[PortRef, PortRef]]
    inputs: list[str]
    outputs: list[str]
    boundary: Optional[Arena] = None   # protocol of the boundary, when known

    def validate(self) -> None:
        sinks: set[PortRef] = set()
        for src, dst in self.ties:
            if not self._drives(src):
                raise DesignError(f"tie source {src} is not a driver")
            if not self._sinks(dst):
                raise DesignError(f"tie target {dst} cannot be driven")
            if dst in sinks:
                raise DesignError(f"{dst} is driven twice")
            sinks.add(dst)

    def _drives(self, r: PortRef) -> bool:
        if r.inst is None:
            return r.port in self.inputs
        inst = self.instances.get(r.inst)
        return inst is not None and r.port in inst.machine.arena.output_names()

    def _sinks(self, r: PortRef) -> bool:
        if r.inst is None:
            return r.port in self.outputs
        inst = self.instances.get(r.inst)
        return inst is not None and r.port in inst.machine.arena.input_names()

    def drivers_of(self) -> dict[PortRef, PortRef]:
        return {dst: src for src, dst in self.ties}


# ------------------------------------------------------------ call manager

def manager_machine(ty: Type) -> SyncMachine:
    """The call manager for ``ty``: the clocked duplicator.

    It serves one client session at a time, and none of its rounds holds
    both clients' opening requests.
    """
    arena = sharing_arena(ty)
    inits = [[m for m in arena.face_moves(face) if m in arena.initials] for face in ("p1", "p2")]
    for init in inits:  # refused on the arena alone, before the duplicator is clocked
        if len(init) != 1:
            raise DesignError(
                f"cannot share an identifier of type {type_to_str(ty)}: a call manager "
                f"serves one opening request per client, this type has {len(init)}")
    base = round_abstract(diagonal(ty))
    for init in inits:
        if frozenset(init) not in base.transitions[0]:
            raise DesignError(
                f"the duplicator for {type_to_str(ty)} does not serve an opening request when idle")
    return base


# -------------------------------------------------- compiling to a design

def clock_block(auto, minimize: bool = True) -> SyncMachine:
    """Round-abstract an event automaton and, if ``minimize``, reduce it."""
    m = round_abstract(auto)
    return minimize_under_protocol(m) if minimize else m


def _rename_uses(t: Term, name: str, fresh: Callable[[], str], out: list[str]) -> Term:
    if isinstance(t, Var):
        if t.name == name:
            nn = fresh()
            out.append(nn)
            return Var(nn)
        return t
    if isinstance(t, Lam) and t.name == name:
        return t
    return map_subterms(t, lambda s: _rename_uses(s, name, fresh, out))


def compile_design(source: str, name: str = "top", minimize: bool = True) -> Design:
    """Compile a closed program into a design.

    Outer lambda-bound identifiers used more than once get a call manager
    each; sharing buried deeper (tuple components, storage cells) is already
    serialized inside the block machine and stays flattened.  With
    ``minimize=False`` the block keeps its raw round-abstracted machine.
    """
    typed = typecheck(parse(source))
    params: list[tuple[str, Type]] = []
    body = typed.term
    while isinstance(body, Lam):
        params.append((body.name, body.ty))
        body = body.body

    # a parameter used more than once gets one context entry per use
    uses: dict[str, list[str]] = {}
    ctx: list[tuple[str, Type]] = []
    for pname, pty in params:
        got: list[str] = []
        split = _rename_uses(body, pname, lambda: f"{pname}__{len(got) + 1}", got)
        if len(got) > 1:
            body = split
        elif got:
            got = [pname]
        uses[pname] = got
        ctx.extend((u, pty) for u in got or [pname])

    block = Instance("body", clock_block(denote(typecheck(body, tuple(ctx))), minimize), "block")
    full = arena_of_type(typed.ty)
    design = Design(name, {"body": block}, [], list(full.input_names()),
                    list(full.output_names()), boundary=full)

    def wire(inst: str, face: str, to: Optional[str], to_face: str, prefix: tuple = ()) -> None:
        """Tie each move of ``inst``'s ``face`` to its twin, the move with the
        same path (under ``prefix``) and token on ``to``'s ``to_face`` or, when
        ``to`` is None, on the boundary; the side that outputs a move drives."""
        arena = design.instances[inst].machine.arena
        far = full if to is None else design.instances[to].machine.arena
        for m in arena.face_moves(face):
            ref = PortRef(inst, arena.name(m))
            twin = PortRef(to, far.name(Move(to_face, prefix + m.path, m.token)))
            design.ties.append((twin, ref) if arena.is_input(m) else (ref, twin))

    wire("body", "ret", None, "ret", (1,) * len(params))
    for k, (pname, pty) in enumerate(params):
        used = uses[pname]
        if not used:
            continue  # dropped argument: boundary ports stay unwired
        # a chain of managers, one machine: client 2 takes the earlier uses,
        # client 1 the next
        earlier = ("body", used[0])
        manager = manager_machine(pty) if len(used) > 1 else None
        for level in range(1, len(used)):
            mname = f"mgr_{pname}" if len(used) == 2 else f"mgr_{pname}_{level}"
            design.instances[mname] = Instance(mname, manager, "share")
            wire(*earlier, mname, "p2")
            wire("body", used[level], mname, "p1")
            earlier = (mname, "p0")
        wire(*earlier, None, "ret", (1,) * k + (0,))

    design.validate()
    return design


# --------------------------------------------------------------- wire files

def parse_wire_file(text: str, name: str = "top",
                    load: Optional[Callable[[str], SyncMachine]] = None) -> Design:
    """Hand-written hookup:

        share <inst> <type>          a call manager over <type>
        inst <inst> <program.sci>    a compiled block
        input <port> / output <port> boundary pins
        tie <src> -> <dst>           src drives dst; pins as inst.port or port

    Each instance and each boundary pin is declared once.
    """
    instances: dict[str, Instance] = {}
    inputs: list[str] = []
    outputs: list[str] = []
    ties: list[tuple[PortRef, PortRef]] = []

    def ref(tok: str) -> PortRef:
        if "." in tok:
            inst, port = tok.split(".", 1)
            return PortRef(inst, port)
        return PortRef(None, tok)

    for lno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        ports = inputs + outputs
        declared = {"share": instances, "inst": instances, "input": ports, "output": ports}
        if len(parts) > 1 and parts[1] in declared.get(parts[0], ()):
            raise DesignError(f"line {lno}: {parts[1]} is declared twice")
        try:
            if parts[0] == "share" and len(parts) >= 3:
                ty = parse_type(" ".join(parts[2:]))
                instances[parts[1]] = Instance(parts[1], manager_machine(ty), "share")
            elif parts[0] == "inst" and len(parts) == 3:
                if load is None:
                    raise DesignError("this context cannot load block sources")
                instances[parts[1]] = Instance(parts[1], load(parts[2]), "block")
            elif parts[0] == "input" and len(parts) == 2:
                inputs.append(parts[1])
            elif parts[0] == "output" and len(parts) == 2:
                outputs.append(parts[1])
            elif parts[0] == "tie" and len(parts) == 4 and parts[2] == "->":
                ties.append((ref(parts[1]), ref(parts[3])))
            else:
                raise DesignError(f"unrecognized line: {line!r}")
        except ParseError as e:
            raise DesignError(f"line {lno}: {e}") from e
    d = Design(name, instances, ties, inputs, outputs, boundary=None)
    d.validate()
    return d


# ------------------------------------------------------------------ verilog

def netlists_of_design(design: Design) -> list[NetModule]:
    """One synthesized module per instance, cycle-checked against the ties.

    Instances of one machine, such as a chain of call managers, share one
    synthesis under their own module names."""
    made: dict[int, NetModule] = {}
    mods = {}
    for iname, inst in design.instances.items():
        mname = f"{design.name}_{iname}"
        mod = made.get(id(inst.machine))
        if mod is None:
            mod = made[id(inst.machine)] = netlist_of(inst.machine, mname)
        mods[iname] = replace(mod, name=mname)
    _check_comb_cycles(design, mods)
    return [mods[n] for n in sorted(mods)]


def design_verilog(design: Design, netlists: Optional[list[NetModule]] = None) -> str:
    """Multi-module Verilog; a single unshared block flattens to one module.

    ``netlists`` are the design's :func:`netlists_of_design`, synthesized
    here when not given.  Synthesis itself reduces each machine to its
    admissible, order-resolved round table (see netlist.synthesis_view),
    which is what keeps the tied modules free of combinational cycles.
    """
    if netlists is None:
        netlists = netlists_of_design(design)
    mods = dict(zip(sorted(design.instances), netlists))
    if len(design.instances) == 1 and not any(
            i.kind == "share" for i in design.instances.values()):
        (iname, only), = mods.items()
        # only valid if ties are a pure renaming of the block's ports
        renames = {}
        ok = True
        for src, dst in design.ties:
            if src.inst is None and dst.inst == iname:
                renames[dst.port] = src.port
            elif src.inst == iname and dst.inst is None:
                renames[src.port] = dst.port
            else:
                ok = False
        if ok:
            return emit_verilog(replace(only, name=design.name), lambda p: renames.get(p, p))

    out = []
    for iname in sorted(mods):
        out.append(emit_verilog(mods[iname]))
    out.append(_emit_top(design, mods))
    return "\n".join(out)


def _net_name(r: PortRef) -> str:
    base = verilog_name(r.port)
    return base if r.inst is None else f"{verilog_name(r.inst)}_{base}"


def _emit_top(design: Design, mods: dict[str, NetModule]) -> str:
    drivers = design.drivers_of()
    lines = module_header(verilog_name(design.name), any(m.clocked for m in mods.values()),
                          map(verilog_name, design.inputs), map(verilog_name, design.outputs))
    lines.append("")
    for iname in sorted(design.instances):
        for p in mods[iname].outputs:
            lines.append(f"  wire {_net_name(PortRef(iname, p))};")
    lines.append("")
    for iname in sorted(design.instances):
        mod = mods[iname]
        conns = []
        if mod.clocked:
            conns += [".clk(clk)", ".rst(rst)"]
        for p in mod.inputs:
            drv = drivers.get(PortRef(iname, p))
            net = _net_name(drv) if drv else "1'b0"
            conns.append(f".{verilog_name(p)}({net})")
        for p in mod.outputs:
            conns.append(f".{verilog_name(p)}({_net_name(PortRef(iname, p))})")
        lines.append(f"  {verilog_name(mod.name)} {verilog_name(iname)} (")
        for c in conns[:-1]:
            lines.append(f"    {c},")
        lines.append(f"    {conns[-1]}")
        lines.append("  );")
        lines.append("")
    for p in design.outputs:
        drv = drivers.get(PortRef(None, p))
        net = _net_name(drv) if drv else "1'b0"
        lines.append(f"  assign {verilog_name(p)} = {net};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _check_comb_cycles(design: Design, mods: dict[str, NetModule]) -> None:
    """No combinational loop through output logic and ties.

    Register inputs do not count; only the cone from input pins to output
    assigns inside each block, chained through ties, must be acyclic.
    """
    # dependency inside a block: output port -> input ports it reads
    reads: dict[PortRef, set[PortRef]] = {}
    for iname, mod in mods.items():
        for o, e in mod.assigns:
            reads[PortRef(iname, o)] = {
                PortRef(iname, v) for v in expr_vars(e) if v in mod.inputs}
    drivers = design.drivers_of()

    color: dict[PortRef, int] = {}
    stack: list[PortRef] = []

    def visit(pin: PortRef) -> None:
        # pin is an instance output
        if color.get(pin) == 2:
            return
        if color.get(pin) == 1:
            cyc = stack[stack.index(pin):] + [pin]
            raise DesignError(
                "combinational cycle: " + " -> ".join(str(p) for p in cyc))
        color[pin] = 1
        stack.append(pin)
        for inpin in sorted(reads.get(pin, ()), key=str):
            drv = drivers.get(inpin)
            if drv is not None and drv.inst is not None:
                visit(drv)
        stack.pop()
        color[pin] = 2

    for pin in sorted(reads, key=str):
        visit(pin)
