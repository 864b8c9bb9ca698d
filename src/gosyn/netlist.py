"""Synchronous machines as gate-level netlists and Verilog text.

State is one-hot: one register per machine state, the initial state's bit
set by reset.  Output ports are combinational (Mealy): for each output we
collect the rounds that pulse it (ON) and the defined rounds that do not
(OFF); input sets no legal round produces are free, and a greedy pass drops
input variables from the output's support as long as ON and OFF stay
distinguishable in every state.  Dropping unread inputs is not cosmetic:
an acknowledgement often combinationally depends on a request in the same
cycle, and keeping the request out of the answer's support is what keeps
tied-together netlists acyclic.

The logic is two-level and exact: each cone computes the same Boolean
function as the sum of one minterm per round over the full inputs, on every
state code, one-hot or not.  Three rules make it small.

- A state bit holds unless its own rows leave it.  Each input set labels
  at most one row of a state, so ``next(d)`` is the transitions into ``d``
  from other states, ``OR (st_s & C[s->d])``, plus ``st_d & ~C[d->other]``,
  or plain ``st_d`` when no row leaves ``d``.  An input set with no row
  parks the machine instead of scrambling it.
- Every sum of row minterms becomes a sum of prime cubes (:func:`_cubes`):
  the next-state sums over all inputs, and each state's output projections
  over the output's reduced support.
- States whose output cube sums are equal share one term,
  ``(st_a | st_b) & f``.

A machine with a single state needs no clock at all and comes out as pure
continuous assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Union

from .automata import initial_first
from .syncmin import SyncMachine, prune_inadmissible

# ------------------------------------------------------- tiny expression AST

Expr = Union["EVar", "ENot", "EAnd", "EOr", "EConst"]


@dataclass(frozen=True)
class EVar:
    name: str


@dataclass(frozen=True)
class ENot:
    x: Expr


@dataclass(frozen=True)
class EAnd:
    xs: tuple[Expr, ...]


@dataclass(frozen=True)
class EOr:
    xs: tuple[Expr, ...]


@dataclass(frozen=True)
class EConst:
    val: bool


def eor(xs: Iterable[Expr]) -> Expr:
    xs = tuple(xs)
    if not xs:
        return EConst(False)
    return xs[0] if len(xs) == 1 else EOr(xs)


def eand(xs: Iterable[Expr]) -> Expr:
    xs = tuple(xs)
    if not xs:
        return EConst(True)
    return xs[0] if len(xs) == 1 else EAnd(xs)


def expr_to_verilog(e: Expr, rename) -> str:
    if isinstance(e, EVar):
        return rename(e.name)
    if isinstance(e, EConst):
        return "1'b1" if e.val else "1'b0"
    if isinstance(e, ENot):
        inner = expr_to_verilog(e.x, rename)
        return f"~{inner}" if isinstance(e.x, (EVar, EConst)) else f"~({inner})"
    if isinstance(e, EAnd):
        return " & ".join(
            f"({expr_to_verilog(x, rename)})" if isinstance(x, EOr) else expr_to_verilog(x, rename)
            for x in e.xs)
    if isinstance(e, EOr):
        return " | ".join(expr_to_verilog(x, rename) for x in e.xs)
    raise TypeError(f"not an expression: {e!r}")


def expr_to_python(e: Expr) -> str:
    """A Python expression over the dict ``v``; every net is named through repr()."""
    if isinstance(e, EVar):
        return f"v[{e.name!r}]"
    if isinstance(e, EConst):
        return repr(e.val)
    if isinstance(e, ENot):
        return f"(not {expr_to_python(e.x)})"
    if isinstance(e, EAnd):
        return "(" + (" and ".join(map(expr_to_python, e.xs)) or "True") + ")"
    if isinstance(e, EOr):
        return "(" + (" or ".join(map(expr_to_python, e.xs)) or "False") + ")"
    raise TypeError(f"not an expression: {e!r}")


def expr_vars(e: Expr) -> set[str]:
    if isinstance(e, EVar):
        return {e.name}
    if isinstance(e, EConst):
        return set()
    if isinstance(e, ENot):
        return expr_vars(e.x)
    return set().union(*(expr_vars(x) for x in e.xs))


def verilog_name(port: str) -> str:
    """Map a port name to a Verilog identifier (the prime becomes a p)."""
    return port.replace("'", "p")


# ---------------------------------------------------------------- the module

@dataclass
class NetModule:
    """One synchronous block: combinational outputs plus one-hot state."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    state_bits: tuple[str, ...]          # empty = purely combinational
    assigns: tuple[tuple[str, Expr], ...]
    nexts: tuple[tuple[str, Expr], ...]

    @property
    def clocked(self) -> bool:
        return bool(self.state_bits)

    def reset_state(self) -> dict[str, bool]:
        return {b: i == 0 for i, b in enumerate(self.state_bits)}

    def eval(self, state: dict[str, bool], pulses: dict[str, bool]):
        """One cycle: returns (output pulses, next state bits).

        The cones are compiled into one Python function once per module, on
        its first evaluation, rather than walked as expression trees.
        """
        env = dict(state)
        env.update({p: pulses.get(p, False) for p in self.inputs})
        return self._cones(env)

    @cached_property
    def _cones(self):
        """``lambda v: ({output: value}, {state bit: next value})`` for every cone."""
        def body(pairs) -> str:
            return "{" + ", ".join(f"{n!r}: {expr_to_python(e)}" for n, e in pairs) + "}"
        src = f"lambda v: ({body(self.assigns)}, {body(self.nexts)})"
        return eval(compile(src, f"<cones of {self.name}>", "eval"))


def _cubes(full: int, on: Iterable[int]) -> list[tuple[int, int]]:
    """An exact sum of prime cubes for the ON set ``on`` over the variables in ``full``.

    Minterms are bit masks within ``full``, one bit per variable; a cube
    ``(care, value)`` holds the minterms ``m`` with ``m & care == value``.
    There are no don't-cares: the cubes cover ``on`` and nothing else.  The
    primes come from Quine-McCluskey merging of cubes that differ in one
    cared-for bit, each carrying the minterms it holds.  The cover takes
    every essential prime; then, for each minterm still open, fewest
    holding primes first, the prime that holds the most open minterms (the
    larger cube on a tie); and finally drops any picked prime the others
    cover.  The result is sorted, so it depends on no set order.
    """
    on = set(on)
    if len(on) <= 1:
        return [(full, m) for m in on]
    # cubes grouped by care mask; each holds its minterms as a bit set over
    # the positions of ``on``
    primes: dict[tuple[int, int], int] = {}
    level = {full: {m: 1 << k for k, m in enumerate(sorted(on))}}
    while level:
        up: dict[int, dict[int, int]] = {}
        for care, vals in level.items():
            merged = set()
            for val, holds in vals.items():
                free = care & ~val
                while free:
                    b = free & -free
                    free ^= b
                    other = vals.get(val | b)
                    if other is not None:
                        group = up.get(care ^ b)
                        if group is None:
                            group = up[care ^ b] = {}
                        group[val] = holds | other
                        merged.add(val)
                        merged.add(val | b)
            primes.update(((care, v), h) for v, h in vals.items() if v not in merged)
        level = up
    # held_by[k]: the primes holding minterm k, larger cubes first
    held_by: list[list] = [[] for _ in on]
    for p in sorted(primes, key=lambda p: (p[0].bit_count(), p)):
        holds = primes[p]
        while holds:
            b = holds & -holds
            holds ^= b
            held_by[b.bit_length() - 1].append(p)
    chosen = sorted({ps[0] for ps in held_by if len(ps) == 1})
    left = (1 << len(on)) - 1
    for p in chosen:
        left &= ~primes[p]
    picked = []
    for k in sorted(range(len(on)), key=lambda k: len(held_by[k])):
        if left >> k & 1:
            best = max(held_by[k], key=lambda p: (left & primes[p]).bit_count())
            picked.append(best)
            left &= ~primes[best]
    # drop each picked prime that the others cover, last picked first
    for p in picked[::-1]:
        others = 0
        for q in chosen + picked:
            if q != p:
                others |= primes[q]
        if not primes[p] & ~others:
            picked.remove(p)
    return sorted(chosen + picked)


def _sop(literals: list[tuple[Expr, Expr]], cubes: list[tuple[int, int]]) -> Expr:
    """The cubes as a sum of products; ``literals[i]`` is variable ``i``'s
    (negated, plain) literal, for bit ``1 << i`` of each mask."""
    products = []
    for care, val in cubes:
        lits = []
        while care:
            b = care & -care
            care ^= b
            lits.append(literals[b.bit_length() - 1][val & b != 0])
        products.append(eand(lits))
    return eor(products)


def _gate(x: Expr, f: Expr) -> Expr:
    """``x & f`` with a product ``f`` flattened and a constant-true ``f`` dropped."""
    if f == EConst(True):
        return x
    return EAnd((x, *f.xs)) if isinstance(f, EAnd) else EAnd((x, f))


def _reduced_support(entries, inputs: tuple[str, ...], outs_of, en_map):
    """Greedily drop input variables while ON/OFF stay distinguishable.

    ``entries`` maps state -> (on_sets, off_sets) of input-name frozensets.
    A drop that makes an ON row and an OFF row project onto the same pulses
    can still go through when each clashing round that differs is a denser
    reading of the other: its extra pulses are echoes that only its own
    outputs enable (and the other round's outputs do not).  Such a round
    asserts that its routing can be recognized from a pulse that the routing
    itself produced, which gates cannot honour, so it is discarded for this
    output and the other reading keeps its meaning.  Every other clash keeps
    the variable, in particular any round whose echo is already explained by
    the other side's outputs (a chain that simply ran further) and any clash
    against the synthetic empty round.

    ``outs_of`` maps (state, round inputs) to the round's output names and
    ``en_map`` maps an input name to the names that enable it.  Returns
    (support, entries) with entries reflecting any discards.
    """
    support = list(inputs)
    entries = {s: (set(on), set(off)) for s, (on, off) in entries.items()}

    def doomable(s, r, other) -> bool:
        extras = r - other
        if not extras:
            return False
        mine = outs_of.get((s, r))
        theirs = outs_of.get((s, other))
        if mine is None or theirs is None:
            return False  # the synthetic empty round has no story to compare
        return all(en_map.get(x, frozenset()) & mine
                   and not en_map.get(x, frozenset()) & theirs
                   for x in extras)

    def clashes(trial: frozenset):
        """Each state's (ON, OFF) round pairs that project onto the same
        pulses of ``trial``: its ON rounds bucketed by projection, then each
        OFF round's bucket."""
        for s, (on_sets, off_sets) in entries.items():
            by_projection: dict[frozenset, list] = {}
            for r_on in on_sets:
                by_projection.setdefault(r_on & trial, []).append(r_on)
            for r_off in off_sets:
                for r_on in by_projection.get(r_off & trial, ()):
                    yield s, r_on, r_off

    for v in inputs:
        doom: list[tuple[int, bool, frozenset]] = []
        for s, r_on, r_off in clashes(frozenset(support) - {v}):
            hit = False
            if doomable(s, r_on, r_off):
                doom.append((s, True, r_on))
                hit = True
            if doomable(s, r_off, r_on):
                doom.append((s, False, r_off))
                hit = True
            if not hit:
                break
        else:
            for s, is_on, r in doom:
                entries[s][0 if is_on else 1].discard(r)
            support = [w for w in support if w != v]
    return tuple(support), entries


def synthesis_view(m: SyncMachine) -> SyncMachine:
    """The round table synthesis starts from.

    Two reductions relative to the machine, in this order.  First, rounds in
    which two opening requests land in the same cycle are dropped.
    Simultaneous openings are a race, and races are reported by the
    simulator rather than arbitrated in gates; keeping such rows would force
    every output cone to read the other client's request lines just to
    reproduce an arbitrary tie-break.  Then rounds no legal environment can
    produce are removed, by :func:`prune_inadmissible` on the race-free
    table, so the protocol product it walks never enters a context that
    only a race reaches.

    Dropping races first is sound: a run the simulator completes never
    presents two openings in one cycle (it stops with ``Race``), so it
    reaches only contexts the race-free walk reaches too.  The rows kept
    are a subset of those that pruning first and dropping races second
    would keep; each row left out was admissible only after a race.
    """
    table = {s: {i: e for i, e in row.items() if len(i & m.arena.initials) <= 1}
             for s, row in m.transitions.items()}
    return prune_inadmissible(SyncMachine(m.arena, table, m.initial))


def netlist_of(machine: SyncMachine, name: str = "top") -> NetModule:
    machine = synthesis_view(machine)
    arena = machine.arena
    in_ports, out_ports = arena.input_names(), arena.output_names()
    states = sorted(machine.transitions)
    order = initial_first(states, machine.initial)
    bit = {s: f"st{order[s]}" for s in states}
    single = len(states) == 1

    def names(ms) -> frozenset:
        return frozenset(arena.name(m) for m in ms)

    # each state's rows in row order, named once: (inputs, outputs, target)
    named = {s: [(names(i), names(outs), to) for i, (outs, to) in machine.rows(s)]
             for s in states}
    outs_of = {(s, i): outs for s in states for i, outs, _ in named[s]}
    en_map = {arena.name(m): names(arena.enablers_of(m))
              for m in arena.moves if arena.is_input(m)}
    # input sets as bit masks over in_ports, and each input's two literals
    place = {v: 1 << k for k, v in enumerate(in_ports)}
    mask = {i: sum(place[v] for v in i) for s in states for i, _, _ in named[s]}
    literals = [(ENot(EVar(v)), EVar(v)) for v in in_ports]

    # output logic with per-output support reduction; states with equal
    # cube sums share one term
    assigns: list[tuple[str, Expr]] = []
    for o in out_ports:
        entries: dict[int, tuple[set, set]] = {}
        for s in states:
            on, off = set(), set()
            for i, outs, _ in named[s]:
                (on if o in outs else off).add(i)
            if on or off:
                if frozenset() not in machine.transitions[s]:
                    off.add(frozenset())  # a cycle with no pulses is always possible
                entries[s] = (on, off)
        support, entries = _reduced_support(entries, in_ports, outs_of, en_map)
        cared = sum(place[v] for v in support)
        sharing: dict[tuple, list[int]] = {}
        for s in states:
            if s in entries and entries[s][0]:
                cubes = _cubes(cared, {mask[i] & cared for i in entries[s][0]})
                sharing.setdefault(tuple(cubes), []).append(s)
        terms = []
        for cubes, shared in sharing.items():
            f = _sop(literals, cubes)
            if single:
                terms.append(f)
            elif f == EConst(True):
                terms.extend(EVar(bit[s]) for s in shared)
            else:
                terms.append(_gate(eor(EVar(bit[s]) for s in shared), f))
        assigns.append((o, eor(terms)))

    if single:
        return NetModule(name, in_ports, out_ports, (), tuple(assigns), ())

    # next-state: each bit is entered from other states and holds unless one
    # of its own rows leaves it
    into: dict[int, dict[int, list[int]]] = {d: {} for d in states}
    leaving: dict[int, list[int]] = {s: [] for s in states}
    for s in states:
        for i, _, to in named[s]:
            if to != s:
                into[to].setdefault(s, []).append(mask[i])
                leaving[s].append(mask[i])
    full = (1 << len(in_ports)) - 1
    nexts: list[tuple[str, Expr]] = []
    for d in states:
        terms = [_gate(EVar(bit[s]), _sop(literals, _cubes(full, ms)))
                 for s, ms in into[d].items()]
        if not leaving[d]:
            terms.append(EVar(bit[d]))
        else:
            leave = _sop(literals, _cubes(full, leaving[d]))
            if leave != EConst(True):
                terms.append(_gate(EVar(bit[d]), leave.x if isinstance(leave, ENot)
                                   else ENot(leave)))
        nexts.append((bit[d], eor(terms)))

    ordered_bits = tuple(bit[s] for s in sorted(states, key=lambda s: order[s]))
    nexts.sort(key=lambda kv: ordered_bits.index(kv[0]))
    return NetModule(name, in_ports, out_ports, ordered_bits, tuple(assigns), tuple(nexts))


def module_header(name: str, clocked: bool, inputs: Iterable[str],
                  outputs: Iterable[str]) -> list[str]:
    """The ``module`` line and port list, over names already in Verilog form."""
    if not (name.isascii() and (name[:1].isalpha() or name[:1] == "_")
            and all(c.isalnum() or c in "_$" for c in name)):
        raise ValueError(f"module name {name!r} is not a Verilog identifier; "
                         f"name the top module with --top")
    ports = ["input wire clk", "input wire rst"] if clocked else []
    ports += [f"input wire {p}" for p in inputs]
    ports += [f"output wire {p}" for p in outputs]
    return [f"module {name} (", *(f"    {p}," for p in ports[:-1]), f"    {ports[-1]}", ");"]


def emit_verilog(mod: NetModule, rename: Callable[[str], str] = lambda p: p) -> str:
    """Verilog-2001 text; stable byte-for-byte for a given module.

    ``rename`` maps each port and net name before :func:`verilog_name`; the
    module name is not renamed.
    """
    def rn(p: str) -> str:
        return verilog_name(rename(p))

    mangled = [rn(p) for p in mod.inputs + mod.outputs] + list(mod.state_bits)
    if len(set(mangled)) != len(mangled):
        raise ValueError(f"signal names collide after mangling: {sorted(mangled)}")

    lines = module_header(verilog_name(mod.name), mod.clocked,
                          map(rn, mod.inputs), map(rn, mod.outputs))
    if mod.clocked:
        lines.append("")
        for b in mod.state_bits:
            lines.append(f"  reg {b};")
        for b, e in mod.nexts:
            lines.append(f"  wire {b}_next = {expr_to_verilog(e, rn)};")
    lines.append("")
    for o, e in mod.assigns:
        lines.append(f"  assign {rn(o)} = {expr_to_verilog(e, rn)};")
    if mod.clocked:
        lines.append("")
        lines.append("  always @(posedge clk) begin")
        lines.append("    if (rst) begin")
        for i, b in enumerate(mod.state_bits):
            lines.append(f"      {b} <= 1'b{1 if i == 0 else 0};")
        lines.append("    end else begin")
        for b, _ in mod.nexts:
            lines.append(f"      {b} <= {b}_next;")
        lines.append("    end")
        lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
