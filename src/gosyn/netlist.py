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

The logic is two-level.  Each output cone computes the same Boolean
function as the sum of one minterm per round over its reduced support, on
every state code, one-hot or not.  The next-state cones honour a care-set
contract instead: in one-hot state ``s``, on each input set of ``s``'s
*care set*, the next code is one-hot at the target of the row those inputs
select, or at ``s`` itself when no row does.  The care set holds ``s``'s
rows, the empty round, and every input set that
:func:`plays.decide_round` admits at one of ``s``'s protocol contexts, the
pending-forest keys the product walk of :func:`synthesis_view` reaches
``s`` with (:func:`care_sets`).  An admitted input set with no row thus
parks the machine instead of scrambling it.  Every other input set is one
no legal environment presents in ``s``, and the safe-mode testbench holds it
back, so it is a don't-care of the next-state logic.  These rules make the
logic small.

- A state bit holds unless its own rows leave it.  Each input set labels
  at most one row of a state, so ``next(d)`` is the transitions into ``d``
  from other states, ``OR (st_s & C[s->d])``, plus ``st_d & ~C[d->other]``
  or ``st_d & C[d stays]`` (its own rows into ``d`` and its parked care
  set), whichever has fewer literals, or plain ``st_d`` when no row leaves
  ``d``.
- Every sum of row minterms becomes a sum of prime cubes (:func:`_cubes`):
  the next-state sums over all inputs, expanded against the care set's
  other input sets, and each state's output projections over the output's
  reduced support, exactly.
- States whose cube sums into one target, or for one output, are equal
  share one term, ``(st_a | st_b) & f``.

A machine with a single state needs no clock at all and comes out as pure
continuous assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

from .plays import decide_round
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


def _cubes(full: int, on: Iterable[int], off: Optional[Iterable[int]] = None
           ) -> list[tuple[int, int]]:
    """A sum of prime cubes over the variables in ``full`` that holds ``on`` and misses ``off``.

    Minterms are bit masks within ``full``, one bit per variable; a cube
    ``(care, value)`` holds the minterms ``m`` with ``m & care == value``.
    Minterms in neither set are don't-cares.  Without ``off`` the OFF set
    is the complement of ``on`` and the sum is exact, over the primes
    :func:`_merged_primes` finds; with ``off`` the primes are those
    :func:`_expanded_primes` finds.  The cover takes every essential prime;
    then, for each minterm still open, fewest holding primes first, the
    prime that holds the most open minterms (the larger cube on a tie); and
    finally drops any picked prime the others cover.  The result is sorted,
    so it depends on no set order.
    """
    on = sorted(set(on))
    if off is not None:
        return sorted(_cover(_expanded_primes(full, on, set(off)), len(on)))
    if len(on) <= 1:
        return [(full, m) for m in on]
    return sorted(_cover(_merged_primes(full, on), len(on)))


def _merged_primes(full: int, on: list[int]) -> dict[tuple[int, int], int]:
    """Every prime of the ON set ``on`` (sorted), by Quine-McCluskey merging
    of cubes that differ in one cared-for bit; each prime maps to the
    minterms it holds, as a bit set over the positions of ``on``."""
    # cubes grouped by care mask; each holds its minterms as a bit set over
    # the positions of ``on``
    primes: dict[tuple[int, int], int] = {}
    level = {full: {m: 1 << k for k, m in enumerate(on)}}
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
    return primes


def _expanded_primes(full: int, on: list[int], off: set[int]) -> dict[tuple[int, int], int]:
    """Primes that avoid ``off`` and hold every minterm of ``on`` (sorted),
    each mapped to the minterms it holds as a bit set over the positions of
    ``on``.

    Each ON minterm ``m`` that no prime found so far holds is expanded to
    one prime (Brayton et al.'s EXPAND).  The expansion keeps the set
    ``{(o ^ m) & care}`` over the OFF minterms ``o``.  The cube
    ``(care, m & care)`` holds ``o`` exactly when that difference is zero,
    so dropping bit ``b`` is legal exactly when ``b`` is not in the set.
    Bits are tried in the order of how many ON minterms differ from ``m``
    in them, most first, so the cube grows towards the other ON minterms.
    """
    primes: dict[tuple[int, int], int] = {}
    nb = full.bit_length()
    ones = [sum(m >> k & 1 for m in on) for k in range(nb)]
    for m in on:
        if any(m & care == val for care, val in primes):
            continue
        care, apart = full, {o ^ m for o in off}
        # raise first the bits in which most ON minterms differ from m
        for k in sorted(range(nb), key=lambda k: ones[k] - len(on) if m >> k & 1
                        else -ones[k]):
            b = 1 << k
            if care & b and b not in apart:
                care ^= b
                apart = {d & ~b for d in apart}
        primes[care, m & care] = 0
    for k, m in enumerate(on):
        for care, val in primes:
            if m & care == val:
                primes[care, val] |= 1 << k
    return primes


def _cover(primes: dict[tuple[int, int], int], n: int) -> list[tuple[int, int]]:
    """An irredundant choice of ``primes`` that holds all ``n`` minterms;
    each prime maps to the bit set of the minterms it holds."""
    # held_by[k]: the primes holding minterm k, larger cubes first
    held_by: list[list] = [[] for _ in range(n)]
    for p in sorted(primes, key=lambda p: (p[0].bit_count(), p)):
        holds = primes[p]
        while holds:
            b = holds & -holds
            holds ^= b
            held_by[b.bit_length() - 1].append(p)
    chosen = sorted({ps[0] for ps in held_by if len(ps) == 1})
    left = (1 << n) - 1
    for p in chosen:
        left &= ~primes[p]
    picked = []
    for k in sorted(range(n), key=lambda k: len(held_by[k])):
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
    return chosen + picked


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


def _size(cubes: list[tuple[int, int]]) -> int:
    """The literals of a sum of cubes: one more than its ``&`` and ``|`` operators."""
    return sum(care.bit_count() for care, _ in cubes)


def _gate(x: Expr, f: Expr) -> Expr:
    """``x & f`` with a product ``f`` flattened and a constant-true ``f`` dropped."""
    if f == EConst(True):
        return x
    return EAnd((x, *f.xs)) if isinstance(f, EAnd) else EAnd((x, f))


def _reduced_support(entries, full: int, outs_of, enablers):
    """Greedily drop input variables while ON/OFF stay distinguishable.

    ``entries`` maps state -> (ON, OFF) sets of input masks, one bit per
    input within ``full``, so projecting a round onto a trial support is one
    ``&``.  A drop that makes an ON row and an OFF row project onto the same
    pulses can still go through when each clashing round that differs is a
    denser reading of the other: its extra pulses are echoes that only its
    own outputs enable (and the other round's outputs do not).  Such a round
    asserts that its routing can be recognized from a pulse that the routing
    itself produced, which gates cannot honour, so it is discarded for this
    output and the other reading keeps its meaning.  Every other clash keeps
    the variable, in particular any round whose echo is already explained by
    the other side's outputs (a chain that simply ran further) and any clash
    against the synthetic empty round.

    ``outs_of`` maps (state, round input mask) to the round's output mask
    and ``enablers[k]`` is the output mask that enables input bit ``k``.
    Variables are tried from the lowest bit up.  Returns (support mask,
    entries) with entries reflecting any discards.
    """
    support = full
    entries = {s: (set(on), set(off)) for s, (on, off) in entries.items()}

    def doomable(s, r, other) -> bool:
        extras = r & ~other
        if not extras:
            return False
        mine = outs_of.get((s, r))
        theirs = outs_of.get((s, other))
        if mine is None or theirs is None:
            return False  # the synthetic empty round has no story to compare
        while extras:
            b = extras & -extras
            extras ^= b
            en = enablers[b.bit_length() - 1]
            if not en & mine or en & theirs:
                return False
        return True

    def clashes(trial: int):
        """Each state's (ON, OFF) round pairs that project onto the same
        pulses of ``trial``: its ON rounds bucketed by projection, then each
        OFF round's bucket."""
        for s, (on_sets, off_sets) in entries.items():
            by_projection: dict[int, list] = {}
            for r_on in on_sets:
                by_projection.setdefault(r_on & trial, []).append(r_on)
            for r_off in off_sets:
                for r_on in by_projection.get(r_off & trial, ()):
                    yield s, r_on, r_off

    bits = full
    while bits:
        v = bits & -bits
        bits ^= v
        doom: list[tuple[int, bool, int]] = []
        for s, r_on, r_off in clashes(support & ~v):
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
            support &= ~v
    return support, entries


def synthesis_view(m: SyncMachine) -> tuple[SyncMachine, dict[int, tuple]]:
    """The round table synthesis starts from, with each state's protocol contexts.

    Two reductions relative to the machine, in this order.  First, rounds in
    which two opening requests land in the same cycle are dropped: such a
    race is reported by the simulator, not arbitrated in gates, which would
    have every output cone read the other opening's request line to
    reproduce an arbitrary tie-break.  Then :func:`prune_inadmissible`
    removes, from the race-free table, the rounds no legal environment can
    produce; the contexts are the pending-forest keys its walk reached each
    state with.

    Dropping races first is sound: a run the simulator completes never
    presents two openings in one cycle (it stops with ``Race``), so it
    reaches only contexts the race-free walk reaches too.  The rows kept
    are a subset of those pruning first would keep.  The order saves work
    on product and cell results, whose openings may race: on the clocked
    ``fn x : cell -> x`` the product walk meets 16 states, not 40.  A call
    manager has no race rows: no round of it holds two client openings.
    """
    table = {s: {i: e for i, e in row.items() if len(i & m.arena.initials) <= 1}
             for s, row in m.transitions.items()}
    return prune_inadmissible(SyncMachine(m.arena, table))


def care_sets(view: SyncMachine, contexts: dict[int, tuple]) -> dict[int, set[int]]:
    """Per state, the input masks its next state is cared for on.

    Bit ``k`` of a mask is input ``view.arena.input_names()[k]``.  A state
    is cared for on its rows, on the empty round, and on every input set
    that :func:`plays.decide_round` admits at one of its contexts, which is
    what the simulator's safe-mode testbench lets through.  Inputs are
    enabled by outputs alone, so no input of a round justifies another, and
    dropping an input from a legal order leaves a legal order.  The sets
    admitted at a key are thus closed under subsets, and they grow from the
    inputs admitted alone, one input of higher rank at a time.
    """
    arena = view.arena
    place = {v: 1 << k for k, v in enumerate(arena.input_names())}
    moves = sorted((m for m in arena.moves if arena.is_input(m)), key=arena.rank.__getitem__)
    bit = [place[arena.name(m)] for m in moves]
    admitted_at: dict[tuple, set[int]] = {}

    def admitted(key: tuple) -> set[int]:
        got = admitted_at.get(key)
        if got is None:
            singles = [k for k, m in enumerate(moves) if decide_round(arena, key, (m,)) is not None]
            got = admitted_at[key] = {0, *(bit[k] for k in singles)}
            work = [((k,), bit[k]) for k in singles]  # rank-ordered move indices, mask
            while work:
                ks, mask = work.pop()
                for k in singles[singles.index(ks[-1]) + 1:]:
                    grown = ks + (k,)
                    if decide_round(arena, key, [moves[j] for j in grown]) is not None:
                        got.add(mask | bit[k])
                        work.append((grown, mask | bit[k]))
        return got

    care = {}
    for s, keys in contexts.items():
        care[s] = {0, *(sum(place[arena.name(m)] for m in i) for i in view.transitions[s])}
        for key in keys:
            care[s] |= admitted(key)
    return care


def _terms(bits: list[Expr], f: Expr) -> list[Expr]:
    """``(b1 | b2 | ...) & f`` as terms of a sum, with no gate for a constant-true ``f``."""
    if f == EConst(True):
        return list(bits)
    return [_gate(eor(bits), f)]


def netlist_of(machine: SyncMachine, name: str = "top") -> NetModule:
    machine, contexts = synthesis_view(machine)
    arena = machine.arena
    in_ports, out_ports = arena.input_names(), arena.output_names()
    # states 0 .. n - 1, numbered by prune_inadmissible with state 0 first
    states = range(len(machine.transitions))
    bit = [f"st{s}" for s in states]
    single = len(states) == 1

    # input and output sets as bit masks over in_ports and out_ports, and
    # each input's two literals
    place = {v: 1 << k for k, v in enumerate(in_ports + out_ports)}

    def mask(ms) -> int:
        return sum(place[arena.name(m)] for m in ms)

    # each state's rows in row order: (input mask, output mask, target)
    rows = {s: [(mask(i), mask(outs) >> len(in_ports), to) for i, (outs, to) in machine.rows(s)]
            for s in states}
    outs_of = {(s, i): outs for s in states for i, outs, _ in rows[s]}
    enablers = [mask(arena.enablers_of(arena.by_name(v))) >> len(in_ports) for v in in_ports]
    literals = [(ENot(EVar(v)), EVar(v)) for v in in_ports]
    full = (1 << len(in_ports)) - 1

    # output logic with per-output support reduction; states with equal
    # cube sums share one term
    assigns: list[tuple[str, Expr]] = []
    for k, o in enumerate(out_ports):
        entries: dict[int, tuple[set, set]] = {}
        for s in states:
            on, off = set(), set()
            for i, outs, _ in rows[s]:
                (on if outs >> k & 1 else off).add(i)
            if on or off:
                if frozenset() not in machine.transitions[s]:
                    off.add(0)  # a cycle with no pulses is always possible
                entries[s] = (on, off)
        cared, entries = _reduced_support(entries, full, outs_of, enablers)
        sharing: dict[tuple, list[int]] = {}
        for s in states:
            if s in entries and entries[s][0]:
                cubes = _cubes(cared, {i & cared for i in entries[s][0]})
                sharing.setdefault(tuple(cubes), []).append(s)
        terms = []
        for cubes, shared in sharing.items():
            f = _sop(literals, cubes)
            terms += [f] if single else _terms([EVar(bit[s]) for s in shared], f)
        assigns.append((o, eor(terms)))

    if single:
        return NetModule(name, in_ports, out_ports, (), tuple(assigns), ())

    # next-state: each bit is entered from other states and holds unless one
    # of its own rows leaves it; a state's input sets outside its care set
    # are don't-cares, and sources with equal entry cubes share one term
    care = care_sets(machine, contexts)
    summed: dict[tuple, list[tuple[int, int]]] = {}

    def cubes_of(on: set[int], off: set[int]) -> list[tuple[int, int]]:
        """:func:`_cubes` over all inputs, once per (ON, OFF) pair: a state
        that leaves for one target enters it on the cubes it leaves on."""
        key = (frozenset(on), frozenset(off))
        if key not in summed:
            summed[key] = _cubes(full, on, off)
        return summed[key]

    into: dict[int, dict[int, set[int]]] = {d: {} for d in states}
    leaving: dict[int, set[int]] = {s: set() for s in states}
    for s in states:
        for i, _, to in rows[s]:
            if to != s:
                into[to].setdefault(s, set()).add(i)
                leaving[s].add(i)
    nexts: list[tuple[str, Expr]] = []
    for d in states:
        sharing = {}
        for s, ms in into[d].items():
            sharing.setdefault(tuple(cubes_of(ms, care[s] - ms)), []).append(s)
        terms = []
        for cubes, shared in sharing.items():
            terms += _terms([EVar(bit[s]) for s in shared], _sop(literals, cubes))
        if not leaving[d]:
            terms.append(EVar(bit[d]))
        else:
            # hold on ~leave or on stay, whichever has fewer literals
            stays = care[d] - leaving[d]
            leave, stay = cubes_of(leaving[d], stays), cubes_of(stays, leaving[d])
            if _size(stay) < _size(leave):
                if stay:
                    terms += _terms([EVar(bit[d])], _sop(literals, stay))
            elif leave != [(0, 0)]:
                leave = _sop(literals, leave)
                terms.append(_gate(EVar(bit[d]), leave.x if isinstance(leave, ENot)
                                   else ENot(leave)))
        nexts.append((bit[d], eor(terms)))

    return NetModule(name, in_ports, out_ports, tuple(bit), tuple(assigns), tuple(nexts))


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
