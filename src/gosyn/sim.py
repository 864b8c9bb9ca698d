"""Cycle-accurate simulation with always-on handshake monitors.

A device is a single clocked machine, a netlist module, or a hierarchical
design.  Each cycle the testbench presents one stimulus round, combinational
pulses settle to a fixpoint, every interface monitor consumes the observed
round, and the clock edge commits the next state.

The settle loop stamps each pulse with the iteration that produced it, so a
round can be replayed as a causally ordered move list: environment pulses
first, then everything a given wave of outputs enabled.  Monitors decide
each round in that order.  The report gives each boundary round in port
rank order instead, inputs first.  Every boundary input of a round pulses
at stamp 0, and no output of a round justifies another output of the same
round, so stamps only order outputs among themselves; and a stamp counts
the ties a pulse crossed inside the device, so two devices with the same
boundary behaviour but different structure would order their rounds
differently.  Concatenating the per-cycle boundary rounds yields the
linear trace a waveform viewer would show.

The settle loop only does work where pulses change: within a cycle, pulses
only accumulate and a unit's preview is a pure function of its state and
its input pulses, so a unit is previewed again only when its input pulses
have grown since its last preview.  Skipping the others is exact, because
their outputs are already stamped and the round they hold is the one a
repeat preview would pick.

Units hold no state: a preview maps a unit's state and input pulses to its
outputs, the inputs that fired and its next state, and a netlist's state
is the tuple of its bits in ``state_bits`` order.  Nor do monitors: an
interface's protocol state is its pending-forest key (:func:`plays.decide`).
So a run's state is plain values: the tuple of unit states, the tuple of
scope keys, and the set of dead scopes (refused a round in unsafe mode;
each keeps its last key and decides no more rounds).  A cycle
(:func:`_cycle`) is a pure function of that state and the stimulus round
offered (``()`` once the stimulus is exhausted), as ``unsafe`` and ``vcd``
are fixed for the run.  So a run simulates each distinct cycle once and
plays a remembered outcome as it plays a fresh one, taking its keys and
unit states.  A finite-state device under a finite protocol state revisits
few keys: twenty sessions of the ``shared_twice`` demo are 101 cycles but
6 keys.  A cycle that ends the run (a Race, or a violation in safe mode) or
that kills a scope is never stored; it reports the refusing scope, and the
run names the refusal with :func:`plays.blame` from that scope's earlier
rounds, since only they tell Justification (no enabler ever seen) from
Fork.  A machine's rows are kept by port name, per state, in the order a
preview picks them, so a first visit is cheap too.

Status semantics:

- Completed: stimulus exhausted, device quiet, nothing pending anywhere.
- Deadlock(cycle): a question is pending, no stimulus input is enabled, and
  a whole cycle passes without a pulse.  Running out of max_cycles reports
  the same status with the partial trace.
- Race(cycle, ports): two opening requests of one interface (the
  boundary's or an instance's) pulse in the same cycle.  Never arbitrated.
  That cycle keeps only the pulses stamped no later than the racing
  interface's latest opening, so a machine, its gates and a design, which
  answer a race differently, report the same cycle.
- ProtocolViolation: a monitor rejected an observed round.  With
  ``unsafe=True`` violations are recorded as diagnostics and the run
  continues (the escape hatch exists so ill-typed wirings can be watched
  misbehaving); a Race still stops the run in either mode.

In safe mode the testbench holds a stimulus round back until the boundary
monitor would accept it, so driving a device faster than the protocol
allows defers pulses instead of corrupting the run: :func:`plays.decide_round`
answers at the boundary scope's key.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .arena import Arena
from .design import Design
from .netlist import NetModule, verilog_name
from .plays import Violation, blame, decide_round
from .plays import linearize_round  # noqa: F401 (perfbench/tracer.py wraps this name)
from .plays import restore_monitor  # noqa: F401 (perfbench/tracer.py wraps this name)
from .syncmin import SyncMachine

Device = Union[SyncMachine, NetModule, Design]


class SimError(Exception):
    """Malformed stimulus or a device that cannot settle."""


@dataclass
class SimReport:
    status: str                                   # Completed | Deadlock | Race | ProtocolViolation
    cycles: int                                   # cycles simulated
    cycle: Optional[int]                          # cycle the status was decided on
    trace: tuple[tuple[str, ...], ...]            # boundary round per cycle, in port rank
    instance_traces: dict[str, tuple[tuple[str, ...], ...]] = field(default_factory=dict)
    race_ports: tuple[str, ...] = ()
    violation: Optional[Violation] = None
    diagnostics: tuple[tuple[str, Violation], ...] = ()   # (scope, violation) seen but not fatal
    pending: tuple[str, ...] = ()                 # scope-qualified open questions at the end
    at_reset: bool = False                        # every unit back in its power-on state

    @property
    def ok(self) -> bool:
        return self.status == "Completed"

    def as_dict(self) -> dict:
        d = {
            "status": self.status,
            "cycles": self.cycles,
            "cycle": self.cycle,
            "trace": [list(r) for r in self.trace],
            "instances": {k: [list(r) for r in v] for k, v in self.instance_traces.items()},
        }
        if self.race_ports:
            d["race_ports"] = list(self.race_ports)
        if self.violation:
            d["violation"] = asdict(self.violation)
        if self.diagnostics:
            d["diagnostics"] = [
                {"scope": s, **asdict(v)} for s, v in self.diagnostics
            ]
        if self.pending:
            d["pending"] = list(self.pending)
        return d

    def describe(self) -> str:
        lines = [f"status: {self.status}" + (f" (cycle {self.cycle})" if self.cycle else "")]
        lines.append(f"cycles: {self.cycles}")
        if self.race_ports:
            lines.append("raced:  " + ", ".join(self.race_ports))
        if self.violation:
            lines.append("violation: " + str(self.violation))
        for s, v in self.diagnostics:
            lines.append(f"monitor[{s}]: {v}")
        if self.pending:
            lines.append("pending: " + ", ".join(self.pending))
        for c, r in enumerate(self.trace, start=1):
            if r:
                lines.append(f"  cycle {c:3d}: " + " ".join(r))
        return "\n".join(lines)


def parse_stimulus(text: str) -> list[tuple[str, ...]]:
    """One round per line: port names split on commas/whitespace.

    ``#`` starts a comment, blank lines are ignored, and a lone ``.``
    presents a quiet round (no pulses that cycle).
    """
    rounds: list[tuple[str, ...]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line and raw.strip().startswith("#"):
            continue
        if line in ("", "."):
            if raw.strip() or line == ".":
                rounds.append(())
            continue
        rounds.append(tuple(line.replace(",", " ").split()))
    return rounds


# ------------------------------------------------------------ device views
#
# A cycle only knows "units": named things with input/output port sets, a
# power-on ``reset`` state and a ``preview`` (see the module doc).  Machines
# pick their round table row; netlists evaluate their combinational cones.


# machine -> (input port names, output port names, per state (its rows by
# input port names, the same rows in preview order)), each row as (output
# names, input names, next state).  A table depends on nothing but its
# machine and lives as long as it does.
_TABLES: "weakref.WeakKeyDictionary[SyncMachine, tuple]" = weakref.WeakKeyDictionary()


def _name_table(m: SyncMachine) -> tuple[frozenset, frozenset, dict[int, tuple[dict, tuple]]]:
    table = _TABLES.get(m)
    if table is None:
        name = m.arena.name
        rows = {}
        for s, row in m.transitions.items():
            named = {}
            for i, (outs, nxt) in row.items():
                used = frozenset([name(x) for x in i])
                named[used] = (frozenset([name(x) for x in outs]), used, nxt)
            order = sorted(named.items(), key=lambda r: (-len(r[0]), sorted(r[0])))
            rows[s] = (named, tuple([e for _, e in order]))
        table = _TABLES[m] = (frozenset(m.arena.input_names()),
                              frozenset(m.arena.output_names()), rows)
    return table


class _MachineUnit:
    def __init__(self, name: str, machine: SyncMachine):
        self.name = name
        self.inputs, self.outputs, self.rows = _name_table(machine)
        self.reset = 0

    def preview(self, state: int, pulsed: frozenset[str]) -> tuple[frozenset, frozenset, int]:
        """Pick the round of ``state`` for the pulses seen so far.

        Returns (output ports, the input ports of the row that fired, the
        state the clock edge would commit).  An exact row wins; otherwise
        the largest defined subset of what arrived fires (ties broken by
        name so reruns agree), which is also how a quiet row of a restless
        state gets to act spontaneously.  The rows are kept by port name in
        that order, so the first subset found is the one that fires.
        """
        named, order = self.rows[state]
        hit = named.get(pulsed)
        if hit is None:
            hit = next((e for e in order if e[1] <= pulsed), None)
            if hit is None:
                return frozenset(), frozenset(), state
        return hit


class _NetUnit:
    """A netlist's state is the tuple of its bits in ``state_bits`` order; the
    next bits are read back by name, as the cones need not list them so."""

    def __init__(self, name: str, mod: NetModule):
        self.name = name
        self.mod = mod
        self.inputs = frozenset(mod.inputs)
        self.outputs = frozenset(mod.outputs)
        self.reset = tuple(mod.reset_state().values())

    def preview(self, state: tuple[bool, ...], pulsed: frozenset[str]) -> tuple:
        mod, bits = self.mod, self.mod.state_bits
        outs, nxt = mod.eval(dict(zip(bits, state)), {p: (p in pulsed) for p in mod.inputs})
        return frozenset([o for o, v in outs.items() if v]), pulsed, tuple([nxt[b] for b in bits])


class _Scope:
    """A monitored interface: where its port pulses live in the net space,
    each port's rank in its round, and the requests that open a session
    there, when it has two or more (an interface with one cannot race)."""

    def __init__(self, name: str, arena: Arena, prefix: Optional[str]):
        self.name = name
        self.arena = arena
        self.prefix = prefix                 # instance name, None = boundary
        self.rank = {p: k for k, p in enumerate(arena.port_names())}
        opening = [arena.name(m) for m in arena.initials]
        self.openers = tuple(opening) if len(opening) > 1 else ()


class _Device(NamedTuple):
    """What a run simulates, built once per run by :func:`_build`."""

    units: dict[str, Union[_MachineUnit, _NetUnit]]
    ties: dict[tuple, list[tuple]]       # driver (inst, port) -> sinks; inst None = boundary
    inputs: tuple[str, ...]              # boundary inputs
    ports: dict[str, int]                # boundary port -> its rank in a round, inputs first
    scopes: list[_Scope]                 # the boundary's first, when it is monitored


def _build(device: Device, arena: Optional[Arena]) -> _Device:
    if isinstance(device, Design):
        units = {n: _MachineUnit(n, inst.machine) for n, inst in device.instances.items()}
        ties: dict[tuple, list[tuple]] = {}
        for src, dst in device.ties:
            ties.setdefault((src.inst, src.port), []).append((dst.inst, dst.port))
        scopes = [] if device.boundary is None else [_Scope("boundary", device.boundary, None)]
        scopes += [_Scope(n, inst.machine.arena, n) for n, inst in device.instances.items()]
        ins, outs = tuple(device.inputs), tuple(device.outputs)
    elif isinstance(device, (SyncMachine, NetModule)):
        unit: Union[_MachineUnit, _NetUnit]
        if isinstance(device, SyncMachine):
            unit = _MachineUnit("dev", device)
            mon_arena: Optional[Arena] = device.arena
            ins, outs = device.arena.input_names(), device.arena.output_names()
        else:
            unit = _NetUnit("dev", device)
            mon_arena = arena
            ins, outs = tuple(device.inputs), tuple(device.outputs)
        units = {"dev": unit}
        ties = {(None, p): [("dev", p)] for p in ins}
        ties.update({("dev", p): [(None, p)] for p in outs})
        scopes = [] if mon_arena is None else [_Scope("boundary", mon_arena, None)]
    else:
        raise TypeError(f"cannot simulate {type(device).__name__}")
    return _Device(units, ties, ins, {p: k for k, p in enumerate(ins + outs)}, scopes)


class _Outcome(NamedTuple):
    """What one cycle does; a pure function of the cycle's key (see :func:`simulate`)."""

    deferred: bool                             # the offered stimulus round was held back
    trace: tuple[str, ...]                     # the boundary round, in port rank
    rounds: tuple[tuple[str, ...], ...]        # per scope, its round
    wave: Optional[dict[str, bool]]            # pulses per net "inst.port"/"port"; VCD only
    keys: tuple                                # per scope, its pending-forest key after it
    died: tuple[int, ...]                      # scopes whose monitor refused, unsafe mode
    end: Optional[tuple]                       # ("Race", ports) or ("ProtocolViolation", scope)
    states: tuple                              # per unit, its state after the clock edge
    quiet: bool                                # no pulse anywhere
    pending: bool                              # quiet, with a question pending somewhere


def _pulse(stamp: dict, ties: dict, inst: Optional[str], port: str, st: int) -> int:
    """Stamp a pulse and, one stamp later, every sink tied to it.

    Returns how many pulses were newly stamped."""
    here = stamp[inst]
    if port in here:
        return 0
    here[port] = st
    added = 1
    for sink in ties.get((inst, port), ()):
        added += _pulse(stamp, ties, *sink, st + 1)
    return added


def _round_of(here: dict[str, int], rank: dict[str, int]) -> tuple[str, ...]:
    """The pulses of one net scope, ordered by stamp and then by port rank."""
    n = len(rank)
    return tuple(sorted([p for p in here if p in rank], key=lambda p: here[p] * n + rank[p]))


def _cycle(dev: _Device, offered: tuple[str, ...], states: tuple, keys: tuple,
           dead: frozenset, unsafe: bool, vcd: Optional[str]) -> _Outcome:
    """Steps 1-6 of one cycle, from the unit ``states``, each scope's
    pending-forest key and the set of ``dead`` scopes; a pure function."""
    units, ties, scopes = dev.units, dev.ties, dev.scopes
    top = scopes[0] if scopes and scopes[0].prefix is None else None

    # -- 1. hold back a stimulus round the boundary monitor would refuse
    deferred = False
    if top is not None and not unsafe and offered:
        moves = [top.arena.by_name(p) for p in offered]
        deferred = decide_round(top.arena, keys[0], moves) is None

    # -- 2. settle combinational pulses, stamping causality: a pulse is
    # stamped one past the latest pulse that caused it (row inputs for a
    # machine output, the driver for a tied sink), so sorting a round by
    # stamp replays the cycle as the paper's traces linearize it.  Stamps
    # are bucketed by scope (None = boundary).  A unit is previewed again
    # only when its input pulses have grown: pulses only accumulate and a
    # preview is a pure function of (state, input pulses), so a repeat
    # would pulse what is already stamped and pick the round it holds.
    # Every unit is previewed on the first pass, and a pass that stamps
    # anything stamps a unit output not stamped before, so the loop ends.
    stamp: dict[Optional[str], dict[str, int]] = {None: {}}
    stamp.update((name, {}) for name in units)
    for p in () if deferred else offered:
        _pulse(stamp, ties, None, p, 0)
    seen: list = [None] * len(units)
    after = list(states)
    added = 1
    while added:
        added = 0
        for k, u in enumerate(units.values()):
            here = stamp[u.name]
            got = u.inputs.intersection(here)
            if seen[k] == got:
                continue
            seen[k] = got
            outs, used, after[k] = u.preview(states[k], got)
            if outs:
                base = 1 + max((here[p] for p in used), default=0)
                for o in outs:
                    added += _pulse(stamp, ties, u.name, o, base)

    # -- 3. race check on every interface with two or more opening requests:
    # the cycle keeps only the pulses stamped no later than the racing
    # scope's latest opening, what led to the race and no unit's answer to
    # it, so a machine, its gates and a design read the same there
    race = None
    for s in scopes:
        here = stamp[s.prefix]
        opened = [p for p in s.openers if p in here]
        if len(opened) >= 2:
            race = ("Race", tuple(sorted(opened)))
            last = max([here[p] for p in opened])
            stamp = {i: {p: st for p, st in pulses.items() if st <= last}
                     for i, pulses in stamp.items()}
            break

    # -- 4. the observed rounds, causally ordered; the boundary's as reported,
    # in port rank
    boundary = tuple(sorted([p for p in stamp[None] if p in dev.ports], key=dev.ports.get))
    rounds = tuple([_round_of(stamp[s.prefix], s.rank) for s in scopes])
    wave = ({f"{i}.{p}" if i else p: True for i, here in stamp.items() for p in here}
            if vcd else None)
    if race is not None:
        return _Outcome(deferred, boundary, rounds, wave, keys, (), race, (), False, False)

    # -- 5. decide each live monitor's round; in safe mode a refusal ends
    # the cycle, and the scopes before it have still moved
    after_keys = list(keys)
    died: list[int] = []
    for k, (s, r) in enumerate(zip(scopes, rounds)):
        if r and k not in dead:
            took = decide_round(s.arena, keys[k], [s.arena.by_name(p) for p in r])
            if took:
                after_keys[k] = took[-1][2]
            elif unsafe:
                died.append(k)
            else:
                return _Outcome(deferred, boundary, rounds, wave, tuple(after_keys), (),
                                ("ProtocolViolation", k), (), False, False)

    # -- 6. the clock edge; a quiet cycle moves no monitor
    quiet = not any(stamp.values())
    pending = quiet and any(s.arena.is_question(m)
                            for s, key in zip(scopes, keys) for m, _ in key)
    return _Outcome(deferred, boundary, rounds, wave, tuple(after_keys), tuple(died), None,
                    tuple(after), quiet, pending)


def simulate(
    device: Device,
    stimulus: Sequence[Sequence[str]],
    max_cycles: int = 200,
    unsafe: bool = False,
    arena: Optional[Arena] = None,
    vcd: Optional[str] = None,
) -> SimReport:
    """Drive ``device`` with one stimulus round per cycle; see module doc.

    Each distinct cycle is simulated once per run, by :func:`_cycle`, and
    remembered under the run's state (unit states, scope keys, dead scopes)
    and the round offered.  A cycle that ends the run or kills a scope is
    never stored, and its refusal is named from the scope's earlier rounds.
    """
    dev = _build(device, arena)
    units, bound_in, scopes = dev.units, dev.inputs, dev.scopes
    stim = [tuple(r) for r in stimulus]
    for r in stim:
        for p in r:
            if p not in bound_in:
                raise SimError(f"stimulus port {p!r} is not a boundary input "
                               f"(inputs are {', '.join(bound_in)})")

    diag: list[tuple[str, Violation]] = []
    played: list[_Outcome] = []            # the outcome of each cycle so far
    idx = 0

    def refusal(k: int) -> Violation:
        """Scope ``k``'s refusal in the cycle played last, named from its
        earlier rounds; positions count from its pending requests."""
        a = scopes[k].arena
        seen = {a.by_name(p) for o in played[:-1] for p in o.rounds[k]}
        return blame(a, keys[k], [a.by_name(p) for p in played[-1].rounds[k]], seen)[1]

    def finish(status, cyc, cycles, race=(), viol=None):
        if vcd:
            _write_vcd(vcd, dev.ports, units, [o.wave for o in played],
                       hierarchical=isinstance(device, Design))
        pend = tuple([
            f"{s.name}:{s.arena.name(m)}" for s, key in zip(scopes, keys) for m, _ in key
            if s.arena.is_question(m)
        ])
        return SimReport(
            status=status, cycles=cycles, cycle=cyc,
            trace=tuple([o.trace for o in played]),
            instance_traces={s.name: tuple([o.rounds[k] for o in played])
                             for k, s in enumerate(scopes) if s.prefix is not None},
            race_ports=tuple(race), violation=viol,
            diagnostics=tuple(diag), pending=pend,
            at_reset=states == reset,
        )

    memo: dict[tuple, _Outcome] = {}
    # tuple() of a list, not of a generator, on every per-run path: a
    # generator's tuple is allocated for ten items and shrunk, which over
    # thousands of runs fills the interpreter's tuple free lists (about
    # 1.2 MB of them, measured on the benchmark's sim rounds)
    reset = states = tuple([u.reset for u in units.values()])
    keys = tuple([()] * len(scopes))
    dead: frozenset = frozenset()
    for cycle in range(1, max_cycles + 1):
        offered = stim[idx] if idx < len(stim) else ()
        key = (offered, states, keys, dead)
        o = memo.get(key)
        if o is None:
            o = _cycle(dev, offered, states, keys, dead, unsafe, vcd)
            if o.end is None and not o.died:
                memo[key] = o

        # -- play the outcome: record it for the traces, take its scope keys,
        # name its refusals and take its unit states
        if idx < len(stim) and not o.deferred:
            idx += 1
        played.append(o)
        keys = o.keys
        if o.died:
            diag += [(scopes[k].name, refusal(k)) for k in o.died]
            dead = dead.union(o.died)
        if o.end is not None:
            status, what = o.end
            if status == "Race":
                return finish(status, cycle, cycle, race=what)
            v, s = refusal(what), scopes[what]
            if s.prefix is None and s.arena.is_input(s.arena.by_name(v.move)):
                raise SimError(f"cycle {cycle}: stimulus move {v.move} is illegal: {v}")
            return finish(status, cycle, cycle, viol=v)
        states = o.states

        # -- 7. quiet-cycle resolution
        if o.quiet:
            if idx >= len(stim):
                return finish("Completed" if not o.pending else "Deadlock",
                              cycle if o.pending else None, cycle)
            if o.deferred:
                if o.pending:
                    return finish("Deadlock", cycle, cycle)
                raise SimError(
                    f"cycle {cycle}: stimulus round {' '.join(stim[idx])!r} can never "
                    "become legal (nothing pending, device quiet)")

    return finish("Deadlock", max_cycles, max_cycles)


# ------------------------------------------------------------ VCD output


def _write_vcd(path: str, ports, units, waves, hierarchical: bool) -> None:
    """Value-change dump: one wire per net, one timestep per cycle."""
    nets: list[tuple[str, str]] = [("", p) for p in ports]   # (scope, port)
    if hierarchical:
        for name, u in units.items():
            for p in tuple(sorted(u.inputs)) + tuple(sorted(u.outputs)):
                nets.append((name, p))

    def ident(k: int) -> str:
        chars = "".join(chr(c) for c in range(33, 127))
        s = ""
        k += 1
        while k:
            k, r = divmod(k - 1, len(chars))
            s = chars[r] + s
        return s

    ids = {net: ident(k) for k, net in enumerate(nets)}
    lines = ["$timescale 1ns $end", "$scope module top $end"]
    for (scope, port) in nets:
        if scope == "":
            lines.append(f"$var wire 1 {ids[(scope, port)]} {verilog_name(port)} $end")
    for name in sorted({s for s, _ in nets if s}):
        lines.append(f"$scope module {name} $end")
        for (scope, port) in nets:
            if scope == name:
                lines.append(f"$var wire 1 {ids[(scope, port)]} {verilog_name(port)} $end")
        lines.append("$upscope $end")
    lines += ["$upscope $end", "$enddefinitions $end", "#0"]
    lines += [f"0{ids[n]}" for n in nets]
    last = {n: False for n in nets}
    for c, pulses in enumerate(waves):
        lines.append(f"#{(c + 1) * 10}")
        for (scope, port) in nets:
            key = f"{scope}.{port}" if scope else port
            now = pulses.get(key, False)
            if now != last[(scope, port)]:
                lines.append(f"{'1' if now else '0'}{ids[(scope, port)]}")
                last[(scope, port)] = now
    lines.append(f"#{(len(waves) + 1) * 10}")
    for n in nets:
        if last[n]:
            lines.append(f"0{ids[n]}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
