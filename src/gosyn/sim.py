"""Cycle-accurate simulation with always-on handshake monitors.

A device is a single clocked machine, a netlist module, or a hierarchical
design.  Each cycle the testbench presents one stimulus round, combinational
pulses settle to a fixpoint, every interface monitor consumes the observed
round, and the clock edge commits the next state.

The settle loop stamps each pulse with the iteration that produced it, so a
round can be replayed as a causally ordered move list: environment pulses
first, then everything a given wave of outputs enabled.  Concatenating the
per-cycle orders yields the linear trace a waveform viewer would show.

The settle loop only does work where pulses change: within a cycle, pulses
only accumulate and a unit's preview is a pure function of its state and
its input pulses, so a unit is previewed again only when its input pulses
have grown since its last preview.  Skipping the others is exact, because
their outputs are already stamped and the round they hold is the one a
repeat preview would pick.

Status semantics:

- Completed: stimulus exhausted, device quiet, nothing pending anywhere.
- Deadlock(cycle): a question is pending, no stimulus input is enabled, and
  a whole cycle passes without a pulse.  Running out of max_cycles reports
  the same status with the partial trace.
- Race(cycle, ports): two opening requests of one shared sub-interface
  pulse in the same cycle.  Never arbitrated.
- ProtocolViolation: a monitor rejected an observed round.  With
  ``unsafe=True`` violations are recorded as diagnostics and the run
  continues (the escape hatch exists so ill-typed wirings can be watched
  misbehaving); a Race still stops the run in either mode.

In safe mode the testbench holds a stimulus round back until the boundary
monitor would accept it, so driving a device faster than the protocol
allows defers pulses instead of corrupting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .arena import Arena, Move
from .design import Design, Instance
from .netlist import NetModule
from .plays import PlayMonitor, Violation, linearize_round
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
    trace: tuple[tuple[str, ...], ...]            # boundary round per cycle, causal order
    instance_traces: dict[str, tuple[tuple[str, ...], ...]] = field(default_factory=dict)
    race_ports: tuple[str, ...] = ()
    violation: Optional[Violation] = None
    diagnostics: tuple[tuple[str, Violation], ...] = ()   # (scope, violation) seen but not fatal
    pending: tuple[str, ...] = ()                 # scope-qualified open questions at the end
    final_states: dict[str, object] = field(default_factory=dict)
    at_reset: bool = False                        # every unit back in its power-on state

    @property
    def ok(self) -> bool:
        return self.status == "Completed"

    def moves(self, scope: Optional[str] = None) -> tuple[str, ...]:
        """The causal linearization of one interface's observed rounds."""
        rounds = self.trace if scope is None else self.instance_traces[scope]
        return tuple(name for r in rounds for name in r)

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
            d["violation"] = _violation_dict(self.violation)
        if self.diagnostics:
            d["diagnostics"] = [
                {"scope": s, **_violation_dict(v)} for s, v in self.diagnostics
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


def _violation_dict(v: Violation) -> dict:
    return {"rule": v.rule, "index": v.index, "move": v.move, "message": v.message}


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
# The loop below only knows "units": named things with input/output port
# sets, a preview function (pulses in -> pulses out, given current state),
# and a commit function.  Machines pick their round table row; netlists
# evaluate their combinational cones.


class _MachineUnit:
    def __init__(self, name: str, machine: SyncMachine):
        self.name = name
        self.m = machine
        a = machine.arena
        self.inputs = frozenset(a.name(x) for x in a.moves if a.is_input(x))
        self.outputs = frozenset(a.name(x) for x in a.moves if not a.is_input(x))
        self.state = machine.initial
        self._chosen: Optional[tuple[frozenset, int]] = None

    def preview(self, pulsed: frozenset[str]) -> tuple[frozenset[str], frozenset[str]]:
        """Pick this state's round for the pulses seen so far.

        Returns (output ports, the input ports of the row that fired).  An
        exact row wins; otherwise the largest defined subset of what arrived
        fires (ties broken by name so reruns agree), which is also how a
        quiet row of a restless state gets to act spontaneously.
        """
        a = self.m.arena
        inset = frozenset(a.by_name(p) for p in pulsed & self.inputs)
        row = self.m.transitions[self.state]
        used = inset
        hit = row.get(inset)
        if hit is None:
            best = None
            for i, entry in row.items():
                if i <= inset:
                    rank = (-len(i), self.m.names(i))
                    if best is None or rank < best[0]:
                        best = (rank, i, entry)
            if best is None:
                self._chosen = None
                return frozenset(), frozenset()
            _, used, hit = best
        outs, nxt = hit
        self._chosen = (outs, nxt)
        return (frozenset(a.name(x) for x in outs),
                frozenset(a.name(x) for x in used))

    def commit(self) -> None:
        if self._chosen is not None:
            self.state = self._chosen[1]
        self._chosen = None

    def reset(self) -> None:
        self.state = self.m.initial
        self._chosen = None


class _NetUnit:
    def __init__(self, name: str, mod: NetModule):
        self.name = name
        self.mod = mod
        self.inputs = frozenset(mod.inputs)
        self.outputs = frozenset(mod.outputs)
        self.state = mod.reset_state()
        self._nxt: Optional[dict[str, bool]] = None

    def preview(self, pulsed: frozenset[str]) -> tuple[frozenset[str], frozenset[str]]:
        ins = {p: (p in pulsed) for p in self.mod.inputs}
        outs, nxt = self.mod.eval(self.state, ins)
        self._nxt = nxt
        return frozenset(o for o, v in outs.items() if v), pulsed & self.inputs

    def commit(self) -> None:
        if self._nxt is not None:
            self.state = self._nxt
        self._nxt = None

    def reset(self) -> None:
        self.state = self.mod.reset_state()
        self._nxt = None


@dataclass
class _Scope:
    """A monitored interface: where its port pulses live in the net space."""

    name: str
    arena: Arena
    prefix: Optional[str]          # instance name, None = boundary
    is_share: bool
    monitor: PlayMonitor
    alive: bool = True


def _build(device: Device, arena: Optional[Arena]):
    """Units, ties (driver -> sinks), boundary ports, and monitor scopes."""
    if isinstance(device, Design):
        units = {}
        for n, inst in device.instances.items():
            units[n] = _MachineUnit(n, inst.machine)
        ties: dict[tuple, list[tuple]] = {}
        for src, dst in device.ties:
            ties.setdefault((src.inst, src.port), []).append((dst.inst, dst.port))
        scopes = []
        if device.boundary is not None:
            scopes.append(_Scope("boundary", device.boundary, None, False,
                                 PlayMonitor(device.boundary)))
        for n, inst in device.instances.items():
            scopes.append(_Scope(n, inst.machine.arena, n, inst.kind == "share",
                                 PlayMonitor(inst.machine.arena)))
        return units, ties, tuple(device.inputs), tuple(device.outputs), scopes

    if isinstance(device, (SyncMachine, NetModule)):
        unit: Union[_MachineUnit, _NetUnit]
        if isinstance(device, SyncMachine):
            unit = _MachineUnit("dev", device)
            mon_arena: Optional[Arena] = device.arena
            ins = tuple(device.arena.name(m) for m in device.arena.moves
                        if device.arena.is_input(m))
            outs = tuple(device.arena.name(m) for m in device.arena.moves
                         if not device.arena.is_input(m))
        else:
            unit = _NetUnit("dev", device)
            mon_arena = arena
            ins, outs = tuple(device.inputs), tuple(device.outputs)
        ties = {(None, p): [("dev", p)] for p in ins}
        ties.update({("dev", p): [(None, p)] for p in outs})
        scopes = []
        if mon_arena is not None:
            scopes.append(_Scope("boundary", mon_arena, None, False,
                                 PlayMonitor(mon_arena)))
        return {"dev": unit}, ties, ins, outs, scopes

    raise TypeError(f"cannot simulate {type(device).__name__}")


def simulate(
    device: Device,
    stimulus: Sequence[Sequence[str]],
    max_cycles: int = 200,
    unsafe: bool = False,
    arena: Optional[Arena] = None,
    vcd: Optional[str] = None,
) -> SimReport:
    """Drive ``device`` with one stimulus round per cycle; see module doc."""
    units, ties, bound_in, bound_out, scopes = _build(device, arena)
    stim = [tuple(r) for r in stimulus]
    for r in stim:
        for p in r:
            if p not in bound_in:
                raise SimError(f"stimulus port {p!r} is not a boundary input "
                               f"(inputs are {', '.join(bound_in)})")

    top = next((s for s in scopes if s.prefix is None), None)
    vetting = top is not None and not unsafe

    diag: list[tuple[str, Violation]] = []
    trace: list[tuple[str, ...]] = []
    inst_traces: dict[str, list[tuple[str, ...]]] = {
        s.name: [] for s in scopes if s.prefix is not None
    }
    waves: list[dict[str, bool]] = []      # per cycle, per net key "inst.port"/"port"; VCD only
    idx = 0

    def finish(status, cyc, cycles, race=(), viol=None):
        if vcd:
            _write_vcd(vcd, bound_in, bound_out, units, waves,
                       hierarchical=isinstance(device, Design))
        pend = tuple(
            f"{s.name}:{n}" for s in scopes for n in s.monitor.pending_names()
            if s.arena.is_question(s.arena.by_name(n))
        )
        finals = {n: u.state for n, u in units.items()}
        at_reset = all(
            u.state == (u.m.initial if isinstance(u, _MachineUnit) else u.mod.reset_state())
            for u in units.values()
        )
        return SimReport(
            status=status, cycles=cycles, cycle=cyc,
            trace=tuple(trace),
            instance_traces={k: tuple(v) for k, v in inst_traces.items()},
            race_ports=tuple(race), violation=viol,
            diagnostics=tuple(diag), pending=pend,
            final_states=finals, at_reset=at_reset,
        )

    budget = sum(len(u.inputs) + len(u.outputs) for u in units.values()) + 2

    # each round lists the pulses of one net scope, ordered by stamp and
    # then by the port's rank in the scope's port tuple
    def rank_of(ports) -> dict[str, int]:
        return {p: k for k, p in enumerate(ports)}

    boundary_rank = rank_of(tuple(bound_in) + tuple(bound_out))
    scope_ranks = [rank_of(s.arena.port_names()) for s in scopes]
    openers = {
        s.name: [s.arena.name(m) for m in s.arena.initials if s.arena.is_input(m)]
        for s in scopes if s.is_share
    }

    for cycle in range(1, max_cycles + 1):
        # -- 1. pick this cycle's stimulus
        presented: tuple[str, ...] = ()
        deferred = False
        if idx < len(stim):
            cand = stim[idx]
            if vetting and cand:
                probe = top.monitor.probe()
                moves = [top.arena.by_name(p) for p in cand]
                if linearize_round(top.arena, probe, moves) is None:
                    deferred = True
            if not deferred:
                presented = cand
                idx += 1

        # -- 2. settle combinational pulses, stamping causality: a pulse is
        # stamped one past the latest pulse that caused it (row inputs for a
        # machine output, the driver for a tied sink), so sorting a round by
        # stamp replays the cycle as the paper's traces linearize it.  Stamps
        # are bucketed by scope (None = boundary).  A unit is previewed again
        # only when its input pulses have grown: pulses only accumulate and a
        # preview is a pure function of (state, input pulses), so a repeat
        # would pulse what is already stamped and pick the round it holds.
        stamp: dict[Optional[str], dict[str, int]] = {None: {}}
        stamp.update((name, {}) for name in units)

        def pulse(inst: Optional[str], port: str, st: int) -> None:
            here = stamp[inst]
            if port in here:
                return
            here[port] = st
            for sink in ties.get((inst, port), ()):
                pulse(*sink, st + 1)

        for p in presented:
            pulse(None, p, 0)
        seen: dict[str, frozenset[str]] = {}
        settled = False
        for _ in range(budget + 1):
            before = sum(map(len, stamp.values()))
            for name, u in units.items():
                here = stamp[name]
                got = u.inputs.intersection(here)
                if seen.get(name) == got:
                    continue
                seen[name] = got
                outs, used = u.preview(got)
                if outs:
                    base = 1 + max((here[p] for p in used), default=0)
                    for o in outs:
                        pulse(name, o, base)
            if sum(map(len, stamp.values())) == before:
                settled = True
                break
        if not settled:
            raise SimError(f"cycle {cycle}: pulses never settle (combinational loop)")

        # -- 3. record the observed rounds, causally ordered
        def round_of(prefix: Optional[str], rank: dict[str, int]) -> tuple[str, ...]:
            here = stamp[prefix]
            return tuple(sorted((p for p in here if p in rank),
                                key=lambda p: (here[p], rank[p])))

        trace.append(round_of(None, boundary_rank))
        rounds = [round_of(s.prefix, rank) for s, rank in zip(scopes, scope_ranks)]
        for s, r in zip(scopes, rounds):
            if s.name in inst_traces:
                inst_traces[s.name].append(r)
        if vcd:
            waves.append({f"{i}.{p}" if i else p: True for i, here in stamp.items() for p in here})

        # -- 4. race check on shared sub-interfaces
        for s in scopes:
            if s.is_share:
                opened = [p for p in openers[s.name] if p in stamp[s.prefix]]
                if len(opened) >= 2:
                    return finish("Race", cycle, cycle, race=tuple(sorted(opened)))

        # -- 5. feed the monitors
        for s, r in zip(scopes, rounds):
            if not s.alive or not r:
                continue
            moves = [s.arena.by_name(p) for p in r]
            if linearize_round(s.arena, s.monitor, moves) is not None:
                continue
            _, v = s.monitor.blame(moves)
            s.alive = False
            blamed_input = s.name == "boundary" and s.arena.is_input(s.arena.by_name(v.move))
            if vetting and blamed_input:
                raise SimError(f"cycle {cycle}: stimulus move {v.move} is illegal: {v}")
            if unsafe:
                diag.append((s.name, v))
            else:
                return finish("ProtocolViolation", cycle, cycle, viol=v)

        # -- 6. clock edge
        for u in units.values():
            u.commit()

        # -- 7. quiet-cycle resolution
        if not any(stamp.values()):
            pending = any(
                s.arena.is_question(s.arena.by_name(n))
                for s in scopes for n in s.monitor.pending_names()
            )
            if idx >= len(stim):
                return finish("Completed" if not pending else "Deadlock",
                              cycle if pending else None, cycle)
            if deferred:
                if pending:
                    return finish("Deadlock", cycle, cycle)
                raise SimError(
                    f"cycle {cycle}: stimulus round {' '.join(stim[idx])!r} can never "
                    "become legal (nothing pending, device quiet)")

    return finish("Deadlock", max_cycles, max_cycles)


# ------------------------------------------------------------ VCD output


def _write_vcd(path: str, bound_in, bound_out, units, waves, hierarchical: bool) -> None:
    """Value-change dump: one wire per net, one timestep per cycle."""
    nets: list[tuple[str, str]] = []          # (scope, port)
    for p in tuple(bound_in) + tuple(bound_out):
        nets.append(("", p))
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
            lines.append(f"$var wire 1 {ids[(scope, port)]} {_vcd_name(port)} $end")
    for name in sorted({s for s, _ in nets if s}):
        lines.append(f"$scope module {name} $end")
        for (scope, port) in nets:
            if scope == name:
                lines.append(f"$var wire 1 {ids[(scope, port)]} {_vcd_name(port)} $end")
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


def _vcd_name(port: str) -> str:
    return port.replace("'", "p")
