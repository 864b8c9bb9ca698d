"""The simulator's reports and waveforms, and how much work it does.

The VCD goldens in ``tests/golden`` pin ``gosyn sim --vcd`` on the
``shared_twice`` design and the dump of the gate-level ``loop.sci`` netlist
byte for byte, idle cycle included.  A digest pins the reports of several
hundred runs: plain, padded, repeated and random stimuli, in safe and
unsafe mode, ending in every status and in every kind of violation.

A unit is previewed again within a cycle only when its input pulses grow;
a counter on the machine units' previews checks that the settle loop skips
the others.  A cycle that recurs within a run is simulated once, and a
round the monitors have decided once is not decided again: counters on
the previews, on the netlist's cone evaluations and on ``plays.decide``
check that twenty sessions cost no more than one.  A machine unit picks
its row from a per-machine table by port name;
``helpers.reference_preview`` scans the rows as the unit once did, and the
two must agree.  Neither units nor scopes hold state: a run's state is the
unit states, each scope's pending-forest key and the dead scopes, so
``sim._cycle`` called twice at one such state gives one outcome and
changes no scope; and a netlist's state is keyed in ``state_bits`` order
whatever order its cones list the next bits in.
"""

import dataclasses
import gc
import hashlib
import json
import random
import sys
from pathlib import Path

from helpers import reference_preview
from gosyn import plays, sim
from gosyn.cli import main
from gosyn.design import clock_block, compile_design, manager_machine, parse_wire_file
from gosyn.denote import denote
from gosyn.netlist import NetModule, netlist_of
from gosyn.syncmin import round_abstract
from gosyn.syntax import parse, parse_type
from gosyn.typecheck import typecheck

HERE = Path(__file__).resolve().parent
DEMOS = HERE.parent / "demos"
GOLDEN = HERE / "golden"

# two sessions of the loop: two bodies with an idle cycle inside, then none
LOOP_STIM = [("q1",), ("t3",), ("a2",), ("t3",), (), ("a2",), ("f3",), ("q1",), ("f3",)]


def loop_block():
    return clock_block(denote(typecheck(parse((DEMOS / "loop.sci").read_text()))))


def loop_stimulus(seed: int, sessions: int = 12, iterations: int = 30) -> list:
    """The loop sessions the benchmark's gate-level part draws for ``seed``."""
    rng = random.Random(seed)
    cuts = sorted(rng.randint(0, iterations) for _ in range(sessions - 1))
    stim: list = []
    for k in (b - a for a, b in zip([0] + cuts, cuts + [iterations])):
        stim += [("q1",)] + [("t3",), ("a2",)] * k + [("f3",)]
    return stim


def test_shared_twice_vcd_golden(tmp_path, capsys):
    vcd = tmp_path / "shared_twice.vcd"
    code = main(["sim", str(DEMOS / "shared_twice.sci"),
                 "--stimulus", str(DEMOS / "shared_twice.stim"), "--vcd", str(vcd)])
    capsys.readouterr()
    assert code == 0
    assert vcd.read_bytes() == (GOLDEN / "shared_twice.vcd").read_bytes()


def test_loop_netlist_vcd_golden(tmp_path):
    machine = loop_block()
    vcd = tmp_path / "loop_gates.vcd"
    report = sim.simulate(netlist_of(machine, "loop"), LOOP_STIM,
                          arena=machine.arena, vcd=str(vcd))
    assert (report.status, report.cycles) == ("Completed", 10)
    assert vcd.read_bytes() == (GOLDEN / "loop_gates.vcd").read_bytes()


def test_settle_previews_a_unit_only_when_its_inputs_grow(monkeypatch):
    design = compile_design((DEMOS / "shared_twice.sci").read_text(), name="shared_twice")
    stim = sim.parse_stimulus((DEMOS / "shared_twice.stim").read_text())
    calls = []

    def counted(self, state, pulsed):
        calls.append(self.name)
        return preview(self, state, pulsed)

    preview = sim._MachineUnit.preview
    monkeypatch.setattr(sim._MachineUnit, "preview", counted)
    report = sim.simulate(design, stim * 20, max_cycles=1000)
    assert (report.status, report.cycles) == ("Completed", 101)
    # previewing every unit on every settle pass took 562 calls; skipping the
    # units whose inputs did not grow takes 342
    assert len(calls) <= 400


def test_a_unit_fed_the_same_pulses_again_next_cycle_is_previewed_again():
    # each true guard asks again, so the block sees {t2} cycle after cycle
    source = "fn guard : exp -> while guard do skip"
    machine = clock_block(denote(typecheck(parse(source))))
    stim = [("q1",), ("t2",), ("t2",), ("t2",), ("f2",)]
    want = (("q1", "q2"), ("t2", "q2"), ("t2", "q2"), ("t2", "q2"), ("f2", "a1"), ())
    for device, kw in ((machine, {}), (netlist_of(machine, "busy"), {"arena": machine.arena}),
                       (compile_design(source, name="busy"), {})):
        report = sim.simulate(device, stim, **kw)
        assert (report.status, report.trace) == ("Completed", want)


def test_repeated_sessions_are_decided_once(monkeypatch):
    stim = sim.parse_stimulus((DEMOS / "shared_twice.stim").read_text())
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return decide(*args)

    decide = plays.decide
    monkeypatch.setattr(plays, "decide", counted)
    counts = []
    for sessions in (1, 20):
        # a fresh compile has fresh arenas, so no simulated round is remembered yet
        design = compile_design((DEMOS / "shared_twice.sci").read_text(), name="shared_twice")
        calls = 0
        report = sim.simulate(design, stim * sessions, max_cycles=1000)
        assert report.status == "Completed"
        counts.append(calls)
    # deciding every round of every session took 82 calls for one session
    # and 1,640 for twenty
    assert 0 < counts[1] <= counts[0], counts


def _random_stimulus(rng: random.Random, inputs, rounds: int = 40) -> list:
    return [tuple(rng.sample(inputs, rng.choice((0, 1, 1, 1, 2)))) for _ in range(rounds)]


def _wire(name: str):
    load = lambda rel: clock_block(denote(typecheck(parse((DEMOS / rel).read_text()))))
    return parse_wire_file((DEMOS / f"{name}.wire").read_text(), name=name, load=load)


def _run(device, stim, vcd=None, **kw) -> dict:
    try:
        report = sim.simulate(device, stim, max_cycles=2000, vcd=vcd and str(vcd), **kw)
    except sim.SimError as e:
        return {"error": str(e)}
    out = {**report.as_dict(), "at_reset": report.at_reset}
    if vcd:
        out["vcd"] = vcd.read_text()
    return out


def _gates_and_machine(gates, machine, stim, unsafe: bool, vcd=None):
    """The gate run, then the machine run; in safe mode the two must agree."""
    got = _run(gates, stim, arena=machine.arena, unsafe=unsafe, vcd=vcd)
    want = _run(machine, stim, unsafe=unsafe)
    if not unsafe:
        assert {k: v for k, v in got.items() if k != "vcd"} == want, stim
    return got, want


def _runs(tmp: Path):
    machine = loop_block()
    gates = netlist_of(machine, "loop")
    for seed in range(30):
        plain = loop_stimulus(seed)
        for stim in (plain, [x for r in plain for x in (r, ())], plain * 3):
            for unsafe in (False, True):
                vcd = tmp / "gates.vcd" if seed < 2 and not unsafe else None
                yield from _gates_and_machine(gates, machine, stim, unsafe, vcd)
    design = compile_design((DEMOS / "shared_twice.sci").read_text(), name="shared_twice")
    rng = random.Random(11)
    for _ in range(30):
        for unsafe in (False, True):
            yield from _gates_and_machine(gates, machine, _random_stimulus(rng, gates.inputs),
                                          unsafe)
            yield _run(design, _random_stimulus(rng, design.inputs), unsafe=unsafe,
                       vcd=tmp / "design.vcd")
    one = sim.parse_stimulus((DEMOS / "shared_twice.stim").read_text())
    for n in (1, 3, 7):
        for stim in (one * n, (one + [(), ()]) * n):
            for unsafe in (False, True):
                yield _run(design, stim, unsafe=unsafe, vcd=tmp / "design.vcd")
    for name in ("concurrent_calls", "nested_call"):
        device = _wire(name)
        one = sim.parse_stimulus((DEMOS / f"{name}.stim").read_text())
        for n in (1, 2, 4):
            yield _run(device, one * n, unsafe=True)


def test_reports_match_their_pinned_digest(tmp_path):
    # 558 runs: 420 Completed, 37 Deadlock, 27 Race and 74 SimErrors, with
    # Justification, Fork and Serial violations among their diagnostics; a
    # race cycle shows only the pulses up to the racing scope's openings
    blob = json.dumps(list(_runs(tmp_path)), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "a4e582078ed0f30da47488553c98a704cbacc8b466f65bb0ba4121c1e1ddc2b2")


RACES = (("fn c : com -> fn d : com -> <c, d>", [("q1", "q2")]),
         ("fn x : cell -> x", [("q1", "wt1")]),
         ("fn c : com -> fn d : com -> <c ; d, d>", [("q1", "q2")]))


def _race_reports(source: str, stim) -> list:
    """The reports of the clocked machine, its netlist and the design."""
    machine = clock_block(denote(typecheck(parse(source))))
    return [sim.simulate(machine, stim),
            sim.simulate(netlist_of(machine), stim, arena=machine.arena),
            sim.simulate(compile_design(source), stim)]


def test_two_openings_of_any_interface_race_at_every_level():
    # neither interface is a call manager's: a product result, and a cell's
    # read and write requests
    for source, stim in RACES:
        assert [(r.status, r.cycle, r.race_ports) for r in _race_reports(source, stim)] == \
            [("Race", 1, tuple(sorted(stim[0])))] * 3, source


def test_a_race_cycle_reads_the_same_at_every_level():
    # the machine plays a race row, its gates treat race rounds as
    # don't-cares and the design ties its openings to a block: the cycle
    # shows the openings and nothing any of them answers; only the design
    # has instance scopes, so their traces are left out
    for source, stim in RACES:
        dicts = [r.as_dict() for r in _race_reports(source, stim)]
        assert {k: v for k, v in dicts[2].pop("instances").items() if any(v)} == {}
        for d in dicts[:2]:
            assert d.pop("instances") == {}
        assert dicts == [{"status": "Race", "cycles": 1, "cycle": 1, "trace": [list(stim[0])],
                          "race_ports": sorted(stim[0])}] * 3, source


def _count_calls(monkeypatch, cls, name: str) -> list:
    calls = []
    method = getattr(cls, name)

    def counted(self, *args):
        calls.append(None)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_a_recurring_cycle_is_simulated_once(monkeypatch):
    design = compile_design((DEMOS / "shared_twice.sci").read_text(), name="shared_twice")
    stim = sim.parse_stimulus((DEMOS / "shared_twice.stim").read_text())
    previews = _count_calls(monkeypatch, sim._MachineUnit, "preview")
    counts = []
    for sessions in (1, 20):
        previews.clear()
        assert sim.simulate(design, stim * sessions, max_cycles=1000).status == "Completed"
        counts.append(len(previews))
    assert 0 < counts[1] <= counts[0], counts

    machine = loop_block()
    gates = netlist_of(machine, "loop")
    evals = _count_calls(monkeypatch, NetModule, "eval")
    counts = []
    for repeats in (1, 3):
        evals.clear()
        report = sim.simulate(gates, loop_stimulus(1) * repeats, max_cycles=1000,
                              arena=machine.arena)
        assert report.status == "Completed"
        counts.append(len(evals))
    assert 0 < counts[1] <= counts[0], counts


def _preview_machines():
    for path in sorted(DEMOS.glob("*.sci")):
        auto = denote(typecheck(parse(path.read_text())))
        yield path.stem, round_abstract(auto)
        yield path.stem, clock_block(auto)
    for ty in ("com -> com", "exp"):
        yield ty, manager_machine(parse_type(ty))


def test_the_name_table_picks_the_row_the_scan_picks():
    rng = random.Random(7)
    kinds = {"exact": 0, "subset": 0, "none": 0}
    for what, machine in _preview_machines():
        unit = sim._MachineUnit("u", machine)
        inputs = sorted(unit.inputs)
        for state in machine.transitions:
            named = {frozenset(machine.names(i)) for i in machine.transitions[state]}
            tries = [frozenset(rng.sample(inputs, rng.randint(0, len(inputs))))
                     for _ in range(40)]
            for pulsed in tries + sorted(named, key=sorted):
                got = unit.preview(state, pulsed)
                want = reference_preview(machine, state, pulsed)
                assert got == want, (what, state, sorted(pulsed))
                kinds["exact" if pulsed in named
                      else "subset" if any(i <= pulsed for i in named) else "none"] += 1
    assert min(kinds.values()) > 100, kinds


def _cycles_twice(device, stim, unsafe=False, arena=None) -> list:
    """Each cycle's outcome, from ``sim._cycle`` called twice at its key.

    Both calls must agree and leave every scope as it was; the outcome is
    then played as ``simulate`` plays it, taking its scope keys, dead scopes
    and unit states, until the run would end."""
    dev = sim._build(device, arena)
    looks = lambda: [dict(vars(s)) for s in dev.scopes]
    states = tuple([u.reset for u in dev.units.values()])
    keys, dead = tuple([()] * len(dev.scopes)), frozenset()
    played, idx = [], 0
    for cycle in range(1, 200):
        offered = stim[idx] if idx < len(stim) else ()
        before = looks()
        o = sim._cycle(dev, offered, states, keys, dead, unsafe, None)
        assert sim._cycle(dev, offered, states, keys, dead, unsafe, None) == o
        assert looks() == before
        played.append(o)
        if o.end is not None or (o.quiet and (o.deferred or idx >= len(stim))):
            return played
        keys, dead, states = o.keys, dead.union(o.died), o.states
        idx += idx < len(stim) and not o.deferred
    raise AssertionError("the run did not end")


def test_a_cycle_is_a_pure_function_of_its_key():
    design = compile_design((DEMOS / "shared_twice.sci").read_text(), name="shared_twice")
    twice = sim.parse_stimulus((DEMOS / "shared_twice.stim").read_text()) * 2
    machine = loop_block()
    gates = netlist_of(machine, "loop")
    racing = _wire("concurrent_calls")
    race_stim = sim.parse_stimulus((DEMOS / "concurrent_calls.stim").read_text())
    # the second request waits on the first: held back until the run deadlocks
    held = [("q1",), ("q1",)]
    ends = []
    for device, stim, kw in ((design, twice, {}), (gates, LOOP_STIM, {"arena": machine.arena}),
                             (gates, held, {"arena": machine.arena}),
                             (racing, race_stim, {"unsafe": True})):
        played = _cycles_twice(device, stim, **kw)
        report = sim.simulate(device, stim, **kw)
        assert tuple([o.trace for o in played]) == report.trace
        ends.append((report.status, any(o.deferred for o in played), played[-1].end))
    assert ends == [("Completed", False, None), ("Completed", False, None),
                    ("Deadlock", True, None), ("Race", False, ("Race", ("Q'1", "Q'2")))]


def test_a_netlist_state_is_keyed_in_state_bits_order():
    # the cones list the next bits in ``nexts`` order, which need not be
    # ``state_bits`` order; the unit must read them back by name
    machine = loop_block()
    gates = netlist_of(machine, "loop")
    flipped = dataclasses.replace(gates, nexts=gates.nexts[::-1])
    assert [b for b, _ in flipped.nexts] != list(gates.state_bits)
    for stim in (LOOP_STIM, loop_stimulus(3), loop_stimulus(4) * 2):
        want = sim.simulate(gates, stim, max_cycles=1000, arena=machine.arena)
        got = sim.simulate(flipped, stim, max_cycles=1000, arena=machine.arena)
        assert want.status == "Completed"
        assert (got.as_dict(), got.at_reset) == (want.as_dict(), want.at_reset)


def test_compiling_and_simulating_leave_no_cyclic_garbage():
    source = (DEMOS / "shared_twice.sci").read_text()
    stim = sim.parse_stimulus((DEMOS / "shared_twice.stim").read_text())
    gc.collect()
    gc.disable()
    try:
        tables = len(sim._TABLES)
        design = compile_design(source, name="shared_twice")
        machine = loop_block()
        gates = netlist_of(machine, "loop")
        assert gc.collect() == 0
        # the second run of each reuses the machines' name tables
        for _ in range(2):
            assert sim.simulate(design, stim * 20, max_cycles=1000).status == "Completed"
            assert gc.collect() == 0
            report = sim.simulate(machine, loop_stimulus(1), max_cycles=1000)
            assert report.status == "Completed"
            assert gc.collect() == 0
        report = sim.simulate(gates, loop_stimulus(1), max_cycles=1000, arena=machine.arena)
        assert report.status == "Completed"
        assert gc.collect() == 0
        assert len(sim._TABLES) == tables + len(design.instances) + 1
        # a table goes with its machine, freed by reference counting alone
        del design, machine, gates
        assert len(sim._TABLES) == tables
    finally:
        gc.enable()


def test_repeated_runs_hold_no_more_memory():
    # each run used to leave a few more tuples in the interpreter's free
    # lists (tuple() of a generator shrinks a ten-item tuple): 6,749 blocks
    # over these 900 runs, about 1.2 MB once the lists fill
    design = compile_design((DEMOS / "shared_twice.sci").read_text(), name="shared_twice")
    stim = sim.parse_stimulus((DEMOS / "shared_twice.stim").read_text())
    machine = loop_block()
    gates = netlist_of(machine, "loop")
    runs = [lambda: sim.simulate(design, stim * 20, max_cycles=1000),
            lambda: sim.simulate(gates, loop_stimulus(1), max_cycles=1000, arena=machine.arena),
            lambda: sim.simulate(machine, loop_stimulus(1), max_cycles=1000)]
    for run in runs:
        run()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(300):
        for run in runs:
            run()
    grown = sys.getallocatedblocks() - before
    assert grown < 900, grown
