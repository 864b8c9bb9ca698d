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
check that twenty sessions cost no more than one.
"""

import gc
import hashlib
import json
import random
import sys
from pathlib import Path

from gosyn import plays, sim
from gosyn.cli import main
from gosyn.design import clock_block, compile_design, parse_wire_file
from gosyn.denote import denote
from gosyn.netlist import NetModule, netlist_of
from gosyn.syntax import parse
from gosyn.typecheck import typecheck

HERE = Path(__file__).resolve().parent
DEMOS = HERE.parent / "demos"
GOLDEN = HERE / "golden"

# two sessions of the loop: two bodies with an idle cycle inside, then none
LOOP_STIM = [("q1",), ("t3",), ("a2",), ("t3",), (), ("a2",), ("f3",), ("q1",), ("f3",)]


def loop_block():
    return clock_block(denote(typecheck(parse((DEMOS / "loop.sci").read_text()))), "protocol")


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

    def counted(self, pulsed):
        calls.append(self.name)
        return preview(self, pulsed)

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
    machine = clock_block(denote(typecheck(parse(source))), "protocol")
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
    load = lambda rel: clock_block(denote(typecheck(parse((DEMOS / rel).read_text()))), "protocol")
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


def _runs(tmp: Path):
    machine = loop_block()
    gates = netlist_of(machine, "loop")
    for seed in range(30):
        plain = loop_stimulus(seed)
        for stim in (plain, [x for r in plain for x in (r, ())], plain * 3):
            for unsafe in (False, True):
                vcd = tmp / "gates.vcd" if seed < 2 and not unsafe else None
                yield _run(gates, stim, arena=machine.arena, unsafe=unsafe, vcd=vcd)
                yield _run(machine, stim, unsafe=unsafe)
    design = compile_design((DEMOS / "shared_twice.sci").read_text(), name="shared_twice")
    rng = random.Random(11)
    for _ in range(30):
        for unsafe in (False, True):
            stim = _random_stimulus(rng, gates.inputs)
            yield _run(gates, stim, arena=machine.arena, unsafe=unsafe)
            yield _run(machine, stim, unsafe=unsafe)
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
    # 558 runs: 420 Completed, 33 Deadlock, 31 Race and 74 SimErrors, with
    # Justification, Fork and Serial violations among their diagnostics
    blob = json.dumps(list(_runs(tmp_path)), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "e6f8ed58dddba731fce40157b5bf0056b12118fbe0b1f37af48d850d74b28943")


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


def test_compiling_and_simulating_leave_no_cyclic_garbage():
    source = (DEMOS / "shared_twice.sci").read_text()
    stim = sim.parse_stimulus((DEMOS / "shared_twice.stim").read_text())
    gc.collect()
    gc.disable()
    try:
        design = compile_design(source, name="shared_twice")
        machine = loop_block()
        gates = netlist_of(machine, "loop")
        assert gc.collect() == 0
        assert sim.simulate(design, stim * 20, max_cycles=1000).status == "Completed"
        assert gc.collect() == 0
        report = sim.simulate(gates, loop_stimulus(1), max_cycles=1000, arena=machine.arena)
        assert report.status == "Completed"
        assert gc.collect() == 0
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
