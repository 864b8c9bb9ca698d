"""The simulator's waveforms and how much work its settle loop does.

The VCD goldens in ``tests/golden`` pin ``gosyn sim --vcd`` on the
``shared_twice`` design and the dump of the gate-level ``loop.sci`` netlist
byte for byte, idle cycle included.  A unit is previewed again within a
cycle only when its input pulses grow; a counter on the machine units'
previews checks that the settle loop skips the others.
"""

from pathlib import Path

from gosyn import sim
from gosyn.cli import main
from gosyn.design import clock_block, compile_design
from gosyn.denote import denote
from gosyn.netlist import netlist_of
from gosyn.syntax import parse
from gosyn.typecheck import typecheck

HERE = Path(__file__).resolve().parent
DEMOS = HERE.parent / "demos"
GOLDEN = HERE / "golden"

# two sessions of the loop: two bodies with an idle cycle inside, then none
LOOP_STIM = [("q1",), ("t3",), ("a2",), ("t3",), (), ("a2",), ("f3",), ("q1",), ("f3",)]


def test_shared_twice_vcd_golden(tmp_path, capsys):
    vcd = tmp_path / "shared_twice.vcd"
    code = main(["sim", str(DEMOS / "shared_twice.sci"),
                 "--stimulus", str(DEMOS / "shared_twice.stim"), "--vcd", str(vcd)])
    capsys.readouterr()
    assert code == 0
    assert vcd.read_bytes() == (GOLDEN / "shared_twice.vcd").read_bytes()


def test_loop_netlist_vcd_golden(tmp_path):
    machine = clock_block(denote(typecheck(parse((DEMOS / "loop.sci").read_text()))), "protocol")
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
