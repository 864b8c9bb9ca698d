"""The back half of the pipeline, end to end: clocking, the reducer and
gate synthesis must not change what a block does.

Each machine (raw and protocol-minimized) is driven by an adaptively grown
legal stimulus with idle cycles mixed in, then the same stimulus drives its
netlist; the two runs must agree cycle for cycle.  The reduced machine must
also reproduce every protocol-admissible round of the raw one.

Round linearization asks ``plays.may_linearize`` to refute a round only
once its search meets a refused move; the rounds of the ``shared_twice``
demo, simulated or checked as a trace, never do, so they never pay for it.

A parameter used three or more times gets a chain of call managers that
share one machine, clocked and synthesized once.

Support reduction buckets each state's ON rounds by their projection, so a
``seq16`` design, whose one block has hundreds of rounds, synthesizes in a
fraction of a second.
"""

import itertools
import random
from pathlib import Path

import pytest

from helpers import chain, expr_eval, grow_stimulus, random_program
from gosyn import design as design_module, plays
from gosyn.arena import sharing_arena
from gosyn.denote import interpret
from gosyn.design import (DesignError, clock_block, compile_design, design_verilog,
                          netlists_of_design)
from gosyn.netlist import emit_verilog, module_header, netlist_of
from gosyn.plays import check_sync_trace
from gosyn.sim import parse_stimulus, simulate
from gosyn.syncmin import equivalent_under_protocol, minimize_under_protocol, round_abstract
from gosyn.syntax import parse_type

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _check_block(source: str, rng: random.Random, rounds: int) -> None:
    raw = round_abstract(interpret(source))
    small = minimize_under_protocol(raw)
    eq = equivalent_under_protocol(raw, small, 64)
    assert eq.equivalent, f"{source}: {eq.diff}"
    for machine in (raw, small):
        stim = []
        for r in grow_stimulus(machine, machine.arena, rng, rounds=rounds)[0]:
            if rng.random() < 0.3:
                stim.append(())  # an idle cycle, in which every state must hold
            stim.append(r)
        want = simulate(machine, stim, max_cycles=96)
        got = simulate(netlist_of(machine), stim, max_cycles=96, arena=machine.arena)
        assert (got.status, got.cycles, got.trace) == (want.status, want.cycles, want.trace), \
            f"{source}: stimulus {stim}"


def test_random_blocks_cosimulate_with_their_netlists(criterion):
    rng = random.Random(2009)
    with criterion(1, "30 random depth-3 blocks: netlists agree with machines, reducer exact", 60):
        for _ in range(30):
            _check_block(random_program(rng, depth=3), rng, rounds=12)


def test_demo_blocks_cosimulate_with_their_netlists(criterion):
    rng = random.Random(2009)
    with criterion(2, "demo blocks: netlists agree with machines, reducer exact", 60):
        for path in sorted(DEMOS.glob("*.sci")):
            _check_block(path.read_text(), rng, rounds=30)


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.sci")))
def test_clock_block_reduces_only_when_asked(demo):
    auto = interpret((DEMOS / f"{demo}.sci").read_text())
    raw = round_abstract(auto)
    kept = clock_block(auto, minimize=False)
    assert kept.transitions == raw.transitions
    small, want = clock_block(auto), minimize_under_protocol(raw)
    assert small.transitions == want.transitions
    assert small.n_states <= raw.n_states


@pytest.mark.parametrize("name, ok", [
    ("top", True), ("_q2", True), ("a$b", True), ("Q9_body", True),
    ("my-seq", False), ("2top_body", False), ("$x", False), ("a b", False), ("", False),
    ("é", False), ("aé", False),
])
def test_module_header_takes_only_verilog_identifiers(name, ok):
    if ok:
        assert module_header(name, True, ["a"], ["b"])[0] == f"module {name} ("
    else:
        with pytest.raises(ValueError, match="not a Verilog identifier.*--top"):
            module_header(name, True, ["a"], ["b"])


def test_legal_rounds_never_reach_the_refutation_check(monkeypatch):
    design = compile_design((DEMOS / "shared_twice.sci").read_text(), name="shared_twice")
    calls = []

    def counted(*args):
        calls.append(args)
        return may_linearize(*args)

    may_linearize = plays.may_linearize
    monkeypatch.setattr(plays, "may_linearize", counted)
    stim = parse_stimulus((DEMOS / "shared_twice.stim").read_text())
    report = simulate(design, stim)
    assert report.status == "Completed"
    mgr = [r for r in report.instance_traces["mgr_f"] if r]
    arena = sharing_arena(parse_type("com -> com"))
    ok, _, _ = check_sync_trace(arena, mgr)
    assert ok
    assert calls == []
    # the counter does see the check: an answer with nothing pending is refuted by it
    assert plays.decide_round(arena, (), [arena.by_name("A'1")]) is None
    assert len(calls) == 1


def test_seq6_block_synthesizes_quickly(criterion):
    params = " ".join(f"fn c{i} : com ->" for i in range(6))
    source = f"{params} " + " ; ".join(f"c{i}" for i in range(6))
    with criterion(6, "seq6 block: denote, minimize, netlist and Verilog", 1):
        raw = round_abstract(interpret(source))
        small = minimize_under_protocol(raw)
        assert "module seq6" in emit_verilog(netlist_of(small, "seq6"))
        eq = equivalent_under_protocol(raw, small, 64)
        assert eq.equivalent, eq.diff


def test_seq16_design_synthesizes_quickly(criterion):
    # support reduction compared every ON round with every OFF round per
    # input and output: about 2.4 s in design_verilog alone
    with criterion(11, "seq16 design: compile_design and design_verilog", 1):
        design = compile_design(chain(16, ";"), name="seq16")
        assert "module seq16" in design_verilog(design)


def test_compiled_cones_agree_with_the_reference_evaluator():
    designs = [compile_design(path.read_text(), name=path.stem)
               for path in sorted(DEMOS.glob("*.sci"))]
    designs.append(compile_design(chain(4, "||"), name="par4"))
    for mod in (m for d in designs for m in netlists_of_design(d)):
        states = [{b: b == hot for b in mod.state_bits} for hot in mod.state_bits] or [{}]
        for state in states:
            for k in range(len(mod.inputs) + 1):
                for on in itertools.combinations(mod.inputs, k):
                    pulses = {p: p in on for p in mod.inputs}
                    env = {**state, **pulses}
                    want = ({o: expr_eval(e, env) for o, e in mod.assigns},
                            {b: expr_eval(e, env) for b, e in mod.nexts})
                    assert mod.eval(state, pulses) == want, f"{mod.name}: {state} {on}"


def test_a_chain_of_managers_is_clocked_and_synthesized_once(monkeypatch):
    calls = {"manager_machine": 0, "netlist_of": 0}

    def counted(name):
        real = getattr(design_module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(design_module, name, counted(name))
    for uses, source in ((3, "fn v : exp -> (v and v) and v"),
                         (4, "fn c : com -> fn b : exp -> fn d : exp -> fn e : exp -> "
                             "if b then c else (if d then c else (if e then c else c))")):
        calls.update(manager_machine=0, netlist_of=0)
        design = compile_design(source)
        managers = [i for i in design.instances.values() if i.kind == "share"]
        assert len(managers) == uses - 1
        assert len({id(i.machine) for i in managers}) == 1
        assert calls["manager_machine"] == 1
        if uses == 3:  # and3's chain of sequenced uses is a combinational cycle
            with pytest.raises(DesignError, match="combinational cycle"):
                netlists_of_design(design)
        else:
            mods = netlists_of_design(design)
            assert [m.name for m in mods] == [f"top_{n}" for n in sorted(design.instances)]
        assert calls["netlist_of"] == 2


def test_instances_are_named_as_their_modules_are_declared():
    design = compile_design((DEMOS / "shared_twice.sci").read_text(), name="a'b")
    verilog = design_verilog(design)
    assert "module apb_body (" in verilog
    assert "  apb_body body (" in verilog
    assert "a'b" not in verilog
