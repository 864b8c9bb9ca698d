"""The back half of the pipeline, end to end: clocking, both reducers and
gate synthesis must not change what a block does.

Each machine (raw, plainly reduced and protocol-minimized) is driven by an
adaptively grown legal stimulus with idle cycles mixed in, then the same
stimulus drives its netlist; the two runs must agree cycle for cycle.  Both
reduced machines must also reproduce every protocol-admissible round of the
raw one.
"""

import random
from pathlib import Path

from helpers import grow_stimulus, random_program
from gosyn.denote import interpret
from gosyn.netlist import netlist_of
from gosyn.sim import simulate
from gosyn.syncmin import (
    equivalent_under_protocol, minimize, minimize_under_protocol, round_abstract,
)

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _check_block(source: str, rng: random.Random, rounds: int) -> None:
    raw = round_abstract(interpret(source))
    reduced = minimize(raw)
    small = minimize_under_protocol(raw)
    for machine in (reduced, small):
        eq = equivalent_under_protocol(raw, machine, 64)
        assert eq.equivalent, f"{source}: {eq.diff}"
    for machine in (raw, reduced, small):
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
    with criterion(1, "30 random depth-3 blocks: netlists agree with machines, reducers exact", 60):
        for _ in range(30):
            _check_block(random_program(rng, depth=3), rng, rounds=12)


def test_demo_blocks_cosimulate_with_their_netlists(criterion):
    rng = random.Random(2009)
    with criterion(2, "demo blocks: netlists agree with machines, reducers exact", 60):
        for path in sorted(DEMOS.glob("*.sci")):
            _check_block(path.read_text(), rng, rounds=30)
