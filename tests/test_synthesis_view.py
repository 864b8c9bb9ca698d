"""The round table gate synthesis starts from: races dropped, then pruning.

``synthesis_view`` drops the rounds in which two client openings land in
one cycle before it prunes inadmissible rounds, so the protocol product
that pruning walks never enters a context only a race reaches.  Its table
must be a sub-table of the one pruning first gives
(``helpers.reference_synthesis_view``): an injective state map under which
every kept round is a round of the reference with the same outputs.  Where
the arena has one input opening there is no race to drop, and the two
tables are equal.  Netlists built from either view must simulate alike on
legal stimuli grown one input a round, with an idle cycle before about 30 %
of the rounds; such stimuli never present two openings in one cycle.  On
``com`` and ``exp`` the two netlists are the same text.
"""

import random

import pytest

from helpers import (
    SHARED_TYPES, SLOW_MANAGERS, grow_stimulus, random_program, reference_synthesis_view,
)
from gosyn import netlist, syncmin
from gosyn.arena import arena_of_type
from gosyn.denote import interpret
from gosyn.design import manager_machine
from gosyn.netlist import emit_verilog, netlist_of, synthesis_view
from gosyn.sim import simulate
from gosyn.syncmin import minimize_under_protocol, round_abstract
from gosyn.syntax import parse_type


def _input_initials(m) -> frozenset:
    return frozenset(x for x in m.arena.initials if m.arena.is_input(x))


def _embed(small, big) -> None:
    """Check that a state map takes every round of ``small`` to one of ``big``."""
    image = {small.initial: big.initial}
    work = [small.initial]
    while work:
        s = work.pop()
        for i, (o, d) in small.transitions[s].items():
            assert i in big.transitions[image[s]], (s, small.names(i))
            o2, d2 = big.transitions[image[s]][i]
            assert o2 == o, (s, small.names(i))
            if d not in image:
                image[d] = d2
                work.append(d)
            assert image[d] == d2, (s, small.names(i))
    assert set(image) == set(small.transitions)
    assert len(set(image.values())) == len(image)


def _check_view(m) -> None:
    view, ref = synthesis_view(m)[0], reference_synthesis_view(m)[0]
    _embed(view, ref)
    if len(_input_initials(m)) == 1:
        assert (view.initial, view.transitions) == (ref.initial, ref.transitions)


# a manager serves one opening request per client and refuses other types
MANAGED = [t for t in SHARED_TYPES if t not in SLOW_MANAGERS
           and len(arena_of_type(parse_type(t)).initials) == 1]


def test_pruning_a_manager_never_decides_a_race(monkeypatch):
    m = manager_machine(parse_type("com -> com"))
    inits = _input_initials(m)
    rounds, products = [], []

    def decide_round(arena, key, moves):
        rounds.append(frozenset(moves))
        return real_decide(arena, key, moves)

    def product_states(machine):
        rows, index = real_product(machine)
        products.append(len(rows))
        return rows, index

    real_decide, real_product = syncmin.decide_round, syncmin._product_states
    monkeypatch.setattr(syncmin, "decide_round", decide_round)
    monkeypatch.setattr(syncmin, "_product_states", product_states)
    synthesis_view(m)
    assert rounds
    assert [sorted(m.arena.name(x) for x in r) for r in rounds if len(r & inits) > 1] == []
    assert products == [7]  # 28 when pruning walks the race rows too


@pytest.mark.parametrize("ty", MANAGED)
def test_a_manager_view_is_a_sub_table_of_pruning_first(ty):
    _check_view(manager_machine(parse_type(ty)))


def test_a_block_view_is_the_table_pruning_first_gives():
    rng = random.Random(2009)
    for _ in range(30):
        raw = round_abstract(interpret(random_program(rng, depth=3)))
        for m in (raw, minimize_under_protocol(raw)):
            _check_view(m)


def test_netlists_of_both_views_simulate_alike(monkeypatch):
    rng = random.Random(2011)
    for ty in ("com", "exp", "com -> com", "exp -> com", "com -> exp", "exp -> exp"):
        m = manager_machine(parse_type(ty))
        gates = netlist_of(m)
        with monkeypatch.context() as patch:
            patch.setattr(netlist, "synthesis_view", reference_synthesis_view)
            ref_gates = netlist_of(m)
        # equal text needs no co-simulation; only the single-value types have it
        if emit_verilog(gates) == emit_verilog(ref_gates):
            assert ty in ("com", "exp")
            continue
        idle = busy = 0
        for _ in range(300):
            stim = []
            for r in grow_stimulus(m, m.arena, rng)[0]:
                if rng.random() < 0.3:
                    stim.append(())
                    idle += 1
                stim.append(r)
                busy += 1
            got = simulate(gates, stim, max_cycles=96, arena=m.arena)
            want = simulate(ref_gates, stim, max_cycles=96, arena=m.arena)
            assert got.as_dict() == want.as_dict(), f"{ty}: stimulus {stim}"
        assert 0.2 < idle / (idle + busy) < 0.3, ty


def test_a_cell_manager_synthesizes_quickly(criterion):
    m = manager_machine(parse_type("cell -> com"))
    with criterion(12, "manager_machine(cell -> com): netlist_of and emit_verilog", 1):
        assert "module mgr" in emit_verilog(netlist_of(m, "mgr"))
