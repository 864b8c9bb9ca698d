"""The round table gate synthesis starts from: races dropped, then pruning.

``synthesis_view`` drops the rounds in which two opening requests land in
one cycle before it prunes inadmissible rounds, so the protocol product
that pruning walks never enters a context only a race reaches.  Its table
must equal the one pruning first gives (``helpers.reference_synthesis_view``)
on call managers, on the blocks whose openings race in ``test_sim`` and on
random blocks: the order changes the work, not the result.  A call manager
is the clocked duplicator, and none of its rounds holds two client
openings, so there is no race to drop; on ``fn x : cell -> x`` the order
keeps pruning out of every context that only a race reaches.
"""

import random

import pytest

from helpers import SHARED_TYPES, random_program, reference_synthesis_view
from test_sim import RACES
from gosyn import syncmin
from gosyn.arena import arena_of_type
from gosyn.denote import denote, interpret
from gosyn.design import clock_block, manager_machine
from gosyn.netlist import emit_verilog, netlist_of, synthesis_view
from gosyn.syncmin import minimize_under_protocol, round_abstract
from gosyn.syntax import parse, parse_type
from gosyn.typecheck import typecheck


def _input_initials(m) -> frozenset:
    return frozenset(x for x in m.arena.initials if m.arena.is_input(x))


def _check_view(m) -> None:
    view, ref = synthesis_view(m)[0], reference_synthesis_view(m)[0]
    assert view.transitions == ref.transitions


# a manager serves one opening request per client and refuses other types
MANAGED = [t for t in SHARED_TYPES if len(arena_of_type(parse_type(t)).initials) == 1]


def test_pruning_never_decides_a_race(monkeypatch):
    m = clock_block(denote(typecheck(parse("fn x : cell -> x"))))
    inits = _input_initials(m)
    assert sum(len(i & inits) > 1 for row in m.transitions.values() for i in row) == 14
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
    assert products == [16]  # 40 when pruning walks the race rows too


@pytest.mark.parametrize("ty", MANAGED)
def test_no_manager_round_holds_two_client_openings(ty):
    m = manager_machine(parse_type(ty))
    inits = _input_initials(m)
    assert len(inits) == 2
    assert [(s, m.names(i)) for s, row in m.transitions.items() for i in row
            if len(i & inits) > 1] == []


@pytest.mark.parametrize("ty", MANAGED)
def test_a_manager_view_is_the_table_pruning_first_gives(ty):
    _check_view(manager_machine(parse_type(ty)))


def test_a_block_view_is_the_table_pruning_first_gives():
    rng = random.Random(2009)
    autos = [denote(typecheck(parse(source))) for source, _ in RACES]
    autos += [interpret(random_program(rng, depth=3)) for _ in range(30)]
    for auto in autos:
        raw = round_abstract(auto)
        for m in (raw, minimize_under_protocol(raw)):
            _check_view(m)


def test_a_cell_manager_synthesizes_quickly(criterion):
    m = manager_machine(parse_type("cell -> com"))
    with criterion(12, "manager_machine(cell -> com): netlist_of and emit_verilog", 1):
        assert "module mgr" in emit_verilog(netlist_of(m, "mgr"))
