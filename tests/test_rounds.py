"""Round abstraction: the input sets ``round_abstract`` tries come from one
all-inputs cascade per state, and must give the table that trying every
input subset gives, row order and state numbers included.
"""

import random
from pathlib import Path

import pytest

import gosyn.design
import gosyn.syncmin
from helpers import chain, random_program, reference_round_abstract
from gosyn.arena import arena_of_type
from gosyn.automata import from_rows
from gosyn.design import DesignError, compile_design
from gosyn.denote import interpret
from gosyn.syncmin import NonConfluent, round_abstract
from gosyn.syntax import parse_type

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_SOURCES = [p.read_text() for p in sorted(DEMOS.glob("*.sci"))]
SMALL = [
    "fn b : exp -> fn c : com -> fn d : com -> if b then c else d",
    "fn c : com -> new x in (x := 1 ; while !x do (c ; x := 0))",
    "fn p : com * com -> (fst p ; snd p)",
    "fn v : exp -> (v and v) and v",
    "fn v : exp -> ((v and v) and v) and v",
    "fn x : cell -> x",
    "fn v : exp -> fn c : com -> while v do (c ; c)",
]
PROGRAMS = DEMO_SOURCES + SMALL + [chain(n, ";") for n in range(2, 12)] + [
    chain(n, "||") for n in range(2, 6)]


def _table(m) -> tuple:
    """Rows in insertion order, so a reordering of tried sets shows."""
    return [(s, list(row.items())) for s, row in m.transitions.items()]


def _same_as_every_subset(auto) -> None:
    assert _table(round_abstract(auto)) == _table(reference_round_abstract(auto))


def test_rounds_match_every_subset_on_the_corpus():
    for source in PROGRAMS:
        _same_as_every_subset(interpret(source))


def test_rounds_match_every_subset_on_random_blocks():
    rng = random.Random(7)
    for _ in range(60):
        _same_as_every_subset(interpret(random_program(rng, depth=3)))


def test_rounds_match_every_subset_on_design_blocks(monkeypatch):
    """Every block ``compile_design`` clocks, the managers included."""
    def checked(auto):
        _same_as_every_subset(auto)
        return round_abstract(auto)

    monkeypatch.setattr(gosyn.design, "round_abstract", checked)
    for source in DEMO_SOURCES + SMALL + [chain(3, ";"), chain(3, "||")]:
        try:
            compile_design(source)
        except DesignError:
            assert "com * com" in source  # a shared pair has no manager yet


def test_one_cascade_per_clocked_state(monkeypatch):
    """Each state's tried sets are read from its all-inputs cascade; only a
    set with several complete outcomes gets one more, in input order (par4
    took 162 cascades and par5 486 when every tried set had its own)."""
    calls = []

    def counted(auto, start, inputs, input_order=False):
        calls.append(input_order)
        return cascade(auto, start, inputs, input_order)

    cascade = gosyn.syncmin._cascade
    monkeypatch.setattr(gosyn.syncmin, "_cascade", counted)
    for n, states in ((4, 16), (5, 32)):
        calls.clear()
        assert round_abstract(interpret(chain(n, "||"))).n_states == states
        assert calls.count(False) == states, (n, len(calls))


def test_seq14_is_clocked_quickly(criterion):
    auto = interpret(chain(14, ";"))
    with criterion(9, "seq14 block: round abstraction of 15 input ports", 1):
        m = round_abstract(auto)
    assert m.n_states == 15


def _fork_automaton(rows: dict):
    return from_rows(arena_of_type(parse_type("com -> com -> com")), rows)


def test_output_order_ambiguity_is_non_confluent():
    # q1 issues q2 and q3; the two output orders land in different states
    auto = _fork_automaton({0: {"q1": 1}, 1: {"q2": 2, "q3": 3}, 2: {"q3": 4}, 3: {"q2": 5},
                            4: {}, 5: {}})
    with pytest.raises(NonConfluent, match=r"round \{q1\} from state 0 has 2 outcomes"):
        round_abstract(auto)
    with pytest.raises(NonConfluent):
        reference_round_abstract(auto)


def test_input_order_ambiguity_leaves_the_round_undefined():
    # a2 and a3 arriving together land in 6 or 7 depending on which came first
    auto = _fork_automaton({0: {"q1": 1}, 1: {"q2": 2}, 2: {"q3": 3}, 3: {"a2": 4, "a3": 5},
                            4: {"a3": 6}, 5: {"a2": 7}, 6: {}, 7: {}})
    m = round_abstract(auto)
    a2, a3 = (auto.arena.by_name(n) for n in ("a2", "a3"))
    assert m.transitions[1].get(frozenset([a2])) == (frozenset(), 2)
    assert m.transitions[1].get(frozenset([a3])) == (frozenset(), 3)
    assert m.transitions[1].get(frozenset([a2, a3])) is None
    assert _table(m) == _table(reference_round_abstract(auto))


def test_initial_state_must_be_quiescent():
    with pytest.raises(ValueError):
        round_abstract(_fork_automaton({0: {"q2": 1}, 1: {}}))
