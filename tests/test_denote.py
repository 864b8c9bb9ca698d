"""From programs to machines: constants, identifiers, sharing."""

import random

from hypothesis import given, settings, strategies as st
from helpers import contraction, language, random_program

from gosyn.denote import const_automaton, denote, diagonal, interpret
from gosyn.plays import check_play
from gosyn.syntax import CONSTANTS, Com, parse
from gosyn.typecheck import typecheck

COM = Com()

CONST_STATES = {
    "skip": 2, "1": 2, "0": 2,
    "seq": 6, "par": 10,
    "and": 9, "or": 9, "xor": 9, "eq": 9, "not": 5,
    "if": 8, "while": 6,
    "asg": 7, "der": 5, "newvar": 9,
}


def test_constant_machine_sizes():
    for name, want in CONST_STATES.items():
        assert const_automaton(name).n_states == want, name


def test_every_constant_is_covered():
    assert set(CONST_STATES) == set(CONSTANTS)


def test_skip_answers_immediately():
    m = const_automaton("skip")
    assert language(m, 2) == {(), ("q",), ("q", "a")}


def test_truth_constants_answer_their_token():
    assert ("q", "t") in language(const_automaton("1"), 2)
    assert ("q", "f") in language(const_automaton("0"), 2)
    assert ("q", "f") not in language(const_automaton("1"), 2)


def test_seq_runs_left_then_right():
    m = const_automaton("seq")
    full = ("q1", "q2", "a2", "q3", "a3", "a1")
    assert full in language(m, 6)
    assert ("q1", "q3") not in language(m, 2)


def test_par_forks_in_either_order():
    m = const_automaton("par")
    lang = language(m, 3)
    assert ("q1", "q2", "q3") in lang and ("q1", "q3", "q2") in lang


def test_while_loops_back_to_the_guard():
    m = const_automaton("while")
    lang = language(m, 8)
    assert ("q1", "q2", "f2", "a1") in lang
    assert ("q1", "q2", "t2", "q3", "a3", "q2", "f2", "a1") in lang


def test_newvar_reads_back_what_it_stored():
    m = const_automaton("newvar")
    lang = language(m, 7)
    assert ("q1", "q2", "q3", "f3") in lang                      # fresh bit is false
    assert ("q1", "q2", "wt3", "a3", "q3", "t3") in lang         # write true, read true
    assert ("q1", "q2", "wt3", "a3", "q3", "f3") not in lang


def test_newvar_resets_between_activations():
    m = const_automaton("newvar")
    first = ("q1", "q2", "wt3", "a3", "a2", "a1")
    again = first + ("q1", "q2", "q3", "f3")
    assert again in language(m, len(again))


def test_identifier_semantics_is_the_term_itself():
    td = typecheck(parse("x"), (("x", COM),))
    m = denote(td)
    assert language(m, 4) == {
        (), ("q1",), ("q1", "q2"), ("q1", "q2", "a2"), ("q1", "q2", "a2", "a1")}


def test_interpretation_size_of_sequential_sharing():
    assert interpret("fn x : com -> x ; x").n_states == 6
    assert interpret("fn f : com -> com -> f skip ; f skip").n_states == 8


def test_diagonal_serializes_clients():
    d = diagonal(COM)
    assert d.n_states == 7
    lang = language(d, 6)
    assert ("Q'1", "Q'0", "A'0", "A'1", "Q'2", "Q'0") in lang
    assert ("Q'2", "Q'0", "A'0", "A'2", "Q'1", "Q'0") in lang
    # the second client is not heard while a session is open
    assert ("Q'1", "Q'2") not in lang
    assert ("Q'1", "Q'0", "Q'2") not in lang


def test_contraction_equals_sharing_in_the_source():
    td = typecheck(parse("x ; y"), (("x", COM), ("y", COM)))
    merged = contraction(denote(td), "x", "y", "z", (("z", COM),))
    shared = denote(typecheck(parse("z ; z"), (("z", COM),)))
    assert language(merged, 10) == language(shared, 10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_interpretations_stay_inside_their_protocol(seed):
    rng = random.Random(seed)
    m = interpret(random_program(rng, depth=2))
    for tr in language(m, 7):
        assert check_play(m.arena, tr).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_every_machine_state_is_reachable(seed):
    rng = random.Random(seed)
    m = interpret(random_program(rng, depth=2))
    seen = {0}
    work = [0]
    while work:
        s = work.pop()
        for dst in m.transitions[s].values():
            if dst not in seen:
                seen.add(dst)
                work.append(dst)
    assert seen == set(m.transitions)
