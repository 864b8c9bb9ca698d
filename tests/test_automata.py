"""Strategy automata: relays, composition, hiding, the trace oracle, and state numbering."""

import importlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from helpers import SHARED_TYPES, apply_oracle, language, random_program, random_term, to_source
from test_pins import PROGRAMS

from gosyn.arena import Move, arena_of_type, term_arena
from gosyn.automata import (
    CompositionStall, DivergenceDetected, StrategyAutomaton, from_rows, glue_pair, relay,
    synchronize_and_hide,
)
from gosyn.denote import const_automaton, denote, diagonal, forwarder, interpret
from gosyn.design import compile_design
from gosyn.netlist import synthesis_view
from gosyn.plays import check_play
from gosyn.syncmin import minimize_under_protocol, round_abstract
from gosyn.syntax import CONSTANTS, Arrow, Com, Prod, parse, parse_type
from gosyn.typecheck import typecheck

COM = Com()


def test_from_rows_and_language():
    a = arena_of_type(COM)
    m = from_rows(a, {0: {"q": 1}, 1: {"a": 0}})
    assert m.n_states == 2
    assert language(m, 3) == {(), ("q",), ("q", "a"), ("q", "a", "q")}


def test_transitions_must_point_at_states():
    a = arena_of_type(COM)
    with pytest.raises(ValueError, match="no such state"):
        StrategyAutomaton(a, {0: {a.by_name("q"): 7}})


def test_outputs_from_is_each_rows_outputs_built_once():
    m = denote(typecheck(parse("fn c0 : com -> fn c1 : com -> c0 || c1")))
    for s, row in m.transitions.items():
        want = tuple(x for x in row if not m.arena.is_input(x))
        assert m.outputs_from(s) == want
        assert m.outputs_from(s) is m.outputs_from(s)

def test_copycat_forwards_both_ways():
    cc = forwarder(COM, "x", COM)
    assert language(cc, 4) == {
        (), ("q1",), ("q1", "q2"), ("q1", "q2", "a2"), ("q1", "q2", "a2", "a1")}


def test_relay_stays_inside_the_protocol():
    t = parse_type("com -> com")
    cc = forwarder(t, "f", t)
    for tr in language(cc, 8):
        assert check_play(cc.arena, tr).ok


def test_relay_rejects_same_polarity_twins():
    a = term_arena(COM, [("x", COM)])
    with pytest.raises(ValueError, match="complementary"):
        relay(a, {a.by_name("q1"): a.by_name("a2"),
                  a.by_name("a2"): a.by_name("q1")})


def test_identity_application_is_the_identity():
    lhs = interpret("(fn x : com -> x) skip")
    rhs = interpret("skip")
    assert lhs.n_states == rhs.n_states == 2
    assert language(lhs, 6) == language(rhs, 6)


def test_hiding_agrees_with_the_trace_oracle():
    td = typecheck(parse("skip ; skip"))
    fn, arg = (denote(c) for c in td.children)
    assert apply_oracle(fn, arg, td.ctx, 8) == language(denote(td), 8)


def test_hiding_agrees_with_the_trace_oracle_under_a_binder():
    td = typecheck(parse("fn f : com -> com -> f skip"))
    body = td.children[0]
    fn, arg = (denote(c) for c in body.children)
    assert apply_oracle(fn, arg, body.ctx, 10) == language(denote(body), 10)


def test_livelock_is_reported_not_built():
    with pytest.raises(DivergenceDetected) as e:
        interpret("while 1 do skip")
    assert e.value.cycle == ("q2", "t2", "q3", "a3")


def test_terminating_loop_composes():
    m = interpret("while 0 do skip")
    assert ("q", "a") in language(m, 2)


def test_glue_pair_rejects_idle_clashes():
    a = arena_of_type(COM)
    mk = lambda: from_rows(a, {0: {"q": 1}, 1: {"a": 0}})
    ident = {m: m for m in a.moves}
    with pytest.raises(ValueError, match="clash"):
        glue_pair(mk(), mk(), a, ident, ident)


def test_trimmed_renumbers_breadth_first():
    a = arena_of_type(COM)
    m = StrategyAutomaton(a, {0: {a.by_name("q"): 9}, 9: {a.by_name("a"): 0}})
    t = m.trimmed()
    assert sorted(t.transitions) == [0, 1]
    assert language(t, 4) == language(m, 4)


def _numbered_graphs() -> list[tuple]:
    """(label, machine, whether every state must be reachable from state 0)."""
    graphs = [(name, const_automaton(name), True) for name in CONSTANTS]
    for ty in map(parse_type, SHARED_TYPES):
        graphs += [(f"forwarder {ty}", forwarder(ty, "x", ty), True),
                   (f"diagonal {ty}", diagonal(ty), True)]
        if isinstance(ty, Prod):
            graphs += [(f"projection {which} {ty}",
                        forwarder((ty.left, ty.right)[which], "p", ty, (which,)), True)
                       for which in (0, 1)]
    rng = random.Random(7)
    blocks = [(f"random block {k}", random_program(rng, depth=3)) for k in range(30)]
    for name, source in [*PROGRAMS.items(), *blocks]:
        try:
            auto = interpret(source)
        except CompositionStall:
            continue  # cell_fst
        raw = round_abstract(auto)
        small = minimize_under_protocol(raw)
        # a closed cover need not keep every class reachable
        graphs += [(f"{name} denote", auto, True), (f"{name} round_abstract", raw, True),
                   (f"{name} minimized", small, False),
                   (f"{name} synthesis_view", synthesis_view(small)[0], True)]
    return graphs


def test_state_0_is_initial_and_ids_run_from_0():
    graphs = _numbered_graphs()
    assert len(graphs) > 200
    for label, m, reach_all in graphs:
        n = m.n_states
        assert n and sorted(m.transitions) == list(range(n)), label  # so state 0 has a row
        target = (lambda e: e) if isinstance(m, StrategyAutomaton) else (lambda e: e[1])
        seen, work = {0}, [0]
        while work:
            for d in map(target, m.transitions[work.pop()].values()):
                if d not in seen:
                    seen.add(d)
                    work.append(d)
        assert not reach_all or len(seen) == n, label


def _layout(m: StrategyAutomaton) -> tuple:
    return [(s, list(row.items())) for s, row in m.transitions.items()]


def test_hiding_numbers_states_as_trimmed_does(monkeypatch):
    # every composition while compiling the demos and 80 random programs
    denote_module = importlib.import_module("gosyn.denote")
    hide = denote_module.synchronize_and_hide
    hidden = []

    def recorded(*args):
        out = hide(*args)
        hidden.append(out[0])
        return out

    monkeypatch.setattr(denote_module, "synchronize_and_hide", recorded)
    for path in sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.sci")):
        compile_design(path.read_text())
    rng = random.Random(5)
    for _ in range(80):
        interpret(random_program(rng, depth=3))
    assert len(hidden) == 303
    assert [_layout(m) for m in hidden] == [_layout(m.trimmed()) for m in hidden]


def test_remapped_preserves_structure():
    src = arena_of_type(COM)
    dst = term_arena(COM, ())
    m = from_rows(src, {0: {"q": 1}, 1: {"a": 0}})
    mapped = m.remapped(dst, {src.by_name("q"): dst.by_name("q"),
                              src.by_name("a"): dst.by_name("a")})
    assert language(mapped, 2) == {(), ("q",), ("q", "a")}


def test_stats_report_product_and_hidden_sizes():
    td = typecheck(parse("fn x : com -> x"))
    body = td.children[0]
    fn = denote(td)
    arg = interpret("skip")
    fty = fn.arena.face("ret").ty
    keys = [(m.path, m.token) for m in arena_of_type(fty.arg).moves]
    link = {Move("ret", (0,) + p, tok): Move("ret", p, tok) for p, tok in keys}
    out = term_arena(fty.res, ())
    relabel_a = {m: Move("ret", m.path[1:], m.token)
                 for m in fn.arena.moves if m.path[0] == 1}
    auto, stats = synchronize_and_hide(fn, arg, link, out, relabel_a, {})
    assert (stats.product_states, stats.hidden_events, stats.stalls) == (4, 2, ())
    assert auto.n_states == 2


# (product states, hidden events, stalls, first stall) of each composition
# ``denote`` makes, in call order; ``cell_fst`` stops at its stalled projection
DENOTE_STATS = {
    "fn c : com -> new x in (x := 1 ; while !x do (c ; x := 0))": [
        (8, 4, 0, None), (8, 3, 0, None), (8, 4, 0, None), (10, 4, 0, None),
        (13, 5, 0, None), (15, 4, 0, None), (14, 10, 0, None)],
    "fn v : exp -> ((v and v) and v) and v": [
        (18, 9, 0, None), (24, 11, 0, None), (30, 11, 0, None)],
    "fn p : cell * exp -> fst p": [(200, 51, 104, "wt2 has no taker")],
}


@pytest.mark.parametrize("source", DENOTE_STATS)
def test_denote_reports_pinned_composition_stats(source, monkeypatch):
    denote_module = importlib.import_module("gosyn.denote")
    real, got = denote_module.synchronize_and_hide, []

    def spy(*args):
        auto, stats = real(*args)
        got.append((stats.product_states, stats.hidden_events, len(stats.stalls),
                    stats.stalls[0] if stats.stalls else None))
        return auto, stats

    monkeypatch.setattr(denote_module, "synchronize_and_hide", spy)
    try:
        denote(typecheck(parse(source)))
    except CompositionStall:
        pass
    assert got == DENOTE_STATS[source]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_every_application_matches_the_oracle(seed):
    rng = random.Random(seed)
    fty = rng.choice((Arrow(COM, COM), Arrow(parse_type("exp"), COM)))
    fn_t = random_term(rng, fty, (), 2)
    arg_t = random_term(rng, fty.arg, (), 2)
    td = typecheck(parse(f"({to_source(fn_t)}) ({to_source(arg_t)})"))
    fn, arg = (denote(c) for c in td.children)
    assert apply_oracle(fn, arg, td.ctx, 8) == language(denote(td), 8)
