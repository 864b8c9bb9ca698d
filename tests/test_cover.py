"""The exact closed cover behind ``minimize_under_protocol``.

The search starts at the size of a largest set of pairwise-incompatible
product states and cuts subtrees whose uncovered members of that set cannot
fit.  Both bounds only skip sizes and subtrees that hold no cover, so the
cover it returns must be the very list the unbounded iterative deepening
returns, which is what keeps minimized machines and emitted Verilog
byte-identical.  Each minimized block, from the exact search or from the
greedy one, must reproduce every protocol-admissible round of its raw
machine, quiet rounds included.
"""

import random
from itertools import combinations
from pathlib import Path

import pytest

from helpers import random_program, reference_closed_cover
from gosyn import syncmin
from gosyn.denote import interpret
from gosyn.arena import arena_of_type
from gosyn.sim import simulate
from gosyn.syncmin import (
    SyncMachine, _closed_cover, _compatibility, _cover_pool, _incompatible_clique,
    _product_states, equivalent_under_protocol, minimize_under_protocol, round_abstract,
)
from gosyn.syntax import parse_type

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# Programs whose unbounded search spent seconds to minutes refuting the
# sizes below the optimum, with their minimum cover sizes.
CLIFFS = (
    ("fn v : exp -> ((v and v) and v) and v", 14),
    ("fn v : exp -> (((not 1) or (v xor (v and v))) and v)", 18),
    ("fn v : exp -> (((v eq v) eq (v xor 0)) and ((v or 1) or (not v)))", 18),
)

# Largest product-state table on which the unbounded search from size 1
# is run in full; the cliffs above are larger and take minutes.
FULL_REFERENCE_STATES = 15


def _check_same_cover(source: str) -> None:
    raw = round_abstract(interpret(source))
    rows, index = _product_states(raw)
    compat = _compatibility(raw, rows, index)
    pool = _cover_pool(compat)
    clique = _incompatible_clique(compat)
    # the bound is sound: no candidate class holds two clique members
    assert all(q not in compat[p] for p, q in combinations(clique, 2)), source
    assert all(len(c & clique) <= 1 for c in pool), source
    got = _closed_cover(rows, pool, compat, exact=True)
    assert got == reference_closed_cover(rows, pool, start=len(clique)), source
    if len(rows) <= FULL_REFERENCE_STATES:
        assert got == reference_closed_cover(rows, pool), source
    _check_equivalent(raw, source)


def _check_equivalent(raw, source: str) -> None:
    eq = equivalent_under_protocol(raw, minimize_under_protocol(raw), 64)
    assert eq.equivalent, f"{source}: {eq.diff}"


def test_bounded_cover_equals_unbounded_on_demos():
    for path in sorted(DEMOS.glob("*.sci")):
        _check_same_cover(path.read_text())


def test_bounded_cover_equals_unbounded_on_random_blocks():
    rng = random.Random(1994)
    for _ in range(40):
        _check_same_cover(random_program(rng, depth=3))


def test_bounded_cover_equals_unbounded_on_cliff_programs():
    for source, _ in CLIFFS:
        _check_same_cover(source)


def test_greedy_cover_is_equivalent_under_protocol(monkeypatch):
    monkeypatch.setattr(syncmin, "EXACT_LIMIT", 0)
    rng = random.Random(1994)
    sources = [path.read_text() for path in sorted(DEMOS.glob("*.sci"))]
    sources += [random_program(rng, depth=3) for _ in range(40)]
    for source in sources:
        _check_equivalent(round_abstract(interpret(source)), source)


def test_quiet_state_does_not_merge_with_a_restless_one():
    # draw 11 of random.Random(1994): merging a state that holds on a quiet
    # cycle with one that emits on it re-issued q3 after a2 and two idle cycles
    source = ("fn v4191 : com -> (fn v2903 : com -> (((if 1 then v4191 else skip) ; "
              "(new c3347 in v4191)) || v2903))")
    raw = round_abstract(interpret(source))
    small = minimize_under_protocol(raw)
    stim = [("q1",), ("a2",), (), (), ("a3",)]
    want = simulate(raw, stim, max_cycles=12)
    got = simulate(small, stim, max_cycles=12)
    assert (got.status, got.trace) == (want.status, want.trace)


def test_clique_is_a_largest_incompatible_set():
    # two pairwise-incompatible triangles {0,1,2} and {3,4,5} plus one
    # state incompatible with 3, 4 and 5 only
    apart = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (3, 6), (4, 6), (5, 6)}
    compat = [{q for q in range(7) if q != p and (min(p, q), max(p, q)) not in apart}
              for p in range(7)]
    assert _incompatible_clique(compat) == frozenset({3, 4, 5, 6})
    assert _incompatible_clique([set()]) == frozenset({0})


def test_cover_cliffs_minimize_quickly(criterion):
    with criterion(3, "cover cliffs (and4 and two 25-state blocks) minimize exactly", 5):
        for source, states in CLIFFS:
            raw = round_abstract(interpret(source))
            small = minimize_under_protocol(raw)
            assert small.n_states == states, source
            eq = equivalent_under_protocol(raw, small, 64)
            assert eq.equivalent, f"{source}: {eq.diff}"


@pytest.mark.parametrize("ty", ["com", "com -> com", "cell"])
def test_a_machine_with_no_rounds_stays_one_state(ty):
    m = minimize_under_protocol(SyncMachine(arena_of_type(parse_type(ty)), {0: {}}))
    assert m.transitions == {0: {}}
