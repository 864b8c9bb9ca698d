"""Gate logic computes what one minterm per round does, wherever it is cared for.

``netlist_of`` writes every sum of row minterms as a sum of prime cubes,
lets a state bit hold unless one of its own rows leaves it, and shares one
term among states with equal cube sums.  Output cones are exact: each is
compared with ``helpers.reference_netlist_of``'s, which writes one minterm
per round, on every one-hot state code, a few codes that are not one-hot,
and every input subset.

Next-state cones are compared only on each one-hot code and that state's
care set (``helpers.care_sets``): its rows, the empty round, and every input
set the protocol admits at one of the state's contexts in the product
walk.  This is a narrowing of the contract, made on purpose: no legal
environment presents any other input set in that state, and the safe-mode
testbench holds such rounds back, so they are don't-cares that the
next-state logic is minimized against.  The hold contract is checked on the
same care set: from each one-hot state, the next state is the target of the
row the pulses select in ``synthesis_view``, or the state itself when none
does.  So the next code is one-hot again, and codes no run reaches need no
check.  The library's care sets must equal the brute-force ones.

The modules are the instances of the pinned designs that compile, the call
managers of the pinned shared types with at most nine inputs, and thirty
random depth-3 blocks.  That each state bit is named after its state's id
in ``synthesis_view``, which numbers the initial state 0, is also checked
on the three larger managers.
"""

import functools
import random

from helpers import SHARED_TYPES, care_sets, initial_first, random_program, reference_netlist_of
from test_pins import PROGRAMS
from gosyn import netlist
from gosyn.automata import CompositionStall
from gosyn.denote import interpret
from gosyn.design import DesignError, clock_block, compile_design, manager_machine
from gosyn.netlist import _cubes, netlist_of, synthesis_view
from gosyn.syntax import parse_type

MAX_MANAGER_INPUTS = 9


@functools.cache
def _managers() -> tuple:
    """(label, machine) of the call manager of every pinned shared type that has one."""
    managers = []
    for ty in SHARED_TYPES:
        try:
            managers.append((f"manager {ty}", manager_machine(parse_type(ty))))
        except DesignError:
            continue  # a product or cell parameter gets no call manager
    return tuple(managers)


@functools.cache
def _machines() -> tuple:
    """(label, machine) of every module the checks run on."""
    seen: dict[int, tuple] = {}
    for name, source in PROGRAMS.items():
        try:
            design = compile_design(source, name=name)
        except (CompositionStall, DesignError):
            continue  # pair_seq and cell_fst have no design
        for iname, inst in design.instances.items():
            seen.setdefault(id(inst.machine), (f"{name}.{iname}", inst.machine))
    managers = [(label, m) for label, m in _managers()
                if len(m.arena.input_names()) <= MAX_MANAGER_INPUTS]
    rng = random.Random(2009)
    blocks = [(f"random block {k}", clock_block(interpret(random_program(rng, depth=3))))
              for k in range(30)]
    return (*seen.values(), *managers, *blocks)


def _pulse_sets(inputs: tuple) -> list[dict]:
    return [{v: bool(bits >> k & 1) for k, v in enumerate(inputs)}
            for bits in range(1 << len(inputs))]


@functools.cache
def _cared(m) -> dict[str, set[frozenset]]:
    """Per state bit, the names of the input sets that state is cared for on."""
    view, _ = synthesis_view(m)
    order = initial_first(view.transitions)
    return {f"st{order[s]}": {frozenset(map(view.arena.name, i)) for i in care}
            for s, care in care_sets(view).items()}


def test_care_sets_are_the_brute_force_ones():
    for label, m in _machines():
        view, contexts = synthesis_view(m)
        names = view.arena.input_names()
        got = {s: {frozenset(v for k, v in enumerate(names) if i >> k & 1) for i in care}
               for s, care in netlist.care_sets(view, contexts).items()}
        want = {s: {frozenset(map(view.arena.name, i)) for i in care}
                for s, care in care_sets(view).items()}
        assert got == want, label


def test_the_modules_cover_designs_managers_and_random_blocks():
    labels = [label for label, _ in _machines()]
    assert sum(label.startswith("manager ") for label in labels) == 8
    assert sum(label.startswith("random block ") for label in labels) == 30
    assert {"loop.body", "shared_twice.body", "par4.body", "and3.body"} <= set(labels)


def test_state_bits_are_the_views_own_ids():
    # netlist_of names bit ``st{s}`` after state ``s`` of the view, which
    # prune_inadmissible numbers with state 0 first
    big = [(label, m) for label, m in _managers()
           if len(m.arena.input_names()) > MAX_MANAGER_INPUTS]
    assert len(big) == 3
    for label, m in (*_machines(), *big):
        view, contexts = synthesis_view(m)
        n = len(view.transitions)
        assert sorted(view.transitions) == sorted(contexts) == list(range(n)), label
        assert contexts[0][0] == (), label  # the walk starts at state 0 with nothing pending
        gates = netlist_of(m)
        assert gates.state_bits == (tuple(f"st{s}" for s in range(n)) if n > 1 else ()), label
        assert gates.reset_state() == {b: b == "st0" for b in gates.state_bits}, label


def test_cones_equal_one_minterm_per_round():
    rng = random.Random(2009)
    for label, m in _machines():
        got, want = netlist_of(m), reference_netlist_of(m)
        assert (got.inputs, got.outputs, got.state_bits) == \
            (want.inputs, want.outputs, want.state_bits), label
        n = len(got.state_bits)
        codes = [tuple(j == i for j in range(n)) for i in range(n)] or [()]
        codes += [tuple(rng.random() < 0.5 for _ in range(n)) for _ in range(2 if n else 0)]
        for code in codes:
            state = dict(zip(got.state_bits, code))
            hot = [b for b in got.state_bits if state[b]]
            cared = _cared(m)[hot[0]] if len(hot) == 1 else set()
            for pulses in _pulse_sets(got.inputs):
                (outs, nxt), (ref_outs, ref_nxt) = got.eval(state, pulses), want.eval(state, pulses)
                assert outs == ref_outs, (label, code, pulses)
                if frozenset(p for p, on in pulses.items() if on) in cared:
                    assert nxt == ref_nxt, (label, code, pulses)


def test_a_state_bit_moves_only_by_its_rows():
    for label, m in _machines():
        gates, (view, _) = netlist_of(m), synthesis_view(m)
        if not gates.clocked:
            continue
        arena = view.arena
        states = sorted(view.transitions)
        order = initial_first(states)
        bit = {s: f"st{order[s]}" for s in states}
        for s in states:
            here = {b: b == bit[s] for b in gates.state_bits}
            for pulsed in _cared(m)[bit[s]]:
                pulses = {p: p in pulsed for p in gates.inputs}
                row = view.transitions[s].get(frozenset(map(arena.by_name, pulsed)))
                to = s if row is None else row[1]
                _, nxt = gates.eval(here, pulses)
                assert nxt == {b: b == bit[to] for b in gates.state_bits}, (label, s, pulses)


def _holds(cube: tuple, m: int) -> bool:
    care, val = cube
    return m & care == val


def test_cubes_are_an_exact_sorted_sum_of_primes():
    rng = random.Random(1956)
    for _ in range(300):
        n = rng.randint(0, 6)
        full = (1 << n) - 1
        on = {m for m in range(1 << n) if rng.random() < rng.random()}
        cubes = _cubes(full, on)
        assert cubes == sorted(cubes)
        assert {m for m in range(1 << n) if any(_holds(c, m) for c in cubes)} == on
        for care, val in cubes:
            for k in range(n):
                b = 1 << k
                if care & b:  # dropping any literal would reach the OFF set
                    wider = (care & ~b, val & ~b)
                    assert any(_holds(wider, m) and m not in on for m in range(1 << n))
        # no cube is covered by the others
        for c in cubes:
            rest = [d for d in cubes if d != c]
            assert any(_holds(c, m) and not any(_holds(d, m) for d in rest) for m in on)


def test_cubes_with_dont_cares_are_a_sorted_irredundant_sum_of_primes():
    rng = random.Random(1984)
    for _ in range(300):
        n = rng.randint(0, 7)
        full = (1 << n) - 1
        split = {m: rng.choice(("on", "off", "dc")) for m in range(1 << n)}
        on = {m for m, side in split.items() if side == "on"}
        off = {m for m, side in split.items() if side == "off"}
        cubes = _cubes(full, on, off)
        assert cubes == sorted(cubes)
        assert all(any(_holds(c, m) for c in cubes) for m in on)
        assert not any(_holds(c, m) for c in cubes for m in off)
        for care, val in cubes:
            for k in range(n):
                b = 1 << k
                if care & b:  # dropping any literal would reach the OFF set
                    assert any(_holds((care & ~b, val & ~b), m) for m in off)
        for c in cubes:
            rest = [d for d in cubes if d != c]
            assert any(_holds(c, m) and not any(_holds(d, m) for d in rest) for m in on)
