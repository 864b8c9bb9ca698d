"""``emit_json`` and the suite's ``parse_json`` invert each other on every demo.

Parsing emitted JSON must rebuild an equal object, and emitting that object
again must give the same text byte for byte.
"""

from pathlib import Path

import pytest

from helpers import parse_json
from gosyn.denote import interpret
from gosyn.netlist import netlist_of
from gosyn.serialize import emit_json
from gosyn.syncmin import minimize_under_protocol, round_abstract

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _round_trip(x):
    text = emit_json(x)
    back = parse_json(text)
    assert type(back) is type(x)
    assert emit_json(back) == text
    return back


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.sci")), ids=lambda p: p.stem)
def test_demo_round_trips_through_json(path):
    auto = interpret(path.read_text())
    _round_trip(auto.arena)
    back = _round_trip(auto)
    assert back.transitions == auto.transitions
    raw = round_abstract(auto)
    for machine in (raw, minimize_under_protocol(raw)):
        back = _round_trip(machine)
        assert back.transitions == machine.transitions
        assert back.arena.port_names() == machine.arena.port_names()
        net = netlist_of(machine)
        assert _round_trip(net) == net
