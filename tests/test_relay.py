"""The copycat relay behind every identifier and projection.

``relay`` builds its states on demand from pending-forest keys.  It must give
the very automaton, state numbering included, that the eager construction
over the arena's whole protocol automaton gives, and on the types where the
eager construction is a cliff it must stay small and fast.
"""

import pytest
from helpers import language, reference_relay

from gosyn.arena import Move
from gosyn.automata import relay
from gosyn.denote import forwarder
from gosyn.plays import check_play
from gosyn.syntax import Prod, parse_type

# ``cell * exp`` is left out: its eager reference costs about 6 s.
IDENTITIES = ("com", "exp", "cell", "com -> com", "exp * com", "(com -> exp) -> com")
PRODUCTS = ("cell * exp", "exp * cell", "com * com")


def _twins(arena, var: str, prefix: tuple) -> dict:
    """Each result-face move paired with the move at ``prefix`` + its path on ``var``."""
    twins = {}
    for m in arena.moves:
        if m.face == "ret":
            other = Move(var, prefix + m.path, m.token)
            twins[m], twins[other] = other, m
    return twins


def _assert_same(auto, twins) -> None:
    mine, ref = relay(auto.arena, twins), reference_relay(auto.arena, twins)
    assert mine.transitions == ref.transitions
    assert mine.transitions == auto.transitions  # the twins are the ones denote uses


@pytest.mark.parametrize("ty", IDENTITIES)
def test_identity_relay_equals_the_eager_construction(ty):
    t = parse_type(ty)
    auto = forwarder(t, "x", t)
    _assert_same(auto, _twins(auto.arena, "x", ()))


@pytest.mark.parametrize("ty", PRODUCTS)
@pytest.mark.parametrize("which", (0, 1))
def test_projection_relay_equals_the_eager_construction(ty, which):
    pty = parse_type(ty)
    assert isinstance(pty, Prod)
    auto = forwarder((pty.left, pty.right)[which], "p", pty, (which,))
    _assert_same(auto, _twins(auto.arena, "p", (which,)))


def test_cell_relays_build_within_budget(criterion):
    with criterion(4, "cell * exp and cell * cell identity relays build", 5):
        sizes = {ty: forwarder(parse_type(ty), "x", parse_type(ty)).n_states
                 for ty in ("cell * exp", "cell * cell")}
    assert sizes == {"cell * exp": 385, "cell * cell": 14_221}


def test_cell_exp_relay_stays_inside_the_protocol():
    t = parse_type("cell * exp")
    cc = forwarder(t, "x", t)
    for tr in language(cc, 6):
        assert check_play(cc.arena, tr).ok, tr
