"""Interface construction: ports, polarities, enabling, naming.

Every arena is built from one walk over each face's type;
``helpers.reference_arena`` builds the same tables by four separate walks,
and the two must agree on ground types, products, arrows up to third
order, term interfaces with two context faces and every shared type's
duplicator interface.
"""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import SHARED_TYPES, arena_tables, reference_arena, reference_sharing_names
from gosyn.arena import Arena, Face, Move, arena_of_type, sharing_arena, term_arena
from gosyn.denote import forwarder
from gosyn.syntax import Com, parse_type


def names(a):
    return tuple(a.name(m) for m in a.moves)


def test_command_interface():
    a = arena_of_type(parse_type("com"))
    assert names(a) == ("q", "a")
    q, ack = a.moves
    assert a.polarity(q) == "O" and a.is_question(q) and q in a.initials
    assert a.polarity(ack) == "P" and not a.is_question(ack)
    assert a.enablers_of(ack) == frozenset({q})


def test_expression_interface_answers_both_ways():
    a = arena_of_type(parse_type("exp"))
    assert names(a) == ("q", "t", "f")
    q = a.by_name("q")
    assert {y for x, y in a.enabling if x == q} == {a.by_name("t"), a.by_name("f")}


def test_storage_interface():
    a = arena_of_type(parse_type("cell"))
    assert names(a) == ("q", "t", "f", "wt", "wf", "a")
    assert {a.name(m) for m in a.initials} == {"q", "wt", "wf"}
    ack = a.by_name("a")
    assert a.enablers_of(ack) == {a.by_name("wt"), a.by_name("wf")}


def test_function_interface_flips_argument_polarity():
    a = arena_of_type(parse_type("com -> com"))
    assert names(a) == ("q1", "a1", "q2", "a2")
    assert a.polarity(a.by_name("q1")) == "O"
    assert a.polarity(a.by_name("a1")) == "P"
    assert a.polarity(a.by_name("q2")) == "P"   # the program asks for its argument
    assert a.polarity(a.by_name("a2")) == "O"
    assert a.enablers_of(a.by_name("q2")) == {a.by_name("q1")}
    assert a.enablers_of(a.by_name("a2")) == {a.by_name("q2")}


def test_second_order_interface_flips_twice():
    a = arena_of_type(parse_type("(com -> com) -> com"))
    assert names(a) == ("q1", "a1", "q2", "a2", "q3", "a3")
    ins = a.input_names()
    outs = a.output_names()
    assert ins == ("q1", "a2", "q3")
    assert outs == ("a1", "q2", "a3")
    assert a.enablers_of(a.by_name("q3")) == {a.by_name("q2")}


def test_product_argument_shares_the_root_question():
    a = arena_of_type(parse_type("com * com -> com"))
    assert names(a) == ("q1", "a1", "q2", "a2", "q3", "a3")
    q1 = a.by_name("q1")
    assert a.enablers_of(a.by_name("q2")) == {q1}
    assert a.enablers_of(a.by_name("q3")) == {q1}


def test_single_occurrence_interfaces_keep_bare_tokens():
    assert names(arena_of_type(parse_type("com"))) == ("q", "a")
    assert names(arena_of_type(parse_type("exp"))) == ("q", "t", "f")


def test_enabling_alternates_polarity():
    for s in ("com", "exp", "cell", "com -> com", "(com -> com) -> com",
              "com * com -> com", "(exp -> exp) -> com -> com"):
        a = arena_of_type(parse_type(s))
        for src, dst in a.enabling:
            assert a.polarity(src) != a.polarity(dst)
            assert a.is_question(src)


def test_initial_moves_are_opponent_questions():
    for s in ("com", "cell", "com -> com", "(com -> com) -> com"):
        a = arena_of_type(parse_type(s))
        for m in a.initials:
            assert a.polarity(m) == "O"
            assert a.is_question(m)
            assert not a.enablers_of(m)


def test_term_interface_adds_flipped_context_faces():
    a = term_arena(Com(), (("x", Com()),))
    assert [f.label for f in a.faces] == ["ret", "x"]
    assert [f.flipped for f in a.faces] == [False, True]
    assert [f.is_result for f in a.faces] == [True, False]
    assert names(a) == ("q1", "a1", "q2", "a2")
    # the context command is driven by the program: its request is an output
    assert a.polarity(a.by_name("q2")) == "P"
    assert a.enablers_of(a.by_name("q2")) == {a.by_name("q1")}


def test_sharing_interface_names_and_wiring():
    a = sharing_arena(parse_type("com -> com"))
    assert [f.label for f in a.faces] == ["p1", "p2", "p0"]
    assert names(a) == ("Q'1", "A'1", "Q1", "A1",
                        "Q'2", "A'2", "Q2", "A2",
                        "Q'0", "A'0", "Q0", "A0")
    # client requests open sessions; the provider side is flipped
    assert {a.name(m) for m in a.initials} == {"Q'1", "Q'2"}
    q0 = a.by_name("Q'0")
    assert a.polarity(q0) == "P"
    assert a.enablers_of(q0) == {a.by_name("Q'1"), a.by_name("Q'2")}
    assert a.polarity(a.by_name("Q0")) == "O"
    assert a.polarity(a.by_name("A0")) == "P"


def test_sharing_interface_ground_case():
    a = sharing_arena(Com())
    assert names(a) == ("Q'1", "A'1", "Q'2", "A'2", "Q'0", "A'0")


def test_move_identity_is_structural():
    a = arena_of_type(parse_type("com -> com"))
    m = a.by_name("q2")
    assert m == Move(m.face, m.path, m.token)
    assert a.name(m) == "q2"
    with pytest.raises(KeyError):
        a.by_name("zz")


def test_enabling_tables_hold_the_arenas_own_moves():
    a = sharing_arena(parse_type("com -> com"))
    own = {id(m) for m in a.moves}
    assert all(id(e) in own for m in a.moves for e in a.enablers_of(m))
    assert all(id(x) in own for pair in a.enabling for x in pair)
    assert all(id(a.by_name(n)) in own for n in a.port_names())


_SRC = str(Path(__file__).resolve().parent.parent / "src")
_DUMP = "import pickle, sys; from gosyn.arena import Move; " \
        "sys.stdout.buffer.write(pickle.dumps(Move('ret', (1, 0), 'q')))"
_LOAD = "import pickle, sys; from gosyn.arena import Move; " \
        "m = pickle.loads(sys.stdin.buffer.read()); fresh = Move('ret', (1, 0), 'q'); " \
        "print(hash(m) == hash(fresh), m == fresh, {fresh: 'found'}.get(m))"


def _python(code: str, seed: str, data: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                          capture_output=True, check=True).stdout


def test_pickled_move_rehashes_under_the_loading_process_seed():
    # string hashes differ between seeds, so a hash carried along would go stale
    out = _python(_LOAD, "2", _python(_DUMP, "1"))
    assert out.decode().split() == ["True", "True", "found"]


def test_copied_move_keeps_its_hash_and_equality():
    m = Move("ret", (1, 0), "q")
    for c in (copy.copy(m), copy.deepcopy(m)):
        assert c == m and hash(c) == hash(m) and {m: 1}[c] == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["com", "exp", "cell", "com -> com", "exp -> exp",
                        "com * com -> com", "(com -> com) -> com",
                        "com -> com -> com", "(exp -> exp) -> exp"]))
def test_port_names_are_unique_and_stable(s):
    a = arena_of_type(parse_type(s))
    ns = names(a)
    assert len(ns) == len(set(ns))
    b = arena_of_type(parse_type(s))
    assert names(b) == ns
    for n in ns:
        assert a.name(a.by_name(n)) == n


WALKED_TYPES = SHARED_TYPES + (
    "com * com -> com", "exp -> com -> exp", "(com -> com) -> com -> com",
    "((com -> com) -> com) -> com", "((exp -> com) -> exp) -> exp", "(com -> exp) * cell -> com",
    "cell -> cell -> cell", "(cell * cell -> com) -> exp",
)


@pytest.mark.parametrize("s", WALKED_TYPES)
def test_one_walk_builds_the_reference_arena(s):
    t = parse_type(s)
    assert arena_tables(arena_of_type(t)) == reference_arena([Face("ret", t, False)])


@pytest.mark.parametrize("s", SHARED_TYPES)
def test_one_walk_builds_the_reference_sharing_arena(s):
    t = parse_type(s)
    faces = [Face("p1", t, False), Face("p2", t, False), Face("p0", t, True)]
    assert arena_tables(sharing_arena(t)) == reference_arena(faces, reference_sharing_names(t))


@pytest.mark.parametrize("result, x, y", [
    ("com", "com", "com"), ("exp", "cell", "exp -> exp"), ("com -> com", "com * com", "cell"),
    ("(com -> com) -> com", "com -> com -> com", "cell * cell"),
])
def test_one_walk_builds_the_reference_term_arena(result, x, y):
    ctx = (("x", parse_type(x)), ("y", parse_type(y)))
    faces = [Face("ret", parse_type(result), False)] + [Face(n, t, True) for n, t in ctx]
    assert arena_tables(term_arena(parse_type(result), ctx)) == reference_arena(faces)


def test_sharing_and_identity_build_one_arena_each(monkeypatch):
    built = []
    init = Arena.__init__

    def counted(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(Arena, "__init__", counted)
    for s in SHARED_TYPES:
        t = parse_type(s)
        for build in (lambda: sharing_arena(t), lambda: forwarder(t, "x", t)):
            built.clear()
            build()
            assert len(built) == 1, s
