"""Arenas: the port-level view of a type.

A type denotes an arena: a set of moves, each labelled with a polarity
(O = environment/input, P = device/output) and a kind (Q = request,
A = acknowledgement), plus an enabling relation saying which move may
justify which.  A move is a port of the eventual circuit; an O-move is an
input port, a P-move an output port, a question a request wire, an answer
an acknowledgement wire.

Ground arenas:

    com   q(O,Q) a(P,A)                       q |- a
    exp   q(O,Q) t(P,A) f(P,A)                q |- t, q |- f
    cell  q(O,Q) t(P,A) f(P,A)                q |- t, q |- f
          wt(O,Q) wf(O,Q) a(P,A)              wt |- a, wf |- a

A product is a disjoint union.  An arrow is a disjoint union in which the
argument's polarities are flipped and every initial move of the result
enables every initial move of the argument.  Consequently every enabling
pair alternates polarity and every enabler is a question; the constructor
checks both.

An :class:`Arena` here carries one face per interface component: the result
face plus one (flipped) face per free identifier.  Faces of the same type
share canonical move keys, which is how twin ports are matched when gluing
automata together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .syntax import Arrow, Cell, Com, Exp, Prod, Type, type_to_str

# token -> (base polarity, kind); polarity is before any flips
_BASE_TOKENS: dict[type, tuple[tuple[str, str, str], ...]] = {
    Com: (("q", "O", "Q"), ("a", "P", "A")),
    Exp: (("q", "O", "Q"), ("t", "P", "A"), ("f", "P", "A")),
    Cell: (
        ("q", "O", "Q"), ("t", "P", "A"), ("f", "P", "A"),
        ("wt", "O", "Q"), ("wf", "O", "Q"), ("a", "P", "A"),
    ),
}

_BASE_ENABLING: dict[type, tuple[tuple[str, str], ...]] = {
    Com: (("q", "a"),),
    Exp: (("q", "t"), ("q", "f")),
    Cell: (("q", "t"), ("q", "f"), ("wt", "a"), ("wf", "a")),
}

_BASE_INITIALS: dict[type, tuple[str, ...]] = {
    Com: ("q",),
    Exp: ("q",),
    Cell: ("q", "wt", "wf"),
}


class Move(NamedTuple):
    """A port, identified by its face, its path into the type, and a token.

    ``path`` descends the type tree (arrow: 0 = argument, 1 = result;
    product: 0 = left, 1 = right) and ends at a ground type.  Two faces of
    the same type expose moves with equal (path, token) keys, i.e. twins.

    Moves key every protocol state and transition table.  As a named tuple
    a move hashes and compares as its three fields, in C; no hash is
    stored, so a pickled or copied move rehashes under the loading
    process's seed.
    """

    face: str
    path: tuple[int, ...]
    token: str


@dataclass(frozen=True)
class Face:
    label: str
    ty: Type
    flipped: bool      # context faces and shared faces are flipped
    is_result: bool    # initials of result faces enable initials of the rest


def base_occurrences(t: Type) -> list[tuple[tuple[int, ...], Type]]:
    """Ground-type occurrences of ``t``, result side first within arrows."""
    if isinstance(t, (Com, Exp, Cell)):
        return [((), t)]
    if isinstance(t, Prod):
        return (
            [((0,) + p, g) for p, g in base_occurrences(t.left)]
            + [((1,) + p, g) for p, g in base_occurrences(t.right)]
        )
    if isinstance(t, Arrow):
        return (
            [((1,) + p, g) for p, g in base_occurrences(t.res)]
            + [((0,) + p, g) for p, g in base_occurrences(t.arg)]
        )
    raise TypeError(f"not a type: {t!r}")


def type_initials(t: Type) -> list[tuple[tuple[int, ...], str]]:
    if isinstance(t, (Com, Exp, Cell)):
        return [((), tok) for tok in _BASE_INITIALS[type(t)]]
    if isinstance(t, Prod):
        return (
            [((0,) + p, tok) for p, tok in type_initials(t.left)]
            + [((1,) + p, tok) for p, tok in type_initials(t.right)]
        )
    if isinstance(t, Arrow):
        return [((1,) + p, tok) for p, tok in type_initials(t.res)]
    raise TypeError(f"not a type: {t!r}")


def type_enabling(t: Type) -> list[tuple[tuple[tuple[int, ...], str], tuple[tuple[int, ...], str]]]:
    """Enabling pairs of ``t`` as (enabler key, enabled key)."""
    if isinstance(t, (Com, Exp, Cell)):
        return [(((), a), ((), b)) for a, b in _BASE_ENABLING[type(t)]]
    if isinstance(t, Prod):
        out = [(((0,) + p, x), ((0,) + q, y)) for (p, x), (q, y) in type_enabling(t.left)]
        out += [(((1,) + p, x), ((1,) + q, y)) for (p, x), (q, y) in type_enabling(t.right)]
        return out
    if isinstance(t, Arrow):
        out = [(((1,) + p, x), ((1,) + q, y)) for (p, x), (q, y) in type_enabling(t.res)]
        out += [(((0,) + p, x), ((0,) + q, y)) for (p, x), (q, y) in type_enabling(t.arg)]
        out += [
            (((1,) + p, x), ((0,) + q, y))
            for p, x in type_initials(t.res)
            for q, y in type_initials(t.arg)
        ]
        return out
    raise TypeError(f"not a type: {t!r}")


def _flips(path: tuple[int, ...], t: Type) -> int:
    """Number of argument-side arrow edges along ``path``."""
    n = 0
    cur = t
    for step in path:
        if isinstance(cur, Arrow):
            if step == 0:
                n += 1
                cur = cur.arg
            else:
                cur = cur.res
        elif isinstance(cur, Prod):
            cur = cur.left if step == 0 else cur.right
        else:
            raise ValueError(f"path {path} does not fit type {type_to_str(t)}")
    return n


class Arena:
    """Moves, labelling and enabling for a (possibly multi-face) interface."""

    def __init__(self, faces: Iterable[Face], names: Optional[dict[Move, str]] = None):
        self.faces: tuple[Face, ...] = tuple(faces)
        labels = [f.label for f in self.faces]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate face labels: {labels}")
        self._face_by_label = {f.label: f for f in self.faces}

        moves: list[Move] = []
        pol: dict[Move, str] = {}
        kind: dict[Move, str] = {}
        for f in self.faces:
            for path, ground in base_occurrences(f.ty):
                for token, base_pol, base_kind in _BASE_TOKENS[type(ground)]:
                    m = Move(f.label, path, token)
                    moves.append(m)
                    flip = (_flips(path, f.ty) + (1 if f.flipped else 0)) % 2
                    pol[m] = ("O", "P")[({"O": 0, "P": 1}[base_pol] + flip) % 2]
                    kind[m] = base_kind
        self.moves: tuple[Move, ...] = tuple(moves)
        self.rank: dict[Move, int] = {m: k for k, m in enumerate(self.moves)}
        self._pol = pol
        self._kind = kind

        enabling: set[tuple[Move, Move]] = set()
        for f in self.faces:
            for (p, x), (q, y) in type_enabling(f.ty):
                enabling.add((Move(f.label, p, x), Move(f.label, q, y)))
        result_initials = [
            Move(f.label, p, tok)
            for f in self.faces if f.is_result
            for p, tok in type_initials(f.ty)
        ]
        for f in self.faces:
            if f.is_result:
                continue
            for p, tok in type_initials(f.ty):
                for ini in result_initials:
                    enabling.add((ini, Move(f.label, p, tok)))
        # the arena's own move objects, so set lookups succeed on identity
        own = {m: m for m in self.moves}
        enabling = {(own[a], own[b]) for a, b in enabling}
        self.enabling: frozenset[tuple[Move, Move]] = frozenset(enabling)

        self._enablers: dict[Move, frozenset[Move]] = {
            m: frozenset(a for a, b in enabling if b == m) for m in self.moves
        }
        self._enabled: dict[Move, frozenset[Move]] = {
            m: frozenset(b for a, b in enabling if a == m) for m in self.moves
        }
        self.initials: frozenset[Move] = frozenset(
            m for m in self.moves if not self._enablers[m]
        )

        names = names or _standard_names(self)
        if set(names) != set(self.moves):
            raise ValueError("name table does not cover the move set")
        self._names: dict[Move, str] = {m: names[m] for m in self.moves}
        if len(set(self._names.values())) != len(self.moves):
            raise ValueError(f"port names collide: {sorted(self._names.values())}")
        self._by_name = {v: k for k, v in self._names.items()}

        self._validate()

    # -- naming

    def name(self, m: Move) -> str:
        return self._names[m]

    def by_name(self, name: str) -> Move:
        if name not in self._by_name:
            raise KeyError(f"no port named {name!r}; ports are {', '.join(self.port_names())}")
        return self._by_name[name]

    def port_names(self) -> tuple[str, ...]:
        # of a list, not a generator: see the note in sim.simulate
        return tuple([self._names[m] for m in self.moves])

    # -- structure

    def face(self, label: str) -> Face:
        return self._face_by_label[label]

    def face_moves(self, label: str) -> tuple[Move, ...]:
        return tuple(m for m in self.moves if m.face == label)

    def polarity(self, m: Move) -> str:
        return self._pol[m]

    def kind(self, m: Move) -> str:
        return self._kind[m]

    def is_input(self, m: Move) -> bool:
        return self._pol[m] == "O"

    def is_question(self, m: Move) -> bool:
        return self._kind[m] == "Q"

    def enablers_of(self, m: Move) -> frozenset[Move]:
        return self._enablers[m]

    def enabled_by(self, m: Move) -> frozenset[Move]:
        return self._enabled[m]

    def input_names(self) -> tuple[str, ...]:
        """Names of the input ports (O-moves), in move order."""
        return tuple([self._names[m] for m in self.moves if self._pol[m] == "O"])

    def output_names(self) -> tuple[str, ...]:
        """Names of the output ports (P-moves), in move order."""
        return tuple([self._names[m] for m in self.moves if self._pol[m] == "P"])

    def _validate(self) -> None:
        for m in self.moves:
            if not self._enablers[m]:
                if not (self._pol[m] == "O" and self._kind[m] == "Q"):
                    raise ValueError(f"initial move {self.describe(m)} must be an O-question")
        for a, b in self.enabling:
            if self._pol[a] == self._pol[b]:
                raise ValueError(
                    f"enabling must alternate polarity: {self.describe(a)} |- {self.describe(b)}")
            if self._kind[a] != "Q":
                raise ValueError(f"only questions enable: {self.describe(a)} |- {self.describe(b)}")

    def describe(self, m: Move) -> str:
        return f"{self._names[m]}({self._pol[m]},{self._kind[m]})"

    def __repr__(self) -> str:
        parts = ", ".join(f"{f.label}:{type_to_str(f.ty)}{'~' if f.flipped else ''}" for f in self.faces)
        return f"Arena({parts})"


_TOKEN_DISPLAY_ORDER = {"q": 0, "t": 1, "f": 2, "wt": 3, "wf": 4, "a": 5}


def _standard_names(a: Arena) -> dict[Move, str]:
    """Result-first 1-based numbering of ground occurrences across all faces.

    A single-occurrence interface keeps the bare token names (q, a, ...).
    """
    occs: list[tuple[str, tuple[int, ...]]] = []
    for f in a.faces:
        for path, _ in base_occurrences(f.ty):
            occs.append((f.label, path))
    single = len(occs) == 1
    index = {occ: i + 1 for i, occ in enumerate(occs)}
    names: dict[Move, str] = {}
    for m in a.moves:
        suffix = "" if single else str(index[(m.face, m.path)])
        names[m] = f"{m.token}{suffix}"
    return names


def arena_of_type(t: Type) -> Arena:
    """The arena of a closed type: a single result face."""
    return Arena([Face("ret", t, flipped=False, is_result=True)])


def term_arena(result: Type, context: Iterable[tuple[str, Type]]) -> Arena:
    """Interface of a term: result face plus one flipped face per identifier."""
    faces = [Face("ret", result, flipped=False, is_result=True)]
    for name, ty in context:
        faces.append(Face(name, ty, flipped=True, is_result=False))
    return Arena(faces)


def sharing_arena(t: Type) -> Arena:
    """Interface of the serializing duplicator for ``t``.

    Two client faces (p1, p2) and one flipped shared face (p0); port names
    follow the convention that the outermost request/acknowledge pair of a
    face is primed: client 1 is Q'1/A'1 with argument ports Q1/A1, and the
    shared face is Q'0/A'0/Q0/A0.
    """
    faces = [
        Face("p1", t, flipped=False, is_result=True),
        Face("p2", t, flipped=False, is_result=True),
        Face("p0", t, flipped=True, is_result=False),
    ]
    face_index = {"p1": 1, "p2": 2, "p0": 0}
    # occurrence 1 (outermost result) is primed, occurrence 2 unprimed,
    # deeper occurrences keep an explicit occurrence tag
    names: dict[Move, str] = {}
    tmp = Arena(faces)  # names recomputed below; reuse structure for moves
    for label in ("p1", "p2", "p0"):
        f = tmp.face(label)
        occs = [path for path, _ in base_occurrences(f.ty)]
        for j, path in enumerate(occs, start=1):
            prime = "'" if j == 1 else ""
            tag = "" if j <= 2 else f"_{j}"
            for m in tmp.face_moves(label):
                if m.path == path:
                    names[m] = f"{m.token.upper()}{prime}{face_index[label]}{tag}"
    return Arena(faces, names=names)
