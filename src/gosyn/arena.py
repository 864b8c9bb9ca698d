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

A ground type's initial moves are its O-questions.  A product is a
disjoint union.  An arrow is its result followed by its argument with the
argument's polarities flipped, every initial move of the result enabling
every initial move of the argument.  Consequently every enabling pair
alternates polarity and every enabler is a question; the constructor
checks both.  One walk over a type, :func:`type_ports`, lists its ports in
move order with their polarity and kind, its initial ports and its
enabling pairs; every arena is built from it.

An :class:`Arena` here carries one face per interface component: the result
face plus one (flipped) face per free identifier.  A face is a result face
exactly when it is unflipped: the initial moves of result faces enable
those of the rest.  Faces of the same type share canonical move keys, which
is how twin ports are matched when gluing automata together.
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

    @property
    def is_result(self) -> bool:
        """Unflipped: this face's initials enable the initials of the flipped faces."""
        return not self.flipped


Key = tuple[tuple[int, ...], str]              # (path, token)
Port = tuple[tuple[int, ...], str, str, str]   # (path, token, polarity, kind)
_OPPOSITE = {"O": "P", "P": "O"}


def type_ports(t: Type) -> tuple[list[Port], list[Key], list[tuple[Key, Key]]]:
    """One walk over ``t``: its ports, its initial ports and its enabling pairs.

    Ports come in move order: result side first within arrows, left first
    within products.  The other two lists name ports by their keys.  A
    ground type's initials are its O-questions.
    """
    if isinstance(t, (Com, Exp, Cell)):
        ports = [((), tok, pol, kind) for tok, pol, kind in _BASE_TOKENS[type(t)]]
        return (ports, [((), tok) for _, tok, pol, kind in ports if (pol, kind) == ("O", "Q")],
                [(((), a), ((), b)) for a, b in _BASE_ENABLING[type(t)]])
    if isinstance(t, Prod):
        halves = ((0, t.left), (1, t.right))
    elif isinstance(t, Arrow):
        halves = ((1, t.res), (0, t.arg))
    else:
        raise TypeError(f"not a type: {t!r}")
    ports, initials, enabling = [], [], []
    for step, sub in halves:
        flip = isinstance(t, Arrow) and step == 0
        p, i, e = type_ports(sub)
        ports += [((step, *path), tok, _OPPOSITE[pol] if flip else pol, kind)
                  for path, tok, pol, kind in p]
        initials.append([((step, *path), tok) for path, tok in i])
        enabling += [(((step, *a), x), ((step, *b), y)) for (a, x), (b, y) in e]
    if isinstance(t, Arrow):
        res, arg = initials
        return ports, res, enabling + [(r, g) for r in res for g in arg]
    return ports, initials[0] + initials[1], enabling


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
        enabling: list[tuple[Move, Move]] = []
        opening: tuple[list[Move], list[Move]] = ([], [])  # initials of result faces, of the rest
        for f in self.faces:
            ports, initials, pairs = type_ports(f.ty)
            own: dict[Key, Move] = {}
            for path, token, p, k in ports:
                m = own[path, token] = Move(f.label, path, token)
                moves.append(m)
                pol[m] = _OPPOSITE[p] if f.flipped else p
                kind[m] = k
            enabling += [(own[x], own[y]) for x, y in pairs]
            opening[f.flipped].extend(own[i] for i in initials)
        enabling += [(r, c) for c in opening[1] for r in opening[0]]
        self.moves: tuple[Move, ...] = tuple(moves)
        self.rank: dict[Move, int] = {m: k for k, m in enumerate(self.moves)}
        self._pol = pol
        self._kind = kind
        self.enabling: frozenset[tuple[Move, Move]] = frozenset(enabling)

        enablers: dict[Move, list[Move]] = {m: [] for m in moves}
        for x, y in self.enabling:
            enablers[y].append(x)
        self._enablers = {m: frozenset(v) for m, v in enablers.items()}
        self.initials: frozenset[Move] = frozenset(m for m in moves if not enablers[m])

        names = names or _standard_names(self.moves)
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


def _standard_names(moves: tuple[Move, ...]) -> dict[Move, str]:
    """Result-first 1-based numbering of ground occurrences across all faces.

    A single-occurrence interface keeps the bare token names (q, a, ...).
    """
    index = {occ: k for k, occ in enumerate(dict.fromkeys((m.face, m.path) for m in moves), 1)}
    if len(index) == 1:
        return {m: m.token for m in moves}
    return {m: f"{m.token}{index[m.face, m.path]}" for m in moves}


def arena_of_type(t: Type) -> Arena:
    """The arena of a closed type: a single result face."""
    return Arena([Face("ret", t, flipped=False)])


def term_arena(result: Type, context: Iterable[tuple[str, Type]]) -> Arena:
    """Interface of a term: result face plus one flipped face per identifier."""
    return Arena([Face("ret", result, flipped=False)]
                 + [Face(name, ty, flipped=True) for name, ty in context])


def sharing_arena(t: Type) -> Arena:
    """Interface of the serializing duplicator for ``t``.

    Two client faces (p1, p2) and one flipped shared face (p0); port names
    follow the convention that the outermost request/acknowledge pair of a
    face is primed: client 1 is Q'1/A'1 with argument ports Q1/A1, and the
    shared face is Q'0/A'0/Q0/A0.  Deeper occurrences keep an explicit
    occurrence tag.
    """
    ports = type_ports(t)[0]
    occurrence = {path: j for j, path in enumerate(dict.fromkeys(p[0] for p in ports), 1)}
    names: dict[Move, str] = {}
    for label, k in (("p1", 1), ("p2", 2), ("p0", 0)):
        for path, token, _, _ in ports:
            j = occurrence[path]
            prime = "'" if j == 1 else ""
            tag = "" if j <= 2 else f"_{j}"
            names[Move(label, path, token)] = f"{token.upper()}{prime}{k}{tag}"
    faces = [Face("p1", t, flipped=False), Face("p2", t, flipped=False), Face("p0", t, flipped=True)]
    return Arena(faces, names=names)
