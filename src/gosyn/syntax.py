"""Surface syntax: types, terms, the parser, and printers.

The language is a small affine imperative calculus over booleans.  Ground
types are ``com`` (commands), ``exp`` (boolean expressions) and ``cell``
(single-bit storage); composite types are products and arrows.  The surface
syntax is ML-flavoured; imperative forms are sugar over a fixed table of
typed constants, so everything after the parser works on a tiny core:
variables, constants, lambdas, application, pairs and projections.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable


# ---------------------------------------------------------------------------
# Types


class Type:
    """Base class for object-language types."""

    def __str__(self) -> str:
        return type_to_str(self)


@dataclass(frozen=True)
class Com(Type):
    pass


@dataclass(frozen=True)
class Exp(Type):
    pass


@dataclass(frozen=True)
class Cell(Type):
    pass


@dataclass(frozen=True)
class Prod(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class Arrow(Type):
    arg: Type
    res: Type


COM = Com()
EXP = Exp()
CELL = Cell()


def prod(*types: Type) -> Type:
    """Left-nested product of two or more types."""
    out = types[0]
    for t in types[1:]:
        out = Prod(out, t)
    return out


def type_to_str(t: Type) -> str:
    # Arrow is right-associative and binds weaker than product.
    if isinstance(t, Com):
        return "com"
    if isinstance(t, Exp):
        return "exp"
    if isinstance(t, Cell):
        return "cell"
    if isinstance(t, Prod):
        left = type_to_str(t.left)
        if isinstance(t.left, Arrow):
            left = f"({left})"
        right = type_to_str(t.right)
        if isinstance(t.right, (Arrow, Prod)):
            right = f"({right})"
        return f"{left} * {right}"
    if isinstance(t, Arrow):
        arg = type_to_str(t.arg)
        if isinstance(t.arg, Arrow):
            arg = f"({arg})"
        return f"{arg} -> {type_to_str(t.res)}"
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Terms (core calculus)


class Term:
    def __str__(self) -> str:
        return functional_form(self)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Lam(Term):
    name: str
    ty: Type
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Fst(Term):
    arg: Term


@dataclass(frozen=True)
class Snd(Term):
    arg: Term


def subterms(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of ``t`` in field order (``fn`` before ``arg``,
    ``left`` before ``right``)."""
    return tuple([v for v in (getattr(t, f.name) for f in fields(t)) if isinstance(v, Term)])


def map_subterms(t: Term, f: Callable[[Term], Term]) -> Term:
    """``t`` with ``f`` applied to each immediate subterm, in field order."""
    return replace(t, **{k.name: f(getattr(t, k.name)) for k in fields(t)
                         if isinstance(getattr(t, k.name), Term)})


# The fixed constants table.  Binary imperative combinators take one
# product-typed argument; par is curried so its two command arguments stay
# in separate application contexts (the affinity check then forbids sharing
# identifiers across them, which is what keeps concurrent access out of
# well-typed programs).
CONSTANTS: dict[str, Type] = {
    "skip": COM,
    "1": EXP,
    "0": EXP,
    "seq": Arrow(prod(COM, COM), COM),
    "par": Arrow(COM, Arrow(COM, COM)),
    "and": Arrow(prod(EXP, EXP), EXP),
    "or": Arrow(prod(EXP, EXP), EXP),
    "xor": Arrow(prod(EXP, EXP), EXP),
    "eq": Arrow(prod(EXP, EXP), EXP),
    "not": Arrow(EXP, EXP),
    "if": Arrow(prod(EXP, COM, COM), COM),
    "while": Arrow(prod(EXP, COM), COM),
    "asg": Arrow(prod(CELL, EXP), COM),
    "der": Arrow(CELL, EXP),
    "newvar": Arrow(Arrow(CELL, COM), COM),
}

def seq(a: Term, b: Term) -> Term:
    return App(Const("seq"), Pair(a, b))


def par(a: Term, b: Term) -> Term:
    return App(App(Const("par"), a), b)


def cond(e: Term, c1: Term, c2: Term) -> Term:
    return App(Const("if"), Pair(Pair(e, c1), c2))


def loop(e: Term, c: Term) -> Term:
    return App(Const("while"), Pair(e, c))


def asg(x: Term, e: Term) -> Term:
    return App(Const("asg"), Pair(x, e))


def der(x: Term) -> Term:
    return App(Const("der"), x)


def newvar(name: str, body: Term) -> Term:
    return App(Const("newvar"), Lam(name, CELL, body))


# ---------------------------------------------------------------------------
# Functional form printer

_UNARY_CONSTS = {"der": "der", "not": "not"}


def functional_form(t: Term) -> str:
    """Render a core term in applicative notation.

    Sugared combinators print as the underlying constant applied to its
    tuple, e.g. ``seq⟨skip, skip⟩`` or ``newvar(λx. asg⟨x, 1⟩)``.
    """
    return _ff(t, top=True)


def _flatten_pair(t: Term) -> list[Term]:
    if isinstance(t, Pair):
        return _flatten_pair(t.left) + [t.right]
    return [t]


def _ff(t: Term, top: bool = False) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Lam):
        body = _ff(t.body, top=True)
        s = f"λ{t.name}. {body}"
        return s if top else f"({s})"
    if isinstance(t, Pair):
        parts = ", ".join(_ff(p, top=True) for p in _flatten_pair(t))
        return f"⟨{parts}⟩"
    if isinstance(t, Fst):
        return f"fst {_ff(t.arg)}"
    if isinstance(t, Snd):
        return f"snd {_ff(t.arg)}"
    if isinstance(t, App):
        # Constant applied to a tuple: render with angle brackets.
        if isinstance(t.fn, Const) and isinstance(t.arg, Pair):
            parts = ", ".join(_ff(p, top=True) for p in _flatten_pair(t.arg))
            return f"{t.fn.name}⟨{parts}⟩"
        if isinstance(t.fn, Const) and t.fn.name == "newvar" and isinstance(t.arg, Lam):
            return f"newvar({_ff(t.arg, top=True)})"
        if isinstance(t.fn, Const) and t.fn.name in _UNARY_CONSTS:
            return f"{t.fn.name} {_ff(t.arg)}"
        fn = _ff(t.fn)
        arg = _ff(t.arg)
        if isinstance(t.arg, App):
            arg = f"({_ff(t.arg, top=True)})"
        return f"{fn} {arg}"
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Tokenizer


KEYWORDS = {
    "fn", "new", "in", "if", "then", "else", "while", "do",
    "skip", "not", "and", "or", "xor", "eq", "fst", "snd",
    "com", "exp", "cell",
}

_PUNCT = ("->", ":=", "||", ";", ":", ",", "(", ")", "<", ">", "*", "!", ".")


@dataclass(frozen=True)
class Token:
    kind: str        # 'ident', 'num', a keyword, or punctuation
    text: str
    line: int
    col: int


class ParseError(Exception):
    """Syntax error with position and the token set that was expected."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        where = f"line {line}, column {col}"
        if expected:
            message = f"{message} (expected one of: {', '.join(sorted(expected))})"
        super().__init__(f"{where}: {message}")


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        matched = None
        for p in _PUNCT:
            if src.startswith(p, i):
                matched = p
                break
        if matched:
            toks.append(Token(matched, matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            text = src[i:j]
            if text not in ("0", "1"):
                raise ParseError(f"only the literals 0 and 1 exist, got {text}", line, col)
            toks.append(Token("num", text, line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            text = src[i:j]
            kind = text if text in KEYWORDS else "ident"
            toks.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
#
# Precedence, loosest first:
#   fn / new / if / while   (bodies and branches extend as far right as
#                            possible; parenthesize to cut them short)
#   ;                        (right-associative)
#   ||                       (right-associative)
#   :=
#   or / xor / eq            (left-associative)
#   and                      (left-associative)
#   not                      (prefix)
#   application              (juxtaposition, left-associative)
#   atoms: identifiers, skip, 0, 1, (M), <M, N>, fst A, snd A, ! A


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.line, t.col, (kind,))
        return self.next()

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        t = self.peek()
        return ParseError(f"unexpected {t.text or 'end of input'!r}", t.line, t.col, expected)

    # -- types

    _TYPE_START = ("com", "exp", "cell", "(")

    def type_atom(self) -> Type:
        t = self.peek()
        if t.kind == "com":
            self.next()
            return COM
        if t.kind == "exp":
            self.next()
            return EXP
        if t.kind == "cell":
            self.next()
            return CELL
        if t.kind == "(":
            self.next()
            inner = self.type_()
            self.expect(")")
            return inner
        raise self.fail(self._TYPE_START)

    def type_prod(self) -> Type:
        left = self.type_atom()
        while self.peek().kind == "*":
            self.next()
            left = Prod(left, self.type_atom())
        return left

    def type_(self) -> Type:
        left = self.type_prod()
        # An arrow continues the type only if what follows parses as one;
        # otherwise it separates a binder annotation from the body (which
        # may itself start with a parenthesis, hence the backtrack).
        if self.peek().kind == "->" and self.peek(1).kind in self._TYPE_START:
            save = self.pos
            self.next()
            try:
                return Arrow(left, self.type_())
            except ParseError:
                self.pos = save
        return left

    # -- terms

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "fn":
            self.next()
            name = self.expect("ident").text
            self.expect(":")
            ty = self.type_()
            self.expect("->")
            return Lam(name, ty, self.term())
        if t.kind == "new":
            self.next()
            name = self.expect("ident").text
            self.expect("in")
            return newvar(name, self.term())
        if t.kind == "if":
            self.next()
            e = self.term()
            self.expect("then")
            c1 = self.term()
            self.expect("else")
            return cond(e, c1, self.term())
        if t.kind == "while":
            self.next()
            e = self.term()
            self.expect("do")
            return loop(e, self.term())
        return self.seq_level()

    def seq_level(self) -> Term:
        left = self.par_level()
        if self.peek().kind == ";":
            self.next()
            return seq(left, self.term())
        return left

    def par_level(self) -> Term:
        left = self.assign_level()
        if self.peek().kind == "||":
            self.next()
            return par(left, self.par_level())
        return left

    def assign_level(self) -> Term:
        left = self.or_level()
        if self.peek().kind == ":=":
            self.next()
            return asg(left, self.or_level())
        return left

    def or_level(self) -> Term:
        left = self.and_level()
        while self.peek().kind in ("or", "xor", "eq"):
            op = self.next().kind
            left = App(Const(op), Pair(left, self.and_level()))
        return left

    def and_level(self) -> Term:
        left = self.not_level()
        while self.peek().kind == "and":
            self.next()
            left = App(Const("and"), Pair(left, self.not_level()))
        return left

    def not_level(self) -> Term:
        if self.peek().kind == "not":
            self.next()
            return App(Const("not"), self.not_level())
        return self.app_level()

    _ATOM_START = ("ident", "skip", "num", "(", "<", "fst", "snd", "!")

    def app_level(self) -> Term:
        out = self.atom()
        while self.peek().kind in self._ATOM_START:
            out = App(out, self.atom())
        return out

    def atom(self) -> Term:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return Var(t.text)
        if t.kind == "skip":
            self.next()
            return Const("skip")
        if t.kind == "num":
            self.next()
            return Const(t.text)
        if t.kind == "!":
            self.next()
            return der(self.atom())
        if t.kind == "fst":
            self.next()
            return Fst(self.atom())
        if t.kind == "snd":
            self.next()
            return Snd(self.atom())
        if t.kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if t.kind == "<":
            self.next()
            left = self.term()
            self.expect(",")
            right = self.term()
            self.expect(">")
            return Pair(left, right)
        raise self.fail(self._ATOM_START)


def parse(src: str) -> Term:
    """Parse a program into the core calculus."""
    p = _Parser(tokenize(src))
    out = p.term()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input at {t.text!r}", t.line, t.col, ("eof",))
    return out


def parse_type(src: str) -> Type:
    p = _Parser(tokenize(src))
    out = p.type_()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input at {t.text!r}", t.line, t.col, ("eof",))
    return out
