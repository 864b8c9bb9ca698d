"""Affine type checking.

Identifiers may be dropped freely (weakening is implicit) but an application
must split the identifiers between function and argument: using the same one
on both sides is rejected.  Pair components may share identifiers; sharing is
resolved later by inserting a serializing copy of the shared interface, so
it is the application rule alone that carries the affinity discipline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    App, Arrow, CONSTANTS, Const, Fst, Lam, Pair, Prod, Snd, Term, Type,
    Var, functional_form, map_subterms, subterms, type_to_str,
)


class SciTypeError(Exception):
    """kind is one of 'mismatch', 'unbound', 'affinity'."""

    def __init__(self, kind: str, message: str, term: Term):
        self.kind = kind
        self.term = term
        super().__init__(f"{kind}: {message}")


@dataclass(frozen=True)
class Typed:
    """A term annotated with its type and the identifiers it actually uses.

    ``ctx`` holds (name, type) pairs in order of first use; it is the minimal
    typing context of the node, which is what the interpreter needs to build
    interface faces.
    """

    term: Term
    ty: Type
    ctx: tuple[tuple[str, Type], ...]
    children: tuple["Typed", ...] = ()


def _merge_disjoint(a, b, node: Term):
    names = {n for n, _ in a}
    shared = [n for n, _ in b if n in names]
    if shared:
        raise SciTypeError(
            "affinity",
            f"identifier {shared[0]!r} is used by both function and argument "
            f"in {functional_form(node)}",
            node,
        )
    return a + b


def _merge_shared(a, b):
    names = {n for n, _ in a}
    return a + tuple(p for p in b if p[0] not in names)


def freshen(t: Term) -> Term:
    """Rename binders so no name is bound twice or shadows another binding."""
    used: set[str] = set()

    def fresh(name: str) -> str:
        if name not in used:
            used.add(name)
            return name
        i = 2
        while f"{name}_{i}" in used:
            i += 1
        out = f"{name}_{i}"
        used.add(out)
        return out

    def walk(t: Term, env: dict[str, str]) -> Term:
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, Lam):
            new = fresh(t.name)
            return Lam(new, t.ty, walk(t.body, {**env, t.name: new}))
        return map_subterms(t, lambda s: walk(s, env))

    def seed(t: Term, bound: frozenset[str]) -> None:
        # free identifiers must never be captured by freshening
        if isinstance(t, Var):
            if t.name not in bound:
                used.add(t.name)
        elif isinstance(t, Lam):
            seed(t.body, bound | {t.name})
        else:
            for s in subterms(t):
                seed(s, bound)

    seed(t, frozenset())
    fresh_t = walk(t, {})
    del seed, walk  # break the closures' reference cycles
    return fresh_t


def typecheck(t: Term, ctx: tuple[tuple[str, Type], ...] = ()) -> Typed:
    """Check ``t`` under ``ctx`` and return the annotated tree.

    Binders are renamed apart first, so the annotations can key faces by
    identifier name.
    """
    return _check(freshen(t), dict(ctx))


def _check(t: Term, env: dict[str, Type]) -> Typed:
    if isinstance(t, Var):
        if t.name not in env:
            # Combinator names double as identifiers unless shadowed, so a
            # program can name a primitive (e.g. ``seq``) point-free.
            if t.name in CONSTANTS:
                return Typed(Const(t.name), CONSTANTS[t.name], ())
            raise SciTypeError("unbound", f"identifier {t.name!r} is not in scope", t)
        return Typed(t, env[t.name], ((t.name, env[t.name]),))

    if isinstance(t, Const):
        if t.name not in CONSTANTS:
            raise SciTypeError("unbound", f"unknown constant {t.name!r}", t)
        return Typed(t, CONSTANTS[t.name], ())

    if isinstance(t, Lam):
        body = _check(t.body, {**env, t.name: t.ty})
        ctx = tuple(p for p in body.ctx if p[0] != t.name)
        return Typed(t, Arrow(t.ty, body.ty), ctx, (body,))

    if isinstance(t, App):
        fn = _check(t.fn, env)
        arg = _check(t.arg, env)
        if not isinstance(fn.ty, Arrow):
            raise SciTypeError(
                "mismatch",
                f"{functional_form(t.fn)} has type {type_to_str(fn.ty)} and cannot be applied",
                t,
            )
        if arg.ty != fn.ty.arg:
            raise SciTypeError(
                "mismatch",
                f"argument {functional_form(t.arg)} has type {type_to_str(arg.ty)}, "
                f"expected {type_to_str(fn.ty.arg)}",
                t,
            )
        ctx = _merge_disjoint(fn.ctx, arg.ctx, t)
        return Typed(t, fn.ty.res, ctx, (fn, arg))

    if isinstance(t, Pair):
        left = _check(t.left, env)
        right = _check(t.right, env)
        return Typed(t, Prod(left.ty, right.ty), _merge_shared(left.ctx, right.ctx), (left, right))

    if isinstance(t, Fst):
        arg = _check(t.arg, env)
        if not isinstance(arg.ty, Prod):
            raise SciTypeError(
                "mismatch", f"fst needs a product, got {type_to_str(arg.ty)}", t)
        return Typed(t, arg.ty.left, arg.ctx, (arg,))

    if isinstance(t, Snd):
        arg = _check(t.arg, env)
        if not isinstance(arg.ty, Prod):
            raise SciTypeError(
                "mismatch", f"snd needs a product, got {type_to_str(arg.ty)}", t)
        return Typed(t, arg.ty.right, arg.ctx, (arg,))

    raise TypeError(f"not a term: {t!r}")
