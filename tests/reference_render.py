"""The renderer that opened every binder it printed.

A test oracle only, kept verbatim: at every `Lam` and `All` it collects the
body's free names, picks a fresh name and opens the body with it, where
`reltt.surface` renders with an environment of chosen names. `test_surface`
checks that both print identical strings.
"""

from __future__ import annotations

from proof_tools import free_term_vars
from reltt.syntax import (
    All,
    App,
    Arrow,
    Bound,
    Comp,
    Conv,
    Lam,
    Promote,
    RelType,
    TBound,
    TVar,
    Term,
    Var,
    fresh,
    free_type_vars,
    open_term,
    open_type,
)


def render_term(t: Term) -> str:
    return _rt(t, 0)


def _rt(t: Term, prec: int) -> str:
    # prec 0: lambda body; 1: application; 2: atom
    match t:
        case Var(n):
            return n
        case Bound(i):
            return f"?{i}"
        case Lam(h, b):
            nm = fresh(h or "x", free_term_vars(b))
            body = _rt(open_term(b, Var(nm)), 0)
            s = f"\\{nm}. {body}"
            return f"({s})" if prec > 0 else s
        case App(f, a):
            s = f"{_rt(f, 1)} {_rt(a, 2)}"
            return f"({s})" if prec > 1 else s
    raise TypeError(f"not a term: {t!r}")


def render_type(r: RelType) -> str:
    return _rr(r, 0)


def _rr(r: RelType, prec: int) -> str:
    # prec 0: quantifier body; 1: arrow; 2: composition; 3: converse; 4: atom
    match r:
        case TVar(n):
            return n
        case TBound(i):
            return f"?{i}"
        case All(h, b):
            nm = fresh(h or "X", free_type_vars(b))
            body = _rr(open_type(b, TVar(nm)), 0)
            s = f"all {nm}. {body}"
            return f"({s})" if prec > 0 else s
        case Arrow(d, c):
            s = f"{_rr(d, 2)} -> {_rr(c, 1)}"
            return f"({s})" if prec > 1 else s
        case Comp(l, rr):
            s = f"{_rr(l, 3)} * {_rr(rr, 2)}"
            return f"({s})" if prec > 2 else s
        case Conv(b):
            return f"{_rr(b, 4)}^"
        case Promote(t):
            return "{" + render_term(t) + "}"
    raise TypeError(f"not a type: {r!r}")
