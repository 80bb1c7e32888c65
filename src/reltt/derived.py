"""Derived types: the paper's derived constructions as functions that build
the core relational type each one abbreviates.

Each form takes its parts and returns their total, capture-avoiding
expansion: internalized typing (`int_type_l`, `int_type_r`), conjugation
(`conj`, `dconj`), subset, implicit product, relational equality, products,
sums, the unit, booleans and naturals, and the parametric, inductive and
recursive datatypes. The parser calls them on the sugar it reads, so a parsed
type is always core syntax. Binders are introduced with `syntax.all_`; the
product's and the sum's binder is freshened against the free type names of
their parts.

The inductive datatype is built from its constructor, so the term generators
for the functorial map, fold and constructor live here as well. The library
generator in `reltt.prelude` builds on this module; checking a script never
loads it.
"""

from __future__ import annotations

from .reduction import DEFAULT_FUEL, normalize
from .syntax import (
    All,
    App,
    Arrow,
    Comp,
    Conv,
    Promote,
    RelType,
    TBound,
    TVar,
    Term,
    Var,
    all_,
    free_vars,
    fresh,
    lam,
    open_type,
)
from .systemf import I_TERM, is_f_type

# K, which is also the boolean `tt`, and K I, the promotion of a subset type.
K_TERM = lam("x", lam("y", Var("x")))
KI_TERM = App(K_TERM, I_TERM)


class PreludeError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


MALFORMED_PARAMETER = "malformed-parameter"


def require_f_shaped(r: RelType, who: str) -> None:
    if not is_f_type(r):
        raise PreludeError(
            MALFORMED_PARAMETER,
            f"{who} needs a System F-shaped parameter (no converse, composition, or promotion)",
        )


# ---------------------------------------------------------------------------
# Derived forms
# ---------------------------------------------------------------------------


def int_type_l(t: Term, r: RelType) -> RelType:
    """[t]R: internalized typing on the left."""
    return Comp(Promote(App(K_TERM, t)), r)


def int_type_r(r: RelType, t: Term) -> RelType:
    """R[t]: internalized typing on the right."""
    return Comp(r, Conv(Promote(App(K_TERM, t))))


def conj(t: Term, r: RelType, tp: Term) -> RelType:
    """t.R.t': conjugation by promoted terms."""
    return Comp(Promote(t), Comp(r, Conv(Promote(tp))))


def dconj(t: Term, r: RelType) -> RelType:
    """t..R: self-conjugation."""
    return conj(t, r, t)


def subset(dom: RelType, cod: RelType) -> RelType:
    return dconj(KI_TERM, Arrow(dom, cod))


def imp_prod(dom: RelType, cod: RelType) -> RelType:
    """R => R': the implicit product."""
    return dconj(K_TERM, Arrow(dom, cod))


def rel_eq(left: RelType, right: RelType) -> RelType:
    return Comp(subset(left, right), subset(right, left))


def prod(left: RelType, right: RelType) -> RelType:
    x = fresh("X", free_vars(left)[1] | free_vars(right)[1])
    return all_(x, Arrow(Arrow(left, Arrow(right, TVar(x))), TVar(x)))


def sum_(left: RelType, right: RelType) -> RelType:
    y = fresh("Y", free_vars(left)[1] | free_vars(right)[1])
    return all_(y, Arrow(Arrow(left, TVar(y)), Arrow(Arrow(right, TVar(y)), TVar(y))))


def unit() -> RelType:
    return all_("X", Arrow(TVar("X"), TVar("X")))


def bool_() -> RelType:
    return all_("X", Arrow(TVar("X"), Arrow(TVar("X"), TVar("X"))))


def nat() -> RelType:
    return dparam("X", sum_(unit(), TVar("X")))


def dparam(x: str, r: RelType) -> RelType:
    """The parametric datatype: forall X. (R -> X) -> X."""
    require_f_shaped(r, "the parametric datatype")
    return all_(x, Arrow(Arrow(r, TVar(x)), TVar(x)))


def dind(x: str, r: RelType) -> RelType:
    """The inductive datatype: the parametric one cut down to the values its
    constructor rebuilds."""
    require_f_shaped(r, "the inductive datatype")
    t_in = normalize(gen_in(x, r), DEFAULT_FUEL).term
    shell = int_type_l(t_in, int_type_r(Arrow(r, TVar(x)), t_in))
    return all_(x, imp_prod(shell, TVar(x)))


def rec(x: str, r: RelType) -> RelType:
    return all_(x, imp_prod(subset(r, TVar(x)), TVar(x)))


# ---------------------------------------------------------------------------
# Datatype term generators
# ---------------------------------------------------------------------------


def compose_terms(t: Term, tp: Term) -> Term:
    """t . t' = \\x. t (t' x)"""
    return lam("x", App(t, App(tp, Var("x"))))


def gen_fmap(x: str, r: RelType) -> Term:
    """The functorial map term, one equation per type constructor."""
    # F-shape is hereditary, so one check of the whole type covers every part.
    require_f_shaped(r, "the functorial map")
    return _fmap(x, r)


def _fmap(x: str, r: RelType) -> Term:
    match r:
        case TVar(n):
            return I_TERM if n == x else KI_TERM
        case Arrow(dom, cod):
            fm_dom = _fmap(x, dom)
            fm_cod = _fmap(x, cod)
            body = compose_terms(
                compose_terms(App(fm_cod, Var("f")), Var("a")), App(fm_dom, Var("f"))
            )
            return lam("f", lam("a", body))
        case All(h, b):
            y = fresh(h or "Y", {x} | free_vars(r)[1])
            inner = _fmap(x, open_type(b, TVar(y)))
            return lam("f", App(inner, Var("f")))
        case TBound(_):
            raise ValueError("gen_fmap expects a locally closed type")
    raise TypeError(f"not a type: {r!r}")


def gen_fold() -> Term:
    return lam("a", lam("x", App(Var("x"), Var("a"))))


def gen_in(x: str, r: RelType) -> Term:
    require_f_shaped(r, "the datatype constructor")
    fm = gen_fmap(x, r)
    return lam(
        "x",
        lam("a", App(Var("a"), App(App(fm, App(gen_fold(), Var("a"))), Var("x")))),
    )
