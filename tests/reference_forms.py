"""The derived forms as the records that were built only to be passed to
`expand`, with `expand`'s `match`.

A test oracle only, kept verbatim: each form was a frozen dataclass and
`expand` turned it into its core type. `reltt.derived` builds the same types
with one function per form; `test_prelude` checks that both give equal trees,
binder hints included, and equal errors. The datatype constructor comes from
`reltt.derived`, whose `gen_in` is the generator `expand` called.
"""

from __future__ import annotations

from dataclasses import dataclass

from reltt.derived import I_TERM, K_TERM, MALFORMED_PARAMETER, PreludeError, gen_in
from reltt.reduction import DEFAULT_FUEL, normalize
from reltt.syntax import (
    App,
    Arrow,
    Comp,
    Conv,
    Promote,
    RelType,
    TVar,
    Term,
    all_,
    free_vars,
    fresh,
)
from reltt.systemf import is_f_type


# ---------------------------------------------------------------------------
# Derived forms
# ---------------------------------------------------------------------------


class DerivedForm:
    __slots__ = ()


@dataclass(frozen=True)
class IntTypeL(DerivedForm):
    """[t]R: internalized typing on the left."""

    term: Term
    rel: RelType


@dataclass(frozen=True)
class IntTypeR(DerivedForm):
    """R[t]: internalized typing on the right."""

    rel: RelType
    term: Term


@dataclass(frozen=True)
class Conj(DerivedForm):
    """t.R.t': conjugation by promoted terms."""

    left: Term
    rel: RelType
    right: Term


@dataclass(frozen=True)
class DConj(DerivedForm):
    """t..R: self-conjugation."""

    term: Term
    rel: RelType


@dataclass(frozen=True)
class Subset(DerivedForm):
    dom: RelType
    cod: RelType


@dataclass(frozen=True)
class ImpProd(DerivedForm):
    """R => R': the implicit product."""

    dom: RelType
    cod: RelType


@dataclass(frozen=True)
class RelEq(DerivedForm):
    left: RelType
    right: RelType


@dataclass(frozen=True)
class Prod(DerivedForm):
    left: RelType
    right: RelType


@dataclass(frozen=True)
class Sum(DerivedForm):
    left: RelType
    right: RelType


@dataclass(frozen=True)
class UnitForm(DerivedForm):
    pass


@dataclass(frozen=True)
class BoolForm(DerivedForm):
    pass


@dataclass(frozen=True)
class NatForm(DerivedForm):
    pass


@dataclass(frozen=True)
class DParam(DerivedForm):
    tvar: str
    rel: RelType


@dataclass(frozen=True)
class DInd(DerivedForm):
    tvar: str
    rel: RelType


@dataclass(frozen=True)
class Rec(DerivedForm):
    tvar: str
    rel: RelType


def _require_f_shaped(r: RelType, who: str) -> None:
    if not is_f_type(r):
        raise PreludeError(
            MALFORMED_PARAMETER,
            f"{who} needs a System F-shaped parameter (no converse, composition, or promotion)",
        )


def expand(form: DerivedForm) -> RelType:
    """Total, capture-avoiding expansion into the core type syntax."""
    match form:
        case IntTypeL(t, r):
            return Comp(Promote(App(K_TERM, t)), r)
        case IntTypeR(r, t):
            return Comp(r, Conv(Promote(App(K_TERM, t))))
        case Conj(t, r, tp):
            return Comp(Promote(t), Comp(r, Conv(Promote(tp))))
        case DConj(t, r):
            return expand(Conj(t, r, t))
        case Subset(dom, cod):
            return expand(DConj(App(K_TERM, I_TERM), Arrow(dom, cod)))
        case ImpProd(dom, cod):
            return expand(DConj(K_TERM, Arrow(dom, cod)))
        case RelEq(l, r):
            return Comp(expand(Subset(l, r)), expand(Subset(r, l)))
        case Prod(l, r):
            x = fresh("X", free_vars(l)[1] | free_vars(r)[1])
            return all_(x, Arrow(Arrow(l, Arrow(r, TVar(x))), TVar(x)))
        case Sum(l, r):
            y = fresh("Y", free_vars(l)[1] | free_vars(r)[1])
            return all_(
                y, Arrow(Arrow(l, TVar(y)), Arrow(Arrow(r, TVar(y)), TVar(y)))
            )
        case UnitForm():
            return all_("X", Arrow(TVar("X"), TVar("X")))
        case BoolForm():
            return all_("X", Arrow(TVar("X"), Arrow(TVar("X"), TVar("X"))))
        case NatForm():
            return expand(DParam("X", expand(Sum(expand(UnitForm()), TVar("X")))))
        case DParam(x, r):
            _require_f_shaped(r, "the parametric datatype")
            return all_(x, Arrow(Arrow(r, TVar(x)), TVar(x)))
        case DInd(x, r):
            _require_f_shaped(r, "the inductive datatype")
            t_in = normalize(gen_in(x, r), DEFAULT_FUEL).term
            shell = expand(IntTypeL(t_in, expand(IntTypeR(Arrow(r, TVar(x)), t_in))))
            return all_(x, expand(ImpProd(shell, TVar(x))))
        case Rec(x, r):
            return all_(x, expand(ImpProd(expand(Subset(r, TVar(x))), TVar(x))))
    raise TypeError(f"not a derived form: {form!r}")
