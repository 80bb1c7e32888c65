"""Beta-eta reduction with a step budget, and the conversion check built on it.

The strategy is leftmost-outermost: at an application whose head is a lambda,
beta fires; at a lambda whose body applies something to exactly the bound
variable (unused elsewhere), eta fires; otherwise the leftmost-outermost
subterm is reduced. Normal-order reduction finds a normal form whenever one
exists, which is what makes a fuel-bounded equality check honest: "distinct"
is only ever reported for terms that genuinely reached distinct normal forms.

A step works on the de Bruijn indices directly, also under binders. Beta
turns `App(Lam(h, body), arg)` into `subst_bound(body, 0, arg)`; eta turns
`Lam(h, App(f, Bound(0)))`, with index 0 absent from f, into `shift_term(f,
-1)`; any other lambda is stepped inside and rebuilt with its hint unchanged.
No fresh names are made and no binder is opened and closed again. So a step
costs a walk down the path to the redex (with an occurrence check under each
eta-shaped lambda on it) plus the size of the redex: its body, one scan of
its argument, and, only if the argument has indices bound further out, one
shifted copy of it per occurrence. Each step still starts again at the
root.

Conversion never guesses. If fuel runs out before both sides normalize, the
result is "undecided", and callers treat that as failure, not equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import App, Bound, Lam, Term, Var, alpha_eq, bound_occurs, shift_term, subst_bound
from .syntax import open_term  # noqa: F401  (perfbench/test_perfbench.py checks it stays unwrapped)

DEFAULT_FUEL = 10000

NORMAL = "normal"
FUEL_EXHAUSTED = "fuel-exhausted"

EQUAL = "equal"
DISTINCT = "distinct"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class NormalizeResult:
    term: Term
    status: str  # NORMAL | FUEL_EXHAUSTED
    steps_used: int


def step(t: Term) -> Term | None:
    """One leftmost-outermost beta-eta step, or None if t is normal.

    Steps under binders without opening them, so the subterms it recurses
    into may carry indices bound further out.
    """
    ty = type(t)  # not `match`, for speed; see the index primitives in `syntax`
    if ty is App:
        fn, arg = t.fn, t.arg
        if type(fn) is Lam:
            return subst_bound(fn.body, 0, arg)
        s = step(fn)
        if s is not None:
            return App(s, arg)
        s = step(arg)
        if s is not None:
            return App(fn, s)
        return None
    if ty is Lam:
        body = t.body
        if type(body) is App and body.arg == Bound(0) and not bound_occurs(body.fn, 0):
            return shift_term(body.fn, -1)
        inner = step(body)
        return None if inner is None else Lam(t.hint, inner)
    if ty is Var or ty is Bound:
        return None
    raise TypeError(f"not a term: {t!r}")


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> NormalizeResult:
    """Reduce to normal form, spending at most `fuel` steps."""
    used = 0
    while used < fuel:
        nxt = step(t)
        if nxt is None:
            return NormalizeResult(t, NORMAL, used)
        t = nxt
        used += 1
    if step(t) is None:
        return NormalizeResult(t, NORMAL, used)
    return NormalizeResult(t, FUEL_EXHAUSTED, used)


def conv_check(t1: Term, t2: Term, fuel: int = DEFAULT_FUEL) -> str:
    """Decide beta-eta convertibility within a shared step budget.

    The budget covers both normalizations together: the second side gets
    whatever the first left over. "equal"/"distinct" are only reported when
    both sides reached normal form; otherwise "undecided".
    """
    r1 = normalize(t1, fuel)
    if r1.status != NORMAL:
        return UNDECIDED
    r2 = normalize(t2, fuel - r1.steps_used)
    if r2.status != NORMAL:
        return UNDECIDED
    return EQUAL if alpha_eq(r1.term, r2.term) else DISTINCT
