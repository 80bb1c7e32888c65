"""The restart-at-the-root reduction engine that `reltt.reduction.normalize` replaced.

A test oracle only, kept verbatim: every step searches the whole term again
from the root for the leftmost-outermost redex and rebuilds the path to it.
`test_reduction` checks the resuming engine against it, step counts, normal
forms and fuel-exhausted terms included. It steps with the index primitives
frozen in `reference_syntax`, not the package's, so it does not run the
code under test.
"""

from __future__ import annotations

from reltt.reduction import DEFAULT_FUEL, FUEL_EXHAUSTED, NORMAL, NormalizeResult
from reference_syntax import bound_occurs, shift_term, subst_bound
from reltt.syntax import App, Bound, Lam, Term, Var


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
