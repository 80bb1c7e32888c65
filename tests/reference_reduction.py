"""The open/close reduction engine that `reltt.reduction.step` replaced.

A test oracle only, kept verbatim: at every `Lam` on the path to the redex it
opens the binder with a fresh name and closes it again. `test_reduction`
checks the de Bruijn engine against it step for step, hints included.
"""

from __future__ import annotations

from proof_tools import free_term_vars
from reference_syntax import close_term
from reltt.reduction import DEFAULT_FUEL, FUEL_EXHAUSTED, NORMAL, NormalizeResult
from reltt.syntax import App, Bound, Lam, Term, Var, fresh, open_term


def step(t: Term) -> Term | None:
    """One leftmost-outermost beta-eta step, or None if t is normal."""
    match t:
        case App(Lam(_, body), arg):
            return open_term(body, arg)
        case Lam(hint, _):
            x = fresh(hint or "x", free_term_vars(t))
            body = open_term(t.body, Var(x))
            if isinstance(body, App) and body.arg == Var(x) and x not in free_term_vars(body.fn):
                return body.fn
            inner = step(body)
            if inner is None:
                return None
            return Lam(hint, close_term(inner, x))
        case App(fn, arg):
            s = step(fn)
            if s is not None:
                return App(s, arg)
            s = step(arg)
            if s is not None:
                return App(fn, s)
            return None
        case Var(_) | Bound(_):
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
