"""Superseded binder code of `reltt.syntax`, kept verbatim as test oracles.

- The seven hand-written rebuilds that `rebuild_term` and `rebuild_type`
  replaced: each walks its syntax family on its own. `test_syntax` checks
  the views of the two rebuilds against them on seeded random terms and
  types, hints included.
- The index primitives `shift_term`, `subst_bound` and `bound_occurs` as
  they were before they became closure-free, module-level recursions that
  test a child's `loose` before each call. `subst_bound` makes a closure per
  call here, and each function calls itself on a child only to find that no
  index it acts on reaches it. `test_syntax` checks the package's primitives
  against these, and `reference_debruijn` steps with these, so neither
  oracle runs the code under test.
- `lam` over the hand-written `close_term`, for the oracles that build
  binders (`reference_kernel`, `reference_reduction`), so neither runs the
  package's closer, the table-skipping walk in `reltt.syntax.lam`.
"""

from __future__ import annotations

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
    Term,
    TVar,
    Var,
)


def close_term(t: Term, name: str, depth: int = 0) -> Term:
    """Replace the free occurrences of `name` by the index of a binder `depth` levels up."""
    ty = type(t)
    if ty is App:
        f, a = t.fn, t.arg
        nf = close_term(f, name, depth)
        na = close_term(a, name, depth)
        return t if nf is f and na is a else App(nf, na)
    if ty is Lam:
        b = t.body
        nb = close_term(b, name, depth + 1)
        return t if nb is b else Lam(t.hint, nb)
    if ty is Var:
        return Bound(depth) if t.name == name else t
    if ty is Bound:
        return t
    raise TypeError(f"not a term: {t!r}")


def lam(name: str, body: Term) -> Lam:
    return Lam(name, close_term(body, name))


def open_term(body: Term, repl: Term, depth: int = 0) -> Term:
    """Instantiate the outermost binder's index in `body` with `repl`."""
    ty = type(body)
    if ty is App:
        f, a = body.fn, body.arg
        nf = open_term(f, repl, depth)
        na = open_term(a, repl, depth)
        return body if nf is f and na is a else App(nf, na)
    if ty is Lam:
        b = body.body
        nb = open_term(b, repl, depth + 1)
        return body if nb is b else Lam(body.hint, nb)
    if ty is Bound:
        return repl if body.index == depth else body
    if ty is Var:
        return body
    raise TypeError(f"not a term: {body!r}")


def subst_term_multi(sigma: dict[str, Term], target: Term) -> Term:
    """Simultaneous substitution of free term variables."""
    match target:
        case Var(n):
            return sigma.get(n, target)
        case Bound(_):
            return target
        case Lam(h, b):
            return Lam(h, subst_term_multi(sigma, b))
        case App(f, a):
            return App(subst_term_multi(sigma, f), subst_term_multi(sigma, a))
    raise TypeError(f"not a term: {target!r}")


def close_type(r: RelType, name: str, depth: int = 0) -> RelType:
    """Replace the free occurrences of `name` by the index of a binder `depth` levels up."""
    ty = type(r)
    if ty is Arrow or ty is Comp:
        x, y = (r.dom, r.cod) if ty is Arrow else (r.left, r.right)
        nx = close_type(x, name, depth)
        ny = close_type(y, name, depth)
        return r if nx is x and ny is y else ty(nx, ny)
    if ty is All:
        b = r.body
        nb = close_type(b, name, depth + 1)
        return r if nb is b else All(r.hint, nb)
    if ty is Conv:
        x = r.rel
        nx = close_type(x, name, depth)
        return r if nx is x else Conv(nx)
    if ty is TVar:
        return TBound(depth) if r.name == name else r
    if ty is TBound or ty is Promote:  # terms contain no type variables
        return r
    raise TypeError(f"not a type: {r!r}")


def open_type(body: RelType, repl: RelType, depth: int = 0) -> RelType:
    """Instantiate the outermost binder's index in `body` with `repl`."""
    ty = type(body)
    if ty is Arrow or ty is Comp:
        x, y = (body.dom, body.cod) if ty is Arrow else (body.left, body.right)
        nx = open_type(x, repl, depth)
        ny = open_type(y, repl, depth)
        return body if nx is x and ny is y else ty(nx, ny)
    if ty is All:
        b = body.body
        nb = open_type(b, repl, depth + 1)
        return body if nb is b else All(body.hint, nb)
    if ty is Conv:
        x = body.rel
        nx = open_type(x, repl, depth)
        return body if nx is x else Conv(nx)
    if ty is TBound:
        return repl if body.index == depth else body
    if ty is TVar or ty is Promote:
        return body
    raise TypeError(f"not a type: {body!r}")


def subst_tvars(sigma: dict[str, RelType], target: RelType) -> RelType:
    """Simultaneous substitution of free type variables."""
    match target:
        case TVar(n):
            return sigma.get(n, target)
        case TBound(_):
            return target
        case Arrow(d, c):
            return Arrow(subst_tvars(sigma, d), subst_tvars(sigma, c))
        case All(h, b):
            return All(h, subst_tvars(sigma, b))
        case Conv(x):
            return Conv(subst_tvars(sigma, x))
        case Comp(l, r):
            return Comp(subst_tvars(sigma, l), subst_tvars(sigma, r))
        case Promote(_):
            return target
    raise TypeError(f"not a type: {target!r}")


def subst_terms_in_type(sigma: dict[str, Term], target: RelType) -> RelType:
    """Simultaneously substitute free term variables inside promoted terms."""
    match target:
        case TVar(_) | TBound(_):
            return target
        case Arrow(d, c):
            return Arrow(subst_terms_in_type(sigma, d), subst_terms_in_type(sigma, c))
        case All(h, b):
            return All(h, subst_terms_in_type(sigma, b))
        case Conv(x):
            return Conv(subst_terms_in_type(sigma, x))
        case Comp(l, r):
            return Comp(subst_terms_in_type(sigma, l), subst_terms_in_type(sigma, r))
        case Promote(t):
            return Promote(subst_term_multi(sigma, t))
    raise TypeError(f"not a type: {target!r}")


def shift_term(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every index at or above `cutoff`; unchanged subterms are reused."""
    if t.loose <= cutoff:
        return t
    ty = type(t)
    if ty is App:
        f, a = t.fn, t.arg
        nf = shift_term(f, by, cutoff)
        na = shift_term(a, by, cutoff)
        return t if nf is f and na is a else App(nf, na)
    if ty is Lam:
        return Lam(t.hint, shift_term(t.body, by, cutoff + 1))
    if ty is Bound:
        return Bound(t.index + by)
    raise TypeError(f"not a term: {t!r}")


def subst_bound(body: Term, index: int, arg: Term) -> Term:
    """Beta-substitute `arg` for the index `index` of a binder's `body`.

    `arg` lives outside the binder, so where it lands under `index` binders
    it is shifted up by `index`; the indices above `index` lose the binder
    and drop by one. `subst_bound(body, 0, arg)` is the contractum of
    `App(Lam(_, body), arg)`, with no fresh name and no open/close. A locally
    closed `arg` is never shifted, and subterms that no index at or above
    the substituted one reaches are reused without a visit.
    """

    def go(t: Term, j: int) -> Term:
        if t.loose <= j:
            return t
        ty = type(t)
        if ty is App:
            f, a = t.fn, t.arg
            nf = go(f, j)
            na = go(a, j)
            return t if nf is f and na is a else App(nf, na)
        if ty is Lam:
            return Lam(t.hint, go(t.body, j + 1))
        if ty is Bound:
            i = t.index
            if i != j:
                return Bound(i - 1)
            return shift_term(arg, j) if j else arg
        raise TypeError(f"not a term: {t!r}")

    return go(body, index)


def bound_occurs(t: Term, index: int) -> bool:
    """Whether the index `index` (counted from outside `t`) occurs in `t`."""
    if t.loose <= index:
        return False
    ty = type(t)
    if ty is App:
        return bound_occurs(t.fn, index) or bound_occurs(t.arg, index)
    if ty is Lam:
        return bound_occurs(t.body, index + 1)
    if ty is Bound:
        return t.index == index
    raise TypeError(f"not a term: {t!r}")
