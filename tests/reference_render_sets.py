"""The renderer that matched on classes and collected scopes as frozensets.

A test oracle only, kept verbatim: `_rt`, `_rr` and `_rp` dispatch with
`match` class patterns and recurse once per node, including along
application spines, lambda chains and arrow chains; `_term_scope` and
`_type_scope` collect each node's free names and dangling indices as two
frozensets. `reltt.surface` prints the same strings with type dispatch, loops
along chains and integer scopes; `test_surface` checks that both agree.
"""

from __future__ import annotations

from reltt.kernel import (
    PApp,
    PConv,
    PConvE,
    PConvI,
    PIota,
    PLam,
    PPair,
    PPi,
    PRho,
    PTyApp,
    PTyLam,
    PVar,
    Proof,
)
from reltt.syntax import (
    All,
    App,
    Arrow,
    Bound,
    Comp,
    Conv,
    Judgment,
    Lam,
    Promote,
    RelType,
    TBound,
    TVar,
    Term,
    Var,
    fresh,
)

# Binders are never opened for printing. The renderer carries `env`, the names
# chosen for the enclosing binders (innermost last), so `Bound(i)` prints as
# `env[-1-i]`, or as `?i` when it dangles out of the rendered term. A binder
# keeps its hint unless the hint clashes with a name its body can see: a free
# name of the body, or the name of an enclosing binder that one of the body's
# dangling indices points to. `_term_scope`/`_type_scope` collect both in one
# bottom-up pass per render call, memoized by node identity, so shared
# subterms are scanned once. Each name is the one `fresh` would pick against
# the free names of the body opened with the enclosing binders' names, which
# is what makes the output parse back alpha-equal.

_EMPTY: frozenset = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _term_scope(t: Term, memo: dict) -> tuple[frozenset[str], frozenset[int]]:
    """Free names of `t`, and the indices that dangle out of `t` (counted from outside `t`)."""
    key = id(t)
    found = memo.get(key)
    if found is not None:
        return found
    ty = type(t)
    if ty is App:
        fn_names, fn_ixs = _term_scope(t.fn, memo)
        arg_names, arg_ixs = _term_scope(t.arg, memo)
        found = (_union(fn_names, arg_names), _union(fn_ixs, arg_ixs))
    elif ty is Lam:
        names, ixs = _term_scope(t.body, memo)
        found = (names, frozenset(i - 1 for i in ixs if i) if ixs else ixs)
    elif ty is Var:
        found = (frozenset((t.name,)), _EMPTY)
    elif ty is Bound:
        found = (_EMPTY, frozenset((t.index,)))
    else:
        raise TypeError(f"not a term: {t!r}")
    memo[key] = found
    return found


def _type_scope(r: RelType, memo: dict) -> tuple[frozenset[str], frozenset[int]]:
    """Free type names of `r`, and the type indices that dangle out of `r`."""
    key = id(r)
    found = memo.get(key)
    if found is not None:
        return found
    ty = type(r)
    if ty is Arrow or ty is Comp:
        x, y = (r.dom, r.cod) if ty is Arrow else (r.left, r.right)
        x_names, x_ixs = _type_scope(x, memo)
        y_names, y_ixs = _type_scope(y, memo)
        found = (_union(x_names, y_names), _union(x_ixs, y_ixs))
    elif ty is All:
        names, ixs = _type_scope(r.body, memo)
        found = (names, frozenset(i - 1 for i in ixs if i) if ixs else ixs)
    elif ty is Conv:
        found = _type_scope(r.rel, memo)
    elif ty is TVar:
        found = (frozenset((r.name,)), _EMPTY)
    elif ty is TBound:
        found = (_EMPTY, frozenset((r.index,)))
    elif ty is Promote:  # terms contain no type variables
        found = (_EMPTY, _EMPTY)
    else:
        raise TypeError(f"not a type: {r!r}")
    memo[key] = found
    return found


def _binder_name(hint: str, scope: tuple[frozenset[str], frozenset[int]], env: list[str]) -> str:
    """The name a binder prints under: its hint, unless that clashes with a visible name."""
    names, ixs = scope
    depth = len(env)
    outer = {env[-1 - i] for i in ixs if i < depth}
    return fresh(hint, names.union(outer) if outer else names)


def render_term(t: Term) -> str:
    return _rt(t, 0, [], {})


def _rt(t: Term, prec: int, env: list[str], memo: dict) -> str:
    # prec 0: lambda body; 1: application; 2: atom
    match t:
        case Var(n):
            return n
        case Bound(i):
            return env[-1 - i] if i < len(env) else f"?{i}"
        case Lam(h, b):
            nm = _binder_name(h or "x", _term_scope(t, memo), env)
            env.append(nm)
            body = _rt(b, 0, env, memo)
            env.pop()
            s = f"\\{nm}. {body}"
            return f"({s})" if prec > 0 else s
        case App(f, a):
            s = f"{_rt(f, 1, env, memo)} {_rt(a, 2, env, memo)}"
            return f"({s})" if prec > 1 else s
    raise TypeError(f"not a term: {t!r}")


def render_type(r: RelType) -> str:
    return _rr(r, 0, [], {})


def _rr(r: RelType, prec: int, env: list[str], memo: dict) -> str:
    # prec 0: quantifier body; 1: arrow; 2: composition; 3: converse; 4: atom
    match r:
        case TVar(n):
            return n
        case TBound(i):
            return env[-1 - i] if i < len(env) else f"?{i}"
        case All(h, b):
            nm = _binder_name(h or "X", _type_scope(r, memo), env)
            env.append(nm)
            body = _rr(b, 0, env, memo)
            env.pop()
            s = f"all {nm}. {body}"
            return f"({s})" if prec > 0 else s
        case Arrow(d, c):
            s = f"{_rr(d, 2, env, memo)} -> {_rr(c, 1, env, memo)}"
            return f"({s})" if prec > 1 else s
        case Comp(l, rr):
            s = f"{_rr(l, 3, env, memo)} * {_rr(rr, 2, env, memo)}"
            return f"({s})" if prec > 2 else s
        case Conv(b):
            return f"{_rr(b, 4, env, memo)}^"
        case Promote(t):
            return "{" + render_term(t) + "}"
    raise TypeError(f"not a type: {r!r}")


def render_proof(p: Proof) -> str:
    return _rp(p, 0)


def _rp(p: Proof, prec: int) -> str:
    # prec 0: full; 1: application position; 2: atom
    match p:
        case PVar(n):
            return n
        case PLam(pvar, sl, rel, sr, body):
            s = f"fun ({pvar} : {sl} [{render_type(rel)}] {sr}) => {_rp(body, 0)}"
            return f"({s})" if prec > 0 else s
        case PTyLam(tv, body):
            s = f"Fun {tv} => {_rp(body, 0)}"
            return f"({s})" if prec > 0 else s
        case PApp(f, a):
            s = f"{_rp(f, 1)} {_rp(a, 2)}"
            return f"({s})" if prec > 1 else s
        case PTyApp(f, r):
            s = f"{_rp(f, 1)} {{{render_type(r)}}}"
            return f"({s})" if prec > 1 else s
        case PConv(l, body, rr):
            s = f"{_rt(l, 2, [], {})} <| {_rp(body, 0)} |> {_rt(rr, 2, [], {})}"
            return f"({s})" if prec > 0 else s
        case PConvI(body):
            s = f"conv_i {_rp(body, 2)}"
            return f"({s})" if prec > 1 else s
        case PConvE(body):
            s = f"conv_e {_rp(body, 2)}"
            return f"({s})" if prec > 1 else s
        case PIota(l, t):
            return f"iota {{{render_term(l)}, {render_term(t)}}}"
        case PRho(g, tl, tr, eq, body):
            s = (
                f"rho {{{g}. {render_term(tl)}, {render_term(tr)}}} "
                f"{_rp(eq, 1)} - {_rp(body, 0)}"
            )
            return f"({s})" if prec > 0 else s
        case PPair(l, rr, mid):
            return f"({_rp(l, 0)}, {_rp(rr, 0)} via {render_term(mid)})"
        case PPi(scrut, mid, pl, pr, body):
            s = f"pi {_rp(scrut, 1)} - {mid} {pl} {pr}. {_rp(body, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(f"not a proof: {p!r}")


def render_judgment(j: Judgment) -> str:
    return f"{render_term(j.left)} [{render_type(j.rel)}] {render_term(j.right)}"

