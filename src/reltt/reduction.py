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
-1)`; any other lambda is searched inside and rebuilt with its hint
unchanged. No fresh names are made and no binder is opened and closed again.

`normalize` is one iterative search that keeps the path from the root to its
focus and contracts in place. It never restarts at the root: after a
contraction it resumes at the contractum, or at the outermost ancestor the
contraction turned into a redex (four cases, see `_resumed`). With the
loose-index range every term caches (see `syntax`), a contraction visits
only the subterms whose indices it changes. So a step costs the redex and
the part of the term the search moves past, not the whole term. The search
needs no Python stack however deep the term is; only the index primitives
recurse, into the subterms a contraction changes. `step` is a one-step view
of the same engine, so the strategy is written once.

A divergence that repeats itself costs one period, not the whole budget.
When the contractum is itself the next redex, the search contracts again in
place, and neither the path nor the blocked frames change: the focus is the
whole search state. Once a run in place has made such a redex, Brent's cycle
search compares each later focus of the run with a saved one, node types,
names, indices and hints alike (the renderer prints hints), and moves the
saved focus at powers of two. Most runs of a normalizing term end after
their first contraction, so they compare nothing. A match `p` steps apart
means that the search is in a state it was in `p` steps ago; since the
strategy is deterministic, it will be in it again after every further
multiple of `p`. So `normalize` adds the largest such multiple that the fuel
allows to the steps used, and takes the last fewer than `p` steps one by
one. The step count, the status and the term, hints included, are those of
the step-by-step search; only the work is gone. Ω takes two contractions at
any fuel, a period-3 divergence at most nine.

Conversion never guesses. If fuel runs out before both sides normalize, the
result is "undecided", and callers treat that as failure, not equality.
"""

from __future__ import annotations

from .records import dataclass
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
    """One leftmost-outermost beta-eta step, or None if t is normal."""
    r = normalize(t, 1)
    return r.term if r.steps_used else None


# A frame of the path from the root to the focus: (kind, node, left). The
# focus stands for `node.fn` (_FN), `node.arg` (_ARG) or `node.body` (_BODY);
# `left` is the function part as it is now, for _ARG frames only, since a
# finished function may have been contracted after `node` was built.
_FN, _ARG, _BODY = "fn", "arg", "body"


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> NormalizeResult:
    """Reduce to normal form, spending at most `fuel` steps.

    One leftmost-outermost search walks the term, keeping the path from the
    root to its focus. Everything the search has passed is free of redexes,
    so after a contraction it goes on from the contractum, unless the
    contraction made an ancestor a redex (see `_resumed`); then it rebuilds
    the path up to that ancestor and contracts it next.
    """
    path: list[tuple] = []
    # Positions of the _FN frames that enter `f` in a `Lam(_, App(f, Bound(0)))`,
    # an eta shape that is no redex because index 0 occurs in `f`.
    blocked: list[int] = []
    focus = t
    used = 0
    # Brent's cycle search over a run of contractions in place: `last` is the
    # latest contractum; `saved`, None outside a run, is the focus of `lam`
    # steps ago, and moves on when `lam` reaches `power`.
    last = saved = None
    power = lam = 0
    while True:
        ty = type(focus)
        if ty is App:
            if type(focus.fn) is not Lam:
                if path and path[-1][0] is _BODY and _is_index0(focus.arg):
                    blocked.append(len(path))
                path.append((_FN, focus, None))
                focus = focus.fn
                continue
        elif ty is Lam:
            if not _is_eta_body(focus.body):
                path.append((_BODY, focus, None))
                focus = focus.body
                continue
        else:  # a name or an index: on to the next argument not yet searched
            if ty is not Var and ty is not Bound:
                raise TypeError(f"not a term: {focus!r}")
            while path:
                kind, node, left = path.pop()
                if kind is _FN:
                    if blocked and blocked[-1] == len(path):
                        blocked.pop()
                    path.append((_ARG, node, focus))
                    focus = node.arg
                    break
                focus = _rebuild(kind, node, left, focus)
            else:
                return NormalizeResult(focus, NORMAL, used)
            continue
        # Only a contraction in place leaves its contractum as the focus: the
        # ancestor that `_plug` rebuilds is a new node.
        if focus is last:
            if saved is None:
                saved, power, lam = focus, 1, 0
            else:
                lam += 1
                if _identical(focus, saved):
                    used += (fuel - used) // lam * lam
                elif lam == power:
                    saved, power, lam = focus, 2 * power, 0
        elif saved is not None:
            saved = None
        if used >= fuel:
            return NormalizeResult(_plug(path, blocked, focus, 0), FUEL_EXHAUSTED, used)
        if ty is App:
            focus = subst_bound(focus.fn.body, 0, focus.arg)
        else:
            focus = shift_term(focus.body.fn, -1)
        used += 1
        last = focus
        if path:
            k = _resumed(path, blocked, focus)
            if k >= 0:
                focus = _plug(path, blocked, focus, k)


def _identical(a: Term, b: Term) -> bool:
    """Whether two terms are the same tree, `Lam` hints included.

    `==` and `alpha_eq` ignore hints, but the renderer prints them, so a
    period found with either could change a fuel-exhausted term's rendering.
    """
    stack = [(a, b)]
    pop, push = stack.pop, stack.append
    while stack:
        x, y = pop()
        if x is y:
            continue
        ty = type(x)
        if type(y) is not ty:
            return False
        if ty is App:
            push((x.arg, y.arg))
            push((x.fn, y.fn))
        elif ty is Lam:
            if x.hint != y.hint:
                return False
            push((x.body, y.body))
        elif x != y:
            return False
    return True


def _is_index0(t: Term) -> bool:
    return type(t) is Bound and t.index == 0


def _is_eta_body(body: Term) -> bool:
    """Whether `Lam(_, body)` is an eta redex: `body` is `App(f, Bound(0))` with 0 absent from f."""
    return type(body) is App and _is_index0(body.arg) and not bound_occurs(body.fn, 0)


def _rebuild(kind: str, node: Term, left: Term | None, focus: Term) -> Term:
    """The frame's node with `focus` in place; `node` itself if nothing changed."""
    if kind is _FN:
        return node if focus is node.fn else App(focus, node.arg)
    if kind is _ARG:
        return node if left is node.fn and focus is node.arg else App(left, focus)
    return node if focus is node.body else Lam(node.hint, focus)


def _plug(path: list[tuple], blocked: list[int], focus: Term, k: int) -> Term:
    """Pop the frames from the focus up to position `k`, and rebuild their nodes."""
    while len(path) > k:
        kind, node, left = path.pop()
        focus = _rebuild(kind, node, left, focus)
    while blocked and blocked[-1] >= k:
        blocked.pop()
    return focus


def _resumed(path: list[tuple], blocked: list[int], c: Term) -> int:
    """The position of the outermost frame that a contraction to `c` made a redex, or -1.

    Each frame's node was no redex when the search passed it, and only the
    contracted subterm changed, so only four kinds of node can have become
    one: a `Lam` whose body is `App(f, Bound(0))` with `c` inside `f`, once
    the last occurrence of index 0 in `f` is gone (occurrences only ever
    disappear); a `Lam` whose body's argument `c` became `Bound(0)`; and the
    direct parent, an `App` whose function `c` became a `Lam`, or a `Lam`
    whose body `c` is now eta-shaped.
    """
    for i in blocked:
        if not _occurs_in_fn(path, i, c):
            return i - 1
    top = len(path) - 1
    kind, _, left = path[top]
    if kind is _FN:
        return top if type(c) is Lam else -1
    if kind is _BODY:
        return top if _is_eta_body(c) else -1
    if top and path[top - 1][0] is _BODY and _is_index0(c) and not bound_occurs(left, 0):
        return top - 1
    return -1


def _occurs_in_fn(path: list[tuple], i: int, c: Term) -> bool:
    """Whether index 0 of the `Lam` above the _FN frame at `i` still occurs in its `f`.

    `f` is the frames below `i` with `c` at the focus; the siblings along
    that path are checked, then `c`, each at its binder depth.
    """
    depth = 0
    for kind, node, left in path[i + 1 :]:
        if kind is _BODY:
            depth += 1
        elif bound_occurs(node.arg if kind is _FN else left, depth):
            return True
    return bound_occurs(c, depth)


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
