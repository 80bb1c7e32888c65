"""Shared term, type and proof generators for the test suite.

Two kinds live here: hypothesis strategies for shrinkable property tests, and
a deterministic `random.Random`-driven generator for the large seeded sweeps
where example counts matter more than shrinking.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

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
    Lam,
    Promote,
    RelType,
    TBound,
    Term,
    TVar,
    Var,
    all_,
    lam,
)

TERM_NAMES = ("a", "b", "c", "f", "x", "y")
TYPE_NAMES = ("X", "Y", "Z")
# Binder hints: some shadow the free names above, one is empty.
HINTS = ("x", "y", "f", "x1", "")


def term_strategy(max_leaves: int = 10) -> st.SearchStrategy[Term]:
    """Arbitrary named lambda terms over a small variable pool."""
    names = st.sampled_from(TERM_NAMES)
    return st.recursive(
        names.map(Var),
        lambda sub: st.one_of(
            st.tuples(names, sub).map(lambda p: lam(p[0], p[1])),
            st.tuples(sub, sub).map(lambda p: App(p[0], p[1])),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def affine_terms(draw) -> Term:
    """Closed terms in which every bound variable occurs at most once.

    Each beta or eta step on such a term strictly shrinks it, so leftmost
    outermost reduction finishes within the term's size. They are also all
    simply typable, which makes them an honest stand-in for "randomly
    generated simply-typed terms" in termination properties.
    """
    counter = [0]

    def go(avail: list[str], depth: int) -> Term:
        choices = []
        if avail:
            choices.append("var")
        if depth < 5:
            choices.extend(("lam", "app"))
        if not choices:
            choices = ["lam"]
        kind = draw(st.sampled_from(choices))
        if kind == "var":
            idx = draw(st.integers(0, len(avail) - 1))
            return Var(avail.pop(idx))
        if kind == "lam":
            counter[0] += 1
            name = f"v{counter[0]}"
            avail.append(name)
            body = go(avail, depth + 1)
            if name in avail:
                avail.remove(name)
            return lam(name, body)
        cut = draw(st.integers(0, len(avail)))
        return App(go(avail[:cut], depth + 1), go(avail[cut:], depth + 1))

    return go([], 0)


def type_strategy(max_leaves: int = 10, with_terms: bool = True) -> st.SearchStrategy[RelType]:
    """Arbitrary relational types; `with_terms=False` leaves out promotions."""
    tnames = st.sampled_from(TYPE_NAMES)
    base = tnames.map(TVar)
    small_terms = term_strategy(4)

    def extend(sub):
        branches = [
            st.tuples(sub, sub).map(lambda p: Arrow(p[0], p[1])),
            st.tuples(tnames, sub).map(lambda p: all_(p[0], p[1])),
            sub.map(Conv),
            st.tuples(sub, sub).map(lambda p: Comp(p[0], p[1])),
        ]
        if with_terms:
            branches.append(small_terms.map(Promote))
        return st.one_of(branches)

    return st.recursive(base, extend, max_leaves=max_leaves)


def random_term(rng: random.Random, size: int) -> Term:
    if size <= 1 or rng.random() < 0.35:
        return Var(rng.choice(TERM_NAMES))
    if rng.random() < 0.5:
        return lam(rng.choice(TERM_NAMES), random_term(rng, size - 1))
    cut = rng.randint(1, size - 1)
    return App(random_term(rng, cut), random_term(rng, size - cut))


def random_type(rng: random.Random, size: int) -> RelType:
    """Random relational type with roughly `size` constructors."""
    if size <= 1 or rng.random() < 0.3:
        return TVar(rng.choice(TYPE_NAMES))
    kind = rng.choice(("arrow", "all", "conv", "comp", "promote"))
    if kind == "arrow":
        cut = rng.randint(1, size - 1)
        return Arrow(random_type(rng, cut), random_type(rng, size - cut))
    if kind == "all":
        return all_(rng.choice(TYPE_NAMES), random_type(rng, size - 1))
    if kind == "conv":
        return Conv(random_type(rng, size - 1))
    if kind == "comp":
        cut = rng.randint(1, size - 1)
        return Comp(random_type(rng, cut), random_type(rng, size - cut))
    return Promote(random_term(rng, max(size - 1, 1)))


def random_f_type(rng: random.Random, size: int) -> RelType:
    """Random System F-shaped type: type variables, arrows and universals only."""
    if size <= 1 or rng.random() < 0.3:
        return TVar(rng.choice(TYPE_NAMES))
    if rng.random() < 0.3:
        return all_(rng.choice(TYPE_NAMES), random_f_type(rng, size - 1))
    cut = rng.randint(1, size - 1)
    return Arrow(random_f_type(rng, cut), random_f_type(rng, size - cut))


def random_redex_term(rng: random.Random, size: int, depth: int = 0) -> Term:
    """Random locally closed term with free names, nested binders and many redexes.

    Built directly with de Bruijn indices, so binder hints vary independently
    of the bound occurrences (including hints that clash with free names and
    empty ones). Some lambdas are eta-shaped, about half the applications
    have a lambda in head position, and self-applications make some terms
    diverge or grow.
    """
    if size <= 1 or rng.random() < 0.1:
        if depth and rng.random() < 0.7:
            return Bound(rng.randrange(depth))
        return Var(rng.choice(TERM_NAMES))
    roll = rng.random()
    if roll < 0.3:
        return Lam(rng.choice(HINTS), random_redex_term(rng, size - 1, depth + 1))
    if roll < 0.4:  # eta-shaped; an eta redex unless index 0 also occurs in the function
        return Lam(rng.choice(HINTS), App(random_redex_term(rng, size - 1, depth + 1), Bound(0)))
    cut = rng.randint(1, size - 1)
    if roll < 0.7:
        fn = Lam(rng.choice(HINTS), random_redex_term(rng, max(cut - 1, 1), depth + 1))
    else:
        fn = random_redex_term(rng, cut, depth)
    return App(fn, random_redex_term(rng, size - cut, depth))


TYPE_HINTS = ("X", "Y", "X1", "")


def _scoped_index(rng: random.Random, depth: int) -> int:
    """Mostly an index bound by one of `depth` binders; otherwise one that dangles."""
    if depth and rng.random() < 0.8:
        return rng.randrange(depth)
    return depth + rng.randrange(2)


def random_scoped_term(rng: random.Random, size: int, depth: int = 0, pool: list | None = None) -> Term:
    """Random term on de Bruijn indices that need not be locally closed.

    Some indices point one or two levels past the enclosing binders, so they
    dangle out of the whole term. Hints clash with free names or are empty.
    With a `pool`, about one subterm in ten is an object built earlier, so one
    node can sit under different numbers of binders.
    """
    if pool and rng.random() < 0.1:
        return rng.choice(pool)
    if size <= 1 or rng.random() < 0.15:
        if rng.random() < 0.6:
            t = Bound(_scoped_index(rng, depth))
        else:
            t = Var(rng.choice(TERM_NAMES))
    elif rng.random() < 0.45:
        t = Lam(rng.choice(HINTS), random_scoped_term(rng, size - 1, depth + 1, pool))
    else:
        cut = rng.randint(1, size - 1)
        fn = random_scoped_term(rng, cut, depth, pool)
        t = App(fn, random_scoped_term(rng, size - cut, depth, pool))
    if pool is not None:
        pool.append(t)
    return t


def random_scoped_type(
    rng: random.Random, size: int, depth: int = 0, pool: list | None = None
) -> RelType:
    """The type counterpart of `random_scoped_term`, with scoped terms under promotions."""
    if pool and rng.random() < 0.1:
        return rng.choice(pool)
    if size <= 1 or rng.random() < 0.15:
        if rng.random() < 0.6:
            r = TBound(_scoped_index(rng, depth))
        else:
            r = TVar(rng.choice(TYPE_NAMES))
    else:
        kind = rng.choice(("arrow", "all", "all", "conv", "comp", "promote"))
        if kind == "all":
            r = All(rng.choice(TYPE_HINTS), random_scoped_type(rng, size - 1, depth + 1, pool))
        elif kind == "conv":
            r = Conv(random_scoped_type(rng, size - 1, depth, pool))
        elif kind == "promote":
            r = Promote(random_scoped_term(rng, size - 1, rng.randrange(3)))
        else:
            cut = rng.randint(1, size - 1)
            x = random_scoped_type(rng, cut, depth, pool)
            y = random_scoped_type(rng, size - cut, depth, pool)
            r = Arrow(x, y) if kind == "arrow" else Comp(x, y)
    if pool is not None:
        pool.append(r)
    return r


def random_unchecked_proof(rng: random.Random, size: int) -> Proof:
    """An unchecked proof over three names, so binders often shadow."""
    names = ("u", "v", "w")
    if size <= 1 or rng.random() < 0.2:
        return PVar(rng.choice(names)) if rng.random() < 0.8 else PIota(Var("a"), Var("f"))
    roll = rng.random()
    if roll < 0.45:
        cut = rng.randint(1, size - 1)
        a, b = random_unchecked_proof(rng, cut), random_unchecked_proof(rng, size - cut)
        if roll < 0.15:
            return PApp(a, b)
        if roll < 0.3:
            return PPi(a, "m", rng.choice(names), rng.choice(names), b)
        return PPair(a, b, Var("m"))
    body = random_unchecked_proof(rng, size - 1)
    if roll < 0.75:
        return PLam(rng.choice(names), "x", TVar("R"), "y", body)
    wrap = rng.choice(
        (
            lambda p: PTyLam("X", p),
            lambda p: PTyApp(p, TVar("R")),
            lambda p: PConv(Var("a"), p, Var("b")),
            PConvI,
            PConvE,
            lambda p: PRho("z", Var("z"), Var("z"), PVar("u"), p),
        )
    )
    return wrap(body)
