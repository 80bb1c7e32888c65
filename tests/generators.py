"""Shared term and type generators for the test suite.

Two kinds live here: hypothesis strategies for shrinkable property tests, and
a deterministic `random.Random`-driven generator for the large seeded sweeps
where example counts matter more than shrinking.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from reltt.syntax import (
    App,
    Arrow,
    Bound,
    Comp,
    Conv,
    Lam,
    Promote,
    RelType,
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
