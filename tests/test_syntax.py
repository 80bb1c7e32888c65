"""Unit and property tests for the term and type representation."""

from __future__ import annotations

import random

from hypothesis import given

import reference_syntax as reference
from generators import (
    TERM_NAMES,
    TYPE_NAMES,
    random_redex_term,
    random_scoped_term,
    random_scoped_type,
    term_strategy,
    type_strategy,
)
from proof_tools import (
    close_term,
    free_term_vars,
    locally_closed_term,
    subst_term,
    subst_tvar,
    term_size,
)
from reltt.syntax import (
    App,
    Arrow,
    Bound,
    Comp,
    Conv,
    Judgment,
    Lam,
    Promote,
    TBound,
    TVar,
    Var,
    all_,
    alpha_eq,
    bound_occurs,
    close_type,
    free_type_vars,
    free_vars,
    fresh,
    lam,
    open_term,
    open_type,
    shift_term,
    subst_bound,
    subst_term_multi,
    subst_terms_in_type,
    subst_tvars,
)

I = lam("z", Var("z"))
K = lam("p", lam("q", Var("p")))


def test_alpha_equivalence_is_structural_equality():
    assert lam("x", Var("x")) == lam("y", Var("y"))
    assert all_("X", Arrow(TVar("X"), TVar("X"))) == all_("Y", Arrow(TVar("Y"), TVar("Y")))
    assert alpha_eq(lam("x", Var("x")), lam("y", Var("y")))


def test_free_variable_names_are_compared_literally():
    assert Var("x") != Var("y")
    assert TVar("X") != TVar("Y")
    assert lam("x", Var("f")) != lam("x", Var("g"))


@given(term_strategy())
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


@given(term_strategy(), term_strategy())
def test_alpha_eq_symmetric(a, b):
    assert alpha_eq(a, b) == alpha_eq(b, a)


def test_fresh_appends_numeric_suffixes():
    assert fresh("x", set()) == "x"
    assert fresh("x", {"x", "x1"}) == "x2"


def test_free_vars_examples():
    assert free_vars(lam("x", App(Var("x"), Var("y")))) == ({"y"}, set())
    assert free_vars(all_("X", Arrow(TVar("X"), TVar("Y")))) == (set(), {"Y"})


def test_free_var_helpers_split_the_pair():
    r = Comp(Promote(Var("t")), TVar("S"))
    assert free_term_vars(r) == {"t"}
    assert free_type_vars(r) == {"S"}


@given(term_strategy(), term_strategy())
def test_subst_is_identity_when_var_absent(t, s):
    # "q0" is outside the generator pool, so it is never free in s.
    assert alpha_eq(subst_term(t, "q0", s), s)


@given(term_strategy(), term_strategy(), term_strategy())
def test_subst_is_compositional(t, tp, s0):
    # y = "q0" is outside the pool: y is not free in t and differs from x.
    x, y = "x", "q0"
    s = App(s0, Var(y))
    lhs = subst_term(t, x, subst_term(tp, y, s))
    rhs = subst_term(subst_term(t, x, tp), y, subst_term(t, x, s))
    assert alpha_eq(lhs, rhs)


@given(term_strategy(), term_strategy())
def test_free_vars_of_subst_are_bounded(t, s):
    x = "x"
    result = free_term_vars(subst_term(t, x, s))
    assert result <= (free_term_vars(s) - {x}) | free_term_vars(t)


def test_subst_term_multi_reaches_into_promotions():
    sigma = {"x": I}
    r = Promote(App(K, Var("x")))
    assert alpha_eq(subst_terms_in_type(sigma, r), Promote(App(K, I)))
    t = App(Var("x"), Var("y"))
    assert alpha_eq(subst_term_multi(sigma, t), App(I, Var("y")))


def test_subst_does_not_capture():
    # Substituting y under a binder named y must rename, not capture.
    target = lam("y", App(Var("x"), Var("y")))
    result = subst_term(Var("y"), "x", target)
    assert alpha_eq(result, lam("w", App(Var("y"), Var("w"))))
    assert not alpha_eq(result, lam("y", App(Var("y"), Var("y"))))


def test_subst_tvar_does_not_capture():
    target = all_("Y", Arrow(TVar("X"), TVar("Y")))
    result = subst_tvar(TVar("Y"), "X", target)
    assert alpha_eq(result, all_("Z", Arrow(TVar("Y"), TVar("Z"))))


@given(term_strategy())
def test_open_close_term_round_trip(t):
    assert locally_closed_term(t)
    body = close_term(t, "x")
    assert alpha_eq(open_term(body, Var("x")), t)


@given(type_strategy())
def test_open_close_type_round_trip(r):
    body = close_type(r, "X")
    assert alpha_eq(open_type(body, TVar("X")), r)


def test_shadowing_closes_only_the_nearest_binder():
    # \x. \x. x: the inner binder wins; the body's var belongs to it.
    t = lam("x", lam("x", Var("x")))
    inner = t.body
    assert alpha_eq(open_term(inner, Var("w")), lam("x", Var("x")))


def test_term_size_counts_constructors():
    assert term_size(Var("x")) == 1
    assert term_size(lam("x", Var("x"))) == 2
    assert term_size(App(Var("x"), Var("y"))) == 3


def test_judgments_compare_up_to_alpha():
    a = Judgment(lam("x", Var("x")), all_("X", TVar("X")), lam("y", Var("y")))
    b = Judgment(lam("z", Var("z")), all_("Y", TVar("Y")), lam("z", Var("z")))
    assert a == b


def test_conv_comp_promote_compare_structurally():
    assert Conv(TVar("R")) == Conv(TVar("R"))
    assert Conv(TVar("R")) != TVar("R")
    assert Comp(TVar("R"), TVar("S")) != Comp(TVar("S"), TVar("R"))
    assert Promote(lam("x", Var("x"))) == Promote(lam("y", Var("y")))


def test_subst_tvars_is_simultaneous():
    a, b = TVar("A"), TVar("B")
    swapped = subst_tvars({"A": b, "B": a}, Arrow(a, Comp(b, Conv(a))))
    assert swapped == Arrow(b, Comp(a, Conv(b)))
    assert subst_tvars({"A": b}, all_("A", a)) == all_("A", a)


@given(type_strategy(), type_strategy())
def test_subst_tvar_is_the_one_variable_subst_tvars(r, s):
    assert subst_tvar(s, "X", r) == subst_tvars({"X": s}, r)


def _naive_loose(t) -> int:
    match t:
        case Var(_):
            return 0
        case Bound(i):
            return i + 1
        case Lam(_, b):
            return max(_naive_loose(b) - 1, 0)
        case App(f, a):
            return max(_naive_loose(f), _naive_loose(a))


def _naive_locally_closed(t, depth: int) -> bool:
    match t:
        case Var(_):
            return True
        case Bound(i):
            return i < depth
        case Lam(_, b):
            return _naive_locally_closed(b, depth + 1)
        case App(f, a):
            return _naive_locally_closed(f, depth) and _naive_locally_closed(a, depth)


def test_cached_loose_range_matches_a_naive_recomputation():
    rng = random.Random(7331)
    for _ in range(5000):
        pool: list = []
        t = random_scoped_term(rng, rng.randint(1, 30), rng.randrange(3), pool)
        for u in pool:  # every node built, shared ones included
            assert u.loose == _naive_loose(u), u
        for depth in range(4):
            assert locally_closed_term(t, depth) == _naive_locally_closed(t, depth), (t, depth)


def test_cached_loose_range_is_not_part_of_equality_or_repr():
    body = App(Bound(0), Lam("z", App(Bound(2), Var("y"))))
    assert body.loose == 2 and Lam("x", body).loose == 1
    assert Lam("x", body) == Lam("y", body)
    assert hash(Lam("x", body)) == hash(Lam("y", body))
    assert repr(Lam("x", Bound(0))) == "Lam(hint='x', body=Bound(index=0))"
    assert repr(App(Var("f"), Bound(3))) == "App(fn=Var(name='f'), arg=Bound(index=3))"
    assert (Var.__match_args__, Bound.__match_args__) == (("name",), ("index",))
    assert (Lam.__match_args__, App.__match_args__) == (("hint", "body"), ("fn", "arg"))



def _rebuilt(t, target):
    """`t` built again from new nodes with new hints; its `target`-th leaf
    (counted from 1 left to right, 0 for none) turned into another leaf."""
    seen = [0]

    def go(u):
        if type(u) is App:
            return App(go(u.fn), go(u.arg))
        if type(u) is Lam:
            return Lam(u.hint + "'", go(u.body))
        seen[0] += 1
        if seen[0] == target:
            return Var("other") if type(u) is Bound else Bound(0)
        return Var(u.name) if type(u) is Var else Bound(u.index)

    return go(t)


def test_alpha_eq_agrees_with_structural_equality():
    # Separately built copies, half of them with one leaf changed, and
    # subterms shared with the original; types and judgments too.
    rng = random.Random(4242)
    equal = 0
    for _ in range(3000):
        pool: list = []
        a = random_scoped_term(rng, rng.randint(1, 12), rng.randrange(2), pool)
        b = rng.choice((_rebuilt(a, rng.choice((0, rng.randint(1, 12)))), rng.choice(pool)))
        assert alpha_eq(a, b) == (a == b) == alpha_eq(b, a), (a, b)
        equal += a == b
    assert 1000 < equal < 2500
    x, y = lam("x", Var("x")), lam("y", Var("y"))
    assert alpha_eq(Promote(x), Promote(y)) and not alpha_eq(Promote(x), Promote(K))
    assert alpha_eq(Judgment(x, TVar("R"), y), Judgment(y, TVar("R"), x))
    assert not alpha_eq(x, Promote(x)) and not alpha_eq(Var("x"), TVar("x"))


def _sigma(keys, make, var):
    """A substitution map on `keys`; no name is mapped to its own `var(name)`."""
    sigma = {}
    for key in keys:
        v = make()
        while v == var(key):
            v = make()
        sigma[key] = v
    return sigma


def test_rebuild_views_match_the_hand_written_walkers():
    # Close (through `lam`), and open and substitution as views of
    # `rebuild_term`/`rebuild_type`, against the walkers they replaced, on
    # terms and types with dangling indices, shared subterms and empty or
    # clashing hints. The output must match hints included, and a result
    # equal to its input must be the input object itself.
    rng = random.Random(9090)
    counts = {"same": 0, "changed": 0}

    def agree(got, want, given):
        assert repr(got) == repr(want), (given, got, want)
        if got == given:
            assert got is given, given
            counts["same"] += 1
        else:
            counts["changed"] += 1

    def some_term():
        return random_scoped_term(rng, rng.randint(1, 6), rng.randrange(3))

    def some_type():
        return random_scoped_type(rng, rng.randint(1, 6), rng.randrange(3))

    for _ in range(300):
        t = random_scoped_term(rng, rng.randint(1, 16), rng.randrange(3), [])
        r = random_scoped_type(rng, rng.randint(1, 16), rng.randrange(3), [])
        for _ in range(4):
            name = rng.choice(TERM_NAMES)
            agree(close_term(t, name), reference.close_term(t, name), t)
            repl = some_term()
            while type(repl) is Bound:  # an index would be equal to one it replaces
                repl = some_term()
            agree(open_term(t, repl), reference.open_term(t, repl), t)
            tname = rng.choice(TYPE_NAMES)
            agree(close_type(r, tname), reference.close_type(r, tname), r)
            trepl = some_type()
            while type(trepl) is TBound:
                trepl = some_type()
            agree(open_type(r, trepl), reference.open_type(r, trepl), r)
        present = sorted(free_term_vars(t) | free_term_vars(r))
        tpresent = sorted(free_type_vars(r))
        for keys in (present, ["absent"], present[:1] + ["absent"]):
            sigma = _sigma(keys, some_term, Var)
            agree(subst_term_multi(sigma, t), reference.subst_term_multi(sigma, t), t)
            agree(subst_terms_in_type(sigma, r), reference.subst_terms_in_type(sigma, r), r)
        for keys in (tpresent, ["Absent"], tpresent[:1] + ["Absent"]):
            sigma = _sigma(keys, some_type, TVar)
            agree(subst_tvars(sigma, r), reference.subst_tvars(sigma, r), r)
    assert counts["same"] > 4000 and counts["changed"] > 1000, counts


def _unwind(t) -> tuple:
    """The lambdas around `t`, then the head and the arguments of its spine."""
    lams, args = 0, []
    while type(t) is Lam:
        lams, t = lams + 1, t.body
    while type(t) is App:
        args.append(t.arg)
        t = t.fn
    return lams, t, args


def test_rebuild_term_walks_spines_and_lambda_chains_in_a_loop(default_recursion_limit):
    # 3,000 lambdas around a 3,000-argument spine `f a ... a`: closing,
    # opening and substitution take no Python frame per lambda or argument.
    chain = Var("f")
    for _ in range(3000):
        chain = App(chain, Var("a"))
    for _ in range(3000):
        chain = Lam("x", chain)
    closed = close_term(chain, "a")
    lams, head, args = _unwind(closed)
    assert (lams, head, len(args)) == (3000, Var("f"), 3000)
    assert all(a == Bound(3000) for a in args)
    lams, head, args = _unwind(open_term(closed, Var("b")))
    assert (lams, head, len(args)) == (3000, Var("f"), 3000)
    assert all(a == Var("b") for a in args)
    lams, head, args = _unwind(subst_term_multi({"f": Var("g")}, chain))
    assert (lams, head, len(args)) == (3000, Var("g"), 3000)
    assert subst_term_multi({"absent": Var("g")}, chain) is chain


def _nodes(t) -> list:
    """Every node of `t`, outermost first."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        out.append(u)
        if type(u) is App:
            stack += (u.arg, u.fn)
        elif type(u) is Lam:
            stack.append(u.body)
    return out


def test_index_primitives_match_the_closure_based_ones():
    # `shift_term`, `subst_bound` and `bound_occurs` against the versions
    # frozen in reference_syntax, on terms with dangling indices and shared
    # subterms, and on every beta and eta redex of terms full of redexes.
    # Node by node, the results must agree in hints and in `loose`, and must
    # reuse exactly the same input objects.
    rng = random.Random(60221)
    counts = {"same": 0, "changed": 0}

    def agree(got, want, *inputs):
        assert repr(got) == repr(want), (inputs, got, want)
        known = {id(u) for x in inputs for u in _nodes(x)}
        for g, w in zip(_nodes(got), _nodes(want)):
            assert g.loose == w.loose, (inputs, g)
            assert (id(g) in known, id(w) in known) in ((False, False), (True, True))
            assert id(w) not in known or g is w, (inputs, w)
        counts["same" if got is inputs[0] else "changed"] += 1

    def check(body, arg):
        for index in range(4):
            agree(subst_bound(body, index, arg), reference.subst_bound(body, index, arg), body, arg)
            assert bound_occurs(body, index) == reference.bound_occurs(body, index)
            for by in (1, 2) if reference.bound_occurs(body, index) else (-1, 1, 2):
                agree(shift_term(body, by, index), reference.shift_term(body, by, index), body)

    for _ in range(600):
        pool: list = []
        t = random_scoped_term(rng, rng.randint(1, 20), rng.randrange(3), pool)
        check(t, rng.choice((rng.choice(pool), random_scoped_term(rng, rng.randint(1, 6), 2))))
        for u in _nodes(random_redex_term(rng, rng.randint(1, 30))):
            if type(u) is App and type(u.fn) is Lam:
                check(u.fn.body, u.arg)
            elif type(u) is Lam and type(u.body) is App and u.body.arg == Bound(0):
                check(u.body.fn, u.body.fn)
    assert counts["same"] > 30000 and counts["changed"] > 15000, counts
