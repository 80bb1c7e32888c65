"""Tests for fuel-bounded leftmost-outermost beta-eta reduction."""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given

import oracle_lambda as oracle
import reference_debruijn as restarting
import reference_reduction as reference
from generators import affine_terms, random_redex_term, term_strategy
from reltt import reduction
from reltt.reduction import (
    DISTINCT,
    EQUAL,
    FUEL_EXHAUSTED,
    NORMAL,
    UNDECIDED,
    conv_check,
    normalize,
    step,
)
from reltt.prelude import numeral, stdlib
from reltt.surface import parse_term, render_term
from reltt.syntax import App, Bound, Lam, Term, Var, alpha_eq, app, lam, term_size

I = lam("x", Var("x"))
OMEGA = App(lam("x", App(Var("x"), Var("x"))), lam("x", App(Var("x"), Var("x"))))


def identity_chain(k: int) -> App:
    """k nested applications of the identity; normalizes to x in exactly k steps."""
    t = Var("x")
    for _ in range(k):
        t = App(I, t)
    return t


def test_single_beta_step():
    assert step(App(lam("x", Var("x")), Var("y"))) == Var("y")
    r = normalize(App(lam("x", Var("x")), Var("y")))
    assert r.status == NORMAL and r.steps_used == 1 and r.term == Var("y")


def test_outermost_redex_fires_first():
    # The outer K-style redex discards the inner one in a single step.
    t = App(lam("x", Var("z")), App(I, Var("w")))
    assert step(t) == Var("z")


def test_eta_step():
    assert step(lam("x", App(Var("f"), Var("x")))) == Var("f")
    # No eta when the bound variable also occurs in the function part.
    stuck = lam("x", App(App(Var("f"), Var("x")), Var("x")))
    assert step(stuck) is None


def test_step_returns_none_on_normal_forms():
    assert step(Var("x")) is None
    assert step(lam("x", App(Var("x"), Var("y")))) is None


def test_fuel_exhaustion_is_reported():
    r = normalize(OMEGA, 50)
    assert r.status == FUEL_EXHAUSTED
    assert r.steps_used == 50


def test_normalize_is_deterministic():
    t = app(lam("f", lam("x", App(Var("f"), App(Var("f"), Var("x"))))), I, Var("y"))
    r1 = normalize(t, 100)
    r2 = normalize(t, 100)
    assert r1 == r2
    assert r1.status == NORMAL and alpha_eq(r1.term, Var("y"))


def test_conversion_shares_one_budget_across_both_sides():
    chain = identity_chain(6)
    assert conv_check(chain, Var("x"), 6) == EQUAL
    # 6 steps spent on the left leave nothing for the right-hand redex.
    assert conv_check(chain, identity_chain(1), 6) == UNDECIDED
    assert conv_check(chain, identity_chain(1), 7) == EQUAL


def test_conversion_quadruple():
    tt = lam("x", lam("y", Var("x")))
    ff = lam("x", lam("y", Var("y")))
    assert conv_check(app(tt, Var("x"), Var("y")), Var("x"), 5) == EQUAL
    assert conv_check(app(ff, Var("x1"), Var("y1")), Var("y1"), 5) == EQUAL
    assert conv_check(tt, ff, 100) == DISTINCT
    assert conv_check(OMEGA, I, 1000) == UNDECIDED


def test_no_alpha_shortcut_before_normalizing():
    # Even syntactically equal terms are normalized; an unnormalizable term
    # stays undecided against itself.
    assert conv_check(OMEGA, OMEGA, 100) == UNDECIDED


@given(term_strategy())
def test_normal_result_converts_to_its_source(t):
    r = normalize(t, 60)
    if r.status == NORMAL:
        assert conv_check(t, r.term, 61) == EQUAL


@given(affine_terms(), affine_terms())
def test_conv_check_symmetric_when_decided(t1, t2):
    fuel = 10 * (term_size(t1) + term_size(t2))
    verdict = conv_check(t1, t2, fuel)
    assert verdict in (EQUAL, DISTINCT)
    assert conv_check(t2, t1, fuel) == verdict


@given(affine_terms())
def test_affine_terms_normalize_within_their_size(t):
    r = normalize(t, term_size(t))
    assert r.status == NORMAL
    assert r.steps_used <= term_size(t)
    assert conv_check(t, t, 10 * term_size(t)) == EQUAL


def test_beta_under_binders_shifts_the_argument():
    # \y. (\x. \z. x) y: the argument y (index 0) lands under the binder z.
    t = Lam("y", App(Lam("x", Lam("z", Bound(1))), Bound(0)))
    assert step(t) == Lam("y", Lam("z", Bound(1)))
    # \y. \x. (\z. z x) y: x is index 1 under z, and drops to 0 after the step.
    t = Lam("y", Lam("x", App(Lam("z", App(Bound(0), Bound(1))), Bound(1))))
    assert step(t) == Lam("y", Lam("x", App(Bound(1), Bound(0))))


def test_eta_under_a_binder_lowers_outer_indices():
    # \y. \x. y x  eta-contracts to  \y. y, the eta redex sitting under y.
    t = Lam("y", Lam("x", App(Bound(1), Bound(0))))
    assert step(t) == Lam("y", Bound(0))
    assert normalize(t).term == lam("f", Var("f"))


def _named(t: Term, scope: tuple[str, ...] = ()):
    """The oracle's named form of a locally closed term; binders become _0, _1, ..."""
    match t:
        case Var(n):
            return oracle.V(n)
        case Bound(i):
            return oracle.V(scope[i])
        case Lam(_, b):
            v = f"_{len(scope)}"
            return oracle.L(v, _named(b, (v,) + scope))
        case App(f, a):
            return oracle.A(_named(f, scope), _named(a, scope))


def _assert_same_result(got, want, case) -> None:
    assert got.status == want.status, case
    assert got.steps_used == want.steps_used, case
    assert got.term == want.term, case
    assert render_term(got.term) == render_term(want.term), case


def test_differential_against_the_open_close_engine_and_the_oracle():
    rng = random.Random(20211)
    stuck = 0
    for _ in range(5000):
        t = random_redex_term(rng, rng.randint(1, 16))
        # Half the budgets are small, so fuel often runs out mid-normalization.
        fuel = rng.randint(0, 60 if rng.random() < 0.5 else 8)
        got = normalize(t, fuel)
        _assert_same_result(got, reference.normalize(t, fuel), (t, fuel))
        _assert_same_result(got, restarting.normalize(t, fuel), (t, fuel))
        nf, used, finished = oracle.normalize(_named(t), fuel)
        assert finished == (got.status == NORMAL), (t, fuel)
        if finished:
            assert used == got.steps_used, (t, fuel)
            assert oracle.canon(nf) == oracle.canon(_named(got.term)), (t, fuel)
        else:
            stuck += 1
    # The sweep exercises both verdicts, not just terms that are already normal.
    assert 200 < stuck < 2000


def test_add_four_four_step_count_is_pinned():
    add = stdlib()["add"].term
    r = normalize(app(add, numeral(4), numeral(4)))
    assert r.status == NORMAL and r.steps_used == 385
    assert conv_check(app(add, numeral(4), numeral(4)), numeral(8)) == EQUAL


def test_differential_against_the_restarting_engine_on_larger_terms():
    rng = random.Random(40721)
    stuck = 0
    for _ in range(5000):
        t = random_redex_term(rng, rng.randint(1, 40))
        fuel = rng.randint(0, 60 if rng.random() < 0.5 else 8)
        got = normalize(t, fuel)
        _assert_same_result(got, restarting.normalize(t, fuel), (t, fuel))
        stuck += got.status == FUEL_EXHAUSTED
    assert 400 < stuck < 2500


F = Var("f")
# After a contraction, the search goes on from the contractum unless one of
# four kinds of ancestor has become a redex. One term per kind, each taking
# the resumed step second.
RESUMED_REDEXES = {
    # (\x. \y. x) a b: the first beta leaves \y. a in function position.
    "beta at the parent": (app(lam("x", lam("y", Var("x"))), Var("a"), Var("b")), 2, Var("a")),
    # \x. (\y. y) (f x): the body becomes f x.
    "eta via the body": (lam("x", App(I, App(F, Var("x")))), 2, F),
    # \x. f ((\y. y) x): the argument becomes x.
    "eta via the argument": (lam("x", App(F, App(I, Var("x")))), 2, F),
    # \x. (\y. f) x x: the beta erases the other occurrence of x.
    "eta via an erased occurrence": (lam("x", app(lam("y", F), Var("x"), Var("x"))), 2, F),
}


@pytest.mark.parametrize("case", RESUMED_REDEXES)
def test_contraction_resumes_at_the_ancestor_it_made_a_redex(case):
    t, steps, nf = RESUMED_REDEXES[case]
    got = normalize(t)
    assert got == restarting.normalize(t)
    assert (got.status, got.steps_used, got.term) == (NORMAL, steps, nf)
    assert step(t) == restarting.step(t) and step(step(t)) == nf


@pytest.mark.parametrize("n, steps", [(8, 709), (16, 1357)])
def test_add_step_counts_are_pinned(n, steps):
    add = stdlib()["add"].term
    r = normalize(app(add, numeral(n), numeral(n)))
    assert r.status == NORMAL and r.steps_used == steps
    assert conv_check(app(add, numeral(n), numeral(n)), numeral(2 * n)) == EQUAL


def test_deep_terms_normalize_at_the_stock_recursion_limit(default_recursion_limit):
    spine = Var("x")
    for i in range(3000):
        spine = App(spine, Var(f"a{i % 7}"))
    nested = App(Bound(0), Bound(2999))
    for _ in range(3000):
        nested = Lam("x", nested)
    for t in (spine, nested):
        r = normalize(t)
        assert (r.status, r.steps_used) == (NORMAL, 0) and r.term is t
    right = App(I, Var("y"))
    for _ in range(3000):
        right = App(Var("g"), right)
    r = normalize(right)
    assert (r.status, r.steps_used) == (NORMAL, 1)
    t = r.term
    for _ in range(3000):
        assert t.fn == Var("g")
        t = t.arg
    assert t == Var("y")


def test_a_beta_step_rebuilds_a_991_deep_body_at_the_stock_recursion_limit(
    default_recursion_limit,
):
    # `(\x. g (g ... x)) y`: the index primitives recurse once per level of
    # the body that the step rebuilds. 991 levels is the most that the
    # closure-based primitives they replaced handled at the stock limit on
    # 3.10 and 3.11 (993 on 3.12 and 3.13); a second Python frame per level
    # would halve it. The step runs in a new thread, whose stack starts
    # almost empty, so the depth does not depend on the test runner's.
    body = Bound(0)
    for _ in range(991):
        body = App(Var("g"), body)
    results = []
    worker = threading.Thread(target=lambda: results.append(normalize(App(Lam("x", body), Var("y")))))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(results) == 1
    r = results[0]
    assert (r.status, r.steps_used) == (NORMAL, 1)
    t = r.term
    for _ in range(991):
        assert t.fn == Var("g")
        t = t.arg
    assert t == Var("y")


def test_conversion_compares_deep_equal_terms_at_the_stock_recursion_limit(
    default_recursion_limit,
):
    def spine():
        t = Var("f")
        for i in range(3000):
            t = App(t, Var(f"a{i % 7}"))
        return t

    left, right = spine(), spine()
    assert left is not right
    assert conv_check(left, right) == EQUAL
    assert conv_check(left, App(right.fn, Var("b"))) == DISTINCT



# Divergences the search meets in place (the contractum is the next redex at
# the same position) or not, repeating or growing, with the hints changing.
DIVERGENCES = {
    "omega": r"(\x. x x) (\x. x x)",
    "hints change on the first step": r"(\x. x x) (\y. y y)",
    "period 2": r"(\x. (\y. y) (x x)) (\x. (\y. y) (x x))",
    "period 3": r"(\x. (\y. y) ((\y. y) (x x))) (\x. (\y. y) ((\y. y) (x x)))",
    "period 2, a beta and an eta": r"(\x. \y. x x y) (\x. \y. x x y)",
    "under a binder": r"\z. (\x. x x) (\x. x x)",
    "the argument of a stuck head": r"f ((\x. x x) (\x. x x))",
    "under an eta-blocked frame": r"\x. x ((\x. x x) (\x. x x)) x",
    "growing, never repeating": r"(\x. x x x) (\x. x x x)",
}
OMEGA_2 = parse_term(DIVERGENCES["period 2"])


@pytest.mark.parametrize("case", DIVERGENCES)
def test_divergences_match_the_step_by_step_engines_at_every_fuel(case):
    t = parse_term(DIVERGENCES[case])
    for fuel in range(65):
        got = normalize(t, fuel)
        assert got.status == FUEL_EXHAUSTED and got.steps_used == fuel, (case, fuel)
        _assert_same_result(got, reference.normalize(t, fuel), (case, fuel))
        _assert_same_result(got, restarting.normalize(t, fuel), (case, fuel))


@pytest.fixture
def few_contractions(monkeypatch):
    """Count beta contractions, and fail past 32 of them.

    An engine that reduces step by step then fails at once instead of
    running for 10**9 steps.
    """
    contractions = 0
    contract = reduction.subst_bound

    def counted(body, index, arg):
        nonlocal contractions
        contractions += 1
        if contractions > 32:
            raise AssertionError("more than 32 contractions")
        return contract(body, index, arg)

    monkeypatch.setattr(reduction, "subst_bound", counted)


@pytest.mark.parametrize("t", [OMEGA, OMEGA_2], ids=["omega", "period 2"])
def test_a_repeating_divergence_costs_a_few_contractions_at_any_fuel(t, few_contractions):
    r = normalize(t, 10**9)
    # 10**9 is a multiple of both periods, so the term is back where it began.
    assert (r.status, r.steps_used, render_term(r.term)) == (FUEL_EXHAUSTED, 10**9, render_term(t))


def test_an_undecided_conversion_costs_a_few_contractions_at_any_fuel(few_contractions):
    assert conv_check(OMEGA, Var("x"), 10**9) == UNDECIDED
