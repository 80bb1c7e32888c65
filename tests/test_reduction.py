"""Tests for fuel-bounded leftmost-outermost beta-eta reduction."""

from __future__ import annotations

import random

from hypothesis import given

import oracle_lambda as oracle
import reference_reduction as reference
from generators import affine_terms, random_redex_term, term_strategy
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
from reltt.surface import render_term
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


def test_differential_against_the_open_close_engine_and_the_oracle():
    rng = random.Random(20211)
    stuck = 0
    for _ in range(5000):
        t = random_redex_term(rng, rng.randint(1, 16))
        # Half the budgets are small, so fuel often runs out mid-normalization.
        fuel = rng.randint(0, 60 if rng.random() < 0.5 else 8)
        got = normalize(t, fuel)
        want = reference.normalize(t, fuel)
        assert got.status == want.status, (t, fuel)
        assert got.steps_used == want.steps_used, (t, fuel)
        assert got.term == want.term, (t, fuel)
        assert render_term(got.term) == render_term(want.term), (t, fuel)
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
