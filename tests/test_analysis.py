"""Tests for polarity, quantifier classification, and shape predicates."""

from __future__ import annotations

import pytest
from hypothesis import given

from generators import type_strategy
from reltt.analysis import (
    BOTH,
    MINUS,
    NEG_ONLY,
    PLUS,
    POS_ONLY,
    AnalysisError,
    flip,
    forall_class,
    is_simple_transitive,
    is_symmetric,
    polarity_holds,
)
from reltt.derived import subset, sum_, unit
from reltt.reduction import DEFAULT_FUEL
from reltt.syntax import App, Arrow, Comp, Conv, Promote, TVar, Var, all_, free_type_vars, lam

IDENT = all_("X", Arrow(TVar("X"), TVar("X")))
OMEGA = App(lam("x", App(Var("x"), Var("x"))), lam("x", App(Var("x"), Var("x"))))


def test_flip_is_an_involution():
    assert flip(PLUS) == MINUS
    assert flip(MINUS) == PLUS
    assert flip(flip(PLUS)) == PLUS


def test_polarity_examples():
    assert polarity_holds("X", PLUS, TVar("X")) is True
    assert polarity_holds("X", PLUS, Arrow(TVar("X"), TVar("X"))) is False
    one_plus_x = sum_(unit(), TVar("X"))
    assert polarity_holds("X", PLUS, one_plus_x) is True


def test_polarity_in_arrow_flips_on_the_left():
    assert polarity_holds("X", MINUS, Arrow(TVar("X"), TVar("Y"))) is True
    assert polarity_holds("X", PLUS, Arrow(TVar("X"), TVar("Y"))) is False


def test_polarity_ignores_promoted_terms():
    # Term variables and type variables live in different namespaces.
    assert polarity_holds("X", PLUS, Promote(Var("X"))) is True
    assert polarity_holds("X", MINUS, Promote(Var("X"))) is True


def test_forall_class_examples():
    assert forall_class(IDENT, DEFAULT_FUEL) == POS_ONLY
    assert forall_class(TVar("X"), DEFAULT_FUEL) == BOTH
    convertible_identity = Promote(lam("y", App(lam("z", Var("z")), Var("y"))))
    assert forall_class(convertible_identity, DEFAULT_FUEL) == BOTH


def test_forall_class_negative_side():
    assert forall_class(Arrow(IDENT, TVar("X")), DEFAULT_FUEL) == NEG_ONLY


def test_forall_class_undecided_promotion_is_an_error():
    with pytest.raises(AnalysisError):
        forall_class(Promote(OMEGA), 50)


def test_symmetric_examples():
    assert is_symmetric(Conv(TVar("X")), DEFAULT_FUEL) is True
    assert is_symmetric(Comp(TVar("X"), TVar("X")), DEFAULT_FUEL) is False
    subset_shape = subset(TVar("X"), TVar("X"))
    assert is_symmetric(subset_shape, DEFAULT_FUEL) is True


def test_simple_transitive_examples():
    assert is_simple_transitive(IDENT, DEFAULT_FUEL) is True
    assert is_simple_transitive(Arrow(IDENT, IDENT), DEFAULT_FUEL) is True
    assert is_simple_transitive(Comp(TVar("X"), TVar("X")), DEFAULT_FUEL) is False


@given(type_strategy())
def test_polarity_invariant_under_converse(r):
    for p in (PLUS, MINUS):
        assert polarity_holds("X", p, r) == polarity_holds("X", p, Conv(r))


@given(type_strategy())
def test_both_polarities_iff_variable_absent(r):
    both = polarity_holds("X", PLUS, r) and polarity_holds("X", MINUS, r)
    assert both == ("X" not in free_type_vars(r))


@given(type_strategy(max_leaves=6))
def test_positive_forall_classes_are_symmetric(r):
    try:
        label = forall_class(r, 200)
    except AnalysisError:
        return
    if label in (POS_ONLY, BOTH):
        assert is_symmetric(r, 200) is True
