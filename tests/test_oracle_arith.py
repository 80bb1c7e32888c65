"""Oracle-only tests: expected values pinned by the independent evaluator.

These assertions use no package code at all. They exist so the expectations the
acceptance suite relies on (notably that addition on numerals converts to the
literal numeral, within a small step budget) were computed by an implementation
that shares nothing with the one under test.
"""

import sys

import pytest

import oracle_lambda as o


@pytest.fixture(autouse=True, scope="module")
def deep_recursion():
    # The oracle evaluator is plain recursion over nested tuples. The limit is
    # raised for this module only, so tests collected later see the stock one.
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(100000)
    yield
    sys.setrecursionlimit(saved)


def test_fixed_add_two_plus_two_is_four():
    lhs, steps_l, done_l = o.normalize(o.A(o.ADD_FIXED, o.numeral(2), o.numeral(2)), 20000)
    rhs, steps_r, done_r = o.normalize(o.numeral(4), 20000)
    assert done_l and done_r
    assert o.alpha_eq(lhs, rhs)
    # Both sides together land well under the default conversion budget.
    assert steps_l + steps_r < 10000


def test_fixed_add_small_table():
    for a, b, k in [(0, 1, 1), (1, 1, 2), (2, 1, 3), (1, 2, 3)]:
        lhs, _, done = o.normalize(o.A(o.ADD_FIXED, o.numeral(a), o.numeral(b)), 20000)
        rhs, _, _ = o.normalize(o.numeral(k), 20000)
        assert done
        assert o.alpha_eq(lhs, rhs)


def test_unguarded_add_is_not_addition():
    # The unguarded pairing <m, succ> applies the base branch to the unit value,
    # so 2+2 normalizes to something other than the numeral 4.
    lhs, _, done = o.normalize(o.A(o.ADD_UNGUARDED, o.numeral(2), o.numeral(2)), 20000)
    rhs, _, _ = o.normalize(o.numeral(4), 20000)
    assert done
    assert not o.alpha_eq(lhs, rhs)


def test_basic_conversion_expectations():
    ia, steps, done = o.normalize(o.A(o.I, o.V("a")), 5)
    assert done and steps == 1 and o.alpha_eq(ia, o.V("a"))

    ff = o.L("x", o.L("y", o.V("y")))
    nf, steps, done = o.normalize(o.A(ff, o.V("xp"), o.V("yp")), 5)
    assert done and steps <= 5 and o.alpha_eq(nf, o.V("yp"))

    omega = o.A(o.L("x", o.A(o.V("x"), o.V("x"))), o.L("x", o.A(o.V("x"), o.V("x"))))
    _, _, done = o.normalize(omega, 10000)
    assert not done

    eta = o.L("x", o.A(o.V("f"), o.V("x")))
    nf, _, done = o.normalize(eta, 5)
    assert done and o.alpha_eq(nf, o.V("f"))
