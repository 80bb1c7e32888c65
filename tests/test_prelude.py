"""Tests for derived forms, generated datatype code, and proof builders."""

from __future__ import annotations

import random

import pytest

import derived_rules
import oracle_lambda as oracle
import reference_forms as old
from derived_rules import (
    bool_discrimination,
    conj_intro,
    impprod_intro,
    int_typing_l,
    promote_intro,
    proof_builders,
    subset_intro,
)
from generators import TYPE_NAMES, random_f_type, random_term, random_type
from proof_tools import compose_terms, numeral, subst_tvar
from reltt.analysis import MINUS, PLUS
from reltt.derived import (
    MALFORMED_PARAMETER,
    PreludeError,
    bool_,
    conj,
    dconj,
    dind,
    dparam,
    gen_fmap,
    gen_fold,
    gen_in,
    imp_prod,
    int_type_l,
    int_type_r,
    nat,
    prod,
    rec,
    rel_eq,
    subset,
    sum_,
    unit,
)
from reltt import derived
from reltt.kernel import PConvI, PVar, check
from reltt.prelude import (
    POLARITY_VIOLATION,
    UNDERIVABLE,
    gen_fmap_deriv,
    gen_fold_deriv,
    gen_in_deriv,
    gen_rebuild,
    stdlib,
)
from reltt.reduction import EQUAL, conv_check
from reltt.surface import parse_type, render_type
from reltt.syntax import (
    All,
    App,
    Arrow,
    Comp,
    ContextEntry,
    Conv,
    Promote,
    TVar,
    Var,
    all_,
    alpha_eq,
    free_vars,
    fresh,
    lam,
    open_type,
)
from reltt.systemf import (
    is_f_type,
    project_type,
    rel_of_ftype,
    rename_ftvars,
    validate_f,
)

R = TVar("R")
I = lam("z", Var("z"))
K = lam("a", lam("b", Var("a")))
UNIT = unit()
ONE_PLUS_X = sum_(UNIT, TVar("X"))


def from_oracle(t):
    """Convert an oracle tuple term into a package term."""
    match t:
        case ("var", name):
            return Var(name)
        case ("lam", name, body):
            return lam(name, from_oracle(body))
        case ("app", fn, arg):
            return App(from_oracle(fn), from_oracle(arg))
    raise TypeError(t)


def test_internalized_typing_expansions():
    t = Var("t")
    assert int_type_l(t, R) == Comp(Promote(App(K, t)), R)
    assert int_type_r(R, t) == Comp(R, Conv(Promote(App(K, t))))


def test_nat_form_expands_to_its_church_core():
    core = parse_type("all X. ((all Y. ((all X. X -> X) -> Y) -> (X -> Y) -> Y) -> X) -> X")
    assert nat() == core


def test_rec_expands_through_subset_and_implicit_product():
    inner = imp_prod(subset(R, TVar("X")), TVar("X"))
    assert rec("X", R) == all_("X", inner)


def test_sum_expansion_avoids_capturing_free_variables():
    su = sum_(TVar("Y"), TVar("X"))
    q = TVar("Q")
    want = all_("Q", Arrow(Arrow(TVar("Y"), q), Arrow(Arrow(TVar("X"), q), q)))
    assert su == want


def test_dparam_rejects_non_f_shaped_parameters():
    with pytest.raises(PreludeError) as e:
        dparam("X", Promote(Var("t")))
    assert e.value.kind == MALFORMED_PARAMETER


def _expansion(build):
    try:
        return build()
    except PreludeError as e:
        return ("PreludeError", e.kind, e.message)


def test_form_functions_match_the_expansion_of_the_old_records():
    # Against tests/reference_forms.py, where each form was a record handed
    # to `expand`: alpha-equal trees with the same rendering and `repr` (so
    # the binder hints agree), or the same error. Datatype parameters are
    # mostly System F-shaped, so `dparam` and `dind` also expand.
    rng = random.Random(1117)
    compared = 0
    for _ in range(150):
        t, tp = random_term(rng, rng.randint(1, 6)), random_term(rng, rng.randint(1, 6))
        a, b = random_type(rng, rng.randint(1, 8)), random_type(rng, rng.randint(1, 8))
        x = rng.choice(TYPE_NAMES)
        f = random_f_type(rng, rng.randint(1, 7)) if rng.random() < 0.75 else a
        pairs = [
            (lambda: int_type_l(t, a), old.IntTypeL(t, a)),
            (lambda: int_type_r(a, t), old.IntTypeR(a, t)),
            (lambda: conj(t, a, tp), old.Conj(t, a, tp)),
            (lambda: dconj(t, a), old.DConj(t, a)),
            (lambda: subset(a, b), old.Subset(a, b)),
            (lambda: imp_prod(a, b), old.ImpProd(a, b)),
            (lambda: rel_eq(a, b), old.RelEq(a, b)),
            (lambda: prod(a, b), old.Prod(a, b)),
            (lambda: sum_(a, b), old.Sum(a, b)),
            (unit, old.UnitForm()),
            (bool_, old.BoolForm()),
            (nat, old.NatForm()),
            (lambda: dparam(x, f), old.DParam(x, f)),
            (lambda: dind(x, f), old.DInd(x, f)),
            (lambda: rec(x, a), old.Rec(x, a)),
        ]
        for build, form in pairs:
            got, want = _expansion(build), _expansion(lambda: old.expand(form))
            if isinstance(want, tuple):
                assert got == want, form
                continue
            assert alpha_eq(got, want), form
            assert render_type(got) == render_type(want), form
            assert repr(got) == repr(want), form
            compared += 1
    assert compared > 150 * 14


def test_fmap_at_the_parameter_is_the_identity():
    assert alpha_eq(gen_fmap("X", TVar("X")), I)


def test_fmap_at_another_variable_is_constant_identity():
    assert alpha_eq(gen_fmap("X", TVar("Y")), App(K, I))


def test_fmap_checks_the_f_shape_once_per_call(monkeypatch):
    # F-shape is hereditary, so the recursion under the top call checks nothing.
    checked = []

    def counting(r):
        checked.append(r)
        return is_f_type(r)

    monkeypatch.setattr(derived, "is_f_type", counting)
    chain = TVar("X")
    for _ in range(50):
        chain = Arrow(TVar("Y"), chain)
    gen_fmap("X", all_("Y", chain))
    assert len(checked) == 1
    with pytest.raises(PreludeError):
        gen_fmap("X", Arrow(TVar("X"), Conv(TVar("X"))))
    assert len(checked) == 2


def _named_fmap(x, r):
    """`gen_fmap` built over names: each arrow composes its maps with
    `compose_terms`, and `lam` closes every binder over the map built so far."""
    match r:
        case TVar(n):
            return derived.I_TERM if n == x else derived.KI_TERM
        case Arrow(dom, cod):
            cod_part = compose_terms(App(_named_fmap(x, cod), Var("f")), Var("a"))
            return lam("f", lam("a", compose_terms(cod_part, App(_named_fmap(x, dom), Var("f")))))
        case All(h, b):
            y = fresh(h or "Y", {x} | free_vars(r)[1])
            return lam("f", App(_named_fmap(x, open_type(b, TVar(y))), Var("f")))
    raise TypeError(f"not a type: {r!r}")


def _arrow_chains(n):
    """A right-nested and a left-nested arrow chain, and nested `all`s, `n` deep."""
    right = left = under_all = TVar("X")
    for i in range(n):
        right = Arrow(TVar("Y" if i % 2 else "X"), right)
        left = Arrow(left, TVar("X"))
        under_all = all_("Y", Arrow(TVar("Y"), under_all))
    return [right, left, under_all]


def test_fmap_at_an_arrow_composes_both_sides():
    fm = gen_fmap("X", Arrow(TVar("Y"), TVar("X")))
    cod = compose_terms(App(I, Var("f")), Var("a"))
    want = lam("f", lam("a", compose_terms(cod, App(App(K, I), Var("f")))))
    assert alpha_eq(fm, want)
    # `repr` shows every binder hint. The chains stay shallow enough for a
    # recursive `repr` at the stock recursion limit on every supported Python.
    rng = random.Random(1821)
    types = [random_f_type(rng, rng.randint(1, 14)) for _ in range(300)]
    for r in types + _arrow_chains(40):
        assert repr(gen_fmap("X", r)) == repr(_named_fmap("X", r)), r


def test_fmap_for_sums_matches_the_oracle():
    fm = gen_fmap("X", ONE_PLUS_X)
    assert conv_check(fm, from_oracle(oracle.FMAP_SUM), 2000) == EQUAL


def test_in_matches_the_oracle():
    assert conv_check(gen_in("X", ONE_PLUS_X), from_oracle(oracle.IN), 2000) == EQUAL


def test_fold_shape():
    assert alpha_eq(gen_fold(), lam("a", lam("x", App(Var("x"), Var("a")))))


def test_rebuild_is_fold_applied_to_in():
    assert gen_rebuild("X", ONE_PLUS_X) == App(gen_fold(), gen_in("X", ONE_PLUS_X))


FMAP_TABLE = [
    (TVar("X"), PLUS),
    (TVar("Y"), PLUS),
    (Arrow(TVar("Y"), TVar("X")), PLUS),
    (ONE_PLUS_X, PLUS),
    (all_("Y", Arrow(TVar("X"), TVar("Y"))), MINUS),
]


@pytest.mark.parametrize("r,p", FMAP_TABLE, ids=["param", "other", "arrow", "sum", "all"])
def test_fmap_derivation_concludes_the_map_lemma(r, p):
    deriv = gen_fmap_deriv("X", r, p)
    subject, ftype = validate_f((), deriv)
    assert alpha_eq(subject, gen_fmap("X", r))
    proj = project_type(r)
    step = Arrow(TVar("Xp"), TVar("Xm"))
    lhs = rename_ftvars(proj, {"X": "Xp"})
    rhs = rename_ftvars(proj, {"X": "Xm"})
    if p == PLUS:
        assert ftype == Arrow(step, Arrow(lhs, rhs))
    else:
        assert ftype == Arrow(step, Arrow(rhs, lhs))


def test_in_derivation_concludes_the_constructor_type():
    deriv = gen_in_deriv("X", ONE_PLUS_X)
    subject, ftype = validate_f((), deriv)
    assert alpha_eq(subject, gen_in("X", ONE_PLUS_X))
    nat_f = dparam("X", ONE_PLUS_X)
    unrolled = subst_tvar(rel_of_ftype(nat_f), "X", rel_of_ftype(project_type(ONE_PLUS_X)))
    assert ftype == Arrow(project_type(unrolled), nat_f)


def test_fold_derivation_validates():
    deriv = gen_fold_deriv("X", ONE_PLUS_X)
    subject, _ = validate_f((), deriv)
    assert alpha_eq(subject, gen_fold())


def test_fmap_derivation_rejects_mixed_variance():
    with pytest.raises(PreludeError) as e:
        gen_fmap_deriv("X", Arrow(TVar("X"), TVar("X")), PLUS)
    assert e.value.kind == POLARITY_VIOLATION


def test_in_derivation_requires_a_covariant_parameter():
    with pytest.raises(PreludeError) as e:
        gen_in_deriv("X", Arrow(TVar("X"), TVar("X")))
    assert e.value.kind == POLARITY_VIOLATION


def test_fmap_derivation_under_a_vacuous_quantifier_is_underivable():
    with pytest.raises(PreludeError) as e:
        gen_fmap_deriv("X", all_("Y", TVar("X")), PLUS)
    assert e.value.kind == UNDERIVABLE


def test_stdlib_has_seventeen_checked_entries():
    lib = stdlib()
    assert len(lib) == 17
    for name, entry in lib.items():
        assert entry.name == name
        assert check((), entry.proof) == entry.judgment
        assert alpha_eq(entry.judgment.left, entry.term)
        assert alpha_eq(entry.judgment.right, entry.term)
        assert entry.judgment.rel == rel_of_ftype(entry.ftype)
        subject, ftype = validate_f((), entry.derivation)
        assert alpha_eq(subject, entry.term)
        assert ftype == entry.ftype


def test_numerals_iterate_the_successor():
    lib = stdlib()
    zero, succ = lib["zero"].term, lib["succ"].term
    assert numeral(0) == zero
    assert numeral(3) == App(succ, App(succ, App(succ, zero)))
    with pytest.raises(ValueError):
        numeral(-1)


def test_promote_intro_builder():
    f = Var("f")
    ctx = (ContextEntry("q", App(f, Var("a")), R, Var("b")),)
    j = check(ctx, promote_intro(ctx, f, Var("a"), PVar("q")))
    assert j.left == Var("a")
    assert j.rel == Comp(Promote(f), R)
    assert j.right == Var("b")


def test_int_typing_builder():
    ctx = (ContextEntry("q", Var("g"), R, Var("h")),)
    j = check(ctx, int_typing_l(ctx, Var("g"), Var("c"), PVar("q")))
    assert j.left == Var("c")
    assert j.rel == int_type_l(Var("g"), R)
    assert j.right == Var("h")


def test_subset_intro_builder():
    p = subset_intro((), Var("a"), Var("b"), R, R, lambda name: PVar(name))
    j = check((), p)
    assert j.left == Var("a")
    assert j.rel == subset(R, R)
    assert j.right == Var("b")


def test_impprod_intro_builder():
    s = TVar("S")
    ctx = (ContextEntry("q", Var("c"), s, Var("d")),)
    p = impprod_intro(ctx, Var("c"), Var("d"), R, s, lambda name: PVar("q"))
    j = check(ctx, p)
    assert j.rel == imp_prod(R, s)


@pytest.mark.parametrize(
    "builder, ctx, cod, assumption",
    [
        (subset_intro, (), R, None),
        (impprod_intro, (ContextEntry("q", Var("a"), TVar("S"), Var("b")),), TVar("S"), "q"),
    ],
    ids=["subset_intro", "impprod_intro"],
)
def test_transformer_builders_check_their_proof_once(builder, ctx, cod, assumption, monkeypatch):
    calls = []

    def counting_check(*args):
        calls.append(args)
        return check(*args)

    def build(transform):
        return builder(ctx, Var("a"), Var("b"), R, cod, transform)

    monkeypatch.setattr(derived_rules, "check", counting_check)
    build(lambda name: PVar(assumption or name))
    assert len(calls) == 1
    # A rejected proof and a changed target type keep their kind and message.
    with pytest.raises(PreludeError) as rejected:
        build(lambda name: PVar("nope"))
    assert (rejected.value.kind, rejected.value.message) == (
        "builder-mismatch",
        "constructed proof was rejected: unbound-proof-variable: 'nope' is not assumed",
    )
    with pytest.raises(PreludeError) as changed:
        build(lambda name: PConvI(PConvI(PVar(assumption or name))))
    assert (changed.value.kind, changed.value.message) == (
        "builder-mismatch",
        "transformer changed the target type",
    )


def test_conj_intro_builder():
    f = Var("f")
    ctx = (ContextEntry("q", App(f, Var("a")), R, App(f, Var("b"))),)
    j = check(ctx, conj_intro(ctx, f, f, PVar("q")))
    assert j.left == Var("a")
    assert j.rel == dconj(f, R)
    assert j.right == Var("b")


def test_bool_discrimination_builder_checks():
    ctx, proof = bool_discrimination(R)
    j = check(ctx, proof)
    assert j.left == Var("x")
    assert j.rel == R
    assert j.right == Var("y'")


def test_builder_registry_contents():
    names = set(proof_builders())
    assert names == {
        "promote_intro",
        "int_typing_l",
        "subset_intro",
        "impprod_intro",
        "conj_intro",
        "bool_discrimination",
    }
