"""Tests for the System F bridge: erasure, projection, validation, embedding."""

from __future__ import annotations

import random

import pytest
from hypothesis import given

import reference_systemf as reference
from derived_rules import bool_discrimination
from generators import random_scoped_type, random_type, random_unchecked_proof, type_strategy
from proof_tools import app, checked_proofs, rename_binders
from reference_systemf import SHADOWING_VIOLATION, weaken_f
from reltt.kernel import (
    PApp,
    PConv,
    PConvI,
    PIota,
    PLam,
    PPair,
    PPi,
    PTyApp,
    PTyLam,
    PVar,
    check,
)
from reltt.prelude import stdlib
from reltt.syntax import (
    All,
    App,
    Arrow,
    Bound,
    Comp,
    ContextEntry,
    Conv,
    Lam,
    Promote,
    TBound,
    TVar,
    Var,
    all_,
    alpha_eq,
    lam,
)
from reltt.systemf import (
    DOTTED_COLLISION,
    F_FRESHNESS_VIOLATION,
    I_TERM,
    RULE_MISMATCH,
    DAbs,
    DApp,
    DGen,
    DInst,
    DVar,
    FError,
    dot_name,
    embed_f,
    erase_proof,
    is_dotted,
    is_f_type,
    project_ctx,
    project_derivation,
    project_type,
    rel_of_ftype,
    self_witness,
    validate_f,
)

R = TVar("R")
F_IDENT = all_("X", Arrow(TVar("X"), TVar("X")))
F_BOOL = all_("X", Arrow(TVar("X"), Arrow(TVar("X"), TVar("X"))))
D_IDENT = DGen("X", DAbs("x", TVar("X"), DVar("x")))
D_TT = DGen("A", DAbs("x", TVar("A"), DAbs("y", TVar("A"), DVar("x"))))


def test_dotted_names():
    assert dot_name("x") == "x_dot"
    assert is_dotted("x_dot") and not is_dotted("x")


def test_validate_identity_derivation():
    subject, ftype = validate_f((), D_IDENT)
    assert alpha_eq(subject, lam("x", Var("x")))
    assert ftype == F_IDENT


def test_validate_rejects_shadowing_binders():
    nested = DAbs("x", TVar("A"), DAbs("x", TVar("A"), DVar("x")))
    with pytest.raises(FError) as e:
        validate_f((), nested)
    assert e.value.kind == F_FRESHNESS_VIOLATION


def test_weaken_keeps_the_conclusion():
    deriv = weaken_f(D_IDENT, ("y", F_BOOL), 0)
    subject, ftype = validate_f((("y", F_BOOL),), deriv)
    assert alpha_eq(subject, lam("x", Var("x")))
    assert ftype == F_IDENT


def test_weaken_renames_a_clashing_binder():
    deriv = weaken_f(D_IDENT, ("x", F_BOOL), 0)
    subject, ftype = validate_f((("x", F_BOOL),), deriv)
    assert alpha_eq(subject, lam("x", Var("x")))
    assert ftype == F_IDENT
    assert deriv.body.binder != "x"


def test_weaken_by_declared_name_is_rejected():
    delta = (("y", F_BOOL),)
    with pytest.raises(FError) as e:
        weaken_f(DVar("y"), ("y", F_IDENT), 0, delta)
    assert e.value.kind == SHADOWING_VIOLATION


def test_erasure_equations():
    u = PVar("u")
    assert erase_proof(u) == Var("u")
    assert erase_proof(PLam("u", "x", R, "y", u)) == lam("u", Var("u"))
    assert erase_proof(PApp(u, PVar("v"))) == App(Var("u"), Var("v"))
    # Type rules, conversions, and rewrites are invisible in the erasure.
    assert erase_proof(PTyLam("X", PTyApp(u, R))) == Var("u")
    assert erase_proof(PConv(Var("a"), u, Var("b"))) == Var("u")
    assert erase_proof(PConvI(u)) == Var("u")
    assert erase_proof(PIota(Var("a"), Var("f"))) == I_TERM
    pair = erase_proof(PPair(u, PVar("v"), Var("m")))
    assert alpha_eq(pair, app(lam("x", lam("y", lam("c", app(Var("c"), Var("x"), Var("y"))))), Var("u"), Var("v")))


def test_erasure_of_the_discrimination_proof():
    ctx, proof = bool_discrimination(R)
    assert erase_proof(proof) == app(Var("u"), Var("v"), Var("w"))


def test_erasure_commutes_with_proof_variable_renaming():
    ctx, proof = bool_discrimination(R)
    # The proof is closed under its assumptions; rename u by rebuilding.
    renamed = PConv(
        proof.left,
        PApp(PApp(PTyApp(PVar("q"), R), PVar("v")), PVar("w")),
        proof.right,
    )
    want = app(Var("q"), Var("v"), Var("w"))
    assert erase_proof(renamed) == want


def test_project_type_examples():
    assert project_type(Promote(Var("t"))) == F_IDENT
    assert project_type(Conv(R)) == TVar("R")
    comp = project_type(Comp(TVar("A"), TVar("B")))
    a, b = TVar("A"), TVar("B")
    assert comp == all_("Z", Arrow(Arrow(a, Arrow(b, TVar("Z"))), TVar("Z")))
    assert project_type(all_("X", Arrow(TVar("X"), TVar("X")))) == F_IDENT


@given(type_strategy(with_terms=False))
def test_project_type_idempotent_on_f_shaped_types(r):
    once = project_type(r)
    again = project_type(rel_of_ftype(once))
    assert once == again


@given(type_strategy())
def test_projection_output_round_trips_through_injection(r):
    once = project_type(r)
    assert project_type(rel_of_ftype(once)) == once


def test_embed_closed_subject_relates_alpha_equal_sides():
    ctx, proof = embed_f((), D_TT)
    assert ctx == ()
    j = check(ctx, proof)
    tt = lam("x", lam("y", Var("x")))
    assert alpha_eq(j.left, tt)
    assert alpha_eq(j.right, tt)
    assert j.rel == rel_of_ftype(F_BOOL)


def test_embed_open_subject_uses_the_dotted_copy():
    delta = (("x", TVar("A")),)
    ctx, proof = embed_f(delta, DVar("x"))
    j = check(ctx, proof)
    assert j.left == Var("x")
    assert j.right == Var(dot_name("x"))


def test_embed_rejects_dotted_source_names():
    delta = (("x_dot", TVar("A")),)
    with pytest.raises(FError) as e:
        embed_f(delta, DVar("x_dot"))
    assert e.value.kind == DOTTED_COLLISION


def test_projection_round_trip_for_the_discrimination_proof():
    ctx, proof = bool_discrimination(R)
    deriv = project_derivation(ctx, proof)
    subject, ftype = validate_f(project_ctx(ctx), deriv)
    assert alpha_eq(subject, erase_proof(proof))
    assert ftype == project_type(R)


def test_self_witness_recheck_is_cold():
    ctx, proof = bool_discrimination(R)
    ctx2, q, j = self_witness(ctx, proof)
    assert check(ctx2, q) == j
    assert alpha_eq(j.left, erase_proof(proof))
    assert j.rel == rel_of_ftype(project_type(R))


def test_composition_projection_validates_pairing():
    # A composition proof projects to a Church pairing whose derivation checks.
    ctx = (
        ContextEntry("u", Var("a"), R, Var("m")),
        ContextEntry("v", Var("m"), TVar("S"), Var("b")),
    )
    proof = PPair(PVar("u"), PVar("v"), Var("m"))
    deriv = project_derivation(ctx, proof)
    subject, ftype = validate_f(project_ctx(ctx), deriv)
    assert alpha_eq(subject, erase_proof(proof))
    assert ftype == project_type(Comp(R, TVar("S")))


def test_f_types_are_relational_types():
    assert F_IDENT == all_("X", Arrow(TVar("X"), TVar("X")))
    assert is_f_type(F_BOOL)
    for r in (Conv(R), Comp(R, R), Promote(Var("t")), Arrow(R, all_("X", Conv(TVar("X"))))):
        assert not is_f_type(r)


@given(type_strategy())
def test_projection_lands_in_f_types(r):
    assert is_f_type(project_type(r))


@pytest.mark.parametrize(
    "delta, deriv",
    [
        ((), DAbs("x", Conv(TVar("A")), DVar("x"))),
        ((), DInst(Promote(Var("t")), D_IDENT)),
        ((("x", Comp(TVar("A"), TVar("B"))),), DVar("x")),
    ],
    ids=["annotation", "instantiation", "context"],
)
def test_validation_rejects_types_outside_system_f(delta, deriv):
    for bridge in (validate_f, embed_f):
        with pytest.raises(FError) as e:
            bridge(delta, deriv)
        assert e.value.kind == RULE_MISMATCH


def test_project_type_shifts_the_sides_of_a_composition_under_a_binder():
    x, b, z = TVar("X"), TVar("B"), TVar("Z")
    got = project_type(all_("X", Comp(Conv(x), all_("Y", Arrow(TVar("Y"), x)))))
    side = all_("Y", Arrow(TVar("Y"), x))
    assert got == all_("X", all_("Z", Arrow(Arrow(x, Arrow(side, z)), z)))
    assert repr(got) == repr(all_("X", project_type(Comp(x, side))))
    nested = project_type(Comp(Comp(x, b), b))
    assert nested == all_("Z", Arrow(Arrow(project_type(Comp(x, b)), Arrow(b, z)), z))


@pytest.mark.parametrize(
    "r",
    [
        All("X", TBound(1)),
        Comp(TBound(0), TVar("A")),
        All("X", Comp(TVar("A"), All("Y", TBound(2)))),
        Arrow(TVar("A"), Conv(TBound(0))),
    ],
    ids=["under-all", "in-composition", "composition-under-all", "under-converse"],
)
def test_project_type_rejects_a_dangling_index(r):
    with pytest.raises(ValueError, match="locally closed"):
        project_type(r)


def test_erasure_keeps_shadowing_on_unchecked_proofs():
    # \u. \u. u: the inner binder wins, as it would under `lam`.
    shadowed = PLam("u", "a", R, "b", PLam("u", "x", R, "y", PVar("u")))
    assert repr(erase_proof(shadowed)) == repr(Lam("u", Lam("u", Bound(0))))
    outer = PLam("u", "a", R, "b", PLam("v", "x", R, "y", PApp(PVar("u"), PVar("v"))))
    assert erase_proof(outer) == Lam("u", Lam("v", App(Bound(1), Bound(0))))
    # A name bound on one side of an application is free on the other.
    left = PApp(PLam("u", "x", R, "y", PVar("u")), PVar("u"))
    assert erase_proof(left) == App(Lam("u", Bound(0)), Var("u"))
    # A composition eliminator with equal proof binders: the right one wins.
    pi = PPi(PVar("u"), "m", "u", "u", PApp(PVar("u"), PVar("w")))
    assert erase_proof(pi) == App(Var("u"), Lam("u", Lam("u", App(Bound(0), Var("w")))))


# ---------------------------------------------------------------------------
# Differential sweep against tests/reference_systemf.py
# ---------------------------------------------------------------------------


def _outcome(f, *args):
    """`repr` of the result (hints included), or the error's type and text."""
    try:
        return repr(f(*args))
    except Exception as e:
        return type(e).__name__, getattr(e, "kind", None), str(e)


def test_bridge_matches_the_reference_bridge_on_the_library_and_the_corpus():
    checked = checked_proofs()
    assert len(checked) == 17 + 29
    for c in checked:
        for proof in (c.proof, rename_binders(c.proof, "_rn")):
            assert _outcome(erase_proof, proof) == _outcome(reference.erase_proof, proof)
            delta = project_ctx(c.ctx)
            assert repr(delta) == repr(reference.project_ctx(c.ctx))
            deriv = project_derivation(c.ctx, proof, c.judgment, c.fuel)
            want = reference.project_derivation(c.ctx, proof, c.judgment, c.fuel)
            assert repr(deriv) == repr(want), c.name
            for bridge, old in ((validate_f, reference.validate_f), (embed_f, reference.embed_f)):
                assert _outcome(bridge, delta, deriv) == _outcome(old, delta, deriv), c.name
    for name, entry in stdlib().items():
        if entry.derivation is not None:
            d = entry.derivation
            assert _outcome(validate_f, (), d) == _outcome(reference.validate_f, (), d), name
            assert _outcome(embed_f, (), d) == _outcome(reference.embed_f, (), d), name


def test_project_type_matches_the_reference_on_random_types():
    # Compositions under nested binders, converses, promotions, hints that
    # clash with free names, and indices that dangle out of the whole type.
    rng = random.Random(20261018)
    pool = []
    rejected = 0
    for _ in range(1500):
        r = random_scoped_type(rng, rng.randint(1, 24), 0, pool)
        got = _outcome(project_type, r)
        assert got == _outcome(reference.project_type, r), r
        rejected += isinstance(got, tuple)
        r = random_type(rng, rng.randint(1, 24))
        assert repr(project_type(r)) == repr(reference.project_type(r)), r
    assert 0 < rejected < 1500


F_NAMES = ("x", "y", "u", "x_dot")
F_TVARS = ("A", "X", "Y")


def _random_f_type(rng: random.Random, size: int):
    if size <= 1 or rng.random() < 0.3:
        return TVar(rng.choice(F_TVARS))
    roll = rng.random()
    if roll < 0.5:
        cut = rng.randint(1, size - 1)
        return Arrow(_random_f_type(rng, cut), _random_f_type(rng, size - cut))
    if roll < 0.95:
        return all_(rng.choice(F_TVARS), _random_f_type(rng, size - 1))
    return Conv(_random_f_type(rng, size - 1))  # not an F type


def _random_derivation(rng: random.Random, size: int):
    if size <= 1 or rng.random() < 0.2:
        return DVar(rng.choice(F_NAMES))
    roll = rng.random()
    if roll < 0.35:
        ann = _random_f_type(rng, rng.randint(1, 4))
        return DAbs(rng.choice(F_NAMES), ann, _random_derivation(rng, size - 1))
    if roll < 0.6:
        cut = rng.randint(1, size - 1)
        return DApp(_random_derivation(rng, cut), _random_derivation(rng, size - cut))
    if roll < 0.8:
        return DGen(rng.choice(F_TVARS), _random_derivation(rng, size - 1))
    return DInst(_random_f_type(rng, rng.randint(1, 3)), _random_derivation(rng, size - 1))


def test_validation_and_embedding_match_the_reference_on_random_derivations():
    # Mostly ill-formed: shadowing binders, unbound and dotted names,
    # generalized variables free in the context, mismatched types.
    rng = random.Random(7)
    kinds = set()
    for _ in range(1500):
        names = rng.sample(F_NAMES, rng.randint(0, 2))
        delta = tuple((n, _random_f_type(rng, rng.randint(1, 3))) for n in names)
        d = _random_derivation(rng, rng.randint(1, 10))
        got = _outcome(validate_f, delta, d)
        assert got == _outcome(reference.validate_f, delta, d), (delta, d)
        assert _outcome(embed_f, delta, d) == _outcome(reference.embed_f, delta, d), (delta, d)
        kinds.add(got[1] if isinstance(got, tuple) else "ok")
    assert kinds >= {"ok", RULE_MISMATCH, F_FRESHNESS_VIOLATION, "unbound-variable"}


def test_erasure_matches_the_reference_on_random_unchecked_proofs():
    rng = random.Random(11)
    for _ in range(1500):
        p = random_unchecked_proof(rng, rng.randint(1, 16))
        assert repr(erase_proof(p)) == repr(reference.erase_proof(p)), p
