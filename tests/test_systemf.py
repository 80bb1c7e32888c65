"""Tests for the System F bridge: erasure, projection, validation, embedding."""

from __future__ import annotations

import pytest
from hypothesis import given

from generators import type_strategy
from reltt.kernel import (
    PApp,
    PConv,
    PConvI,
    PIota,
    PLam,
    PPair,
    PTyApp,
    PTyLam,
    PVar,
    check,
)
from reltt.prelude import bool_discrimination
from reltt.syntax import (
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
    app,
    lam,
)
from reltt.systemf import (
    DOTTED_COLLISION,
    F_FRESHNESS_VIOLATION,
    RULE_MISMATCH,
    SHADOWING_VIOLATION,
    DAbs,
    DGen,
    DInst,
    DVar,
    FError,
    dot_name,
    embed_f,
    erase_proof,
    identity_term,
    is_dotted,
    is_f_type,
    project_ctx,
    project_derivation,
    project_type,
    rel_of_ftype,
    self_witness,
    validate_f,
    weaken_f,
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
    assert erase_proof(PIota(Var("a"), Var("f"))) == identity_term()
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
