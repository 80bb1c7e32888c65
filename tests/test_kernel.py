"""Tests for the proof-term kernel: one rule per constructor, synthesis mode."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_kernel
import reference_syntax
from generators import TERM_NAMES, term_strategy
from proof_tools import map_free_terms, rename_binders
from reltt import script
from reltt.kernel import (
    ARGUMENT_MISMATCH,
    DECLARATION_MISMATCH,
    FRESHNESS_VIOLATION,
    NOT_A_CONVERSE,
    NOT_A_UNIVERSAL,
    KernelError,
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
    check,
    check_declared,
    to_relpf,
)
from reltt.prelude import bool_discrimination
from reltt.script import prelude_env, run_script
from reltt.surface import parse
from reltt.systemf import self_witness
from reltt.syntax import (
    App,
    Arrow,
    Comp,
    ContextEntry,
    Conv,
    Judgment,
    Lam,
    Promote,
    TVar,
    Var,
    all_,
    lam,
    subst_term_multi,
    subst_terms_in_type,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

R = TVar("R")
S = TVar("S")


def entry(pvar: str, left: str, rel, right: str) -> ContextEntry:
    return ContextEntry(pvar, Var(left), rel, Var(right))


def test_assumption():
    ctx = (entry("u", "x", R, "y"),)
    assert check(ctx, PVar("u")) == Judgment(Var("x"), R, Var("y"))


def test_arrow_intro_then_elim():
    ctx = (entry("v", "a", S, "b"),)
    identity = PLam("u", "x", S, "y", PVar("u"))
    j = check(ctx, identity)
    assert j == Judgment(lam("x", Var("x")), Arrow(S, S), lam("y", Var("y")))
    applied = check(ctx, PApp(identity, PVar("v")))
    assert applied == Judgment(
        App(lam("x", Var("x")), Var("a")), S, App(lam("y", Var("y")), Var("b"))
    )


def test_forall_intro_then_elim():
    poly = PTyLam("X", PLam("u", "x", TVar("X"), "y", PVar("u")))
    j = check((), poly)
    assert j == Judgment(
        lam("x", Var("x")),
        all_("X", Arrow(TVar("X"), TVar("X"))),
        lam("y", Var("y")),
    )
    inst = check((), PTyApp(poly, R))
    assert inst.rel == Arrow(R, R)


def test_conversion_rewrites_both_subjects():
    ctx = (entry("u", "x", R, "y"),)
    redex = App(lam("z", Var("z")), Var("x"))
    j = check(ctx, PConv(redex, PVar("u"), Var("y")))
    assert j == Judgment(redex, R, Var("y"))


def test_converse_intro_elim_round_trip():
    ctx = (entry("u", "x", R, "y"),)
    flipped = check(ctx, PConvI(PVar("u")))
    assert flipped == Judgment(Var("y"), Conv(R), Var("x"))
    back = check(ctx, PConvE(PConvI(PVar("u"))))
    assert back == Judgment(Var("x"), R, Var("y"))


def test_promotion_intro():
    j = check((), PIota(Var("a"), Var("f")))
    assert j == Judgment(Var("a"), Promote(Var("f")), App(Var("f"), Var("a")))


def test_promotion_elim_rewrites_under_guides():
    # eq : a [{\w. w}] (\w. w) a, so the redex (\w. w) a may be replaced by a.
    ctx = (entry("p", "q0", R, "c"),)
    eq = PIota(Var("a"), lam("w", Var("w")))
    applied = App(lam("w", Var("w")), Var("a"))
    premise_ctx = ctx + (
        ContextEntry("pp", App(Var("g"), applied), R, Var("c")),
    )
    proof = PRho("z", App(Var("g"), Var("z")), Var("c"), eq, PVar("pp"))
    j = check(premise_ctx, proof)
    assert j == Judgment(App(Var("g"), applied), R, Var("c"))


def test_composition_intro_then_elim():
    ctx = (entry("u", "a", R, "m"), entry("v", "m", S, "b"))
    paired = PPair(PVar("u"), PVar("v"), Var("m"))
    j = check(ctx, paired)
    assert j == Judgment(Var("a"), Comp(R, S), Var("b"))
    repacked = PPi(paired, "z", "l", "r", PPair(PVar("l"), PVar("r"), Var("z")))
    j2 = check(ctx, repacked)
    assert j2 == Judgment(Var("a"), Comp(R, S), Var("b"))


def test_type_application_needs_a_universal():
    ctx = (entry("u", "x", R, "y"),)
    with pytest.raises(KernelError) as e:
        check(ctx, PTyApp(PVar("u"), S))
    assert e.value.kind == NOT_A_UNIVERSAL


def test_application_argument_must_match_domain():
    ctx = (entry("u", "f", Arrow(R, S), "g"), entry("v", "a", TVar("T"), "b"))
    with pytest.raises(KernelError) as e:
        check(ctx, PApp(PVar("u"), PVar("v")))
    assert e.value.kind == ARGUMENT_MISMATCH


def test_converse_elim_needs_a_converse():
    ctx = (entry("u", "x", R, "y"),)
    with pytest.raises(KernelError) as e:
        check(ctx, PConvE(PVar("u")))
    assert e.value.kind == NOT_A_CONVERSE


def test_lambda_binders_must_be_distinct():
    with pytest.raises(KernelError) as e:
        check((), PLam("u", "a", R, "a", PVar("u")))
    assert e.value.kind == FRESHNESS_VIOLATION


def test_duplicate_context_assumption_rejected():
    ctx = (entry("u", "x", R, "y"), entry("u", "a", S, "b"))
    with pytest.raises(KernelError) as e:
        check(ctx, PVar("u"))
    assert e.value.kind == FRESHNESS_VIOLATION


def test_check_declared_accepts_up_to_alpha():
    identity = PTyLam("X", PLam("u", "x", TVar("X"), "y", PVar("u")))
    declared = Judgment(
        lam("x", Var("x")),
        all_("X", Arrow(TVar("X"), TVar("X"))),
        lam("y", Var("y")),
    )
    assert check_declared((), identity, declared) == declared


def test_check_declared_rejects_other_judgments():
    identity = PTyLam("X", PLam("u", "x", TVar("X"), "y", PVar("u")))
    bool_r = all_("X", Arrow(TVar("X"), Arrow(TVar("X"), TVar("X"))))
    wrong = Judgment(lam("x", Var("x")), bool_r, lam("x", Var("x")))
    with pytest.raises(KernelError) as e:
        check_declared((), identity, wrong)
    assert e.value.kind == DECLARATION_MISMATCH


def test_to_relpf_single_axiom_node():
    node = to_relpf((), PIota(Var("a"), Var("f")))
    assert node.rule == "promotion-intro"
    assert node.children == ()
    assert node.judgment == Judgment(Var("a"), Promote(Var("f")), App(Var("f"), Var("a")))


def test_to_relpf_rule_names_cover_intro_elim_pairs():
    ctx = (entry("u", "a", R, "m"), entry("v", "m", S, "b"))
    node = to_relpf(ctx, PPair(PVar("u"), PVar("v"), Var("m")))
    assert node.rule == "composition-intro"
    assert [c.rule for c in node.children] == ["assumption", "assumption"]


def test_kernel_is_deterministic():
    ctx, proof = bool_discrimination(R)
    assert check(ctx, proof) == check(ctx, proof)


def test_weakening_preserves_the_judgment():
    ctx, proof = bool_discrimination(R)
    j = check(ctx, proof)
    weakened = ctx + (entry("unused", "w0", TVar("W0"), "w1"),)
    assert check(weakened, proof) == j


def test_substitution_stability():
    ctx, proof = bool_discrimination(R)
    j = check(ctx, proof)
    sigma = {"x": Var("a0"), "y'": App(Var("h"), Var("a1"))}
    ctx2 = tuple(
        ContextEntry(
            e.pvar,
            subst_term_multi(sigma, e.left),
            subst_terms_in_type(sigma, e.rel),
            subst_term_multi(sigma, e.right),
        )
        for e in ctx
    )
    j2 = check(ctx2, map_free_terms(proof, sigma))
    assert j2 == Judgment(
        subst_term_multi(sigma, j.left),
        subst_terms_in_type(sigma, j.rel),
        subst_term_multi(sigma, j.right),
    )


def test_error_location_survives_to_the_exception():
    ctx = (entry("u", "x", R, "y"),)
    bad = PConvE(PVar("u"))
    object.__setattr__(bad, "span", (3, 9))
    with pytest.raises(KernelError) as e:
        check(ctx, bad)
    assert e.value.location == (3, 9)


def test_rho_rejects_unrelated_premises():
    eq = PIota(Var("a"), lam("w", Var("w")))
    ctx = (entry("p", "b", R, "c"),)
    proof = PRho("z", Var("z"), Var("c"), eq, PVar("p"))
    with pytest.raises(KernelError) as e:
        check(ctx, proof)
    assert e.value.kind == "rho-premise-mismatch"


# Freshness side conditions whose offending name enters the name sets at a
# different point of the derivation: the root context, an enclosing binder's
# new entry, or the scrutinee of a composition eliminator.
RS = Comp(R, S)
MID_IN_SCRUTINEE = PPair(  # m [{f} * {g}] g (f m), from an empty context
    PIota(Var("m"), Var("f")), PIota(App(Var("f"), Var("m")), Var("g")), App(Var("f"), Var("m"))
)
FRESHNESS_CASES = {
    "subject-free-in-outer-term": ((entry("u", "x", R, "y"),), PLam("v", "x", R, "z", PVar("v"))),
    "subject-free-in-outer-promotion": (
        (ContextEntry("u", Var("a"), Promote(Var("x")), Var("b")),),
        PLam("v", "x", R, "z", PVar("v")),
    ),
    "nested-fun-rebinds-outer-subject": ((), PLam("u", "x", R, "y", PLam("v", "x", S, "z", PVar("v")))),
    "fun-in-pi-body-binds-mid": (
        (entry("w", "a", RS, "c"),),
        PPi(PVar("w"), "m", "p", "q", PLam("v", "m", R, "z", PVar("v"))),
    ),
    "fun-in-pi-body-binds-scrutinee-name": (
        (),
        PPi(MID_IN_SCRUTINEE, "n", "p", "q", PLam("v", "f", R, "z", PVar("v"))),
    ),
    "type-binder-in-enclosing-annotation": ((), PLam("u", "x", TVar("X"), "y", PTyLam("X", PVar("u")))),
    "type-binder-in-pi-body-from-scrutinee": (
        (entry("w", "a", all_("Y", Comp(TVar("Y"), S)), "c"),),
        PPi(PTyApp(PVar("w"), TVar("X")), "m", "p", "q", PTyLam("X", PVar("w"))),
    ),
    "mid-escapes-through-context": (
        (entry("w", "a", RS, "c"), ContextEntry("e", Var("k"), Promote(Var("m")), Var("k"))),
        PPi(PVar("w"), "m", "p", "q", PVar("w")),
    ),
    "mid-escapes-through-body": ((entry("w", "a", RS, "c"),), PPi(PVar("w"), "m", "p", "q", PVar("p"))),
    "mid-escapes-through-scrutinee": (
        (),
        PPi(MID_IN_SCRUTINEE, "m", "p", "q", PIota(Var("a"), Var("b"))),
    ),
}


@pytest.mark.parametrize("case", sorted(FRESHNESS_CASES))
def test_freshness_side_conditions_see_every_binder(case):
    ctx, proof = FRESHNESS_CASES[case]
    with pytest.raises(KernelError) as e:
        check(ctx, proof)
    assert e.value.kind == FRESHNESS_VIOLATION


def _derivation(derive, ctx, proof, fuel):
    try:
        return derive(ctx, proof, fuel)
    except KernelError as e:
        return (e.kind, e.message, e.location)


def test_kernel_matches_the_kernel_that_recollects_free_names(monkeypatch):
    # Differential check against tests/reference_kernel.py on every proof of
    # the corpus (negative files included) and of the packaged library, and
    # on their alpha-variants with every binder renamed.
    env = prelude_env()
    inputs = [(e.ctx, e.proof, e.fuel) for e in env.proofs.values()]

    def record(ctx, proof, declared, fuel):
        inputs.append((ctx, proof, fuel))
        raise KernelError("recorded", "")

    monkeypatch.setattr(script, "check_declared", record)
    negatives = sorted((CORPUS / "negative").glob("*.rtt"))
    for path in sorted(CORPUS.glob("*.rtt")) + negatives:
        run_script(parse(path.read_text(encoding="utf-8")), env=env)
    assert len(inputs) == 17 + 29 + len(negatives)
    rejected = 0
    for ctx, proof, fuel in inputs:
        got = _derivation(to_relpf, ctx, proof, fuel)
        assert got == _derivation(reference_kernel.to_relpf, ctx, proof, fuel)
        rejected += isinstance(got, tuple)
        renamed = rename_binders(proof, "_rn")
        got = _derivation(to_relpf, ctx, renamed, fuel)
        assert got == _derivation(reference_kernel.to_relpf, ctx, renamed, fuel)
    # Every negative file fails in the kernel, except declaration-mismatch,
    # whose proof derives and only differs from its declared judgment.
    assert rejected == len(negatives) - 1



def test_the_kernel_matches_the_reference_kernel_on_the_library_self_witnesses():
    # `self_witness` embeds each library proof's F derivation and re-derives
    # it; those embedded proofs nest the most `fun`s of any input, so they
    # lean on the table of name-free subterms hardest. `repr` compares the
    # binder hints that `==` leaves out.
    library = prelude_env().proofs.values()
    assert len(library) == 17
    for e in library:
        ctx, proof, _ = self_witness(e.ctx, e.proof, e.fuel)
        got = to_relpf(ctx, proof, e.fuel)
        want = reference_kernel.to_relpf(ctx, proof, e.fuel)
        assert got == want and repr(got) == repr(want)


def _leaves(t):
    stack = [t]
    while stack:
        x = stack.pop()
        if type(x) is App:
            stack += (x.fn, x.arg)
        elif type(x) is Lam:
            stack.append(x.body)
        else:
            yield x


def _reuses_the_same_subterms(before, after, before_ref, after_ref):
    """Whether the two rebuilds reuse an input node at the same places."""
    stack = [(before, after, before_ref, after_ref)]
    while stack:
        t, r, t_ref, r_ref = stack.pop()
        if (r is t) != (r_ref is t_ref):
            return False
        if r is not t and type(t) is App:
            stack += ((t.fn, r.fn, t_ref.fn, r_ref.fn), (t.arg, r.arg, t_ref.arg, r_ref.arg))
        elif r is not t and type(t) is Lam:
            stack.append((t.body, r.body, t_ref.body, r_ref.body))
    return True


@given(
    term_strategy(),
    st.lists(
        st.tuples(st.sampled_from(TERM_NAMES), term_strategy(), st.sampled_from(("body", "fn", "arg"))),
        max_size=6,
    ),
)
def test_kernel_closes_that_share_a_table_match_lam(first, steps):
    # Each step closes a body built from the previous result, as a `fun`
    # closes a body judgment built under earlier ones; the kernel's closes
    # all share one table, as the closes of one derivation do.
    nameless = {}
    mine = ref = first
    for name, other, shape in steps:
        if shape == "body":
            body, body_ref = mine, ref
        elif shape == "fn":
            body, body_ref = App(mine, other), App(ref, other)
        else:
            body, body_ref = App(other, mine), App(other, ref)
        mine = lam(name, body, nameless)
        ref = Lam(name, reference_syntax.close_term(body_ref, name))
        assert mine == ref and repr(mine) == repr(ref)
        assert _reuses_the_same_subterms(Lam(name, body), mine, Lam(name, body_ref), ref)
    for node in nameless.values():
        assert not any(type(leaf) is Var for leaf in _leaves(node))


def test_a_fun_closes_a_3000_argument_spine_at_the_stock_recursion_limit(default_recursion_limit):
    # The right subject `(\z. g x) (f a ... a)` holds one long application
    # spine, which the `fun` close walks in a loop.
    spine = Var("f")
    for _ in range(3000):
        spine = App(spine, Var("a"))
    x, g = Var("x"), Var("g")
    right = App(lam("z", App(g, x)), spine)
    j = check((), PLam("u", "x", R, "y", PConv(x, PIota(x, g), right)))
    assert j.left == lam("x", x) and j.rel == Arrow(R, Promote(g))
    assert type(j.right) is Lam and j.right.body is right
