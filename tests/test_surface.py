"""Tests for the surface language: tokenizer, parser, and renderers."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given

import reference_render
from generators import random_scoped_term, random_scoped_type, term_strategy, type_strategy
from reltt.kernel import (
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
)
from reltt.prelude import DConj, IntTypeL, Sum, expand
from reltt.script import prelude_source
from reltt.surface import (
    ParseError,
    ProofDef,
    parse,
    parse_proof,
    parse_term,
    parse_type,
    render_proof,
    render_term,
    render_type,
)
from reltt.syntax import (
    All,
    App,
    Arrow,
    Bound,
    Comp,
    Conv,
    Lam,
    Promote,
    TBound,
    TVar,
    Var,
    all_,
    app,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_quantified_arrow_parses():
    assert parse_type("all X. X -> X") == all_("X", Arrow(TVar("X"), TVar("X")))


def test_promotion_composition_parses():
    want = Comp(Promote(App(Var("K"), Var("t"))), TVar("R"))
    assert parse_type("{K t} * R") == want


def test_proof_term_forms_parse_to_their_constructors():
    r = TVar("R")
    assert parse_proof("fun (u : x [R] y) => u") == PLam("u", "x", r, "y", PVar("u"))
    assert parse_proof("Fun X => u") == PTyLam("X", PVar("u"))
    assert parse_proof("u {S}") == PTyApp(PVar("u"), TVar("S"))
    assert parse_proof("x <| u |> y") == PConv(Var("x"), PVar("u"), Var("y"))
    assert parse_proof("conv_i u") == PConvI(PVar("u"))
    assert parse_proof("conv_e u") == PConvE(PVar("u"))
    assert parse_proof("iota {x, f}") == PIota(Var("x"), Var("f"))
    assert parse_proof("rho {z. g z, c} u - v") == PRho(
        "z", App(Var("g"), Var("z")), Var("c"), PVar("u"), PVar("v")
    )
    assert parse_proof("(u, v via m)") == PPair(PVar("u"), PVar("v"), Var("m"))
    assert parse_proof("pi u - z p q. p") == PPi(PVar("u"), "z", "p", "q", PVar("p"))


def test_unicode_aliases_match_their_ascii_spellings():
    pairs = [
        ("∀X. X → X", "all X. X -> X"),
        ("R ⊆ S", "R <= S"),
        ("R ⇒ S", "R => S"),
        ("R ≅ S", "R ~~ S"),
        ("R · S", "R * S"),
        ("R ⋅ S", "R * S"),
        ("R∪", "R^"),
        ("f ⋅⋅ R", "f .. R"),
    ]
    for unicode_src, ascii_src in pairs:
        assert parse_type(unicode_src) == parse_type(ascii_src)
    assert parse_term("λx. x") == parse_term("\\x. x")


def test_conjugation_sugar_expands():
    assert parse_type("f .. R") == expand(DConj(Var("f"), TVar("R")))


def test_trailing_primes_are_identifier_characters():
    assert parse_term("x'") == Var("x'")
    assert parse_term("x'' y'") == app(Var("x''"), Var("y'"))


def test_dotted_names_are_reserved_in_user_source():
    with pytest.raises(ParseError) as e:
        parse_term("x_dot")
    start, end = e.value.span
    assert 0 <= start <= end <= len("x_dot")
    assert parse_term("x_dot", allow_dotted=True) == Var("x_dot")


def test_internalized_typing_binds_tighter_than_composition():
    want = Comp(expand(IntTypeL(Var("t"), TVar("R"))), TVar("S"))
    assert parse_type("[t] R * S") == want


def test_converse_binds_tighter_than_composition():
    assert parse_type("R * S ^") == Comp(TVar("R"), Conv(TVar("S")))


def test_sum_binds_tighter_than_arrow():
    want = Arrow(expand(Sum(TVar("R"), TVar("S"))), TVar("T"))
    assert parse_type("R + S -> T") == want


def test_arrow_is_right_associative():
    want = Arrow(TVar("A"), Arrow(TVar("B"), TVar("C")))
    assert parse_type("A -> B -> C") == want


def test_composition_is_right_associative():
    want = Comp(TVar("A"), Comp(TVar("B"), TVar("C")))
    assert parse_type("A * B * C") == want


def test_application_is_left_associative():
    assert parse_term("f a b") == App(App(Var("f"), Var("a")), Var("b"))


@given(term_strategy())
def test_terms_round_trip_through_the_renderer(t):
    assert parse_term(render_term(t)) == t


@given(type_strategy())
def test_types_round_trip_through_the_renderer(r):
    assert parse_type(render_type(r)) == r


def test_renderer_freshens_shadowed_display_hints():
    t = Lam("x", Lam("x", App(Bound(1), Bound(0))))
    rendered = render_term(t)
    assert parse_term(rendered) == t
    r = All("X", All("X", Arrow(TBound(1), TBound(0))))
    rendered_type = render_type(r)
    assert parse_type(rendered_type) == r


def test_renderer_matches_the_opening_renderer():
    # Differential sweep against the renderer that opened every binder
    # (tests/reference_render.py): dangling indices, empty hints, hints that
    # clash with free names, and subterms shared under different binders.
    rng = random.Random(606)
    dangling = 0
    for _ in range(5000):
        t = random_scoped_term(rng, rng.randint(1, 30), 0, [])
        r = random_scoped_type(rng, rng.randint(1, 30), 0, [])
        rendered = render_term(t)
        assert rendered == reference_render.render_term(t), t
        assert render_type(r) == reference_render.render_type(r), r
        dangling += "?" in rendered
    assert 500 < dangling < 4500


def test_parse_error_spans_lie_within_the_source():
    for source in ("R ->", "\\x.", "fun (u : x [R] y) =>", "(a", "all . X"):
        with pytest.raises(ParseError) as e:
            parse(f"proof broken : [] |- a [{source}] b := u")
        start, end = e.value.span
        assert 0 <= start <= end


def test_script_statements_parse_with_spans():
    source = "#fuel 50\ndef two := succ zero\ntype T := R -> R\n#check two\n"
    script = parse(source)
    kinds = [type(s).__name__ for s in script.statements]
    assert kinds == ["Pragma", "TermDef", "TypeDef", "Command"]
    for stmt in script.statements:
        start, end = stmt.span
        assert 0 <= start <= end <= len(source)
    pragma = script.statements[0]
    assert (pragma.name, pragma.count) == ("fuel", 50)
    assert script.statements[3].kind == "check"


def corpus_proofs():
    sources = [
        (CORPUS / "basics.rtt").read_text(),
        (CORPUS / "derived.rtt").read_text(),
        (CORPUS / "datatypes.rtt").read_text(),
        prelude_source(),
    ]
    out = []
    for source in sources:
        for stmt in parse(source, allow_dotted=True).statements:
            if isinstance(stmt, ProofDef):
                out.append(stmt)
    return out


def test_corpus_proofs_round_trip_through_the_renderer():
    proofs = corpus_proofs()
    assert len(proofs) >= 25
    for stmt in proofs:
        rendered = render_proof(stmt.proof)
        assert parse_proof(rendered, allow_dotted=True) == stmt.proof, stmt.name
