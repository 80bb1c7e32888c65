"""Tests for the surface language: tokenizer, parser, and renderers."""

from __future__ import annotations

import random
import re
import sys
from array import array
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given

import reference_parser
import reference_render
import reference_render_sets
from generators import (
    HINTS,
    TYPE_HINTS,
    random_scoped_term,
    random_scoped_type,
    random_unchecked_proof,
    term_strategy,
    type_strategy,
)
from proof_tools import app
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
from reltt.derived import dconj, int_type_l, sum_
from reltt import script, surface
from reltt.script import prelude_env, prelude_source
from reltt.surface import (
    ParseError,
    ProofDef,
    Token,
    parse,
    parse_proof,
    parse_term,
    parse_type,
    render_proof,
    render_term,
    render_type,
    tokenize,
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
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
DUMPS = ("judgments", "erasures", "systemf")


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
    assert parse_type("f .. R") == dconj(Var("f"), TVar("R"))


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
    want = Comp(int_type_l(Var("t"), TVar("R")), TVar("S"))
    assert parse_type("[t] R * S") == want


def test_converse_binds_tighter_than_composition():
    assert parse_type("R * S ^") == Comp(TVar("R"), Conv(TVar("S")))


def test_sum_binds_tighter_than_arrow():
    want = Arrow(sum_(TVar("R"), TVar("S")), TVar("T"))
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


@pytest.fixture(scope="module")
def scoped_samples():
    """5,000 scoped terms and types from one seed, drawn once for both renderer sweeps."""
    rng = random.Random(606)
    return [
        (
            random_scoped_term(rng, rng.randint(1, 30), 0, []),
            random_scoped_type(rng, rng.randint(1, 30), 0, []),
        )
        for _ in range(5000)
    ]


def test_renderer_matches_the_opening_renderer(scoped_samples):
    # Differential sweep against the renderer that opened every binder
    # (tests/reference_render.py): dangling indices, empty hints, hints that
    # clash with free names, and subterms shared under different binders.
    dangling = 0
    for t, r in scoped_samples:
        rendered = render_term(t)
        assert rendered == reference_render.render_term(t), t
        assert render_type(r) == reference_render.render_type(r), r
        dangling += "?" in rendered
    assert 500 < dangling < 4500


def test_renderer_matches_the_frozenset_renderer(scoped_samples):
    # Differential sweep against the renderer that matched on classes and
    # kept scopes as frozensets (tests/reference_render_sets.py).
    for t, r in scoped_samples:
        assert render_term(t) == reference_render_sets.render_term(t), t
        assert render_type(r) == reference_render_sets.render_type(r), r


def test_proof_renderer_matches_the_frozenset_renderer():
    rng = random.Random(11)
    for _ in range(1500):
        p = random_unchecked_proof(rng, rng.randint(1, 16))
        assert render_proof(p) == reference_render_sets.render_proof(p), p


def test_corpus_and_prelude_print_alike_through_the_frozenset_renderer(monkeypatch):
    # Every render behind the library file, the echoes, derivation trees,
    # normal forms and dump lines of the corpus and the prelude goes through
    # both renderers.
    printed = []

    def both(name):
        new, old = getattr(surface, name), getattr(reference_render_sets, name)

        def render(x):
            text = new(x)
            assert text == old(x), x
            printed.append(text)
            return text

        return render

    for name in ("render_term", "render_type", "render_proof", "render_judgment"):
        monkeypatch.setattr(script, name, both(name))
    env = prelude_env()
    script.export_prelude()
    for stmt in corpus_proofs():
        script.render_proof(stmt.proof)
    for what in DUMPS:
        script.dump(list(env.proofs.values()), what)
    for path in sorted(CORPUS.glob("*.rtt")) + sorted((CORPUS / "negative").glob("*.rtt")):
        result = script.run_script(parse(path.read_text()), env=env, trace=True)
        assert all(d.message for d in result.diagnostics)  # echoes render when read
        for what in DUMPS:
            script.dump(result.checked, what)
    assert len(printed) > 400


def test_long_spines_and_chains_render_at_the_stock_recursion_limit(default_recursion_limit):
    # A spine, a chain of binders and a chain of arrows print in one loop, and
    # the scope of a binder above them is collected in one loop as well.
    spine = Bound(0)
    for _ in range(3000):
        spine = App(spine, Var("a"))
    assert render_term(spine) == "?0" + " a" * 3000
    assert render_term(Lam("f", spine)) == "\\f. f" + " a" * 3000
    lams = Bound(2999)
    for _ in range(3000):
        lams = Lam("x", lams)
    assert render_term(lams) == "\\x. " + "\\x1. " * 2999 + "x"
    arrows = TBound(0)
    for _ in range(3000):
        arrows = Arrow(TBound(0), arrows)
    assert render_type(arrows) == "?0 -> " * 3000 + "?0"
    assert render_type(All("X", arrows)) == "all X. " + "X -> " * 3000 + "X"


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


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Every fixed spelling and the kind it must lex to, written out independently
# of the lexer's tables.
SPELLINGS = [
    (":=", "ASSIGN"),
    ("|-", "TURNSTILE"),
    ("<|", "LCONV"),
    ("|>", "RCONV"),
    ("->", "ARROW"),
    ("=>", "DARROW"),
    ("<=", "SUBSET"),
    ("~~", "RELEQ"),
    ("..", "DOTDOT"),
    ("^", "HAT"),
    ("*", "STAR"),
    ("+", "PLUS"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("[", "LBRACK"),
    ("]", "RBRACK"),
    ("\\", "LAMBDA"),
    (".", "DOT"),
    (",", "COMMA"),
    (":", "COLON"),
    ("-", "MINUS"),
    ("#", "HASH"),
    ("λ", "LAMBDA"),
    ("·", "STAR"),
    ("→", "ARROW"),
    ("⊆", "SUBSET"),
    ("⇒", "DARROW"),
    ("≅", "RELEQ"),
    ("∪", "HAT"),
    ("⋅⋅", "DOTDOT"),
    ("⋅", "STAR"),
]


def test_the_spelling_table_covers_every_lexer_entry():
    tables = {**surface._TWO_CHAR, **surface._ONE_CHAR, **surface._UNICODE_ONE}
    assert {text for text, _ in SPELLINGS} == set(tables) | {"⋅⋅", "⋅"}
    assert len(SPELLINGS) == len(tables) + 2


@pytest.mark.parametrize("text, kind", SPELLINGS)
def test_every_fixed_spelling_is_one_token(text, kind):
    end = 2 + len(text)
    assert tokenize(f"a {text} b") == [
        Token("IDENT", "a", 0, 1),
        Token(kind, text, 2, end),
        Token("IDENT", "b", end + 1, end + 2),
        Token("EOF", "", end + 2, end + 2),
    ]


def test_forall_sign_is_the_all_keyword():
    assert tokenize("∀X. X") == [
        Token("KW", "all", 0, 1),
        Token("IDENT", "X", 1, 2),
        Token("DOT", ".", 2, 3),
        Token("IDENT", "X", 4, 5),
        Token("EOF", "", 5, 5),
    ]


def test_comments_run_to_the_end_of_the_line_or_input():
    assert tokenize("a -- note") == [Token("IDENT", "a", 0, 1), Token("EOF", "", 9, 9)]
    assert tokenize("a -- x\nb--") == [
        Token("IDENT", "a", 0, 1),
        Token("IDENT", "b", 7, 8),
        Token("EOF", "", 10, 10),
    ]
    assert tokenize("a->b") == [
        Token("IDENT", "a", 0, 1),
        Token("ARROW", "->", 1, 3),
        Token("IDENT", "b", 3, 4),
        Token("EOF", "", 4, 4),
    ]


def test_primes_end_an_identifier():
    assert [(t.kind, t.value) for t in tokenize("x' f'' x'y _'")] == [
        ("IDENT", "x'"),
        ("IDENT", "f''"),
        ("IDENT", "x'"),
        ("IDENT", "y"),
        ("IDENT", "_'"),
        ("EOF", ""),
    ]


def test_non_ascii_letters_and_digits_inside_identifiers():
    # `١` and `٣` (Arabic-Indic one and three) are decimal digits; `²` is a
    # digit that is not decimal, so `int` rejects it
    assert [(t.kind, t.value) for t in tokenize("αβ x١ y² ١x ٣")] == [
        ("IDENT", "αβ"),
        ("IDENT", "x١"),
        ("IDENT", "y²"),
        ("NUMBER", "١"),
        ("IDENT", "x"),
        ("NUMBER", "٣"),
        ("EOF", ""),
    ]
    assert tokenize("fun") == [Token("KW", "fun", 0, 3), Token("EOF", "", 3, 3)]


@pytest.mark.parametrize(
    "source, char, offset", [("²", "²", 0), ("x ²y", "²", 2), ("a ? b", "?", 2), ("'", "'", 0)]
)
def test_unexpected_characters_are_parse_errors(source, char, offset):
    with pytest.raises(ParseError) as e:
        tokenize(source)
    assert e.value.message == f"unexpected character {char!r}"
    assert e.value.span == (offset, offset + 1)


def test_dotted_suffix_error_spans_the_whole_name():
    with pytest.raises(ParseError) as e:
        tokenize("a x_dot'' b")
    assert e.value.message == "the name 'x_dot''' uses the reserved dotted suffix"
    assert e.value.span == (2, 9)


def test_scanner_classes_agree_with_the_str_predicates_on_every_code_point():
    # every code point, surrogates included, as one string
    codes = array("I", range(sys.maxunicode + 1))
    assert codes.itemsize == 4
    every = codes.tobytes().decode(f"utf-32-{sys.byteorder[0]}e", "surrogatepass")

    def matching(pattern):
        return "".join(re.findall(pattern, every))

    # `tokenize` classifies a match by its first character, so a space must
    # be a `_SPACE` match and nothing else
    assert matching(surface._SPACE) == "".join(filter(str.isspace, every))
    assert matching(surface._DIGIT) == "".join(filter(str.isdecimal, every))
    word = matching(surface._IDENT_CHAR)
    assert word.replace("_", "") == "".join(filter(str.isalnum, every)) and "_" in word
    starts = set(matching(surface._IDENT_START))
    letters = set(filter(str.isalpha, every)) | {"_"}
    assert letters <= starts
    # the rest of the start class are numeric characters that are not
    # letters, and the tokenizer rejects each of them
    assert all(c.isnumeric() for c in starts - letters)
    for c in starts - letters:
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize(c)


def test_the_packaged_library_is_11052_tokens_ending_in_eof():
    # The benchmark's `surface.tokens` counts `len(tokenize(...))`. Pinning
    # it keeps that figure comparable across changes to the lexer.
    tokens = tokenize(prelude_source(), True)
    assert len(tokens) == 11052
    assert tokens[-1].kind == "EOF"
    assert all(t.kind != "EOF" for t in tokens[:-1])


# ---------------------------------------------------------------------------
# The scanner against the reference scanner
# ---------------------------------------------------------------------------


def _scan(text: str, allow_dotted: bool):
    """`tokenize`'s tokens as tuples, or its error; its keys are checked."""
    keys: list[str] = []
    try:
        tokens = tokenize(text, allow_dotted, keys)
    except ParseError as e:
        return ("ParseError", e.message, e.span)
    assert keys == [t.value if t.kind == "KW" else t.kind for t in tokens]
    return [tuple(t) for t in tokens]


def _reference_scan(text: str, allow_dotted: bool):
    """What `_scan` must give, by `reference_parser.tokenize`.

    The reference reads a run of `str.isdigit` characters as a NUMBER, but a
    NUMBER is a run of decimal digits (what `int` accepts), and any other
    digit that starts a token, such as `²`, is an unexpected character. So
    the first such digit in a reference NUMBER is the expected error; the
    reference reads the text before its own error the same way.
    """
    try:
        tokens = reference_parser.tokenize(text, allow_dotted)
        outcome = [(t.kind, t.value, t.start, t.end) for t in tokens]
    except ParseError as e:
        tokens = reference_parser.tokenize(text[: e.span[0]], allow_dotted)
        outcome = ("ParseError", e.message, e.span)
    for t in tokens:
        if t.kind == "NUMBER" and not t.value.isdecimal():
            i = t.start + next(k for k, c in enumerate(t.value) if not c.isdecimal())
            return ("ParseError", f"unexpected character {text[i]!r}", (i, i + 1))
    return outcome


# Spellings the scanner must take apart exactly as the reference does: the
# lambda and forall signs, the two-character `⋅⋅`, a digit that is not
# decimal and one that is, a vertical tab, a Windows line end, a letter
# outside the BMP, and a name with the reserved dotted suffix.
_INSERTIONS = ["λ", "∀", "⋅⋅", "²", "١", "\x0b", "\r\n", "\U0001d465", "_dot", " x_dot' "]
_SCANNED_FILES = [None, *sorted(CORPUS.rglob("*.rtt"))]


@pytest.mark.parametrize(
    "path", _SCANNED_FILES, ids=lambda p: "prelude.rtt" if p is None else p.name
)
def test_scanner_matches_the_reference_scanner_after_insertions(path):
    text = prelude_source() if path is None else path.read_text(encoding="utf-8")
    rng = random.Random(f"scan:{'prelude' if path is None else path.name}")
    cases = [text + "--", text[: rng.randrange(len(text))] + "--"]
    for insert in _INSERTIONS:
        for _ in range(2):
            # up to 2 kB either side, so that the library's cases stay short
            i = rng.randrange(len(text) + 1)
            cases.append(text[max(0, i - 2000) : i] + insert + text[i : i + 2000])
    for case in cases:
        for allow_dotted in (False, True):
            assert _scan(case, allow_dotted) == _reference_scan(case, allow_dotted), (
                repr(case[:40]),
                allow_dotted,
            )


@pytest.mark.parametrize(
    "text",
    [
        " " * 100_000,
        ("x1_" * 16_667)[:50_000],
        "-- a comment line\n" * 20_000,
        "(" * 30_000,
        prelude_source() * 8,
    ],
    ids=["spaces", "identifier", "comment-lines", "parentheses", "library-x8"],
)
def test_long_inputs_scan_like_the_reference(text):
    # No timing is asserted: a pattern that backtracks would show as a stall.
    assert _scan(text, True) == _reference_scan(text, True)


# ---------------------------------------------------------------------------
# The parser against the one it replaced
# ---------------------------------------------------------------------------


def test_term_binders_are_resolved_while_parsing():
    shadowed = parse_term("\\x. \\y. \\x. x y z")
    assert shadowed == Lam("x", Lam("y", Lam("x", app(Bound(0), Bound(1), Var("z")))))
    assert (shadowed.hint, shadowed.body.hint, shadowed.body.body.hint) == ("x", "y", "x")
    assert parse_term("(\\x. x) x") == App(Lam("x", Bound(0)), Var("x"))
    # a term inside a type, proof or statement starts with no binder in scope
    assert parse_type("{\\x. x} * {x}") == Comp(Promote(Lam("x", Bound(0))), Promote(Var("x")))
    assert parse_proof("(\\x. x) <| u |> x") == PConv(Lam("x", Bound(0)), PVar("u"), Var("x"))


def test_a_failed_term_attempt_leaves_no_binder_in_scope():
    # `(\x. (` is tried as the term of `t .. R` and fails inside the lambda
    p = surface._Parser("(\\x. ( .. R")
    with pytest.raises(ParseError, match="expected a type"):
        p.type_()
    assert (p.scope, p.depth) == ({}, 0)


_PARSERS = {
    "script": (parse, reference_parser.parse),
    "term": (parse_term, reference_parser.parse_term),
    "type": (parse_type, reference_parser.parse_type),
    "proof": (parse_proof, reference_parser.parse_proof),
}


def _outcome(parse_fn, text, allow_dotted):
    try:
        return repr(parse_fn(text, allow_dotted))
    except ParseError as e:
        return ("ParseError", e.message, e.span)


def _random_texts(rng, count):
    """Rendered scoped terms and types, alone and inside every term context."""
    texts = []
    for _ in range(count):
        t = random_scoped_term(rng, rng.randint(1, 16))
        while t.loose:
            t = Lam(rng.choice(HINTS), t)
        r = random_scoped_type(rng, rng.randint(1, 16))
        for _ in range(3):
            if "?" not in render_type(r):
                break
            r = All(rng.choice(TYPE_HINTS), r)
        term, rel = render_term(t), render_type(r)
        texts += [
            ("term", term),
            ("type", rel),
            ("type", f"{term} .. {rel} -> [{term}] {rel} [{term}] + {{{term}}}"),
            ("proof", f"{term} <| u iota {{{term}, {term}}} {{{rel}}} conv_e v |> {term}"),
            ("proof", f"fun (u : x [{rel}] y) => (u, rho {{x. {term}, x}} u - u via {term})"),
            (
                "script",
                f"def d := {term}\n#normalize {term}\n"
                f"proof p : [u : {term} [{rel}] y] |- {term} [{rel}] y := u",
            ),
        ]
    return texts


def _mutants(rng, text):
    """`text` with one token deleted, one duplicated, and cut before one."""
    try:
        tokens = reference_parser.tokenize(text, True)[:-1]
    except ParseError:
        return []
    if not tokens:
        return []
    gone, twice, cut = (rng.choice(tokens) for _ in range(3))
    return [
        text[: gone.start] + text[gone.end :],
        text[: twice.end] + " " + text[twice.start :],
        text[: cut.start],
    ]


def test_parser_matches_the_reference_parser():
    # Equal trees (by repr, so binder hints count) or equal parse errors,
    # against the parser that closed every binder after parsing it
    # (tests/reference_parser.py): the packaged library and the corpus,
    # rendered random terms and types with shadowed and clashing binder
    # names, and all of these with a token deleted, duplicated or cut off.
    rng = random.Random(808)
    sources = [(prelude_source(), True)] + [
        (path.read_text(), False) for path in sorted(CORPUS.rglob("*.rtt"))
    ]
    cases = [("script", source, dotted) for source, dotted in sources]
    statements = []
    for source, dotted in sources:
        for stmt in reference_parser.parse(source, dotted).statements:
            start, end = stmt.span
            if end - start < 400:
                statements.append(("script", source[start:end], dotted))
    generated = [(kind, text, False) for kind, text in _random_texts(rng, 60)]
    cases += statements + generated
    for kind, text, dotted in statements + rng.sample(generated, 180):
        cases += [(kind, mutant, dotted) for mutant in _mutants(rng, text)]
    parsed = 0
    for kind, text, dotted in cases:
        new, old = _PARSERS[kind]
        got = _outcome(new, text, dotted)
        assert got == _outcome(old, text, dotted), (kind, text)
        parsed += isinstance(got, str)
    assert len(cases) > 1000
    assert 0.3 < parsed / len(cases) < 0.8


_TYPE_OPERANDS = [
    f"{prefix}X{postfix}"
    for prefix in ("", "[t] ", "t .. ", "all Y. ", "rec Y. ")
    for postfix in ("", "^", " [t]")
]
_TYPE_OPERATORS = ["->", "+", "*", "<=", "=>", "~~"]


def test_type_operators_combine_as_in_the_reference_parser():
    # Every prefix and postfix form as an operand, alone, around one binary
    # operator, and (a seeded sample) around two: the sugar that rendered
    # core types never reach, and binders right after an operator.
    one = [f"{a} {op} {b}" for a in _TYPE_OPERANDS for op in _TYPE_OPERATORS for b in _TYPE_OPERANDS]
    two = [
        f"{a} {op} {b} {op2} {c}"
        for a, op, b, op2, c in random.Random(909).sample(
            list(product(_TYPE_OPERANDS, _TYPE_OPERATORS, _TYPE_OPERANDS, _TYPE_OPERATORS, _TYPE_OPERANDS)),
            2000,
        )
    ]
    parsed = 0
    for text in _TYPE_OPERANDS + one + two:
        got = _outcome(parse_type, text, False)
        assert got == _outcome(reference_parser.parse_type, text, False), text
        parsed += isinstance(got, str)
    assert 0.2 < parsed / (len(_TYPE_OPERANDS) + len(one) + len(two)) < 0.8


def test_nested_types_terms_and_chains_parse_at_the_stock_recursion_limit(default_recursion_limit):
    # One frame per operator in a chain, three per type parenthesis and two
    # per term parenthesis; a chain of `t ..` is read in a loop.
    parse_type("(" * 300 + "X" + ")" * 300)
    for chain in ("X -> ", "X * ", "t .. ", "[t] ", "all Y. "):
        parse_type(chain * 900 + "X")
    parse_type("X -> all Y. " * 300 + "X")
    parse_term("(" * 400 + "x" + ")" * 400)
