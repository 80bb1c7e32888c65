"""The parser that re-read tokens and closed every binder after parsing it.

A test oracle only, kept verbatim: its `peek` clamps the position on every
read, `type_conj` and `proof` parse a term first and re-parse from a saved
position when it is not followed by `..` or `<|`, and every lambda builds a
named body and then binds it with `syntax.lam`. `reltt.surface` reads each
token once and resolves term binders while parsing; `test_surface` checks
that both give equal trees, hints included, or equal parse errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from reltt.kernel import (
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
    Proof,
)
from reltt.derived import (
    dconj,
    dind,
    dparam,
    imp_prod,
    int_type_l,
    int_type_r,
    rec,
    rel_eq,
    subset,
    sum_,
    unit,
)
from reltt.surface import Command, ParseError, Pragma, ProofDef, Script, TermDef, TypeDef
from reltt.syntax import (
    App,
    Arrow,
    Comp,
    ContextEntry,
    Conv,
    Judgment,
    Promote,
    RelType,
    TVar,
    Term,
    Var,
    all_,
    lam,
)
from reltt.systemf import is_dotted

KEYWORDS = {
    "all",
    "rec",
    "fun",
    "Fun",
    "conv_i",
    "conv_e",
    "iota",
    "rho",
    "pi",
    "via",
    "def",
    "type",
    "proof",
    "Dparam",
    "Dind",
}

_TWO_CHAR = {
    ":=": "ASSIGN",
    "|-": "TURNSTILE",
    "<|": "LCONV",
    "|>": "RCONV",
    "->": "ARROW",
    "=>": "DARROW",
    "<=": "SUBSET",
    "~~": "RELEQ",
    "..": "DOTDOT",
}

_ONE_CHAR = {
    "^": "HAT",
    "*": "STAR",
    "+": "PLUS",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    "\\": "LAMBDA",
    ".": "DOT",
    ",": "COMMA",
    ":": "COLON",
    "-": "MINUS",
    "#": "HASH",
}

_UNICODE_ONE = {
    "λ": "LAMBDA",  # lambda
    "·": "STAR",  # middle dot composition
    "→": "ARROW",
    "⊆": "SUBSET",
    "⇒": "DARROW",
    "≅": "RELEQ",
    "∪": "HAT",  # union sign as converse mark
}


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    start: int
    end: int


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(source: str, allow_dotted: bool = False) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        two = source[i : i + 2]
        if two == "--":
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if two == "⋅⋅":
            tokens.append(Token("DOTDOT", two, i, i + 2))
            i += 2
            continue
        if two in _TWO_CHAR:
            tokens.append(Token(_TWO_CHAR[two], two, i, i + 2))
            i += 2
            continue
        if c == "∀":
            tokens.append(Token("KW", "all", i, i + 1))
            i += 1
            continue
        if c == "⋅":
            tokens.append(Token("STAR", c, i, i + 1))
            i += 1
            continue
        if c in _UNICODE_ONE:
            tokens.append(Token(_UNICODE_ONE[c], c, i, i + 1))
            i += 1
            continue
        if c in _ONE_CHAR:
            tokens.append(Token(_ONE_CHAR[c], c, i, i + 1))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("NUMBER", source[i:j], i, j))
            i = j
            continue
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(source[j]):
                j += 1
            while j < n and source[j] == "'":
                j += 1
            word = source[i:j]
            if not allow_dotted and is_dotted(word.rstrip("'")):
                raise ParseError(
                    f"the name '{word}' uses the reserved dotted suffix", (i, j)
                )
            kind = "KW" if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, i, j))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", (i, i + 1))
    tokens.append(Token("EOF", "", n, n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, allow_dotted: bool = False):
        self.source = source
        self.tokens = tokenize(source, allow_dotted)
        self.pos = 0

    # -- token plumbing --

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.peek()
        self.pos += 1
        return t

    def at(self, kind: str, value: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (value is None or t.value == value)

    def expect(self, kind: str, value: str | None = None) -> Token:
        t = self.peek()
        if not self.at(kind, value):
            want = value or kind.lower()
            raise ParseError(f"expected {want}, found {t.value or 'end of input'}", (t.start, t.end))
        return self.next()

    def ident(self) -> str:
        return self.expect("IDENT").value

    # -- terms --

    def term(self) -> Term:
        if self.at("LAMBDA"):
            self.next()
            name = self.ident()
            self.expect("DOT")
            body = self.term()
            return lam(name, body)
        return self.term_app()

    def term_app(self) -> Term:
        t = self.term_atom()
        while self.at("IDENT") or self.at("LPAREN") or self.at("LAMBDA"):
            if self.at("LAMBDA"):
                # an argument lambda must be parenthesized; a bare one here
                # would swallow the rest of the input silently
                break
            t = App(t, self.term_atom())
        return t

    def term_atom(self) -> Term:
        t = self.peek()
        if self.at("IDENT"):
            self.next()
            return Var(t.value)
        if self.at("LPAREN"):
            self.next()
            inner = self.term()
            self.expect("RPAREN")
            return inner
        raise ParseError(f"expected a term, found {t.value or 'end of input'}", (t.start, t.end))

    # -- types --

    def type_(self) -> RelType:
        if self.at("KW", "all"):
            self.next()
            name = self.ident()
            self.expect("DOT")
            return all_(name, self.type_())
        if self.at("KW", "rec"):
            self.next()
            name = self.ident()
            self.expect("DOT")
            return rec(name, self.type_())
        left = self.type_arrow()
        if self.at("SUBSET"):
            self.next()
            return subset(left, self.type_arrow())
        if self.at("DARROW"):
            self.next()
            return imp_prod(left, self.type_arrow())
        if self.at("RELEQ"):
            self.next()
            return rel_eq(left, self.type_arrow())
        return left

    def type_arrow(self) -> RelType:
        dom = self.type_sum()
        if self.at("ARROW"):
            self.next()
            if self.at("KW", "all") or self.at("KW", "rec"):
                return Arrow(dom, self.type_())
            return Arrow(dom, self.type_arrow())
        return dom

    def type_sum(self) -> RelType:
        left = self.type_conj()
        if self.at("PLUS"):
            self.next()
            return sum_(left, self.type_sum())
        return left

    def type_conj(self) -> RelType:
        # `t .. R`: starts with a term, needs backtracking to tell the
        # conjugating term from a type variable
        save = self.pos
        try:
            t = self.term()
        except ParseError:
            pass
        else:
            if self.at("DOTDOT"):
                self.next()
                return dconj(t, self.type_conj())
        self.pos = save
        return self.type_comp()

    def type_comp(self) -> RelType:
        left = self.type_prefixed()
        if self.at("STAR"):
            self.next()
            return Comp(left, self.type_comp())
        return left

    def type_prefixed(self) -> RelType:
        if self.at("LBRACK"):
            self.next()
            t = self.term()
            self.expect("RBRACK")
            return int_type_l(t, self.type_prefixed())
        return self.type_postfixed()

    def type_postfixed(self) -> RelType:
        r = self.type_atom()
        while True:
            if self.at("HAT"):
                self.next()
                r = Conv(r)
            elif self.at("LBRACK"):
                self.next()
                t = self.term()
                self.expect("RBRACK")
                r = int_type_r(r, t)
            else:
                return r

    def type_atom(self) -> RelType:
        t = self.peek()
        if self.at("IDENT"):
            self.next()
            return TVar(t.value)
        if self.at("NUMBER", "1"):
            self.next()
            return unit()
        if self.at("LBRACE"):
            self.next()
            inner = self.term()
            self.expect("RBRACE")
            return Promote(inner)
        if self.at("LPAREN"):
            self.next()
            inner = self.type_()
            self.expect("RPAREN")
            return inner
        if self.at("KW", "Dparam") or self.at("KW", "Dind"):
            kw = self.next().value
            self.expect("LPAREN")
            name = self.ident()
            self.expect("COMMA")
            body = self.type_()
            self.expect("RPAREN")
            return dparam(name, body) if kw == "Dparam" else dind(name, body)
        raise ParseError(f"expected a type, found {t.value or 'end of input'}", (t.start, t.end))

    # -- proofs --

    def proof(self) -> Proof:
        start = self.peek().start
        # conversion `t <| p |> t'` begins with a term; try that first
        save = self.pos
        try:
            left = self.term()
        except ParseError:
            pass
        else:
            if self.at("LCONV"):
                self.next()
                body = self.proof()
                self.expect("RCONV")
                right = self.term()
                return PConv(left, body, right, span=(start, self.tokens[self.pos - 1].end))
        self.pos = save
        return self.proof_app()

    def proof_app(self) -> Proof:
        p = self.proof_atom()
        while True:
            if self.at("LBRACE"):
                start = self.peek().start
                self.next()
                r = self.type_()
                end = self.expect("RBRACE").end
                p = PTyApp(p, r, span=(start, end))
            elif (
                self.at("IDENT")
                or self.at("LPAREN")
                or self.at("KW", "iota")
                or self.at("KW", "conv_i")
                or self.at("KW", "conv_e")
            ):
                arg = self.proof_atom()
                p = PApp(p, arg, span=(p.span[0] if p.span else 0, arg.span[1] if arg.span else 0))
            else:
                return p

    def proof_atom(self) -> Proof:
        t = self.peek()
        start = t.start
        if self.at("IDENT"):
            self.next()
            return PVar(t.value, span=(t.start, t.end))
        if self.at("KW", "fun"):
            self.next()
            self.expect("LPAREN")
            pvar = self.ident()
            self.expect("COLON")
            subj_l = self.term()
            self.expect("LBRACK")
            rel = self.type_()
            self.expect("RBRACK")
            subj_r = self.ident()
            self.expect("RPAREN")
            self.expect("DARROW")
            body = self.proof()
            end = body.span[1] if body.span else self.peek().start
            return PLam(pvar, self._subject_name(subj_l, t), rel, subj_r, body, span=(start, end))
        if self.at("KW", "Fun"):
            self.next()
            tvar = self.ident()
            self.expect("DARROW")
            body = self.proof()
            end = body.span[1] if body.span else self.peek().start
            return PTyLam(tvar, body, span=(start, end))
        if self.at("KW", "conv_i") or self.at("KW", "conv_e"):
            kw = self.next().value
            body = self.proof_atom()
            end = body.span[1] if body.span else self.peek().start
            ctor = PConvI if kw == "conv_i" else PConvE
            return ctor(body, span=(start, end))
        if self.at("KW", "iota"):
            self.next()
            self.expect("LBRACE")
            left = self.term()
            self.expect("COMMA")
            promoted = self.term()
            end = self.expect("RBRACE").end
            return PIota(left, promoted, span=(start, end))
        if self.at("KW", "rho"):
            self.next()
            self.expect("LBRACE")
            guide = self.ident()
            self.expect("DOT")
            tmpl_l = self.term()
            self.expect("COMMA")
            tmpl_r = self.term()
            self.expect("RBRACE")
            eq = self.proof_app()
            self.expect("MINUS")
            body = self.proof()
            end = body.span[1] if body.span else self.peek().start
            return PRho(guide, tmpl_l, tmpl_r, eq, body, span=(start, end))
        if self.at("KW", "pi"):
            self.next()
            scrut = self.proof_app()
            self.expect("MINUS")
            mid = self.ident()
            pl = self.ident()
            pr = self.ident()
            self.expect("DOT")
            body = self.proof()
            end = body.span[1] if body.span else self.peek().start
            return PPi(scrut, mid, pl, pr, body, span=(start, end))
        if self.at("LPAREN"):
            self.next()
            first = self.proof()
            if self.at("COMMA"):
                self.next()
                second = self.proof()
                self.expect("KW", "via")
                mid = self.term()
                end = self.expect("RPAREN").end
                return PPair(first, second, mid, span=(start, end))
            self.expect("RPAREN")
            return first
        raise ParseError(f"expected a proof, found {t.value or 'end of input'}", (t.start, t.end))

    @staticmethod
    def _subject_name(t: Term, tok: Token) -> str:
        if not isinstance(t, Var):
            raise ParseError("the bound subjects of fun must be variables", (tok.start, tok.end))
        return t.name

    # -- judgments and statements --

    def context_entry(self) -> ContextEntry:
        pvar = self.ident()
        self.expect("COLON")
        left = self.term()
        self.expect("LBRACK")
        rel = self.type_()
        self.expect("RBRACK")
        right = self.term()
        return ContextEntry(pvar, left, rel, right)

    def judgment(self) -> Judgment:
        left = self.term()
        self.expect("LBRACK")
        rel = self.type_()
        self.expect("RBRACK")
        right = self.term()
        return Judgment(left, rel, right)

    def statement(self):
        t = self.peek()
        start = t.start
        if self.at("KW", "def"):
            self.next()
            name = self.ident()
            self.expect("ASSIGN")
            body = self.term()
            return TermDef(name, body, span=(start, self._prev_end()))
        if self.at("KW", "type"):
            self.next()
            name = self.ident()
            self.expect("ASSIGN")
            body = self.type_()
            return TypeDef(name, body, span=(start, self._prev_end()))
        if self.at("KW", "proof"):
            self.next()
            name = self.ident()
            self.expect("COLON")
            self.expect("LBRACK")
            entries = []
            if not self.at("RBRACK"):
                entries.append(self.context_entry())
                while self.at("COMMA"):
                    self.next()
                    entries.append(self.context_entry())
            self.expect("RBRACK")
            self.expect("TURNSTILE")
            declared = self.judgment()
            self.expect("ASSIGN")
            body = self.proof()
            return ProofDef(name, tuple(entries), declared, body, span=(start, self._prev_end()))
        if self.at("HASH"):
            self.next()
            word = self.ident()
            if word == "fuel":
                count = int(self.expect("NUMBER").value)
                return Pragma("fuel", count, span=(start, self._prev_end()))
            if word == "normalize":
                return Command("normalize", self.term(), span=(start, self._prev_end()))
            if word == "analyze":
                return Command("analyze", self.type_(), span=(start, self._prev_end()))
            if word == "check":
                return Command("check", self.ident(), span=(start, self._prev_end()))
            if word == "dump":
                what = self.ident()
                if what not in ("judgments", "erasures", "systemf"):
                    raise ParseError(
                        f"unknown dump target '{what}'", (start, self._prev_end())
                    )
                return Command("dump", what, span=(start, self._prev_end()))
            raise ParseError(f"unknown pragma '#{word}'", (start, self._prev_end()))
        raise ParseError(
            f"expected a statement, found {t.value or 'end of input'}", (t.start, t.end)
        )

    def _prev_end(self) -> int:
        return self.tokens[self.pos - 1].end if self.pos else 0

    def script(self) -> Script:
        statements = []
        while not self.at("EOF"):
            statements.append(self.statement())
        return Script(tuple(statements))


def parse(source: str, allow_dotted: bool = False) -> Script:
    return _Parser(source, allow_dotted).script()


def parse_term(source: str, allow_dotted: bool = False) -> Term:
    p = _Parser(source, allow_dotted)
    t = p.term()
    p.expect("EOF")
    return t


def parse_type(source: str, allow_dotted: bool = False) -> RelType:
    p = _Parser(source, allow_dotted)
    r = p.type_()
    p.expect("EOF")
    return r


def parse_proof(source: str, allow_dotted: bool = False) -> Proof:
    p = _Parser(source, allow_dotted)
    pr = p.proof()
    p.expect("EOF")
    return pr
