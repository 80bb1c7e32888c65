"""Concrete syntax: lexer, parser, and renderers for terms, types, proofs,
and proof scripts.

The grammar is plain ASCII with Unicode aliases accepted on input. Types use
postfix `^` for converse (tightest), `*` for composition, `+` for sums,
`->` for arrows (all right-associative, in tightening order `->`, `+`, `*`,
`^`), and `all X. R` / `rec X. R` extending to the right. Derived sugar
(`[t] R`, `R [t]`, `t .. R`, `<=`, `=>`, `~~`, `+`, `rec X. R`, `Dparam`,
`Dind`, `1`) expands at parse time to core types through the form functions
of `reltt.derived`, so the parsed result is always core syntax. A datatype
whose parameter is not System F-shaped is a parse error at the form's span.

Proof terms mirror the checker's constructors: `fun (u : x [R] y) => p`,
juxtaposition, `p {R}`, `Fun X => p`, `t <| p |> t'`, `conv_i p`,
`conv_e p`, `iota {t, t'}`, `rho {x. t1, t2} p - p'`, `(p, p' via t)`, and
`pi p - x u v. p'`.

Identifiers may carry trailing primes (`x'`). Names ending in the reserved
dotted suffix are rejected in user source; the loader for generated library
files parses with `allow_dotted=True`.

The lexer is one regular-expression pass that yields `Token` tuples; a
NUMBER is a run of decimal digits, exactly what `int` accepts. The parser
reads each token about once, through an index into the EOF-terminated token
list. It resolves term binders while it parses: a scope maps each name to
its binder, so an identifier in scope becomes its `Bound` index at once and
every `Lam` is built once, never closed afterwards. Every term entered from
a type, proof or statement starts with an empty scope. Type binders
(`all X.`, `rec X.`, and the binders that sugar expansion adds) are closed
with `syntax.all_` and the form functions. `t .. R` and `t <| p |> t'` begin
with a term; the parser tries one only where the first token ahead that a
term cannot contain is `..` or `<|`, so it never parses a term that it then
throws away. Once it has read the `..` or `<|`, an error in what follows is
the diagnostic; the text is not re-read as a type or an application.

Renderers produce text that parses back to an alpha-equal tree; statement
and proof nodes carry source spans as (start, end) offsets for diagnostics.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .kernel import (
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
from .derived import (
    PreludeError,
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
from .records import dataclass, field
from .syntax import (
    All,
    App,
    Arrow,
    Bound,
    Comp,
    ContextEntry,
    Conv,
    Judgment,
    Lam,
    Promote,
    RelType,
    TBound,
    TVar,
    Term,
    Var,
    all_,
    fresh,
)
from .systemf import DOT_SUFFIX


class ParseError(Exception):
    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(message)
        self.message = message
        self.span = span


# ---------------------------------------------------------------------------
# Script statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermDef:
    name: str
    term: Term
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class TypeDef:
    name: str
    rel: RelType
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class ProofDef:
    name: str
    ctx: tuple[ContextEntry, ...]
    judgment: Judgment
    proof: Proof
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Pragma:
    name: str
    count: int
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Command:
    kind: str
    arg: object
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Script:
    statements: tuple


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

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


class Token(NamedTuple):
    kind: str
    value: str
    start: int
    end: int


# Every fixed spelling, as (kind, value). The scanner tries them longest
# first, so `..` wins over `.`, `->` over `-`, and `⋅⋅` over `⋅`.
_FIXED = {
    **{text: (kind, text) for text, kind in _TWO_CHAR.items()},
    "⋅⋅": ("DOTDOT", "⋅⋅"),
    "∀": ("KW", "all"),
    "⋅": ("STAR", "⋅"),
    **{text: (kind, text) for text, kind in _UNICODE_ONE.items()},
    **{text: (kind, text) for text, kind in _ONE_CHAR.items()},
}

# The character classes match the `str` predicates the grammar is stated in:
# `\s` is `isspace`, `\d` is `isdecimal` (exactly what `int` accepts) and `\w`
# is `isalnum` or `_`. `_IDENT_START` is `\w` without the decimal digits, so it
# also admits the numeric characters that are not letters, such as `²`;
# `tokenize` rejects an identifier that starts with one, which leaves exactly
# `isalpha` or `_`.
_SPACE, _DIGIT, _IDENT_START, _IDENT_CHAR = r"\s", r"\d", r"[^\W\d]", r"\w"

# One alternative per token class, tried in this order.
_TOKEN_RE = re.compile(
    f"(?P<SKIP>{_SPACE}+|--[^\\n]*)"
    f"|(?P<FIXED>{'|'.join(map(re.escape, sorted(_FIXED, key=len, reverse=True)))})"
    f"|(?P<NUMBER>{_DIGIT}+)"
    f"|(?P<IDENT>{_IDENT_START}{_IDENT_CHAR}*'*)"
    "|(?P<BAD>.)",
    re.DOTALL,
)

# Builds a `Token` from a tuple without the Python-level `__new__` of a NamedTuple.
_new_token = tuple.__new__


def tokenize(source: str, allow_dotted: bool = False) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        start, end = m.span()
        value = m.group()
        if kind == "FIXED":
            kind, value = _FIXED[value]
        elif kind == "IDENT":
            c = value[0]
            if not (c.isalpha() or c == "_"):
                raise ParseError(f"unexpected character {c!r}", (start, start + 1))
            if not allow_dotted and value.rstrip("'").endswith(DOT_SUFFIX):
                raise ParseError(
                    f"the name '{value}' uses the reserved dotted suffix", (start, end)
                )
            if value in KEYWORDS:
                kind = "KW"
        elif kind == "BAD":
            raise ParseError(f"unexpected character {value!r}", (start, end))
        append(_new_token(Token, (kind, value, start, end)))
    n = len(source)
    append(Token("EOF", "", n, n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The parser reads `keys`, one per token: the token's kind, or the word itself
# for a keyword, so one membership test covers both. A term is made only of
# the tokens in `_TERM_KEYS`; `stops[i]` is the key of the first token at or
# after `i` that is not one of them. `t .. R` and `t <| p |> t'` begin with a
# term, and a term parsed from `i` can be followed by `..` or `<|` only if
# `stops[i]` is that token. Elsewhere the attempt would be thrown away and
# the tokens re-read, so the parser does not make it.
_TERM_KEYS = frozenset({"IDENT", "LPAREN", "RPAREN", "LAMBDA", "DOT"})
_TERM_ARG = frozenset({"IDENT", "LPAREN"})
_POSTFIX = frozenset({"HAT", "LBRACK"})
_PROOF_ARG = frozenset({"IDENT", "LPAREN", "iota", "conv_i", "conv_e"})
_TYPE_INFIX = {"SUBSET": subset, "DARROW": imp_prod, "RELEQ": rel_eq}


class _Parser:
    def __init__(self, source: str, allow_dotted: bool = False):
        self.tokens = tokens = tokenize(source, allow_dotted)
        self.keys = keys = [t.value if t.kind == "KW" else t.kind for t in tokens]
        self.stops = stops = keys[:]
        stop = "EOF"
        for i in range(len(keys) - 1, -1, -1):
            key = keys[i]
            if key in _TERM_KEYS:
                stops[i] = stop
            else:
                stop = key
        self.pos = 0
        # Term binders in scope: name -> the binder's level, counted from the
        # outermost. `depth` is the number of enclosing term binders. Both are
        # restored on the way out of a lambda, so every term entered from a
        # type, proof or statement starts with an empty scope.
        self.scope: dict[str, int] = {}
        self.depth = 0

    # -- token plumbing --

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, key: str) -> bool:
        return self.keys[self.pos] == key

    def expect(self, key: str) -> Token:
        pos = self.pos
        if self.keys[pos] != key:
            t = self.tokens[pos]
            want = key if key in KEYWORDS else key.lower()
            raise ParseError(f"expected {want}, found {t.value or 'end of input'}", (t.start, t.end))
        self.pos = pos + 1
        return self.tokens[pos]

    def ident(self) -> str:
        return self.expect("IDENT").value

    def _prev_end(self) -> int:
        return self.tokens[self.pos - 1].end if self.pos else 0

    # -- terms --

    def term(self) -> Term:
        if self.keys[self.pos] != "LAMBDA":
            return self.term_app()
        self.pos += 1
        name = self.ident()
        self.expect("DOT")
        scope = self.scope
        outer = scope.get(name)
        scope[name] = self.depth
        self.depth += 1
        try:
            body = self.term()
        finally:
            self.depth -= 1
            if outer is None:
                del scope[name]
            else:
                scope[name] = outer
        return Lam(name, body)

    def term_app(self) -> Term:
        t = self.term_atom()
        # a bare lambda argument is not taken: it must be parenthesized, or
        # it would swallow the rest of the input silently
        while self.keys[self.pos] in _TERM_ARG:
            t = App(t, self.term_atom())
        return t

    def term_atom(self) -> Term:
        pos = self.pos
        key = self.keys[pos]
        if key == "IDENT":
            self.pos = pos + 1
            name = self.tokens[pos].value
            level = self.scope.get(name)
            return Var(name) if level is None else Bound(self.depth - 1 - level)
        if key == "LPAREN":
            self.pos = pos + 1
            inner = self.term()
            self.expect("RPAREN")
            return inner
        t = self.tokens[pos]
        raise ParseError(f"expected a term, found {t.value or 'end of input'}", (t.start, t.end))

    # -- types --

    def type_(self) -> RelType:
        key = self.keys[self.pos]
        if key == "all" or key == "rec":
            self.pos += 1
            name = self.ident()
            self.expect("DOT")
            body = self.type_()
            return all_(name, body) if key == "all" else rec(name, body)
        left = self.type_arrow()
        form = _TYPE_INFIX.get(self.keys[self.pos])
        if form is None:
            return left
        self.pos += 1
        return form(left, self.type_arrow())

    def type_arrow(self) -> RelType:
        dom = self.type_sum()
        if self.keys[self.pos] != "ARROW":
            return dom
        self.pos += 1
        key = self.keys[self.pos]
        if key == "all" or key == "rec":
            return Arrow(dom, self.type_())
        return Arrow(dom, self.type_arrow())

    def type_sum(self) -> RelType:
        left = self.type_conj()
        if self.keys[self.pos] == "PLUS":
            self.pos += 1
            return sum_(left, self.type_sum())
        return left

    def type_conj(self) -> RelType:
        # `t .. R`: a term that is not followed by `..` is re-read as a type;
        # once `..` is read, an error in `R` is the error
        save = self.pos
        if self.stops[save] == "DOTDOT":
            try:
                t = self.term()
            except ParseError:
                pass
            else:
                if self.keys[self.pos] == "DOTDOT":
                    self.pos += 1
                    return dconj(t, self.type_conj())
            self.pos = save
        return self.type_comp()

    def type_comp(self) -> RelType:
        left = self.type_prefixed()
        if self.keys[self.pos] == "STAR":
            self.pos += 1
            return Comp(left, self.type_comp())
        return left

    def type_prefixed(self) -> RelType:
        if self.keys[self.pos] == "LBRACK":
            self.pos += 1
            t = self.term()
            self.expect("RBRACK")
            return int_type_l(t, self.type_prefixed())
        return self.type_postfixed()

    def type_postfixed(self) -> RelType:
        r = self.type_atom()
        keys = self.keys
        while (key := keys[self.pos]) in _POSTFIX:
            self.pos += 1
            if key == "HAT":
                r = Conv(r)
            else:
                t = self.term()
                self.expect("RBRACK")
                r = int_type_r(r, t)
        return r

    def type_atom(self) -> RelType:
        pos = self.pos
        key = self.keys[pos]
        t = self.tokens[pos]
        if key == "IDENT":
            self.pos = pos + 1
            return TVar(t.value)
        if key == "NUMBER" and t.value == "1":
            self.pos = pos + 1
            return unit()
        if key == "LBRACE":
            self.pos = pos + 1
            inner = self.term()
            self.expect("RBRACE")
            return Promote(inner)
        if key == "LPAREN":
            self.pos = pos + 1
            inner = self.type_()
            self.expect("RPAREN")
            return inner
        if key == "Dparam" or key == "Dind":
            self.pos = pos + 1
            self.expect("LPAREN")
            name = self.ident()
            self.expect("COMMA")
            body = self.type_()
            end = self.expect("RPAREN").end
            try:
                return dparam(name, body) if key == "Dparam" else dind(name, body)
            except PreludeError as e:
                raise ParseError(e.message, (t.start, end)) from None
        raise ParseError(f"expected a type, found {t.value or 'end of input'}", (t.start, t.end))

    # -- proofs --

    def proof(self) -> Proof:
        save = self.pos
        # conversion `t <| p |> t'` begins with a term; a failed attempt is
        # re-read as an application, but once `<|` is read an error is the error
        if self.stops[save] == "LCONV":
            start = self.tokens[save].start
            try:
                left = self.term()
            except ParseError:
                pass
            else:
                if self.keys[self.pos] == "LCONV":
                    self.pos += 1
                    body = self.proof()
                    self.expect("RCONV")
                    right = self.term()
                    return PConv(left, body, right, span=(start, self._prev_end()))
            self.pos = save
        return self.proof_app()

    def proof_app(self) -> Proof:
        p = self.proof_atom()
        keys = self.keys
        while True:
            key = keys[self.pos]
            if key == "LBRACE":
                start = self.tokens[self.pos].start
                self.pos += 1
                r = self.type_()
                end = self.expect("RBRACE").end
                p = PTyApp(p, r, span=(start, end))
            elif key in _PROOF_ARG:
                arg = self.proof_atom()
                p = PApp(p, arg, span=(p.span[0] if p.span else 0, arg.span[1] if arg.span else 0))
            else:
                return p

    def proof_atom(self) -> Proof:
        pos = self.pos
        key = self.keys[pos]
        t = self.tokens[pos]
        start = t.start
        if key == "IDENT":
            self.pos = pos + 1
            return PVar(t.value, span=(t.start, t.end))
        if key == "fun":
            self.pos = pos + 1
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
        if key == "Fun":
            self.pos = pos + 1
            tvar = self.ident()
            self.expect("DARROW")
            body = self.proof()
            end = body.span[1] if body.span else self.peek().start
            return PTyLam(tvar, body, span=(start, end))
        if key == "conv_i" or key == "conv_e":
            self.pos = pos + 1
            body = self.proof_atom()
            end = body.span[1] if body.span else self.peek().start
            ctor = PConvI if key == "conv_i" else PConvE
            return ctor(body, span=(start, end))
        if key == "iota":
            self.pos = pos + 1
            self.expect("LBRACE")
            left = self.term()
            self.expect("COMMA")
            promoted = self.term()
            end = self.expect("RBRACE").end
            return PIota(left, promoted, span=(start, end))
        if key == "rho":
            self.pos = pos + 1
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
        if key == "pi":
            self.pos = pos + 1
            scrut = self.proof_app()
            self.expect("MINUS")
            mid = self.ident()
            pl = self.ident()
            pr = self.ident()
            self.expect("DOT")
            body = self.proof()
            end = body.span[1] if body.span else self.peek().start
            return PPi(scrut, mid, pl, pr, body, span=(start, end))
        if key == "LPAREN":
            self.pos = pos + 1
            first = self.proof()
            if self.keys[self.pos] == "COMMA":
                self.pos += 1
                second = self.proof()
                self.expect("via")
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
        key = self.keys[self.pos]
        start = t.start
        if key == "def":
            self.pos += 1
            name = self.ident()
            self.expect("ASSIGN")
            body = self.term()
            return TermDef(name, body, span=(start, self._prev_end()))
        if key == "type":
            self.pos += 1
            name = self.ident()
            self.expect("ASSIGN")
            body = self.type_()
            return TypeDef(name, body, span=(start, self._prev_end()))
        if key == "proof":
            self.pos += 1
            name = self.ident()
            self.expect("COLON")
            self.expect("LBRACK")
            entries = []
            if not self.at("RBRACK"):
                entries.append(self.context_entry())
                while self.at("COMMA"):
                    self.pos += 1
                    entries.append(self.context_entry())
            self.expect("RBRACK")
            self.expect("TURNSTILE")
            declared = self.judgment()
            self.expect("ASSIGN")
            body = self.proof()
            return ProofDef(name, tuple(entries), declared, body, span=(start, self._prev_end()))
        if key == "HASH":
            self.pos += 1
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


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

# Binders are never opened for printing. The renderer carries `env`, the names
# chosen for the enclosing binders (innermost last), so `Bound(i)` prints as
# `env[-1-i]`, or as `?i` when it dangles out of the rendered term. A binder
# keeps its hint unless the hint clashes with a name its body can see: a free
# name of the body, or the name of an enclosing binder that one of the body's
# dangling indices points to. `_term_scope`/`_type_scope` collect both in one
# bottom-up pass per render call, memoized by node identity, so shared
# subterms are scanned once. Each name is the one `fresh` would pick against
# the free names of the body opened with the enclosing binders' names, which
# is what makes the output parse back alpha-equal.

_EMPTY: frozenset = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _term_scope(t: Term, memo: dict) -> tuple[frozenset[str], frozenset[int]]:
    """Free names of `t`, and the indices that dangle out of `t` (counted from outside `t`)."""
    key = id(t)
    found = memo.get(key)
    if found is not None:
        return found
    ty = type(t)
    if ty is App:
        fn_names, fn_ixs = _term_scope(t.fn, memo)
        arg_names, arg_ixs = _term_scope(t.arg, memo)
        found = (_union(fn_names, arg_names), _union(fn_ixs, arg_ixs))
    elif ty is Lam:
        names, ixs = _term_scope(t.body, memo)
        found = (names, frozenset(i - 1 for i in ixs if i) if ixs else ixs)
    elif ty is Var:
        found = (frozenset((t.name,)), _EMPTY)
    elif ty is Bound:
        found = (_EMPTY, frozenset((t.index,)))
    else:
        raise TypeError(f"not a term: {t!r}")
    memo[key] = found
    return found


def _type_scope(r: RelType, memo: dict) -> tuple[frozenset[str], frozenset[int]]:
    """Free type names of `r`, and the type indices that dangle out of `r`."""
    key = id(r)
    found = memo.get(key)
    if found is not None:
        return found
    ty = type(r)
    if ty is Arrow or ty is Comp:
        x, y = (r.dom, r.cod) if ty is Arrow else (r.left, r.right)
        x_names, x_ixs = _type_scope(x, memo)
        y_names, y_ixs = _type_scope(y, memo)
        found = (_union(x_names, y_names), _union(x_ixs, y_ixs))
    elif ty is All:
        names, ixs = _type_scope(r.body, memo)
        found = (names, frozenset(i - 1 for i in ixs if i) if ixs else ixs)
    elif ty is Conv:
        found = _type_scope(r.rel, memo)
    elif ty is TVar:
        found = (frozenset((r.name,)), _EMPTY)
    elif ty is TBound:
        found = (_EMPTY, frozenset((r.index,)))
    elif ty is Promote:  # terms contain no type variables
        found = (_EMPTY, _EMPTY)
    else:
        raise TypeError(f"not a type: {r!r}")
    memo[key] = found
    return found


def _binder_name(hint: str, scope: tuple[frozenset[str], frozenset[int]], env: list[str]) -> str:
    """The name a binder prints under: its hint, unless that clashes with a visible name."""
    names, ixs = scope
    depth = len(env)
    outer = {env[-1 - i] for i in ixs if i < depth}
    return fresh(hint, names.union(outer) if outer else names)


def render_term(t: Term) -> str:
    return _rt(t, 0, [], {})


def _rt(t: Term, prec: int, env: list[str], memo: dict) -> str:
    # prec 0: lambda body; 1: application; 2: atom
    match t:
        case Var(n):
            return n
        case Bound(i):
            return env[-1 - i] if i < len(env) else f"?{i}"
        case Lam(h, b):
            nm = _binder_name(h or "x", _term_scope(t, memo), env)
            env.append(nm)
            body = _rt(b, 0, env, memo)
            env.pop()
            s = f"\\{nm}. {body}"
            return f"({s})" if prec > 0 else s
        case App(f, a):
            s = f"{_rt(f, 1, env, memo)} {_rt(a, 2, env, memo)}"
            return f"({s})" if prec > 1 else s
    raise TypeError(f"not a term: {t!r}")


def render_type(r: RelType) -> str:
    return _rr(r, 0, [], {})


def _rr(r: RelType, prec: int, env: list[str], memo: dict) -> str:
    # prec 0: quantifier body; 1: arrow; 2: composition; 3: converse; 4: atom
    match r:
        case TVar(n):
            return n
        case TBound(i):
            return env[-1 - i] if i < len(env) else f"?{i}"
        case All(h, b):
            nm = _binder_name(h or "X", _type_scope(r, memo), env)
            env.append(nm)
            body = _rr(b, 0, env, memo)
            env.pop()
            s = f"all {nm}. {body}"
            return f"({s})" if prec > 0 else s
        case Arrow(d, c):
            s = f"{_rr(d, 2, env, memo)} -> {_rr(c, 1, env, memo)}"
            return f"({s})" if prec > 1 else s
        case Comp(l, rr):
            s = f"{_rr(l, 3, env, memo)} * {_rr(rr, 2, env, memo)}"
            return f"({s})" if prec > 2 else s
        case Conv(b):
            return f"{_rr(b, 4, env, memo)}^"
        case Promote(t):
            return "{" + render_term(t) + "}"
    raise TypeError(f"not a type: {r!r}")


def render_proof(p: Proof) -> str:
    return _rp(p, 0)


def _rp(p: Proof, prec: int) -> str:
    # prec 0: full; 1: application position; 2: atom
    match p:
        case PVar(n):
            return n
        case PLam(pvar, sl, rel, sr, body):
            s = f"fun ({pvar} : {sl} [{render_type(rel)}] {sr}) => {_rp(body, 0)}"
            return f"({s})" if prec > 0 else s
        case PTyLam(tv, body):
            s = f"Fun {tv} => {_rp(body, 0)}"
            return f"({s})" if prec > 0 else s
        case PApp(f, a):
            s = f"{_rp(f, 1)} {_rp(a, 2)}"
            return f"({s})" if prec > 1 else s
        case PTyApp(f, r):
            s = f"{_rp(f, 1)} {{{render_type(r)}}}"
            return f"({s})" if prec > 1 else s
        case PConv(l, body, rr):
            s = f"{_rt(l, 2, [], {})} <| {_rp(body, 0)} |> {_rt(rr, 2, [], {})}"
            return f"({s})" if prec > 0 else s
        case PConvI(body):
            s = f"conv_i {_rp(body, 2)}"
            return f"({s})" if prec > 1 else s
        case PConvE(body):
            s = f"conv_e {_rp(body, 2)}"
            return f"({s})" if prec > 1 else s
        case PIota(l, t):
            return f"iota {{{render_term(l)}, {render_term(t)}}}"
        case PRho(g, tl, tr, eq, body):
            s = (
                f"rho {{{g}. {render_term(tl)}, {render_term(tr)}}} "
                f"{_rp(eq, 1)} - {_rp(body, 0)}"
            )
            return f"({s})" if prec > 0 else s
        case PPair(l, rr, mid):
            return f"({_rp(l, 0)}, {_rp(rr, 0)} via {render_term(mid)})"
        case PPi(scrut, mid, pl, pr, body):
            s = f"pi {_rp(scrut, 1)} - {mid} {pl} {pr}. {_rp(body, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(f"not a proof: {p!r}")


def render_judgment(j: Judgment) -> str:
    return f"{render_term(j.left)} [{render_type(j.rel)}] {render_term(j.right)}"

