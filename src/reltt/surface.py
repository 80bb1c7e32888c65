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

The lexer is one `findall` pass of a regular expression with no groups,
so it makes no `Match` object: the matches cover the source end to end, a
token's offsets are running sums of the match lengths, and its kind comes
from a table of the fixed spellings and keywords or from the match's first
character. A NUMBER is a run of decimal digits, exactly what `int` accepts.
The same loop builds the parser's `keys`. The parser reads each token about
once, through an index into the EOF-terminated token list. It resolves term
binders while it parses: a scope maps each name to its binder, so an
identifier in scope becomes its `Bound` index at once and every `Lam` is
built once, never closed afterwards. Every term entered from a type, proof
or statement starts with an empty scope. Type binders
(`all X.`, `rec X.`, and the binders that sugar expansion adds) are closed
with `syntax.all_` and the form functions.

Types are read by one precedence climber, `type_(level)`, over the table
`_TYPE_BINARY`. The levels, loosest first: 0 for `all X.`, `rec X.` and at
most one infix `<=`, `=>` or `~~` between two level-1 types; 1 for `->`;
2 for `+`; 3 for the prefix `t .. R`, whose `R` is read at level 3; 4 for
`*`; 5 for the prefix `[t] R`; and tightest the postfix `^` and `R [t]` on
an atom. Every binary operator is right-associative, and a binder right
after `->` starts a level-0 type. `type_unary` reads the prefix forms, a
chain `t1 .. t2 .. R` in a loop, and the atom with its postfix loop.

`t .. R` and `t <| p |> t'` begin with a term, and both go through one term
attempt, `term_before`. It tries a term only where the first token ahead that
a term cannot contain is `..` or `<|`, so it never parses a term that it then
throws away. Once it has read the `..` or `<|`, an error in what follows is
the diagnostic; the text is not re-read as a type or an application.

Renderers produce text that parses back to an alpha-equal tree. They print
without opening binders, dispatch on the node's class, and print an
application spine, a chain of binders or a chain of `->` or `*` in one loop,
so none of these costs a Python frame per node (see the comment above
`_scope`). Statement and proof nodes carry source spans as
(start, end) offsets for diagnostics.
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

# The token a whole match makes when it is a fixed spelling or a keyword, as
# (kind, value, key); the key is what the parser reads (see `keys` below).
_WHOLE = {
    **{
        text: (kind, value, value if kind == "KW" else kind)
        for text, (kind, value) in _FIXED.items()
    },
    **{word: ("KW", word, word) for word in KEYWORDS},
}

# The character classes match the `str` predicates the grammar is stated in:
# `\s` is `isspace`, `\d` is `isdecimal` (exactly what `int` accepts) and `\w`
# is `isalnum` or `_`. `_IDENT_START` is `\w` without the decimal digits, so it
# also admits the numeric characters that are not letters, such as `²`;
# `tokenize` rejects an identifier that starts with one, which leaves exactly
# `isalpha` or `_`.
_SPACE, _DIGIT, _IDENT_START, _IDENT_CHAR = r"\s", r"\d", r"[^\W\d]", r"\w"

# One alternative per token class, tried in this order. There are no groups,
# so `findall` returns the text of each match. Every alternative takes at
# least one character and the last takes any one, so the matches cover the
# source end to end, which `tokenize` relies on to take offsets from lengths.
_TOKEN_RE = re.compile(
    f"{_SPACE}+|--[^\\n]*"
    f"|{'|'.join(map(re.escape, sorted(_FIXED, key=len, reverse=True)))}"
    f"|{_DIGIT}+"
    f"|{_IDENT_START}{_IDENT_CHAR}*'*"
    "|.",
    re.DOTALL,
)

# Builds a `Token` from a tuple without the Python-level `__new__` of a NamedTuple.
_new_token = tuple.__new__


def tokenize(
    source: str, allow_dotted: bool = False, keys: list[str] | None = None
) -> list[Token]:
    """The tokens of `source`, ending in one EOF token at `len(source)`.

    One `findall` pass over `_TOKEN_RE` gives the text of every match in
    order, and the matches cover the source without gaps, so each token's
    `start` is the sum of the lengths of the matches before it and its `end`
    is `start` plus its own length; no `Match` object is made. A match that
    is a fixed spelling or a keyword takes its kind and value from `_WHOLE`.
    Any other match is classified by its first character: a space or a
    comment is skipped, a letter or `_` starts an IDENT, a decimal digit a
    NUMBER, and any other character is an error.

    The matches are checked in source order, so the error raised is the
    first one in the source: `unexpected character` at the one offending
    character, or, unless `allow_dotted`, a name ending in the reserved
    dotted suffix (primes aside) over the whole name.

    If `keys` is given, the parser's key of each token, EOF included, is
    appended to it in the same loop: the word itself for a keyword, and the
    kind otherwise.
    """
    tokens: list[Token] = []
    append = tokens.append
    if keys is None:
        keys = []
    add_key = keys.append
    start = 0
    for text in _TOKEN_RE.findall(source):
        end = start + len(text)
        whole = _WHOLE.get(text)
        if whole is not None:
            kind, value, key = whole
            append(_new_token(Token, (kind, value, start, end)))
            add_key(key)
        else:
            c = text[0]
            if c.isspace() or c == "-":  # `-` and `->` are fixed: a comment
                pass
            elif c.isalpha() or c == "_":
                if not allow_dotted and text.rstrip("'").endswith(DOT_SUFFIX):
                    raise ParseError(
                        f"the name '{text}' uses the reserved dotted suffix", (start, end)
                    )
                append(_new_token(Token, ("IDENT", text, start, end)))
                add_key("IDENT")
            elif c.isdecimal():
                append(_new_token(Token, ("NUMBER", text, start, end)))
                add_key("NUMBER")
            else:
                raise ParseError(f"unexpected character {c!r}", (start, start + 1))
        start = end
    append(Token("EOF", "", start, start))
    add_key("EOF")
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The parser reads `keys`, one per token, built by `tokenize`: the token's
# kind, or the word itself for a keyword, so one membership test covers both.
# A term is made only of the tokens in `_TERM_KEYS`; `stops[i]` is the key of
# the first token at or after `i` that is not one of them. `t .. R` and
# `t <| p |> t'` begin with a term, and a term parsed from `i` can be followed
# by `..` or `<|` only if `stops[i]` is that token. Elsewhere the attempt
# would be thrown away and the tokens re-read, so the parser does not make it.
_TERM_KEYS = frozenset({"IDENT", "LPAREN", "RPAREN", "LAMBDA", "DOT"})
_TERM_ARG = frozenset({"IDENT", "LPAREN"})
_POSTFIX = frozenset({"HAT", "LBRACK"})
_PROOF_ARG = frozenset({"IDENT", "LPAREN", "iota", "conv_i", "conv_e"})
# The binary type operators, key -> (level, form); a larger level binds
# tighter. The module docstring lists the levels of the other type forms.
_TYPE_BINARY = {"ARROW": (1, Arrow), "PLUS": (2, sum_), "STAR": (4, Comp)}
_TYPE_INFIX = {"SUBSET": subset, "DARROW": imp_prod, "RELEQ": rel_eq}
_BINDERS = frozenset({"all", "rec"})


class _Parser:
    def __init__(self, source: str, allow_dotted: bool = False):
        self.keys = keys = []
        self.tokens = tokenize(source, allow_dotted, keys)
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
        keys = self.keys
        if keys[self.pos] != "LAMBDA":
            t = self.term_atom()
            # a bare lambda argument is not taken: it must be parenthesized, or
            # it would swallow the rest of the input silently
            while keys[self.pos] in _TERM_ARG:
                t = App(t, self.term_atom())
            return t
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

    def term_before(self, key: str) -> Term | None:
        """The term in front of `key` (`..` or `<|`), with `key` read; None,
        with nothing read, where no term is followed by `key`."""
        save = self.pos
        if self.stops[save] != key:
            return None
        try:
            t = self.term()
        except ParseError:
            pass
        else:
            if self.keys[self.pos] == key:
                self.pos += 1
                return t
        self.pos = save
        return None

    # -- types --

    def type_(self, level: int = 0) -> RelType:
        """A type whose binary operators all have at least `level` (see `_TYPE_BINARY`)."""
        keys = self.keys
        key = keys[self.pos]
        if level == 0 and key in _BINDERS:
            self.pos += 1
            name = self.ident()
            self.expect("DOT")
            body = self.type_()
            return all_(name, body) if key == "all" else rec(name, body)
        left = self.type_unary(level)
        while (op := _TYPE_BINARY.get(keys[self.pos])) is not None and op[0] >= level:
            prec, form = op
            self.pos += 1
            # a binder right after `->` extends as far as a type at level 0
            left = form(left, self.type_(0 if prec == 1 and keys[self.pos] in _BINDERS else prec))
        if level == 0 and (form := _TYPE_INFIX.get(keys[self.pos])) is not None:
            self.pos += 1
            left = form(left, self.type_(1))
        return left

    def type_unary(self, level: int) -> RelType:
        """The prefix forms `t .. R` (at levels up to 3) and `[t] R`, or an
        atom with its postfix `^` and `R [t]`."""
        if level <= 3:
            # a chain `t1 .. t2 .. R` is read in a loop, so its length costs no stack
            conj = []
            while (t := self.term_before("DOTDOT")) is not None:
                conj.append(t)
            if conj:
                # `R` is at level 3; level 4 takes the same operators and skips
                # the term attempt that just failed here
                r = self.type_(4)
                for t in reversed(conj):
                    r = dconj(t, r)
                return r
        keys = self.keys
        if keys[self.pos] == "LBRACK":
            self.pos += 1
            t = self.term()
            self.expect("RBRACK")
            return int_type_l(t, self.type_unary(5))
        r = self.type_atom()
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
        start = self.tokens[self.pos].start
        left = self.term_before("LCONV")
        if left is None:
            return self.proof_app()
        body = self.proof()
        self.expect("RCONV")
        right = self.term()
        return PConv(left, body, right, span=(start, self._prev_end()))

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
                p = PApp(p, arg, span=(p.span[0], arg.span[1]))
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
            end = body.span[1]
            return PLam(pvar, self._subject_name(subj_l, t), rel, subj_r, body, span=(start, end))
        if key == "Fun":
            self.pos = pos + 1
            tvar = self.ident()
            self.expect("DARROW")
            body = self.proof()
            end = body.span[1]
            return PTyLam(tvar, body, span=(start, end))
        if key == "conv_i" or key == "conv_e":
            self.pos = pos + 1
            body = self.proof_atom()
            end = body.span[1]
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
            end = body.span[1]
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
            end = body.span[1]
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
# dangling indices points to. Each name is the one `fresh` would pick against
# the free names of the body opened with the enclosing binders' names, which
# is what makes the output parse back alpha-equal.
#
# A node's scope is two integers: a mask of its free names, one bit per name
# in `bits` (a table that grows during one render call), and a mask of the
# indices that dangle out of it, bit `i` for index `i`. An application ORs its
# children's masks and a binder shifts its body's index mask right by one.
# `_scope` fills `memo` bottom-up, keyed by node identity, so shared subterms
# are scanned once; one function serves terms and types, since their binders
# scope alike. It walks down one child per node in a loop (an application's
# function, a binder's body, the right side of `->` and `*`, a converse's
# operand) and recurses only into the other child.
#
# The renderers dispatch on `type(x) is C`, as reduction does, and print an
# application spine, a chain of binders and a chain of `->` or `*` in one
# loop with one join, so none of these recurses along its length.


def _scope(x: Term | RelType, memo: dict, bits: dict) -> tuple[int, int]:
    """Free names of a term or type as a mask over `bits`, and the indices that dangle out of it."""
    path = []
    while True:
        found = memo.get(id(x))
        if found is not None:
            names, ixs = found
            break
        ty = type(x)
        if ty is App:
            path.append(x)
            x = x.fn
        elif ty is Lam or ty is All:
            path.append(x)
            x = x.body
        elif ty is Arrow:
            path.append(x)
            x = x.cod
        elif ty is Comp:
            path.append(x)
            x = x.right
        elif ty is Conv:
            path.append(x)
            x = x.rel
        elif ty is Var or ty is TVar:
            names = bits.get(x.name) or _new_bit(x.name, bits)
            ixs = 0
            break
        elif ty is Bound or ty is TBound:
            names, ixs = 0, 1 << x.index
            break
        elif ty is Promote:  # terms contain no type variables
            names = ixs = 0
            break
        else:
            raise TypeError(f"not a term or type: {x!r}")
    for node in reversed(path):
        ty = type(node)
        if ty is Lam or ty is All:
            ixs >>= 1
        elif ty is not Conv:
            other = node.arg if ty is App else node.dom if ty is Arrow else node.left
            ty = type(other)
            if ty is Var or ty is TVar:
                names |= bits.get(other.name) or _new_bit(other.name, bits)
            elif ty is Bound or ty is TBound:
                ixs |= 1 << other.index
            else:
                other_names, other_ixs = _scope(other, memo, bits)
                names |= other_names
                ixs |= other_ixs
        memo[id(node)] = (names, ixs)
    return names, ixs


def _new_bit(name: str, bits: dict) -> int:
    bit = bits[name] = 1 << len(bits)
    return bit


def _binder_name(hint: str, scope: tuple[int, int], env: list[str], bits: dict) -> str:
    """The name a binder prints under: its hint, unless that clashes with a visible name.

    Every name in `env` already has its bit, since each binder's name gets
    one here.
    """
    names, ixs = scope
    depth = len(env)
    ixs &= (1 << depth) - 1  # the enclosing binders that the body refers to
    while ixs:
        low = ixs & -ixs
        names |= bits[env[depth - low.bit_length()]]
        ixs ^= low
    name, n = hint, 0
    while bits.get(name, 0) & names:
        n += 1
        name = f"{hint}{n}"
    if name not in bits:
        _new_bit(name, bits)
    return name


def render_term(t: Term) -> str:
    return _rt(t, 0, [], {}, {})


def _rt(t: Term, prec: int, env: list[str], memo: dict, bits: dict) -> str:
    # prec 0: lambda body; 1: application head; 2: argument
    ty = type(t)
    if ty is App:
        args = []
        while ty is App:
            args.append(t.arg)
            t = t.fn
            ty = type(t)
        depth = len(env)
        parts = [_rt(t, 1, env, memo, bits)]
        for a in reversed(args):
            ty = type(a)
            if ty is Bound:
                i = a.index
                parts.append(env[-1 - i] if i < depth else f"?{i}")
            elif ty is Var:
                parts.append(a.name)
            else:
                parts.append(_rt(a, 2, env, memo, bits))
        s = " ".join(parts)
        return f"({s})" if prec > 1 else s
    if ty is Bound:
        i = t.index
        return env[-1 - i] if i < len(env) else f"?{i}"
    if ty is Var:
        return t.name
    if ty is Lam:
        depth = len(env)
        parts = []
        while ty is Lam:
            scope = memo.get(id(t)) or _scope(t, memo, bits)
            nm = _binder_name(t.hint or "x", scope, env, bits)
            env.append(nm)
            parts.append(f"\\{nm}.")
            t = t.body
            ty = type(t)
        parts.append(_rt(t, 0, env, memo, bits))
        del env[depth:]
        s = " ".join(parts)
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a term: {t!r}")


def render_type(r: RelType) -> str:
    return _rr(r, 0, [], {}, {})


def _rr(r: RelType, prec: int, env: list[str], memo: dict, bits: dict) -> str:
    # prec 0: quantifier body; 1: arrow; 2: composition; 3: converse; 4: atom
    ty = type(r)
    if ty is TVar:
        return r.name
    if ty is TBound:
        i = r.index
        return env[-1 - i] if i < len(env) else f"?{i}"
    if ty is Arrow:
        parts = []
        while ty is Arrow:
            parts.append(_rr(r.dom, 2, env, memo, bits))
            r = r.cod
            ty = type(r)
        parts.append(_rr(r, 1, env, memo, bits))
        s = " -> ".join(parts)
        return f"({s})" if prec > 1 else s
    if ty is All:
        depth = len(env)
        parts = []
        while ty is All:
            scope = memo.get(id(r)) or _scope(r, memo, bits)
            nm = _binder_name(r.hint or "X", scope, env, bits)
            env.append(nm)
            parts.append(f"all {nm}.")
            r = r.body
            ty = type(r)
        parts.append(_rr(r, 0, env, memo, bits))
        del env[depth:]
        s = " ".join(parts)
        return f"({s})" if prec > 0 else s
    if ty is Comp:
        parts = []
        while ty is Comp:
            parts.append(_rr(r.left, 3, env, memo, bits))
            r = r.right
            ty = type(r)
        parts.append(_rr(r, 2, env, memo, bits))
        s = " * ".join(parts)
        return f"({s})" if prec > 2 else s
    if ty is Conv:
        n = 0
        while ty is Conv:
            n += 1
            r = r.rel
            ty = type(r)
        return _rr(r, 4, env, memo, bits) + "^" * n
    if ty is Promote:
        return "{" + render_term(r.term) + "}"
    raise TypeError(f"not a type: {r!r}")


def render_proof(p: Proof) -> str:
    return _rp(p, 0)


def _rp(p: Proof, prec: int) -> str:
    # prec 0: full; 1: application head; 2: atom
    ty = type(p)
    if ty is PVar:
        return p.name
    if ty is PApp:
        s = f"{_rp(p.fn, 1)} {_rp(p.arg, 2)}"
        return f"({s})" if prec > 1 else s
    if ty is PLam:
        s = f"fun ({p.pvar} : {p.subj_l} [{render_type(p.rel)}] {p.subj_r}) => {_rp(p.body, 0)}"
        return f"({s})" if prec > 0 else s
    if ty is PTyLam:
        s = f"Fun {p.tvar} => {_rp(p.body, 0)}"
        return f"({s})" if prec > 0 else s
    if ty is PTyApp:
        s = f"{_rp(p.fn, 1)} {{{render_type(p.rel)}}}"
        return f"({s})" if prec > 1 else s
    if ty is PConv:
        s = f"{_rt(p.left, 2, [], {}, {})} <| {_rp(p.body, 0)} |> {_rt(p.right, 2, [], {}, {})}"
        return f"({s})" if prec > 0 else s
    if ty is PConvI or ty is PConvE:
        s = f"{'conv_i' if ty is PConvI else 'conv_e'} {_rp(p.body, 2)}"
        return f"({s})" if prec > 1 else s
    if ty is PIota:
        return f"iota {{{render_term(p.left)}, {render_term(p.promoted)}}}"
    if ty is PRho:
        s = (
            f"rho {{{p.guide_var}. {render_term(p.guide_l)}, {render_term(p.guide_r)}}} "
            f"{_rp(p.eq, 1)} - {_rp(p.body, 0)}"
        )
        return f"({s})" if prec > 0 else s
    if ty is PPair:
        return f"({_rp(p.left, 0)}, {_rp(p.right, 0)} via {render_term(p.mid)})"
    if ty is PPi:
        s = f"pi {_rp(p.scrutinee, 1)} - {p.mid_var} {p.pvar_l} {p.pvar_r}. {_rp(p.body, 0)}"
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a proof: {p!r}")


def render_judgment(j: Judgment) -> str:
    return f"{render_term(j.left)} [{render_type(j.rel)}] {render_term(j.right)}"

