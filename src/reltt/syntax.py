"""Core syntax: untyped terms, relational types, contexts, judgments.

Terms and types use a locally nameless representation: bound variables are de
Bruijn indices (`Bound`, `TBound`), free variables are names (`Var`, `TVar`), and
every binder keeps a display hint that is excluded from equality. Dataclass
equality is therefore exactly alpha-equivalence, and capture-avoiding
substitution needs no renaming.

Every term or type handed across a public API is locally closed (no dangling
indices). Code that needs to look under a binder opens it with a fresh free
variable and closes again afterwards. The one exception is reduction, which
steps under binders without opening them, using `shift_term`, `subst_bound`
and `bound_occurs`. Those three, `open_term`/`close_term` and
`open_type`/`close_type` are the only places indices are touched. System F
types are relational types too (see `systemf.is_f_type`), so they share these
binder operations rather than keeping their own.

Term variables and type variables live in separate namespaces. Types contain
terms (inside `Promote`), terms never contain types, and no term binder scopes
across a type, so the two index spaces never interact.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Bound(Term):
    index: int


@dataclass(frozen=True)
class Lam(Term):
    hint: str = field(compare=False)
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


def lam(name: str, body: Term) -> Lam:
    """Bind the free occurrences of `name` in `body`."""
    return Lam(name, close_term(body, name))


def app(fn: Term, *args: Term) -> Term:
    t = fn
    for a in args:
        t = App(t, a)
    return t


def close_term(t: Term, name: str, depth: int = 0) -> Term:
    match t:
        case Var(n):
            return Bound(depth) if n == name else t
        case Bound(_):
            return t
        case Lam(h, b):
            return Lam(h, close_term(b, name, depth + 1))
        case App(f, a):
            return App(close_term(f, name, depth), close_term(a, name, depth))
    raise TypeError(f"not a term: {t!r}")


def open_term(body: Term, repl: Term, depth: int = 0) -> Term:
    """Instantiate the outermost binder's index in `body` with `repl`."""
    match body:
        case Var(_):
            return body
        case Bound(i):
            return repl if i == depth else body
        case Lam(h, b):
            return Lam(h, open_term(b, repl, depth + 1))
        case App(f, a):
            return App(open_term(f, repl, depth), open_term(a, repl, depth))
    raise TypeError(f"not a term: {body!r}")


# The index primitives below sit on the reduction hot path, so they dispatch
# on `type(t) is ...` rather than `match`: class patterns cost several times
# more per node, and these run once per node of every contractum.


def shift_term(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every index at or above `cutoff`; unchanged subterms are reused."""
    ty = type(t)
    if ty is App:
        f, a = t.fn, t.arg
        nf = shift_term(f, by, cutoff)
        na = shift_term(a, by, cutoff)
        return t if nf is f and na is a else App(nf, na)
    if ty is Lam:
        b = t.body
        nb = shift_term(b, by, cutoff + 1)
        return t if nb is b else Lam(t.hint, nb)
    if ty is Bound:
        return Bound(t.index + by) if t.index >= cutoff else t
    if ty is Var:
        return t
    raise TypeError(f"not a term: {t!r}")


def subst_bound(body: Term, index: int, arg: Term) -> Term:
    """Beta-substitute `arg` for the index `index` of a binder's `body`.

    `arg` lives outside the binder, so where it lands under `index` binders
    it is shifted up by `index`; the indices above `index` lose the binder
    and drop by one. `subst_bound(body, 0, arg)` is the contractum of
    `App(Lam(_, body), arg)`, with no fresh name and no open/close. A locally
    closed `arg` is never shifted, and unchanged subterms are reused.
    """
    closed = locally_closed_term(arg)

    def go(t: Term, j: int) -> Term:
        ty = type(t)
        if ty is App:
            f, a = t.fn, t.arg
            nf = go(f, j)
            na = go(a, j)
            return t if nf is f and na is a else App(nf, na)
        if ty is Lam:
            b = t.body
            nb = go(b, j + 1)
            return t if nb is b else Lam(t.hint, nb)
        if ty is Bound:
            i = t.index
            if i != j:
                return Bound(i - 1) if i > j else t
            return arg if closed else shift_term(arg, j)
        if ty is Var:
            return t
        raise TypeError(f"not a term: {t!r}")

    return go(body, index)


def bound_occurs(t: Term, index: int) -> bool:
    """Whether the index `index` (counted from outside `t`) occurs in `t`."""
    ty = type(t)
    if ty is App:
        return bound_occurs(t.fn, index) or bound_occurs(t.arg, index)
    if ty is Lam:
        return bound_occurs(t.body, index + 1)
    if ty is Bound:
        return t.index == index
    if ty is Var:
        return False
    raise TypeError(f"not a term: {t!r}")


def subst_term(replacement: Term, var: str, target: Term) -> Term:
    """[replacement/var]target. Capture-avoiding by representation."""
    return subst_term_multi({var: replacement}, target)


def subst_term_multi(sigma: dict[str, Term], target: Term) -> Term:
    """Simultaneous substitution of free term variables."""
    match target:
        case Var(n):
            return sigma.get(n, target)
        case Bound(_):
            return target
        case Lam(h, b):
            return Lam(h, subst_term_multi(sigma, b))
        case App(f, a):
            return App(subst_term_multi(sigma, f), subst_term_multi(sigma, a))
    raise TypeError(f"not a term: {target!r}")


def term_size(t: Term) -> int:
    match t:
        case Var(_) | Bound(_):
            return 1
        case Lam(_, b):
            return 1 + term_size(b)
        case App(f, a):
            return 1 + term_size(f) + term_size(a)
    raise TypeError(f"not a term: {t!r}")


def locally_closed_term(t: Term, depth: int = 0) -> bool:
    ty = type(t)  # not `match`: `subst_bound` runs this on every beta argument
    if ty is App:
        return locally_closed_term(t.fn, depth) and locally_closed_term(t.arg, depth)
    if ty is Lam:
        return locally_closed_term(t.body, depth + 1)
    if ty is Bound:
        return t.index < depth
    if ty is Var:
        return True
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Relational types
# ---------------------------------------------------------------------------


class RelType:
    __slots__ = ()


@dataclass(frozen=True)
class TVar(RelType):
    name: str


@dataclass(frozen=True)
class TBound(RelType):
    index: int


@dataclass(frozen=True)
class Arrow(RelType):
    dom: RelType
    cod: RelType


@dataclass(frozen=True)
class All(RelType):
    hint: str = field(compare=False)
    body: RelType


@dataclass(frozen=True)
class Conv(RelType):
    """Converse R^."""

    rel: RelType


@dataclass(frozen=True)
class Comp(RelType):
    """Composition R . R' (relational, left then right)."""

    left: RelType
    right: RelType


@dataclass(frozen=True)
class Promote(RelType):
    """{t}: the graph of application, relating a to (t a)."""

    term: Term


def all_(name: str, body: RelType) -> All:
    return All(name, close_type(body, name))


def close_type(r: RelType, name: str, depth: int = 0) -> RelType:
    match r:
        case TVar(n):
            return TBound(depth) if n == name else r
        case TBound(_):
            return r
        case Arrow(d, c):
            return Arrow(close_type(d, name, depth), close_type(c, name, depth))
        case All(h, b):
            return All(h, close_type(b, name, depth + 1))
        case Conv(x):
            return Conv(close_type(x, name, depth))
        case Comp(l, rr):
            return Comp(close_type(l, name, depth), close_type(rr, name, depth))
        case Promote(_):
            return r  # terms contain no type variables
    raise TypeError(f"not a type: {r!r}")


def open_type(body: RelType, repl: RelType, depth: int = 0) -> RelType:
    match body:
        case TVar(_):
            return body
        case TBound(i):
            return repl if i == depth else body
        case Arrow(d, c):
            return Arrow(open_type(d, repl, depth), open_type(c, repl, depth))
        case All(h, b):
            return All(h, open_type(b, repl, depth + 1))
        case Conv(x):
            return Conv(open_type(x, repl, depth))
        case Comp(l, rr):
            return Comp(open_type(l, repl, depth), open_type(rr, repl, depth))
        case Promote(_):
            return body
    raise TypeError(f"not a type: {body!r}")


def subst_tvar(replacement: RelType, tvar: str, target: RelType) -> RelType:
    """[replacement/tvar]target on type variables."""
    return subst_tvars({tvar: replacement}, target)


def subst_tvars(sigma: dict[str, RelType], target: RelType) -> RelType:
    """Simultaneous substitution of free type variables."""
    match target:
        case TVar(n):
            return sigma.get(n, target)
        case TBound(_):
            return target
        case Arrow(d, c):
            return Arrow(subst_tvars(sigma, d), subst_tvars(sigma, c))
        case All(h, b):
            return All(h, subst_tvars(sigma, b))
        case Conv(x):
            return Conv(subst_tvars(sigma, x))
        case Comp(l, r):
            return Comp(subst_tvars(sigma, l), subst_tvars(sigma, r))
        case Promote(_):
            return target
    raise TypeError(f"not a type: {target!r}")


def subst_terms_in_type(sigma: dict[str, Term], target: RelType) -> RelType:
    """Simultaneously substitute free term variables inside promoted terms."""
    match target:
        case TVar(_) | TBound(_):
            return target
        case Arrow(d, c):
            return Arrow(subst_terms_in_type(sigma, d), subst_terms_in_type(sigma, c))
        case All(h, b):
            return All(h, subst_terms_in_type(sigma, b))
        case Conv(x):
            return Conv(subst_terms_in_type(sigma, x))
        case Comp(l, r):
            return Comp(subst_terms_in_type(sigma, l), subst_terms_in_type(sigma, r))
        case Promote(t):
            return Promote(subst_term_multi(sigma, t))
    raise TypeError(f"not a type: {target!r}")


def type_size(r: RelType) -> int:
    match r:
        case TVar(_) | TBound(_):
            return 1
        case Arrow(d, c):
            return 1 + type_size(d) + type_size(c)
        case All(_, b):
            return 1 + type_size(b)
        case Conv(x):
            return 1 + type_size(x)
        case Comp(l, rr):
            return 1 + type_size(l) + type_size(rr)
        case Promote(t):
            return 1 + term_size(t)
    raise TypeError(f"not a type: {r!r}")


# ---------------------------------------------------------------------------
# Contexts and judgments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContextEntry:
    """One assumption: pvar witnesses that left and right are related at rel."""

    pvar: str
    left: Term
    rel: RelType
    right: Term


Context = tuple[ContextEntry, ...]


@dataclass(frozen=True)
class Judgment:
    left: Term
    rel: RelType
    right: Term


def ctx_lookup(ctx: Context, pvar: str) -> ContextEntry | None:
    for entry in ctx:
        if entry.pvar == pvar:
            return entry
    return None


# ---------------------------------------------------------------------------
# Free variables and freshness
# ---------------------------------------------------------------------------


def free_vars(e) -> tuple[set[str], set[str]]:
    """Free (term names, type names) of a term, type, entry, context, or judgment."""
    terms: set[str] = set()
    types: set[str] = set()
    _collect(e, terms, types)
    return terms, types


def _collect(e, terms: set[str], types: set[str]) -> None:
    match e:
        case Var(n):
            terms.add(n)
        case Bound(_) | TBound(_):
            pass
        case Lam(_, b):
            _collect(b, terms, types)
        case App(f, a):
            _collect(f, terms, types)
            _collect(a, terms, types)
        case TVar(n):
            types.add(n)
        case Arrow(d, c) | Comp(d, c):
            _collect(d, terms, types)
            _collect(c, terms, types)
        case All(_, b):
            _collect(b, terms, types)
        case Conv(x):
            _collect(x, terms, types)
        case Promote(t):
            _collect(t, terms, types)
        case ContextEntry(_, left, rel, right):
            _collect(left, terms, types)
            _collect(rel, terms, types)
            _collect(right, terms, types)
        case Judgment(left, rel, right):
            _collect(left, terms, types)
            _collect(rel, terms, types)
            _collect(right, terms, types)
        case tuple() | list():
            for item in e:
                _collect(item, terms, types)
        case _:
            raise TypeError(f"free_vars: unsupported {e!r}")


def free_term_vars(e) -> set[str]:
    return free_vars(e)[0]


def free_type_vars(e) -> set[str]:
    return free_vars(e)[1]


def alpha_eq(a, b) -> bool:
    """Alpha-equivalence; hints are excluded from dataclass equality."""
    return a == b


def fresh(base: str, avoid: set[str]) -> str:
    """First of base, base1, base2, ... not in avoid."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"
