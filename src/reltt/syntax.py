"""Core syntax: untyped terms, relational types, contexts, judgments.

Terms and types use a locally nameless representation: bound variables are de
Bruijn indices (`Bound`, `TBound`), free variables are names (`Var`, `TVar`), and
every binder keeps a display hint that is excluded from equality. Dataclass
equality is therefore exactly alpha-equivalence, and capture-avoiding
substitution needs no renaming.

Every term or type handed across a public API is locally closed (no dangling
indices). Code that needs to look under a binder opens it with a fresh free
variable and closes again afterwards. There are three exceptions. Reduction
steps under binders without opening them, using `shift_term`, `subst_bound`
and `bound_occurs`. The renderer (`surface.render_term`, `render_type`)
never opens a body: it prints an index as the name it chose for that
binder, from an environment of the names chosen so far. The parser's term
binders and the System F bridge (`systemf.project_type`, `validate_f`,
`erase_proof`) resolve a binder through a scope of name to level as they
walk, so each builds every binder once.

Apart from those, a name is closed into a term binder in one place, `lam`,
and every other binder operation is one structural rebuild per syntax family:
`rebuild_term` for terms and `rebuild_type` for types. Each walks to the
leaves, counts the binders it passes, and hands every leaf with that depth
to a leaf function; a subterm that comes back unchanged is reused as the
same object. Closing a type (`close_type`, which `all_` calls), opening
(`open_term`, `open_type`) and simultaneous substitution of free names
(`subst_term_multi`, `subst_tvars`, `subst_terms_in_type`) are each just a
leaf function over one of the two. System F types are relational types too
(see `systemf.is_f_type`), so they share these binder operations rather than
keeping their own. `lam` closes its body with a walk of its own
(`_close_under`) that never enters a subterm whose `named` is False, since
closing a subterm that holds no name changes nothing under any name. A
derivation's subjects grow under nested binders, and once a close has turned
`Var(subj)` into an index a subterm often holds no name at all, so the closes
of the enclosing lambdas skip it whole.

Every term caches its loose-index range in `loose`: one more than the largest
index that dangles out of it, or 0 if none does. So `loose` is 0 for `Var`,
`index + 1` for `Bound`, `max(body.loose - 1, 0)` for `Lam`, and the larger of
the two children's for `App`, and `t` is locally closed under `d` binders
exactly when `t.loose <= d`. `shift_term`, `subst_bound` and `bound_occurs`
never enter a subterm that no index they act on reaches, so a reduction step
costs only the part of the term it can change. A Python call is most of what
a step costs, so they are module-level recursions, not closures made per
call, and test a child's `loose` before they call themselves on it (see the
comment above them). Every term also caches in `named` whether a `Var` occurs
in it: True for `Var`, False for `Bound`, the body's for `Lam`, and either
child's for `App`. Neither `loose` nor `named` is a field of `==`, `hash`,
`repr` or pattern matching.

Term variables and type variables live in separate namespaces. Types contain
terms (inside `Promote`), terms never contain types, and no term binder scopes
across a type, so the two index spaces never interact.
"""

from __future__ import annotations

from collections.abc import Callable

from .records import dataclass, field


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        # A class with slots gets each slot's own setter as `_set_<slot>`, which
        # the constructors below call: it skips the attribute lookup that
        # `object.__setattr__` makes on every call. This runs for every class
        # made, the one that `dataclass(slots=True)` makes anew included, so a
        # class always holds the setters of its own slots.
        super().__init_subclass__(**kwargs)
        for name in cls.__dict__.get("__slots__", ()):
            setattr(cls, f"_set_{name}", getattr(cls, name).__set__)


# `loose` and `named` (see the module docstring) are set once, in the
# constructor, from the children's cached values, so reading them never
# recurses. Slots keep each node small, the extra fields included.


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str

    loose = 0  # a class attribute: no index dangles out of a name
    named = True  # a class attribute, as `Bound.named` is


@dataclass(frozen=True, slots=True)
class Bound(Term):
    index: int
    loose: int = field(init=False, repr=False, compare=False)

    named = False  # a class attribute: an index is no name

    def __init__(self, index: int) -> None:
        Bound._set_index(self, index)
        Bound._set_loose(self, index + 1)


@dataclass(frozen=True, slots=True)
class Lam(Term):
    hint: str = field(compare=False)
    body: Term
    loose: int = field(init=False, repr=False, compare=False)
    named: bool = field(init=False, repr=False, compare=False)

    def __init__(self, hint: str, body: Term) -> None:
        Lam._set_hint(self, hint)
        Lam._set_body(self, body)
        n = body.loose
        Lam._set_loose(self, n - 1 if n else 0)
        Lam._set_named(self, body.named)


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: Term
    arg: Term
    loose: int = field(init=False, repr=False, compare=False)
    named: bool = field(init=False, repr=False, compare=False)

    def __init__(self, fn: Term, arg: Term) -> None:
        App._set_fn(self, fn)
        App._set_arg(self, arg)
        a, b = fn.loose, arg.loose
        App._set_loose(self, a if a > b else b)
        App._set_named(self, fn.named or arg.named)


def lam(name: str, body: Term) -> Lam:
    """Bind the free occurrences of `name` in `body`."""
    return Lam(name, _close_under(body, name, 0))


def _close_under(t: Term, name: str, d: int) -> Term:
    """`t` with `Var(name)` replaced by the index of a binder `d` lambdas out.

    A subterm that holds no name comes back unchanged without a visit. The
    walk goes down function parts and lambda bodies in a loop and rebuilds on
    the way back up, so only an argument that holds a name and is not a leaf
    costs a call.
    """
    path = []
    while t.named:
        ty = type(t)
        if ty is App:
            path.append(t)
            t = t.fn
        elif ty is Lam:
            path.append(t)
            t = t.body
            d += 1
        else:  # a `Var`
            if t.name == name:
                t = Bound(d)
            break
    for node in reversed(path):
        if type(node) is Lam:
            d -= 1
            t = node if t is node.body else Lam(node.hint, t)
        else:
            a = node.arg
            if not a.named:
                na = a
            elif type(a) is Var:
                na = Bound(d) if a.name == name else a
            else:
                na = _close_under(a, name, d)
            t = node if t is node.fn and na is a else App(t, na)
    return t


def rebuild_term(t: Term, leaf: Callable[[Term, int], Term], depth: int = 0) -> Term:
    """Rebuild `t` with each `Var` or `Bound` leaf `x` replaced by `leaf(x, d)`.

    `d` is `depth` plus the number of lambdas between `t` and the leaf. A
    subterm the rebuild leaves unchanged is returned as the same object. The
    walk goes down function parts and lambda bodies in a loop and rebuilds on
    the way back up, so a long application spine or a chain of lambdas costs
    no Python frames; only an argument that is not a leaf costs a call.
    """
    path = []
    while True:
        ty = type(t)
        if ty is App:
            path.append(t)
            t = t.fn
        elif ty is Lam:
            path.append(t)
            t = t.body
            depth += 1
        elif ty is Var or ty is Bound:
            break
        else:
            raise TypeError(f"not a term: {t!r}")
    t = leaf(t, depth)
    for node in reversed(path):
        if type(node) is Lam:
            depth -= 1
            t = node if t is node.body else Lam(node.hint, t)
        else:
            a = node.arg
            ty = type(a)
            na = leaf(a, depth) if ty is Var or ty is Bound else rebuild_term(a, leaf, depth)
            t = node if t is node.fn and na is a else App(t, na)
    return t


def open_term(body: Term, repl: Term) -> Term:
    """Instantiate the outermost binder's index in `body` with `repl`."""

    def leaf(x: Term, d: int) -> Term:
        return repl if type(x) is Bound and x.index == d else x

    return rebuild_term(body, leaf)


# The index primitives below sit on the reduction hot path: they run once per
# node of every contractum, so the cost of a Python call shapes them.
# - They dispatch on `type(t) is ...` rather than `match`: class patterns cost
#   several times more per node.
# - Each recursion is a module-level function, not a closure, so a beta step
#   makes no function object.
# - Each tests a child's `loose` before it recurses into it, so a child that no
#   index they act on reaches costs an attribute read instead of a call.
# - They take one Python frame per level of the subterm a step rebuilds
#   (`bound_occurs` none along a body or an argument); `test_reduction` pins
#   the depth this allows at the stock recursion limit.


def shift_term(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every index at or above `cutoff`; unchanged subterms are reused."""
    return _shift(t, by, cutoff) if t.loose > cutoff else t


def _shift(t: Term, by: int, c: int) -> Term:
    # `t.loose > c`: an index at or above `c` occurs in `t`, so `t` is rebuilt.
    ty = type(t)
    if ty is App:
        f, a = t.fn, t.arg
        return App(_shift(f, by, c) if f.loose > c else f, _shift(a, by, c) if a.loose > c else a)
    if ty is Lam:
        return Lam(t.hint, _shift(t.body, by, c + 1))
    if ty is Bound:
        return Bound(t.index + by)
    raise TypeError(f"not a term: {t!r}")


def subst_bound(body: Term, index: int, arg: Term) -> Term:
    """Beta-substitute `arg` for the index `index` of a binder's `body`.

    `arg` lives outside the binder, so where it lands under `index` binders
    it is shifted up by `index`; the indices above `index` lose the binder
    and drop by one. `subst_bound(body, 0, arg)` is the contractum of
    `App(Lam(_, body), arg)`, with no fresh name and no open/close. A locally
    closed `arg` is never shifted, and subterms that no index at or above
    the substituted one reaches are reused without a visit.
    """
    return _subst(body, index, arg) if body.loose > index else body


def _subst(t: Term, j: int, arg: Term) -> Term:
    # `t.loose > j`: the index `j`, or one above it, occurs in `t`.
    ty = type(t)
    if ty is App:
        f, a = t.fn, t.arg
        nf = _subst(f, j, arg) if f.loose > j else f
        na = _subst(a, j, arg) if a.loose > j else a
        return t if nf is f and na is a else App(nf, na)
    if ty is Lam:
        return Lam(t.hint, _subst(t.body, j + 1, arg))
    if ty is Bound:
        i = t.index
        if i != j:
            return Bound(i - 1)
        return _shift(arg, j, 0) if j and arg.loose else arg
    raise TypeError(f"not a term: {t!r}")


def bound_occurs(t: Term, index: int) -> bool:
    """Whether the index `index` (counted from outside `t`) occurs in `t`."""
    while t.loose > index:
        ty = type(t)
        if ty is App:
            f = t.fn
            if f.loose > index and bound_occurs(f, index):
                return True
            t = t.arg
        elif ty is Lam:
            t = t.body
            index += 1
        elif ty is Bound:
            return t.index == index
        else:
            raise TypeError(f"not a term: {t!r}")
    return False


def subst_term_multi(sigma: dict[str, Term], target: Term) -> Term:
    """Simultaneous substitution of free term variables."""

    def leaf(x: Term, d: int) -> Term:
        return sigma.get(x.name, x) if type(x) is Var else x

    return rebuild_term(target, leaf)


# ---------------------------------------------------------------------------
# Relational types
# ---------------------------------------------------------------------------


class RelType:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TVar(RelType):
    name: str


@dataclass(frozen=True, slots=True)
class TBound(RelType):
    index: int


@dataclass(frozen=True, slots=True)
class Arrow(RelType):
    dom: RelType
    cod: RelType


@dataclass(frozen=True, slots=True)
class All(RelType):
    hint: str = field(compare=False)
    body: RelType


@dataclass(frozen=True, slots=True)
class Conv(RelType):
    """Converse R^."""

    rel: RelType


@dataclass(frozen=True, slots=True)
class Comp(RelType):
    """Composition R . R' (relational, left then right)."""

    left: RelType
    right: RelType


@dataclass(frozen=True, slots=True)
class Promote(RelType):
    """{t}: the graph of application, relating a to (t a)."""

    term: Term


def all_(name: str, body: RelType) -> All:
    return All(name, close_type(body, name))


def rebuild_type(r: RelType, leaf: Callable[[RelType, int], RelType], depth: int = 0) -> RelType:
    """Rebuild `r` with each `TVar`, `TBound` or `Promote` leaf `x` replaced by `leaf(x, d)`.

    `d` is `depth` plus the number of `all` binders between `r` and the leaf.
    A subterm the rebuild leaves unchanged is returned as the same object. A
    promoted term holds no type variable, so the rebuild does not enter it;
    only a leaf function that substitutes term names looks inside.
    """
    ty = type(r)
    if ty is Arrow or ty is Comp:
        x, y = (r.dom, r.cod) if ty is Arrow else (r.left, r.right)
        nx = rebuild_type(x, leaf, depth)
        ny = rebuild_type(y, leaf, depth)
        return r if nx is x and ny is y else ty(nx, ny)
    if ty is All:
        b = r.body
        nb = rebuild_type(b, leaf, depth + 1)
        return r if nb is b else All(r.hint, nb)
    if ty is Conv:
        x = r.rel
        nx = rebuild_type(x, leaf, depth)
        return r if nx is x else Conv(nx)
    if ty is TVar or ty is TBound or ty is Promote:
        return leaf(r, depth)
    raise TypeError(f"not a type: {r!r}")


def close_type(r: RelType, name: str) -> RelType:
    """Replace the free occurrences of `name` by the index of a binder just outside `r`."""

    def leaf(x: RelType, d: int) -> RelType:
        return TBound(d) if type(x) is TVar and x.name == name else x

    return rebuild_type(r, leaf)


def open_type(body: RelType, repl: RelType) -> RelType:
    """Instantiate the outermost binder's index in `body` with `repl`."""

    def leaf(x: RelType, d: int) -> RelType:
        return repl if type(x) is TBound and x.index == d else x

    return rebuild_type(body, leaf)


def subst_tvars(sigma: dict[str, RelType], target: RelType) -> RelType:
    """Simultaneous substitution of free type variables."""

    def leaf(x: RelType, d: int) -> RelType:
        return sigma.get(x.name, x) if type(x) is TVar else x

    return rebuild_type(target, leaf)


def subst_terms_in_type(sigma: dict[str, Term], target: RelType) -> RelType:
    """Simultaneously substitute free term variables inside promoted terms."""

    def leaf(x: RelType, d: int) -> RelType:
        if type(x) is not Promote:
            return x
        t = subst_term_multi(sigma, x.term)
        return x if t is x.term else Promote(t)

    return rebuild_type(target, leaf)


# ---------------------------------------------------------------------------
# Contexts and judgments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ContextEntry:
    """One assumption: pvar witnesses that left and right are related at rel."""

    pvar: str
    left: Term
    rel: RelType
    right: Term


Context = tuple[ContextEntry, ...]


@dataclass(frozen=True, slots=True)
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
    ty = type(e)
    if ty is App:
        _collect(e.fn, terms, types)
        _collect(e.arg, terms, types)
    elif ty is Var:
        terms.add(e.name)
    elif ty is Lam:
        _collect(e.body, terms, types)
    elif ty is Bound or ty is TBound:
        pass
    elif ty is TVar:
        types.add(e.name)
    elif ty is Arrow:
        _collect(e.dom, terms, types)
        _collect(e.cod, terms, types)
    elif ty is All:
        _collect(e.body, terms, types)
    elif ty is Comp:
        _collect(e.left, terms, types)
        _collect(e.right, terms, types)
    elif ty is Conv:
        _collect(e.rel, terms, types)
    elif ty is Promote:
        _collect(e.term, terms, types)
    elif ty is ContextEntry or ty is Judgment:
        _collect(e.left, terms, types)
        _collect(e.rel, terms, types)
        _collect(e.right, terms, types)
    elif isinstance(e, (tuple, list)):
        for item in e:
            _collect(item, terms, types)
    else:
        raise TypeError(f"free_vars: unsupported {e!r}")


def free_type_vars(e) -> set[str]:
    return free_vars(e)[1]


def alpha_eq(a, b) -> bool:
    """Alpha-equivalence; hints are excluded from dataclass equality.

    Terms are compared with an explicit stack, so a deep term needs no deep
    recursion, and a shared subterm is equal to itself without a visit. Other
    values are compared with `==`.
    """
    stack = [(a, b)]
    pop, push = stack.pop, stack.append
    while stack:
        x, y = pop()
        if x is y:
            continue
        ty = type(x)
        if ty is App:
            if type(y) is not App:
                return False
            push((x.arg, y.arg))
            push((x.fn, y.fn))
        elif ty is Lam:
            if type(y) is not Lam:
                return False
            push((x.body, y.body))
        elif ty is Var or ty is Bound:
            if type(y) is not ty or x != y:
                return False
        elif x != y:
            return False
    return True


def fresh(base: str, avoid: set[str]) -> str:
    """First of base, base1, base2, ... not in avoid."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"
