"""Bridge between the relational kernel and Curry-style System F.

Four jobs live here:

  * erasure of proof terms to plain lambda terms (proof variables survive,
    everything else vanishes or becomes a standard combinator);
  * projection of relational types, contexts, and accepted proofs down to
    System F (promotions collapse to the identity type, compositions to the
    Church product);
  * a validator for explicit System F derivations (Curry-style typability is
    undecidable, so derivations in this repo are always constructed and then
    validated, never inferred);
  * the constructive embedding of a validated F derivation back into the
    relational calculus, where each typed variable x : T becomes the
    assumption x [T] x_dot against a renamed copy of itself.

`self_witness` composes projection and embedding: from any accepted proof it
manufactures a new proof whose judgment relates the erasure to its dotted
copy at the projected type.

System F types are not a syntax of their own: they are the relational types
that `is_f_type` accepts (type variables, arrows and universals only).

Every pass over a type, a proof or a derivation is one walk that never opens
or closes a binder. `project_type` builds each projected subterm at its final
depth and renumbers indices as a composition adds its `Z` binder.
`erase_proof` and the validator resolve each binder through a scope of name to
level, as the parser does, so a variable becomes its index where it is met
and each `Lam` is built once. The embedding extends one environment and one
avoid set in place and takes each binder's additions back afterwards.

The dotted copy uses the reserved `_dot` name suffix. Surface scripts cannot
mention such names, which is what makes the renaming an injection into
untouched territory.
"""

from __future__ import annotations

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
    RelPfNode,
    check,
    to_relpf,
)
from .records import dataclass
from .reduction import DEFAULT_FUEL
from .syntax import (
    All,
    App,
    Arrow,
    Bound,
    Comp,
    Context,
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
    alpha_eq,
    free_type_vars,
    fresh,
    lam,
    open_type,
    subst_tvars,
)

DOT_SUFFIX = "_dot"


def dot_name(name: str) -> str:
    return name + DOT_SUFFIX


def is_dotted(name: str) -> bool:
    return name.endswith(DOT_SUFFIX)


# ---------------------------------------------------------------------------
# System F types
# ---------------------------------------------------------------------------


def is_f_type(r: RelType) -> bool:
    """Whether r is a System F type: no converse, composition or promotion."""
    match r:
        case TVar(_) | TBound(_):
            return True
        case Arrow(d, c):
            return is_f_type(d) and is_f_type(c)
        case All(_, b):
            return is_f_type(b)
        case Conv(_) | Comp(_, _) | Promote(_):
            return False
    raise TypeError(f"not a type: {r!r}")


def rename_ftvars(t: RelType, mapping: dict[str, str]) -> RelType:
    return subst_tvars({old: TVar(new) for old, new in mapping.items()}, t)


# ---------------------------------------------------------------------------
# System F derivations
# ---------------------------------------------------------------------------


class FDerivation:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class DVar(FDerivation):
    name: str


@dataclass(frozen=True, slots=True)
class DAbs(FDerivation):
    binder: str
    ann: RelType
    body: FDerivation


@dataclass(frozen=True, slots=True)
class DApp(FDerivation):
    fn: FDerivation
    arg: FDerivation


@dataclass(frozen=True, slots=True)
class DGen(FDerivation):
    tvar: str
    body: FDerivation


@dataclass(frozen=True, slots=True)
class DInst(FDerivation):
    arg: RelType
    body: FDerivation


FContext = tuple[tuple[str, RelType], ...]

RULE_MISMATCH = "rule-mismatch"
UNBOUND_VARIABLE = "unbound-variable"
F_FRESHNESS_VIOLATION = "freshness-violation"
SHADOWING_VIOLATION = "shadowing-violation"
DOTTED_COLLISION = "dotted-collision"


class FError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


def _fctx_lookup(delta: FContext, name: str) -> RelType | None:
    for n, t in delta:
        if n == name:
            return t
    return None


def _fctx_ftvars(delta: FContext) -> set[str]:
    return free_type_vars([t for _, t in delta])


def _require_f_type(t: RelType, what: str) -> None:
    if not is_f_type(t):
        raise FError(RULE_MISMATCH, f"{what} is not a System F type")


def validate_f(delta: FContext, d: FDerivation) -> tuple[Term, RelType]:
    """Check an explicit derivation rule by rule; return (subject, type)."""
    names = [n for n, _ in delta]
    if len(set(names)) != len(names):
        raise FError(F_FRESHNESS_VIOLATION, "duplicate variable in context")
    for n, t in delta:
        _require_f_type(t, f"the context type of '{n}'")
    return _validate(delta, d)


def _validate(delta: FContext, d: FDerivation) -> tuple[Term, RelType]:
    """The rules over `d` in one walk, with no `lam` closing a body.

    A `DAbs` binder is resolved through a scope: `levels` maps its name to
    its level and `anns[level]` holds its annotation, so a `DVar` it binds
    becomes its index at once. `ftvars` holds the free type names of
    `delta` and of the enclosing annotations, collected once at the root and
    extended at each `DAbs`, for the `DGen` side condition.
    """
    declared = dict(delta)  # validate_f has rejected duplicate names
    levels: dict[str, int] = {}
    anns: list[RelType] = []

    def go(d: FDerivation, ftvars: set[str]) -> tuple[Term, RelType]:
        ty = type(d)
        if ty is DVar:
            name = d.name
            level = levels.get(name)
            if level is not None:
                return Bound(len(anns) - 1 - level), anns[level]
            t = declared.get(name)
            if t is None:
                raise FError(UNBOUND_VARIABLE, f"'{name}' is not declared")
            return Var(name), t
        if ty is DAbs:
            binder, ann = d.binder, d.ann
            if binder in levels or binder in declared:
                raise FError(
                    F_FRESHNESS_VIOLATION, f"binder '{binder}' shadows a declared variable"
                )
            _require_f_type(ann, f"the annotation of '{binder}'")
            ann_tvars = free_type_vars(ann)
            levels[binder] = len(anns)
            anns.append(ann)
            t, body_ty = go(d.body, ftvars if ann_tvars <= ftvars else ftvars | ann_tvars)
            anns.pop()
            del levels[binder]
            return Lam(binder, t), Arrow(ann, body_ty)
        if ty is DApp:
            tf, tyf = go(d.fn, ftvars)
            if not isinstance(tyf, Arrow):
                raise FError(RULE_MISMATCH, "application head is not an arrow")
            ta, tya = go(d.arg, ftvars)
            if tya != tyf.dom:
                raise FError(RULE_MISMATCH, "argument type differs from the arrow domain")
            return App(tf, ta), tyf.cod
        if ty is DGen:
            tvar = d.tvar
            if tvar in ftvars:
                raise FError(
                    F_FRESHNESS_VIOLATION,
                    f"generalized variable '{tvar}' occurs free in the context",
                )
            t, body_ty = go(d.body, ftvars)
            return t, all_(tvar, body_ty)
        if ty is DInst:
            arg = d.arg
            _require_f_type(arg, "the instantiation argument")
            t, body_ty = go(d.body, ftvars)
            if not isinstance(body_ty, All):
                raise FError(RULE_MISMATCH, "instantiation head is not universal")
            return t, open_type(body_ty.body, arg)
        raise TypeError(f"not an F derivation: {d!r}")

    return go(d, _fctx_ftvars(delta))


# ---------------------------------------------------------------------------
# Erasure
# ---------------------------------------------------------------------------

# The erasures of a promotion and of a composition pair: the identity and the
# Church pair. The library's `I`, `unit` and `pair` are these terms.
I_TERM = lam("x", Var("x"))
PAIR_TERM = lam("x", lam("y", lam("c", App(App(Var("c"), Var("x")), Var("y")))))


def erase_proof(p: Proof) -> Term:
    """The underlying lambda term of a proof; only proof variables survive.

    Proof binders are resolved through a scope of name to level, so a `PVar`
    that one binds becomes its index at once and no `lam` closes a body. The
    innermost binder of a name wins, as it would under `lam`: an unchecked
    proof may rebind a name.
    """
    scope: dict[str, int] = {}

    def under(names: tuple[str, ...], body: Proof, depth: int) -> Term:
        """`Lam`s binding `names`, outermost first, around the erasure of `body`."""
        if not names:
            return go(body, depth)
        name = names[0]
        saved = scope.get(name)
        scope[name] = depth
        t = Lam(name, under(names[1:], body, depth + 1))
        if saved is None:
            del scope[name]
        else:
            scope[name] = saved
        return t

    def go(p: Proof, depth: int) -> Term:
        match p:
            case PVar(u):
                level = scope.get(u)
                return Var(u) if level is None else Bound(depth - 1 - level)
            case PLam(u, _, _, _, body):
                return under((u,), body, depth)
            case PApp(fn, arg):
                return App(go(fn, depth), go(arg, depth))
            case PTyApp(fn, _):
                return go(fn, depth)
            case PTyLam(_, body):
                return go(body, depth)
            case PConv(_, body, _):
                return go(body, depth)
            case PConvI(body) | PConvE(body):
                return go(body, depth)
            case PIota(_, _):
                return I_TERM
            case PRho(_, _, _, _, body):
                return go(body, depth)
            case PPair(left, right, _):
                return App(App(PAIR_TERM, go(left, depth)), go(right, depth))
            case PPi(scrutinee, _, u, v, body):
                return App(go(scrutinee, depth), under((u, v), body, depth))
        raise TypeError(f"not a proof: {p!r}")

    return go(p, 0)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


# The projection of every promotion: all X. X -> X.
_PROMOTION_F = All("X", Arrow(TBound(0), TBound(0)))


def project_type(r: RelType) -> RelType:
    """Relational type down to System F: converses vanish, promotions become
    the identity type, compositions become the Church product.

    One walk under binders, with no open or close: a composition becomes
    `all Z. (A -> B -> Z) -> Z`, which puts its projected sides under one
    more binder than their source, so the walk builds each subterm at its
    final depth. `levels[k]` is the output level of the k-th enclosing source
    `all` (outermost first) and `depth` counts the output binders, so the
    source index `i` becomes `depth - 1 - levels[-1 - i]`. An index that
    dangles out of `r` raises `ValueError`.
    """
    levels: list[int] = []

    def go(r: RelType, depth: int) -> RelType:
        ty = type(r)
        if ty is Arrow:
            d, c = r.dom, r.cod
            nd, nc = go(d, depth), go(c, depth)
            return r if nd is d and nc is c else Arrow(nd, nc)
        if ty is TVar:
            return r
        if ty is All:
            b = r.body
            levels.append(depth)
            nb = go(b, depth + 1)
            levels.pop()
            return r if nb is b else All(r.hint, nb)
        if ty is TBound:
            i = r.index
            if i >= len(levels):
                raise ValueError("project_type expects a locally closed type")
            j = depth - 1 - levels[-1 - i]
            return r if j == i else TBound(j)
        if ty is Conv:
            return go(r.rel, depth)
        if ty is Comp:
            a, b = go(r.left, depth + 1), go(r.right, depth + 1)
            z = TBound(0)
            return All("Z", Arrow(Arrow(a, Arrow(b, z)), z))
        if ty is Promote:
            return _PROMOTION_F
        raise TypeError(f"not a type: {r!r}")

    return go(r, 0)


def project_ctx(ctx: Context) -> FContext:
    return tuple((e.pvar, project_type(e.rel)) for e in ctx)


def rel_of_ftype(t: RelType) -> RelType:
    """The identity, since F types already are relational types. Kept only
    because the benchmark worker (`perfbench/worker.py`) and the tests call
    it."""
    return t


def project_derivation(
    ctx: Context, p: Proof, result: Judgment | None = None, fuel: int = DEFAULT_FUEL
) -> FDerivation:
    """Translate an accepted proof into an explicit System F derivation of
    its erasure at its projected type, one rule at a time over the
    derivation tree."""
    node = to_relpf(ctx, p, fuel)
    if result is not None and not alpha_eq(node.judgment, result):
        raise ValueError("supplied kernel result does not match the proof")
    return _project_node(project_ctx(ctx), node)


def _project_node(delta: FContext, node: RelPfNode) -> FDerivation:
    p = node.proof
    match p:
        case PVar(u):
            return DVar(u)
        case PLam(u, _, rel, _, _):
            a = project_type(rel)
            return DAbs(u, a, _project_node(delta + ((u, a),), node.children[0]))
        case PApp(_, _):
            return DApp(
                _project_node(delta, node.children[0]),
                _project_node(delta, node.children[1]),
            )
        case PTyApp(_, rel):
            return DInst(project_type(rel), _project_node(delta, node.children[0]))
        case PTyLam(x, _):
            return DGen(x, _project_node(delta, node.children[0]))
        case PConv(_, _, _) | PConvI(_) | PConvE(_):
            return _project_node(delta, node.children[0])
        case PRho(_, _, _, _, _):
            # The rewrite's type and erasure both come from the second premise.
            return _project_node(delta, node.children[1])
        case PIota(_, _):
            return _identity_derivation(delta)
        case PPair(_, _, _):
            left, right = node.children
            a = project_type(left.judgment.rel)
            b = project_type(right.judgment.rel)
            pair_d = pair_derivation(delta, a, b)
            return DApp(
                DApp(pair_d, _project_node(delta, left)),
                _project_node(delta, right),
            )
        case PPi(_, _, u, v, _):
            scrut, body = node.children
            comp = scrut.judgment.rel
            a = project_type(comp.left)
            b = project_type(comp.right)
            res = project_type(node.judgment.rel)
            inner_delta = delta + ((u, a), (v, b))
            return DApp(
                DInst(res, _project_node(delta, scrut)),
                DAbs(u, a, DAbs(v, b, _project_node(inner_delta, body))),
            )
    raise TypeError(f"not a proof: {p!r}")


def _identity_derivation(delta: FContext) -> FDerivation:
    """gen X. abs x:X. x, concluding the identity at its universal type."""
    x_ty = fresh("X", _fctx_ftvars(delta))
    x_tm = fresh("x", {n for n, _ in delta})
    return DGen(x_ty, DAbs(x_tm, TVar(x_ty), DVar(x_tm)))


def pair_derivation(delta: FContext, a: RelType, b: RelType) -> FDerivation:
    """The Church pair constructor typed at A -> B -> (A x B)."""
    names = {n for n, _ in delta}
    x = fresh("x", names)
    y = fresh("y", names | {x})
    c = fresh("c", names | {x, y})
    z = fresh("Z", _fctx_ftvars(delta) | free_type_vars((a, b)))
    return DAbs(
        x,
        a,
        DAbs(
            y,
            b,
            DGen(
                z,
                DAbs(
                    c,
                    Arrow(a, Arrow(b, TVar(z))),
                    DApp(DApp(DVar(c), DVar(x)), DVar(y)),
                ),
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def embed_f(delta: FContext, d: FDerivation) -> tuple[Context, Proof]:
    """Lift a validated F derivation of t : T to a relational proof of
    t [T] t_dot under the context that assumes each variable related to its
    dotted copy."""
    for name, _ in delta:
        if is_dotted(name):
            raise FError(DOTTED_COLLISION, f"context variable '{name}' is already dotted")
    _require_undotted_deriv(d)
    validate_f(delta, d)
    ctx = tuple(
        ContextEntry(name, Var(name), ty, Var(dot_name(name)))
        for name, ty in delta
    )
    env = {name: name for name, _ in delta}
    avoid = set(env) | {dot_name(n) for n in env}
    proof = _embed(d, env, avoid)
    return ctx, proof


def _require_undotted_deriv(d: FDerivation) -> None:
    match d:
        case DVar(n):
            if is_dotted(n):
                raise FError(DOTTED_COLLISION, f"variable '{n}' is already dotted")
        case DAbs(binder, _, body):
            if is_dotted(binder):
                raise FError(DOTTED_COLLISION, f"binder '{binder}' is already dotted")
            _require_undotted_deriv(body)
        case DApp(fn, arg):
            _require_undotted_deriv(fn)
            _require_undotted_deriv(arg)
        case DGen(_, body) | DInst(_, body):
            _require_undotted_deriv(body)


def _embed(d: FDerivation, env: dict[str, str], avoid: set[str]) -> Proof:
    """`env` maps each F variable in scope to its proof variable and `avoid`
    holds every name in use; a `DAbs` extends both for its body and takes its
    additions back afterwards, so neither is copied."""
    match d:
        case DVar(name):
            return PVar(env[name])
        case DAbs(binder, ann, body):
            dotted = dot_name(binder)
            added = [n for n in (binder, dotted) if n not in avoid]
            avoid.update(added)
            u = fresh("u", avoid)
            avoid.add(u)
            added.append(u)
            env[binder] = u  # validate_f has rejected a binder already in scope
            proof = PLam(u, binder, ann, dotted, _embed(body, env, avoid))
            del env[binder]
            avoid.difference_update(added)
            return proof
        case DApp(fn, arg):
            return PApp(_embed(fn, env, avoid), _embed(arg, env, avoid))
        case DGen(tvar, body):
            return PTyLam(tvar, _embed(body, env, avoid))
        case DInst(arg, body):
            return PTyApp(_embed(body, env, avoid), arg)
    raise TypeError(f"not an F derivation: {d!r}")


# ---------------------------------------------------------------------------
# Weakening
# ---------------------------------------------------------------------------


def weaken_f(
    d: FDerivation, insert: tuple[str, RelType], at: int, delta: FContext = ()
) -> FDerivation:
    """Re-derive under delta widened with `insert` at position `at`.

    Internal binders that would clash with the inserted name (or generalize a
    type variable the inserted type mentions) are renamed first, then the
    result is validated in the widened context.
    """
    name, ftype = insert
    if _fctx_lookup(delta, name) is not None:
        raise FError(SHADOWING_VIOLATION, f"'{name}' is already declared")
    widened = delta[:at] + (insert,) + delta[at:]
    taken = {n for n, _ in widened} | _collect_binders(d)
    renamed = _rename_clashes(d, {}, {}, {name}, free_type_vars(ftype), taken)
    validate_f(widened, renamed)
    return renamed


def _collect_binders(d: FDerivation) -> set[str]:
    match d:
        case DVar(_):
            return set()
        case DAbs(binder, _, body):
            return {binder} | _collect_binders(body)
        case DApp(fn, arg):
            return _collect_binders(fn) | _collect_binders(arg)
        case DGen(_, body) | DInst(_, body):
            return _collect_binders(body)
    raise TypeError(f"not an F derivation: {d!r}")


def _rename_clashes(
    d: FDerivation,
    term_map: dict[str, str],
    ty_map: dict[str, str],
    bad_names: set[str],
    bad_tvars: set[str],
    taken: set[str],
) -> FDerivation:
    match d:
        case DVar(name):
            return DVar(term_map.get(name, name))
        case DAbs(binder, ann, body):
            new = binder
            if binder in bad_names:
                new = fresh(binder, taken | bad_names)
                taken.add(new)
            inner = dict(term_map)
            inner[binder] = new
            return DAbs(
                new,
                rename_ftvars(ann, ty_map),
                _rename_clashes(body, inner, ty_map, bad_names, bad_tvars, taken),
            )
        case DApp(fn, arg):
            return DApp(
                _rename_clashes(fn, term_map, ty_map, bad_names, bad_tvars, taken),
                _rename_clashes(arg, term_map, ty_map, bad_names, bad_tvars, taken),
            )
        case DGen(tvar, body):
            new = tvar
            inner = dict(ty_map)
            if tvar in bad_tvars:
                new = fresh(tvar, taken | bad_tvars)
                taken.add(new)
            inner[tvar] = new
            return DGen(new, _rename_clashes(body, term_map, inner, bad_names, bad_tvars, taken))
        case DInst(arg, body):
            return DInst(
                rename_ftvars(arg, ty_map),
                _rename_clashes(body, term_map, ty_map, bad_names, bad_tvars, taken),
            )
    raise TypeError(f"not an F derivation: {d!r}")


# ---------------------------------------------------------------------------
# The self-witness composition
# ---------------------------------------------------------------------------


def self_witness(
    ctx: Context, p: Proof, fuel: int = DEFAULT_FUEL
) -> tuple[Context, Proof, Judgment]:
    """From an accepted proof, produce a proof that its erasure is related to
    the dotted copy of itself at the projected type."""
    deriv = project_derivation(ctx, p, fuel=fuel)
    delta = project_ctx(ctx)
    ctx2, q = embed_f(delta, deriv)
    judgment = check(ctx2, q, fuel)
    return ctx2, q, judgment
