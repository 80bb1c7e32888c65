"""The System F bridge passes that opened and closed a binder at every step.

A test oracle only, kept verbatim: `project_type` opens every `all` with a
fresh name and closes it again, `_validate` closes a `lam` per `DAbs` and
re-collects the context's free type names at every `DGen`, `erase_proof`
closes a `lam` per proof binder, `_project_node` projects a `PLam`
annotation twice, and `_embed` copies its environment and avoid set per
`DAbs`. `reltt.systemf` resolves binders through a scope in one walk
instead; `test_systemf` checks that both give equal results (hints
included) and equal errors.

`weaken_f`, at the end, is a test helper rather than an oracle: it widens a
derivation's context and re-validates it with the package's validator.
"""

from __future__ import annotations

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
    RelPfNode,
    to_relpf,
)
from reltt import systemf
from reltt.reduction import DEFAULT_FUEL
from reltt.syntax import (
    All,
    App,
    Arrow,
    Comp,
    Context,
    ContextEntry,
    Conv,
    Judgment,
    Promote,
    RelType,
    TBound,
    TVar,
    Term,
    Var,
    all_,
    alpha_eq,
    close_type,
    free_type_vars,
    free_vars,
    fresh,
    lam,
    open_type,
)
from reltt.systemf import I_TERM as _IDENTITY
from reltt.systemf import PAIR_TERM as _PAIR
from reltt.systemf import (
    DOTTED_COLLISION,
    F_FRESHNESS_VIOLATION,
    RULE_MISMATCH,
    UNBOUND_VARIABLE,
    DAbs,
    DApp,
    DGen,
    DInst,
    DVar,
    FContext,
    FDerivation,
    FError,
    _require_f_type,
    _require_undotted_deriv,
    dot_name,
    is_dotted,
    rename_ftvars,
)

SHADOWING_VIOLATION = "shadowing-violation"


def _fctx_lookup(delta: FContext, name: str) -> RelType | None:
    for n, t in delta:
        if n == name:
            return t
    return None


def _fctx_ftvars(delta: FContext) -> set[str]:
    return free_type_vars([t for _, t in delta])


def validate_f(delta: FContext, d: FDerivation) -> tuple[Term, RelType]:
    """Check an explicit derivation rule by rule; return (subject, type)."""
    names = [n for n, _ in delta]
    if len(set(names)) != len(names):
        raise FError(F_FRESHNESS_VIOLATION, "duplicate variable in context")
    for n, t in delta:
        _require_f_type(t, f"the context type of '{n}'")
    return _validate(delta, d)


def _validate(delta: FContext, d: FDerivation) -> tuple[Term, RelType]:
    match d:
        case DVar(name):
            t = _fctx_lookup(delta, name)
            if t is None:
                raise FError(UNBOUND_VARIABLE, f"'{name}' is not declared")
            return Var(name), t
        case DAbs(binder, ann, body):
            if _fctx_lookup(delta, binder) is not None:
                raise FError(
                    F_FRESHNESS_VIOLATION, f"binder '{binder}' shadows a declared variable"
                )
            _require_f_type(ann, f"the annotation of '{binder}'")
            t, ty = _validate(delta + ((binder, ann),), body)
            return lam(binder, t), Arrow(ann, ty)
        case DApp(fn, arg):
            tf, tyf = _validate(delta, fn)
            if not isinstance(tyf, Arrow):
                raise FError(RULE_MISMATCH, "application head is not an arrow")
            ta, tya = _validate(delta, arg)
            if tya != tyf.dom:
                raise FError(RULE_MISMATCH, "argument type differs from the arrow domain")
            return App(tf, ta), tyf.cod
        case DGen(tvar, body):
            if tvar in _fctx_ftvars(delta):
                raise FError(
                    F_FRESHNESS_VIOLATION,
                    f"generalized variable '{tvar}' occurs free in the context",
                )
            t, ty = _validate(delta, body)
            return t, all_(tvar, ty)
        case DInst(arg, body):
            _require_f_type(arg, "the instantiation argument")
            t, ty = _validate(delta, body)
            if not isinstance(ty, All):
                raise FError(RULE_MISMATCH, "instantiation head is not universal")
            return t, open_type(ty.body, arg)
    raise TypeError(f"not an F derivation: {d!r}")


def erase_proof(p: Proof) -> Term:
    """The underlying lambda term of a proof; only proof variables survive."""
    match p:
        case PVar(u):
            return Var(u)
        case PLam(u, _, _, _, body):
            return lam(u, erase_proof(body))
        case PApp(fn, arg):
            return App(erase_proof(fn), erase_proof(arg))
        case PTyApp(fn, _):
            return erase_proof(fn)
        case PTyLam(_, body):
            return erase_proof(body)
        case PConv(_, body, _):
            return erase_proof(body)
        case PConvI(body) | PConvE(body):
            return erase_proof(body)
        case PIota(_, _):
            return _IDENTITY
        case PRho(_, _, _, _, body):
            return erase_proof(body)
        case PPair(left, right, _):
            return App(App(_PAIR, erase_proof(left)), erase_proof(right))
        case PPi(scrutinee, _, u, v, body):
            return App(erase_proof(scrutinee), lam(u, lam(v, erase_proof(body))))
    raise TypeError(f"not a proof: {p!r}")


def project_type(r: RelType) -> RelType:
    """Relational type down to System F: converses vanish, promotions become
    the identity type, compositions become the Church product."""
    match r:
        case TVar(n):
            return TVar(n)
        case TBound(_):
            raise ValueError("project_type expects a locally closed type")
        case Arrow(d, c):
            return Arrow(project_type(d), project_type(c))
        case All(h, b):
            x = fresh(h or "X", free_vars(r)[1])
            inner = project_type(open_type(b, TVar(x)))
            return All(h, close_type(inner, x))
        case Conv(inner):
            return project_type(inner)
        case Comp(l, rr):
            a = project_type(l)
            b = project_type(rr)
            z = fresh("Z", free_type_vars((a, b)))
            return All(
                "Z",
                close_type(Arrow(Arrow(a, Arrow(b, TVar(z))), TVar(z)), z),
            )
        case Promote(_):
            return all_("X", Arrow(TVar("X"), TVar("X")))
    raise TypeError(f"not a type: {r!r}")


def project_ctx(ctx: Context) -> FContext:
    return tuple((e.pvar, project_type(e.rel)) for e in ctx)


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
            body = _project_node(delta + ((u, project_type(rel)),), node.children[0])
            return DAbs(u, project_type(rel), body)
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
            pair_d = _pair_derivation(delta, a, b)
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


def _pair_derivation(delta: FContext, a: RelType, b: RelType) -> FDerivation:
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


def _embed(d: FDerivation, env: dict[str, str], avoid: set[str]) -> Proof:
    match d:
        case DVar(name):
            return PVar(env[name])
        case DAbs(binder, ann, body):
            u = fresh("u", avoid | {binder, dot_name(binder)})
            inner_env = dict(env)
            inner_env[binder] = u
            inner_avoid = avoid | {u, binder, dot_name(binder)}
            return PLam(
                u,
                binder,
                ann,
                dot_name(binder),
                _embed(body, inner_env, inner_avoid),
            )
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
    result is validated in the widened context by `reltt.systemf`.
    """
    name, ftype = insert
    if _fctx_lookup(delta, name) is not None:
        raise FError(SHADOWING_VIOLATION, f"'{name}' is already declared")
    widened = delta[:at] + (insert,) + delta[at:]
    taken = {n for n, _ in widened} | _collect_binders(d)
    renamed = _rename_clashes(d, {}, {}, {name}, free_type_vars(ftype), taken)
    systemf.validate_f(widened, renamed)
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
