"""The library generator: datatype derivation generators, the checked
standard library, and proof-building combinators.

This module writes the packaged library file (`script.export_prelude`, run by
`python -m reltt.gen_prelude`); checking a script never imports it. It builds
on `reltt.derived`, which holds the derived forms and the datatype term
generators that the parser needs.

The derivation generators produce the System F derivations of the functorial
map, the fold and the constructor, whose terms `reltt.derived` generates
(`gen_rebuild` composes the last two). Terms exist for every
functor-shaped parameter; derivations additionally need the parameter to occur
at the right polarity. One corner of the map lemma is genuinely underivable in
Curry-style F: a quantifier chain binding directly over the bare parameter
(e.g. forall Y. X), where the map would need type
(X+ -> X-) -> (forall Y. X+) -> (forall Y. X-) and no derivation of the
identity-shaped term exists at that type. The builder reports that corner
honestly instead of inventing a derivation; everywhere else the quantifier
prefix is discharged by instantiating the quantified argument at generic
variables inside the arrow case.

`stdlib()` assembles the combinator library: each entry carries a term, its
F type, an explicit validated derivation, and the relational self-judgment
obtained by embedding that derivation and re-checking it in the kernel.

`proof_builders()` returns combinators that assemble checked proofs for the
recurring composite shapes (promotion introduction, internalized typing,
subset and implicit-product introduction, conjugation, and the boolean
discrimination example). Builders whose target appears to require rewriting
against the promotion-elimination direction are available behind the
`experimental` flag and fail with an explanation.
"""

from __future__ import annotations

from functools import lru_cache

from .analysis import PLUS, flip, polarity_holds
from .derived import (
    KI_TERM,
    K_TERM,
    PreludeError,
    bool_,
    dparam,
    gen_fold,
    gen_in,
    imp_prod,
    nat,
    prod,
    require_f_shaped,
    subset,
    sum_,
    unit,
)
from .kernel import (
    KernelError,
    PApp,
    PConv,
    PConvI,
    PIota,
    PLam,
    PPair,
    PTyApp,
    PVar,
    Proof,
    check,
)
from .records import dataclass
from .reduction import DEFAULT_FUEL
from .syntax import (
    All,
    App,
    Arrow,
    Context,
    ContextEntry,
    Judgment,
    RelType,
    TVar,
    Term,
    Var,
    alpha_eq,
    all_,
    free_vars,
    fresh,
    lam,
    open_type,
    subst_tvar,
)
from .systemf import (
    I_TERM,
    PAIR_TERM,
    DAbs,
    DApp,
    DGen,
    DInst,
    DVar,
    FDerivation,
    _identity_derivation,
    embed_f,
    pair_derivation,
    project_type,
    rename_ftvars,
)

POLARITY_VIOLATION = "polarity-violation"
UNDERIVABLE = "underivable"
NOT_DERIVABLE = "not-derivable"
BUILDER_MISMATCH = "builder-mismatch"


# ---------------------------------------------------------------------------
# Datatype generators
# ---------------------------------------------------------------------------


def gen_rebuild(x: str, r: RelType) -> Term:
    return App(gen_fold(), gen_in(x, r))


def gen_fmap_deriv(
    x: str,
    r: RelType,
    p: str,
    avoid: frozenset[str] = frozenset(),
    avoid_tvars: frozenset[str] = frozenset(),
) -> FDerivation:
    """Derivation of the functorial map at
    (X+ -> X-) -> [X@p / X]R -> [X@flip(p) / X]R.

    The fresh positive/negative stand-ins are named by suffixing the
    parameter with `p` and `m`. Optional avoid sets keep the derivation's
    binders clear of an enclosing scope so it can be spliced into larger
    derivations unchanged.
    """
    require_f_shaped(r, "the functorial map")
    if not polarity_holds(x, p, r):
        raise PreludeError(
            POLARITY_VIOLATION,
            f"'{x}' does not occur only at polarity {p} in the parameter",
        )
    tv_taken = set(avoid_tvars) | free_vars(r)[1] | {x}
    xplus = fresh(x + "p", tv_taken)
    xminus = fresh(x + "m", tv_taken | {xplus})
    return _fmap_build(x, r, p, [], xplus, xminus, set(avoid), tv_taken | {xplus, xminus})


def _forall_wrap(names: list[str], t: RelType) -> RelType:
    for name in reversed(names):
        t = all_(name, t)
    return t


def _fmap_build(
    x: str,
    r: RelType,
    p: str,
    prefix: list[str],
    xplus: str,
    xminus: str,
    taken: set[str],
    ty_taken: set[str],
) -> FDerivation:
    src = xplus if p == PLUS else xminus
    dst = xminus if p == PLUS else xplus
    hom = Arrow(TVar(xplus), TVar(xminus))

    match r:
        case TVar(n) if n == x:
            if prefix:
                raise PreludeError(
                    UNDERIVABLE,
                    "a quantifier chain binds directly over the parameter; the map "
                    "at that instance has no Curry-style derivation",
                )
            z = fresh("z", taken)
            return DAbs(z, hom, DVar(z))
        case TVar(n):
            t = _forall_wrap(prefix, TVar(n))
            a = fresh("a", taken)
            b = fresh("b", taken | {a})
            z = fresh("z", taken | {a, b})
            kept = DAbs(a, Arrow(t, t), DAbs(b, hom, DVar(a)))
            return DApp(kept, DAbs(z, t, DVar(z)))
        case Arrow(dom, cod):
            a1 = rename_ftvars(dom, {x: src})
            a2 = rename_ftvars(cod, {x: src})
            b1 = rename_ftvars(dom, {x: dst})
            b2 = rename_ftvars(cod, {x: dst})
            f = fresh("f", taken)
            a = fresh("a", taken | {f})
            xa = fresh("x", taken | {f, a})
            ya = fresh("y", taken | {f, a, xa})
            inner_taken = taken | {f, a, xa, ya}
            d_dom = _fmap_build(x, dom, flip(p), [], xplus, xminus, inner_taken, ty_taken)
            d_cod = _fmap_build(x, cod, p, [], xplus, xminus, inner_taken, ty_taken)
            arg_ty = _forall_wrap(prefix, Arrow(a1, a2))
            a_inst: FDerivation = DVar(a)
            for y in prefix:
                a_inst = DInst(TVar(y), a_inst)
            through = DAbs(
                ya,
                a1,
                DApp(DApp(d_cod, DVar(f)), DApp(a_inst, DVar(ya))),
            )
            body = DAbs(
                xa,
                b1,
                DApp(through, DApp(DApp(d_dom, DVar(f)), DVar(xa))),
            )
            for y in reversed(prefix):
                body = DGen(y, body)
            return DAbs(f, hom, DAbs(a, arg_ty, body))
        case All(h, b):
            f = fresh("f", taken)
            y = fresh(h or "Y", ty_taken)
            inner = _fmap_build(
                x,
                open_type(b, TVar(y)),
                p,
                prefix + [y],
                xplus,
                xminus,
                taken | {f},
                ty_taken | {y},
            )
            return DAbs(f, hom, DApp(inner, DVar(f)))
    raise TypeError(f"not a type: {r!r}")


def gen_fold_deriv(
    x: str,
    r: RelType,
    avoid: frozenset[str] = frozenset(),
    avoid_tvars: frozenset[str] = frozenset(),
) -> FDerivation:
    """Derivation of fold at forall X. (R -> X) -> D -> X.

    The fold is parametric in the algebra's carrier, so unlike the datatype
    constructor it needs no positivity of the parameter.
    """
    require_f_shaped(r, "the fold")
    d = dparam(x, r)
    nb = fresh(x, set(avoid_tvars))
    fr_nb = rename_ftvars(r, {x: nb})
    a = fresh("a", set(avoid))
    xv = fresh("x", set(avoid) | {a})
    body = DApp(DInst(TVar(nb), DVar(xv)), DVar(a))
    return DGen(nb, DAbs(a, Arrow(fr_nb, TVar(nb)), DAbs(xv, d, body)))


def gen_in_deriv(
    x: str,
    r: RelType,
    avoid: frozenset[str] = frozenset(),
    avoid_tvars: frozenset[str] = frozenset(),
) -> FDerivation:
    """Derivation of the constructor at [D / X]R -> D."""
    require_f_shaped(r, "the datatype constructor")
    if not polarity_holds(x, PLUS, r):
        raise PreludeError(
            POLARITY_VIOLATION,
            f"'{x}' does not occur only positively in the parameter",
        )
    d = dparam(x, r)
    d_sub = subst_tvar(d, x, r)

    taken = set(avoid)
    xv = fresh("x", taken)
    a = fresh("a", taken | {xv})
    inner_taken = taken | {xv, a}
    ty_taken = set(avoid_tvars) | free_vars(r)[1] | {x}

    fold_d = gen_fold_deriv(x, r, frozenset(inner_taken), frozenset(ty_taken))
    fold_at = DApp(DInst(TVar(x), fold_d), DVar(a))

    fmap_d = gen_fmap_deriv(x, r, PLUS, frozenset(inner_taken), frozenset(ty_taken))
    xplus = fresh(x + "p", ty_taken)
    xminus = fresh(x + "m", ty_taken | {xplus})
    fmap_at = DInst(
        TVar(x), DGen(xminus, DInst(d, DGen(xplus, fmap_d)))
    )

    body = DApp(DVar(a), DApp(DApp(fmap_at, fold_at), DVar(xv)))
    return DAbs(xv, d_sub, DGen(x, DAbs(a, Arrow(r, TVar(x)), body)))


# ---------------------------------------------------------------------------
# The standard library
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StdlibEntry:
    name: str
    term: Term
    ftype: RelType
    derivation: FDerivation
    proof: Proof
    judgment: Judgment


def _entry(name: str, term: Term, ftype: RelType, deriv: FDerivation) -> StdlibEntry:
    # `embed_f` validates the derivation, and the kernel's judgment relates
    # its subject to the dotted copy at its type.
    ctx, proof = embed_f((), deriv)
    judgment = check(ctx, proof)
    if not (alpha_eq(judgment.left, term) and alpha_eq(judgment.rel, ftype)):
        raise RuntimeError(f"stdlib entry '{name}' does not match its derivation")
    return StdlibEntry(name, term, ftype, deriv, proof, judgment)


UNIT_F = unit()
BOOL_F = bool_()
NAT_R = nat()
NAT_F = project_type(NAT_R)
SUM_ONE_NAT_F = sum_(UNIT_F, NAT_F)

# The boolean ff; tt is `K_TERM`.
FF_TERM = lam("x", lam("y", Var("y")))

# The open functor 1 + X, shared by the numeric entries.
_ONE_PLUS_X = sum_(unit(), TVar("X"))

# Internal binders of generated derivations stay clear of the handful of
# names the stdlib compositions bind around them.
_STDLIB_AVOID = frozenset({"n", "m", "c", "s", "p"})


def _bool_deriv(first: bool) -> FDerivation:
    """tt (`first`) or ff: the selector of the first or the second of two values."""
    x = TVar("X")
    return DGen("X", DAbs("x", x, DAbs("y", x, DVar("x" if first else "y"))))


def _k_deriv() -> FDerivation:
    return DGen(
        "A", DGen("B", DAbs("x", TVar("A"), DAbs("y", TVar("B"), DVar("x"))))
    )


def _pair_deriv() -> FDerivation:
    return DGen("A", DGen("B", pair_derivation((), TVar("A"), TVar("B"))))


def _proj_deriv(first: bool) -> FDerivation:
    """fst (`first`) or snd: the pair applied to the selector of its side."""
    a, b = TVar("A"), TVar("B")
    keep = DAbs("x", a, DAbs("y", b, DVar("x" if first else "y")))
    return DGen(
        "A",
        DGen("B", DAbs("p", prod(a, b), DApp(DInst(a if first else b, DVar("p")), keep))),
    )


def _inj_deriv(left: bool, payload: str, n: str, m: str) -> FDerivation:
    """inl (`left`) or inr; `payload` binds the injected value, and `n` and
    `m` bind the two branches."""
    a, b, z = TVar("A"), TVar("B"), TVar("Z")
    pick = DApp(DVar(n if left else m), DVar(payload))
    branches = DAbs(n, Arrow(a, z), DAbs(m, Arrow(b, z), pick))
    return DGen("A", DGen("B", DAbs(payload, a if left else b, DGen("Z", branches))))


def _branches_deriv() -> FDerivation:
    a, b, z = TVar("A"), TVar("B"), TVar("Z")
    inner = DAbs(
        "n",
        Arrow(a, z),
        DAbs(
            "m",
            Arrow(b, z),
            DAbs(
                "c",
                sum_(a, b),
                DApp(DApp(DInst(z, DVar("c")), DVar("n")), DVar("m")),
            ),
        ),
    )
    return DGen("A", DGen("B", DGen("Z", inner)))


@lru_cache(maxsize=1)
def _in_nat_deriv() -> FDerivation:
    # Five library entries splice this derivation; it is immutable, so they share one.
    return gen_in_deriv("X", _ONE_PLUS_X, _STDLIB_AVOID)


def _fold_nat_deriv() -> FDerivation:
    return gen_fold_deriv("X", _ONE_PLUS_X, _STDLIB_AVOID)


def _rebuild_nat_deriv() -> FDerivation:
    return DApp(DInst(NAT_F, _fold_nat_deriv()), _in_nat_deriv())


def _in_nat_of(left: bool, payload: FDerivation) -> FDerivation:
    """The constructor applied to `payload` injected into 1 + Nat; the
    injection's binders stay clear of the stdlib composition scopes."""
    inj = DInst(NAT_F, DInst(UNIT_F, _inj_deriv(left, "w", "j", "k")))
    return DApp(_in_nat_deriv(), DApp(inj, payload))


def _zero_deriv() -> FDerivation:
    return _in_nat_of(True, _identity_derivation(()))


def _succ_deriv() -> FDerivation:
    return DAbs("s", NAT_F, _in_nat_of(False, DVar("s")))


def _add_deriv() -> FDerivation:
    k_at = DInst(UNIT_F, DInst(NAT_F, _k_deriv()))
    base = DApp(k_at, DVar("m"))
    branch = DAbs(
        "c",
        SUM_ONE_NAT_F,
        DApp(DApp(DInst(NAT_F, DVar("c")), base), _succ_deriv()),
    )
    return DAbs(
        "n",
        NAT_F,
        DAbs("m", NAT_F, DApp(DInst(NAT_F, DVar("n")), branch)),
    )


@lru_cache(maxsize=1)
def _stdlib_terms() -> dict[str, Term]:
    inl_t = lam("a", lam("n", lam("m", App(Var("n"), Var("a")))))
    inr_t = lam("b", lam("n", lam("m", App(Var("m"), Var("b")))))
    in_nat = gen_in("X", _ONE_PLUS_X)
    succ = lam("s", App(in_nat, App(inr_t, Var("s"))))
    zero = App(in_nat, App(inl_t, I_TERM))
    add = lam(
        "n",
        lam(
            "m",
            App(
                Var("n"),
                lam("c", App(App(Var("c"), App(K_TERM, Var("m"))), succ)),
            ),
        ),
    )
    return {
        "I": I_TERM,
        "K": K_TERM,
        "unit": I_TERM,
        "tt": K_TERM,
        "ff": FF_TERM,
        "pair": PAIR_TERM,
        "fst": lam("p", App(Var("p"), K_TERM)),
        "snd": lam("p", App(Var("p"), FF_TERM)),
        "inl": inl_t,
        "inr": inr_t,
        "branches": lam("n", lam("m", lam("c", App(App(Var("c"), Var("n")), Var("m"))))),
        "fold_nat": gen_fold(),
        "in_nat": in_nat,
        "rebuild_nat": gen_rebuild("X", _ONE_PLUS_X),
        "zero": zero,
        "succ": succ,
        "add": add,
    }


@lru_cache(maxsize=1)
def stdlib() -> dict[str, StdlibEntry]:
    """The checked combinator library.

    Every entry's derivation is validated, embedded into the relational
    calculus, and re-checked by the kernel; the judgment relates the term to
    its dotted copy at the entry's type.
    """
    terms = _stdlib_terms()
    a, b, z = TVar("A"), TVar("B"), TVar("Z")
    id_f = all_("A", Arrow(a, a))
    k_f = all_("A", all_("B", Arrow(a, Arrow(b, a))))
    pair_f = all_("A", all_("B", Arrow(a, Arrow(b, prod(a, b)))))
    fst_f = all_("A", all_("B", Arrow(prod(a, b), a)))
    snd_f = all_("A", all_("B", Arrow(prod(a, b), b)))
    inl_f = all_("A", all_("B", Arrow(a, sum_(a, b))))
    inr_f = all_("A", all_("B", Arrow(b, sum_(a, b))))
    branches_f = all_(
        "A",
        all_(
            "B",
            all_(
                "Z",
                Arrow(
                    Arrow(a, z), Arrow(Arrow(b, z), Arrow(sum_(a, b), z))
                ),
            ),
        ),
    )
    fold_f = all_(
        "X",
        Arrow(
            Arrow(project_type(_ONE_PLUS_X), TVar("X")),
            Arrow(NAT_F, TVar("X")),
        ),
    )
    in_f = Arrow(subst_tvar(NAT_F, "X", project_type(_ONE_PLUS_X)), NAT_F)
    rebuild_f = Arrow(NAT_F, NAT_F)
    nat_op = [
        ("I", id_f, DGen("A", DAbs("x", a, DVar("x")))),
        ("K", k_f, _k_deriv()),
        ("unit", UNIT_F, _identity_derivation(())),
        ("tt", BOOL_F, _bool_deriv(True)),
        ("ff", BOOL_F, _bool_deriv(False)),
        ("pair", pair_f, _pair_deriv()),
        ("fst", fst_f, _proj_deriv(True)),
        ("snd", snd_f, _proj_deriv(False)),
        ("inl", inl_f, _inj_deriv(True, "a", "n", "m")),
        ("inr", inr_f, _inj_deriv(False, "b", "n", "m")),
        ("branches", branches_f, _branches_deriv()),
        ("fold_nat", fold_f, _fold_nat_deriv()),
        ("in_nat", in_f, _in_nat_deriv()),
        ("rebuild_nat", rebuild_f, _rebuild_nat_deriv()),
        ("zero", NAT_F, _zero_deriv()),
        ("succ", Arrow(NAT_F, NAT_F), _succ_deriv()),
        ("add", Arrow(NAT_F, Arrow(NAT_F, NAT_F)), _add_deriv()),
    ]
    return {
        name: _entry(name, terms[name], ftype, deriv) for name, ftype, deriv in nat_op
    }


def numeral(k: int) -> Term:
    """The k-th numeral as iterated successor applications on zero."""
    if k < 0:
        raise ValueError(f"numeral index must be non-negative, got {k}")
    terms = _stdlib_terms()
    t = terms["zero"]
    for _ in range(k):
        t = App(terms["succ"], t)
    return t


# ---------------------------------------------------------------------------
# Proof builders
# ---------------------------------------------------------------------------


def _judged(ctx: Context, proof: Proof, fuel: int) -> Judgment:
    try:
        return check(ctx, proof, fuel)
    except KernelError as e:
        raise PreludeError(
            BUILDER_MISMATCH, f"constructed proof was rejected: {e}"
        ) from e


def _checked(ctx: Context, proof: Proof, fuel: int) -> Proof:
    _judged(ctx, proof, fuel)
    return proof


def promote_intro(ctx: Context, t: Term, t1: Term, q: Proof, fuel: int = DEFAULT_FUEL) -> Proof:
    """From q : (t t1) [R] t2 conclude t1 [{t} . R] t2."""
    proof = PPair(PIota(t1, t), q, App(t, t1))
    return _checked(ctx, proof, fuel)


def int_typing_l(ctx: Context, t: Term, t1: Term, q: Proof, fuel: int = DEFAULT_FUEL) -> Proof:
    """From q : t [R] t2 conclude t1 [[t]R] t2 for any t1."""
    kt = App(K_TERM, t)
    left = PConv(t1, PIota(t1, kt), t)
    proof = PPair(left, q, t)
    return _checked(ctx, proof, fuel)


def _fresh_subject_names(ctx: Context, extra: set[str]) -> tuple[str, str, str]:
    taken = free_vars(ctx)[0] | {e.pvar for e in ctx} | extra
    xl = fresh("x", taken)
    xr = fresh("y", taken | {xl})
    u = fresh("u", taken | {xl, xr})
    return xl, xr, u


def _conj_proof(t: Term, a: Term, q: Proof, tp: Term, b: Term) -> Proof:
    """a [t.R.tp] b from q : (t a) [R] (tp b): the promotion of `t` at `a`,
    then `q`, then the converse promotion of `tp` at `b`."""
    return PPair(PIota(a, t), PPair(q, PConvI(PIota(b, tp)), App(tp, b)), App(t, a))


def _promoted_pair_intro(
    ctx: Context,
    k: Term,
    t1: Term,
    t2: Term,
    dom: RelType,
    cod: RelType,
    transform,
    fuel: int,
    want: RelType,
) -> Proof:
    # The transformer's lambda, converted to the subjects `k t1` and `k t2`,
    # conjugated by `k`. One check gives the judgment, whose type must be the
    # derived form `want`.
    extra = free_vars(t1)[0] | free_vars(t2)[0] | free_vars(dom)[0] | free_vars(cod)[0]
    xl, xr, u = _fresh_subject_names(ctx, extra)
    lam_proof = PLam(u, xl, dom, xr, transform(u))
    proof = _conj_proof(k, t1, PConv(App(k, t1), lam_proof, App(k, t2)), k, t2)
    if not alpha_eq(_judged(ctx, proof, fuel).rel, want):
        raise PreludeError(BUILDER_MISMATCH, "transformer changed the target type")
    return proof


def subset_intro(
    ctx: Context,
    t1: Term,
    t2: Term,
    dom: RelType,
    cod: RelType,
    transform,
    fuel: int = DEFAULT_FUEL,
) -> Proof:
    """Conclude t1 [dom subset-of cod] t2.

    `transform(pvar)` receives the name of the assumption x [dom] y and must
    return a proof whose subjects are beta-eta equal to x and y at cod.
    """
    return _promoted_pair_intro(ctx, KI_TERM, t1, t2, dom, cod, transform, fuel, subset(dom, cod))


def impprod_intro(
    ctx: Context,
    t1: Term,
    t2: Term,
    dom: RelType,
    cod: RelType,
    transform,
    fuel: int = DEFAULT_FUEL,
) -> Proof:
    """Conclude t1 [dom => cod] t2; the transformer's subjects must be
    beta-eta equal to t1 and t2 themselves."""
    return _promoted_pair_intro(ctx, K_TERM, t1, t2, dom, cod, transform, fuel, imp_prod(dom, cod))


def conj_intro(ctx: Context, t: Term, tp: Term, q: Proof, fuel: int = DEFAULT_FUEL) -> Proof:
    """From q : (t a) [R] (tp b), literally applied, conclude a [t.R.tp] b."""
    j = check(ctx, q, fuel)
    if not (isinstance(j.left, App) and alpha_eq(j.left.fn, t)):
        raise PreludeError(
            BUILDER_MISMATCH, "left subject is not an application of the conjugating term"
        )
    if not (isinstance(j.right, App) and alpha_eq(j.right.fn, tp)):
        raise PreludeError(
            BUILDER_MISMATCH, "right subject is not an application of the conjugating term"
        )
    return _checked(ctx, _conj_proof(t, j.left.arg, q, tp, j.right.arg), fuel)


def bool_discrimination(r: RelType, fuel: int = DEFAULT_FUEL) -> tuple[Context, Proof]:
    """The boolean-discrimination derivation, generic in the result type:
    from assumptions that tt and ff are related booleans and two pairs of
    related subjects, conclude that the first left is related to the second
    right."""
    ctx = (
        ContextEntry("u", K_TERM, bool_(), FF_TERM),
        ContextEntry("v", Var("x"), r, Var("x'")),
        ContextEntry("w", Var("y"), r, Var("y'")),
    )
    proof = PConv(
        Var("x"),
        PApp(PApp(PTyApp(PVar("u"), r), PVar("v")), PVar("w")),
        Var("y'"),
    )
    return ctx, _checked(ctx, proof, fuel)


def _not_derivable(name: str, why: str):
    def attempt(*_args, **_kwargs):
        raise PreludeError(
            NOT_DERIVABLE,
            f"{name}: {why} The promotion-elimination rule rewrites an applied "
            "promotion into its reduct, never the reverse, so the required "
            "reassembly step has no derivation in the current rule set.",
        )

    return attempt


def proof_builders(experimental: bool = False) -> dict:
    """Checked proof-producing combinators, keyed by name."""
    builders = {
        "promote_intro": promote_intro,
        "int_typing_l": int_typing_l,
        "subset_intro": subset_intro,
        "impprod_intro": impprod_intro,
        "conj_intro": conj_intro,
        "bool_discrimination": bool_discrimination,
    }
    if experimental:
        builders["subset_elim"] = _not_derivable(
            "subset_elim",
            "eliminating a subset type requires turning the opaque middle "
            "subject produced by composition elimination back into an "
            "application of the related function.",
        )
        builders["deapplication_elim"] = _not_derivable(
            "deapplication_elim",
            "recovering the argument relation from a promoted application "
            "requires rewriting toward the promotion, not from it.",
        )
    return builders
