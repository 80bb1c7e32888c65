"""The library generator: datatype derivation generators and the checked
standard library.

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
"""

from __future__ import annotations

from functools import lru_cache

from .analysis import PLUS, flip, polarity_holds
from .derived import (
    K_TERM,
    PreludeError,
    bool_,
    dparam,
    gen_fold,
    gen_in,
    nat,
    prod,
    require_f_shaped,
    sum_,
    unit,
)
from .kernel import Proof, check
from .records import dataclass
from .syntax import (
    All,
    App,
    Arrow,
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
    subst_tvars,
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
    d_sub = subst_tvars({x: d}, r)

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
    in_f = Arrow(subst_tvars({"X": NAT_F}, project_type(_ONE_PLUS_X)), NAT_F)
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
