"""Builders of checked proofs for the paper's derived rules.

Each combinator assembles a proof for a recurring composite shape and checks
it in the kernel before returning it: promotion introduction, internalized
typing, subset and implicit-product introduction, conjugation, and the
boolean discrimination example. Subset elimination and de-application have
no builder: each would need to rewrite toward a promotion, while the
promotion-elimination rule only rewrites an applied promotion into its
reduct. The checker never calls these; the tests use them to build proofs.
"""

from __future__ import annotations

from reltt.derived import KI_TERM, K_TERM, PreludeError, bool_, imp_prod, subset
from reltt.kernel import (
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
from reltt.prelude import FF_TERM
from reltt.reduction import DEFAULT_FUEL
from reltt.syntax import (
    App,
    Context,
    ContextEntry,
    Judgment,
    RelType,
    Term,
    Var,
    alpha_eq,
    free_vars,
    fresh,
)

BUILDER_MISMATCH = "builder-mismatch"


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


def proof_builders() -> dict:
    """Checked proof-producing combinators, keyed by name."""
    return {
        "promote_intro": promote_intro,
        "int_typing_l": int_typing_l,
        "subset_intro": subset_intro,
        "impprod_intro": impprod_intro,
        "conj_intro": conj_intro,
        "bool_discrimination": bool_discrimination,
    }
