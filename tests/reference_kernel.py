"""The kernel derivation that re-collected free names at every binder.

A test oracle only, kept verbatim: `_derive` calls `free_vars(ctx)` on the
whole context at every `PLam`, `PTyLam` and `PPi`, where `reltt.kernel`
passes the context's name sets down the derivation. `test_kernel` checks that
both give equal judgments, equal derivation trees and equal errors.
"""

from __future__ import annotations

from reference_syntax import lam
from reltt.kernel import (
    ARGUMENT_MISMATCH,
    FRESHNESS_VIOLATION,
    NOT_A_COMPOSITION,
    NOT_A_CONVERSE,
    NOT_A_PROMOTION,
    NOT_A_UNIVERSAL,
    NOT_AN_ARROW,
    PAIR_MID_MISMATCH,
    RHO_PREMISE_MISMATCH,
    UNBOUND_PROOF_VARIABLE,
    KernelError,
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
    RULE_NAMES,
    Proof,
    RelPfNode,
    _conv_side,
    _require_wf,
)
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
    Var,
    alpha_eq,
    close_type,
    ctx_lookup,
    free_vars,
    open_type,
    subst_term_multi,
)


def _derive(ctx: Context, p: Proof, fuel: int) -> RelPfNode:
    match p:
        case PVar(name):
            entry = ctx_lookup(ctx, name)
            if entry is None:
                raise KernelError(UNBOUND_PROOF_VARIABLE, f"'{name}' is not assumed", p.span)
            return _node(p, ctx, Judgment(entry.left, entry.rel, entry.right), ())

        case PLam(pvar, subj_l, rel, subj_r, body):
            if len({pvar, subj_l, subj_r}) != 3:
                raise KernelError(
                    FRESHNESS_VIOLATION,
                    "lambda binders (proof variable and both subjects) must be pairwise distinct",
                    p.span,
                )
            if ctx_lookup(ctx, pvar) is not None:
                raise KernelError(
                    FRESHNESS_VIOLATION, f"proof variable '{pvar}' already assumed", p.span
                )
            entry = ContextEntry(pvar, Var(subj_l), rel, Var(subj_r))
            bnode = _derive(ctx + (entry,), body, fuel)
            bj = bnode.judgment
            ambient_terms, _ = free_vars(ctx)
            ann_terms, _ = free_vars(rel)
            res_terms, _ = free_vars(bj.rel)
            for binder in (subj_l, subj_r):
                if binder in ambient_terms or binder in ann_terms or binder in res_terms:
                    raise KernelError(
                        FRESHNESS_VIOLATION,
                        f"subject binder '{binder}' occurs free in the context or types",
                        p.span,
                    )
            judgment = Judgment(lam(subj_l, bj.left), Arrow(rel, bj.rel), lam(subj_r, bj.right))
            return _node(p, ctx, judgment, (bnode,))

        case PApp(fn, arg):
            fnode = _derive(ctx, fn, fuel)
            anode = _derive(ctx, arg, fuel)
            fj, aj = fnode.judgment, anode.judgment
            if not isinstance(fj.rel, Arrow):
                raise KernelError(NOT_AN_ARROW, "application head does not have an arrow type", p.span)
            if not alpha_eq(aj.rel, fj.rel.dom):
                raise KernelError(
                    ARGUMENT_MISMATCH,
                    "argument type differs from the arrow domain",
                    p.span,
                )
            judgment = Judgment(App(fj.left, aj.left), fj.rel.cod, App(fj.right, aj.right))
            return _node(p, ctx, judgment, (fnode, anode))

        case PTyApp(fn, rel):
            fnode = _derive(ctx, fn, fuel)
            fj = fnode.judgment
            if not isinstance(fj.rel, All):
                raise KernelError(NOT_A_UNIVERSAL, "type application head is not universal", p.span)
            judgment = Judgment(fj.left, open_type(fj.rel.body, rel), fj.right)
            return _node(p, ctx, judgment, (fnode,))

        case PTyLam(tvar, body):
            bnode = _derive(ctx, body, fuel)
            _, ambient_types = free_vars(ctx)
            if tvar in ambient_types:
                raise KernelError(
                    FRESHNESS_VIOLATION,
                    f"type variable '{tvar}' occurs free in the context",
                    p.span,
                )
            bj = bnode.judgment
            judgment = Judgment(bj.left, All(tvar, close_type(bj.rel, tvar)), bj.right)
            return _node(p, ctx, judgment, (bnode,))

        case PConv(left, body, right):
            bnode = _derive(ctx, body, fuel)
            bj = bnode.judgment
            _conv_side(left, bj.left, fuel, "left", p.span)
            _conv_side(right, bj.right, fuel, "right", p.span)
            return _node(p, ctx, Judgment(left, bj.rel, right), (bnode,))

        case PConvI(body):
            bnode = _derive(ctx, body, fuel)
            bj = bnode.judgment
            return _node(p, ctx, Judgment(bj.right, Conv(bj.rel), bj.left), (bnode,))

        case PConvE(body):
            bnode = _derive(ctx, body, fuel)
            bj = bnode.judgment
            if not isinstance(bj.rel, Conv):
                raise KernelError(
                    NOT_A_CONVERSE, "converse elimination needs a converse type", p.span
                )
            return _node(p, ctx, Judgment(bj.right, bj.rel.rel, bj.left), (bnode,))

        case PIota(left, promoted):
            judgment = Judgment(left, Promote(promoted), App(promoted, left))
            return _node(p, ctx, judgment, ())

        case PRho(guide_var, guide_l, guide_r, eq, body):
            enode = _derive(ctx, eq, fuel)
            ej = enode.judgment
            if not isinstance(ej.rel, Promote):
                raise KernelError(
                    NOT_A_PROMOTION, "rewrite equation must have a promotion type", p.span
                )
            applied = App(ej.rel.term, ej.left)
            expect_l = subst_term_multi({guide_var: applied}, guide_l)
            expect_r = subst_term_multi({guide_var: applied}, guide_r)
            bnode = _derive(ctx, body, fuel)
            bj = bnode.judgment
            if not (alpha_eq(bj.left, expect_l) and alpha_eq(bj.right, expect_r)):
                raise KernelError(
                    RHO_PREMISE_MISMATCH,
                    "rewrite premise does not match the guides instantiated at the redex",
                    p.span,
                )
            result = subst_term_multi({guide_var: ej.right}, guide_l)
            result_r = subst_term_multi({guide_var: ej.right}, guide_r)
            return _node(p, ctx, Judgment(result, bj.rel, result_r), (enode, bnode))

        case PPair(left, right, mid):
            lnode = _derive(ctx, left, fuel)
            rnode = _derive(ctx, right, fuel)
            lj, rj = lnode.judgment, rnode.judgment
            if not (alpha_eq(lj.right, rj.left) and alpha_eq(lj.right, mid)):
                raise KernelError(
                    PAIR_MID_MISMATCH,
                    "middle subjects of the composition pair do not agree",
                    p.span,
                )
            judgment = Judgment(lj.left, Comp(lj.rel, rj.rel), rj.right)
            return _node(p, ctx, judgment, (lnode, rnode))

        case PPi(scrutinee, mid_var, pvar_l, pvar_r, body):
            if len({mid_var, pvar_l, pvar_r}) != 3:
                raise KernelError(
                    FRESHNESS_VIOLATION,
                    "composition eliminator binders must be pairwise distinct",
                    p.span,
                )
            snode = _derive(ctx, scrutinee, fuel)
            sj = snode.judgment
            if not isinstance(sj.rel, Comp):
                raise KernelError(
                    NOT_A_COMPOSITION, "scrutinee does not have a composition type", p.span
                )
            for pv in (pvar_l, pvar_r):
                if ctx_lookup(ctx, pv) is not None:
                    raise KernelError(
                        FRESHNESS_VIOLATION, f"proof variable '{pv}' already assumed", p.span
                    )
            inner = ctx + (
                ContextEntry(pvar_l, sj.left, sj.rel.left, Var(mid_var)),
                ContextEntry(pvar_r, Var(mid_var), sj.rel.right, sj.right),
            )
            bnode = _derive(inner, body, fuel)
            bj = bnode.judgment
            ambient_terms, _ = free_vars(ctx)
            escape = ambient_terms.union(
                free_vars(bj.left)[0],
                free_vars(bj.rel)[0],
                free_vars(bj.right)[0],
                free_vars(sj.left)[0],
                free_vars(sj.rel)[0],
                free_vars(sj.right)[0],
            )
            if mid_var in escape:
                raise KernelError(
                    FRESHNESS_VIOLATION,
                    f"middle variable '{mid_var}' escapes the composition eliminator",
                    p.span,
                )
            return _node(p, ctx, bj, (snode, bnode))

    raise TypeError(f"not a proof: {p!r}")


def _node(p: Proof, ctx: Context, judgment: Judgment, children: tuple[RelPfNode, ...]) -> RelPfNode:
    return RelPfNode(RULE_NAMES[type(p)], judgment, children, p)


def check(ctx: Context, p: Proof, fuel: int = DEFAULT_FUEL) -> Judgment:
    """Synthesize the judgment of p under ctx, or raise KernelError."""
    _require_wf(ctx)
    return _derive(ctx, p, fuel).judgment


def to_relpf(ctx: Context, p: Proof, fuel: int = DEFAULT_FUEL) -> RelPfNode:
    """The display derivation tree for an accepted proof."""
    _require_wf(ctx)
    return _derive(ctx, p, fuel)
