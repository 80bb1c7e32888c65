"""The trusted core: synthesizes relational typing judgments from proof terms.

Each proof constructor corresponds to exactly one typing rule, read bottom-up,
so checking is a single structural recursion that either returns the unique
judgment a proof synthesizes or raises a `KernelError` with a stable kind.

The same recursion produces the display-level derivation tree (`to_relpf`):
every node records the rule name and the judgment. The bridge module reuses
these nodes to translate accepted proofs into explicit System F derivations,
so the tree also keeps a reference to the originating proof node.

Side conditions are enforced eagerly:
  (*)  a lambda's subject binders may not occur free in the ambient context,
       the annotation, or the synthesized body type;
  (**) a composition eliminator's middle variable may not escape into the
       body judgment or any ambient data.
Both are tested against the context's free term and type names, passed down
the derivation: they are collected from the context once, when the first
binder needs them (a proof without binders never walks its context), and
each binder extends them with the names its new entries bring, so no side
condition re-collects the names of the whole context.
The kernel builds binders only through `syntax.lam` and `syntax.all_`. An
arrow introduction closes both subjects over its binders with `lam`, passing
the table of subterms known to hold no name that each `check` and `to_relpf`
keeps for its derivation, so a name-free part of a subject is walked once,
not once per enclosing lambda (see `syntax`).
Conversion questions are delegated to the reduction module; an undecided
conversion is a hard error, never treated as equality.
"""

from __future__ import annotations

from .records import dataclass, field
from .reduction import DEFAULT_FUEL, DISTINCT, EQUAL, conv_check
from .syntax import (
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
    Term,
    Var,
    all_,
    alpha_eq,
    ctx_lookup,
    free_vars,
    lam,
    open_type,
    subst_term_multi,
)

# ---------------------------------------------------------------------------
# Proof terms
# ---------------------------------------------------------------------------


class Proof:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PVar(Proof):
    name: str
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PLam(Proof):
    pvar: str
    subj_l: str
    rel: RelType
    subj_r: str
    body: Proof
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PApp(Proof):
    fn: Proof
    arg: Proof
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PTyApp(Proof):
    fn: Proof
    rel: RelType
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PTyLam(Proof):
    tvar: str
    body: Proof
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PConv(Proof):
    left: Term
    body: Proof
    right: Term
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PConvI(Proof):
    body: Proof
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PConvE(Proof):
    body: Proof
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PIota(Proof):
    left: Term
    promoted: Term
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PRho(Proof):
    guide_var: str
    guide_l: Term
    guide_r: Term
    eq: Proof
    body: Proof
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PPair(Proof):
    left: Proof
    right: Proof
    mid: Term
    span: object = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class PPi(Proof):
    scrutinee: Proof
    mid_var: str
    pvar_l: str
    pvar_r: str
    body: Proof
    span: object = field(compare=False, default=None)


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

UNBOUND_PROOF_VARIABLE = "unbound-proof-variable"
NOT_AN_ARROW = "not-an-arrow"
NOT_A_UNIVERSAL = "not-a-universal"
NOT_A_PROMOTION = "not-a-promotion"
NOT_A_COMPOSITION = "not-a-composition"
NOT_A_CONVERSE = "not-a-converse"
CONVERSION_FAILED = "conversion-failed"
CONVERSION_UNDECIDED = "conversion-undecided"
FRESHNESS_VIOLATION = "freshness-violation"
RHO_PREMISE_MISMATCH = "rho-premise-mismatch"
PAIR_MID_MISMATCH = "pair-mid-mismatch"
ARGUMENT_MISMATCH = "argument-mismatch"
DECLARATION_MISMATCH = "declaration-mismatch"


class KernelError(Exception):
    def __init__(self, kind: str, message: str, location=None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.location = location


# ---------------------------------------------------------------------------
# Display derivations
# ---------------------------------------------------------------------------

RULE_NAMES = {
    PVar: "assumption",
    PLam: "arrow-intro",
    PApp: "arrow-elim",
    PTyApp: "forall-elim",
    PTyLam: "forall-intro",
    PConv: "conversion",
    PConvI: "converse-intro",
    PConvE: "converse-elim",
    PIota: "promotion-intro",
    PRho: "promotion-elim",
    PPair: "composition-intro",
    PPi: "composition-elim",
}


@dataclass(frozen=True, slots=True)
class RelPfNode:
    """One rule instance in the display proof system."""

    rule: str
    judgment: Judgment
    children: tuple["RelPfNode", ...]
    proof: Proof = field(compare=False)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def _require_wf(ctx: Context) -> None:
    seen: set[str] = set()
    for entry in ctx:
        if entry.pvar in seen:
            raise KernelError(
                FRESHNESS_VIOLATION,
                f"duplicate proof variable '{entry.pvar}' in context",
            )
        seen.add(entry.pvar)


def _node(p: Proof, judgment: Judgment, children: tuple[RelPfNode, ...]) -> RelPfNode:
    return RelPfNode(RULE_NAMES[type(p)], judgment, children, p)


def _conv_side(declared: Term, synthesized: Term, fuel: int, side: str, span) -> None:
    verdict = conv_check(synthesized, declared, fuel)
    if verdict == EQUAL:
        return
    kind = CONVERSION_FAILED if verdict == DISTINCT else CONVERSION_UNDECIDED
    raise KernelError(
        kind,
        f"{side} subject does not convert to the declared term",
        span,
    )


def _scope_names(ctx: Context, names: list) -> list:
    """`names`, with `free_vars(ctx)` collected into it first if it is still empty."""
    if not names:
        names.extend(free_vars(ctx))
    return names


def _derive(ctx: Context, p: Proof, fuel: int, names: list, nameless: dict) -> RelPfNode:
    """Derive `p` under `ctx`.

    `names` is `free_vars(ctx)` as a `[terms, types]` list. The root scope
    starts with an empty list, shared by every node under it, and the first
    binder that needs the names fills it in (`_scope_names`), so a proof
    without binders never walks its context. `nameless` is the root's table
    of subterms that hold no name (see `syntax.lam`), shared by every node.
    """
    match p:
        case PVar(name):
            entry = ctx_lookup(ctx, name)
            if entry is None:
                raise KernelError(UNBOUND_PROOF_VARIABLE, f"'{name}' is not assumed", p.span)
            return _node(p, Judgment(entry.left, entry.rel, entry.right), ())

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
            terms, types = _scope_names(ctx, names)
            ann_terms, ann_types = free_vars(rel)
            inner = [terms | ann_terms | {subj_l, subj_r}, types | ann_types]
            bnode = _derive(ctx + (entry,), body, fuel, inner, nameless)
            bj = bnode.judgment
            res_terms, _ = free_vars(bj.rel)
            for binder in (subj_l, subj_r):
                if binder in terms or binder in ann_terms or binder in res_terms:
                    raise KernelError(
                        FRESHNESS_VIOLATION,
                        f"subject binder '{binder}' occurs free in the context or types",
                        p.span,
                    )
            left = lam(subj_l, bj.left, nameless)
            right = lam(subj_r, bj.right, nameless)
            judgment = Judgment(left, Arrow(rel, bj.rel), right)
            return _node(p, judgment, (bnode,))

        case PApp(fn, arg):
            fnode = _derive(ctx, fn, fuel, names, nameless)
            anode = _derive(ctx, arg, fuel, names, nameless)
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
            return _node(p, judgment, (fnode, anode))

        case PTyApp(fn, rel):
            fnode = _derive(ctx, fn, fuel, names, nameless)
            fj = fnode.judgment
            if not isinstance(fj.rel, All):
                raise KernelError(NOT_A_UNIVERSAL, "type application head is not universal", p.span)
            judgment = Judgment(fj.left, open_type(fj.rel.body, rel), fj.right)
            return _node(p, judgment, (fnode,))

        case PTyLam(tvar, body):
            bnode = _derive(ctx, body, fuel, names, nameless)
            if tvar in _scope_names(ctx, names)[1]:
                raise KernelError(
                    FRESHNESS_VIOLATION,
                    f"type variable '{tvar}' occurs free in the context",
                    p.span,
                )
            bj = bnode.judgment
            judgment = Judgment(bj.left, all_(tvar, bj.rel), bj.right)
            return _node(p, judgment, (bnode,))

        case PConv(left, body, right):
            bnode = _derive(ctx, body, fuel, names, nameless)
            bj = bnode.judgment
            _conv_side(left, bj.left, fuel, "left", p.span)
            _conv_side(right, bj.right, fuel, "right", p.span)
            return _node(p, Judgment(left, bj.rel, right), (bnode,))

        case PConvI(body):
            bnode = _derive(ctx, body, fuel, names, nameless)
            bj = bnode.judgment
            return _node(p, Judgment(bj.right, Conv(bj.rel), bj.left), (bnode,))

        case PConvE(body):
            bnode = _derive(ctx, body, fuel, names, nameless)
            bj = bnode.judgment
            if not isinstance(bj.rel, Conv):
                raise KernelError(
                    NOT_A_CONVERSE, "converse elimination needs a converse type", p.span
                )
            return _node(p, Judgment(bj.right, bj.rel.rel, bj.left), (bnode,))

        case PIota(left, promoted):
            judgment = Judgment(left, Promote(promoted), App(promoted, left))
            return _node(p, judgment, ())

        case PRho(guide_var, guide_l, guide_r, eq, body):
            enode = _derive(ctx, eq, fuel, names, nameless)
            ej = enode.judgment
            if not isinstance(ej.rel, Promote):
                raise KernelError(
                    NOT_A_PROMOTION, "rewrite equation must have a promotion type", p.span
                )
            applied = App(ej.rel.term, ej.left)
            expect_l = subst_term_multi({guide_var: applied}, guide_l)
            expect_r = subst_term_multi({guide_var: applied}, guide_r)
            bnode = _derive(ctx, body, fuel, names, nameless)
            bj = bnode.judgment
            if not (alpha_eq(bj.left, expect_l) and alpha_eq(bj.right, expect_r)):
                raise KernelError(
                    RHO_PREMISE_MISMATCH,
                    "rewrite premise does not match the guides instantiated at the redex",
                    p.span,
                )
            result = subst_term_multi({guide_var: ej.right}, guide_l)
            result_r = subst_term_multi({guide_var: ej.right}, guide_r)
            return _node(p, Judgment(result, bj.rel, result_r), (enode, bnode))

        case PPair(left, right, mid):
            lnode = _derive(ctx, left, fuel, names, nameless)
            rnode = _derive(ctx, right, fuel, names, nameless)
            lj, rj = lnode.judgment, rnode.judgment
            if not (alpha_eq(lj.right, rj.left) and alpha_eq(lj.right, mid)):
                raise KernelError(
                    PAIR_MID_MISMATCH,
                    "middle subjects of the composition pair do not agree",
                    p.span,
                )
            judgment = Judgment(lj.left, Comp(lj.rel, rj.rel), rj.right)
            return _node(p, judgment, (lnode, rnode))

        case PPi(scrutinee, mid_var, pvar_l, pvar_r, body):
            if len({mid_var, pvar_l, pvar_r}) != 3:
                raise KernelError(
                    FRESHNESS_VIOLATION,
                    "composition eliminator binders must be pairwise distinct",
                    p.span,
                )
            snode = _derive(ctx, scrutinee, fuel, names, nameless)
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
            new = (
                ContextEntry(pvar_l, sj.left, sj.rel.left, Var(mid_var)),
                ContextEntry(pvar_r, Var(mid_var), sj.rel.right, sj.right),
            )
            terms, types = _scope_names(ctx, names)
            scrut_terms, scrut_types = free_vars(sj)
            inner = [terms | scrut_terms | {mid_var}, types | scrut_types]
            bnode = _derive(ctx + new, body, fuel, inner, nameless)
            bj = bnode.judgment
            if mid_var in terms or mid_var in scrut_terms or mid_var in free_vars(bj)[0]:
                raise KernelError(
                    FRESHNESS_VIOLATION,
                    f"middle variable '{mid_var}' escapes the composition eliminator",
                    p.span,
                )
            return _node(p, bj, (snode, bnode))

    raise TypeError(f"not a proof: {p!r}")


def check(ctx: Context, p: Proof, fuel: int = DEFAULT_FUEL) -> Judgment:
    """Synthesize the judgment of p under ctx, or raise KernelError."""
    _require_wf(ctx)
    return _derive(ctx, p, fuel, [], {}).judgment


def check_declared(ctx: Context, p: Proof, declared: Judgment, fuel: int = DEFAULT_FUEL) -> Judgment:
    """check, then compare against the declared judgment up to alpha.

    No implicit conversion happens here: subjects that are merely beta-eta
    equal to the declared ones are rejected; the proof must say where
    conversion is used.
    """
    j = check(ctx, p, fuel)
    if not (alpha_eq(j.left, declared.left) and alpha_eq(j.rel, declared.rel) and alpha_eq(j.right, declared.right)):
        raise KernelError(
            DECLARATION_MISMATCH,
            "synthesized judgment differs from the declared one",
            getattr(p, "span", None),
        )
    return j


def to_relpf(ctx: Context, p: Proof, fuel: int = DEFAULT_FUEL) -> RelPfNode:
    """The display derivation tree for an accepted proof."""
    _require_wf(ctx)
    return _derive(ctx, p, fuel, [], {})
