"""Test-side helpers over terms, types and proof terms.

`map_free_terms` pushes a term substitution through every embedded term and
type while respecting the binders proofs introduce. `rename_binders` produces
a systematic alpha-variant of a proof by suffixing every binder it introduces.
Both exist to probe kernel determinism; the package itself never rewrites
proofs this way.

The small helpers (spines, sizes, single substitutions, closing a term,
free term names, composition and the library's numerals) are conveniences
for writing tests; the checker itself never calls them. `checked_proofs`
checks the corpus anew on each call, so its results are new objects.
"""

from __future__ import annotations

from pathlib import Path

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
)
from reltt.prelude import _stdlib_terms
from reltt.script import prelude_env, run_script
from reltt.surface import parse
from reltt.syntax import (
    All,
    App,
    Arrow,
    Bound,
    Comp,
    Conv,
    Lam,
    Promote,
    RelType,
    TBound,
    Term,
    TVar,
    Var,
    free_vars,
    lam,
    subst_term_multi,
    subst_terms_in_type,
    subst_tvars,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def app(fn: Term, *args: Term) -> Term:
    t = fn
    for a in args:
        t = App(t, a)
    return t


def compose_terms(t: Term, tp: Term) -> Term:
    """t . t' = \\x. t (t' x)"""
    return lam("x", App(t, App(tp, Var("x"))))


def close_term(t: Term, name: str) -> Term:
    """Replace the free occurrences of `name` by the index of a binder just outside `t`."""
    return lam(name, t).body


def subst_term(replacement: Term, var: str, target: Term) -> Term:
    """[replacement/var]target. Capture-avoiding by representation."""
    return subst_term_multi({var: replacement}, target)


def subst_tvar(replacement: RelType, tvar: str, target: RelType) -> RelType:
    """[replacement/tvar]target on type variables."""
    return subst_tvars({tvar: replacement}, target)


def numeral(k: int) -> Term:
    """The k-th numeral as iterated successor applications on zero."""
    if k < 0:
        raise ValueError(f"numeral index must be non-negative, got {k}")
    terms = _stdlib_terms()
    t = terms["zero"]
    for _ in range(k):
        t = App(terms["succ"], t)
    return t


def free_term_vars(e) -> set[str]:
    return free_vars(e)[0]


def locally_closed_term(t: Term, depth: int = 0) -> bool:
    """Whether every index in `t` is bound by `t` or by `depth` binders around it."""
    return t.loose <= depth


def term_size(t: Term) -> int:
    match t:
        case Var(_) | Bound(_):
            return 1
        case Lam(_, b):
            return 1 + term_size(b)
        case App(f, a):
            return 1 + term_size(f) + term_size(a)
    raise TypeError(f"not a term: {t!r}")


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


def _drop(sigma: dict[str, Term], names: tuple[str, ...]) -> dict[str, Term]:
    if not any(n in sigma for n in names):
        return sigma
    return {k: v for k, v in sigma.items() if k not in names}


def map_free_terms(p: Proof, sigma: dict[str, Term]) -> Proof:
    """Apply a free-variable term substitution throughout a proof."""
    t = lambda term: subst_term_multi(sigma, term)
    r = lambda rel: subst_terms_in_type(sigma, rel)
    match p:
        case PVar(_):
            return p
        case PLam(pv, sl, rel, sr, body):
            inner = _drop(sigma, (sl, sr))
            return PLam(pv, sl, r(rel), sr, map_free_terms(body, inner))
        case PApp(fn, arg):
            return PApp(map_free_terms(fn, sigma), map_free_terms(arg, sigma))
        case PTyApp(fn, rel):
            return PTyApp(map_free_terms(fn, sigma), r(rel))
        case PTyLam(tv, body):
            return PTyLam(tv, map_free_terms(body, sigma))
        case PConv(left, body, right):
            return PConv(t(left), map_free_terms(body, sigma), t(right))
        case PConvI(body):
            return PConvI(map_free_terms(body, sigma))
        case PConvE(body):
            return PConvE(map_free_terms(body, sigma))
        case PIota(left, promoted):
            return PIota(t(left), t(promoted))
        case PRho(gv, gl, gr, eq, body):
            guard = _drop(sigma, (gv,))
            return PRho(
                gv,
                subst_term_multi(guard, gl),
                subst_term_multi(guard, gr),
                map_free_terms(eq, sigma),
                map_free_terms(body, sigma),
            )
        case PPair(left, right, mid):
            return PPair(map_free_terms(left, sigma), map_free_terms(right, sigma), t(mid))
        case PPi(scrut, mid, pl, pr, body):
            return PPi(
                map_free_terms(scrut, sigma),
                mid,
                pl,
                pr,
                map_free_terms(body, _drop(sigma, (mid,))),
            )
    raise TypeError(f"not a proof: {p!r}")


def rename_binders(p: Proof, suffix: str) -> Proof:
    """Suffix every binder the proof introduces, renaming occurrences in scope."""
    return _rename(p, suffix, {}, {}, {})


def _apply_types(rel: RelType, terms: dict[str, Term], types: dict[str, RelType]) -> RelType:
    rel = subst_terms_in_type(terms, rel)
    for name, repl in types.items():
        rel = subst_tvar(repl, name, rel)
    return rel


def _rename(
    p: Proof,
    sfx: str,
    pvars: dict[str, str],
    terms: dict[str, Term],
    types: dict[str, RelType],
) -> Proof:
    t = lambda term: subst_term_multi(terms, term)
    r = lambda rel: _apply_types(rel, terms, types)
    match p:
        case PVar(u):
            return PVar(pvars.get(u, u))
        case PLam(pv, sl, rel, sr, body):
            pv2, sl2, sr2 = pv + sfx, sl + sfx, sr + sfx
            inner_p = {**pvars, pv: pv2}
            inner_t = {**terms, sl: Var(sl2), sr: Var(sr2)}
            return PLam(pv2, sl2, r(rel), sr2, _rename(body, sfx, inner_p, inner_t, types))
        case PApp(fn, arg):
            return PApp(_rename(fn, sfx, pvars, terms, types), _rename(arg, sfx, pvars, terms, types))
        case PTyApp(fn, rel):
            return PTyApp(_rename(fn, sfx, pvars, terms, types), r(rel))
        case PTyLam(tv, body):
            tv2 = tv + sfx
            inner = {**types, tv: TVar(tv2)}
            return PTyLam(tv2, _rename(body, sfx, pvars, terms, inner))
        case PConv(left, body, right):
            return PConv(t(left), _rename(body, sfx, pvars, terms, types), t(right))
        case PConvI(body):
            return PConvI(_rename(body, sfx, pvars, terms, types))
        case PConvE(body):
            return PConvE(_rename(body, sfx, pvars, terms, types))
        case PIota(left, promoted):
            return PIota(t(left), t(promoted))
        case PRho(gv, gl, gr, eq, body):
            gv2 = gv + sfx
            guide = {**terms, gv: Var(gv2)}
            return PRho(
                gv2,
                subst_term_multi(guide, gl),
                subst_term_multi(guide, gr),
                _rename(eq, sfx, pvars, terms, types),
                _rename(body, sfx, pvars, terms, types),
            )
        case PPair(left, right, mid):
            return PPair(
                _rename(left, sfx, pvars, terms, types),
                _rename(right, sfx, pvars, terms, types),
                t(mid),
            )
        case PPi(scrut, mid, pl, pr, body):
            mid2, pl2, pr2 = mid + sfx, pl + sfx, pr + sfx
            inner_p = {**pvars, pl: pl2, pr: pr2}
            inner_t = {**terms, mid: Var(mid2)}
            return PPi(
                _rename(scrut, sfx, pvars, terms, types),
                mid2,
                pl2,
                pr2,
                _rename(body, sfx, inner_p, inner_t, types),
            )
    raise TypeError(f"not a proof: {p!r}")


def checked_proofs() -> list:
    """The library's checked proofs, then the corpus's, which each call checks anew."""
    env = prelude_env().copy()
    checked = list(env.proofs.values())
    for path in sorted(CORPUS.glob("*.rtt")):
        result = run_script(parse(path.read_text(encoding="utf-8")), env=env)
        assert result.ok, path
        checked.extend(result.checked)
    return checked
