"""Syntactic classifiers over relational types.

Four analyses: polarity of a type variable, the quantifier-positivity classes
(positive-only / negative-only / both / neither), symmetric types, and simple
transitive types. The latter two recognize the conjugation pattern
{t} . (S . {t}^), a composition sandwiched between a promoted term and its
converse, which is exempt from the no-composition rule.

Promotions force a convertibility question (is the promoted term the
identity?). That is decided with the caller's fuel; if the check comes back
undecided the classifier raises instead of guessing.
"""

from __future__ import annotations

from .reduction import EQUAL, UNDECIDED, conv_check
from .syntax import (
    All,
    Arrow,
    Comp,
    Conv,
    Promote,
    RelType,
    TBound,
    TVar,
    Term,
)
from .systemf import I_TERM

PLUS = "+"
MINUS = "-"

POS_ONLY = "posOnly"
NEG_ONLY = "negOnly"
BOTH = "both"
NEITHER = "neither"


class AnalysisError(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


def flip(p: str) -> str:
    return MINUS if p == PLUS else PLUS


def polarity_holds(x: str, p: str, r: RelType) -> bool:
    """Does x occur only at polarity p in r?

    A bound type variable can never be x (x is a free name), so it falls under
    the any-other-variable clause, which holds at both polarities.
    """
    match r:
        case TVar(n):
            return p == PLUS if n == x else True
        case TBound(_):
            return True
        case Arrow(d, c):
            return polarity_holds(x, flip(p), d) and polarity_holds(x, p, c)
        case All(_, b):
            return polarity_holds(x, p, b)
        case Conv(inner):
            return polarity_holds(x, p, inner)
        case Comp(l, rr):
            return polarity_holds(x, p, l) and polarity_holds(x, p, rr)
        case Promote(_):
            return True
    raise TypeError(f"not a type: {r!r}")


def _identity_promotion(t: Term, fuel: int) -> bool:
    verdict = conv_check(t, I_TERM, fuel)
    if verdict == UNDECIDED:
        raise AnalysisError("promotion convertibility undecided")
    return verdict == EQUAL


def _forall_pair(r: RelType, fuel: int) -> tuple[bool, bool]:
    """(is positive-class, is negative-class). No clause covers composition."""
    match r:
        case TVar(_) | TBound(_):
            return True, True
        case Arrow(d, c):
            dpos, dneg = _forall_pair(d, fuel)
            cpos, cneg = _forall_pair(c, fuel)
            return (dneg and cpos, dpos and cneg)
        case All(_, b):
            bpos, _ = _forall_pair(b, fuel)
            return (bpos, False)
        case Conv(inner):
            return _forall_pair(inner, fuel)
        case Comp(_, _):
            return False, False
        case Promote(t):
            ok = _identity_promotion(t, fuel)
            return (ok, ok)
    raise TypeError(f"not a type: {r!r}")


def forall_class(r: RelType, fuel: int) -> str:
    pos, neg = _forall_pair(r, fuel)
    if pos and neg:
        return BOTH
    if pos:
        return POS_ONLY
    if neg:
        return NEG_ONLY
    return NEITHER


def match_conjugation(r: RelType) -> tuple[Term, RelType] | None:
    """Match {t} . (S . {t}^) in either association; returns (t, S)."""
    match r:
        case Comp(Promote(t1), Comp(s, Conv(Promote(t2)))) if t1 == t2:
            return t1, s
        case Comp(Comp(Promote(t1), s), Conv(Promote(t2))) if t1 == t2:
            return t1, s
    return None


def is_symmetric(r: RelType, fuel: int) -> bool:
    """No composition outside the conjugation pattern; stray promotions
    must be identity up to beta-eta."""
    conj = match_conjugation(r)
    if conj is not None:
        _, s = conj
        return is_symmetric(s, fuel)
    match r:
        case TVar(_) | TBound(_):
            return True
        case Arrow(d, c):
            return is_symmetric(d, fuel) and is_symmetric(c, fuel)
        case All(_, b):
            return is_symmetric(b, fuel)
        case Conv(inner):
            return is_symmetric(inner, fuel)
        case Comp(_, _):
            return False
        case Promote(t):
            return _identity_promotion(t, fuel)
    raise TypeError(f"not a type: {r!r}")


def is_simple_transitive(r: RelType, fuel: int) -> bool:
    """Grammar: T ::= P | P -> T | N -> T | t..T, with P/N the positive- and
    negative-class types."""
    if forall_class(r, fuel) in (POS_ONLY, BOTH):
        return True
    conj = match_conjugation(r)
    if conj is not None:
        _, s = conj
        return is_simple_transitive(s, fuel)
    match r:
        case Arrow(d, c):
            return forall_class(d, fuel) != NEITHER and is_simple_transitive(c, fuel)
    return False
