"""The System F bridge projects and validates each accepted proof once.

`systemf.project_ctx`, `systemf.project_derivation` and `systemf.validate_f`
keep what they built for a context, proof or derivation object in three
tables keyed by identity. These tests pin when an entry is reused (the same
objects only), that failures are never recorded, that the tables stay
bounded, and that a table hit gives the same output as a cold call.
"""

from __future__ import annotations

from collections import Counter

import pytest

from proof_tools import checked_proofs
from reltt import script, systemf
from reltt.kernel import KernelError, PApp, PIota, PLam, PPair, PVar
from reltt.script import run_script
from reltt.surface import parse, render_judgment, render_term, render_type
from reltt.syntax import Arrow, ContextEntry, Judgment, TVar, Var, all_
from reltt.systemf import (
    BRIDGE_TABLE_SIZE,
    DVar,
    FError,
    project_ctx,
    project_derivation,
    self_witness,
    validate_f,
)


def _clear_tables() -> None:
    systemf._contexts.clear()
    systemf._projections.clear()
    systemf._validations.clear()


def _ident(hint: str):
    return all_(hint, Arrow(TVar(hint), TVar(hint)))


def test_a_library_shaped_pass_runs_the_kernel_once_per_proof_in_the_bridge(monkeypatch):
    result = run_script(parse(script.prelude_source(), allow_dotted=True))
    assert result.ok
    calls = Counter()
    to_relpf = systemf.to_relpf

    def counting(ctx, p, fuel):
        calls[id(p)] += 1
        return to_relpf(ctx, p, fuel)

    monkeypatch.setattr(systemf, "to_relpf", counting)
    for c in result.checked:
        deriv = project_derivation(c.ctx, c.proof, c.judgment)
        delta = project_ctx(c.ctx)
        validated = validate_f(delta, deriv)
        self_witness(c.ctx, c.proof)
        assert project_derivation(c.ctx, c.proof, c.judgment) is deriv, c.name
        assert project_derivation(c.ctx, c.proof) is deriv, c.name
        assert validate_f(delta, deriv) is validated, c.name
        assert validate_f(project_ctx(c.ctx), deriv) is validated, c.name
    script.dump(result.checked, "systemf")
    assert len(result.checked) == 17
    assert [calls[id(c.proof)] for c in result.checked] == [1] * 17
    assert sum(calls.values()) == 17


def test_an_equal_context_with_other_hints_is_not_reused():
    # u's type differs only in its binder hint, so the two contexts are equal
    # under ==, and the pairing's derivation prints the hint of its own.
    def ctx(hint):
        return (
            ContextEntry("u", Var("a"), _ident(hint), Var("m")),
            ContextEntry("v", Var("m"), TVar("S"), Var("b")),
        )

    proof = PPair(PVar("u"), PVar("v"), Var("m"))
    ctx_x, ctx_y = ctx("X"), ctx("Y")
    assert ctx_x == ctx_y
    got_x = project_derivation(ctx_x, proof)
    got_y = project_derivation(ctx_y, proof)
    assert got_x is not got_y
    assert "'Y'" in repr(got_y) and "'X'" not in repr(got_y)
    _clear_tables()
    assert repr(project_derivation(ctx_y, proof)) == repr(got_y)

    delta_x, delta_y = (("f", _ident("X")),), (("f", _ident("Y")),)
    assert delta_x == delta_y
    d = DVar("f")
    assert render_type(validate_f(delta_x, d)[1]) == "all X. X -> X"
    assert render_type(validate_f(delta_y, d)[1]) == "all Y. Y -> Y"
    assert validate_f(delta_x, d) is not validate_f(delta_y, d)


def test_an_equal_proof_with_other_hints_is_not_reused():
    def proof(hint):
        return PLam("u", "x", _ident(hint), "y", PVar("u"))

    p_x, p_y = proof("X"), proof("Y")
    assert p_x == p_y
    got_x, got_y = project_derivation((), p_x), project_derivation((), p_y)
    assert "'X'" in repr(got_x) and "'Y'" not in repr(got_x)
    assert "'Y'" in repr(got_y) and "'X'" not in repr(got_y)
    _, ftype = validate_f((), got_y)
    assert render_type(ftype) == "(all Y. Y -> Y) -> (all Y. Y -> Y)"


def test_a_rejected_proof_raises_on_every_call_and_leaves_no_entry():
    bad = PApp(PIota(Var("a"), Var("f")), PVar("nowhere"))
    for _ in range(3):
        with pytest.raises(KernelError):
            project_derivation((), bad)
    assert id(bad) not in systemf._projections

    # A judgment that does not match is refused on every call, cold or warm.
    p = PIota(Var("a"), Var("f"))
    wrong = Judgment(Var("b"), TVar("R"), Var("b"))
    for _ in range(2):
        with pytest.raises(ValueError, match="does not match"):
            project_derivation((), p, wrong)
    assert id(p) not in systemf._projections
    deriv = project_derivation((), p)
    with pytest.raises(ValueError, match="does not match"):
        project_derivation((), p, wrong)
    assert project_derivation((), p) is deriv

    # A projection under another fuel is made again.
    assert project_derivation((), p, fuel=5) is not deriv


def test_a_rejected_derivation_raises_on_every_call_and_leaves_no_entry():
    unbound = DVar("nowhere")
    duplicated = (("f", TVar("A")), ("f", TVar("A")))
    for _ in range(3):
        with pytest.raises(FError):
            validate_f((), unbound)
        with pytest.raises(FError):
            validate_f(duplicated, DVar("f"))
    assert not any(e[0] is unbound or e[1] is duplicated for e in systemf._validations.values())
    # The same derivation, accepted under a context that declares it, is kept
    # for that context only.
    declared = (("nowhere", TVar("A")),)
    assert validate_f(declared, unbound) == (Var("nowhere"), TVar("A"))
    with pytest.raises(FError):
        validate_f((), unbound)


def test_the_tables_stay_within_their_bound():
    proofs = [PIota(Var(f"a{i}"), Var("f")) for i in range(BRIDGE_TABLE_SIZE + 10)]
    ctxs = [(ContextEntry("u", Var(f"a{i}"), TVar("R"), Var("b")),) for i in range(len(proofs))]
    derivs = []
    for p, ctx in zip(proofs, ctxs):
        derivs.append(project_derivation(ctx, p))
        validate_f(project_ctx(ctx), derivs[-1])
        assert len(systemf._contexts) <= BRIDGE_TABLE_SIZE
        assert len(systemf._projections) <= BRIDGE_TABLE_SIZE
        assert len(systemf._validations) <= BRIDGE_TABLE_SIZE
    # The oldest entries went first; the newest are kept.
    assert id(ctxs[0]) not in systemf._contexts
    assert id(proofs[0]) not in systemf._projections
    assert id(derivs[0]) not in systemf._validations
    assert project_ctx(ctxs[-1]) is systemf._contexts[id(ctxs[-1])][1]
    assert project_derivation(ctxs[-1], proofs[-1]) is derivs[-1]
    assert systemf._validations[id(derivs[-1])][0] is derivs[-1]


def test_a_proof_is_validated_once_whatever_its_context_holds(monkeypatch):
    # `pi_repack` and `pi_flip` have a composition or a promotion in their
    # context, which `project_type` builds anew; the projected context is
    # kept, so the self-witness's embedding and the second validation find
    # the first validation.
    checked = checked_proofs()[17:]
    assert len(checked) == 29
    assert {"pi_repack", "pi_flip"} <= {c.name for c in checked}
    _clear_tables()
    calls = Counter()
    validate = systemf._validate

    def counting(delta, d):
        calls[id(d)] += 1
        return validate(delta, d)

    monkeypatch.setattr(systemf, "_validate", counting)
    for c in checked:
        deriv = project_derivation(c.ctx, c.proof, c.judgment, c.fuel)
        validated = validate_f(project_ctx(c.ctx), deriv)
        self_witness(c.ctx, c.proof, c.fuel)
        assert validate_f(project_ctx(c.ctx), deriv) is validated, c.name
    assert sum(calls.values()) == 29


def _bridge(c, cold: bool) -> list[str]:
    """What the bridge prints for one proof: `repr` (hints included) and the
    rendered text of the projection, the validation and the self-witness."""
    if cold:
        _clear_tables()
    deriv = project_derivation(c.ctx, c.proof, c.judgment, c.fuel)
    if cold:
        _clear_tables()
    subject, ftype = validate_f(project_ctx(c.ctx), deriv)
    if cold:
        _clear_tables()
    ctx2, q, witnessed = self_witness(c.ctx, c.proof, c.fuel)
    return [
        repr(deriv),
        repr((subject, ftype)),
        f"{render_term(subject)} : {render_type(ftype)}",
        repr((ctx2, q, witnessed)),
        render_judgment(witnessed),
    ]


def test_a_table_hit_prints_what_a_cold_call_prints():
    checked = checked_proofs()
    assert len(checked) == 17 + 29
    cold = [_bridge(c, cold=True) for c in checked]
    _clear_tables()
    first = [_bridge(c, cold=False) for c in checked]
    again = [_bridge(c, cold=False) for c in checked]
    for c, want, got, hit in zip(checked, cold, first, again):
        assert got == want, c.name
        assert hit == want, c.name
