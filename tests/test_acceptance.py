"""Acceptance gate: one test per shipped criterion, in order.

Each test is self-contained and pinned to values that were either computed by
the independent oracle in oracle_lambda.py before the build or worked out by
hand-reduction up front. Corpus-wide criteria load every proof from the
generated library plus the three example files under corpus/.
"""

from __future__ import annotations

import functools
import random
import time
from pathlib import Path

from derived_rules import bool_discrimination
from generators import random_type
from proof_tools import app, numeral, rename_binders, subst_tvar, type_size
from reltt.analysis import MINUS, PLUS, polarity_holds
from reltt.cli import EXIT_CHECK, main
from reltt.kernel import Judgment, check, to_relpf
from reltt.derived import dparam, gen_fmap, sum_, unit
from reltt.prelude import (
    gen_fmap_deriv,
    gen_in_deriv,
    stdlib,
)
from reltt.reduction import DISTINCT, EQUAL, UNDECIDED, conv_check
from reltt.script import prelude_env, run_script
from reltt.surface import parse
from reltt.syntax import (
    App,
    Arrow,
    ContextEntry,
    TVar,
    Var,
    alpha_eq,
    all_,
    free_type_vars,
    lam,
)
from reltt.systemf import (
    embed_f,
    erase_proof,
    project_ctx,
    project_derivation,
    project_type,
    rel_of_ftype,
    rename_ftvars,
    self_witness,
    validate_f,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
R = TVar("R")
ONE_PLUS_X = sum_(unit(), TVar("X"))


@functools.lru_cache(maxsize=1)
def corpus_checked():
    """Every checked proof in the shipped corpus: library plus example files."""
    env = prelude_env().copy()
    entries = list(env.proofs.values())
    for name in ("basics.rtt", "derived.rtt", "datatypes.rtt"):
        source = (CORPUS / name).read_text()
        result = run_script(parse(source), env=env)
        assert result.ok, [d.message for d in result.diagnostics]
        entries.extend(result.checked)
    return entries


def spine(node):
    """The principal derivation chain: each node's first child, to the leaf."""
    rules = [node.rule]
    while node.children:
        node = node.children[0]
        rules.append(node.rule)
    return rules


def count_nodes(node):
    return 1 + sum(count_nodes(c) for c in node.children)


def test_criterion_01_boolean_discrimination():
    started = time.perf_counter()
    ctx, proof = bool_discrimination(R)
    assert len(ctx) == 3
    assert check(ctx, proof) == Judgment(Var("x"), R, Var("y'"))

    # The same derivation through the surface pipeline, echoed with primes.
    source = (
        "proof discr : [u : tt [Bool] ff, v : x [R] x', w : y [R] y'] |- x [R] y'\n"
        "  := x <| u {R} v w |> y'\n"
    )
    result = run_script(parse(source), env=prelude_env().copy())
    assert result.ok
    notes = [d.message for d in result.diagnostics if d.severity == "info"]
    assert notes == ["proof discr: x [R] y'"]

    # Principal chain: conversion over two arrow eliminations over the
    # universal elimination of the boolean assumption. The two argument
    # branches of the arrow eliminations add their assumption leaves, so the
    # full tree carries seven nodes around the five-rule chain.
    tree = to_relpf(ctx, proof)
    assert spine(tree) == [
        "conversion",
        "arrow-elim",
        "arrow-elim",
        "forall-elim",
        "assumption",
    ]
    assert count_nodes(tree) == 7
    assert time.perf_counter() - started < 1.0


def test_criterion_02_conversion_oracle():
    tt = lam("x", lam("y", Var("x")))
    ff = lam("x", lam("y", Var("y")))
    omega = App(lam("w", App(Var("w"), Var("w"))), lam("w", App(Var("w"), Var("w"))))
    identity = lam("x", Var("x"))
    assert conv_check(app(tt, Var("x"), Var("y")), Var("x"), 5) == EQUAL
    assert conv_check(app(ff, Var("x'"), Var("y'")), Var("y'"), 5) == EQUAL
    assert conv_check(tt, ff, 100) == DISTINCT
    assert conv_check(omega, identity, 1000) == UNDECIDED


def test_criterion_03_polarity_suite():
    x = TVar("X")
    assert polarity_holds("X", PLUS, x) is True
    assert polarity_holds("X", PLUS, Arrow(x, x)) is False
    assert polarity_holds("X", PLUS, ONE_PLUS_X) is True

    rng = random.Random(20260822)
    checked = 0
    while checked < 10_000:
        r = random_type(rng, 12)
        if type_size(r) > 12:
            continue
        both = polarity_holds("X", PLUS, r) and polarity_holds("X", MINUS, r)
        assert both == ("X" not in free_type_vars(r))
        checked += 1


def test_criterion_04_fmap_table():
    identity = lam("z", Var("z"))
    constant = lam("a", lam("b", Var("a")))
    assert alpha_eq(gen_fmap("X", TVar("X")), identity)
    assert alpha_eq(gen_fmap("X", TVar("Y")), App(constant, identity))

    table = [
        (TVar("X"), PLUS),
        (TVar("Y"), PLUS),
        (Arrow(TVar("Y"), TVar("X")), PLUS),
        (ONE_PLUS_X, PLUS),
        (all_("Y", Arrow(TVar("X"), TVar("Y"))), MINUS),
    ]
    for r, p in table:
        subject, ftype = validate_f((), gen_fmap_deriv("X", r, p))
        assert alpha_eq(subject, gen_fmap("X", r))
        step = Arrow(TVar("Xp"), TVar("Xm"))
        lhs = rename_ftvars(project_type(r), {"X": "Xp"})
        rhs = rename_ftvars(project_type(r), {"X": "Xm"})
        if p == PLUS:
            assert ftype == Arrow(step, Arrow(lhs, rhs))
        else:
            assert ftype == Arrow(step, Arrow(rhs, lhs))


def test_criterion_05_datatype_pipeline():
    started = time.perf_counter()
    nat_f = dparam("X", ONE_PLUS_X)

    subject, ftype = validate_f((), gen_in_deriv("X", ONE_PLUS_X))
    unrolled = project_type(
        subst_tvar(rel_of_ftype(nat_f), "X", rel_of_ftype(project_type(ONE_PLUS_X)))
    )
    assert ftype == Arrow(unrolled, nat_f)

    lib = stdlib()
    declared = {
        "zero": nat_f,
        "succ": Arrow(nat_f, nat_f),
        "add": Arrow(nat_f, Arrow(nat_f, nat_f)),
    }
    for name, want in declared.items():
        entry = lib[name]
        assert entry.ftype == want
        ctx, proof = embed_f((), entry.derivation)
        j = check(ctx, proof)
        assert alpha_eq(j.left, entry.term)
        assert alpha_eq(j.right, entry.term)
        assert j.rel == rel_of_ftype(want)
    assert time.perf_counter() - started < 10.0


def test_criterion_06_arithmetic_sanity():
    add = stdlib()["add"].term
    assert conv_check(app(add, numeral(2), numeral(2)), numeral(4), 10000) == EQUAL


def test_criterion_07_projection_round_trip():
    entries = corpus_checked()
    assert len(entries) >= 25
    for e in entries:
        deriv = project_derivation(e.ctx, e.proof, e.judgment)
        subject, ftype = validate_f(project_ctx(e.ctx), deriv)
        assert alpha_eq(subject, erase_proof(e.proof)), e.name
        assert ftype == project_type(e.judgment.rel), e.name


def test_criterion_08_self_witness():
    for e in corpus_checked():
        ctx2, witness, j = self_witness(e.ctx, e.proof)
        assert check(ctx2, witness) == j, e.name
        assert alpha_eq(j.left, erase_proof(e.proof)), e.name
        assert j.rel == rel_of_ftype(project_type(e.judgment.rel)), e.name


def test_criterion_09_determinism_and_weakening():
    inserted = ContextEntry("qq_unused", Var("qq0"), TVar("QQ"), Var("qq1"))
    for e in corpus_checked():
        renamed = rename_binders(e.proof, "_rn")
        assert check(e.ctx, renamed) == e.judgment, e.name
        assert check(e.ctx + (inserted,), e.proof) == e.judgment, e.name


def test_criterion_10_negative_suite(capsys):
    scripts = sorted((CORPUS / "negative").glob("*.rtt"))
    assert len(scripts) >= 12
    for path in scripts:
        first = path.read_text().splitlines()[0]
        assert first.startswith("-- expect: ")
        expected = first.removeprefix("-- expect: ").strip()
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_CHECK, path.name
        errors = [line for line in out.splitlines() if "error[" in line]
        assert len(errors) == 1, path.name
        assert f"error[{expected}]" in errors[0], path.name
