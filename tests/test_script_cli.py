"""Tests for script processing, dumps, the generated library, and the CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reltt import cli, script
from reltt.cli import EXIT_CHECK, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from reltt.kernel import check_declared as kernel_check_declared
from reltt.reduction import DEFAULT_FUEL
from reltt.script import (
    dump,
    export_prelude,
    prelude_env,
    prelude_source,
    run_script,
)
from reltt.surface import parse, render_judgment
from reltt.syntax import Arrow, Promote, TVar, Var, lam

IDENTITY_PROOF = "proof {name} : [u : a [R] b] |- a [R] b := u"
ROOT = Path(__file__).resolve().parent.parent


def run(source, **kw):
    return run_script(parse(source, allow_dotted=kw.pop("allow_dotted", False)), **kw)


def test_definitions_accumulate_in_the_environment():
    res = run("def two := f (f x)\ntype T := R -> R\n" + IDENTITY_PROOF.format(name="p"))
    assert res.ok
    assert set(res.env.terms) == {"two"}
    assert set(res.env.types) == {"T"}
    assert set(res.env.proofs) == {"p"}
    assert [c.name for c in res.checked] == ["p"]


def test_redefinition_is_diagnosed_and_skipped():
    res = run("def a := \\x. x\ndef a := \\y. y")
    errors = [d for d in res.diagnostics if d.severity == "error"]
    assert [d.kind for d in errors] == ["redefinition"]
    assert res.env.terms["a"] == lam("x", Var("x"))
    assert not res.ok


def test_a_failing_proof_does_not_halt_later_statements():
    source = "\n".join(
        [
            "proof bad : [] |- a [R] b := u",
            IDENTITY_PROOF.format(name="after"),
        ]
    )
    res = run(source)
    assert not res.ok
    kinds = [d.kind for d in res.diagnostics if d.severity == "error"]
    assert kinds == ["unbound-proof-variable"]
    assert [c.name for c in res.checked] == ["after"]


def test_definitions_do_not_capture_proof_subject_binders():
    # `a` is a defined term, but the proof binds its own subject named `a`;
    # elaboration must leave the bound occurrences alone.
    source = "\n".join(
        [
            "def a := \\x. \\y. x",
            "proof shadow : [] |- \\a. a [R -> R] \\b. b"
            " := fun (u : a [R] b) => a <| u |> b",
        ]
    )
    res = run(source)
    assert res.ok, [d.message for d in res.diagnostics]


def test_fuel_pragma_limits_conversion_within_the_file():
    chain = "(\\x. x) ((\\x. x) ((\\x. x) ((\\x. x) ((\\x. x) ((\\x. x) a)))))"
    proof = f"proof p : [u : {chain} [R] b] |- a [R] b := a <| u |> b"
    starved = run(f"#fuel 5\n{proof}")
    assert not starved.ok
    assert [d.kind for d in starved.diagnostics if d.severity == "error"] == [
        "conversion-undecided"
    ]
    assert run(proof).ok


def test_commands_emit_info_diagnostics():
    source = "\n".join(
        [
            IDENTITY_PROOF.format(name="p"),
            "#normalize (\\x. x) y",
            "#analyze all X. X -> X",
            "#check p",
            "#dump judgments",
        ]
    )
    res = run(source)
    assert res.ok
    notes = [d.message for d in res.diagnostics if d.severity == "info"]
    assert any(m.startswith("normal form: y") for m in notes)
    assert any("quantifier class: posOnly" in m for m in notes)
    assert sum(m.startswith("proof p:") for m in notes) == 2
    assert any('"name": "p"' in m for m in notes)


def test_checking_an_unknown_proof_is_an_error():
    res = run("#check nothing")
    assert [d.kind for d in res.diagnostics] == ["unknown-name"]
    assert not res.ok


def test_dump_is_sorted_json_lines_and_deterministic():
    res = run(IDENTITY_PROOF.format(name="p"))
    payload = dump(res.checked, "judgments")
    assert payload == dump(run(IDENTITY_PROOF.format(name="p")).checked, "judgments")
    lines = payload.decode("utf-8").splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert list(record) == sorted(record)
    assert record == {"left": "a", "name": "p", "right": "b", "type": "R"}


def test_dump_targets_cover_erasures_and_the_f_bridge():
    res = run(IDENTITY_PROOF.format(name="p"))
    erasures = json.loads(dump(res.checked, "erasures").decode())
    assert erasures == {"name": "p", "erasure": "u"}
    bridge = json.loads(dump(res.checked, "systemf").decode())
    assert bridge["name"] == "p" and bridge["subject"] == "u"
    with pytest.raises(ValueError):
        dump(res.checked, "everything")


def test_exported_prelude_is_stable_and_checks_clean():
    text = export_prelude()
    assert text == export_prelude()
    assert text == prelude_source()
    res = run(text, allow_dotted=True)
    assert res.ok


def test_prelude_env_contents():
    env = prelude_env()
    assert len(env.terms) == 17
    assert len(env.proofs) == 17
    assert set(env.types) == {"Unit", "Bool", "Nat"}


def test_prelude_names_resolve_in_scripts():
    source = "proof inst : [u : n [Nat] n'] |- n [((1 + Nat) -> Nat) -> Nat] n' := u {Nat}"
    res = run_script(parse(source), env=prelude_env().copy())
    assert res.ok, [d.message for d in res.diagnostics]
    rendered = [d.message for d in res.diagnostics if d.severity == "info"][0]
    # `Nat` was replaced by its expansion during elaboration.
    assert "Nat" not in rendered and "all X" in rendered


def test_cli_check_success(tmp_path, capsys):
    f = tmp_path / "ok.rtt"
    f.write_text(IDENTITY_PROOF.format(name="p") + "\n")
    assert main(["check", str(f), "--no-prelude"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(f"{f}:1:1: proof p: a [R] b")


def test_cli_check_failure_reports_kind_and_position(tmp_path, capsys):
    f = tmp_path / "bad.rtt"
    f.write_text("proof p : [] |- a [R] b := u\n")
    assert main(["check", str(f), "--no-prelude"]) == EXIT_CHECK
    out = capsys.readouterr().out
    assert f"{f}:1:28: error[unbound-proof-variable]" in out


def test_cli_parse_failure_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "syntax.rtt"
    f.write_text("proof p : [] |- a [R b := u\n")
    assert main(["check", str(f), "--no-prelude"]) == EXIT_USAGE
    out = capsys.readouterr().out
    assert "error[parse-error]" in out


def test_cli_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.rtt"
    assert main(["check", str(missing)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "error[config]" in captured.out + captured.err


@pytest.mark.parametrize("command", ["check", "analyze"])
def test_cli_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    f = tmp_path / "bad.rtt"
    f.write_bytes(b"def a := \xff\xfe x\n")
    assert main([command, str(f), "--no-prelude"]) == EXIT_USAGE
    out = capsys.readouterr().out
    assert out.startswith(f"reltt: error[config]: cannot read {f}: 'utf-8' codec")
    assert out.count("\n") == 1


@pytest.fixture
def uncached_library():
    """The library load cache cleared before and after, so the test loads the
    library afresh and no other test sees what it loaded."""
    script._prelude_env.cache_clear()
    yield
    script._prelude_env.cache_clear()


@pytest.fixture
def failing_library(uncached_library, monkeypatch):
    """A packaged library whose definitions load and whose one proof does not check."""
    monkeypatch.setattr(
        script, "prelude_source", lambda: "def a := x\nproof bad : [] |- a [R] b := u\n"
    )


@pytest.fixture
def library_failing_outside_a_proof(uncached_library, monkeypatch):
    """A packaged library that fails in its definitions, which load eagerly."""
    monkeypatch.setattr(script, "prelude_source", lambda: "def a := x\ndef a := y\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(ROOT / "corpus" / "basics.rtt")],
        ["analyze", str(ROOT / "corpus" / "datatypes.rtt")],
        ["normalize", "add zero zero"],
    ],
    ids=["check", "analyze", "normalize"],
)
def test_cli_library_that_fails_to_load_is_a_config_error(
    argv, library_failing_outside_a_proof, capsys
):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == (
        "reltt: error[config]: the packaged library failed to check: 'a' is already defined\n"
    )


def test_a_library_that_fails_to_check_raises_its_own_error(failing_library, monkeypatch):
    # The failing proof is checked when it is read, not when the library loads.
    env = prelude_env()
    assert "bad" in env.proofs
    with pytest.raises(script.LibraryError, match="^the packaged library failed to check: "):
        env.proofs["bad"]
    script._prelude_env.cache_clear()
    monkeypatch.setattr(script, "prelude_source", lambda: "def a := x\ndef a := y\n")
    with pytest.raises(script.LibraryError, match="^the packaged library failed to check: "):
        prelude_env()


def test_cli_library_proof_that_fails_when_read_is_a_config_error(
    tmp_path, failing_library, capsys
):
    f = tmp_path / "reads.rtt"
    f.write_text("#check bad\n")
    assert main(["check", str(f)]) == EXIT_USAGE
    assert capsys.readouterr().out == (
        "reltt: error[config]: the packaged library failed to check: "
        "unbound-proof-variable: 'u' is not assumed\n"
    )
    # A command that reads no library proof runs as usual.
    for argv in (
        ["check", str(ROOT / "corpus" / "basics.rtt")],
        ["analyze", str(ROOT / "corpus" / "datatypes.rtt")],
        ["normalize", "add zero zero"],
    ):
        assert main(argv) == EXIT_OK, argv
        assert "error[" not in capsys.readouterr().out


def test_cli_recursion_error_while_loading_the_library_is_internal(
    uncached_library, monkeypatch, capsys, default_recursion_limit
):
    # A `RecursionError` is a `RuntimeError` too, but only a library that
    # fails to check is a configuration error. The library's definitions load
    # eagerly, and at the stock limit the parser cannot read this one.
    deep = "(" * 3000 + "x" + ")" * 3000
    monkeypatch.setattr(script, "prelude_source", lambda: f"def d := {deep}\n")
    assert main(["normalize", "x"]) == EXIT_INTERNAL
    out = capsys.readouterr().out
    assert out.startswith("reltt: error[internal]: RecursionError: ")
    assert out.count("\n") == 1


def _eager_env(source: str, fuel: int = DEFAULT_FUEL):
    """The library environment as a load that checks every proof at once gives it."""
    result = run_script(parse(source, allow_dotted=True), fuel)
    if not result.ok:
        problems = [d.message for d in result.diagnostics if d.severity == "error"]
        raise script.LibraryError("the packaged library failed to check: " + "; ".join(problems))
    return result.env


def test_library_proofs_are_checked_only_when_read(uncached_library, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return kernel_check_declared(*args)

    monkeypatch.setattr(script, "check_declared", counting)
    eager = _eager_env(prelude_source())
    calls.clear()
    env = prelude_env()
    assert len(env.proofs) == 17 and list(env.proofs) == list(eager.proofs)
    assert "add_wit" in env.proofs and calls == []
    assert env.terms == eager.terms and env.types == eager.types
    copy = env.copy()
    assert calls == []
    assert copy.proofs["add_wit"] == eager.proofs["add_wit"]
    assert len(calls) == 1
    # Checked once for the process: another copy, and another load at the
    # same fuel, read the kept result.
    assert prelude_env().proofs["add_wit"] is copy.proofs["add_wit"]
    assert len(calls) == 1


@pytest.mark.parametrize("fuel", [0, DEFAULT_FUEL])
def test_library_proofs_read_lazily_equal_an_eager_load(fuel, uncached_library):
    eager = _eager_env(prelude_source(), fuel).proofs
    lazy = prelude_env(fuel).proofs
    assert list(lazy.items()) == list(eager.items())
    for name, proof in eager.items():
        assert repr(lazy[name]) == repr(proof)
        assert lazy[name].fuel == fuel


def test_cli_reads_library_proofs_as_an_eager_load_does(
    tmp_path, uncached_library, monkeypatch, capsys
):
    names = list(_eager_env(prelude_source()).proofs)
    f = tmp_path / "reads.rtt"
    f.write_text(
        "".join(f"#check {name}\n" for name in names)
        + "proof add_wit : [u : a [R] b] |- a [R] b := u\n"
    )
    assert main(["check", str(f)]) == EXIT_CHECK
    lazy = capsys.readouterr().out
    monkeypatch.setattr(cli, "prelude_env", lambda fuel: _eager_env(prelude_source(), fuel))
    assert main(["check", str(f)]) == EXIT_CHECK
    assert capsys.readouterr().out == lazy
    lines = lazy.splitlines()
    assert [line.split(": ")[1] for line in lines[:17]] == [f"proof {n}" for n in names]
    assert lines[17] == f"{f}:18:1: error[redefinition]: 'add_wit' is already defined"


@pytest.mark.parametrize(
    "source",
    [
        "def a := x\nproof p : [u : a [R] b] |- a [R] b := u\ndef b := y\n",
        "proof p : [u : a [R] b] |- a [R] b := u\ntype T := all X. X\n",
        "def a := \\x. x\nproof p : [] |- a [all X. X -> X] a := Fun X => fun (u : x [X] y) => u\n"
        "#fuel 0\nproof q : [u : (\\x. x) y [R] z] |- y [R] z := y <| u |> z\n",
        "def a := x\nproof p : [u : a [R] b] |- a [R] b := u\n-- def b := y\n",
        "def a := x\nproof p : [u : a [R] b] |- a [R] b := u\nproof p : [] |- a [R] b := u\n",
        "def a := x proof p : [u : a [R] b] |- a [R] b := u\nproof p : [u : a [R] b] |- a [R] b := u\n",
        "def a := x\nproof p : [u : a [R] b] |- a [R] b := u\nproof q : [] |- a [R] b := u\n",
        "-- a library\ndef a := x\n\nproof p : [u : a [R] b]\n  |- a [R] b := u\n"
        "proof q : [u : a [R^] b] |- b [R] a\n  := conv_e u\n",
    ],
    ids=[
        "def-after",
        "type-after",
        "fuel-after",
        "comment-after",
        "duplicate",
        "duplicate-of-mid-line",
        "one-fails",
        "multi-line",
    ],
)
def test_a_hand_made_library_loads_as_an_eager_load_does(source, uncached_library, monkeypatch):
    monkeypatch.setattr(script, "prelude_source", lambda: source)
    try:
        eager = _eager_env(source)
    except script.LibraryError as e:
        with pytest.raises(script.LibraryError) as lazy_error:
            env = prelude_env()
            dict(env.proofs.items())
        assert str(lazy_error.value) == str(e)
        return
    env = prelude_env()
    assert (env.terms, env.types) == (eager.terms, eager.types)
    assert dict(env.proofs.items()) == eager.proofs
    assert list(env.proofs) == list(eager.proofs)


def test_cli_dump_flags_write_files(tmp_path, capsys):
    f = tmp_path / "ok.rtt"
    f.write_text(IDENTITY_PROOF.format(name="p") + "\n")
    judgments = tmp_path / "j.jsonl"
    erasures = tmp_path / "e.jsonl"
    code = main(
        [
            "check",
            str(f),
            "--no-prelude",
            "--dump-judgments",
            str(judgments),
            "--dump-erasure",
            str(erasures),
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    assert json.loads(judgments.read_text())["name"] == "p"
    assert json.loads(erasures.read_text())["erasure"] == "u"


@pytest.mark.parametrize("flag", ["--dump-judgments", "--dump-erasure", "--dump-systemf"])
def test_cli_dump_path_that_cannot_be_written_is_a_config_error(tmp_path, capsys, flag):
    f = tmp_path / "ok.rtt"
    f.write_text(IDENTITY_PROOF.format(name="p") + "\n")
    target = tmp_path / "no" / "such" / "dir" / "x.jsonl"
    assert main(["check", str(f), "--no-prelude", flag, str(target)]) == EXIT_USAGE
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{f}:1:1: proof p: a [R] b"
    assert out[1].startswith(f"reltt: error[config]: cannot write {target}: [Errno 2] ")
    assert len(out) == 2


def test_cli_normalize(capsys):
    assert main(["normalize", "(\\x. x) y"]) == EXIT_OK
    assert "normal form (1 steps): y" in capsys.readouterr().out


def test_cli_analyze(tmp_path, capsys):
    f = tmp_path / "an.rtt"
    f.write_text("type T := all X. X -> X\n")
    assert main(["analyze", str(f)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "T:" in out and "quantifier class: posOnly" in out


def test_cli_rejects_unknown_subcommands(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


CHURCH_2 = "(\\f. \\x. f (f x))"
CHURCH_3 = "(\\f. \\x. f (f (f x)))"


def conversion_proof(steps_term):
    return f"proof slow : [u : {steps_term} [R] b] |- a [R] b := a <| u |> b"


def test_cli_systemf_dump_uses_the_fuel_the_proof_was_checked_with(tmp_path, capsys):
    # 60 steps: past the command line's fuel, within the file's pragma.
    slow = f"{CHURCH_2} {CHURCH_2} {CHURCH_2} (\\y. y) a"
    f = tmp_path / "pragma.rtt"
    f.write_text("#fuel 5000\n" + conversion_proof(slow) + "\n")
    out = tmp_path / "f.jsonl"
    args = ["check", str(f), "--no-prelude", "--fuel", "10", "--dump-systemf", str(out)]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    record = json.loads(out.read_text())
    assert "error" not in record, record
    assert record["type"] == "R"


def test_dump_command_uses_the_fuel_pragma_above_the_default():
    # 14929 steps, beyond the default fuel of 10000.
    slow = f"{CHURCH_3} {CHURCH_2} {CHURCH_3} (\\y. y) a"
    res = run("#fuel 20000\n" + conversion_proof(slow) + "\n#dump systemf")
    assert res.ok, [d.message for d in res.diagnostics]
    record = json.loads([d.message for d in res.diagnostics if d.severity == "info"][-1])
    assert "error" not in record, record
    assert record["name"] == "slow" and record["type"] == "R"


def test_type_definitions_are_fixed_when_defined():
    res = run("type A := X -> X\ntype X := R -> R\nproof p : [u : a [A] b] |- a [A] b := u")
    assert res.ok
    assert res.env.types["A"] == Arrow(TVar("X"), TVar("X"))
    assert res.checked[0].judgment.rel == Arrow(TVar("X"), TVar("X"))


def test_a_later_def_does_not_reach_into_an_earlier_type(tmp_path, capsys):
    source = "type A := {f}\ndef f := \\x. x\nproof p : [u : a [A] b] |- a [A] b := u\n"
    res = run(source)
    assert res.ok
    assert res.env.types["A"] == Promote(Var("f"))
    assert res.checked[0].judgment.rel == Promote(Var("f"))
    f = tmp_path / "later.rtt"
    f.write_text(source)
    assert main(["check", "--no-prelude", str(f)]) == EXIT_OK
    assert capsys.readouterr().out == f"{f}:3:1: proof p: a [{{f}}] b\n"


def test_cli_analyze_reports_redefinitions_like_check(tmp_path, capsys):
    f = tmp_path / "twice.rtt"
    f.write_text("type A := all X. X -> X\ntype A := R -> R\n")
    assert main(["analyze", str(f), "--no-prelude"]) == EXIT_CHECK
    out = capsys.readouterr().out
    assert f"{f}:2:1: error[redefinition]: 'A' is already defined" in out
    assert out.count("A:") == 1 and "quantifier class: posOnly" in out
    assert main(["check", str(f), "--no-prelude"]) == EXIT_CHECK
    assert f"{f}:2:1: error[redefinition]: 'A' is already defined" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "analyze", "normalize"])
def test_cli_negative_fuel_is_a_usage_error(tmp_path, capsys, command):
    f = tmp_path / "ok.rtt"
    f.write_text(IDENTITY_PROOF.format(name="p") + "\n")
    target = "(\\x. x) y" if command == "normalize" else str(f)
    assert main([command, target, "--no-prelude", "--fuel", "-3"]) == EXIT_USAGE
    assert "non-negative" in capsys.readouterr().err
    assert main([command, target, "--no-prelude", "--fuel", "0"]) == EXIT_OK
    capsys.readouterr()


def test_cli_internal_error_is_one_line_and_exit_3(tmp_path, capsys, default_recursion_limit):
    deep = "(" * 600 + "x" + ")" * 600
    assert main(["normalize", deep, "--no-prelude"]) == EXIT_INTERNAL
    out = capsys.readouterr().out
    assert out.startswith("reltt: error[internal]: RecursionError: ")
    assert out.count("\n") == 1
    f = tmp_path / "deep.rtt"
    f.write_text(f"def d := {deep}\n")
    assert main(["check", str(f), "--no-prelude"]) == EXIT_INTERNAL
    out = capsys.readouterr().out
    assert out.startswith("reltt: error[internal]: RecursionError: ")
    assert out.count("\n") == 1


def test_cli_normalizes_a_long_application_spine(capsys, default_recursion_limit):
    # The parser reads a spine in a loop and the renderer prints it in one.
    for length in (2000, 3000):
        spine = "f" + " a" * length
        assert main(["normalize", spine, "--no-prelude"]) == EXIT_OK
        assert capsys.readouterr().out == f"normal form (0 steps): {spine}\n"


def test_cli_normalizes_a_long_application_spine_with_the_library(capsys, default_recursion_limit):
    # Elaboration substitutes the library's names along the whole spine
    # (`subst_term_multi`), and `rebuild_term` walks a spine in a loop.
    for length in (2000, 3000):
        spine = "f" + " a" * length
        assert main(["normalize", spine]) == EXIT_OK
        assert capsys.readouterr().out == f"normal form (0 steps): {spine}\n"


def test_cli_turns_any_internal_error_into_one_line_and_exit_3(tmp_path, capsys, monkeypatch):
    # The guard itself, independent of which input can still exhaust the
    # parser's recursion: a multi-line message is joined onto one line.
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded\nwhile checking")

    monkeypatch.setattr(cli, "run_script", crash)
    f = tmp_path / "ok.rtt"
    f.write_text("def i := \\x. x\n")
    assert main(["check", str(f), "--no-prelude"]) == EXIT_INTERNAL
    assert capsys.readouterr().out == (
        "reltt: error[internal]: RecursionError: maximum recursion depth exceeded while checking\n"
    )


def test_cli_fuel_pragma_takes_decimal_digits_only(tmp_path, capsys):
    # `²` is a digit to `str.isdigit` but not to `int`
    f = tmp_path / "superscript.rtt"
    f.write_text("#fuel ²\n", encoding="utf-8")
    assert main(["check", str(f), "--no-prelude"]) == EXIT_USAGE
    assert capsys.readouterr().out == f"{f}:1:7: error[parse-error]: unexpected character '²'\n"


def test_cli_fuel_pragma_reads_non_ascii_decimal_digits(tmp_path, capsys):
    # `٣` is the Arabic-Indic digit three; four redexes stop after three steps
    f = tmp_path / "arabic.rtt"
    f.write_text(
        "#fuel ٣\n#normalize (\\x. x) ((\\x. x) ((\\x. x) ((\\x. x) y)))\n", encoding="utf-8"
    )
    assert main(["check", str(f), "--no-prelude"]) == EXIT_OK
    assert capsys.readouterr().out == f"{f}:2:1: fuel exhausted after 3 steps at (\\x. x) y\n"


def test_echoes_are_rendered_only_when_read(monkeypatch):
    # A checked proof renders its judgment in one place, `CheckedProof.rendered`,
    # once, and the echo and the judgments dump both read that rendering.
    rendered = []
    render = script.CheckedProof.rendered.func

    def counting(record):
        rendered.append(record)
        return render(record)

    monkeypatch.setattr(script.CheckedProof.rendered, "func", counting)
    result = run_script(parse(prelude_source(), allow_dotted=True))
    assert result.ok and len(result.checked) == 17
    assert rendered == []
    echoes = [d for d in result.diagnostics if d.severity == "info"]
    assert [d.message for d in echoes] == [
        f"proof {c.name}: {render_judgment(c.judgment)}" for c in result.checked
    ]
    assert len(rendered) == 17  # one render per echo, of that echo's proof
    assert all(r is c for r, c in zip(rendered, result.checked))
    assert all(d.message.startswith("proof ") for d in echoes)  # a second read
    assert len(rendered) == 17
    assert all((d.kind, d.span[0] < d.span[1]) == ("note", True) for d in echoes)
    # the dump reads the echoes' renderings and renders nothing itself
    for name in ("render_term", "render_type"):
        monkeypatch.setattr(script, name, rendered.append)
    assert len(dump(result.checked, "judgments").splitlines()) == 17
    assert len(rendered) == 17


@pytest.mark.parametrize(
    "source, form",
    [
        ("type T := Dparam(X, X * X)\n", "the parametric datatype"),
        ("type T := Dind(X, X^)\n", "the inductive datatype"),
    ],
)
def test_cli_malformed_datatype_parameter_is_one_parse_error(tmp_path, capsys, source, form):
    # The form's span runs from its keyword to its closing parenthesis.
    f = tmp_path / "malformed.rtt"
    f.write_text(source)
    assert main(["check", str(f), "--no-prelude"]) == EXIT_USAGE
    assert capsys.readouterr().out == (
        f"{f}:1:11: error[parse-error]: {form} needs a System F-shaped parameter "
        "(no converse, composition, or promotion)\n"
    )


@pytest.mark.parametrize(
    "source, diagnostic",
    [
        (
            "type T := f .. Dparam(X, X * X)\n",
            "1:16: error[parse-error]: the parametric datatype needs a System F-shaped "
            "parameter (no converse, composition, or promotion)",
        ),
        (
            "proof e : [u : x [R] y] |- x [R] y := x <| u |>\n",
            "2:1: error[parse-error]: expected a term, found end of input",
        ),
    ],
)
def test_cli_reports_the_parse_error_after_dotdot_or_lconv(tmp_path, capsys, source, diagnostic):
    # Once `..` or `<|` is read, an error in what follows is the diagnostic;
    # the text is not re-read as something else.
    f = tmp_path / "after.rtt"
    f.write_text(source)
    assert main(["check", str(f), "--no-prelude"]) == EXIT_USAGE
    assert capsys.readouterr().out == f"{f}:{diagnostic}\n"


def test_checking_a_script_does_not_import_the_library_generator():
    # A fresh interpreter: the one running these tests has imported it already.
    # Nor does it load `dataclasses` or `inspect`: `reltt.records` makes the
    # record classes.
    program = (
        "import sys\n"
        "from reltt import cli\n"
        "code = cli.main(['check', 'corpus/basics.rtt'])\n"
        "assert code == 0, code\n"
        "assert 'reltt.prelude' not in sys.modules\n"
        "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", program], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
