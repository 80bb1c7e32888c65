"""The `reltt` command-line tool.

`reltt check FILE...` parses and runs proof scripts against the packaged
library, printing one line per diagnostic and echoing every checked
judgment. `reltt analyze FILE` reports variable polarities, the quantifier
class, and the symmetric/transitive shape analyses for each type definition.
`reltt normalize "TERM"` normalizes a term given on the command line.
`--fuel N` sets the step budget of every conversion; N must be a
non-negative integer, and 0 is allowed.

Exit codes: 0 on success, 1 when a check fails, 2 on parse or configuration
failure (a negative `--fuel`, an input it cannot read, a dump path it cannot
write, or a packaged library proof that fails to check when a command reads
it), 3 on an internal error. An internal
error prints one `reltt: error[internal]: <Type>: <message>` line instead of
a traceback; it is always a bug, never a verdict on the input.

The argument parser is built on the first `main` call and kept for the life of
the process, so importing the module builds none and a program that calls
`main` many times builds it once. Sharing it is safe: `parse_args` makes a
fresh namespace per call and never changes the parser, and a usage error or
`--help` writes to the `sys.stderr` or `sys.stdout` of the moment it happens.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .analysis import AnalysisError
from .reduction import DEFAULT_FUEL, FUEL_EXHAUSTED, normalize
from .script import (
    Diagnostic,
    Env,
    LibraryError,
    _analysis_report,
    _define,
    _elab_term,
    dump,
    prelude_env,
    run_script,
)
from .surface import ParseError, Script, TermDef, TypeDef, parse, parse_term, render_term

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _position(source: str, offset: int) -> tuple[int, int]:
    offset = max(0, min(offset, len(source)))
    line = source.count("\n", 0, offset) + 1
    col = offset - (source.rfind("\n", 0, offset) + 1) + 1
    return line, col


def _print_parse_error(path: str, source: str, e: ParseError) -> None:
    line, col = _position(source, e.span[0])
    print(f"{path}:{line}:{col}: error[parse-error]: {e.message}")


def _print_diagnostics(path: str, source: str, diagnostics: list[Diagnostic]) -> None:
    for d in diagnostics:
        line, col = _position(source, d.span[0])
        head, *rest = d.message.splitlines() or [""]
        if d.severity == "error":
            print(f"{path}:{line}:{col}: error[{d.kind}]: {head}")
        else:
            print(f"{path}:{line}:{col}: {head}")
        for extra in rest:
            print(f"  {extra}")


def _run(args) -> int:
    """Load the base environment once for every command, then run it. A
    library that fails to check is a configuration error, whether it fails
    while loading or when the command reads one of its proofs."""
    try:
        return args.run(args, Env() if args.no_prelude else prelude_env(args.fuel))
    except LibraryError as e:
        print(f"reltt: error[config]: {e}")
        return EXIT_USAGE


def _read_script(path: str) -> tuple[str, Script] | None:
    """The source of `path` and its parse, or None once the failure is printed.

    A file that cannot be read, or is not UTF-8, is a configuration error;
    a source that does not parse is a parse error.
    """
    try:
        source = Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"reltt: error[config]: cannot read {path}: {e}")
        return None
    try:
        return source, parse(source)
    except ParseError as e:
        _print_parse_error(path, source, e)
        return None


def _cmd_check(args, base: Env) -> int:
    usage_failed = False
    check_failed = False
    checked = []
    for path in args.files:
        read = _read_script(path)
        if read is None:
            usage_failed = True
            continue
        source, script = read
        result = run_script(script, args.fuel, env=base, trace=args.trace)
        _print_diagnostics(path, source, result.diagnostics)
        if not result.ok:
            check_failed = True
        checked.extend(result.checked)

    for flag, what in (
        (args.dump_judgments, "judgments"),
        (args.dump_erasure, "erasures"),
        (args.dump_systemf, "systemf"),
    ):
        if flag:
            try:
                Path(flag).write_bytes(dump(checked, what))
            except OSError as e:
                print(f"reltt: error[config]: cannot write {flag}: {e}")
                usage_failed = True

    if usage_failed:
        return EXIT_USAGE
    return EXIT_CHECK if check_failed else EXIT_OK


def _cmd_analyze(args, env: Env) -> int:
    read = _read_script(args.file)
    if read is None:
        return EXIT_USAGE
    source, script = read

    failed = False
    reported = 0
    for stmt in script.statements:
        if not isinstance(stmt, (TermDef, TypeDef)):
            continue
        diag = _define(stmt, env)
        if diag is not None:
            _print_diagnostics(args.file, source, [diag])
            failed = True
        elif isinstance(stmt, TypeDef):
            rel = env.types[stmt.name]
            print(f"{stmt.name}:")
            try:
                for line in _analysis_report(rel, args.fuel):
                    print(f"  {line}")
            except AnalysisError as e:
                print(f"  error[analysis-undecided]: {e}")
                failed = True
            reported += 1
    if reported == 0:
        print(f"{args.file}: no type definitions")
    return EXIT_CHECK if failed else EXIT_OK


def _cmd_normalize(args, env: Env) -> int:
    try:
        term = parse_term(args.term)
    except ParseError as e:
        print(f"reltt: error[parse-error]: {e.message}")
        return EXIT_USAGE
    result = normalize(_elab_term(term, env), args.fuel)
    if result.status == FUEL_EXHAUSTED:
        print(
            f"fuel exhausted after {result.steps_used} steps at "
            f"{render_term(result.term)}"
        )
    else:
        print(f"normal form ({result.steps_used} steps): {render_term(result.term)}")
    return EXIT_OK


def _fuel(text: str) -> int:
    try:
        fuel = int(text)
        if fuel >= 0:
            return fuel
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reltt", description="Check relational typing proof scripts."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check proof script files")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    p_check.add_argument("--fuel", type=_fuel, default=DEFAULT_FUEL)
    p_check.add_argument("--no-prelude", action="store_true")
    p_check.add_argument("--dump-judgments", metavar="PATH")
    p_check.add_argument("--dump-erasure", metavar="PATH")
    p_check.add_argument("--dump-systemf", metavar="PATH")
    p_check.add_argument("--trace", action="store_true")
    p_check.set_defaults(run=_cmd_check)

    p_analyze = sub.add_parser("analyze", help="report type analyses for a file")
    p_analyze.add_argument("file", metavar="FILE")
    p_analyze.add_argument("--fuel", type=_fuel, default=DEFAULT_FUEL)
    p_analyze.add_argument("--no-prelude", action="store_true")
    p_analyze.set_defaults(run=_cmd_analyze)

    p_norm = sub.add_parser("normalize", help="normalize a term")
    p_norm.add_argument("term", metavar="TERM")
    p_norm.add_argument("--fuel", type=_fuel, default=DEFAULT_FUEL)
    p_norm.add_argument("--no-prelude", action="store_true")
    p_norm.set_defaults(run=_cmd_normalize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _run(args)
    except Exception as e:  # e.g. RecursionError on very deep input
        message = " ".join(str(e).splitlines())
        print(f"reltt: error[internal]: {type(e).__name__}: {message}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
