"""`reltt.cli.main` shares one argument parser across the calls of a process.

The parser is built on the first call and kept, so a call must not see what
an earlier one parsed: each argument list below gives the same exit code,
stdout, stderr and dump bytes whether it runs first or last, and whichever
arguments ran before it.

The tests take no fixtures and import no pytest, so an interpreter without
pytest can run them as well:

    python tests/test_cli_shared_parser.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reltt import cli  # noqa: E402

DUMPS = ("judgments", "erasure", "systemf")


def _argvs(tmp: str) -> list[tuple[list[str], int]]:
    """The argument lists, each with the exit code it must give."""
    dumps = [f for what in DUMPS for f in (f"--dump-{what}", str(Path(tmp, what)))]
    return [
        (["frobnicate"], cli.EXIT_USAGE),
        (["check", "corpus/basics.rtt", "--fuel", "-3"], cli.EXIT_USAGE),
        (["--help"], cli.EXIT_OK),
        (["check", "corpus/derived.rtt", *dumps], cli.EXIT_OK),
        (["analyze", "corpus/datatypes.rtt"], cli.EXIT_OK),
        (["normalize", "add (succ zero) (succ zero)", "--fuel", "0"], cli.EXIT_OK),
        (["check", "corpus/negative/not-an-arrow.rtt", "--no-prelude"], cli.EXIT_CHECK),
    ]


def _call(argv: list[str], tmp: str) -> tuple:
    """Run `cli.main(argv)`: its exit code, stdout, stderr and the dumps it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    dumps = []
    for what in DUMPS:
        path = Path(tmp, what)
        if path.exists():
            dumps.append(path.read_bytes())
            path.unlink()
    return code, out.getvalue(), err.getvalue(), dumps


def test_a_call_gives_the_same_outputs_whatever_ran_before_it():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            argvs = _argvs(tmp)
            first = [_call(argv, tmp) for argv, _ in argvs]
            last = [_call(argv, tmp) for argv, _ in reversed(argvs)][::-1]
    finally:
        os.chdir(cwd)
    for (argv, code), a, b in zip(argvs, first, last):
        assert a == b, argv
        assert a[0] == code, argv
    _, out, err, _ = first[1]  # the negative fuel
    assert out == "" and "non-negative" in err
    _, out, err, _ = first[2]  # --help
    assert out.startswith("usage: reltt ") and err == ""
    dumps = first[3][3]
    assert len(dumps) == len(DUMPS) and all(dumps)


def test_two_calls_build_the_parser_once():
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argparse.ArgumentParser.__init__ = counting_init
    cli._build_parser.cache_clear()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["normalize", "x", "--no-prelude"]) == cli.EXIT_OK
            once = list(built)
            assert cli.main(["normalize", "y", "--no-prelude"]) == cli.EXIT_OK
    finally:
        argparse.ArgumentParser.__init__ = init
        cli._build_parser.cache_clear()
    assert once.count("reltt") == 1
    assert built == once


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: passed")
