"""Every user-visible output of `reltt`, pinned as one golden text file.

Runs `reltt.cli.main` in-process from the repository root on:

- `check` with the three dumps, and `check --trace`, on each corpus file and
  each negative file;
- `analyze corpus/datatypes.rtt`;
- `normalize` on a few terms (one with `--no-prelude`) at three fuels;
- a divergence at a fuel of a million, through `normalize` and `check`.

Each run contributes its argument list, exit code, stdout and dump bytes.
`tests/test_golden_outputs.py` compares the result with `golden_outputs.txt`.
The script needs no pytest, so other interpreters can run it too:

    python tests/golden_outputs.py           # rewrite golden_outputs.txt
    python tests/golden_outputs.py --check   # compare; exit 1 on a difference

Rewrite the golden file only when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.txt"

sys.path.insert(0, str(ROOT / "src"))

from reltt import cli  # noqa: E402

DUMPS = ("judgments", "erasure", "systemf")
NORMALIZE_TERMS = (
    ["add (succ zero) (succ (succ zero))"],
    ["fst (pair a b)"],
    ["branches f g (inr c)"],
    ["(\\x. x x) (\\y. y y)"],
    ["(\\x. \\y. x y) (\\z. z)", "--no-prelude"],
)
FUELS = ("0", "5", "10000")
# A million steps of a divergence that repeats itself: the step-by-step
# engine produced these outputs, and the period skip must give them back.
LONG_RUNS = (
    ["normalize", "--fuel", "1000000", "(\\x. x x) (\\y. y y)"],
    ["check", "--fuel", "1000000", "corpus/negative/conversion-undecided.rtt"],
)


def _script_files() -> list[str]:
    corpus = sorted((ROOT / "corpus").glob("*.rtt"))
    negative = sorted((ROOT / "corpus" / "negative").glob("*.rtt"))
    return [p.relative_to(ROOT).as_posix() for p in corpus + negative]


def _run(argv: list[str], dumps: dict[str, Path]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    parts = [f"=== reltt {' '.join(argv)}", f"exit {rc}", "--- stdout", buf.getvalue()]
    for what, path in dumps.items():
        parts += [f"--- dump {what}", path.read_bytes().decode("utf-8")]
    return "\n".join(parts)


def outputs() -> str:
    """The golden text for the current tree."""
    runs = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for n, path in enumerate(_script_files()):
                dumps = {what: Path(tmp, f"{n}.{what}.jsonl") for what in DUMPS}
                flags = [f for what, p in dumps.items() for f in (f"--dump-{what}", str(p))]
                runs.append(_run(["check", path, *flags], dumps).replace(tmp, "TMP"))
                runs.append(_run(["check", path, "--trace"], {}))
        runs.append(_run(["analyze", "corpus/datatypes.rtt"], {}))
        for term in NORMALIZE_TERMS:
            for fuel in FUELS:
                runs.append(_run(["normalize", *term, "--fuel", fuel], {}))
        for argv in LONG_RUNS:
            runs.append(_run(argv, {}))
    finally:
        os.chdir(cwd)
    return "\n".join(runs)


def main(argv: list[str]) -> int:
    text = outputs()
    if argv == ["--check"]:
        same = GOLDEN.read_bytes() == text.encode("utf-8")
        print("golden outputs match" if same else "golden outputs differ")
        return 0 if same else 1
    GOLDEN.write_bytes(text.encode("utf-8"))
    print(f"wrote {GOLDEN.relative_to(ROOT)} ({len(text.encode('utf-8'))} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
