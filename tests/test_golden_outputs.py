"""The CLI's exit codes, stdout and dump bytes equal the committed golden file."""

from __future__ import annotations

import difflib

from golden_outputs import GOLDEN, outputs


def test_every_output_matches_the_golden_file():
    expected = GOLDEN.read_bytes().decode("utf-8")
    actual = outputs()
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(), actual.splitlines(), "golden", "actual", lineterm="", n=2
        )
        raise AssertionError("\n".join(list(diff)[:80]))
