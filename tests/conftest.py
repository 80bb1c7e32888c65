"""Fixtures shared by several test modules."""

from __future__ import annotations

import sys

import pytest


@pytest.fixture
def default_recursion_limit():
    """The interpreter's stock limit, as a fresh `reltt` process has it."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)
