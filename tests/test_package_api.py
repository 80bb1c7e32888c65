"""The package keeps only what the checker runs.

A top-level function or class of `src/reltt` that no other code of the
package names is either an entry point or code that only tests call; the
latter belongs under `tests/`. Names are read from the syntax tree, so a
docstring or a comment that mentions a function does not count as a use.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reltt"

# Each definition that nothing else in the package names, with the reason it stays.
ENTRY_POINTS = {
    "surface.parse_type": "the parser's entry point for a type on its own",
    "surface.parse_proof": "the parser's entry point for a proof on its own",
    "systemf.self_witness": "perfbench's library workload witnesses each proof with it",
    "systemf.rel_of_ftype": "perfbench's library worker calls it",
    "reduction.step": "perfbench's self-tests pin that its tracer wraps it",
}


def _top_level_definitions_no_other_code_names() -> set[str]:
    defined = set()
    users: dict[str, set[tuple[str, str | None]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text("utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.add((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                users.setdefault(name, set()).add((module, owner))
    return {
        f"{module}.{name}"
        for module, name in defined
        if users.get(name, set()) <= {(module, name)}
    }


def test_every_unnamed_definition_is_an_entry_point():
    assert _top_level_definitions_no_other_code_names() == set(ENTRY_POINTS)
