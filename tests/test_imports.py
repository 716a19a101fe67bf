"""Import hygiene: no module of the package imports another module's private name."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treefree"


def test_no_module_imports_a_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    private = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("treefree")):
                private += [f"{path.name}:{node.lineno} {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
