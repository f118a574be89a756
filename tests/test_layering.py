"""Module layering: the physics layers never import the protocol simulation."""

import ast
from pathlib import Path

import pytest

import mubqct

PACKAGE_DIR = Path(mubqct.__file__).parent


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = f"mubqct.{node.module or ''}".rstrip(".") if node.level else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["security", "detection"])
def test_module_does_not_import_protocol(module):
    imported = _imported_modules(PACKAGE_DIR / f"{module}.py")
    assert "mubqct.protocol" not in imported
