"""Modules of the package share only public names: no module imports a
private (underscore) name from another one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superinduce"


def _sibling_imports(path: Path):
    """(line, name) for every name a module imports from the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "superinduce"
        ):
            for alias in node.names:
                yield node.lineno, alias.name


def test_no_module_imports_another_modules_private_name():
    imported = [
        (path.name, line, name)
        for path in sorted(SRC.glob("*.py"))
        for line, name in _sibling_imports(path)
    ]
    assert len(imported) > 50  # the walk reaches the package's own imports
    assert [hit for hit in imported if hit[2].startswith("_")] == []
