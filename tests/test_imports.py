"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import normext

MODULES = sorted(Path(normext.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """Names bound by an import in the module and never read in it; a name
    listed in ``__all__`` counts as read, and ``__future__`` imports bind
    nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []
