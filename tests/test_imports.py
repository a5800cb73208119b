"""Every module of the package, and every test, demo and the mutant runner,
uses each name it imports, and the package uses each private name it
defines."""

import ast
from pathlib import Path

import pytest

import normext

MODULES = sorted(Path(normext.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py")) + [ROOT / "mutants" / "run.py"]


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


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.relative_to(ROOT).as_posix() for p in SCRIPTS])
def test_every_script_uses_its_imports(path):
    assert unused_imports(path) == []


def test_every_private_definition_is_used():
    """Every ``_``-prefixed function, method or class of the package is read
    by name somewhere in the package, besides its own definition; dunders
    are exempt."""
    defined, read = [], set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert [(module, name) for module, name in defined if name not in read] == []
