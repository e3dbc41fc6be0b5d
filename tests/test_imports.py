import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "rtcproof")
MODULES = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py") and n != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; `__future__` imports aside."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["os", "c"]


def names(source: str) -> set[str]:
    """Every name a module imports, reads or reads an attribute by."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_error_is_used_in_the_package():
    # an exception that only tests raise or catch belongs under tests/
    sources = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    errors = [n.name for n in ast.parse(sources.pop("errors.py")).body
              if isinstance(n, ast.ClassDef)]
    used = set().union(*map(names, sources.values()))
    assert [e for e in errors if e not in used] == []
