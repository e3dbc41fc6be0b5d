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
