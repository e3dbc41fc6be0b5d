import ast
import os
from collections import Counter
from collections.abc import Iterator

import pytest

import rtcproof

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


def reads(tree: ast.AST) -> Counter:
    """How often each name is read: as a name, an attribute, an imported
    name or a string constant (a key that `getattr` may look up)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def test_every_error_is_used_in_the_package():
    # an exception that only tests raise or catch belongs under tests/
    sources = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    errors = [n.name for n in ast.parse(sources.pop("errors.py")).body
              if isinstance(n, ast.ClassDef)]
    used = set().union(*(reads(ast.parse(s)) for s in sources.values()))
    assert [e for e in errors if e not in used] == []


def definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Top-level functions and classes, and the non-dunder methods of those
    classes, as (qualified name, node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for meth in node.body:
                if isinstance(meth, defs) and not meth.name.startswith("__"):
                    yield f"{node.name}.{meth.name}", meth


def unreached(sources: dict[str, str], exempt: frozenset[str] = frozenset()) -> list[str]:
    """module:definition for every definition that no code in `sources`
    reads outside the definition's own body, unless its name is exempt."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    total = sum((reads(t) for t in trees.values()), Counter())
    return [f"{m}:{qual}" for m, tree in trees.items()
            for qual, node in definitions(tree)
            if node.name not in exempt
            and total[node.name] <= reads(node)[node.name]]


def test_every_definition_is_reached():
    # a definition that nothing calls is dead code, or a test oracle that
    # belongs under tests/; `__init__` re-exports count only through __all__
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unreached(sources, frozenset(rtcproof.__all__)) == []


def test_unreached_definition_is_found():
    planted = {
        "a.py": ("def used(): pass\n"
                 "def dead(): return dead()\n"
                 "class C:\n"
                 "    def keyed(self): pass\n"
                 "    def orphan(self): pass\n"
                 "    def __repr__(self): return ''\n"
                 "    def run(self): return getattr(self, 'keyed')()\n"),
        "b.py": "from a import used, C\nused()\nC().run()\n",
    }
    assert unreached(planted) == ["a.py:dead", "a.py:C.orphan"]


def test_public_api_resolves():
    assert [n for n in rtcproof.__all__ if not hasattr(rtcproof, n)] == []
