"""Static checks of the sources.

No module of the package or of the tests imports a name it never uses; the
package's __init__.py is exempt, its imports are the public re-exports.
Every cache in the package has a finite integer size.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "torusquant").glob("*.py"))
MODULES = sorted(
    path
    for path in (*(ROOT / "src" / "torusquant").glob("*.py"), *(ROOT / "tests").glob("*.py"))
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_checker_finds_unused_names():
    source = "import os\nimport os.path as p\nfrom a import b, c as d\nos.sep\nd()\n"
    assert unused_imports(source) == ["b", "p"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def unbounded_caches(source: str) -> list[int]:
    """Lines of lru_cache or cache uses without a finite integer maxsize,
    given as a literal or a module-level integer constant."""
    tree = ast.parse(source)
    ints = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    bad = []
    for node in ast.walk(tree):
        # a bare decorator: cache, or lru_cache with its default size
        for deco in getattr(node, "decorator_list", []):
            if _name(deco) in ("cache", "lru_cache"):
                bad.append(deco.lineno)
        if isinstance(node, ast.Call) and _name(node.func) in ("cache", "lru_cache"):
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            size = None
            if sizes and isinstance(sizes[0], ast.Name):
                size = ints.get(sizes[0].id)
            elif sizes:
                size = getattr(sizes[0], "value", None)
            if _name(node.func) == "cache" or type(size) is not int or size < 1:
                bad.append(node.lineno)
    return sorted(bad)


def test_checker_finds_unbounded_caches():
    source = (
        "import functools\nfrom functools import cache, lru_cache\nSIZE = 8\n"
        "@lru_cache(maxsize=SIZE)\ndef a(): pass\n"
        "@functools.lru_cache(16)\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n"
        "@lru_cache(maxsize=None)\ndef d(): pass\n"
        "@cache\ndef e(): pass\n"
        "f = lru_cache(maxsize=UNKNOWN)(len)\n"
    )
    assert unbounded_caches(source) == [8, 10, 12, 14]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    assert unbounded_caches(path.read_text()) == []
