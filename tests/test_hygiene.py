"""Static checks of the sources.

No module of the package or of the tests imports a name it never uses; the
package's __init__.py is exempt, its imports are the public re-exports.
Every cache in the package has a finite integer size, and the memoized
functions are pinned, each bounded by a named constant.  Every function the
benchmark's traced run wraps (perfbench/spans.py, TRACED) exists.  Every
private module-level helper of the package is used somewhere in it.  The
unchecked constructor lattice._trusted is reached only from the pinned
images that are valid by construction.
"""

import ast
import importlib
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


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes named with a leading underscore
    that no statement of any source references, other than their own
    definition; sources maps a module name to its text."""
    defined = {}
    used = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                defined[stmt.name] = module
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != getattr(stmt, "name", None):
                    used.add(name)
    return sorted(f"{module}.{name}" for name, module in defined.items() if name not in used)


def test_checker_finds_orphaned_helpers():
    sources = {
        "a": "def _kept(): pass\ndef _orphan(): return _orphan()\nclass _Gone: pass\n"
        "def _method_only(): pass\nclass C:\n    def _method_only(self): pass\n",
        "b": "from .a import _kept\n",
        "c": "import a\nx = a._attr()\ndef _attr(): pass\n",
    }
    # a method of the same name is a definition, not a use
    assert orphaned_helpers(sources) == ["a._Gone", "a._method_only", "a._orphan"]


def test_private_helpers_are_used():
    assert orphaned_helpers({p.stem: p.read_text() for p in PACKAGE}) == []


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def constants(source: str) -> dict:
    """The module-level constants NAME = literal of a source."""
    return {
        target.id: node.value.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def unbounded_caches(source: str, others: dict | None = None) -> list[int]:
    """Lines of lru_cache or cache uses without a finite integer maxsize,
    given as a literal, a module-level integer constant, or one imported by
    name from a module of others (module name -> its constants)."""
    tree, others = ast.parse(source), others or {}
    ints = {
        alias.asname or alias.name: others[node.module][alias.name]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in others
        for alias in node.names
        if alias.name in others[node.module]
    }
    ints.update(constants(source))
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
    source = (
        "from .a import SIZE, NAME\nfrom .b import SIZE as B\nfrom functools import lru_cache\n"
        "@lru_cache(maxsize=SIZE)\ndef a(): pass\n"
        "@lru_cache(maxsize=NAME)\ndef b(): pass\n"
        "@lru_cache(maxsize=B)\ndef c(): pass\n"
    )
    others = {"a": {"SIZE": 8, "NAME": "eight"}, "b": {"SIZE": 16}}
    assert unbounded_caches(source, others) == [6]
    assert unbounded_caches(source) == [4, 6, 8]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    others = {p.stem: constants(p.read_text()) for p in PACKAGE}
    assert unbounded_caches(path.read_text(), others) == []


def memoized(sources: dict[str, str]) -> dict[str, str | None]:
    """module.qualname of each function with an lru_cache decorator -> the
    name of its maxsize argument (None unless a bare name); sources maps a
    module name to its text."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                for deco in getattr(child, "decorator_list", []):
                    if isinstance(deco, ast.Call) and _name(deco.func) == "lru_cache":
                        sizes = deco.args[:1] + [kw.value for kw in deco.keywords if kw.arg == "maxsize"]
                        name = sizes[0].id if sizes and isinstance(sizes[0], ast.Name) else None
                        found[".".join(scope + [child.name])] = name
                visit(child, scope + [child.name])

    for module, source in sources.items():
        visit(ast.parse(source), [module])
    return found


def test_checker_finds_memoized_functions():
    sources = {
        "a": "from functools import lru_cache\nN = 4\n@lru_cache(maxsize=N)\ndef f(): pass\n"
        "class C:\n    @staticmethod\n    @lru_cache(8)\n    def g(): pass\n    def h(): pass\n",
    }
    assert memoized(sources) == {"a.f": "N", "a.C.g": None}


# The memos of the package and the named constant that bounds each: the
# lattice memos hold frozen dataclasses and int tuples, never arrays.
MEMOIZED = {
    "lattice.SymplecticSpace.standard": "MEMO_CACHE_SIZE",
    "lattice.intersect": "MEMO_CACHE_SIZE",
    "quantize.Polarization.canonical": "MEMO_CACHE_SIZE",
    "quantize._labels": "LABELS_CACHE_SIZE",
    "quantize._closed_form_setup": "MEMO_CACHE_SIZE",
}


def test_memoized_functions_are_pinned():
    assert memoized({p.stem: p.read_text() for p in PACKAGE}) == MEMOIZED
    for qualname, constant in MEMOIZED.items():
        module, *attrs = qualname.split(".")
        obj = module = importlib.import_module("torusquant." + module)
        for attr in attrs:
            obj = getattr(obj, attr)
        size = getattr(module, constant)
        assert type(size) is int and size >= 1
        assert obj.cache_parameters()["maxsize"] == size


def unresolved(traced) -> list[str]:
    """The (module, "function" or "Class.attribute") entries that name no
    callable in the package."""
    bad = []
    for module, func in traced:
        obj = importlib.import_module("torusquant." + module)
        for part in func.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            bad.append(f"{module}.{func}")
    return bad


def test_checker_finds_unresolved_names():
    traced = [
        ("exact", "snf"),
        ("exact", "PhaseSum.build"),
        ("exact", "PhaseSum.gone"),
        ("lattice", "gone"),
    ]
    assert unresolved(traced) == ["exact.PhaseSum.gone", "lattice.gone"]


def test_traced_names_resolve():
    # run the source, so that importing it writes nothing under perfbench/
    path = ROOT / "perfbench" / "spans.py"
    spans = {"__name__": "spans"}
    exec(compile(path.read_text(), str(path), "exec"), spans)
    assert spans["TRACED"]
    assert unresolved(spans["TRACED"]) == []


def trusted_sites(sources: dict[str, str]) -> list[str]:
    """module.qualname of each function that references _trusted, once per
    reference (imports and its own definition aside); sources maps a module
    name to its text."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if _name(child) == "_trusted" and isinstance(child, (ast.Name, ast.Attribute)):
                sites.append(".".join(scope))
            visit(child, scope)

    for module, source in sources.items():
        visit(ast.parse(source), [module])
    return sorted(sites)


def test_checker_finds_trusted_sites():
    sources = {
        "a": "def _trusted(cls): pass\nclass C:\n    def f(self):\n        return _trusted(C)\n",
        "b": "from .a import _trusted\nimport a\ndef g():\n    def h():\n        return a._trusted\n"
        "    return _trusted(1), _trusted(2)\nmake = _trusted\n",
    }
    assert trusted_sites(sources) == ["a.C.f", "b", "b.g", "b.g", "b.g.h"]


# The images valid by construction: a symplectomorphism's images and
# products, the standard generators and their metaplectic elements, spans of
# frames, intersections and pair-adapted frames, metaplectic products,
# canonical and moved polarization frames, and seeded Lagrangians whose every
# row the draw checked.
TRUSTED_SITES = [
    "lattice.AdaptedBasis.span",
    "lattice.intersect",
    "lattice.intersect",
    "lattice.pair_adapted_bases.assemble",
    "maslov.SpElement.__mul__",
    "maslov.SpElement.apply_basis",
    "maslov.SpElement.apply_lagrangian",
    "maslov._generator",
    "maslov.mp_generator",
    "maslov.mp_mul",
    "quantize.Polarization.canonical",
    "representations._moved",
    "verify.random_lagrangian",
]


def test_trusted_constructor_sites_are_pinned():
    assert trusted_sites({p.stem: p.read_text() for p in PACKAGE}) == TRUSTED_SITES
