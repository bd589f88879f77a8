"""Rules on the package source itself, read with the stdlib `ast` module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ffcheb"
MODULES = sorted(SRC.rglob("*.py"))


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert, so no invariant may rest on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at line(s) {lines}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that nothing in the module reads: no Name node
    and no entry of `__all__`."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    # a name imported and never read is left over from code that went;
    # `__init__.py` imports to re-export, so it is exempt
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_imports(tree)
    assert unused == [], f"{path.name}: unused import(s) {unused}"


def test_unused_import_rule_catches_a_leftover():
    tree = ast.parse(
        "import os\nimport a.b\nfrom x import y as z, w\n"
        "from __future__ import annotations\n__all__ = ['w']\nprint(a)\n"
    )
    assert _unused_imports(tree) == ["os (line 1)", "z (line 3)"]


def _unused_errors(errors: ast.Module, others: list[ast.Module]) -> list[str]:
    """Exception classes that `errors` defines and no module raises or
    subclasses: raising means `raise X` or `raise X(...)`, also through a
    module attribute."""
    defined = [n.name for n in errors.body if isinstance(n, ast.ClassDef)]
    used = set()
    for tree in [errors, *others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                used |= {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases}
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    used.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    used.add(exc.attr)
    return [name for name in defined if name not in used]


def test_every_error_class_is_raised_or_subclassed():
    # an error class that nothing raises is left over from code that went
    errors = SRC / "errors.py"
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}
    others = [tree for p, tree in trees.items() if p != errors]
    assert _unused_errors(trees[errors], others) == []


def test_unused_error_rule_catches_a_leftover():
    errors = ast.parse(
        "class Base(Exception): pass\nclass A(Base): pass\nclass B(Base): pass\n"
        "class C(Base): pass\nclass D(Base): pass\n"
    )
    others = [ast.parse("raise A('x')\nraise errors.B\nclass E(C): pass\ntry:\n    f()\nexcept D:\n    pass\n")]
    assert _unused_errors(errors, others) == ["D"]


#: the trees that may read a package definition
READERS = sorted(
    p for d in ("src", "tests", "bench", "demos") for p in (SRC.parent.parent / d).rglob("*.py")
)

#: read from outside the repository: argparse calls `error` on a bad
#: command line
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


def _dead_definitions(defining: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """`module.name` of each top-level function or class, and
    `module.Class.method` of each method whose name does not start with
    `__`, that no reader reads: a method counts as read through an
    attribute read, a function or class through a name, an attribute or an
    import."""
    names, attrs = set(), set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {a.name.split(".")[-1] for a in node.names}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = []
    for mod, tree in defining.items():
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)) and node.name not in names | attrs:
                dead.append(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [
                    f"{mod}.{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, functions) and not m.name.startswith("__")
                    and m.name not in attrs
                ]
    return dead


def test_every_definition_is_read():
    # a function, class or method that nothing reads is left over from code
    # that went
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in READERS}
    defining = {p.stem: trees[p] for p in MODULES}
    dead = _dead_definitions(defining, list(trees.values()))
    assert [d for d in dead if d not in CALLED_FROM_OUTSIDE] == []


def test_dead_definition_rule_catches_a_leftover():
    defining = {
        "m": ast.parse(
            "def used(): pass\ndef dead(): pass\nclass C:\n    def read(self): pass\n"
            "    def unread(self): pass\n    def __repr__(self): pass\n"
            "class Imported: pass\nclass ByAttr: pass\n"
        )
    }
    readers = [ast.parse("from m import Imported\nused()\nx.read()\nm.ByAttr\nunread = 1\n")]
    assert _dead_definitions(defining, readers) == ["m.dead", "m.C", "m.C.unread"]


def _unread_attributes(defining: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """`module.attr (line n)` of each attribute that `defining` stores,
    `x.attr = ...`, and no reader reads: through an attribute load, or a
    string constant such as a `getattr`/`hasattr` name or a `__slots__`
    entry."""
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [
        f"{mod}.{node.attr} (line {node.lineno})"
        for mod, tree in defining.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr not in read
    ]


def test_every_stored_attribute_is_read():
    # an attribute that is stored and never read is left over from code
    # that went
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in READERS}
    defining = {p.stem: trees[p] for p in MODULES}
    assert _unread_attributes(defining, list(trees.values())) == []


def test_unread_attribute_rule_catches_a_leftover():
    defining = {
        "m": ast.parse(
            "class C:\n    __slots__ = ('slot',)\n    def __init__(self):\n"
            "        self.used = self.slot = self.cached = 1\n"
            "        self.raw, self.dead = 2, 3\n"
        )
    }
    readers = [ast.parse("c.used\ngetattr(c, 'cached', None)\nraw = 1\n"), *defining.values()]
    assert _unread_attributes(defining, readers) == ["m.raw (line 5)", "m.dead (line 5)"]


def _caught_names(tree: ast.Module, name: str) -> list[int]:
    """Lines of the `except` clauses that name the class `name`, alone, in a
    tuple or through a module attribute."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None) for t in types}
            if name in names:
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_catches_ramified_prime(path):
    # a sweep skips the monics that meet a ramified prime by sieving them
    # out, not by catching the error of each one's Artin symbol
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _caught_names(tree, "RamifiedPrime")
    assert lines == [], f"{path.name}: except RamifiedPrime at line(s) {lines}"


def test_caught_names_rule_catches_a_handler():
    tree = ast.parse(
        "try:\n    f()\nexcept RamifiedPrime:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, errors.RamifiedPrime):\n    pass\n"
        "try:\n    f()\nexcept DomainError:\n    pass\n"
    )
    assert _caught_names(tree, "RamifiedPrime") == [3, 7]


#: cover classes that only `covers.py` may name: the others ask a cover
#: `abelian` and `symbol_cover()`; the interval sieve's place tables read
#: a `KummerCover`'s linear places, so that one is allowed
COVER_KINDS = ("SplittingCover", "ArtinSchreierCover", "ProductCover", "TrivialCover")


def _named_cover_kinds(tree: ast.Module) -> list[str]:
    """`name (line)` for each import, name or attribute of a class in
    `COVER_KINDS`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.split(".")[-1] for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{n} (line {node.lineno})" for n in names if n in COVER_KINDS]
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "covers.py"], ids=lambda p: p.name
)
def test_only_covers_names_a_cover_kind(path):
    # a consumer that tests the class of a cover decides in its own module
    # what the cover's classification contract already says
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _named_cover_kinds(tree)
    assert found == [], f"{path.name}: names {found}"


def test_cover_kind_rule_catches_a_name():
    tree = ast.parse(
        "from .covers import Cover, KummerCover, SplittingCover as S\n"
        "import ffcheb.covers\n"
        "isinstance(c, (covers.ProductCover, TrivialCover))\n"
        "x = KummerCover\n"
    )
    assert _named_cover_kinds(tree) == [
        "SplittingCover (line 1)", "ProductCover (line 3)", "TrivialCover (line 3)"
    ]


def _private_cover_imports(tree: ast.Module) -> list[str]:
    """`name (line)` for each underscore name imported from `covers`."""
    return [
        f"{a.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "covers"
        for a in node.names
        if a.name.startswith("_")
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "covers.py"], ids=lambda p: p.name
)
def test_no_module_imports_a_private_cover_name(path):
    # what a cover computes for others it hands over through its public
    # attributes (`places`, `symbol_cover()`); a shared helper belongs in
    # `polys`, not behind an underscore in `covers`
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _private_cover_imports(tree)
    assert found == [], f"{path.name}: imports {found}"


def test_private_cover_import_rule_catches_a_name():
    tree = ast.parse(
        "from .covers import Cover, _taylor\n"
        "from ffcheb.covers import _as_parts as parts\n"
        "from .polys import _ddf\n"
        "from . import covers\n"
    )
    assert _private_cover_imports(tree) == ["_taylor (line 1)", "_as_parts (line 2)"]
