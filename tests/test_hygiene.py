"""Source hygiene checks that need no linter: every import in src/pxtmesh is
used and sits at module level, no module guards an invariant with `assert`,
which `python -O` strips, every function, method and class defined there is
named somewhere else, and somewhere other than the tests, and every field it
declares is read somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import pxtmesh

SRC = Path(pxtmesh.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; `from __future__` is skipped."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_modules_found():
    assert {"plan.py", "router.py", "baselines.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items() if name not in used)
    assert unused == [], f"{path.name} imports names it never uses"


def test_check_sees_string_annotations_and_unused_names():
    tree = ast.parse("from x import A, B, C\n"
                     "def f(a: 'A') -> 'list[B]':\n    pass\n")
    assert set(_imported(tree)) - _used(tree) == {"C"}


def function_imports(path: Path) -> list[str]:
    """`module:line` of each import inside a function body, nested ones once."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = {node.lineno for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return [f"{path.name}:{line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert function_imports(path) == [], f"{path.name} imports inside a function"


def test_function_import_check_sees_nested_bodies(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\n"
                   "class C:\n"
                   "    def method(self):\n"
                   "        from . import x\n"
                   "def outer():\n"
                   "    if os:\n"
                   "        import sys\n"
                   "    def inner():\n"
                   "        import json\n")
    assert function_imports(mod) == ["mod.py:4", "mod.py:7", "mod.py:9"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert; raise a real exception instead"


def _definitions(tree: ast.Module):
    """(name, line) of every function, method, property and class, apart from
    dunders and click commands, which are reached without being named."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        calls = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(c, ast.Attribute) and c.attr in ("command", "group") for c in calls):
            continue
        yield node.name, node.lineno


def _name_counts(paths) -> Counter:
    """How often each identifier-like word occurs in the given files, code,
    strings, comments and prose alike."""
    counts: Counter = Counter()
    for path in paths:
        counts.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text()))
    return counts


def dead_definitions(src_files, other_files) -> list[str]:
    """`module:line name` of each definition in `src_files` whose name occurs
    nowhere but at its own definitions."""
    defs = {path: list(_definitions(ast.parse(path.read_text(), filename=str(path))))
            for path in src_files}
    defined = Counter(name for found in defs.values() for name, _ in found)
    counts = _name_counts([*src_files, *other_files])
    return sorted(f"{path.name}:{line} {name}" for path, found in defs.items()
                  for name, line in found if counts[name] <= defined[name])


def test_no_dead_definitions():
    others = [*sorted((ROOT / "tests").rglob("*.py")),
              *sorted((ROOT / "benchmarks").rglob("*.py")), ROOT / "README.md"]
    dead = dead_definitions(sorted(SRC.glob("*.py")), others)
    assert dead == [], "defined in src/pxtmesh but named nowhere else"


def test_dead_definition_check_exemptions(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import click\n"
                   "class Used:\n"
                   "    def __init__(self): pass\n"
                   "    @property\n"
                   "    def orphan(self): pass\n"
                   "@click.command()\n"
                   "def cmd(): pass\n"
                   "def helper(): return Used()\n"
                   "def unused(): pass\n")
    user = tmp_path / "user.py"
    user.write_text("# calls helper()\n")
    assert dead_definitions([mod], [user]) == ["mod.py:5 orphan", "mod.py:9 unused"]


def named_only_in_tests(root: Path) -> list[str]:
    """`module:line name` of each definition in root/src/pxtmesh whose name
    occurs nowhere outside its own definitions, tests/ left out: src/,
    benchmarks/ and README.md are searched, with the exemptions of
    `dead_definitions`."""
    others = [*sorted((root / "benchmarks").rglob("*.py")), root / "README.md"]
    return dead_definitions(sorted((root / "src" / "pxtmesh").glob("*.py")), others)


def test_no_test_only_definitions():
    found = named_only_in_tests(ROOT)
    assert found == [], "defined in src/pxtmesh but named only in tests; move it there"


def test_test_only_check_reads_all_but_tests(tmp_path):
    (tmp_path / "src" / "pxtmesh").mkdir(parents=True)
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "pxtmesh" / "mod.py").write_text(
        "def in_src(): pass\n"
        "def in_benchmarks(): pass\n"
        "def in_readme(): pass\n"
        "def in_tests(): pass\n"
        "class Orphan: pass\n")
    (tmp_path / "src" / "pxtmesh" / "other.py").write_text("from .mod import in_src\n")
    (tmp_path / "benchmarks" / "run.py").write_text("mod.in_benchmarks()\n")
    (tmp_path / "README.md").write_text("`in_readme` does nothing\n")
    (tmp_path / "tests" / "test_mod.py").write_text("in_tests(); in_src(); Orphan()\n")
    assert named_only_in_tests(tmp_path) == ["mod.py:4 in_tests", "mod.py:5 Orphan"]


def _declared_fields(tree: ast.Module):
    """(class, field, line) of each dataclass field and `__slots__` name."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        is_dataclass = any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                           for d in decorators)
        for stmt in cls.body:
            if is_dataclass and isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                yield cls.name, stmt.target.id, stmt.lineno
            elif isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                for elt in getattr(stmt.value, "elts", ()):
                    yield cls.name, elt.value, stmt.lineno


def _attributes_read(paths) -> set[str]:
    """Every attribute name loaded (or updated in place) in the given files."""
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store))
        read.update(node.target.attr for node in ast.walk(tree)
                    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute))
    return read


def dead_fields(src_files, other_files) -> list[str]:
    """`module:line Class.field` of each declared field that no file reads."""
    read = _attributes_read([*src_files, *other_files])
    return sorted(f"{path.name}:{line} {cls}.{name}" for path in src_files
                  for cls, name, line in _declared_fields(ast.parse(path.read_text()))
                  if name not in read)


def test_no_dead_fields():
    others = [*sorted((ROOT / "tests").rglob("*.py")), *sorted((ROOT / "benchmarks").rglob("*.py"))]
    dead = dead_fields(sorted(SRC.glob("*.py")), others)
    assert dead == [], "declared in src/pxtmesh but never read"


def test_dead_field_check_sees_dataclasses_and_slots(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from dataclasses import dataclass\n"
                   "@dataclass(frozen=True)\n"
                   "class Rec:\n"
                   "    kept: int\n"
                   "    orphan: int\n"
                   "class Plain:\n"
                   "    note: int = 0\n"
                   "class Slotted:\n"
                   "    __slots__ = ('count', 'lost')\n"
                   "    def __init__(self):\n"
                   "        self.count = 0\n"
                   "        self.lost = 0\n")
    user = tmp_path / "user.py"
    user.write_text("def f(r, s):\n    s.count += 1\n    return r.kept\n")
    assert dead_fields([mod], [user]) == ["mod.py:5 Rec.orphan", "mod.py:9 Slotted.lost"]
