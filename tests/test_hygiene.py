"""Source hygiene checks that need no linter: every import in src/pxtmesh is
used and sits at module level, no module guards an invariant with `assert`,
which `python -O` strips, every function, method and class defined there is
referenced by code somewhere else, and somewhere other than the tests, every
field it declares is read somewhere, shortest routes are searched for in
graph.py alone, and plan.py alone decides protection sharing."""

import ast
import builtins
import importlib
import re
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


# the building blocks of a shortest-route search -> the modules that may use
# them: a DAG is built from BFS distances, and a ranked search pushes onto a
# heap; graph.py owns both, and cdijkstra.py its own constrained search
SEARCH_OWNERS = {
    "bfs_distances": {"graph.py"},
    "heapq": {"graph.py", "cdijkstra.py"},
    "heappop": {"graph.py", "cdijkstra.py"},
    "heappush": {"graph.py", "cdijkstra.py"},
}


def search_outside_owners(paths, owners=SEARCH_OWNERS) -> list[str]:
    """`module:line name` of each import of, or reference to, a name of
    `owners` in a module that does not own it."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.update(f"{path.name}:{node.lineno} {name}" for name in names
                         if path.name not in owners.get(name, {path.name}))
    return sorted(found)


def test_one_shortest_route_enumerator():
    found = search_outside_owners(sorted(SRC.glob("*.py")))
    assert found == [], "search for shortest routes through graph.ranked_routes"


def test_enumerator_check_sees_imports_and_references(tmp_path):
    (tmp_path / "graph.py").write_text("from heapq import heappush\n"
                                       "def bfs_distances(): heappush([], 0)\n")
    (tmp_path / "router.py").write_text("from heapq import heappop, heappush\n"
                                        "from .graph import bfs_distances\n"
                                        "def f(heap): graph.bfs_distances(); heappush(heap, 1)\n")
    (tmp_path / "cdijkstra.py").write_text("import heapq\nheapq.heappush([], 0)\n")
    assert search_outside_owners(sorted(tmp_path.glob("*.py"))) == [
        "router.py:1 heappop", "router.py:1 heappush", "router.py:2 bfs_distances",
        "router.py:3 bfs_distances", "router.py:3 heappush"]


# what decides protection sharing: the blockers of each protection edge and
# the footprints that make them; plan.py alone reads or writes either
SHARING_OWNERS = {"_blockers": {"plan.py"}, "_footprint": {"plan.py"}}


def test_one_place_decides_sharing():
    found = search_outside_owners(sorted(SRC.glob("*.py")), SHARING_OWNERS)
    assert found == [], "ask plan.conflicts and plan.may_share instead"


def test_sharing_check_sees_reads_outside_plan(tmp_path):
    (tmp_path / "plan.py").write_text("class P:\n    def f(self): return self._blockers\n")
    (tmp_path / "router.py").write_text("def admit(plan, e, mask):\n"
                                        "    return not plan._blockers[e] & mask\n")
    (tmp_path / "baselines.py").write_text("def own(plan, e):\n"
                                           "    return plan._footprint(e[:2], (e,), True)\n")
    assert search_outside_owners(sorted(tmp_path.glob("*.py")), SHARING_OWNERS) == [
        "baselines.py:2 _footprint", "router.py:2 _blockers"]


def _outside_base(tree: ast.Module):
    """A function from a base-class expression in `tree` to the class it names
    when that class comes from builtins or an absolute import, else None."""
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = \
                    (alias.name if alias.asname else alias.name.split(".")[0], None)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = (node.module, alias.name)

    def resolve(expr: ast.expr):
        attrs = []
        while isinstance(expr, ast.Attribute):
            attrs.insert(0, expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        if expr.id in imports:
            module, name = imports[expr.id]
            obj = importlib.import_module(module)
            attrs = [name, *attrs] if name else attrs
        else:
            obj = builtins
            attrs = [expr.id, *attrs]
        for attr in attrs:
            obj = getattr(obj, attr, None)
        return obj

    return resolve


def _definitions(tree: ast.Module):
    """(name, line, module-level?) of every function, method, property and
    class, apart from those reached without being named: dunders, click
    commands, and methods that override a base class from outside the module
    (builtins or an absolute import), such as a click.Group's `invoke`."""
    outside = _outside_base(tree)

    def visit(node, top, bases):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, top, bases)
                continue
            calls = [d.func if isinstance(d, ast.Call) else d for d in child.decorator_list]
            if not (child.name.startswith("__") and child.name.endswith("__")
                    or any(isinstance(c, ast.Attribute) and c.attr in ("command", "group")
                           for c in calls)
                    or any(hasattr(base, child.name) for base in bases)):
                yield child.name, child.lineno, top
            inner = [outside(b) for b in child.bases] if isinstance(child, ast.ClassDef) else []
            yield from visit(child, False, [b for b in inner if b is not None])

    yield from visit(tree, True, [])


def _references(paths):
    """What the given Python files reference: the bare names each one reads
    (string annotations included), every attribute read as (owner, name)
    with owner the last name of the expression it is read from
    (`ns.failsim.audit` -> ("failsim", "audit")), and every imported name."""
    names, attributes, imported = {}, set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        names[path] = _used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = node.value
                attributes.add((getattr(owner, "id", getattr(owner, "attr", None)), node.attr))
            elif isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
    return names, attributes, imported


def _code_identifiers(path: Path) -> set[str]:
    """The identifiers in a Markdown file's code blocks and backtick spans."""
    spans = re.findall(r"```.*?```|`[^`\n]*`", path.read_text(), flags=re.S)
    return {word for span in spans for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", span)}


def dead_definitions(src_files, other_files) -> list[str]:
    """`module:line name` of each definition in `src_files` that no file
    references.  A Python file references a module-level function or class by
    importing it, reading it as `module.name`, or, in its own module, naming
    it bare; any other definition by reading an attribute of its name, or
    naming it bare in its own module.  A Markdown file references the
    identifiers in its code blocks and backtick spans."""
    python = [p for p in [*src_files, *other_files] if p.suffix == ".py"]
    names, attributes, imported = _references(python)
    attribute_names = {name for _, name in attributes}
    words = set().union(*(_code_identifiers(p) for p in other_files if p.suffix == ".md"))
    dead = []
    for path in src_files:
        for name, line, top in _definitions(ast.parse(path.read_text(), filename=str(path))):
            if top:
                used = name in imported or (path.stem, name) in attributes
            else:
                used = name in attribute_names
            if not (used or name in names[path] or name in words):
                dead.append(f"{path.name}:{line} {name}")
    return sorted(dead)


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
                   "def unused(): pass\n"
                   "class Group(click.Group):\n"
                   "    def invoke(self, ctx): pass\n"
                   "    def extra(self): pass\n"
                   "class Ids(int):\n"
                   "    def bit_count(self): pass\n"
                   "    def of(self): pass\n")
    user = tmp_path / "user.py"
    user.write_text("import mod\n"
                    "# unused(), extra()\n"
                    "mod.helper()\n"
                    "print(mod.Group, mod.Ids, '.orphan')\n")
    assert dead_definitions([mod], [user]) == [
        "mod.py:12 extra", "mod.py:15 of", "mod.py:5 orphan", "mod.py:9 unused"]


def named_only_in_tests(root: Path) -> list[str]:
    """`module:line name` of each definition in root/src/pxtmesh that nothing
    outside tests/ references: src/, benchmarks/ and README.md are searched,
    as in `dead_definitions`."""
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
        "class Orphan: pass\n"
        "def restore(): pass\n")
    (tmp_path / "src" / "pxtmesh" / "other.py").write_text("from .mod import in_src\n")
    # a method of the same name is not the module function
    (tmp_path / "benchmarks" / "run.py").write_text("mod.in_benchmarks()\ntracer.restore()\n")
    (tmp_path / "README.md").write_text("`in_readme` does nothing; nor does restore\n")
    (tmp_path / "tests" / "test_mod.py").write_text("in_tests(); in_src(); Orphan(); restore()\n")
    assert named_only_in_tests(tmp_path) == [
        "mod.py:4 in_tests", "mod.py:5 Orphan", "mod.py:6 restore"]


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


# validate()'s verdicts on the entries that fail its screen: a field of the
# plan's one cache, declared in its slots, made in its constructor and named
# by no one but validate(), so that add_entry, parse, the trail code and the
# router can neither fill nor read them
MEMO = "verdicts"


def functions_naming(paths, attr: str) -> list[str]:
    """`module:function` of each function in `paths` whose body names the
    attribute `attr`, as `x.attr` or as the string "attr" (an enclosing
    function counts for what its nested ones name); `module:<module>` for a
    mention outside every function."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Attribute) and node.attr == attr
                            or isinstance(node, ast.Constant) and node.value == attr):
                        found.add(f"{path.name}:{fn.name}")
                        inside.add(node)
        for node in ast.walk(tree):
            if node not in inside and (isinstance(node, ast.Attribute) and node.attr == attr
                                       or isinstance(node, ast.Constant) and node.value == attr):
                found.add(f"{path.name}:<module>")
    return sorted(found)


def test_only_the_check_helper_names_the_memo():
    assert functions_naming(sorted(SRC.glob("*.py")), MEMO) == [
        "plan.py:<module>", "plan.py:__init__", "plan.py:validate"], "only validate() fills them"
    # the one mention outside a function is _Tallies.__slots__
    assert (SRC / "plan.py").read_text().count(f'"{MEMO}"') == 1


def test_memo_check_sees_nested_strings_and_module_level(tmp_path):
    (tmp_path / "plan.py").write_text(
        "class P:\n"
        "    def __init__(self): self.verdicts = {}\n"
        "    def add_entry(self, e):\n"
        "        def note(): self.verdicts[0] = e\n"
        "    def parse(self): return getattr(self, 'verdicts')\n")
    (tmp_path / "router.py").write_text("MEMO = P().verdicts\n")
    assert functions_naming(sorted(tmp_path.glob("*.py")), MEMO) == [
        "plan.py:__init__", "plan.py:add_entry", "plan.py:note", "plan.py:parse",
        "router.py:<module>"]


# the cross-entry tallies of validate() and branch_points(): made in the
# constructor and named by no one but the helper that aligns them with the
# entries, so that add_entry, parse, the trail code and the router can
# neither fill nor read them
TALLIES = "_tallies"


def test_only_the_check_helper_names_the_tallies():
    assert functions_naming(sorted(SRC.glob("*.py")), TALLIES) == [
        "plan.py:__init__", "plan.py:_tallied"], "read the tallies through _tallied"


# add_entry's screen and validate()'s are kept apart: add_entry and its screen
# name none of validate()'s memo or tallies, nor validate() the screen, so
# validate() stays an independent oracle for what add_entry takes
CHECK_STATE = {"_screen", "_Tallies", "_tallied", "verdicts"}


def names_in(path: Path, function: str) -> set[str]:
    """Every name, attribute and string constant in the body of each
    function called `function` in `path`."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == function:
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found.add(node.value)
    return found


def test_add_entry_screens_apart_from_validate():
    plan = SRC / "plan.py"
    assert "_admits" in names_in(plan, "add_entry")
    for function in ("add_entry", "_admits"):
        assert names_in(plan, function) & CHECK_STATE == set(), function
    assert "_admits" not in names_in(plan, "validate")


def test_names_in_sees_names_attributes_and_strings(tmp_path):
    mod = tmp_path / "plan.py"
    mod.write_text("class P:\n"
                   "    def add_entry(self, e):\n"
                   "        def inner(): return _screen(e)\n"
                   "        return self._tallied(), getattr(self, '_verdicts')\n"
                   "    def validate(self): return _Tallies\n")
    assert {"_screen", "_tallied", "_verdicts"} <= names_in(mod, "add_entry")
    assert names_in(mod, "add_entry") & {"_Tallies"} == set()
    assert "_Tallies" in names_in(mod, "validate")
