"""Static checks on the package source."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import modlab

SOURCES = sorted(pathlib.Path(modlab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names an import binds that no expression in the module reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def test_unused_import_scan_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import json as j\n"
              "from .a import b, c as d\n"
              "print(os, d)\n")
    assert unused_imports(source) == ["line 4: b", "line 3: j"]


# the package __init__ imports names only to re-export them
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_parameters(source: str) -> list[str]:
    """Parameters of a function that its body never reads.  ``self``,
    ``cls``, names starting with ``_`` and ``*args``/``**kwargs`` are not
    checked."""
    tree = ast.parse(source)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend(f"line {node.lineno}: {node.name}({p})" for p in params
                   if p not in ("self", "cls") and not p.startswith("_")
                   and p not in read)
    return sorted(out)


def test_unused_parameter_scan_sees_unused_names():
    source = ("class A:\n"
              "    def m(self, x, _y, *args, z=1, **kwargs):\n"
              "        return x\n"
              "def f(a, b, c=None):\n"
              "    def g():\n"
              "        return a\n"
              "    b = 2\n"
              "    return g\n")
    assert unused_parameters(source) == ["line 2: m(z)", "line 4: f(b)",
                                         "line 4: f(c)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def limits_bindings(source: str) -> list[str]:
    """Functions that take a ``limits`` parameter, and imports that bind
    ``LIMITS`` from the config module: the limits are the one value
    ``config.LIMITS``, and a name bound from it by an import would keep
    the old value when the limits change."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("config"):
            out.extend(f"line {node.lineno}: import {alias.name}" for alias in node.names
                       if alias.name in ("LIMITS", "*"))
    return out + parameters_named(source, "limits")


def parameters_named(source: str, name: str) -> list[str]:
    """Functions that take a parameter of the given name, in source order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if any(a.arg == name for a in args.posonlyargs + args.args + args.kwonlyargs):
                out.append((node.lineno, f"line {node.lineno}: {node.name}({name})"))
    return [line for _, line in sorted(out)]


def test_limits_binding_scan_sees_parameters_and_imports():
    source = ("from . import config\n"
              "from .config import ADD_TABLE_MAX, LIMITS\n"
              "from modlab.config import *\n"
              "def f(module, limits=None):\n"
              "    def g(*, limits):\n"
              "        return config.LIMITS\n"
              "    return g\n")
    assert limits_bindings(source) == ["line 2: import LIMITS", "line 3: import *",
                                       "line 4: f(limits)", "line 5: g(limits)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_limits_are_read_from_config_at_call_time(path):
    assert limits_bindings(path.read_text()) == []


def test_method_parameter_scan_sees_every_kind():
    source = ("def f(a, method='scan'):\n"
              "    def g(*, method):\n"
              "        return method\n"
              "    return g\n"
              "class C:\n"
              "    async def h(self, method, /):\n"
              "        return method\n"
              "def methods(kind):\n"
              "    return kind\n")
    assert parameters_named(source, "method") == [
        "line 1: f(method)", "line 2: g(method)", "line 6: h(method)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_takes_a_method_switch(path):
    """A predicate has one production route; a second route is an oracle
    with its own name, not a string switch."""
    assert parameters_named(path.read_text(), "method") == []


def sorted_tuples(source: str) -> list[str]:
    """Calls ``tuple(sorted(...))`` without a sort key, each with the
    function it sits in.  A submodule is named by its element set alone,
    so a sorted tuple of its codes would be a second name; where bytes are
    written, codes are sorted into lists.  A sort by key orders objects,
    such as the lattice's nodes, not codes."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "tuple" and len(child.args) == 1
                    and isinstance(child.args[0], ast.Call)
                    and isinstance(child.args[0].func, ast.Name)
                    and child.args[0].func.id == "sorted"
                    and not child.args[0].keywords):
                out.append(f"line {child.lineno}: {owner}")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return out


def test_sorted_tuple_scan_sees_every_call():
    source = ("KEY = tuple(sorted(codes))\n"
              "def f(lat, codes):\n"
              "    def g():\n"
              "        return lat.index[tuple(sorted(codes))]\n"
              "    return g, tuple(sorted(codes)[:4]), sorted(codes), tuple(codes)\n"
              "NODES = tuple(sorted(nodes, key=len))\n")
    assert sorted_tuples(source) == ["line 1: <module>", "line 4: g"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_node_is_named_by_a_sorted_tuple(path):
    """The one sorted tuple left is iso_signature's, a multiset of
    per-element invariants, not of codes."""
    assert [line for line in sorted_tuples(path.read_text())
            if not line.endswith(": iso_signature")] == []


def module_level_containers(source: str) -> list[str]:
    """Names a module binds at its top level to a mutable container that
    starts out empty (``{}``, ``dict()``, ``set()``) or to anything
    annotated ``dict``/``set`` other than a table filled where it is
    written (a display or comprehension), such as a registry."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, annotation = node.targets, None
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, annotation = [node.target], node.annotation
        else:
            continue
        value = node.value
        empty = (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "set"))
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        typed = isinstance(annotation, ast.Name) and annotation.id in ("dict", "set")
        table = isinstance(value, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)) \
            and not empty
        if empty or (typed and not table):
            out.extend(f"line {node.lineno}: {ast.unparse(t)}" for t in targets)
    return out


def test_module_level_container_scan_sees_memo_containers():
    source = ("_a: dict = {}\n"
              "_b = set()\n"
              "_c: dict[str, int] = dict(x=1)\n"
              "_d: set[int] = make()\n"
              "TABLE: dict[str, int] = {'x': 1}\n"
              "SQUARES: dict[int, int] = {i: i * i for i in range(3)}\n"
              "NAMES = ('x',)\n"
              "def f():\n"
              "    local = {}\n"
              "    return local\n")
    assert module_level_containers(source) == [
        "line 1: _a", "line 2: _b", "line 3: _c", "line 4: _d"]


# every module-level memo is served by modlab.memo, which clear() empties
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "memo.py"],
                         ids=lambda p: p.name)
def test_no_module_level_containers(path):
    assert module_level_containers(path.read_text()) == []


def unread_fields(class_name: str, definition: str, readers: list[str]) -> list[str]:
    """Annotated fields of a class, defined in one source, that no
    attribute read (``x.field``) in any of the other sources names."""
    cls = next(node for node in ast.parse(definition).body
               if isinstance(node, ast.ClassDef) and node.name == class_name)
    fields = [stmt.target.id for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f for f in fields if f not in read]


def test_unread_field_scan_sees_unread_fields():
    definition = ("class Knobs:\n"
                  "    used: int = 1\n"
                  "    stored: int = 2\n"
                  "    unused: int = 3\n"
                  "    def unused_method(self):\n"
                  "        return self.unused\n")
    readers = ["def f(k):\n"
               "    k.stored = 4\n"
               "    return k.used\n"]
    assert unread_fields("Knobs", definition, readers) == ["stored", "unused"]


def test_every_limit_is_read_outside_config():
    """A field of Limits that no module reads is a knob that changes
    nothing."""
    config = next(p for p in SOURCES if p.name == "config.py")
    readers = [p.read_text() for p in SOURCES if p != config]
    assert unread_fields("Limits", config.read_text(), readers) == []


def test_every_cosingular_profile_field_is_read():
    """A profile field that no module reads is work done for nothing."""
    cosingular = next(p for p in SOURCES if p.name == "cosingular.py")
    readers = [p.read_text() for p in SOURCES if p != cosingular]
    assert unread_fields("CosingularProfile", cosingular.read_text(), readers) == []


def tracer_layers() -> dict:
    """``LAYERS`` of ``perfbench/tracing.py``, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_every_traced_entry_point_exists():
    """The tracer wraps layer entry points by name and only warns about a
    missing one, so a deleted or renamed entry point would go untraced."""
    missing = [f"modlab.{module_name}.{fn_name}"
               for module_name, fn_names in tracer_layers().values()
               for fn_name in fn_names
               if not callable(getattr(importlib.import_module(f"modlab.{module_name}"),
                                       fn_name, None))]
    assert missing == []
    assert callable(modlab.modules.FiniteModule.workspace)


def end_data_reads(source: str) -> list[str]:
    """Imports and attribute reads of ``end_data`` or ``_EndData``: the
    End-ring image data is a format private to ``tpredicates``."""
    names = ("end_data", "_EndData")
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend(f"line {node.lineno}: import {alias.name}" for alias in node.names
                       if alias.name.rsplit(".", 1)[-1] in names)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            out.append(f"line {node.lineno}: .{node.attr}")
    return out


def test_end_data_read_scan_sees_imports_and_attributes():
    source = ("from .tpredicates import end_data, t_trace\n"
              "from . import tpredicates\n"
              "def f(m):\n"
              "    return tpredicates._EndData(m), t_trace\n")
    assert end_data_reads(source) == ["line 1: import end_data", "line 4: ._EndData"]


def test_suites_do_not_read_the_end_data():
    suites = next(p for p in SOURCES if p.name == "suites.py")
    assert end_data_reads(suites.read_text()) == []


def end_homs_reads(source: str) -> list[str]:
    """Reads of a ``.homs`` attribute.  An End ring keeps no list of
    ``ModuleHom`` objects; production code reads its tables and
    ``hom(i)``."""
    return [f"line {node.lineno}: .homs" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "homs"
            and isinstance(node.ctx, ast.Load)]


def test_end_homs_read_scan_sees_attribute_reads():
    source = ("def f(end, other):\n"
              "    other.homs = []\n"
              "    tables = [h.table() for h in end.homs]\n"
              "    return end_ring(m).homs[0], tables\n")
    assert end_homs_reads(source) == ["line 3: .homs", "line 4: .homs"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "modules.py"],
                         ids=lambda p: p.name)
def test_production_does_not_list_end_homs(path):
    assert end_homs_reads(path.read_text()) == []


def handlers_of(source: str, exception: str) -> list[str]:
    """``except`` clauses that catch the named exception, alone or in a
    tuple, by plain or dotted name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(t, "id", getattr(t, "attr", None)) == exception for t in caught):
                out.append(f"line {node.lineno}: except {ast.unparse(node.type)}")
    return out


def test_handler_scan_sees_plain_dotted_and_tuple_handlers():
    source = ("try:\n    f()\nexcept SizeLimitExceeded:\n    pass\n"
              "try:\n    f()\nexcept (KeyError, errors.SizeLimitExceeded):\n    pass\n"
              "try:\n    f()\nexcept KeyError:\n    pass\n"
              "try:\n    f()\nexcept:\n    pass\n")
    assert handlers_of(source, "SizeLimitExceeded") == [
        "line 3: except SizeLimitExceeded",
        "line 7: except (KeyError, errors.SizeLimitExceeded)"]


def test_end_ring_predicates_do_not_catch_the_limit():
    """Over ``max_end`` a predicate of ``tpredicates`` raises; what a
    refusal means is its caller's decision (a profile's null, a suite's
    skip), never a value the predicate returns."""
    tpredicates = next(p for p in SOURCES if p.name == "tpredicates.py")
    assert handlers_of(tpredicates.read_text(), "SizeLimitExceeded") == []


def none_tests_of_predicates(source: str, module: str) -> list[str]:
    """Comparisons with None of a predicate result: a call of a function
    imported from ``module``, a name assigned from such a call, or an
    item of either."""
    tree = ast.parse(source)
    predicates = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == module
                  for alias in node.names}

    def is_call(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in predicates)

    results = {t.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and is_call(node.value)
               for t in node.targets if isinstance(t, ast.Name)}

    def is_result(node) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        return is_call(node) or (isinstance(node, ast.Name) and node.id in results)

    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Constant) and o.value is None for o in operands)
                    and any(map(is_result, operands))):
                out.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {text}" for line, _, text in sorted(out)]


def test_none_test_scan_sees_results_names_and_items():
    source = ("from .tpredicates import is_t_dual_baer, k_module_class\n"
              "from .other import find\n"
              "def f(m, hypothesis=None):\n"
              "    tdb = is_t_dual_baer(m)\n"
              "    kc = k_module_class(m)\n"
              "    hit = find(m)\n"
              "    if tdb is None or kc['t_k'] is None:\n"
              "        return hit is None\n"
              "    return is_t_dual_baer(m) == None, hypothesis is not None\n")
    assert none_tests_of_predicates(source, "tpredicates") == [
        "line 7: tdb is None", "line 7: kc['t_k'] is None",
        "line 9: is_t_dual_baer(m) == None"]


def test_suites_do_not_test_predicate_results_for_none():
    """A refused evaluation reaches a suite as a raise, never as None."""
    suites = next(p for p in SOURCES if p.name == "suites.py")
    assert none_tests_of_predicates(suites.read_text(), "tpredicates") == []
