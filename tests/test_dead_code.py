"""No dead code in the library: every definition is used, every import is read.

The modules of src/normlds are read with ast, not imported. A module-level
function or class must be referenced by some module of the package (its own
included), through a bare name, a string annotation or <module>.<name>, or be
one of UNREFERENCED, each kept for the reason it states. The list must match
the unreferenced definitions exactly, so it cannot go stale. obj.name with any
other obj does not count, so a method of the same name hides no dead function.
A name a module imports must be used in that module, where a string annotation
counts as a use. A method, property or class attribute (a name bound by = in a
class body) of a class, dunders aside, must be read as an attribute (obj.name)
somewhere in the package, or be one of UNREAD_ATTRIBUTES, each kept for the
reason it states; that list too must match exactly. A name a module binds at
module level with =, except the package metadata __version__, must be read:
in that module's own code, as <module>.<name>, or imported from it; so a
leftover private name is caught even where another module binds the same one.
No function is decorated with functools.lru_cache or functools.cache, so no
state is kept between reports; the per-instance cached_property is allowed.
No module takes a private name, one with a leading underscore, from another
module of the package, by import or as <module>._name: what two modules share
is public.
A field of a collections.namedtuple record must be read as an attribute
somewhere in the package, or be one of UNREAD_FIELDS, each kept for the reason
it states; that list too must match exactly.
No class defines __eq__, __hash__, __setattr__ or __delattr__, by def or by
assignment: value semantics come from collections.namedtuple alone.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "normlds"
MODULES = sorted(PACKAGE.glob("*.py"))
MODULE_NAMES = {path.stem for path in MODULES}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def annotation_names(tree):
    """Names in string annotations, such as -> "FieldElement"."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    annotations.append(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def used_names(tree):
    """Every name read in tree, bare or as <module>.<name> for a module of the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULE_NAMES
        ):
            names.add(node.attr)
    return names


# the module-level definitions that no module of the package references
UNREFERENCED = {
    "dkseq.match_dk_basis": "the paper's d_k basis match, a library entry point with no CLI option",
    "exactlinalg.complete_primitive": "traced by perfbench/tracer.py; the tests' oracle for lds_basis",
}

# the class members that no module of the package reads as an attribute
UNREAD_ATTRIBUTES = {
    "numberfield.NumberField._make": "namedtuple's _replace reads it, to build through __init__",
    "numberfield.ModuleBasis._make": "namedtuple's _replace reads it, to build through __new__",
}

# the record fields that no module of the package reads as an attribute
UNREAD_FIELDS = {
    "exactlinalg.HnfDecomposition.h": "primitive_reducer reads the witness c; only the tests read the form",
}

TREES = {path.stem: parse(path) for path in MODULES}
USED = set().union(*(used_names(tree) | annotation_names(tree) for tree in TREES.values()))


def definitions():
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}"


def imports():
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    yield f"{module}.{(alias.asname or alias.name).split('.')[0]}"


def attribute_reads(trees):
    """Every name read as obj.name in trees."""
    return {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def methods(trees):
    """module.Class.name of every method, property and class attribute that is not a dunder."""
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [name.id for target in targets for name in ast.walk(target)
                             if isinstance(name, ast.Name)]
                else:
                    continue
                for name in names:
                    if not (name.startswith("__") and name.endswith("__")):
                        yield f"{module}.{cls.name}.{name}"


def assignments(trees):
    """module.name of every name bound by = at module level, __version__ aside."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and name.id != "__version__":
                            yield f"{module}.{name.id}"


def reads_from(module, trees):
    """Names of module read in trees: bare in its own code, as <module>.<name>, or imported."""
    own = trees[module]
    names = {
        node.id
        for node in ast.walk(own)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    names |= annotation_names(own)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                names |= {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == module
            ):
                names.add(node.attr)
    return names


def record_fields(trees):
    """module.Record.field of every field of a class built on a collections.namedtuple call."""
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for base in cls.bases:
                if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple":
                    # the field names are one string or a list of strings
                    names = ast.literal_eval(base.args[1])
                    if isinstance(names, str):
                        names = names.replace(",", " ").split()
                    for name in names:
                        yield f"{module}.{cls.name}.{name}"


def cache_decorators(trees):
    """module.name of every function or class decorated with lru_cache or cache, called or bare."""
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = getattr(target, "attr", getattr(target, "id", ""))
                    if name in ("lru_cache", "cache"):
                        yield f"{module}.{node.name}"


VALUE_DUNDERS = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


def value_dunders(trees):
    """module.Class.name of every one of VALUE_DUNDERS a class defines, by def or by =."""
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [target.id for target in node.targets if isinstance(target, ast.Name)]
                else:
                    continue
                for name in names:
                    if name in VALUE_DUNDERS:
                        yield f"{module}.{cls.name}.{name}"


def private_imports(trees):
    """module.name of every underscore name a module takes from another module of the package.

    Imported by name (from .m import _x, from normlds.m import _x) or read as
    m._x for another module m of the package; dunders aside.
    """
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "normlds"
            ):
                names = [alias.name for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULE_NAMES - {module}
            ):
                names = [node.attr]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    yield f"{module}.{name}"


READ_ATTRIBUTES = attribute_reads(TREES)


@pytest.mark.parametrize("place", list(definitions()))
def test_definition_is_referenced_or_exported(place):
    """Referenced, or kept as one of UNREFERENCED."""
    name = place.split(".")[1]
    assert name in USED or place in UNREFERENCED, f"{place} is never referenced"


def test_the_unreferenced_list_is_exact():
    # a listed definition that gained a reference, or left the package, fails too
    unreferenced = {place for place in definitions() if place.split(".")[1] not in USED}
    assert unreferenced == set(UNREFERENCED)


@pytest.mark.parametrize("place", list(imports()))
def test_import_is_used(place):
    module, name = place.split(".")
    tree = TREES[module]
    assert name in used_names(tree) | annotation_names(tree), (
        f"{place} is imported but never used"
    )


@pytest.mark.parametrize("place", list(methods(TREES)))
def test_method_is_read_as_an_attribute(place):
    """Read as an attribute, or kept as one of UNREAD_ATTRIBUTES."""
    name = place.rsplit(".", 1)[1]
    assert name in READ_ATTRIBUTES or place in UNREAD_ATTRIBUTES, (
        f"{place} is never read as an attribute"
    )


def test_the_unread_attribute_list_is_exact():
    unread = {place for place in methods(TREES) if place.rsplit(".", 1)[1] not in READ_ATTRIBUTES}
    assert unread == set(UNREAD_ATTRIBUTES)


@pytest.mark.parametrize("place", list(assignments(TREES)))
def test_assignment_is_read(place):
    module, name = place.split(".")
    assert name in reads_from(module, TREES), f"{place} is assigned but never read"


def test_the_guard_sees_dead_code():
    tree = ast.parse("import os\nfrom math import gcd\n\ndef orphan():\n    return gcd(4, 6)\n")
    used = used_names(tree)
    assert "gcd" in used and "os" not in used and "orphan" not in used


def test_a_method_of_the_same_name_is_no_reference():
    source = (
        "def dk():\n"
        "    return 0\n\n"
        "class S:\n"
        "    def dk(self):\n"
        "        return 1\n\n"
        "S().dk()\n"
    )
    assert "dk" not in used_names(ast.parse(source))
    assert "dk" in used_names(ast.parse("coordseq.dk()\n"))
    assert "dk" in used_names(ast.parse("dk()\n"))
    assert "dk" in annotation_names(ast.parse('def f() -> "dkseq.dk":\n    pass\n'))


def test_the_guard_sees_an_orphan_method():
    source = (
        "class A:\n"
        "    def used(self):\n"
        "        return 1\n\n"
        "    @property\n"
        "    def orphan(self):\n"
        "        return self.used()\n\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    trees = {"m": ast.parse(source)}
    assert list(methods(trees)) == ["m.A.used", "m.A.orphan"]
    reads = attribute_reads(trees)
    assert "used" in reads and "orphan" not in reads


def test_the_guard_sees_an_unread_class_attribute():
    source = (
        "from collections import namedtuple\n\n"
        "class R(namedtuple('R', 'a')):\n"
        "    __slots__ = ()\n"
        "    _cache = {}\n"
        "    LIMIT: int = 3\n"
        "    _make = classmethod(lambda cls, fields: cls(*fields))\n\n"
        "    def __len__(self):\n"
        "        return self.LIMIT\n"
    )
    trees = {"m": ast.parse(source)}
    assert list(methods(trees)) == ["m.R._cache", "m.R.LIMIT", "m.R._make"]
    reads = attribute_reads(trees)
    assert "LIMIT" in reads and "_cache" not in reads and "_make" not in reads


def test_the_guard_sees_an_unread_assignment():
    trees = {
        "a": ast.parse("_set = object.__setattr__\n__version__ = '1'\n"),
        "b": ast.parse("_set = object.__setattr__\nLIMIT: int = 3\n_set(1, 'x', LIMIT)\n"),
        "c": ast.parse("from .a import _set\n"),
    }
    assert list(assignments(trees)) == ["a._set", "b._set", "b.LIMIT"]
    assert "_set" in reads_from("b", trees) and "LIMIT" in reads_from("b", trees)
    # a module's leftover _set is not read by another module's own _set
    assert "_set" not in reads_from("a", {"a": trees["a"], "b": trees["b"]})
    assert "_set" in reads_from("a", trees)
    assert "_set" in reads_from("a", {"a": trees["a"], "d": ast.parse("a._set\n")})


@pytest.mark.parametrize("place", list(record_fields(TREES)))
def test_record_field_is_read(place):
    """Read as an attribute, or kept as one of UNREAD_FIELDS."""
    name = place.rsplit(".", 1)[1]
    assert name in READ_ATTRIBUTES or place in UNREAD_FIELDS, f"{place} is never read"


def test_the_unread_field_list_is_exact():
    fields = record_fields(TREES)
    unread = {place for place in fields if place.rsplit(".", 1)[1] not in READ_ATTRIBUTES}
    assert unread == set(UNREAD_FIELDS)


def test_the_guard_sees_an_unread_field():
    source = (
        "from collections import namedtuple\n\n"
        "class R(namedtuple('R', 'kept orphan')):\n"
        "    __slots__ = ()\n\n"
        "class S(namedtuple('S', ['only'], defaults=(None,))):\n"
        "    pass\n\n"
        "def f(r, s):\n"
        "    kept, orphan = r\n"
        "    return r.kept, s.only\n"
    )
    trees = {"m": ast.parse(source)}
    assert list(record_fields(trees)) == ["m.R.kept", "m.R.orphan", "m.S.only"]
    reads = attribute_reads(trees)
    # unpacking a record reads no field by name
    assert "kept" in reads and "only" in reads and "orphan" not in reads


def test_no_function_keeps_a_cache_between_calls():
    assert list(cache_decorators(TREES)) == []


def test_the_guard_sees_a_cache_decorator():
    source = (
        "import functools\n"
        "from functools import cache, cached_property\n\n"
        "@functools.lru_cache(maxsize=1)\n"
        "def sieve(n):\n"
        "    return n\n\n"
        "@cache\n"
        "def table(n):\n"
        "    return n\n\n"
        "class A:\n"
        "    @functools.cache\n"
        "    def kept(self):\n"
        "        return 1\n\n"
        "    @cached_property\n"
        "    def own(self):\n"
        "        return 2\n"
    )
    assert list(cache_decorators({"m": ast.parse(source)})) == ["m.sieve", "m.table", "m.kept"]


def test_no_class_writes_its_own_value_semantics():
    assert list(value_dunders(TREES)) == []


def test_the_guard_sees_hand_written_value_semantics():
    source = (
        "from collections import namedtuple\n\n"
        "class Frozen:\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError(name)\n\n"
        "    __delattr__ = __setattr__\n\n"
        "class V(Frozen):\n"
        "    def __eq__(self, other):\n"
        "        return True\n\n"
        "    __hash__ = object.__hash__\n\n"
        "class R(namedtuple('R', 'a')):\n"
        "    __slots__ = ()\n\n"
        "    def __repr__(self):\n"
        "        return 'R'\n"
    )
    assert list(value_dunders({"m": ast.parse(source)})) == [
        "m.Frozen.__setattr__", "m.Frozen.__delattr__", "m.V.__eq__", "m.V.__hash__"
    ]


def test_no_module_takes_a_private_name_from_another():
    assert list(private_imports(TREES)) == []


def test_the_guard_sees_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from math import _private\n"
        "from . import coordseq\n"
        "from .basisforge import _quadratic_unit_trace, lds_basis\n"
        "from normlds.coordseq import _shift as shift\n"
        "from normlds import __version__\n\n"
        "def f(m):\n"
        "    return coordseq._lds_targets(m), m._own, coordseq.__doc__\n"
    )
    assert list(private_imports({"m": ast.parse(source)})) == [
        "m._quadratic_unit_trace", "m._shift", "m._lds_targets"
    ]
    # a module reads its own private names freely
    assert list(private_imports({"coordseq": ast.parse("coordseq._shift\n")})) == []
