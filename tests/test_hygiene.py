"""Source checks over src/realcoh: no `assert` statements (they vanish under
`python -O`; checks raise coded errors instead), no imported name that is
never read, no function, class or method that no module of the package
reads, outside a short list of entry points kept for the acceptance
criteria and the reference checks, no instance attribute that is set and
never read, no dataclass field that is never read, no parameter that its
function never reads, and no write to a field element's normal form after
its constructor."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "realcoh")
                 .glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


# FieldTower.zero() hands out one shared element, so the normal form of an
# element must never change after FieldElement.__init__ has set it.
_NORMAL_FORM = {"_num", "_den"}
_DICT_WRITES = {"clear", "pop", "popitem", "setdefault", "update"}


def _normal_form_stores(tree):
    """Lines that assign, augment or delete `._num` or `._den`, or an item
    of them, or call a writing dict method on them, outside
    FieldElement.__init__."""
    exempt = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "FieldElement"
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
              for node in ast.walk(fn)}

    def normal_form(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in _NORMAL_FORM

    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        written = isinstance(node, (ast.Attribute, ast.Subscript)) and \
            isinstance(node.ctx, (ast.Store, ast.Del)) and normal_form(node)
        called = isinstance(node, ast.Call) and \
            isinstance(node.func, ast.Attribute) and \
            node.func.attr in _DICT_WRITES and normal_form(node.func.value)
        if written or called:
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_store_to_normal_form(path):
    lines = _normal_form_stores(ast.parse(path.read_text()))
    assert lines == [], f"{path.name}: _num or _den written on lines {lines}"


@pytest.mark.parametrize("source", [
    "x._num = {}", "x._den = 2", "x._num[m] = 1", "x._num[m] += 1",
    "x._den += 1", "del x._num[m]", "del x._num", "x._num.update(d)",
    "x._num.pop(m)", "(a, x._den) = (1, 2)", "for x._den in r: pass",
    "class FieldElement:\n    def other(self):\n        self._num = {}",
])
def test_normal_form_store_is_found(source):
    assert _normal_form_stores(ast.parse(source)) != []


def test_normal_form_reads_are_not_stores():
    source = ("class FieldElement:\n"
              "    def __init__(self, num, den):\n"
              "        self._num = num\n"
              "        self._den = den\n"
              "y = x._num.get(m, 0) + x._den\n"
              "z = {k: c for k, c in x._num.items()}\n"
              "w = dict(x._num)\n"
              "w[m] = 1\n")
    assert _normal_form_stores(ast.parse(source)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_imports(path):
    tree = ast.parse(path.read_text())
    unread = sorted(set(_imported_names(tree)) - _read_names(tree))
    assert unread == [], f"{path.name}: imported but never read: {unread}"


# Defined in src/realcoh and reached only from tests, on purpose.
KEPT_FOR_TESTS = {
    "tate": "criteria 02 and 04 compute Tate cohomology directly",
    "connecting": "the one-module case of connecting_hyper, checked on "
                  "0 -> Z -> Z -> Z/2 -> 0 in test_gammacoh",
    "connecting_hyper": "criterion 10 checks exactness through it",
    "sansuc_lift": "criterion 09 round-trips the unipotent-radical lift",
    "sansuc_transport": "criterion 09 transports classes along the "
                        "retraction",
    "Subquotient.is_zero_class": "criteria 04 and 10 test classes for zero",
    "GammaModule.finite": "the finite Gamma-modules of the Tate and "
                          "connecting-map tests",
    "GammaModule.free": "criteria 02, 04 and 10 build their modules with it",
    "FieldElement.complex_approx": "oracle in test_monomial_products",
    "purify": "oracle in test_perp_perp_is_pure_closure",
    "TorusPresentation.cocharacter_module": "test_torus checks it against "
                                            "tate",
    "LieAlgebraDatum.real_form": "test_real_form_flag checks the closure "
                                 "under conjugation",
    "chevalley_cover": "criterion 06 and test_h2nab pass the center it lists "
                       "to neutralize_reductive; no catalog entry needs it",
}

# Instance attributes set as `self.X = ...` in src/realcoh and read only
# from tests, on purpose, as "file: X" -> reason.
UNREAD_ATTRIBUTES_KEPT = {}


def _definitions(tree):
    """(qualified name, name, node) of module-level functions and classes
    and of the non-dunder methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and \
                        not (sub.name.startswith("__")
                             and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _module_aliases(tree):
    """Names bound to a module, by `import m` or `from . import m`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            for alias in node.names:
                yield alias.asname or alias.name


def _reads(tree):
    """(name, line, how) for every name, attribute or imported name read.

    how is "name" for a bare name or a `from ... import`, "module" for an
    attribute of an imported module, and "attr" for any other attribute."""
    modules = set(_module_aliases(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            on_module = isinstance(node.value, ast.Name) and \
                node.value.id in modules
            yield node.attr, node.lineno, "module" if on_module else "attr"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, "name"


def test_no_unread_definitions():
    """A module-level function or class is read through its bare name, an
    import of it or an attribute of its module; a method only through an
    attribute.  A local variable or an attribute of some object that shares
    a function's name does not count."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    reads = {name: list(_reads(tree)) for name, tree in trees.items()}
    dead = []
    for fname, tree in trees.items():
        for qual, name, node in _definitions(tree):
            ways = ("attr", "module") if "." in qual else ("name", "module")
            # a read inside the definition itself (recursion) does not count
            used = any(
                n == name and how in ways and
                not (f == fname and node.lineno <= line <= node.end_lineno)
                for f, rs in reads.items() for n, line, how in rs)
            if not used and qual not in KEPT_FOR_TESTS:
                dead.append(f"{fname}: {qual}")
    assert dead == [], f"defined but never read in src/realcoh: {dead}"


def test_kept_for_tests_names_exist():
    defined = {qual for path in SOURCES
               for qual, _, _ in _definitions(ast.parse(path.read_text()))}
    assert sorted(set(KEPT_FOR_TESTS) - defined) == []


def test_no_unread_instance_attributes():
    """Every attribute assigned as `self.X = ...` is read as `.X` somewhere
    in the package; the read may be on any object, since an attribute is
    read through whatever name holds the instance."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = sorted(
        {f"{fname}: {node.attr}" for fname, tree in trees.items()
         for node in ast.walk(tree)
         if isinstance(node, ast.Attribute)
         and isinstance(node.ctx, ast.Store)
         and isinstance(node.value, ast.Name) and node.value.id == "self"
         and node.attr not in read}
        - set(UNREAD_ATTRIBUTES_KEPT))
    assert unread == [], f"set but never read in src/realcoh: {unread}"


# Dataclass fields in src/realcoh read only from tests, on purpose, as
# "Class.field" -> reason.
FIELDS_KEPT_FOR_TESTS = {}


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(tree):
    """(class name, field name) of every annotated field of a @dataclass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def test_no_unread_dataclass_fields():
    """Every field of a dataclass is read as `.field` somewhere in the
    package, on any object, or is kept for tests with a reason.  A call
    `.name(...)` of a name that is also a method of some class counts as a
    call of that method, not as a read."""
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    methods = {sub.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               for sub in node.body if isinstance(sub, ast.FunctionDef)}
    called = {id(node.func) for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and not (id(node) in called and node.attr in methods)}
    fields = {f"{cls}.{name}": name for tree in trees
              for cls, name in _dataclass_fields(tree)}
    assert sorted(set(FIELDS_KEPT_FOR_TESTS) - set(fields)) == []
    unread = sorted(qual for qual, name in fields.items()
                    if name not in read and qual not in FIELDS_KEPT_FOR_TESTS)
    assert unread == [], f"dataclass fields never read in src/realcoh: " \
                         f"{unread}"


def test_no_unread_parameters():
    """Every parameter of a function or method, other than self and cls, is
    read in that function's body (a nested function's read counts)."""
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {n.id for stmt in body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{node.lineno} {name}({p})"
                       for p in params
                       if p not in ("self", "cls") and p not in loaded]
    assert unread == [], f"parameters never read in src/realcoh: {unread}"
