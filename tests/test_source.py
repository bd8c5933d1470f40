"""Every name a crvanet module imports is used in that module, unless its
import line says noqa; __init__.py, which re-exports, is exempt. Every
private top-level name a module defines is read in that module. Both
checks also run over every module under tests/. Every parameter of every
function is read, except in overrides and hook stubs. Only
ChannelMap.schedule writes into su_next, so that every pending instant
also reaches the engine's agenda, and only schedule pushes onto that
agenda, which ChannelMap.__init__ alone binds."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "crvanet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
LINTED = MODULES + sorted(Path(__file__).resolve().parent.glob("*.py"))   # no name is in both


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, skipping __future__
    imports and import lines that say noqa."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unread_private_names(source: str) -> list[str]:
    """The private (one leading underscore) names `source` defines at top
    level, as a function, class or assignment target, and never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.setdefault(name.id, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


def test_unread_private_names_are_found():
    source = ("import math\n__all__ = ['f']\n_KEY_OF = {}\n_A, (_B, c) = 1, (2, 3)\n"
              "_T: int = 0\n_T = 1\n\n\ndef _helper():\n    _local = _B\n    return _local\n\n\n"
              "class _Unused:\n    _attr = 1\n\n\ndef f():\n    return _A\n")
    assert unread_private_names(source) == ["line 3: _KEY_OF", "line 5: _T", "line 9: _helper",
                                            "line 14: _Unused"]


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from dataclasses import (\n    dataclass,\n    field,  # noqa: F401\n)\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["line 2: math", "line 3: os", "line 6: dataclass"]


def _declared_by_base(tree: ast.Module, cls: ast.ClassDef, method: str) -> bool:
    """Whether a base class of `cls` declares `method`: a base defined in
    the same source, searched through its own bases, or one the source
    imports by name from another module, searched through its MRO."""
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    imported = {alias.asname or alias.name: ("." * node.level + (node.module or ""), alias.name)
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    for base in cls.bases:
        name = base.id if isinstance(base, ast.Name) else None
        if name in classes:
            local = classes[name]
            if (any(isinstance(node, ast.FunctionDef) and node.name == method
                    for node in local.body) or _declared_by_base(tree, local, method)):
                return True
        elif name in imported:
            module, attr = imported[name]
            found = getattr(importlib.import_module(module, "crvanet"), attr)
            if any(method in vars(k) for k in found.__mro__ if k is not object):
                return True
    return False


def _is_stub(body: list[ast.stmt]) -> bool:
    """A hook body: a docstring, `raise NotImplementedError`, or both."""
    for i, stmt in enumerate(body):
        doc = (i == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
               and isinstance(stmt.value.value, str))
        raised = stmt.exc if isinstance(stmt, ast.Raise) else None
        raised = raised.func if isinstance(raised, ast.Call) else raised
        if not doc and not (isinstance(raised, ast.Name) and raised.id == "NotImplementedError"):
            return False
    return True


def unread_parameters(source: str) -> list[str]:
    """The parameters (but self and cls) of functions in `source` that
    their bodies never read, skipping methods that override a base-class
    method, stub bodies and def lines that say noqa."""
    tree = ast.parse(source)
    lines = source.splitlines()
    owner = {id(node): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        if ("noqa" in lines[node.lineno - 1] or _is_stub(node.body)
                or (cls is not None and _declared_by_base(tree, cls, node.name))):
            continue
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg] if a]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [(node.lineno, f"line {node.lineno}: {node.name}({param})") for param in params
                  if param not in read and param not in ("self", "cls")]
    return [entry for _, entry in sorted(found, key=lambda item: item[0])]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameters_are_found():
    source = ("from numpy.random.bit_generator import ISeedSequence\n\n\n"
              "class Base:\n"
              "    def hook(self, a):\n        \"\"\"A hook.\"\"\"\n\n"
              "    def stub(self, a):\n        raise NotImplementedError\n\n\n"
              "class Child(Base):\n"
              "    def hook(self, a):\n        return 1\n\n"
              "    def other(self, b):\n        return 2\n\n\n"
              "class Words(ISeedSequence):\n"
              "    def __init__(self, words):\n        pass\n\n"
              "    def generate_state(self, n_words, dtype=None):\n        return 0\n\n\n"
              "def f(x, *args, y, **kw):\n"
              "    def inner(z):\n        return x + z\n    return inner\n\n\n"
              "def g(unused):  # noqa: ARG001\n    return 0\n")
    assert unread_parameters(source) == ["line 16: other(b)", "line 21: __init__(words)",
                                         "line 28: f(args)", "line 28: f(y)", "line 28: f(kw)"]


def _scoped_nodes(source: str):
    """Every node of `source`, depth first, with the dotted names of the
    classes and functions around it ("" at module level)."""
    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield node, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(ast.parse(source), "")


def _named(node, name: str) -> bool:
    """Whether node is `x.<name>` or a name called `name`."""
    return ((isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.Name) and node.id == name))


def su_next_writes(source: str) -> list[str]:
    """Writes into su_next outside ChannelMap.schedule: a (possibly
    augmented or tuple) assignment into `x.su_next[...]`, or into a
    subscript of any name called su_next, and any rebinding of
    `x.su_next` but ChannelMap.__init__'s."""
    found = []
    for node, scope in _scoped_nodes(source):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        for target in targets:
            for part in ast.walk(target):
                if isinstance(part, ast.Subscript) and _named(part.value, "su_next"):
                    if scope != "ChannelMap.schedule":
                        found.append(f"line {part.lineno}: {scope or '<module>'}")
                elif (isinstance(part, ast.Attribute) and part.attr == "su_next"
                      and isinstance(part.ctx, ast.Store) and scope != "ChannelMap.__init__"):
                    found.append(f"line {part.lineno}: {scope or '<module>'}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_schedule_writes_su_next(path):
    assert su_next_writes(path.read_text()) == []


def test_su_next_writes_are_found():
    source = ("class ChannelMap:\n"
              "    def __init__(self):\n        self.su_next = [0.0]\n\n"
              "    def schedule(self, v, t):\n        self.su_next[v] = t\n\n\n"
              "def step(cmap, v):\n    cmap.su_next[v] = 1.0\n    cmap.su_next[:] += 1\n"
              "    su_next = cmap.su_next\n    x, su_next[v] = 3, 2.0\n"
              "    cmap.su_next = None\n    y: float = su_next[v]\n\n\n"
              "class Other:\n    def __init__(self, cmap):\n        self.su_next = cmap.su_next\n")
    assert su_next_writes(source) == ["line 10: step", "line 11: step", "line 13: step",
                                      "line 14: step", "line 20: Other.__init__"]


HEAP_PUSHES = {"heappush", "heappushpop", "heapreplace", "heapify"}
LIST_PUSHES = {"append", "extend", "insert"}


def _pushes_onto_agenda(node) -> bool:
    """Whether node pushes onto `x.agenda` or a name called agenda: a
    heapq push or heapify, a list append, extend or insert, or an
    assignment into a subscript. Popping is reading."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.ctx, ast.Store) and _named(node.value, "agenda")
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in LIST_PUSHES:
        return _named(func.value, "agenda")
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in HEAP_PUSHES and bool(node.args) and _named(node.args[0], "agenda")


def agenda_writes(source: str) -> list[str]:
    """Writes to the agenda outside ChannelMap: any rebinding of
    `x.agenda` but ChannelMap.__init__'s, and any push onto it but
    ChannelMap.schedule's."""
    found = []
    for node, scope in _scoped_nodes(source):
        if (isinstance(node, ast.Attribute) and node.attr == "agenda"
                and isinstance(node.ctx, ast.Store)):
            writer = "ChannelMap.__init__"
        elif _pushes_onto_agenda(node):
            writer = "ChannelMap.schedule"
        else:
            continue
        if scope != writer:
            found.append(f"line {node.lineno}: {scope or '<module>'}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_schedule_pushes_onto_the_agenda(path):
    assert agenda_writes(path.read_text()) == []


def test_agenda_writes_are_found():
    source = ("class ChannelMap:\n"
              "    def __init__(self):\n        self.agenda = []\n\n"
              "    def schedule(self, v, t):\n        heapq.heappush(self.agenda, (t, v))\n\n\n"
              "def run(cmap):\n    agenda = cmap.agenda = []\n    heapq.heapify(agenda)\n"
              "    cmap.agenda.append((0.0, 1))\n    agenda[0] = (1.0, 2)\n"
              "    heapq.heappop(agenda)\n    x = cmap.agenda[0]\n\n\n"
              "class Other:\n    def __init__(self, cmap):\n        self.agenda = cmap.agenda\n")
    assert agenda_writes(source) == ["line 10: run", "line 11: run", "line 12: run",
                                     "line 13: run", "line 20: Other.__init__"]
