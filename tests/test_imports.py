"""The library's module attributes and imports.

The benchmark's tracer (``perfbench/tracer.py``) wraps functions at the
module attributes its ``TARGETS`` name, so each of them must resolve.  An
import that nothing in its module reads, and that ``__all__`` does not
export, is dead, unless its line is marked ``# noqa``: those are the names
the tracer wraps there, and a marked name the tracer does not wrap in its
module fails the check.  Every name ``gosyn.__all__`` exports resolves, once.
No module reads a private field (``_name``, not a dunder) of anything but
``self`` or ``cls``: each object keeps its own.  Every private module-level
name is read in its own module, and every public one is read by some
module or exported, so none is left behind when its last reader goes.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import gosyn

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gosyn").glob("*.py"))


def _tracer_targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [t for where, _ in tracer.TARGETS.values() for t in where]


TARGETS = _tracer_targets()


@pytest.mark.parametrize("target", TARGETS)
def test_tracer_target_resolves(target):
    modname, attr = target.split(":")
    assert callable(getattr(importlib.import_module(modname), attr))


def _marked_lines(text: str) -> set[int]:
    return {n for n, line in enumerate(text.splitlines(), start=1) if "# noqa" in line}


def _marked_imports(path: Path) -> list[str]:
    """``gosyn.<module>:<name>`` of each name imported on a ``# noqa`` line."""
    text = path.read_text()
    marked = _marked_lines(text)
    return sorted(f"gosyn.{path.stem}:{alias.asname or alias.name}"
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and node.lineno in marked
                  for alias in node.names)


def _unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    tree = ast.parse(text)
    exempt = _marked_lines(text)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node.lineno not in exempt:
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {e.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for e in node.value.elts}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used | exported)


def test_unused_import_check_sees_local_and_marked_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import json\nimport sys  # noqa\n__all__ = ['Path']\n"
                    "from pathlib import Path\n\ndef f():\n    import re\n    return json\n")
    assert _unused_imports(path) == ["mod.py:7 re"]
    assert _marked_imports(path) == ["gosyn.mod:sys"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def test_marked_imports_are_tracer_targets():
    marked = [t for path in SOURCES for t in _marked_imports(path)]
    assert marked and [t for t in marked if t not in TARGETS] == []


def _loads(path: Path, names: set[str]) -> list[str]:
    """Where a module reads one of ``names``, bare or as an attribute."""
    return sorted(f"{path.name}:{node.lineno} {ast.unparse(node)}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names
                  or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr in names)


def test_load_check_sees_bare_and_attribute_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import plays\nold = new = len\n\ndef f(x):\n"
                    "    return old(x) + plays.old(x) + new(x)\n")
    assert _loads(path, {"old"}) == ["mod.py:5 old", "mod.py:5 plays.old"]


MARKED = {t.split(":")[1] for path in SOURCES for t in _marked_imports(path)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_a_marked_import(path):
    """A name imported on a ``# noqa`` line is kept for the tracer alone."""
    assert _loads(path, MARKED) == []


def test_marked_imports_are_not_exported():
    assert MARKED and MARKED.isdisjoint(gosyn.__all__)


def test_public_names_resolve():
    assert [n for n in gosyn.__all__ if not hasattr(gosyn, n)] == []


def test_public_names_are_listed_once():
    assert len(set(gosyn.__all__)) == len(gosyn.__all__)


def _private_reads(path: Path) -> list[str]:
    return sorted(f"{path.name}:{node.lineno} {ast.unparse(node)}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not (node.attr.startswith("__") and node.attr.endswith("__"))
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))


def test_private_read_check_sees_other_objects_fields(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class A:\n    def f(self, other):\n        self._x = other._y\n"
                    "        other._z |= 1\n        return type(other).__name__, self._x\n")
    assert _private_reads(path) == ["mod.py:3 other._y", "mod.py:4 other._z"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_field_reads(path):
    assert _private_reads(path) == []


def _defined(tree: ast.Module) -> dict[str, int]:
    """The line of each module-level function, class and assigned name."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((n.id, node.lineno) for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
    return defined


def _unread_private_names(path: Path) -> list[str]:
    """Private module-level names (``_name``, not a dunder) that their module never reads."""
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{path.name}:{line} {name}" for name, line in _defined(tree).items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_unread_private_name_check_sees_module_level_names(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("_A = 1\n_B: int = 2\n__all__ = []\n\ndef _f():\n    _c = 3\n    return _B\n\n"
                    "class _K:\n    _d = _f\n")
    assert _unread_private_names(path) == ["mod.py:1 _A", "mod.py:9 _K"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_module_names_are_read(path):
    assert _unread_private_names(path) == []


def _unread_public_names(paths: list[Path], exported) -> list[str]:
    """Public module-level names that no module reads, bare or as an attribute,
    imports or exports."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = set(exported)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    return sorted(f"{path.name}:{line} {name}" for path, tree in trees.items()
                  for name, line in _defined(tree).items()
                  if not name.startswith("_") and name not in read)


def test_unread_public_name_check_sees_every_module(tmp_path):
    (tmp_path / "a.py").write_text("A = B = 1\n\ndef f():\n    return A\n\nclass K:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import f\n\ndef g(x):\n    return f(x.K)\n\nC = 2\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert _unread_public_names(paths, {"g"}) == ["a.py:1 B", "b.py:6 C"]


def test_public_module_names_are_read_or_exported():
    assert _unread_public_names(SOURCES, gosyn.__all__) == []
