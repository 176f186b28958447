"""Static checks on the package's own source files, by the stdlib's ``ast``."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

import sphereflows

SOURCES = sorted(Path(sphereflows.__file__).parent.glob("*.py"))


def _imported(tree) -> dict:
    """Each name a module-level or nested import binds, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree) -> set:
    """Names the module reads: loaded names, names inside string
    annotations, and the entries of ``__all__``."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read |= _read(ast.parse(note.value, mode="eval"))
    return read


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in _imported(tree).items() if name not in read]
    assert unused == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_an_alpha_attribute(path):
    # past the constructor the partner of dart d is d ^ 1; the public
    # ``alpha`` property is kept for callers outside the package
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("alpha", "_alpha")]
    assert reads == []


# namedtuple's public API is spelled with a leading underscore
NAMEDTUPLE_API = {"_asdict", "_fields", "_replace", "_make"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_an_underscore_attribute_of_another_object(path):
    # a map's cells are public, so each fact has one spelling and no
    # module reaches past another object's interface
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr.startswith("_")
             and not (node.attr.startswith("__") and node.attr.endswith("__"))
             and node.attr not in NAMEDTUPLE_API
             and not (isinstance(node.value, ast.Name)
                      and node.value.id in ("self", "cls", "other"))]
    assert reads == []


RANGE_ERRORS = {"EdgeCountOutOfRangeError", "SaddleCountOutOfRangeError"}


def test_only_main_catches_the_count_range_errors():
    # main turns a bad edge or saddle count into exit 2, so no command
    # states that rule again
    path = Path(sphereflows.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    catches = [f"cli.py:{handler.lineno} in {func.name}"
               for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and func.name != "main"
               for handler in ast.walk(func)
               if isinstance(handler, ast.ExceptHandler) and handler.type
               and {node.id for node in ast.walk(handler.type)
                    if isinstance(node, ast.Name)} & RANGE_ERRORS]
    assert catches == []


ROLE = re.compile(r":(?:func|meth|attr|class|mod):`([^`]+)`")


def _defined(body) -> set:
    """The names the statements ``body`` define at their own level."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            names |= {t.id for t in ast.walk(node)
                      if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
    return names


def _targets(tree) -> set:
    """What a docstring of the module may cross-reference: its module-level
    names, and the attributes of each class it defines, bare and as
    ``Class.attr``; an attribute is a name the class body defines or one
    its methods assign on ``self``."""
    names = _defined(tree.body) | set(_imported(tree))
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            attrs = _defined(cls.body) | {
                t.attr for t in ast.walk(cls)
                if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                and isinstance(t.value, ast.Name) and t.value.id == "self"}
            names |= attrs | {f"{cls.name}.{attr}" for attr in attrs}
    return names


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _unresolved_references(source: str, name: str) -> list:
    """Each ``:role:`target``` in a docstring of ``source`` that names no
    module and nothing :func:`_targets` lists."""
    tree = ast.parse(source)
    targets = _targets(tree)
    return [f"{name}:{getattr(node, 'lineno', 1)} {match.group(0)}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            for match in ROLE.finditer(ast.get_docstring(node) or "")
            if match.group(1) not in targets and not _is_module(match.group(1))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_docstring_cross_references_resolve(path):
    assert _unresolved_references(path.read_text(), path.name) == []


def test_a_stale_cross_reference_is_caught():
    source = ('def kernel():\n'
              '    """Runs :func:`_retired`, not :func:`kernel`."""\n')
    assert _unresolved_references(source, "m.py") == [
        "m.py:1 :func:`_retired`"]
