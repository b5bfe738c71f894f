"""Every module-level function and class of `src/pbsym` has a use in the
program: a reference to it in `src/` or `perfbench/`.  A reference is a
name, an attribute or a string constant (``perfbench/tracing.py`` wraps
functions by their names as strings).  Code that only tests call belongs
in the tests.  Uses only ``ast`` from the standard library."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _definitions():
    """(module, name) of each module-level function and class."""
    for path, tree in _trees("src/pbsym"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield path.stem, node.name


def _references():
    names = set()
    for _path, tree in _trees("src", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.add(node.value)
    return names


def test_every_definition_in_src_is_referenced_by_the_program():
    used = _references()
    unused = ["%s.%s" % (module, name) for module, name in _definitions()
              if name not in used]
    assert not unused, "defined in src/pbsym but used only by tests: %s" % (
        ", ".join(unused))
