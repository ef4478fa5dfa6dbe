"""Docstring coverage of the documented packages, with the stdlib only.

CI runs ``ruff check --select D100,D101,D102,D103,D104`` on
``src/repro/{store,faults,shard,prov,obs}``; this test applies the same five
rules with :mod:`ast`, so a missing docstring fails tier-1 too:

* D100/D104 — a public module / a package ``__init__`` without one;
* D101 — a public class (nested classes count when every enclosing
  class is public);
* D102 — a public method: no leading underscore, or ``__new__`` /
  ``__call__``; setters, deleters, ``@overload`` and ``@override`` are
  exempt, other magic methods and ``__init__`` belong to D105/D107;
* D103 — a public module-level function (also inside ``if``/``try``).

A module whose name starts with one underscore is private, and where a
module defines ``__all__`` only the names in it are public. Functions
nested in functions are never public.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
PACKAGES = ("store", "faults", "shard", "prov", "obs")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(node):
    """Function and class definitions in ``node``'s own scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            yield child
        elif not isinstance(child, ast.expr):
            yield from _definitions(child)


def _exports(tree):
    """The names in a module-level ``__all__`` list, or ``None``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            return {element.value for element in node.value.elts}
    return None


def _exempt_method(node):
    for decorator in node.decorator_list:
        text = ast.unparse(decorator)
        if text.rsplit(".", 1)[-1] in ("overload", "override") or text in (
                f"{node.name}.setter", f"{node.name}.deleter"):
            return True
    return False


def _public_method(node):
    if _exempt_method(node):
        return False
    return not node.name.startswith("_") or node.name in ("__new__",
                                                          "__call__")


def _class_gaps(node, public, where):
    if public and ast.get_docstring(node) is None:
        yield f"{where}:{node.lineno}: D101 {node.name}"
    for child in _definitions(node):
        if isinstance(child, ast.ClassDef):
            yield from _class_gaps(
                child, public and not child.name.startswith("_"), where)
        elif (public and _public_method(child)
              and ast.get_docstring(child) is None):
            yield f"{where}:{child.lineno}: D102 {node.name}.{child.name}"


def docstring_gaps(path, where):
    """Every D100-D104 finding in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stem = path.stem
    private_module = stem.startswith("_") and not stem.startswith("__")
    if ast.get_docstring(tree) is None and not private_module:
        yield f"{where}:1: {'D104' if stem == '__init__' else 'D100'}"
    exports = _exports(tree)
    for node in _definitions(tree):
        public = (not private_module and not node.name.startswith("_")
                  and (exports is None or node.name in exports))
        if isinstance(node, ast.ClassDef):
            yield from _class_gaps(node, public, where)
        elif (public and not _exempt_method(node)
              and ast.get_docstring(node) is None):
            yield f"{where}:{node.lineno}: D103 {node.name}"


def test_documented_packages_have_every_docstring():
    gaps = []
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            gaps.extend(docstring_gaps(path, path.relative_to(SRC.parent)))
    assert gaps == []


TOY = '''\
"""A module."""
__all__ = ["Shown", "shown"]


def shown():
    pass


def hidden():
    pass


class Shown:
    def method(self):
        pass

    def __call__(self):
        pass

    def __repr__(self):
        pass

    @property
    def value(self):
        """Documented."""

    @value.setter
    def value(self, new):
        pass

    class Inner:
        def method(self):
            pass

    class _Private:
        def method(self):
            pass


if True:
    def conditional():
        pass
'''


def test_the_rules_on_a_toy_module(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    assert list(docstring_gaps(path, "toy.py")) == [
        "toy.py:5: D103 shown",
        "toy.py:13: D101 Shown",
        "toy.py:14: D102 Shown.method",
        "toy.py:17: D102 Shown.__call__",
        "toy.py:31: D101 Inner",
        "toy.py:32: D102 Inner.method",
    ]
    (tmp_path / "__init__.py").write_text("X = 1\n")
    (tmp_path / "_private.py").write_text("def f():\n    pass\n")
    assert list(docstring_gaps(tmp_path / "__init__.py", "p")) == ["p:1: D104"]
    assert list(docstring_gaps(tmp_path / "_private.py", "q")) == []
    (tmp_path / "plain.py").write_text("def f():\n    pass\n")
    assert list(docstring_gaps(tmp_path / "plain.py", "r")) == [
        "r:1: D100", "r:1: D103 f"]
