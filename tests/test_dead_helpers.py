"""A guard against dead private helpers: every underscore-prefixed
(non-dunder) function, class and method in ``src/braceflow`` is
referenced somewhere in ``src/braceflow`` (as a name, an attribute or an
import) outside its own definition.  Names are matched, not bindings, so
the guard can miss a dead helper that shares its name with a live one,
but never flags a live one."""

import ast

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "braceflow"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _referenced_names(node):
    """Every name that ``node``'s subtree references, once per reference."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.split(".")[-1]


def _unreferenced(sources):
    """(helpers, dead): the number of private functions, classes and
    methods defined in ``sources`` ({file: source}), and the (file, name)
    of each one referenced nowhere in them but in its own body."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    counts = {}
    for tree in trees.values():
        for name in _referenced_names(tree):
            counts[name] = counts.get(name, 0) + 1
    helpers, dead = 0, []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and _private(node.name)):
                helpers += 1
                own = sum(name == node.name for name in _referenced_names(node))
                if counts.get(node.name, 0) == own:
                    dead.append((path, node.name))
    return helpers, dead


def test_every_private_helper_has_a_reference():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    helpers, dead = _unreferenced(sources)
    assert helpers > 50  # the guard sees the package's helpers
    assert dead == []


def test_guard_flags_orphans_and_self_references_only():
    sources = {
        "a.py": ("def _orphan():\n    return 1\n\n"
                 "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
                 "def _called():\n    return 2\n\n"
                 "class _Kernel:\n    def _method(self):\n        return _called()\n\n"
                 "    def __init__(self):\n        pass\n"),
        "b.py": ("from .a import _Kernel\n\n"
                 "def public(k):\n    return k._method()\n"),
    }
    helpers, dead = _unreferenced(sources)
    assert helpers == 5
    assert dead == [("a.py", "_orphan"), ("a.py", "_recursive")]
