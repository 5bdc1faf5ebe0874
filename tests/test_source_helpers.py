"""Every private helper a ``qecfabric`` module defines is read somewhere in ``src/``.

A private name (``_name``, not a dunder) promises that nothing outside the
package calls it, so one that nothing inside reads either is dead code that
a deletion left behind.  The check covers module-level functions, classes
and ``_NAME = ...`` assignments and the methods of module-level classes; a
read inside the helper's own definition (recursion, or the assigned value)
does not count.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qecfabric"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def reads(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
    return counts


def unread_private_helpers(sources: dict) -> list:
    """(module, name) of each private function, class, method or module-level
    assigned name that nothing in ``sources`` (module name -> source text)
    reads outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for module, tree in trees.items():
        helpers = []
        for node in tree.body:
            if isinstance(node, definitions):
                helpers.append(node)
            if isinstance(node, ast.ClassDef):
                helpers += [item for item in node.body if isinstance(item, definitions[:2])]
        for node in helpers:
            if _private(node.name) and total[node.name] == reads(node)[node.name]:
                unread.append((module, node.name))
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if _private(name) and total[name] == reads(node)[name]:
                    unread.append((module, name))
    return unread


def test_the_check_finds_an_unread_helper():
    sources = {
        "a": (
            "def _used():\n"
            "    return 1\n"
            "def _dead():\n"
            "    return _used()\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Unread:\n"
            "    pass\n"
            "class Box:\n"
            "    def __repr__(self):\n"
            "        return self._shown()\n"
            "    def _shown(self):\n"
            "        return ''\n"
            "    def _hidden(self):\n"
            "        return ''\n"
        ),
        "b": "print(_ElsewhereRead)\n",
        "c": "class _ElsewhereRead:\n    pass\n",
    }
    assert unread_private_helpers(sources) == [
        ("a", "_dead"), ("a", "_recursive"), ("a", "_Unread"), ("a", "_hidden"),
    ]


def test_the_check_finds_an_unread_private_constant():
    sources = {
        "a": (
            "_USED = 1\n"
            "_DEAD = _USED + 1\n"
            "_ANNOTATED: int = 2\n"
            "_PAIR_A, _PAIR_B = 3, 4\n"
            "__version__ = '0'\n"
            "PUBLIC = 5\n"
            "print(_PAIR_B)\n"
        ),
        "b": "_ELSEWHERE = 6\n",
        "c": "from a import _ELSEWHERE\nprint(_ELSEWHERE)\n",
    }
    assert unread_private_helpers(sources) == [
        ("a", "_DEAD"), ("a", "_ANNOTATED"), ("a", "_PAIR_A"),
    ]


def test_every_private_helper_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_helpers(sources) == []
