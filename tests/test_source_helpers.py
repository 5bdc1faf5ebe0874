"""Every name a ``qecfabric`` module defines is read somewhere in ``src/``.

A definition that nothing reads is dead code that a deletion left behind,
or a wrapper, export or test reference kept in the package for nobody in
it.  The check covers module-level functions, classes and assigned names
and the non-dunder methods of module-level classes, public or private; a
read inside the definition itself (recursion, or the assigned value) does
not count.  Nor does a read in ``__init__.py``: its imports already are the
package's export list, so a name that only it reads is run by nothing.

A private name (``_name``) promises that nothing outside the package calls
it, so it must be read in ``src/``.  A public name that only code outside
``src/`` reads is allow-listed below with that reader named; tests are not
such readers, since a test reference belongs in ``tests/reference.py``.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qecfabric"

#: (module, name) of each public definition no code in ``src/`` reads, with its reader.
READ_OUTSIDE_SRC = {
    ("code_model.py", "DecodingGraph.incidence_matrix"):
        "bench/tracer.py TARGETS: the graph-build span",
    ("fabric_sim.py", "Simulator.on"):
        "bench/tracer.py install(): wraps each handler as it is registered",
    ("fabric_sim.py", "Simulator.run_all"): "bench/tracer.py TARGETS: the engine span",
    ("uf_decoder.py", "is_logical_failure"): "bench/tracer.py TARGETS: the logical-check span",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _private(name: str) -> bool:
    """Whether a name, or a ``Class.method`` name's method part, is private."""
    name = name.rpartition(".")[2]
    return name.startswith("_") and not _dunder(name)


def reads(tree: ast.AST) -> Counter:
    """How often each name is read: ``name`` as a bare name, ``.name`` as an attribute."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts["." + node.attr] += 1
    return counts


def unread_definitions(sources: dict) -> list:
    """(module, name) of each function, class, method (as ``Class.method``) or
    module-level assigned name, dunders aside, that nothing in ``sources``
    (module name -> source text) reads outside its own definition; reads in
    ``__init__.py`` do not count.  A method counts as read only as an
    attribute, so a local variable of the same name does not hide it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((reads(tree) for module, tree in trees.items() if module != "__init__.py"),
                Counter())
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for module, tree in trees.items():
        named = []  # (reported name, its keys in ``reads``, defining node)
        for node in tree.body:
            if isinstance(node, definitions):
                named.append((node.name, (node.name, "." + node.name), node))
            if isinstance(node, ast.ClassDef):
                named += [(f"{node.name}.{item.name}", ("." + item.name,), item)
                          for item in node.body if isinstance(item, definitions[:2])]
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            named += [(n.id, (n.id, "." + n.id), node) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
        for name, keys, node in named:
            own = reads(node)
            if (not _dunder(name.rpartition(".")[2])
                    and sum(total[k] for k in keys) == sum(own[k] for k in keys)):
                unread.append((module, name))
    return unread


def unexplained(sources: dict, read_outside: dict) -> list:
    """What the check reports: each unread definition that is private or that
    ``read_outside`` does not name, then each stale ``read_outside`` entry (the
    sources read it now, or it is gone)."""
    unread = unread_definitions(sources)
    return ([d for d in unread if _private(d[1]) or d not in read_outside]
            + [d for d in read_outside if d not in unread])


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
    assert unread_definitions(sources) == [
        ("a", "_dead"), ("a", "_recursive"), ("a", "_Unread"), ("a", "Box"), ("a", "Box._hidden"),
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
    assert unread_definitions(sources) == [
        ("a", "_DEAD"), ("a", "_ANNOTATED"), ("a", "_PAIR_A"), ("a", "PUBLIC"),
    ]


def test_the_check_finds_a_public_function_read_only_in_init():
    sources = {
        "__init__.py": "from .a import exported, used\nDEFAULT = exported()\n",
        "a.py": "def exported():\n    return 1\ndef used():\n    return 2\n",
        "b.py": "from .a import used\nprint(used())\n",
    }
    assert unread_definitions(sources) == [("__init__.py", "DEFAULT"), ("a.py", "exported")]


def test_the_check_finds_a_public_method_read_only_inside_itself():
    sources = {
        "a.py": (
            "class Tree:\n"
            "    def depth(self):\n"
            "        return 1 + max((c.depth() for c in self.children), default=0)\n"
            "    def size(self):\n"
            "        return 1\n"
            "print(Tree().size())\n"
        ),
    }
    assert unread_definitions(sources) == [("a.py", "Tree.depth")]


def test_a_method_is_read_only_as_an_attribute():
    sources = {
        "a.py": (
            "class Pattern:\n"
            "    def weight(self):\n"
            "        return 1\n"
            "    def size(self):\n"
            "        return 2\n"
            "def total(weight, size):\n"
            "    return weight + size + Pattern().size()\n"
            "print(total(1, 2))\n"
        ),
    }
    assert unread_definitions(sources) == [("a.py", "Pattern.weight")]


def test_the_check_finds_a_public_constant_that_nothing_reads():
    sources = {"a.py": "LIMIT = 3\nUSED: int = 4\nprint(USED)\n"}
    assert unread_definitions(sources) == [("a.py", "LIMIT")]


def test_a_public_name_passes_only_through_a_live_allow_list_entry():
    sources = {
        "a.py": (
            "def for_bench():\n    return 1\n"
            "def _for_bench():\n    return 2\n"
            "def now_read():\n    return 3\n"
            "print(now_read())\n"
        ),
    }
    readers = {("a.py", "for_bench"): "bench", ("a.py", "_for_bench"): "bench"}
    assert unexplained(sources, readers) == [("a.py", "_for_bench")]
    stale = {**readers, ("a.py", "now_read"): "bench", ("a.py", "gone"): "bench"}
    assert unexplained(sources, stale) == [
        ("a.py", "_for_bench"), ("a.py", "now_read"), ("a.py", "gone"),
    ]


def test_every_private_helper_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [d for d in unread_definitions(sources) if _private(d[1])] == []


def test_every_public_name_is_read_in_src_or_by_a_named_reader():
    # the allow-list also goes stale when one of its names is deleted or read in src/
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unexplained(sources, READ_OUTSIDE_SRC) == []
