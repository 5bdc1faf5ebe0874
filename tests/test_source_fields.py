"""Every attribute a ``qecfabric`` method stores on ``self`` is read somewhere in
``src/``, only run state is stored after construction, and no attribute is a
copy of a config value.

A field that is written and never read costs memory and a reader's time
and tells nothing.  The check matches by attribute name: a load of
``<anything>.<name>`` anywhere in ``src/`` counts as a read, and an
augmented assignment (``self.n += 1``) does not.  A field that only tests
read is not kept: the tests read what ``src/`` reads.

A field a method sets after ``__init__`` or ``__post_init__`` is a record of
the last call, which the next call overwrites; only the run state listed
below may be one.

A field that copies a config value (``self.seed = config.seed``) is a second
name for a value the object can read off the config it keeps, and the two
can only drift apart.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qecfabric"

#: ``Class.name`` of each field a method other than ``__init__`` or
#: ``__post_init__`` stores: the time and event counter a simulation advances,
#: and the fused edges a decode's growth appends to.
RUN_STATE = {"Pipeline.now", "Simulator.now", "Simulator._seq", "ClusterState.full_edges"}


def unread_fields(sources: dict) -> list:
    """(module, line, name) of each ``self.<name> = ...`` store whose name no
    expression in ``sources`` (module name -> source text) loads as an attribute."""
    stored, loaded = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.append((module, node.lineno, node.attr))
    return [(module, line, name) for module, line, name in stored if name not in loaded]


def test_the_check_finds_a_planted_unread_field():
    source = (
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self.total = 0\n"
        "        self.calls = 0\n"
        "        self.label = 'c'\n"
        "    def add(self, n):\n"
        "        self.calls += 1\n"
        "        self.total = self.total + n\n"
        "        return self.total\n"
        "def name(counter):\n"
        "    return counter.label\n"
    )
    assert unread_fields({"counter": source}) == [("counter", 4, "calls"), ("counter", 7, "calls")]


def test_every_stored_field_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_fields(sources) == []


def late_stores(sources: dict) -> set:
    """``Class.name`` of each ``self.<name>`` store, augmented ones included, in a
    method of ``Class`` other than ``__init__`` and ``__post_init__``, over
    ``sources`` (module name -> source text)."""
    found = set()
    for source in sources.values():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name in (
                    "__init__", "__post_init__"
                ):
                    continue
                found |= {
                    f"{cls.name}.{node.attr}" for node in ast.walk(method)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                }
    return found


def test_the_check_finds_a_planted_late_store():
    source = (
        "class Shots:\n"
        "    def __init__(self):\n"
        "        self.now = 0\n"
        "    def __post_init__(self):\n"
        "        self.seed = 1\n"
        "    def run(self, other):\n"
        "        self.now += 1\n"
        "        other.last = self.now\n"
        "        self.last = self.now\n"
    )
    assert late_stores({"shots": source}) == {"Shots.now", "Shots.last"}


def test_only_run_state_is_stored_after_construction():
    # the set also goes stale when one of its fields stops being stored late
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert late_stores(sources) - RUN_STATE == set()
    assert late_stores(sources) == RUN_STATE


def config_copies(sources: dict) -> list:
    """(module, line, name) of each ``self.<name> = config.<field>`` (or
    ``self.config.<field>``) store over ``sources`` (module name -> source text)."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
                    and ast.unparse(node.value.value) in ("config", "self.config")):
                found += [(module, node.lineno, target.attr) for target in node.targets
                          if isinstance(target, ast.Attribute) and ast.unparse(target.value) == "self"]
    return found


def test_the_check_finds_a_planted_config_copy():
    source = (
        "class Run:\n"
        "    def __init__(self, config):\n"
        "        self.config = config\n"
        "        self.seed = config.seed\n"
        "        self.rounds = self.config.effective_rounds\n"
        "        self.shots = 2 * config.shots\n"
        "        self.graph = build(config.distance)\n"
        "        seed = config.seed\n"
    )
    assert config_copies({"run": source}) == [("run", 4, "seed"), ("run", 5, "rounds")]


def test_no_field_copies_a_config_value():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert config_copies(sources) == []
