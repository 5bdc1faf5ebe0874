"""Every name a ``qecfabric`` module imports is used in it or marked ``# noqa: F401``,
and a serial run imports no worker-pool machinery.

No linter runs on this repository, so an import that a deletion leaves
unused would otherwise stay.  ``__init__.py`` re-exports names by design and
is not checked.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qecfabric"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression reads and no noqa mark keeps."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            marked = any("# noqa: F401" in lines[i - 1] for i in (node.lineno, alias.lineno))
            if alias.name != "*" and not marked:
                imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "from math import ceil, floor  # noqa: F401\n"
        "from numpy import (\n"
        "    array,\n"
        "    zeros,\n"
        ")\n"
        "print(os.path.sep, array)\n"
    )
    assert unused_imports(source) == [(2, "itertools"), (7, "zeros")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


SERIAL_RUN = """
import sys
import qecfabric
qecfabric.run_campaign(qecfabric.ExperimentConfig(shots=10, seed=1))
qecfabric.ler_campaign(3, 0.01, 1, seed=1)
print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""


def test_a_serial_run_never_loads_the_pool_machinery():
    # one fresh interpreter: this one has imported whatever the other tests did
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", SERIAL_RUN], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.strip() == "[]"
