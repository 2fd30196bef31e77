"""Guard: ``workers`` is the one module that forks, pins CPUs and knows the
spool format. No other module in ``src/cognlp`` imports ``pickle``,
``tempfile`` or ``signal``, or calls ``os.fork`` or ``os.sched_setaffinity``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cognlp"
MODULES = ("pickle", "tempfile", "signal")
OS_CALLS = ("fork", "sched_setaffinity")


def _process_uses(path):
    """The guarded modules ``path`` imports and ``os`` functions it names."""
    uses = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            uses.update(a.name for a in node.names if a.name.split(".")[0] in MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in MODULES:
                uses.add(node.module)
            elif node.module == "os":
                uses.update(f"os.{a.name}" for a in node.names if a.name in OS_CALLS)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in OS_CALLS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            uses.add(f"os.{node.attr}")
    return uses


def test_the_guard_sees_what_workers_uses():
    assert _process_uses(SRC / "workers.py") == {*MODULES, *(f"os.{c}" for c in OS_CALLS)}


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "workers.py"), ids=lambda p: p.name
)
def test_only_workers_forks_pins_or_pickles(path):
    assert _process_uses(path) == set()
