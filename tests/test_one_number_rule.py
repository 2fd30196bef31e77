"""Guard: every list of numbers cognlp reads goes through ``ingest._numbers``.

The test parses each module and fails on any use of ``struct`` outside
``ingest._numbers`` (and ``ingest``'s own ``import struct``), and on any
``frombuffer`` call, which would turn packed bytes into numbers without the
rule's checks. A second number rule would let one reader accept what
another refuses: a ``NaN`` feature, say, or ``true`` read as 1.0.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cognlp"

ALLOWED = {"ingest.<module>: import struct", "ingest._numbers: struct.pack_into", "ingest._numbers: struct.error"}


def _uses(tree: ast.Module, module: str):
    """``(qualified name of the enclosing function, use)`` for each import
    of ``struct`` or of a name from it, each ``struct.<name>`` and each
    ``frombuffer`` named in ``tree``."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope.removesuffix('.<module>')}.{node.name}"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "struct" or node.attr == "frombuffer":
                yield scope, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Name) and node.id == "frombuffer":
            yield scope, "frombuffer"
        elif isinstance(node, ast.Import):
            yield from ((scope, f"import {a.name}") for a in node.names if a.name == "struct")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module == "struct" or alias.name == "frombuffer":
                    yield scope, f"import {node.module}.{alias.name}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    for node in tree.body:
        yield from visit(node, f"{module}.<module>")


def number_rule_uses(src: Path = SRC) -> set[str]:
    """Every ``"scope: use"`` of ``struct`` or ``frombuffer`` in ``src``."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.update(f"{scope}: {use}" for scope, use in _uses(tree, path.stem))
    return found


def test_only_the_number_rule_packs_numbers():
    assert number_rule_uses() - ALLOWED == set(), "read lists of numbers through ingest._numbers"
    assert number_rule_uses() == ALLOWED, "ingest._numbers no longer uses struct as ALLOWED says"


def test_a_second_number_rule_is_flagged(tmp_path):
    (tmp_path / "ingest.py").write_text(
        "import struct\n\n\ndef _numbers(rows, out):\n    try:\n        struct.pack_into('d', out, 0, *rows)\n"
        "    except struct.error:\n        pass\n"
    )
    (tmp_path / "models.py").write_text(
        "import struct\n\nimport numpy as np\n\n\ndef _matrix(rows):\n"
        "    return np.frombuffer(b''.join(struct.pack('3d', *row) for row in rows))\n"
    )
    (tmp_path / "tables.py").write_text("from numpy import frombuffer\n\n\nclass T:\n    def f(self):\n        from struct import pack\n")
    assert number_rule_uses(tmp_path) - ALLOWED == {
        "models.<module>: import struct",
        "models._matrix: np.frombuffer",
        "models._matrix: struct.pack",
        "tables.<module>: import numpy.frombuffer",
        "tables.T.f: import struct.pack",
    }
