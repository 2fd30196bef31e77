"""Guard: every line file cognlp reads goes through ``ingest._Records``.

The test parses each module and fails on a ``"_header"`` literal outside
the one reader (``ingest._Records._line``) and the one header writer
(``ingest._header``), and on a ``_check_fields`` call outside the reader. A
second copy of either would let one reader skip or refuse what another
reads: an unknown field refused by ``ingest-validate --strict`` and read by
``train --strict``, say, or a header line read as a record.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cognlp"

ALLOWED = {
    "ingest._Records._line: '_header'",
    "ingest._Records._line: _check_fields()",
    "ingest._header: '_header'",
}


def _uses(tree: ast.Module, module: str):
    """``(qualified name of the enclosing definition, use)`` for each
    ``"_header"`` literal and each call of a ``_check_fields`` in ``tree``."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope.removesuffix('.<module>')}.{node.name}"
        if isinstance(node, ast.Constant) and node.value == "_header":
            yield scope, "'_header'"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "_check_fields":
                yield scope, "_check_fields()"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    for node in tree.body:
        yield from visit(node, f"{module}.<module>")


def line_reader_uses(src: Path = SRC) -> set[str]:
    """Every ``"scope: use"`` of a header literal or a field check in ``src``."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.update(f"{scope}: {use}" for scope, use in _uses(tree, path.stem))
    return found


def test_only_the_line_reader_reads_headers_and_checks_fields():
    assert line_reader_uses() - ALLOWED == set(), "read line files through ingest._Records"
    assert line_reader_uses() == ALLOWED, "ingest._Records no longer reads headers as ALLOWED says"


def test_a_second_copy_is_flagged(tmp_path):
    (tmp_path / "ingest.py").write_text(
        '"""Lines holding a ``"_header"`` key are headers."""\n\n\n'
        "def _header(kind):\n    return {'_header': {'kind': kind}}\n\n\n"
        "class _Records:\n    def _line(self, obj, lineno):\n        if '_header' in obj:\n"
        "            return None\n        _check_fields(obj, (), (), lineno, self.strict)\n"
    )
    (tmp_path / "cli.py").write_text(
        "from . import ingest\n\n\ndef _prediction(obj, lineno):\n    if '_header' in obj:\n"
        "        return None\n    ingest._check_fields(obj, ('id',), (), lineno, strict=False)\n"
    )
    (tmp_path / "tables.py").write_text(
        "from .ingest import _check_fields\n\nHEADER = '_header'\n\n\nclass T:\n"
        "    def read(self, obj):\n        _check_fields(obj, (), (), 1, False)\n"
    )
    assert line_reader_uses(tmp_path) - ALLOWED == {
        "cli._prediction: '_header'",
        "cli._prediction: _check_fields()",
        "tables.<module>: '_header'",
        "tables.T.read: _check_fields()",
    }
