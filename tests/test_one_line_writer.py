"""Guard: every line file cognlp writes goes through ``ingest._render_lines``.

The test parses each module and fails on a use of ``_dumps`` (a call, or
the function passed on, as to ``map``) outside the one line renderer
(``ingest._render_lines``), the model renderer (``cli._dump``, ``cli._render``
and ``cli._render_rows``) and the EEG line that ``synth`` streams to its file
(``ingest._eeg_line``). A writer that keeps its lines in a list holds one
orjson result per line, about 1 KB however short the line, and a second copy
of the layout could end a file without its last newline, say.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cognlp"

ALLOWED = {
    "ingest._render_lines",
    "ingest._eeg_line",
    "cli._dump",
    "cli._render",
    "cli._render_rows",
}


def _uses(tree: ast.Module, module: str):
    """The qualified name of the enclosing definition of each use of a
    ``_dumps`` in ``tree``."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope.removesuffix('.<module>')}.{node.name}"
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name == "_dumps" and isinstance(node.ctx, ast.Load):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    for node in tree.body:
        yield from visit(node, f"{module}.<module>")


def line_writer_uses(src: Path = SRC) -> set[str]:
    """The scope of every use of ``_dumps`` in ``src``."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.update(_uses(tree, path.stem))
    return found


def test_only_the_line_renderer_renders_lines():
    assert line_writer_uses() - ALLOWED == set(), "render line files through ingest._render_lines"
    assert line_writer_uses() == ALLOWED, "a renderer ALLOWED names no longer calls _dumps"


def test_a_second_copy_is_flagged(tmp_path):
    (tmp_path / "ingest.py").write_text(
        "def _dumps(obj):\n    return b'{}'\n\n\n"
        "def _render_lines(objects):\n    out = bytearray()\n    for obj in objects:\n"
        "        out += _dumps(obj) + b'\\n'\n    return out.decode('utf-8')\n"
    )
    (tmp_path / "gaze.py").write_text(
        "from .ingest import _dumps, _render_lines\n\n\n"
        "def write_gaze_features(table):\n    lines = [_dumps(row) for row in table]\n"
        "    return b''.join(line + b'\\n' for line in lines).decode('utf-8')\n"
    )
    (tmp_path / "tables.py").write_text(
        "from . import ingest\n\n\nclass T:\n    def write(self, rows):\n"
        "        return b'\\n'.join(map(ingest._dumps, rows)).decode('utf-8')\n"
    )
    assert line_writer_uses(tmp_path) - ALLOWED == {"gaze.write_gaze_features", "tables.T.write"}
