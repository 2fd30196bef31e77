"""Guard: every JSON text cognlp reads or writes goes through the codec in
``ingest`` (``_loads``, ``_dumps`` and ``_printed``).

The test parses each module and fails on any use of ``json.loads``,
``json.dumps`` or ``orjson`` outside the codec's functions, so that no
reader or writer bypasses the rule that keeps orjson's bytes and errors
``json``'s. The only other users are the indented reports the CLI prints
for people to read, which orjson cannot indent as ``json`` does; they are
named in ``ALLOWED``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cognlp"

#: The codec's functions, and the functions that print an indented report.
ALLOWED = {
    "ingest._loads",
    "ingest._dumps",
    "ingest._printed",
    # the ingest-validate report and the mtl summary, printed with indent=2
    "cli.cmd_ingest_validate",
    "cli.cmd_mtl",
}


def _uses(tree: ast.Module, module: str):
    """``(qualified name of the enclosing function, use)`` for each
    ``json.loads``, ``json.dumps`` and ``orjson`` name in ``tree``, and each
    import of them but ``ingest``'s ``import orjson``."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope.removesuffix('.<module>')}.{node.name}"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = node.value.id
            if name == "orjson" or (name == "json" and node.attr in ("loads", "dumps")):
                yield scope, f"{name}.{node.attr}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}"
                if name in ("json.loads", "json.dumps") or (
                    name.split(".")[0] == "orjson" and scope != "ingest.<module>"
                ):
                    yield scope, f"import {name}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    for node in tree.body:
        yield from visit(node, f"{module}.<module>")


def uses_outside_the_codec(src: Path = SRC) -> tuple[set[str], set[str]]:
    """The uses outside ``ALLOWED``, and the ``ALLOWED`` functions that use
    a decoder or an encoder (the same function name in ``src``)."""
    outside, allowed = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for scope, use in _uses(tree, path.stem):
            if scope in ALLOWED:
                allowed.add(scope)
            else:
                outside.add(f"{scope}: {use}")
    return outside, allowed


def test_only_the_codec_decodes_and_encodes_json():
    outside, allowed = uses_outside_the_codec()
    assert outside == set(), "read and write JSON through ingest._loads and ingest._dumps"
    assert allowed == ALLOWED, "an allowed function no longer uses json or orjson; drop it"


def test_a_use_outside_the_codec_is_flagged(tmp_path):
    (tmp_path / "ingest.py").write_text(
        "import json\nimport orjson\n\n\ndef _loads(text):\n    return orjson.loads(text)\n\n\n"
        "def _dumps(obj):\n    return json.dumps(obj)\n\n\ndef _printed(obj):\n    return json.dumps(obj)\n"
    )
    (tmp_path / "cli.py").write_text(
        "import json\n\n\ndef cmd_mtl(s):\n    print(json.dumps(s, indent=2))\n\n\n"
        "def cmd_ingest_validate(r):\n    print(json.dumps(r, indent=2))\n\n\n"
        "def _read(path):\n    with open(path) as fh:\n        return json.loads(fh.read())\n"
    )
    (tmp_path / "tables.py").write_text("from orjson import dumps\n\n\nclass T:\n    def f(self):\n        import orjson\n")
    outside, allowed = uses_outside_the_codec(tmp_path)
    assert outside == {
        "cli._read: json.loads",
        "tables.<module>: import orjson.dumps",
        "tables.T.f: import orjson",
    }
    assert allowed == ALLOWED
