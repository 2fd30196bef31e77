"""Guard: every function and method in ``src/cognlp`` is used by the package.

The test parses each module and fails on any module-level function or class
method (dunders excluded) whose name is never referenced in ``src/cognlp``
outside its own definition: not as a name, not as an attribute and not as an
imported name. Such code runs only under its own unit tests.

The check goes by name only, so a name that collides with another one is out
of its reach: a method ``loads`` would count as used wherever ``json.loads``
is called.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cognlp"

#: Definitions kept although nothing calls them yet, with the reason.
ALLOWED = {
    # the per-subject dev-score ranking and the dev folds wait on the dev-fold
    # item of ROADMAP.md (open item 3)
    "aggregate.best_subjects",
    "datasets.FoldPlan.dev_ids",
    # an override that argparse itself calls on a usage error
    "cli._Parser.error",
}


def _definitions(tree: ast.Module, module: str):
    """``(qualified name, name, node)`` of each function and method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(tree: ast.Module):
    """``(name, line)`` of each name, attribute and imported name (as it is
    named where it is defined)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def unreferenced_definitions(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in src.glob("*.py")}
    refs = [
        (name, module, line) for module, tree in trees.items() for name, line in _references(tree)
    ]
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree, module):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(
                ref == name and not (where == module and node.lineno <= line <= node.end_lineno)
                for ref, where, line in refs
            ):
                unused.append(qualified)
    return unused


def test_no_function_is_called_only_by_tests():
    unused = set(unreferenced_definitions())
    assert unused - ALLOWED == set(), "only tests call these; delete them or use them"
    assert ALLOWED <= unused, "an allowed definition is used now; drop it from ALLOWED"
