"""Guard: every function, method and constant in ``src/cognlp`` is used by
the package.

The test parses each module and fails on any module-level function, class
method (dunders excluded) or UPPER_CASE constant whose name is never
referenced in ``src/cognlp`` outside its own definition: not as a name, not as
an attribute and not as an imported name. A method or property counts as
used only where it is named as an attribute, so a local variable of the same
name does not hide it. Such code runs only under its own unit tests.

The check goes by name only, so a name that collides with another one is out
of its reach: a method ``loads`` would count as used wherever ``json.loads``
is called.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cognlp"

#: Definitions kept although nothing calls them yet, with the reason.
ALLOWED = {
    # the per-subject dev-score ranking and the dev folds wait on the dev-fold
    # item of ROADMAP.md (open item 3)
    "aggregate.best_subjects",
    "datasets.FoldPlan.dev_ids",
    # perfbench/tracer._probe_trunk_step reads it; ROADMAP item 6 deletes it
    "models.TrunkNet.n_vocab",
}


_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _definitions(tree: ast.Module, module: str):
    """``(qualified name, name, node, is a method)`` of each function, method
    and module-level UPPER_CASE constant."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _CONSTANT.fullmatch(target.id):
                    yield f"{module}.{target.id}", target.id, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True


def _references(tree: ast.Module):
    """``(name, line, is an attribute)`` of each name, attribute and imported
    name (as it is named where it is defined)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno, False


def unreferenced_definitions(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in src.glob("*.py")}
    refs = [
        (name, module, line, attribute)
        for module, tree in trees.items()
        for name, line, attribute in _references(tree)
    ]
    unused = []
    for module, tree in trees.items():
        for qualified, name, node, method in _definitions(tree, module):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(
                ref == name
                and (attribute or not method)
                and not (where == module and node.lineno <= line <= node.end_lineno)
                for ref, where, line, attribute in refs
            ):
                unused.append(qualified)
    return unused


def test_no_function_is_called_only_by_tests():
    unused = set(unreferenced_definitions())
    assert unused - ALLOWED == set(), "only tests call these; delete them or use them"
    assert ALLOWED <= unused, "an allowed definition is used now; drop it from ALLOWED"


def test_an_unread_constant_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "USED = 1\nUNREAD: int = 2\n_PRIVATE = 3\nlower = 4\n\n"
        "def f():\n    return USED + _PRIVATE\n\nf()\n"
    )
    assert unreferenced_definitions(tmp_path) == ["mod.UNREAD"]


def test_a_method_hidden_by_a_local_name_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class C:\n    def size(self):\n        return 1\n\n    def used(self):\n"
        "        return 2\n\n\ndef f(c):\n    size = 3\n    return size + c.used()\n\n"
        "f(C())\n"
    )
    assert unreferenced_definitions(tmp_path) == ["mod.C.size"]
