"""Each CLI command loads only the modules it runs.

``cognlp.cli`` imports ``ingest`` and ``errors`` at its top; every other
module is imported by the command or helper that uses it, so a feature stage
never compiles the model code and ``ingest-validate`` no feature code. Three
kinds of check hold that in place:

- fresh processes that run one command each and list the ``cognlp`` modules
  it loaded;
- an AST guard: a function in ``cli`` that names a module (or a name
  imported from one) that ``cli`` does not import at its top must import it
  in its own body or an enclosing function's, or it would fail with a
  ``NameError`` on a path no test reaches;
- the package contract ``perfbench``'s tracer relies on: ``dir(cognlp)``
  lists every module and ``cognlp.<module>`` imports it.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cognlp
from cognlp import cli, eeg, evaluation, gaze

SRC = Path(cognlp.__file__).resolve().parent
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}

#: What ``import cognlp.cli`` loads: the package, ``cli`` and what ``cli``
#: imports at its top.
TOP = {"cognlp", "cli", "errors", "ingest"}


def _loaded(code: str) -> tuple[set[str], str]:
    """The ``cognlp`` modules (short names; ``cognlp`` for the package) that
    ``code`` loaded in a fresh interpreter, and what it printed before."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps([m.partition('.')[2] or m for m in sys.modules if m.split('.')[0] == 'cognlp']))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *printed, modules = proc.stdout.splitlines()
    return set(json.loads(modules)), "\n".join(printed)


def test_importing_the_cli_loads_only_its_top_level_modules():
    assert _loaded("import cognlp.cli")[0] == TOP


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A 2-sentence synthetic NER corpus with its recordings, and a dataset."""
    root = tmp_path_factory.mktemp("imports")
    assert cli.main([
        "synth", "--out", str(root / "data"), "--sentences", "2", "--subjects", "1",
    ]) == 0
    assert cli.main([
        "assemble", "--corpus", str(root / "data" / "corpus.jsonl"), "--task", "ner",
        "--out", str(root / "dataset.jsonl"),
    ]) == 0
    return root


#: command -> (its arguments, where ``{root}`` is the fixture's directory and
#: ``{data}`` its corpus; the modules it must load; those it must not load)
COMMANDS = {
    "ingest-validate": (
        ["--corpus", "{data}/corpus.jsonl", "--task", "ner",
         "--fixations", "{data}/fixations.jsonl", "--eeg", "{data}/eeg.jsonl"],
        set(),
        {"gaze", "eeg", "aggregate", "datasets", "models", "mtl", "evaluation", "workers", "synth"},
    ),
    "synth": (
        ["--out", "{root}/again", "--sentences", "2", "--subjects", "1"],
        {"synth", "seeding"},
        MODULES - TOP - {"synth", "seeding"},
    ),
    "train": (
        ["--dataset", "{root}/dataset.jsonl", "--out", "{root}/run",
         "--folds", "2", "--ratios", "0.5,0.0,0.5", "--epochs", "1"],
        {"models", "workers"},
        {"mtl", "evaluation", "synth", "eeg"},
    ),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_loads_only_the_modules_it_runs(data, command):
    args, loads, skips = COMMANDS[command]
    argv = [command] + [a.format(root=data, data=data / "data") for a in args]
    loaded, _ = _loaded(f"from cognlp import cli\nassert cli.main({argv!r}) == 0")
    assert loads <= loaded
    assert not loaded & skips, f"{command} loaded {sorted(loaded & skips)}"


# ---------------------------------------------------------------------------
# every deferred name is imported where it is used


#: The nodes that open a scope of their own.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_nodes(node):
    """The nodes of ``node``'s scope, without nested scopes or annotations
    (never evaluated, under ``from __future__ import annotations``)."""
    annotations = (getattr(node, "annotation", None), getattr(node, "returns", None))
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES) or child in annotations:
            continue
        yield child
        yield from _own_nodes(child)


def _nested_scopes(node):
    """The functions, classes and lambdas directly nested in ``node``'s scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            yield child
        else:
            yield from _nested_scopes(child)


def _imported(nodes) -> set[str]:
    """The names bound by the import statements among ``nodes``."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def _bound(nodes) -> set[str]:
    """The names that ``nodes`` bind: imports, assignments and arguments."""
    nodes = list(nodes)
    stored = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return _imported(nodes) | stored | {n.arg for n in nodes if isinstance(n, ast.arg)}


def unbound_uses(path: Path = SRC / "cli.py") -> set[str]:
    """``scope: name`` for each use of a deferred name that no import binds
    there at run time.

    A deferred name is a module beside ``path``, or a name some function
    imports, that the module does not import at its top (an import under
    ``if TYPE_CHECKING:`` binds nothing at run time). A function may use it
    when its own body or an enclosing function's imports it.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    top = _imported(tree.body)
    local = _imported(
        node
        for scope in ast.walk(tree)
        if isinstance(scope, _SCOPES)
        for node in _own_nodes(scope)
    )
    deferred = ({p.stem for p in path.parent.glob("*.py")} | local) - top
    found = set()

    def visit(node, scope: str, bound: set[str]):
        found.update(
            f"{scope}: {name.id}"
            for name in _own_nodes(node)
            if isinstance(name, ast.Name)
            and isinstance(name.ctx, ast.Load)
            and name.id in deferred - bound
        )
        for child in _nested_scopes(node):
            name = f"{scope}.{getattr(child, 'name', '<lambda>')}"
            visit(child, name, bound | _bound(_own_nodes(child)))

    visit(tree, path.stem, top)
    return found


def test_every_deferred_module_is_imported_where_it_is_used():
    assert unbound_uses() == set()


def test_a_use_without_its_import_is_flagged(tmp_path):
    (tmp_path / "models.py").write_text("def train():\n    pass\n")
    (tmp_path / "cli.py").write_text(
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from . import models\n\n\n"
        "def imports(x: models.Model) -> models.Model:\n"
        "    from . import models\n    from .models import train\n\n"
        "    def fold(f):\n        return models.train(f), train\n\n"
        "    return fold\n\n\n"
        "def forgets(x: models.Model):\n    return models.train(x)\n\n\n"
        "def forgets_the_name(x):\n    return [train(y) for y in x]\n\n\n"
        "def shadows(models):\n    train = models.train\n    return train()\n"
    )
    assert unbound_uses(tmp_path / "cli.py") == {
        "cli.forgets: models", "cli.forgets_the_name: train",
    }


# ---------------------------------------------------------------------------
# the package contract and the option table's constants


def test_the_package_lists_and_loads_every_module():
    _, printed = _loaded(
        "import json, sys\nimport cognlp\n"
        "print(json.dumps(dir(cognlp)))\n"
        "assert cognlp.models is sys.modules['cognlp.models']\n"
        "try:\n    cognlp.no_such_module\nexcept AttributeError:\n    pass\n"
        "else:\n    raise SystemExit('no AttributeError')\n"
    )
    assert MODULES <= set(json.loads(printed))


def _options(command: str) -> dict[str, argparse.Action]:
    parser = cli.build_parser(command=command)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def test_the_options_read_the_constants_their_modules_use():
    for command in ("extract-gaze", "extract-eeg"):
        assert _options(command)["min_duration"].default == gaze.MIN_FIXATION_MS == 100.0
    assert _options("extract-eeg")["eeg_window"].choices == eeg.WINDOW_MODES
    assert _options("extract-eeg")["eeg_reduce"].choices == eeg.REDUCTIONS
    assert _options("evaluate")["scorer"].choices == sorted(evaluation.SCORERS)
