"""Guard: a fold's model does not depend on that fold's test section.

For each trainer, fold 0's test instances are edited in one of three ways
(features scaled by 50, tokens replaced, labels swapped) and the run is
trained again under the same fold plan: ``model_fold0.json`` must keep its
bytes. ``mtl`` is not among the trainers: it bins its targets over the whole
dataset, test folds included (ROADMAP item 1).
"""

import json

import pytest

from cognlp.cli import main
from cognlp.datasets import FoldPlan
from cognlp.ingest import SENTENCE_CLASSES

FOLDS = ["--folds", 4, "--ratios", "0.75,0.0,0.25", "--epochs", 2]


def run(argv):
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """Dataset files by name: NER without and with gaze, and sentiment3 and
    relclass with gaze."""
    b = tmp_path_factory.mktemp("invariance")
    out = {}
    for task, subjects in (("ner", 2), ("sentiment3", 1), ("relclass", 1)):
        data = b / task
        corpus = ["--corpus", data / "corpus.jsonl", "--task", task]
        run(["synth", "--out", data, "--task", task, "--sentences", 16, "--subjects", subjects,
             "--seed", 5, "--delta-trt", 80.0])
        run(["extract-gaze", *corpus, "--fixations", data / "fixations.jsonl", "--out", data / "gaze.jsonl"])
        run(["assemble", *corpus, "--gaze", data / "gaze.jsonl", "--out", b / f"{task}-gaze.jsonl"])
        out[f"{task}-gaze"] = b / f"{task}-gaze.jsonl"
        if task == "ner":
            run(["assemble", *corpus, "--out", b / "ner-baseline.jsonl"])
            out["ner-baseline"] = b / "ner-baseline.jsonl"
    return out


def _scaled(rows):
    return [[50.0 * v for v in row] if isinstance(row, list) else 50.0 * row for row in rows]


def _rotated(label, classes):
    return classes[(classes.index(label) + 1) % len(classes)]


def _edit(obj, how, classes):
    if how == "features":
        return {**obj, **{key: _scaled(obj[key]) for key in ("features", "sentence_vector") if key in obj}}
    if how == "tokens":
        return {**obj, "tokens": [f"edited{i}" for i in range(len(obj["tokens"]))]}
    if "labels" in obj:  # a tag per token
        return {**obj, "labels": [_rotated(tag, classes) for tag in obj["labels"]]}
    return {**obj, "label": _rotated(obj["label"], classes)}


def _plan(run_dir):
    return FoldPlan.from_json(json.loads((run_dir / "fold_plan.json").read_text()))


@pytest.mark.parametrize(
    "name, model, how",
    [("ner-baseline", "tagger", how) for how in ("tokens", "labels")]  # it has no features
    + [
        (name, model, how)
        for name, model in (("ner-gaze", "tagger"), ("sentiment3-gaze", "logistic"), ("relclass-gaze", "logistic"))
        for how in ("features", "tokens", "labels")
    ],
)
def test_editing_fold_0_test_instances_leaves_its_model_unchanged(datasets, tmp_path, name, model, how):
    path = datasets[name]
    run(["train", "--dataset", path, "--out", tmp_path / "before", "--model", model, *FOLDS])
    plan = _plan(tmp_path / "before")
    test = set(plan.test_ids(0))
    header, *lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    if model == "tagger":
        classes = sorted({tag for obj in records for tag in obj["labels"]})
    else:
        classes = list(SENTENCE_CLASSES[name.split("-")[0]])
    edited = [_edit(obj, how, classes) if obj["id"] in test else obj for obj in records]
    assert edited != records
    (tmp_path / "edited.jsonl").write_text("\n".join([header, *map(json.dumps, edited)]) + "\n")
    run(["train", "--dataset", tmp_path / "edited.jsonl", "--out", tmp_path / "after", "--model", model, *FOLDS])
    assert _plan(tmp_path / "after").assignment == plan.assignment
    before = (tmp_path / "before" / "model_fold0.json").read_bytes()
    assert (tmp_path / "after" / "model_fold0.json").read_bytes() == before
