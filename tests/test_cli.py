import argparse
import gc
import json
import os
import warnings

import numpy as np
import pytest

from cognlp import cli, ingest, workers
from cognlp.cli import _load_model, main
from cognlp.datasets import FoldPlan, read_dataset
from cognlp.errors import CognlpError
from cognlp.models import predict

from test_evaluation import class_prf1


def run(argv):
    return main([str(a) for a in argv])


def synth_args(out, sentences=25, delta=120.0, seed=3):
    return [
        "synth", "--out", out, "--task", "ner", "--sentences", sentences,
        "--subjects", 2, "--delta-trt", delta, "--seed", seed,
        "--entity-rate", 0.3,
    ]


def pipeline(tmp, seed=3):
    data = tmp / "data"
    feats = tmp / "feats"
    assert run(synth_args(data, seed=seed)) == 0
    assert run([
        "extract-gaze", "--corpus", data / "corpus.jsonl", "--task", "ner",
        "--fixations", data / "fixations.jsonl", "--out", feats / "gaze.jsonl",
        "--fixp-out", feats / "fixp.jsonl", "--seed", seed,
    ]) == 0
    assert run([
        "extract-eeg", "--corpus", data / "corpus.jsonl", "--task", "ner",
        "--fixations", data / "fixations.jsonl", "--eeg", data / "eeg.jsonl",
        "--out", feats / "eeg.jsonl", "--seed", seed,
    ]) == 0
    assert run([
        "assemble", "--corpus", data / "corpus.jsonl", "--task", "ner",
        "--gaze", feats / "gaze.jsonl", "--eeg", feats / "eeg.jsonl",
        "--out", feats / "dataset.jsonl", "--seed", seed,
    ]) == 0
    assert run([
        "assemble", "--corpus", data / "corpus.jsonl", "--task", "ner",
        "--out", feats / "baseline.jsonl", "--seed", seed,
    ]) == 0
    for name, ds in (("gaze", "dataset.jsonl"), ("base", "baseline.jsonl")):
        assert run([
            "train", "--dataset", feats / ds, "--out", tmp / "runs" / name,
            "--model", "tagger", "--folds", 5, "--ratios", "0.8,0.0,0.2",
            "--epochs", 2, "--seed", seed,
        ]) == 0
        assert run([
            "evaluate", "--dataset", feats / ds, "--runs", f"{name}={tmp / 'runs' / name}",
            "--seed", seed,
        ]) == 0
    return data, feats


def test_end_to_end_pipeline(tmp_path, capsys):
    data, feats = pipeline(tmp_path)
    report = json.loads((tmp_path / "runs/gaze/report.json").read_text())
    assert "ner" in report["tasks"]
    assert report["tasks"]["ner"]["gaze"]["n_folds"] == 5
    preds = (tmp_path / "runs/gaze/predictions.jsonl").read_text().splitlines()
    assert len(preds) == 26  # header + one line per sentence
    assert run([
        "evaluate", "--dataset", feats / "dataset.jsonl",
        "--compare", f"{tmp_path}/runs/base,{tmp_path}/runs/gaze",
        "--rounds", 200, "--seed", 1,
    ]) == 0
    out = capsys.readouterr().out
    comparison = json.loads(out.strip().splitlines()[-1])
    assert 0.0 < comparison["p_value"] <= 1.0
    assert comparison["threshold"] == pytest.approx(0.01 / 12)


def test_validate_and_significance(tmp_path, capsys):
    data, feats = pipeline(tmp_path)
    capsys.readouterr()  # drop pipeline chatter
    assert run([
        "ingest-validate", "--corpus", data / "corpus.jsonl", "--task", "ner",
        "--fixations", data / "fixations.jsonl", "--eeg", data / "eeg.jsonl",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sentences"] == 25
    assert report["fixations_without_eeg"] == 0
    compare = f"{tmp_path}/runs/base,{tmp_path}/runs/gaze"
    assert run([
        "evaluate", "--dataset", feats / "baseline.jsonl", "--compare", compare,
        "--rounds", 100, "--seed", 0,
    ]) == 0
    sig = json.loads(capsys.readouterr().out)
    assert sig.pop("comparison") == compare
    assert set(sig) == {"alpha", "n_hypotheses", "p_value", "stars", "threshold"}


def test_reruns_are_byte_identical(tmp_path):
    files = [
        "data/corpus.jsonl", "data/fixations.jsonl", "data/eeg.jsonl", "data/meta.json",
        "feats/gaze.jsonl", "feats/fixp.jsonl", "feats/eeg.jsonl",
        "feats/dataset.jsonl", "feats/baseline.jsonl",
        "runs/gaze/fold_plan.json", "runs/gaze/model_fold0.json",
        "runs/gaze/report.json", "runs/gaze/predictions.jsonl",
        "runs/base/model_fold4.json",
    ]
    pipeline(tmp_path)
    before = {rel: (tmp_path / rel).read_bytes() for rel in files}
    pipeline(tmp_path)  # rerun every stage in place, same config and seed
    for rel in files:
        assert (tmp_path / rel).read_bytes() == before[rel], f"{rel} differs on rerun"


def test_combined_report_with_significance(tmp_path, capsys):
    data, feats = pipeline(tmp_path)
    capsys.readouterr()
    assert run([
        "evaluate", "--dataset", feats / "baseline.jsonl",
        "--runs", f"baseline={tmp_path}/runs/base,gaze={tmp_path}/runs/gaze",
        "--rounds", 100, "--seed", 0, "--out", tmp_path / "combined.json",
    ]) == 0
    table = capsys.readouterr().out
    lines = [l for l in table.splitlines() if l.strip()]
    assert lines[-2].startswith("baseline") and lines[-1].startswith("gaze")
    payload = json.loads((tmp_path / "combined.json").read_text())
    gaze_cell = payload["tasks"]["ner"]["gaze"]
    assert "significance" in gaze_cell
    assert 0.0 < gaze_cell["significance"]["p_value"] <= 1.0
    assert "significance" not in payload["tasks"]["ner"]["baseline"]


def test_relation_classification_through_evaluate(tmp_path, capsys):
    # a relclass sentence may hold several relations, one instance each, so
    # a fold scores instances while the permutation test swaps tuple units
    data, feats, runs = tmp_path / "data", tmp_path / "feats", tmp_path / "runs"
    corpus = ["--corpus", data / "corpus.jsonl", "--task", "relclass"]
    assert run([
        "synth", "--out", data, "--task", "relclass", "--sentences", 30,
        "--subjects", 2, "--delta-trt", 120.0, "--seed", 4,
    ]) == 0
    assert run([
        "extract-gaze", *corpus, "--fixations", data / "fixations.jsonl",
        "--out", feats / "gaze.jsonl",
    ]) == 0
    assert run(["assemble", *corpus, "--out", feats / "baseline.jsonl"]) == 0
    assert run([
        "assemble", *corpus, "--gaze", feats / "gaze.jsonl", "--out", feats / "gaze_ds.jsonl",
    ]) == 0
    for name, ds in (("baseline", "baseline.jsonl"), ("gaze", "gaze_ds.jsonl")):
        assert run([
            "train", "--dataset", feats / ds, "--out", runs / name, "--model", "logistic",
            "--folds", 5, "--ratios", "0.8,0.0,0.2", "--epochs", 20, "--seed", 4,
        ]) == 0
    assert run([
        "evaluate", "--dataset", feats / "baseline.jsonl",
        "--runs", f"baseline={runs / 'baseline'},gaze={runs / 'gaze'}",
        "--rounds", 200, "--out", tmp_path / "combined.json",
    ]) == 0
    capsys.readouterr()
    combined = json.loads((tmp_path / "combined.json").read_text())["tasks"]["relclass"]
    assert 0.0 < combined["gaze"]["significance"]["p_value"] <= 1.0
    baseline = read_dataset((feats / "baseline.jsonl").read_text().splitlines())
    assert len(baseline.instances) > len(baseline.sentence_ids())
    for name, ds in (("baseline", "baseline.jsonl"), ("gaze", "gaze_ds.jsonl")):
        dataset = read_dataset((feats / ds).read_text().splitlines())
        plan = FoldPlan.from_json(json.loads((runs / name / "fold_plan.json").read_text()))
        folds = []
        for fold in range(plan.k):
            model = _load_model(runs / name / f"model_fold{fold}.json")
            ids = plan.test_ids(fold)
            gold = [inst.label for inst in dataset.select(ids)]
            folds.append(class_prf1(gold, predict(model, dataset, ids)))
        expected = {
            key: float(np.mean([getattr(m, key) for m in folds]))
            for key in ("precision", "recall", "f1", "accuracy")
        }
        cell = json.loads((runs / name / "report.json").read_text())["tasks"]["relclass"][name]
        assert {key: cell[key] for key in expected} == expected
        assert {key: combined[name][key] for key in expected} == expected
        lines = (runs / name / "predictions.jsonl").read_text().splitlines()[1:]
        assert max(len(json.loads(line)["prediction"]) for line in lines) > 1


def test_lexicon_commands(tmp_path, capsys):
    data, feats = pipeline(tmp_path)
    lex = tmp_path / "lexicon.json"
    assert run([
        "build-lexicon", "--corpus", data / "corpus.jsonl", "--task", "ner",
        "--gaze", feats / "gaze.jsonl", "--agg", "mean", "--out", lex, "--seed", 3,
    ]) == 0
    payload = json.loads(lex.read_text())
    assert payload["unknown_policy"] == "zeros+flag"
    assert payload["dims"][0] == "gaze/NFIX"
    assert run([
        "apply-lexicon", "--corpus", data / "corpus.jsonl", "--task", "ner",
        "--lexicon", lex, "--out", feats / "lexfeats.jsonl", "--seed", 3,
    ]) == 0
    coverage = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert coverage["unknown"] == 0  # same corpus covers itself
    assert run([
        "assemble", "--corpus", data / "corpus.jsonl", "--task", "ner",
        "--lex", feats / "lexfeats.jsonl", "--out", feats / "lexds.jsonl", "--seed", 3,
    ]) == 0


def test_mtl_command(tmp_path, capsys):
    data, feats = pipeline(tmp_path)
    assert run([
        "mtl", "--dataset", feats / "dataset.jsonl", "--out", tmp_path / "mtlrun",
        "--aux", "TRT,word_frequency", "--folds", 5, "--ratios", "0.8,0.0,0.2",
        "--epochs", 1, "--seed", 2, "--embed", 8, "--hidden", 8,
    ]) == 0
    report = json.loads((tmp_path / "mtlrun/mtl_report.json").read_text())
    assert set(report["mean"]) == {"main", "TRT", "word_frequency"}
    for head in report["mean"].values():
        assert 0.0 <= head["accuracy"] <= 100.0
        assert "majority_baseline" in head


def test_main_source_head_takes_the_run_s_bins(tmp_path):
    # the main head of a --main-source run kept 10 classes whatever --bins said
    data, feats = tmp_path / "data", tmp_path / "feats"
    corpus = ["--corpus", data / "corpus.jsonl", "--task", "ner"]
    assert run(synth_args(data, sentences=6)) == 0
    assert run(["extract-gaze", *corpus, "--fixations", data / "fixations.jsonl",
                "--out", feats / "gaze.jsonl"]) == 0
    assert run(["assemble", *corpus, "--gaze", feats / "gaze.jsonl", "--out", feats / "dataset.jsonl"]) == 0
    assert run(["mtl", "--dataset", feats / "dataset.jsonl", "--out", tmp_path / "mtl",
                "--main-source", "TRT", "--aux", "FFD", "--bins", 5, "--folds", 2,
                "--ratios", "0.5,0.0,0.5", "--epochs", 1, "--embed", 4, "--hidden", 4]) == 0
    tasks = json.loads((tmp_path / "mtl/model_fold0.json").read_text())["tasks"]
    assert {head: len(classes) for head, classes in tasks.items()} == {"main": 5, "FFD": 5}


@pytest.mark.parametrize(
    "task, extra",
    [
        ("ner", []),
        ("ner", ["--neighbors"]),
        ("ner", ["--lex", "lex"]),
        ("relclass", []),
        ("sentiment2", []),
        ("sentiment3", []),
        ("sentiment3", ["--binary", "--binary-policy", "drop-all"]),
        ("sentiment3", ["--binary", "--binary-policy", "drop-train-only"]),
    ],
)
def test_every_assembled_dataset_reads_back_and_trains_under_strict(tmp_path, capsys, task, extra):
    data, feats = tmp_path / "data", tmp_path / "feats"
    corpus = ["--corpus", data / "corpus.jsonl", "--task", task]
    assert run(["synth", "--out", data, "--task", task, "--sentences", 8, "--subjects", 1, "--seed", 4,
                "--strict"]) == 0
    assert run(["extract-gaze", *corpus, "--fixations", data / "fixations.jsonl",
                "--out", feats / "gaze.jsonl", "--fixp-out", feats / "fixp.jsonl", "--strict"]) == 0
    extra = [feats / "fixp.jsonl" if arg == "lex" else arg for arg in extra]
    assert run(["assemble", *corpus, "--gaze", feats / "gaze.jsonl", *extra,
                "--out", feats / "dataset.jsonl", "--strict"]) == 0
    model = "tagger" if task == "ner" else "logistic"
    assert run(["train", "--dataset", feats / "dataset.jsonl", "--out", tmp_path / "run", "--model", model,
                "--folds", 2, "--ratios", "0.5,0.0,0.5", "--epochs", 1, "--strict"]) == 0, capsys.readouterr().err


def test_error_exit_code_and_record(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id":"s1","tokens":["a"],"labels":["I-PER"]}\n')
    code = run(["ingest-validate", "--corpus", bad, "--task", "ner"])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"
    assert record["line"] == 1


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sentences": 7, "task": "ner", "subjects": 2}))
    out = tmp_path / "synthcfg"
    assert run(["--config", config, "synth", "--out", out, "--seed", 1]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_sentences"] == 7
    # explicit flag wins over config default
    assert run(["--config", config, "synth", "--out", tmp_path / "s2", "--sentences", 4, "--seed", 1]) == 0
    meta2 = json.loads((tmp_path / "s2" / "meta.json").read_text())
    assert meta2["n_sentences"] == 4


def _validation_report(root, capsys):
    capsys.readouterr()
    assert run([
        "ingest-validate", "--corpus", root / "data/corpus.jsonl", "--task", "ner",
        "--fixations", root / "data/fixations.jsonl", "--eeg", root / "data/eeg.jsonl",
    ]) == 0
    return capsys.readouterr().out


def test_a_small_read_buffer_writes_the_same_bytes(tmp_path, monkeypatch, capsys):
    files = ("data/eeg.jsonl", "feats/eeg.jsonl", "feats/dataset.jsonl")
    pipeline(tmp_path)
    before = {rel: (tmp_path / rel).read_bytes() for rel in files}
    report = _validation_report(tmp_path, capsys)
    monkeypatch.setattr(ingest, "_CHUNK", 61)
    pipeline(tmp_path)  # every stage again in place, each line read in many fills
    assert _validation_report(tmp_path, capsys) == report
    for rel in files:
        assert (tmp_path / rel).read_bytes() == before[rel], f"{rel} differs with a small buffer"


def test_eeg_is_written_and_read_in_one_process(tmp_path, monkeypatch):
    # with orjson parsing the lines, reading eeg.jsonl in forked parts saved
    # about 29 ms of a 0.5 s ner-extract run: not worth its code
    forks = []
    fork = workers._fork
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(workers, "_fork", lambda *args: forks.append(args) or fork(*args))
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    assert (data / "eeg.jsonl").stat().st_size > 2 << 20  # two 1 MiB parts' worth
    inputs = [
        "--corpus", data / "corpus.jsonl", "--task", "ner",
        "--fixations", data / "fixations.jsonl", "--eeg", data / "eeg.jsonl",
    ]
    assert run(["ingest-validate", *inputs]) == 0
    assert run(["extract-eeg", *inputs, "--out", tmp_path / "eeg.jsonl"]) == 0
    assert forks == []


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def test_failed_eeg_write_leaves_no_eeg_file(tmp_path, capsys, monkeypatch):
    # whole lines of a part-written eeg.jsonl would still validate
    def failing_line(record):
        rendered.append(record.key)
        if len(rendered) == 6:
            raise CognlpError("write failed")
        return eeg_line(record)

    rendered = []
    eeg_line = ingest._eeg_line
    monkeypatch.setattr(ingest, "_eeg_line", failing_line)
    out = tmp_path / "data"
    assert run(synth_args(out, sentences=4)) == 1
    assert _error_record(capsys) == {"error": "CognlpError", "message": "write failed"}
    # the corpus and the fixations are written after the EEG
    assert list(out.iterdir()) == []


def _tiny_significance_inputs(tmp):
    """A three-sentence NER dataset and two run dirs, ``runs/a`` and
    ``runs/b``, each holding a ``predictions.jsonl`` for it."""
    header = {"_header": {"kind": "dataset", "task": "ner", "manifest": []}}
    rows = [json.dumps(header)] + [
        json.dumps({"id": f"s{i}", "tokens": ["a", "b"], "labels": ["B-PER", "O"]})
        for i in range(3)
    ]
    (tmp / "dataset.jsonl").write_text("\n".join(rows) + "\n")
    for name, first in (("a", "B-PER"), ("b", "O")):
        lines = [json.dumps({"_header": {"kind": "predictions"}})] + [
            json.dumps({"id": f"s{i}", "prediction": [first, "O"]}) for i in range(3)
        ]
        (tmp / "runs" / name).mkdir(parents=True)
        (tmp / "runs" / name / "predictions.jsonl").write_text("\n".join(lines) + "\n")


def _significance_cmd(tmp):
    return [
        "evaluate", "--dataset", tmp / "dataset.jsonl",
        "--compare", f"{tmp}/runs/a,{tmp}/runs/b", "--rounds", 50,
    ]


def _error_record(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_significance_helper_accepts_tiny_inputs(tmp_path, capsys):
    _tiny_significance_inputs(tmp_path)
    assert run(_significance_cmd(tmp_path)) == 0
    assert 0.0 < json.loads(capsys.readouterr().out)["p_value"] <= 1.0


def test_significance_rejects_predictions_over_different_sentence_ids(tmp_path, capsys):
    _tiny_significance_inputs(tmp_path)
    pred_b = tmp_path / "runs/b/predictions.jsonl"
    # same number of sentences, but s2 is replaced by an id of another set
    pred_b.write_text(pred_b.read_text().replace('"s2"', '"other"'))
    assert run(_significance_cmd(tmp_path)) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert "different sentence ids" in record["message"]


@pytest.mark.parametrize("compare", ["runs/a", "runs/a,runs/b,runs/a", "runs/a,"])
def test_compare_needs_exactly_two_run_dirs(tmp_path, capsys, compare):
    _tiny_significance_inputs(tmp_path)
    runs = ",".join(str(tmp_path / p) if p else "" for p in compare.split(","))
    assert run([
        "evaluate", "--dataset", tmp_path / "dataset.jsonl", "--compare", runs,
        "--rounds", 50,
    ]) == 1
    assert _error_record(capsys)["error"] == "ConfigError"


@pytest.mark.parametrize("rounds", [0, -1, -3])
def test_rounds_below_one_are_rejected(tmp_path, capsys, rounds):
    _tiny_significance_inputs(tmp_path)
    assert run([
        "evaluate", "--dataset", tmp_path / "dataset.jsonl",
        "--compare", f"{tmp_path}/runs/a,{tmp_path}/runs/b", "--rounds", rounds,
    ]) == 1
    assert _error_record(capsys)["error"] == "ConfigError"
    assert run([
        "evaluate", "--dataset", tmp_path / "dataset.jsonl",
        "--runs", f"baseline={tmp_path}/runs/a", "--rounds", rounds,
    ]) == 1
    assert _error_record(capsys)["error"] == "ConfigError"


def _tree(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_repeated_runs_label_is_rejected_before_anything_is_written(tmp_path, capsys):
    _tiny_significance_inputs(tmp_path)
    before = _tree(tmp_path)
    assert run([
        "evaluate", "--dataset", tmp_path / "dataset.jsonl",
        "--runs", f"baseline={tmp_path}/runs/a,baseline={tmp_path}/runs/b",
        "--rounds", 50, "--out", tmp_path / "r.json",
    ]) == 1
    assert _error_record(capsys) == {
        "error": "ConfigError", "message": "--runs repeats the label 'baseline'",
    }
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--alpha", "2", "alpha must be in (0, 1), got 2.0"),
        ("--alpha", "nan", "alpha must be in (0, 1), got nan"),
        ("--n-hyp", "0", "n_hypotheses must be >= 1, got 0"),
    ],
)
def test_bad_threshold_is_rejected_before_anything_is_written(tmp_path, capsys, option, value, message):
    _tiny_significance_inputs(tmp_path)
    before = _tree(tmp_path)
    assert run([
        "evaluate", "--dataset", tmp_path / "dataset.jsonl",
        "--runs", f"baseline={tmp_path}/runs/a", "--rounds", 50,
        "--out", tmp_path / "r.json", option, value,
    ]) == 1
    assert _error_record(capsys) == {"error": "ConfigError", "message": message}
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "bad_row",
    ['{"id": "s1", "prediction": [', '{"prediction": ["O", "O"]}', '{"id": "s1"}', '["s1"]'],
)
def test_malformed_prediction_rows_are_parse_errors(tmp_path, capsys, bad_row):
    _tiny_significance_inputs(tmp_path)
    pred_a = tmp_path / "runs/a/predictions.jsonl"
    lines = pred_a.read_text().splitlines()
    lines[2] = bad_row
    pred_a.write_text("\n".join(lines) + "\n")
    assert run(_significance_cmd(tmp_path)) == 1
    record = _error_record(capsys)
    assert record["error"] == "ParseError"
    assert record["line"] == 3


SYNTH = ["synth", "--out", "out"]


@pytest.mark.parametrize(
    "argv, content, expected",
    [
        ([*SYNTH, "--config"], None, ("ConfigError", None)),
        (["--config", "absent.json", *SYNTH], None, ("FileNotFoundError", None)),
        (["--config", "config.json", *SYNTH], b'{"sentences": 7,\n "subjects" 2}\n', ("ParseError", 2)),
        (["--config=config.json", *SYNTH], b'{"sentences": 7,\n "task": "\xff"}\n', ("ParseError", 2)),
    ],
)
def test_config_errors_are_one_json_line(tmp_path, capsys, monkeypatch, argv, content, expected):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / "config.json").write_bytes(content)
    assert run(argv) == 1
    record = _error_record(capsys)
    assert (record["error"], record.get("line")) == expected
    assert not (tmp_path / "out").exists()


def test_lines_split_on_newline_only(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    # kept raw by ensure_ascii=False, and each a line break to str.splitlines
    tokens = ["a\u2028b", "c\u2029d", "e\x85f"]
    row = {"id": "s1", "tokens": tokens, "labels": ["O"] * len(tokens)}
    corpus.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    assert run(["ingest-validate", "--corpus", corpus, "--task", "ner"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["sentences"], report["tokens"]) == (1, len(tokens))


def test_non_utf8_line_is_parse_error_with_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    good = json.dumps({"id": "s1", "tokens": ["a"], "labels": ["O"]}).encode()
    corpus.write_bytes(good + b"\n" + b'{"id": "s2", "tokens": ["\xe9"], "labels": ["O"]}\n')
    assert run(["ingest-validate", "--corpus", corpus, "--task", "ner"]) == 1
    record = _error_record(capsys)
    assert (record["error"], record["line"]) == ("ParseError", 2)


@pytest.mark.parametrize(
    "row, error",
    [
        ({"subject": "A", "word_index": 0, "values": [1.0, 2.0]}, "ParseError"),
        ({"subject": "A", "sentence_id": "s1", "word_index": 0, "values": [1.0]}, "ValidationError"),
    ],
)
def test_malformed_eeg_feature_rows_are_one_json_line(tmp_path, capsys, row, error):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "s1", "tokens": ["a"], "labels": ["O"]}) + "\n")
    feats = tmp_path / "eeg_features.jsonl"
    header = {"_header": {"kind": "eeg_features", "dims": ["theta1", "theta2"]}}
    feats.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
    assert run([
        "build-lexicon", "--corpus", corpus, "--task", "ner", "--eeg", feats,
        "--out", tmp_path / "lexicon.json",
    ]) == 1
    record = _error_record(capsys)
    assert (record["error"], record["line"]) == (error, 2)


_HUGE = "1" + "0" * 400  # a JSON integer literal beyond the float range
_FIXATION = '{"subject": "A", "sentence_id": "s1", "seq": 0, "word_index": 0, "duration_ms": %s%s}'


@pytest.mark.parametrize(
    "command, lines, expected",
    [
        ("ingest-validate --fixations", [_FIXATION % (_HUGE, "")], ("ValidationError", 1)),
        ("ingest-validate --fixations", [_FIXATION % ("150", ', "onset_ms": ' + _HUGE)], ("ValidationError", 1)),
        (
            "assemble --gaze",
            [
                '{"_header": {"kind": "gaze_features"}}',
                '{"subject": "A", "word_index": 0, "NFIX": 1, "FFD": 1, "GD": 1, "TRT": 1, "GPT": 1, "MFD": 1}',
            ],
            ("ParseError", 2),
        ),
        (
            "assemble --lex",
            ['{"_header": {"kind": "features", "dims": ["f"]}}', '{"word_index": 0, "values": [1.0]}'],
            ("ParseError", 2),
        ),
        (
            "assemble --lex",
            ['{"_header": {"kind": "features", "dims": ["f"]}}', '{"sentence_id": "s1", "word_index": 0, "values": [1.0, 2.0]}'],
            ("ValidationError", 2),
        ),
        (
            "train --dataset",
            ['{"_header": {"kind": "dataset", "task": "ner", "manifest": []}}', '{"id": "s1", "labels": ["O", "O"]}'],
            ("ParseError", 2),
        ),
        (
            "train --dataset",
            [
                '{"_header": {"kind": "dataset", "task": "ner", "manifest": ["g/x"]}}',
                '{"id": "s1", "tokens": ["a", "b"], "labels": ["O", "O"], "features": [[1.0], [1.0, 2.0]]}',
            ],
            ("ValidationError", 2),
        ),
    ],
)
def test_malformed_input_files_are_one_json_line(tmp_path, capsys, command, lines, expected):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "s1", "tokens": ["a", "b"], "labels": ["O", "O"]}) + "\n")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    stage, flag = command.split()
    argv = [stage, flag, bad, "--out", tmp_path / "out"]
    if stage != "train":
        argv = [stage, "--corpus", corpus, "--task", "ner", flag, bad]
        if stage == "assemble":
            argv += ["--out", tmp_path / "out.jsonl"]
    assert run(argv) == 1
    record = _error_record(capsys)
    assert (record["error"], record["line"]) == expected


def _tiny_dataset(path, task):
    """Ten two-token sentences: NER with tags, or binary sentiment."""
    rows = [json.dumps({"_header": {"kind": "dataset", "task": task, "manifest": []}})]
    for i in range(10):
        row = {"id": f"s{i}", "tokens": ["a", f"w{i % 3}"]}
        if task == "ner":
            row["labels"] = ["B-PER", "O"] if i % 2 else ["O", "O"]
        else:
            row["label"] = "pos" if i % 2 else "neg"
        rows.append(json.dumps(row))
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("stage", ["train", "mtl"])
@pytest.mark.parametrize(
    "ratios",
    [
        "0.5,x,0.5", "0.5,0.5", "0.5,,0.5", "0.8,0.0,0.1,0.1",
        "0.5,nan,0.5", "inf,-inf,0.5", "nan,0.0,0.5", "0.5,0.0,nan",
    ],
)
def test_bad_ratios_are_one_json_line(tmp_path, capsys, stage, ratios):
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    assert run([
        stage, "--dataset", tmp_path / "dataset.jsonl", "--out", tmp_path / "out",
        "--folds", 2, "--ratios", ratios,
    ]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert "ratios" in record["message"]
    assert not (tmp_path / "out").exists()


_DEEP = "[" * 100_000 + "]" * 100_000  # deeper than json can read


@pytest.mark.parametrize(
    "argv, content, line",
    [
        (["ingest-validate", "--corpus", "in.json", "--task", "ner"],
         '{"_header": {"kind": "corpus"}}\n{"id": "s1", "tokens": %s, "labels": []}\n', 2),
        # a whole file that orjson rejects, and one it reads but that may
        # hold an integer beyond 64 bits: json decodes both
        (["--config", "in.json", "synth", "--out", "out"], '{"sentences": 7,\n "seed": %s,}\n', 2),
        (["--config", "in.json", "synth", "--out", "out"],
         '{"sentences": 7,\n "n": 100000000000000000000,\n "seed": %s}\n', 3),
    ],
    ids=["corpus line", "config orjson rejects", "config with a big integer"],
)
def test_deeply_nested_json_is_a_parse_error_at_its_line(tmp_path, capsys, monkeypatch, argv, content, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(content % _DEEP)
    assert run(argv) == 1
    record = _error_record(capsys)
    assert (record["error"], record["message"]) == ("ParseError", f"line {line}: invalid JSON: nested too deeply")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, message",
    [
        ("seed", "--config key 'seed' must be an integer, got [[[[[[[...]]]]]]]"),
        ("strict", "--config key 'strict' must be true or false, got [[[[[[[...]]]]]]]"),
        ("task", "--config key 'task': [[[[[[[...]]]]]]] is not one of "
                 "['ner', 'relclass', 'sentiment2', 'sentiment3']"),
    ],
)
def test_a_deeply_nested_config_value_is_named_a_few_levels_deep(tmp_path, capsys, key, message):
    # json reads it, and the message's repr() of it ended in a RecursionError
    (tmp_path / "config.json").write_text('{"%s": %s}' % (key, _DEEP))
    argv = ["--config", tmp_path / "config.json", "ingest-validate", "--corpus", tmp_path / "in.json",
            "--task", "ner"]
    assert run(argv) == 1
    assert _error_record(capsys) == {"error": "ConfigError", "message": message}


def test_readme_pipeline_reads_back_every_output_under_strict(tmp_path, capsys):
    """The README walkthrough from ``synth`` to ``mtl``, ``--strict`` on every
    command: each line file cognlp writes reads back under its own strict
    reader."""
    data, feats, runs = tmp_path / "data", tmp_path / "feats", tmp_path / "runs"
    corpus = ["--corpus", data / "corpus.jsonl", "--task", "ner"]
    fixations = ["--fixations", data / "fixations.jsonl"]
    folds = ["--folds", 2, "--ratios", "0.5,0.0,0.5", "--epochs", 1]
    steps = [
        ["synth", "--out", data, "--task", "ner", "--sentences", 12, "--subjects", 2,
         "--delta-trt", 100, "--seed", 7],
        ["ingest-validate", *corpus, *fixations, "--eeg", data / "eeg.jsonl"],
        ["extract-gaze", *corpus, *fixations, "--out", feats / "gaze.jsonl",
         "--fixp-out", feats / "fixp.jsonl"],
        ["extract-eeg", *corpus, *fixations, "--eeg", data / "eeg.jsonl", "--out", feats / "eeg.jsonl"],
        ["assemble", *corpus, "--gaze", feats / "gaze.jsonl", "--eeg", feats / "eeg.jsonl",
         "--lex", feats / "fixp.jsonl", "--out", feats / "dataset.jsonl"],
        ["assemble", *corpus, "--out", feats / "baseline.jsonl"],
        ["build-lexicon", *corpus, "--gaze", feats / "gaze.jsonl", "--eeg", feats / "eeg.jsonl",
         "--out", tmp_path / "lexicon.json"],
        ["apply-lexicon", *corpus, "--lexicon", tmp_path / "lexicon.json", "--out", feats / "lex.jsonl"],
        ["assemble", *corpus, "--lex", feats / "lex.jsonl", "--out", feats / "lexdataset.jsonl"],
        ["train", "--dataset", feats / "baseline.jsonl", "--out", runs / "base", *folds],
        ["train", "--dataset", feats / "dataset.jsonl", "--out", runs / "gaze", *folds],
        ["evaluate", "--dataset", feats / "baseline.jsonl", "--runs", f"baseline={runs / 'base'}"],
        ["evaluate", "--dataset", feats / "dataset.jsonl", "--runs", f"gaze={runs / 'gaze'}"],
        ["evaluate", "--dataset", feats / "dataset.jsonl", "--compare", f"{runs / 'base'},{runs / 'gaze'}",
         "--rounds", 50],
        ["mtl", "--dataset", feats / "dataset.jsonl", "--out", runs / "mtl", "--aux", "TRT", *folds],
    ]
    for argv in steps:
        assert run([*argv, "--strict"]) == 0, (argv[0], capsys.readouterr().err)


_TABLE_ROW = '{"sentence_id": "s1", "word_index": 0, "values": [1.0]}'
_DATASET_LINE = '{"id": "s1", "tokens": ["a"], "labels": ["O"]}'


@pytest.mark.parametrize(
    "flag, lines, expected",
    [
        # a table or a dataset needs a header of its own kind before its
        # first record; a header of another kind is skipped
        ("--lex", ['{"_header": {"kind": "corpus"}}', _TABLE_ROW],
         ("line 2: missing features header line", 2)),
        ("--lex", [], ("missing features header line", None)),
        ("--eeg", ['{"_header": {"kind": "features", "dims": ["theta1"]}}', "{}"],
         ("line 2: missing eeg_features header line", 2)),
        ("--dataset", ['{"_header": {"kind": "features", "dims": []}}', _DATASET_LINE],
         ("line 2: missing dataset header line", 2)),
        ("--dataset", ['{"_header": {"kind": "dataset", "manifest": []}}', _DATASET_LINE],
         ("line 1: missing field 'task'", 1)),
    ],
    ids=["token table", "empty token table", "eeg feature table", "dataset", "dataset header"],
)
def test_tables_and_datasets_need_their_header_first(tmp_path, capsys, flag, lines, expected):
    corpus, bad = tmp_path / "corpus.jsonl", tmp_path / "in.jsonl"
    corpus.write_text(_DATASET_LINE + "\n")
    bad.write_text("".join(line + "\n" for line in lines))
    if flag == "--dataset":
        argv = ["train", "--dataset", bad, "--folds", 2, "--ratios", "0.5,0.0,0.5"]
    else:
        argv = ["assemble", "--corpus", corpus, "--task", "ner", flag, bad]
    assert run([*argv, "--out", tmp_path / "out"]) == 1
    record = _error_record(capsys)
    assert (record["error"], record["message"], record.get("line")) == ("ParseError", *expected)


def _without(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def _short_tagger_row(obj):
    feature = sorted(obj["weights"])[0]
    obj["weights"][feature] = obj["weights"][feature][:-1]
    return obj


def _short_logistic_row(obj):
    obj["weights"][1] = obj["weights"][1][:-1]
    return obj


@pytest.mark.parametrize(
    "model, damage",
    [
        ("tagger", _without("kind")),
        ("tagger", _without("tags")),
        ("tagger", _short_tagger_row),
        ("tagger", lambda obj: {**obj, "weights": [[0.0, 1.0]]}),
        ("tagger", lambda obj: {**obj, "kind": ["tagger"]}),
        ("tagger", lambda obj: [1, 2]),
        ("logistic", _without("kind")),
        ("logistic", _short_logistic_row),
        ("logistic", lambda obj: {**obj, "bias": obj["bias"] + [0.0]}),
        ("logistic", lambda obj: {**obj, "weights": obj["weights"][:-1]}),
        ("logistic", lambda obj: {**obj, "config": {"rate": 1.0}}),
        ("logistic", lambda obj: {**obj, "config": {**obj["config"], "l2": -1.0}}),
    ],
)
def test_damaged_model_file_is_one_json_line(tmp_path, capsys, model, damage):
    dataset = tmp_path / "dataset.jsonl"
    _tiny_dataset(dataset, "ner" if model == "tagger" else "sentiment2")
    runs = tmp_path / "runs"
    assert run([
        "train", "--dataset", dataset, "--out", runs, "--model", model,
        "--folds", 2, "--ratios", "0.5,0.0,0.5", "--epochs", 2,
    ]) == 0
    assert run(["evaluate", "--dataset", dataset, "--runs", f"baseline={runs}"]) == 0
    capsys.readouterr()
    path = runs / "model_fold0.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()))) + "\n")
    assert run(["evaluate", "--dataset", dataset, "--runs", f"baseline={runs}"]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert "model_fold0.json" in record["message"]


def test_bad_frequency_lexicon_count_is_one_json_line(tmp_path, capsys):
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    lexicon = tmp_path / "freq.tsv"
    lexicon.write_text("the\t12\na\tmany\n")
    assert run([
        "mtl", "--dataset", tmp_path / "dataset.jsonl", "--out", tmp_path / "out",
        "--aux", "word_frequency", "--freq-lexicon", lexicon, "--folds", 2,
        "--ratios", "0.5,0.0,0.5", "--epochs", 1,
    ]) == 1
    record = _error_record(capsys)
    assert (record["error"], record["line"]) == ("ValidationError", 2)
    assert "'many'" in record["message"]


def _tiny_run_argv(tmp, stage, *extra):
    return [
        stage, "--dataset", tmp / "dataset.jsonl", "--out", tmp / "out",
        "--folds", 2, "--ratios", "0.5,0.0,0.5", *extra,
    ]


def test_run_is_runs_with_one_label(tmp_path, capsys):
    # ``--run DIR --label L`` spells ``--runs L=DIR``: the same table and
    # run files, but for the options the provenance records
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    assert run(_tiny_run_argv(tmp_path, "train", "--epochs", 1)) == 0
    out = tmp_path / "out"
    outcomes = []
    for how in (["--run", out, "--label", "gaze"], ["--runs", f"gaze={out}"]):
        capsys.readouterr()
        assert run(["evaluate", "--dataset", tmp_path / "dataset.jsonl", *how]) == 0
        report = json.loads((out / "report.json").read_text())
        del report["provenance"]
        predictions = (out / "predictions.jsonl").read_text().splitlines()[1:]
        outcomes.append((capsys.readouterr().out, report, predictions))
    assert outcomes[0] == outcomes[1]
    assert "gaze" in outcomes[0][1]["tasks"]["ner"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--folds", "x"], "argument --folds: invalid int value: 'x'"),
        (["train", "--ratios", "-1,1,1"], "argument --ratios: expected one argument"),
        (["evaluate", "--scorer", "nope"], "argument --scorer: invalid choice: 'nope'"),
        (["train", "--out", "out"], "the following arguments are required: --dataset"),
        (["nope"], "argument command: invalid choice: 'nope'"),
    ],
)
def test_usage_errors_are_one_json_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    if argv[0] != "nope" and "--dataset" not in message:
        argv = [*argv, "--dataset", "dataset.jsonl", "--out", "out"]
    assert run(argv) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert capsys.readouterr() == ("", "")  # no usage block
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, key",
    [
        ({"folds": 2.5}, "folds"),
        ({"seed": [1]}, "seed"),
        ({"seed": True}, "seed"),
        ({"epochs": None}, "epochs"),
        ({"lr": "fast"}, "lr"),
        ({"ratios": [0.5, 0.0, 0.5]}, "ratios"),
        ({"model": "forest"}, "model"),
        ({"strict": 1}, "strict"),
        ({"strict": "true"}, "strict"),
    ],
)
def test_config_values_of_the_wrong_type_are_one_json_line(tmp_path, capsys, config, key):
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run(["--config", tmp_path / "config.json", *_tiny_run_argv(tmp_path, "train")]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert repr(key) in record["message"] or f"--{key}" in record["message"]
    assert not (tmp_path / "out").exists()


def test_config_values_resolve_as_before(tmp_path, capsys, monkeypatch):
    # a string is parsed as on the command line, an integer may stand for a
    # float, and null for an option whose default is None
    monkeypatch.chdir(tmp_path)
    _tiny_dataset(tmp_path / "dataset.jsonl", "sentiment2")
    config = {"epochs": "2", "lr": 1, "lr_halve_every": None, "strict": False, "agg": "mean"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["train", "--dataset", "dataset.jsonl", "--out", "out", "--folds", 2]
    assert run(["--config", "config.json", *argv, "--ratios", "0.5,0.0,0.5"]) == 0
    provenance = json.loads((tmp_path / "out" / "config.json").read_text())["provenance"]
    assert provenance["config"] == {
        "dataset": "dataset.jsonl", "out": "out", "model": "auto", "folds": 2,
        "ratios": "0.5,0.0,0.5", "epochs": 2, "lr": 1, "l2": 0.0, "lr_halve_every": None,
        "bins": 10, "seed": 0, "strict": False, "command": "train",
    }
    assert provenance["config_hash"] == "4c6fc6f49a75"  # as before the type checks


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--len-min", 5, "--len-max", 2], "sentence lengths"),
        (["--len-min", 0], "sentence lengths"),
        (["--vocab", 0], "vocabulary size"),
        (["--entity-mode", "lexical", "--entity-vocab", 0], "entity vocabulary"),
        # values synth took and wrote unusable files with
        (["--delta-trt", "nan"], "TRT shift"),
        (["--delta-trt", "inf"], "TRT shift"),
        (["--delta-eeg", "nan", "--eeg-band", "beta1"], "EEG shift"),
        (["--entity-rate", 2], "entity rate"),
        (["--entity-rate", -1], "entity rate"),
    ],
)
def test_degenerate_synth_sizes_are_one_json_line(tmp_path, capsys, extra, message):
    assert run([*synth_args(tmp_path / "out", sentences=3), *extra]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (tmp_path / "out").exists()


def _extract_argv(data, stage, out):
    argv = [
        stage, "--corpus", data / "corpus.jsonl", "--task", "ner",
        "--fixations", data / "fixations.jsonl", "--out", out,
    ]
    return [*argv, "--eeg", data / "eeg.jsonl"] if stage == "extract-eeg" else argv


@pytest.mark.parametrize(
    "stage, value",
    [("extract-gaze", "nan"), ("extract-gaze", "inf"), ("extract-gaze", -1),
     ("extract-eeg", "nan"), ("extract-eeg", "inf")],
)
def test_unusable_min_duration_is_one_json_line(tmp_path, capsys, stage, value):
    # nan and inf dropped every fixation: all-zero gaze rows, no EEG rows
    data = tmp_path / "data"
    assert run(synth_args(data, sentences=3)) == 0
    capsys.readouterr()
    out = tmp_path / "feats.jsonl"
    assert run([*_extract_argv(data, stage, out), "--min-duration", value]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert "minimum fixation duration" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "stage, config, message",
    [
        ("synth", '{"delta_trt": NaN}', "TRT shift"),
        ("synth", '{"entity_rate": 1.5}', "entity rate"),
        ("synth", '{"delta_eeg": 5}', "needs an EEG band"),
        ("extract-gaze", '{"min_duration": Infinity}', "minimum fixation duration"),
        ("train", '{"lr": NaN}', "learning rate"),
        ("train", '{"lr": Infinity}', "learning rate"),
        ("train", '{"l2": NaN}', "l2"),
        ("train", '{"l2": -Infinity}', "l2"),
        ("train", '{"l2": -1}', "l2"),
        # a rate of 0 does not train, a negative one climbs the loss
        ("train", '{"lr": 0}', "learning rate"),
        ("train", '{"lr": -1}', "learning rate"),
        ("train", '{"lr_halve_every": 0}', "lr_halve_every"),
        ("train", '{"lr_halve_every": -1}', "lr_halve_every"),
        # a ridge factor 1 - lr * l2 <= 0 wrote model files of bare NaN
        ("train", '{"l2": 1e308}', "lr * l2"),
        ("train", '{"lr": 0.5, "l2": 2}', "lr * l2"),
    ],
)
def test_unusable_config_numbers_are_one_json_line(tmp_path, capsys, stage, config, message):
    data = tmp_path / "data"
    out = tmp_path / "out"
    argv = synth_args(out, sentences=3)[:3]  # synth --out OUT: the rest from the config
    if stage == "train":
        # a non-finite lr or l2 wrote model files full of bare NaN and Infinity
        _tiny_dataset(tmp_path / "dataset.jsonl", "sentiment2")
        argv = _tiny_run_argv(tmp_path, stage, "--model", "logistic")
    elif stage != "synth":
        assert run(synth_args(data, sentences=3)) == 0
        argv = _extract_argv(data, stage, out)
    capsys.readouterr()
    (tmp_path / "config.json").write_text(config)
    assert run(["--config", tmp_path / "config.json", *argv]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "stage, task, epochs",
    [
        ("train", "ner", 0), ("train", "ner", -1), ("train", "sentiment2", 0),
        ("mtl", "ner", 0),
    ],
)
def test_epochs_below_one_are_one_json_line(tmp_path, capsys, stage, task, epochs):
    _tiny_dataset(tmp_path / "dataset.jsonl", task)
    assert run(_tiny_run_argv(tmp_path, stage, "--epochs", epochs)) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert "epochs" in record["message"]
    assert not (tmp_path / "out").exists()  # not even fold_plan.json


@pytest.mark.parametrize("bins", [0, 1, -2])
def test_tagger_bins_below_two_are_one_json_line(tmp_path, capsys, bins):
    # a dataset without cognitive features bins nothing, so only the config
    # can reject the value
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    assert run(_tiny_run_argv(tmp_path, "train", "--model", "tagger", "--bins", bins)) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert "n_bins" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--embed", 0], "embed_dim"),
        (["--hidden", 0], "hidden_dim"),
        (["--embed", -1, "--hidden", 4], "embed_dim"),
        (["--lr", "nan"], "learning rate"),
        (["--lr", -0.1], "learning rate"),
        (["--label-mode", "neutral-vs-rest"], "label_mode"),
        (["--aux", "GPT"], "'GPT'"),
    ],
)
def test_bad_mtl_config_writes_nothing(tmp_path, capsys, extra, message):
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    assert run(_tiny_run_argv(tmp_path, "mtl", *extra)) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (tmp_path / "out").exists()


def _tiny_corpus(path):
    corpus = ingest.Corpus("ner", (ingest.Sentence("s1", ("a", "b"), ("O", "O")),))
    path.write_text(ingest.serialize_corpus(corpus))


_LEXICON = {
    "dims": ["gaze/TRT", "gaze/NFIX"],
    "entries": {"a": {"values": [200.0, 1.0], "count": 2}},
    "unknown_policy": "zeros+flag",
}


@pytest.mark.parametrize(
    "damage",
    [
        _without("entries"),
        _without("dims"),
        lambda obj: {**obj, "dims": "gaze/TRT"},
        lambda obj: {**obj, "entries": [["a", [200.0, 1.0]]]},
        lambda obj: {**obj, "entries": {"a": {"values": [200.0], "count": 2}}},
        lambda obj: {**obj, "entries": {"a": {"values": [200.0, "x"], "count": 2}}},
        lambda obj: {**obj, "entries": {"a": {"values": [200.0, 1.0], "count": "2"}}},
        lambda obj: {**obj, "entries": {"a": {"values": [200.0, 1.0]}}},
        lambda obj: [obj],
        # the one policy there is; anything else was read and ignored
        lambda obj: {**obj, "unknown_policy": False},
        lambda obj: {**obj, "unknown_policy": []},
        lambda obj: {**obj, "unknown_policy": "other"},
    ],
)
def test_damaged_lexicon_file_is_one_json_line(tmp_path, capsys, damage):
    _tiny_corpus(tmp_path / "corpus.jsonl")
    argv = [
        "apply-lexicon", "--corpus", tmp_path / "corpus.jsonl", "--task", "ner",
        "--lexicon", tmp_path / "lexicon.json", "--out", tmp_path / "lex.jsonl",
    ]
    (tmp_path / "lexicon.json").write_text(json.dumps(_LEXICON))
    assert run(argv) == 0
    capsys.readouterr()
    (tmp_path / "lexicon.json").write_text(json.dumps(damage(_LEXICON)))
    assert run(argv) == 1
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert "lexicon.json" in record["message"]


@pytest.mark.parametrize(
    "damage",
    [
        _without("ratios"),
        _without("k"),
        _without("assignment"),
        lambda obj: {**obj, "k": "2"},
        lambda obj: {**obj, "seed": 1.5},
        lambda obj: {**obj, "ratios": [0.5, 0.5]},
        lambda obj: {**obj, "assignment": {**obj["assignment"], "s0": 2}},
        lambda obj: {**obj, "assignment": {**obj["assignment"], "s0": -1}},
        lambda obj: {**obj, "assignment": {**obj["assignment"], "s0": "1"}},
        lambda obj: {**obj, "assignment": sorted(obj["assignment"])},
        lambda obj: [obj],
    ],
)
def test_damaged_fold_plan_is_one_json_line(tmp_path, capsys, damage):
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    assert run(_tiny_run_argv(tmp_path, "train", "--epochs", 1)) == 0
    evaluate = ["evaluate", "--dataset", tmp_path / "dataset.jsonl", "--runs", f"baseline={tmp_path / 'out'}"]
    assert run(evaluate) == 0
    capsys.readouterr()
    path = tmp_path / "out" / "fold_plan.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()))) + "\n")
    assert run(evaluate) == 1
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert "fold_plan.json" in record["message"]


def test_repeated_subject_in_a_subset_is_one_json_line(tmp_path, capsys):
    data, feats = tmp_path / "data", tmp_path / "feats"
    assert run(synth_args(data, sentences=6)) == 0
    corpus = ["--corpus", data / "corpus.jsonl", "--task", "ner"]
    assert run([
        "extract-gaze", *corpus, "--fixations", data / "fixations.jsonl", "--out", feats / "gaze.jsonl",
    ]) == 0
    assemble = ["assemble", *corpus, "--gaze", feats / "gaze.jsonl", "--fixp"]
    assert run([*assemble, "--agg", "mean", "--out", feats / "mean.jsonl"]) == 0
    assert run([*assemble, "--agg", "subset:subj00,subj01", "--out", feats / "subset.jsonl"]) == 0
    # every subject once: the rows of the mean over all subjects
    rows = {name: (feats / name).read_text().splitlines()[1:] for name in ("mean.jsonl", "subset.jsonl")}
    assert rows["subset.jsonl"] == rows["mean.jsonl"]
    capsys.readouterr()
    twice = ["--agg", "subset:subj00,subj01,subj00", "--out", feats / "twice.jsonl"]
    assert run([*assemble, *twice]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and "['subj00']" in record["message"]
    assert not (feats / "twice.jsonl").exists()


@pytest.mark.parametrize(
    "config",
    [
        [1],
        {"provenance": []},
        {"provenance": {"config": []}},
        {"provenance": {"config": {"dataset": 3}}},
        {"provenance": {"config": {"dataset": ["dataset.jsonl"]}}},
    ],
)
def test_malformed_run_config_is_one_json_line(tmp_path, capsys, config):
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    assert run(_tiny_run_argv(tmp_path, "train", "--epochs", 1)) == 0
    evaluate = [
        "evaluate", "--dataset", tmp_path / "dataset.jsonl", "--runs", f"baseline={tmp_path / 'out'}",
    ]
    for usable in ({}, {"provenance": {}}, {"provenance": {"config": {}}}):
        # no dataset recorded: the run is scored against --dataset
        (tmp_path / "out" / "config.json").write_text(json.dumps(usable) + "\n")
        assert run(evaluate) == 0
    capsys.readouterr()
    (tmp_path / "out" / "config.json").write_text(json.dumps(config) + "\n")
    assert run(evaluate) == 1
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert "config.json" in record["message"]


def _eeg_bands(first):
    bands = {band: [1.0] * ingest.N_ELECTRODES for band in ingest.BAND_ORDER}
    bands["theta1"] = [first] + [1.0] * (ingest.N_ELECTRODES - 1)
    return bands


_DATASET_HEADER = {"_header": {"kind": "dataset", "task": "ner", "manifest": ["g/x"]}}
_DATASET_ROW = {"id": "s1", "tokens": ["a", "b"], "labels": ["O", "O"], "features": [[1.0], [2.0]]}


@pytest.mark.parametrize(
    "flag, lines, message",
    [
        (
            "ingest-validate --eeg",
            [{"_header": {"kind": "eeg"}}, {"subject": "A", "sentence_id": "s1", "seq": 0, "bands": _eeg_bands(True)}],
            "band 'theta1' must contain only numbers",
        ),
        (
            "ingest-validate --eeg",
            [{"subject": "true", "sentence_id": "s1", "seq": 0, "bands": _eeg_bands(1.0)},
             {"subject": "A", "sentence_id": "s1", "seq": 0, "bands": {**_eeg_bands(1.0), "gamma2": [False] * 105}}],
            "band 'gamma2' must contain only numbers",
        ),
        (
            "assemble --lex",
            [{"_header": {"kind": "features", "dims": ["f", "g"]}},
             {"sentence_id": "s1", "word_index": 0, "values": [1.0, False]}],
            "field 'values' must contain only numbers",
        ),
        (
            "assemble --eeg",
            [{"_header": {"kind": "eeg_features", "dims": ["theta1"]}},
             {"subject": "A", "sentence_id": "s1", "word_index": 0, "values": [True]}],
            "field 'values' must contain only numbers",
        ),
        (
            "train --dataset",
            [_DATASET_HEADER, {**_DATASET_ROW, "features": [[1.0], [True]]}],
            "field 'features' must contain only numbers",
        ),
        (
            "train --dataset",
            [_DATASET_HEADER, {**_DATASET_ROW, "sentence_vector": [False]}],
            "field 'sentence_vector' must contain only numbers",
        ),
    ],
)
def test_json_booleans_are_not_numbers(tmp_path, capsys, flag, lines, message):
    _assert_line_2_is_refused(tmp_path, capsys, flag, lines, message)


def _assert_line_2_is_refused(tmp_path, capsys, flag, lines, message):
    """``flag``'s file holds ``lines``; the stage stops at line 2 with a
    ParseError ``message``."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "s1", "tokens": ["a", "b"], "labels": ["O", "O"]}) + "\n")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
    stage, option = flag.split()
    argv = [stage, option, bad, "--out", tmp_path / "out"]
    if stage != "train":
        argv = [stage, "--corpus", corpus, "--task", "ner", option, bad]
        if stage == "assemble":
            argv += ["--out", tmp_path / "out.jsonl"]
    assert run(argv) == 1
    assert _error_record(capsys) == {"error": "ParseError", "message": f"line 2: {message}", "line": 2}


def test_json_booleans_are_not_numbers_in_a_lexicon_or_a_fold_plan(tmp_path, capsys):
    _assert_lexicon_and_fold_plan_refuse(tmp_path, capsys, True, False)


def _assert_lexicon_and_fold_plan_refuse(tmp_path, capsys, in_lexicon, in_ratios):
    _tiny_corpus(tmp_path / "corpus.jsonl")
    lexicon = {**_LEXICON, "entries": {"a": {"values": [200.0, in_lexicon], "count": 2}}}
    (tmp_path / "lexicon.json").write_text(json.dumps(lexicon))
    assert run([
        "apply-lexicon", "--corpus", tmp_path / "corpus.jsonl", "--task", "ner",
        "--lexicon", tmp_path / "lexicon.json", "--out", tmp_path / "lex.jsonl",
    ]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert record["message"].endswith("lexicon.json: ParseError: field 'values' must contain only numbers")

    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    assert run(_tiny_run_argv(tmp_path, "train", "--epochs", 1)) == 0
    plan = tmp_path / "out" / "fold_plan.json"
    obj = json.loads(plan.read_text())
    plan.write_text(json.dumps({**obj, "ratios": [0.8, in_ratios, 0.2]}) + "\n")
    capsys.readouterr()
    assert run(["evaluate", "--dataset", tmp_path / "dataset.jsonl", "--runs", f"baseline={tmp_path / 'out'}"]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert record["message"].endswith("fold_plan.json: ParseError: field 'ratios' must contain only numbers")


def test_booleans_are_looked_for_only_in_lines_that_may_hold_them(tmp_path, monkeypatch, capsys):
    # the type check is off the hot path: a pipeline over files without
    # "true" or "false" never runs it
    calls = []
    may_hold_bool = ingest._may_hold_bool

    def counted(text):
        if may_hold_bool(text):
            calls.append(text)
        return may_hold_bool(text)

    monkeypatch.setattr(ingest, "_may_hold_bool", counted)
    data, feats = tmp_path / "data", tmp_path / "feats"
    assert run(synth_args(data, sentences=4)) == 0
    corpus = ["--corpus", data / "corpus.jsonl", "--task", "ner"]
    fixations = ["--fixations", data / "fixations.jsonl"]
    assert run(["ingest-validate", *corpus, *fixations, "--eeg", data / "eeg.jsonl"]) == 0
    assert run(["extract-eeg", *corpus, *fixations, "--eeg", data / "eeg.jsonl", "--out", feats / "eeg.jsonl"]) == 0
    assert run(["assemble", *corpus, "--eeg", feats / "eeg.jsonl", "--out", feats / "dataset.jsonl"]) == 0
    assert run(["train", "--dataset", feats / "dataset.jsonl", "--out", tmp_path / "run",
                "--folds", 2, "--ratios", "0.5,0.0,0.5", "--epochs", 1]) == 0
    assert calls == []
    # a token "true" lets its line through to the check, which passes it
    rows = [_DATASET_HEADER] + [
        {**_DATASET_ROW, "id": f"s{i}", "tokens": ["true" if i == 3 else "a", "b"]} for i in range(6)
    ]
    (tmp_path / "tiny.jsonl").write_text("\n".join(json.dumps(row) for row in rows) + "\n")
    assert run(["train", "--dataset", tmp_path / "tiny.jsonl", "--out", tmp_path / "run2",
                "--folds", 2, "--ratios", "0.5,0.0,0.5", "--epochs", 1]) == 0
    assert len(calls) == 1 and '"true"' in calls[0]  # that one line, both feature rows at once


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_subcommand_help_names_its_options(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: cognlp {command} ")
    for flag, _ in cli._COMMON + cli._COMMANDS[command][2]:
        assert flag in out


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    for command, (_, help_line, _) in cli._COMMANDS.items():
        assert command in out and help_line in out


def test_one_main_call_builds_no_other_subcommand_parser(tmp_path, capsys):
    _tiny_corpus(tmp_path / "corpus.jsonl")
    argv = ["ingest-validate", "--corpus", tmp_path / "corpus.jsonl", "--task", "ner"]
    gc.collect()
    gc.disable()
    try:
        assert run(["--config", _config(tmp_path, {}), *argv]) == 0
        progs = {o._prog for o in gc.get_objects() if isinstance(o, argparse.HelpFormatter)}
    finally:
        gc.enable()
    assert progs == {"cognlp", "cognlp ingest-validate"}


def _config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def test_config_keys_are_checked_by_the_chosen_subcommand_only(tmp_path, capsys):
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    argv = _tiny_run_argv(tmp_path, "train", "--epochs", 1)
    # --eeg-window belongs to extract-eeg, which a train command no longer builds
    assert run(["--config", _config(tmp_path, {"eeg_window": 5}), *argv]) == 0
    assert run(["--config", _config(tmp_path, {"eeg_window": 5}), "extract-eeg"]) == 1
    assert "'eeg_window'" in _error_record(capsys)["message"]
    assert run(["--config", _config(tmp_path, {"bins": "x"}), *argv]) == 1
    assert "--bins" in _error_record(capsys)["message"]


@pytest.mark.parametrize(
    "flag, lines, message",
    [
        (
            "ingest-validate --eeg",
            [{"_header": {"kind": "eeg"}}, {"subject": "A", "sentence_id": "s1", "seq": 0, "bands": _eeg_bands("2.5")}],
            "band 'theta1' must contain only numbers",
        ),
        (
            "assemble --lex",
            [{"_header": {"kind": "features", "dims": ["f", "g"]}},
             {"sentence_id": "s1", "word_index": 0, "values": [1.0, "1e3"]}],
            "field 'values' must contain only numbers",
        ),
        (
            "assemble --eeg",
            [{"_header": {"kind": "eeg_features", "dims": ["theta1"]}},
             {"subject": "A", "sentence_id": "s1", "word_index": 0, "values": ["nan"]}],
            "field 'values' must contain only numbers",
        ),
        (
            "train --dataset",
            [_DATASET_HEADER, {**_DATASET_ROW, "features": [[1.0], ["2.5"]]}],
            "field 'features' must contain only numbers",
        ),
        (
            "train --dataset",
            [_DATASET_HEADER, {**_DATASET_ROW, "features": [[1.0], [None]]}],
            "field 'features' must contain only numbers",
        ),
        (
            "train --dataset",
            [_DATASET_HEADER, {**_DATASET_ROW, "sentence_vector": ["nan"]}],
            "field 'sentence_vector' must contain only numbers",
        ),
    ],
)
def test_numeric_strings_are_not_numbers(tmp_path, capsys, flag, lines, message):
    _assert_line_2_is_refused(tmp_path, capsys, flag, lines, message)


def test_numeric_strings_are_not_numbers_in_a_lexicon_or_a_fold_plan(tmp_path, capsys):
    _assert_lexicon_and_fold_plan_refuse(tmp_path, capsys, "2.5", "0.0")


def _first_tagger_weight(obj, value):
    obj["weights"][min(obj["weights"])][0] = value
    return obj


def _first_logistic_weight(obj, value):
    obj["weights"][0][0] = value
    return obj


@pytest.mark.parametrize(
    "model, damage, what",
    [
        ("tagger", _first_tagger_weight, "tagger weights"),
        ("logistic", _first_logistic_weight, "logistic weights"),
        ("logistic", lambda obj, value: {**obj, "bias": [value] + obj["bias"][1:]}, "logistic bias"),
    ],
)
@pytest.mark.parametrize("value", ["2.5", "1e3", "nan"])
def test_numeric_strings_in_a_model_file_are_not_numbers(tmp_path, capsys, model, damage, what, value):
    dataset = tmp_path / "dataset.jsonl"
    _tiny_dataset(dataset, "ner" if model == "tagger" else "sentiment2")
    runs = tmp_path / "runs"
    assert run([
        "train", "--dataset", dataset, "--out", runs, "--model", model,
        "--folds", 2, "--ratios", "0.5,0.0,0.5", "--epochs", 2,
    ]) == 0
    path = runs / "model_fold1.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()), value)) + "\n")
    capsys.readouterr()
    assert run(["evaluate", "--dataset", dataset, "--runs", f"baseline={runs}"]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert record["message"].endswith(f"model_fold1.json: ParseError: {what} must contain only numbers")


@pytest.mark.parametrize("warnings_are_errors", [False, True])
def test_training_that_overflows_is_a_config_error(tmp_path, capsys, warnings_are_errors):
    # a rate this large drove the trunk's parameters to about 1e299 (exit 0),
    # or, with RuntimeWarnings as errors, ended in a traceback
    _tiny_dataset(tmp_path / "dataset.jsonl", "ner")
    with warnings.catch_warnings():
        if warnings_are_errors:
            warnings.simplefilter("error", RuntimeWarning)
        assert run(_tiny_run_argv(tmp_path, "mtl", "--lr", 1e300)) == 1
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert "learning rate 1e+300 is too large" in record["message"]
    assert not (tmp_path / "out").exists()


def test_numeric_strings_in_a_model_s_normalization_stats_are_not_numbers(tmp_path, capsys):
    rows = [_DATASET_HEADER] + [
        {**_DATASET_ROW, "id": f"s{i}", "labels": ["B-PER", "O"] if i % 2 else ["O", "O"],
         "features": [[float(i)], [2.0 * i]]}
        for i in range(6)
    ]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
    runs = tmp_path / "runs"
    assert run(["train", "--dataset", dataset, "--out", runs, "--folds", 2,
                "--ratios", "0.5,0.0,0.5", "--epochs", 1]) == 0
    path = runs / "model_fold0.json"
    obj = json.loads(path.read_text())
    obj["stats"]["max"][0] = "9.5"
    path.write_text(json.dumps(obj) + "\n")
    capsys.readouterr()
    assert run(["evaluate", "--dataset", dataset, "--runs", f"baseline={runs}"]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert record["message"].endswith("model_fold0.json: ParseError: field 'max' must contain only numbers")


@pytest.mark.parametrize(
    "model, damage, matrix",
    [
        ("logistic", lambda obj: {**obj, "weights": [[True] + obj["weights"][0][1:]] + obj["weights"][1:],
                                  "bias": [False] + obj["bias"][1:]}, "logistic weights"),
        ("logistic", lambda obj: {**obj, "bias": [False] + obj["bias"][1:]}, "logistic bias"),
        ("tagger", lambda obj: {**obj, "weights": {k: [True] * len(v) for k, v in obj["weights"].items()}},
         "tagger weights"),
    ],
)
def test_booleans_in_a_model_file_are_one_json_line(tmp_path, capsys, model, damage, matrix):
    # packed with struct, a JSON true or false would read as 1.0 or 0.0
    dataset = tmp_path / "dataset.jsonl"
    _tiny_dataset(dataset, "ner" if model == "tagger" else "sentiment2")
    runs = tmp_path / "runs"
    assert run(["train", "--dataset", dataset, "--out", runs, "--model", model,
                "--folds", 2, "--ratios", "0.5,0.0,0.5", "--epochs", 2]) == 0
    path = runs / "model_fold0.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()))) + "\n")
    capsys.readouterr()
    assert run(["evaluate", "--dataset", dataset, "--runs", f"baseline={runs}"]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert record["message"].endswith(f"model_fold0.json: ParseError: {matrix} must contain only numbers")


def test_tagger_tags_that_are_not_strings_are_one_json_line(tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    _tiny_dataset(dataset, "ner")
    runs = tmp_path / "runs"
    assert run(["train", "--dataset", dataset, "--out", runs, "--folds", 2,
                "--ratios", "0.5,0.0,0.5", "--epochs", 2]) == 0
    path = runs / "model_fold0.json"
    obj = json.loads(path.read_text())
    path.write_text(json.dumps({**obj, "tags": [7] + obj["tags"][1:]}) + "\n")
    capsys.readouterr()
    assert run(["evaluate", "--dataset", dataset, "--runs", f"baseline={runs}"]) == 1
    record = _error_record(capsys)
    assert record["error"] == "ValidationError"
    assert record["message"].endswith("ParseError: tagger 'tags' must be a list of strings")


@pytest.mark.parametrize(
    "stage, header, message",
    [
        ("mtl", {**_DATASET_HEADER["_header"], "manifest": [5]},
         "dataset header 'manifest' must be a list of strings"),
        ("train", {**_DATASET_HEADER["_header"], "train_exclude": [["O"]]},
         "dataset header 'train_exclude' must be a list of strings"),
    ],
)
def test_dataset_header_fields_of_the_wrong_type_are_one_json_line(tmp_path, capsys, stage, header, message):
    rows = [{"_header": header}] + [{**_DATASET_ROW, "id": f"s{i}"} for i in range(6)]
    (tmp_path / "dataset.jsonl").write_text("\n".join(json.dumps(row) for row in rows) + "\n")
    extra = ["--aux", "TRT"] if stage == "mtl" else []
    assert run(_tiny_run_argv(tmp_path, stage, "--epochs", 1, *extra)) == 1
    record = _error_record(capsys)
    assert (record["error"], record["message"], record["line"]) == ("ParseError", f"line 1: {message}", 1)


@pytest.mark.parametrize(
    "task, model, label, other",
    [
        ("ner", "tagger", {"labels": ["O", "O"]}, {"label": "pos"}),
        ("sentiment2", "logistic", {"label": "pos"}, {"labels": ["O", "O"]}),
    ],
)
def test_train_strict_refuses_the_label_field_of_another_task(tmp_path, capsys, task, model, label, other):
    # each line holds both label fields; the task reads one, and --strict
    # refuses the other as it refuses any field the task does not read
    header = {"_header": {**_DATASET_HEADER["_header"], "task": task}}
    rows = [header] + [{**_DATASET_ROW, "id": f"s{i}", **label, **other} for i in range(6)]
    if task == "sentiment2":
        rows[1]["label"] = "neg"
    (tmp_path / "dataset.jsonl").write_text("\n".join(json.dumps(row) for row in rows) + "\n")
    argv = _tiny_run_argv(tmp_path, "train", "--model", model, "--epochs", 1)
    assert run(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert run([*argv, "--strict"]) == 1
    record = _error_record(capsys)
    [name] = other
    message = f"line 2: unknown fields [{name!r}] (strict mode)"
    assert (record["error"], record["message"], record["line"]) == ("ValidationError", message, 2)
