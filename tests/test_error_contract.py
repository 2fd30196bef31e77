"""The CLI's error contract under seeded mutation of every file kind it reads.

For one small synthetic run, each case replaces one JSON value in one line
of one input file with one of ``MUTATIONS`` and runs, in process, a command
that reads the file. Every case must end in exit 0, or in exit 1 with one
JSON line on stderr that holds ``"error"``; never in a traceback. Where the
value replaced is a number that the reader uses, a boolean, a string,
``null``, ``NaN`` or ``1e400`` must end in exit 1; where it is a string
that the reader uses, any value but a string must.

Per file kind and mutation, ``DRAWS`` values are replaced that are drawn
from every value of a drawn line, and as many from the numbers and from the
strings the reader uses. A string passes every type check, so it alone
reaches the checks of which strings a field takes (a label among the task's
classes, say): in one more drawn line, one string the reader uses in each
field is replaced by ``"1"``. The draws are seeded by the kind's name, so a
failure repeats. The kinds whose readers ``--strict`` changes are run once
more under it (``STRICT``), with draws of their own, and every line file
kind (``LINE_KINDS``) with an unknown record field, which only ``--strict``
refuses.
"""

import contextlib
import io
import json
import shutil
import traceback
import zlib

import numpy as np
import pytest

from cognlp import cli

MUTATIONS = ("true", "false", "null", '"1"', "[]", "{}", "NaN", "1e400", "-1", "0", "[[true]]")
#: Must end in exit 1 where a number belongs; in a ``--config`` file, a
#: string is parsed as if it were given on the command line.
NOT_NUMBERS = ("true", "false", "null", '"1"', "NaN", "1e400")
NOT_CONFIG_NUMBERS = ("true", "false", "null", "NaN", "1e400")
NOT_STRINGS = tuple(m for m in MUTATIONS if not m.startswith('"'))
#: Keys whose value may be null as well as a number.
NULLABLE = {"onset_ms", "lr_halve_every"}
DRAWS = 2
_HOLE = "@@mutation@@"


def run(argv):
    """``(exit code, stderr)`` of one in-process CLI call; a traceback
    fails the test at once, with the command."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    except BaseException:
        pytest.fail(f"{argv} raised:\n{traceback.format_exc()}")
    return code, err.getvalue()


def ok(argv):
    code, err = run(argv)
    assert code == 0, err


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The inputs of every file kind, from a 6-sentence NER run and a
    6-sentence sentiment run."""
    b = tmp_path_factory.mktemp("contract")
    ner = ["--corpus", b / "data/corpus.jsonl", "--task", "ner"]
    fix = ["--fixations", b / "data/fixations.jsonl"]
    ok(["synth", "--out", b / "data", "--task", "ner", "--sentences", 6, "--subjects", 2,
        "--seed", 3, "--entity-rate", 0.3])
    ok(["extract-gaze", *ner, *fix, "--out", b / "gaze.jsonl"])
    ok(["extract-eeg", *ner, *fix, "--eeg", b / "data/eeg.jsonl", "--out", b / "eeg_features.jsonl"])
    ok(["build-lexicon", *ner, "--gaze", b / "gaze.jsonl", "--out", b / "lexicon.json"])
    ok(["apply-lexicon", *ner, "--lexicon", b / "lexicon.json", "--out", b / "tokens.jsonl"])
    ok(["assemble", *ner, "--gaze", b / "gaze.jsonl", "--out", b / "dataset.jsonl"])
    folds = ["--folds", 2, "--ratios", "0.5,0.0,0.5"]
    ok(["train", "--dataset", b / "dataset.jsonl", "--out", b / "tagger", *folds, "--epochs", 1])
    ok(["evaluate", "--dataset", b / "dataset.jsonl", "--runs", f"baseline={b / 'tagger'}"])
    ok(["synth", "--out", b / "sdata", "--task", "sentiment2", "--sentences", 6, "--subjects", 1, "--seed", 3])
    sent = ["--corpus", b / "sdata/corpus.jsonl", "--task", "sentiment2"]
    ok(["extract-gaze", *sent, "--fixations", b / "sdata/fixations.jsonl", "--out", b / "sgaze.jsonl"])
    ok(["assemble", *sent, "--gaze", b / "sgaze.jsonl", "--out", b / "sdataset.jsonl"])
    ok(["train", "--dataset", b / "sdataset.jsonl", "--out", b / "logistic", "--model", "logistic",
        *folds, "--epochs", 2])
    (b / "freq.tsv").write_text("".join(f"w{i}\t{i + 1}\n" for i in range(6)))
    (b / "config.json").write_text(json.dumps({"folds": 2, "ratios": "0.5,0.0,0.5", "epochs": 1, "bins": 4}))
    return b


def _evaluate(b, run_dir, dataset="dataset.jsonl"):
    return ["evaluate", "--dataset", b / dataset, "--runs", f"baseline={run_dir}"]


#: kind -> (the file, relative to the base run; the command that reads it,
#: given the base run, the mutated file and a directory for outputs). A file
#: of a run dir (``RUN_DIRS``) is mutated in a copy of the dir.
KINDS = {
    "corpus": ("data/corpus.jsonl", lambda b, f, out: [
        "ingest-validate", "--corpus", f, "--task", "ner", "--fixations", b / "data/fixations.jsonl"]),
    "fixations": ("data/fixations.jsonl", lambda b, f, out: [
        "ingest-validate", "--corpus", b / "data/corpus.jsonl", "--task", "ner", "--fixations", f]),
    "eeg": ("data/eeg.jsonl", lambda b, f, out: [
        "ingest-validate", "--corpus", b / "data/corpus.jsonl", "--task", "ner",
        "--fixations", b / "data/fixations.jsonl", "--eeg", f]),
    "gaze table": ("gaze.jsonl", lambda b, f, out: [
        "assemble", "--corpus", b / "data/corpus.jsonl", "--task", "ner", "--gaze", f,
        "--out", out / "dataset.jsonl"]),
    "eeg feature table": ("eeg_features.jsonl", lambda b, f, out: [
        "assemble", "--corpus", b / "data/corpus.jsonl", "--task", "ner", "--eeg", f,
        "--out", out / "dataset.jsonl"]),
    "token table": ("tokens.jsonl", lambda b, f, out: [
        "assemble", "--corpus", b / "data/corpus.jsonl", "--task", "ner", "--lex", f,
        "--out", out / "dataset.jsonl"]),
    "lexicon": ("lexicon.json", lambda b, f, out: [
        "apply-lexicon", "--corpus", b / "data/corpus.jsonl", "--task", "ner", "--lexicon", f,
        "--out", out / "tokens.jsonl"]),
    "dataset": ("dataset.jsonl", lambda b, f, out: [
        "train", "--dataset", f, "--out", out / "run", "--folds", 2, "--ratios", "0.5,0.0,0.5",
        "--epochs", 1]),
    "sentiment dataset": ("sdataset.jsonl", lambda b, f, out: [
        "train", "--dataset", f, "--out", out / "run", "--model", "logistic", "--folds", 2,
        "--ratios", "0.5,0.0,0.5", "--epochs", 1]),
    "fold plan": ("tagger/fold_plan.json", lambda b, f, out: _evaluate(b, f.parent)),
    "run config": ("tagger/config.json", lambda b, f, out: _evaluate(b, f.parent)),
    "tagger model": ("tagger/model_fold1.json", lambda b, f, out: _evaluate(b, f.parent)),
    "logistic model": ("logistic/model_fold0.json",
                       lambda b, f, out: _evaluate(b, f.parent, "sdataset.jsonl")),
    "predictions": ("tagger/predictions.jsonl", lambda b, f, out: [
        "evaluate", "--dataset", b / "dataset.jsonl", "--compare", f"{b / 'tagger'},{f.parent}",
        "--rounds", 20]),
    "--config": ("config.json", lambda b, f, out: [
        "--config", f, "train", "--dataset", b / "dataset.jsonl", "--out", out / "run"]),
}


RUN_DIRS = ("tagger", "logistic")


def _paths(value, at=()):
    """The path of every value inside ``value``, with the value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield at + (key,), child
        yield from _paths(child, at + (key,))


#: Keys that no reader uses: the fields an EEG feature row repeats from its
#: header.
UNUSED = {"_header", "provenance", "mode", "reduction"}


def _used(path, value) -> str | None:
    """``"number"`` or ``"string"`` when the value at ``path`` is one that
    the reader uses: not in a header, a run's provenance or another of
    ``UNUSED``."""
    if UNUSED & set(path):
        return None
    return "number" if type(value) in (int, float) else "string" if type(value) is str else None


def _mutated(line: str, path, mutation: str) -> str:
    obj = json.loads(line)
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = _HOLE
    return json.dumps(obj, ensure_ascii=False).replace(json.dumps(_HOLE), mutation)


def _cases(lines, rng):
    """``(mutation, line index, path, what the reader uses the value at the
    path as)``: per mutation, ``DRAWS`` paths drawn among every value of a
    drawn line, and as many among the numbers, and among the strings, that
    the reader uses of a drawn line that has any; then ``"1"`` at the first
    string the reader uses in each field of one drawn line."""
    decoded = [(i, list(_paths(json.loads(line)))) for i, line in enumerate(lines) if line.strip()]
    used = {}
    for kind in ("number", "string"):
        of_kind = ((i, [p for p, v in paths if _used(p, v) == kind]) for i, paths in decoded)
        used[kind] = [(i, ps) for i, ps in of_kind if ps]
    for mutation in MUTATIONS * DRAWS:
        i, paths = decoded[rng.integers(len(decoded))]
        path, value = paths[rng.integers(len(paths))]
        yield mutation, i, path, _used(path, value)
        for kind, lines_paths in used.items():
            if lines_paths:
                i, ps = lines_paths[rng.integers(len(lines_paths))]
                yield mutation, i, ps[rng.integers(len(ps))], kind
    if used["string"]:
        i, ps = used["string"][rng.integers(len(used["string"]))]
        for path in {p[0]: p for p in reversed(ps)}.values():
            yield '"1"', i, path, "string"


def _check(argv, mutation, use, where, refused=NOT_NUMBERS):
    """The contract's verdict on one case: None, or what went wrong."""
    code, err = run(argv)
    err_lines = err.strip().splitlines()
    if code == 1:
        if len(err_lines) != 1 or "error" not in json.loads(err_lines[0]):
            return f"{where}: exit 1 without one JSON error line: {err!r}"
        return None
    if code != 0:
        return f"{where}: exit {code}"
    if use == "number" and mutation in refused and not (mutation == "null" and where[-1] in NULLABLE):
        return f"{where}: {mutation} where a number belongs ended in exit 0"
    if use == "string" and mutation in NOT_STRINGS:
        return f"{where}: {mutation} where a string belongs ended in exit 0"
    return None


#: kind -> the command that reads the file under ``--strict``, for each
#: reader that ``--strict`` changes: unknown fields in every line file, a
#: fixation under the duration threshold, a fixated word with no EEG record,
#: and the assembled tables' checks.
STRICT = {
    **{
        kind: lambda b, f, out, kind=kind: [*KINDS[kind][1](b, f, out), "--strict"]
        for kind in (
            "corpus", "gaze table", "eeg feature table", "token table", "dataset", "sentiment dataset",
            "predictions",
        )
    },
    "fixations": lambda b, f, out: [
        "extract-gaze", "--corpus", b / "data/corpus.jsonl", "--task", "ner", "--fixations", f,
        "--out", out / "gaze.jsonl", "--strict"],
    "eeg": lambda b, f, out: [
        "extract-eeg", "--corpus", b / "data/corpus.jsonl", "--task", "ner",
        "--fixations", b / "data/fixations.jsonl", "--eeg", f, "--out", out / "eeg_features.jsonl",
        "--strict"],
}


def _faults(base, tmp_path, kind, command, seed: str) -> list[str]:
    """What went wrong in the cases of one file kind, read by ``command``;
    the draws are seeded by ``seed``."""
    name = KINDS[kind][0]
    lines = (base / name).read_text(encoding="utf-8").split("\n")
    rng = np.random.default_rng(zlib.crc32(seed.encode()))
    faults = []
    for n, (mutation, i, path, use) in enumerate(_cases(lines, rng)):
        case = tmp_path / str(n)
        target = case / name
        if target.parent.name in RUN_DIRS:
            shutil.copytree(base / target.parent.name, target.parent)
        else:
            target.parent.mkdir(parents=True)
        mutated = lines[:i] + [_mutated(lines[i], path, mutation)] + lines[i + 1:]
        target.write_text("\n".join(mutated), encoding="utf-8")
        where = (kind, i + 1, mutation) + path
        refused = NOT_CONFIG_NUMBERS if kind == "--config" else NOT_NUMBERS
        fault = _check(command(base, target, case), mutation, use, where, refused)
        if fault:
            faults.append(fault)
        shutil.rmtree(case)  # 66 copies of an EEG file would take 110 MB
    return faults


#: The kinds of one JSON object per line, each read by its ``KINDS`` command.
LINE_KINDS = (
    "corpus", "fixations", "eeg", "gaze table", "eeg feature table", "token table", "dataset",
    "sentiment dataset", "predictions",
)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("kind", LINE_KINDS)
def test_an_unknown_record_field_is_refused_under_strict_only(base, tmp_path, kind, strict):
    name, command = KINDS[kind]
    lines = (base / name).read_text(encoding="utf-8").split("\n")
    i = next(i for i, line in enumerate(lines) if line and "_header" not in json.loads(line))
    lines[i] = json.dumps({**json.loads(lines[i]), "bogus": 1})
    target = tmp_path / "case" / name
    if target.parent.name in RUN_DIRS:
        shutil.copytree(base / target.parent.name, target.parent)
    else:
        target.parent.mkdir(parents=True)
    target.write_text("\n".join(lines), encoding="utf-8")
    code, err = run([*command(base, target, tmp_path), *(["--strict"] if strict else [])])
    if not strict:
        assert code == 0, err
        return
    assert code == 1
    record = json.loads(err)
    assert (record["error"], record["line"]) == ("ValidationError", i + 1)
    assert record["message"] == f"line {i + 1}: unknown fields ['bogus'] (strict mode)"


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_mutated_file_ends_in_exit_0_or_one_json_error_line(base, tmp_path, kind):
    assert _faults(base, tmp_path, kind, KINDS[kind][1], kind) == []


@pytest.mark.parametrize("kind", sorted(STRICT))
def test_a_mutated_file_read_under_strict_ends_in_exit_0_or_one_json_error_line(base, tmp_path, kind):
    assert _faults(base, tmp_path, kind, STRICT[kind], f"{kind} --strict") == []


def test_a_mutated_frequency_lexicon_count_ends_in_exit_1(base, tmp_path):
    # a tab-separated file, not JSON: each mutation replaces a count's
    # text, and none of them is a count >= 1
    lines = (base / "freq.tsv").read_text().splitlines()
    for n, mutation in enumerate(MUTATIONS):
        i = n % len(lines)
        word, _ = lines[i].split("\t")
        path = tmp_path / f"freq{n}.tsv"
        path.write_text("\n".join(lines[:i] + [f"{word}\t{mutation}"] + lines[i + 1:]) + "\n")
        code, err = run([
            "mtl", "--dataset", base / "dataset.jsonl", "--out", tmp_path / "out", "--aux",
            "word_frequency", "--freq-lexicon", path, "--folds", 2, "--ratios", "0.5,0.0,0.5",
            "--epochs", 1, "--embed", 4, "--hidden", 4,
        ])
        assert code == 1 and json.loads(err)["line"] == i + 1, (mutation, err)


def _error(argv):
    """The one JSON error line of a call that must end in exit 1."""
    code, err = run(argv)
    assert code == 1 and len(err.strip().splitlines()) == 1, err
    return json.loads(err)


def _replaced(obj, old, new, value):
    return {**{k: v for k, v in obj.items() if k != old}, new: value}


#: Dataset lines that the corpus reader's rules refuse: (file, the line
#: replaced, its replacement lines, the line at fault, the command that
#: reads the file). The dataset reader used to read each of them, and the
#: command then trained or ended in a KeyError.
LOGISTIC = ["train", "--model", "logistic"]
BAD_DATASET_LINES = {
    "a sentiment label that is no class": (
        "sdataset.jsonl", 2, lambda obj: [{**obj, "label": "foo"}], 2, LOGISTIC),
    "a list of sentiment labels": (
        "sdataset.jsonl", 2, lambda obj: [_replaced(obj, "label", "labels", [obj["label"]] * len(obj["tokens"]))],
        2, LOGISTIC),
    "an empty token": (
        "dataset.jsonl", 2, lambda obj: [{**obj, "tokens": ["", *obj["tokens"][1:]]}], 2,
        ["train", "--strict"]),
    "a first tag I-PER": (
        "dataset.jsonl", 2, lambda obj: [{**obj, "labels": ["I-PER", *obj["labels"][1:]]}], 2, ["train"]),
    "a tag XYZ": (
        "dataset.jsonl", 2, lambda obj: [{**obj, "labels": ["XYZ", *obj["labels"][1:]]}], 2, ["train"]),
    "a repeated line": ("dataset.jsonl", 3, lambda obj: [obj, obj], 4, ["train"]),
    "a header task bogus": (
        "dataset.jsonl", 1, lambda obj: [{"_header": {**obj["_header"], "task": "bogus"}}], 1, ["mtl"]),
}


@pytest.mark.parametrize("case", sorted(BAD_DATASET_LINES))
def test_a_dataset_line_the_corpus_rules_refuse_is_one_json_error_line(base, tmp_path, case):
    name, lineno, edit, at_fault, command = BAD_DATASET_LINES[case]
    lines = (base / name).read_text(encoding="utf-8").split("\n")
    lines[lineno - 1:lineno] = map(json.dumps, edit(json.loads(lines[lineno - 1])))
    dataset = tmp_path / name
    dataset.write_text("\n".join(lines), encoding="utf-8")
    record = _error([*command, "--dataset", dataset, "--out", tmp_path / "run", "--folds", 2,
                     "--ratios", "0.5,0.0,0.5", "--epochs", 1])
    assert record["line"] == at_fault and record["message"].startswith(f"line {at_fault}: ")
    assert not (tmp_path / "run").exists()


def _first_set(rows, value):
    return [[value] + rows[0][1:]] + rows[1:]


def _rewrite_line(path, lineno, edit):
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[lineno - 1] = json.dumps(edit(json.loads(lines[lineno - 1])))  # writes NaN bare
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_feature_in_a_dataset_is_refused_by_train(base, tmp_path, value):
    # it used to train, writing NaN into the model's stats
    dataset = tmp_path / "dataset.jsonl"
    shutil.copy(base / "dataset.jsonl", dataset)
    _rewrite_line(dataset, 3, lambda obj: {**obj, "features": _first_set(obj["features"], value)})
    record = _error(["train", "--dataset", dataset, "--out", tmp_path / "run", "--folds", 2,
                     "--ratios", "0.5,0.0,0.5", "--epochs", 1])
    assert (record["error"], record["line"]) == ("ValidationError", 3)
    assert record["message"] == "line 3: field 'features' must be finite"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_a_non_finite_weight_in_a_logistic_model_is_refused_by_evaluate(base, tmp_path, value):
    runs = tmp_path / "logistic"
    shutil.copytree(base / "logistic", runs)
    _rewrite_line(runs / "model_fold0.json", 1, lambda obj: {**obj, "weights": _first_set(obj["weights"], value)})
    record = _error(["evaluate", "--dataset", base / "sdataset.jsonl", "--runs", f"baseline={runs}"])
    assert record["error"] == "ValidationError"
    assert record["message"].endswith("model_fold0.json: ValidationError: logistic weights must be finite")


@pytest.mark.parametrize(
    "model, key, value, expected",
    [
        ("tagger", "n_bins", 2.5, "n_bins must be an integer, got 2.5"),
        ("tagger", "epochs", True, "epochs must be an integer, got True"),
        ("tagger", "seed", 1e400, "seed must be an integer, got inf"),
        ("logistic", "lr", "0.5", "lr must be a number, got '0.5'"),
        ("logistic", "l2", False, "l2 must be a number, got False"),
        ("logistic", "lr_halve_every", 2.0, "lr_halve_every must be an integer, got 2.0"),
    ],
)
def test_a_model_config_value_of_the_wrong_type_is_refused_by_evaluate(base, tmp_path, model, key, value, expected):
    runs = tmp_path / model
    shutil.copytree(base / model, runs)
    _rewrite_line(runs / "model_fold0.json", 1, lambda obj: {**obj, "config": {**obj["config"], key: value}})
    dataset = base / ("dataset.jsonl" if model == "tagger" else "sdataset.jsonl")
    record = _error(["evaluate", "--dataset", dataset, "--runs", f"baseline={runs}"])
    assert record["error"] == "ValidationError"
    assert record["message"].endswith(f"model_fold0.json: ConfigError: {expected}")


@pytest.mark.parametrize(
    "model, key", [("logistic", "vocab"), ("logistic", "classes"), ("logistic", "manifest"), ("tagger", "manifest")]
)
def test_a_model_name_that_is_not_a_string_is_refused_by_evaluate(base, tmp_path, model, key):
    # a list in a logistic vocab ended in a TypeError traceback
    runs = tmp_path / model
    shutil.copytree(base / model, runs)
    _rewrite_line(runs / "model_fold0.json", 1, lambda obj: {**obj, key: [[]] + obj[key][1:]})
    dataset = base / ("dataset.jsonl" if model == "tagger" else "sdataset.jsonl")
    record = _error(["evaluate", "--dataset", dataset, "--runs", f"baseline={runs}"])
    assert record["message"].endswith(f"ParseError: {model} {key!r} must be a list of strings")


@pytest.mark.parametrize("command", ["ingest-validate", "assemble"])
def test_a_lone_surrogate_escape_is_a_parse_error_with_its_line(base, tmp_path, command):
    # json reads it, and the first writer then failed on it
    corpus = tmp_path / "corpus.jsonl"
    lines = (base / "data/corpus.jsonl").read_text(encoding="utf-8").split("\n")
    lines[1] = lines[1].replace('"tokens":["', '"tokens":["a\\ud800', 1)
    assert "\\ud800" in lines[1]
    corpus.write_text("\n".join(lines), encoding="utf-8")
    argv = [command, "--corpus", corpus, "--task", "ner"]
    if command == "assemble":
        argv += ["--gaze", base / "gaze.jsonl", "--out", tmp_path / "dataset.jsonl"]
    record = _error(argv)
    assert record == {"error": "ParseError", "line": 2, "message": "line 2: invalid JSON: lone surrogate escape"}
