"""The benchmark's workloads: the inputs each one generates and the CLI
stages it runs, in order, each waiting for the one before.

Every path is relative, because each run executes in a fresh working
directory and provenance headers embed the resolved arguments; identical
relative paths give byte-identical outputs wherever the run happens.

Sentence-length ranges are narrow so that total work hardly depends on the
seed: the seed changes the content of the inputs, not their size.

``BENCHMARK.json`` gates ``ner-extract`` and ``ner-protocol``, which between
them exercise every module. ``sentiment-bigvocab`` runs by name only: with
three gated workloads the run budget allows windows too short to be steady
on a noisy two-vCPU host. It alone measures logistic training, the macro-F1
scorer and the trunk network at a large vocabulary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Stage names, in pipeline order; each is one end-to-end ``<stage>_s`` time.
STAGES = (
    "synth", "validate", "extract_gaze", "extract_eeg", "assemble",
    "lexicon", "train", "evaluate", "significance", "mtl",
)


@dataclass(frozen=True)
class Step:
    stage: str
    argv: tuple[str, ...]
    #: checks the stage's stdout beyond its digest; returns a problem or None
    check: Callable[[str], str | None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: Callable[[int], tuple[Step, ...]]
    #: writes generated inputs into the working directory (not a stage)
    setup: Callable[[int], None] | None = None


def _expect(condition: bool, problem: str) -> str | None:
    return None if condition else problem


# ---------------------------------------------------------------------------
# ner-extract: recordings to features, EEG write and read paths, long sentences

EXTRACT_SENTENCES = 8
EXTRACT_LENGTH = (40, 48)
HELDOUT_SENTENCES = 60


def _extract_setup(seed: int) -> None:
    # a second corpus over the same vocabulary for apply-lexicon: same seed
    # and vocabulary size draw the same words, so some types are known and
    # some are not
    from cognlp import ingest, synth

    spec = synth.SynthSpec(task="ner", n_sentences=HELDOUT_SENTENCES, n_subjects=1)
    heldout = synth.generate_synthetic(spec, seed)
    _write("data/heldout.jsonl", ingest.serialize_corpus(heldout.corpus))


def _check_validate(stdout: str) -> str | None:
    report = json.loads(stdout)
    return _expect(
        report["sentences"] == EXTRACT_SENTENCES and report["fixations_without_eeg"] == 0,
        f"validation report disagrees with the synth request: {report}",
    )


def _check_lexicon(stdout: str) -> str | None:
    coverage = json.loads(stdout)
    return _expect(
        coverage["tokens"] > 0 and 0 <= coverage["unknown"] <= coverage["tokens"],
        f"implausible lexicon coverage {coverage}",
    )


def _extract_steps(seed: int) -> tuple[Step, ...]:
    s = str(seed)
    corpus = ("--corpus", "data/corpus.jsonl", "--task", "ner")
    fix = ("--fixations", "data/fixations.jsonl")
    return (
        Step("synth", ("synth", "--out", "data", "--task", "ner",
                       "--sentences", str(EXTRACT_SENTENCES), "--subjects", "3",
                       "--len-min", str(EXTRACT_LENGTH[0]), "--len-max", str(EXTRACT_LENGTH[1]),
                       "--delta-trt", "100", "--seed", s)),
        Step("validate", ("ingest-validate", *corpus, *fix, "--eeg", "data/eeg.jsonl"),
             _check_validate),
        Step("extract_gaze", ("extract-gaze", *corpus, *fix, "--out", "feats/gaze.jsonl",
                              "--fixp-out", "feats/fixp.jsonl")),
        Step("extract_eeg", ("extract-eeg", *corpus, *fix, "--eeg", "data/eeg.jsonl",
                             "--out", "feats/eeg.jsonl", "--eeg-window", "trt")),
        Step("assemble", ("assemble", *corpus, "--gaze", "feats/gaze.jsonl",
                          "--eeg", "feats/eeg.jsonl", "--agg", "mean",
                          "--out", "feats/dataset.jsonl")),
        Step("lexicon", ("build-lexicon", *corpus, "--gaze", "feats/gaze.jsonl",
                         "--eeg", "feats/eeg.jsonl", "--out", "lexicon.json")),
        Step("lexicon", ("apply-lexicon", "--corpus", "data/heldout.jsonl", "--task", "ner",
                         "--lexicon", "lexicon.json", "--out", "feats/lex.jsonl"),
             _check_lexicon),
    )


# ---------------------------------------------------------------------------
# ner-protocol and sentiment-bigvocab: the paper's experiments, no EEG file

PROTOCOL_SENTENCES = 100
PROTOCOL_ROUNDS = 400
# longer sentences widen the vocabulary the trunk network sees without
# adding training steps
BIGVOCAB_SENTENCES = 250
BIGVOCAB_LENGTH = (18, 22)
BIGVOCAB_VOCAB = 20000
BIGVOCAB_ROUNDS = 150


def _recordings_setup(task: str, sentences: int, length: tuple[int, int], subjects: int,
                      vocab: int):
    def setup(seed: int) -> None:
        from cognlp import ingest, synth

        spec = synth.SynthSpec(
            task=task,
            n_sentences=sentences,
            sentence_length=length,
            n_subjects=subjects,
            vocab_size=vocab,
            planted=synth.PlantedEffect(delta_trt_ms=100.0),
        )
        result = synth.generate_synthetic(spec, seed)
        _write("data/corpus.jsonl", ingest.serialize_corpus(result.corpus))
        _write("data/fixations.jsonl", ingest.serialize_fixations(result.fixations))

    return setup


def _check_report(stdout: str) -> str | None:
    return _expect("gaze" in stdout and "baseline" in stdout, "report table lacks a row")


def _check_compare(stdout: str) -> str | None:
    result = json.loads(stdout)
    return _expect(0.0 < result["p_value"] <= 1.0, f"p-value out of range: {result}")


def _check_mtl(stdout: str) -> str | None:
    summary = json.loads(stdout)
    return _expect(
        {"main", "TRT", "word_frequency"} <= set(summary)
        and all(0.0 <= head["accuracy"] <= 100.0 for head in summary.values()),
        f"unexpected MTL summary heads {sorted(summary)}",
    )


def _model_steps(seed: int, task: str, train_epochs: int, rounds: int, compare: bool,
                 mtl_epochs: int) -> tuple[Step, ...]:
    s = str(seed)
    corpus = ("--corpus", "data/corpus.jsonl", "--task", task)
    folds = ("--folds", "5", "--ratios", "0.8,0.0,0.2", "--seed", s)
    steps = [
        Step("extract_gaze", ("extract-gaze", *corpus, "--fixations", "data/fixations.jsonl",
                              "--out", "feats/gaze.jsonl")),
        Step("assemble", ("assemble", *corpus, "--out", "feats/baseline.jsonl")),
        Step("assemble", ("assemble", *corpus, "--gaze", "feats/gaze.jsonl", "--agg", "mean",
                          "--out", "feats/gaze_ds.jsonl")),
        Step("train", ("train", "--dataset", "feats/baseline.jsonl", "--out", "runs/base",
                       "--epochs", str(train_epochs), *folds)),
        Step("train", ("train", "--dataset", "feats/gaze_ds.jsonl", "--out", "runs/gaze",
                       "--epochs", str(train_epochs), *folds)),
        Step("evaluate", ("evaluate", "--dataset", "feats/baseline.jsonl",
                          "--runs", "baseline=runs/base,gaze=runs/gaze",
                          "--rounds", str(rounds), "--seed", s, "--out", "report.json"),
             _check_report),
    ]
    if compare:
        steps.append(Step("significance", (
            "evaluate", "--dataset", "feats/gaze_ds.jsonl", "--compare", "runs/base,runs/gaze",
            "--rounds", str(rounds), "--seed", s), _check_compare))
    steps.append(Step("mtl", ("mtl", "--dataset", "feats/gaze_ds.jsonl", "--out", "runs/mtl",
                              "--aux", "TRT,word_frequency", "--epochs", str(mtl_epochs),
                              *folds),
                      _check_mtl))
    return tuple(steps)


def _protocol_steps(seed: int) -> tuple[Step, ...]:
    return _model_steps(seed, "ner", 2, PROTOCOL_ROUNDS, True, 2)


def _bigvocab_steps(seed: int) -> tuple[Step, ...]:
    return _model_steps(seed, "sentiment3", 2, BIGVOCAB_ROUNDS, False, 1)


def _write(path: str, text: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ner-extract",
            "EEG write and read paths plus gaze on long sentences; trains no model",
            _extract_steps,
            _extract_setup,
        ),
        Workload(
            "ner-protocol",
            "tagger training and the entity-F1 permutation test dominate; reads no EEG",
            _protocol_steps,
            _recordings_setup("ner", PROTOCOL_SENTENCES, (5, 12), 3, 400),
        ),
        Workload(
            "sentiment-bigvocab",
            "logistic training, macro-F1 permutation test and the trunk network at a large vocabulary",
            _bigvocab_steps,
            _recordings_setup("sentiment3", BIGVOCAB_SENTENCES, BIGVOCAB_LENGTH, 1, BIGVOCAB_VOCAB),
        ),
    )
}
