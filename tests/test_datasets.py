import numpy as np
import pytest

from cognlp.datasets import (
    FoldPlan,
    assemble,
    kfold_split,
    read_dataset,
    write_dataset,
)
from cognlp.errors import ConfigError, ValidationError
from cognlp.ingest import Corpus, Sentence
from cognlp.tables import FeatureTable


def token_table(dims, values):
    return FeatureTable(
        dims=dims,
        rows={k: np.asarray(v, dtype=float) for k, v in values.items()},
        subject_keyed=False,
    )


def two_sentence_ner():
    return Corpus(
        "ner",
        (
            Sentence("s1", ("John", "slept"), ("B-PER", "O")),
            Sentence("s2", ("Rome", "fell"), ("B-LOC", "O")),
        ),
    )


def test_manifest_arithmetic_five_plus_eight():
    corpus = two_sentence_ner()
    gaze = token_table(
        ("NFIX", "FFD", "GD", "TRT", "GPT"),
        {(sid, w): [1, 2, 3, 4, 5] for sid in ("s1", "s2") for w in (0, 1)},
    )
    eeg = token_table(
        tuple(f"b{i}" for i in range(8)),
        {(sid, w): list(range(8)) for sid in ("s1", "s2") for w in (0, 1)},
    )
    dataset = assemble(corpus, {"gaze": gaze, "eeg": eeg})
    assert len(dataset.manifest) == 13
    assert dataset.manifest[0] == "gaze/NFIX"
    assert dataset.manifest[5] == "eeg/b0"
    assert dataset.instances[0].features.shape == (2, 13)


def test_baseline_dataset_has_empty_manifest():
    dataset = assemble(two_sentence_ner())
    assert dataset.manifest == ()
    assert dataset.instances[0].features is None


def test_missing_rows_zero_filled_or_strict():
    corpus = two_sentence_ner()
    gaze = token_table(("TRT",), {("s1", 0): [7.0]})
    dataset = assemble(corpus, {"gaze": gaze})
    assert dataset.instances[0].features[1, 0] == 0.0
    with pytest.raises(ValidationError):
        assemble(corpus, {"gaze": gaze}, strict=True)


def test_sentence_vector_is_token_mean():
    corpus = Corpus("sentiment2", (Sentence("s1", ("a", "b"), ("pos",)),))
    table = token_table(("x",), {("s1", 0): [2.0], ("s1", 1): [4.0]})
    dataset = assemble(corpus, {"gaze": table})
    assert dataset.instances[0].sentence_vector[0] == 3.0
    # identical token vectors -> same vector
    table2 = token_table(("x",), {("s1", 0): [5.0], ("s1", 1): [5.0]})
    assert assemble(corpus, {"gaze": table2}).instances[0].sentence_vector[0] == 5.0


def test_gaze_neighbor_columns():
    corpus = Corpus("ner", (Sentence("s1", ("a", "b", "c"), ("O", "O", "O")),))
    gaze = token_table(
        ("NFIX", "FFD", "GD", "TRT", "GPT", "MFD"),
        {("s1", w): [w + 1, 10 * (w + 1), 0, 100 * (w + 1), 0, 0] for w in range(3)},
    )
    dataset = assemble(corpus, {"gaze": gaze}, add_gaze_neighbors=True)
    assert "gaze/prev_FFD" in dataset.manifest and "gaze/next_TRT" in dataset.manifest
    feats = dataset.instances[0].features
    prev_ffd = dataset.manifest.index("gaze/prev_FFD")
    next_nfix = dataset.manifest.index("gaze/next_NFIX")
    assert feats[0, prev_ffd] == 0.0  # boundary
    assert feats[1, prev_ffd] == 10.0
    assert feats[1, next_nfix] == 3.0
    with pytest.raises(ConfigError):
        assemble(corpus, {}, add_gaze_neighbors=True)


def test_relclass_expansion_keeps_sentence_grouping():
    corpus = Corpus(
        "relclass",
        (
            Sentence("s1", ("a",), ("award", "wife")),
            Sentence("s2", ("b",), ("visited",)),
        ),
    )
    dataset = assemble(corpus)
    assert [i.label for i in dataset.instances] == ["award", "wife", "visited"]
    assert dataset.sentence_ids() == ("s1", "s2")
    plan = kfold_split(dataset, 2, (0.5, 0.0, 0.5), seed=0)
    for fold in range(2):
        test = set(plan.test_ids(fold))
        selected = dataset.select(test)
        assert {i.sentence_id for i in selected} <= test


def ternary_corpus():
    return Corpus(
        "sentiment3",
        (
            Sentence("s1", ("good",), ("pos",)),
            Sentence("s2", ("meh",), ("neu",)),
            Sentence("s3", ("bad",), ("neg",)),
        ),
    )


def test_binary_sentiment_drop_all():
    dataset = assemble(ternary_corpus(), as_binary_sentiment=True)
    assert dataset.task == "sentiment2"
    assert all(i.label != "neu" for i in dataset.instances)
    assert len(dataset.instances) == 2
    assert dataset.train_exclude == frozenset()


def test_binary_sentiment_drop_train_only():
    dataset = assemble(
        ternary_corpus(), as_binary_sentiment=True, binary_policy="drop-train-only"
    )
    assert len(dataset.instances) == 3
    assert dataset.train_exclude == {"neu"}
    with pytest.raises(ConfigError):
        assemble(two_sentence_ner(), as_binary_sentiment=True)


def test_kfold_partition_and_determinism():
    ids = [f"s{i}" for i in range(10)]
    plan = kfold_split(ids, 5, (0.8, 0.0, 0.2), seed=4)
    test_sets = [set(plan.test_ids(f)) for f in range(5)]
    assert all(len(t) == 2 for t in test_sets)
    union = set().union(*test_sets)
    assert union == set(ids)
    assert sum(len(t) for t in test_sets) == 10  # disjoint
    again = kfold_split(ids, 5, (0.8, 0.0, 0.2), seed=4)
    assert plan.assignment == again.assignment
    other = kfold_split(ids, 5, (0.8, 0.0, 0.2), seed=5)
    assert plan.assignment != other.assignment


def test_kfold_80_10_10():
    ids = [f"s{i}" for i in range(100)]
    plan = kfold_split(ids, 10, (0.8, 0.1, 0.1), seed=0)
    for fold in range(10):
        assert len(plan.train_ids(fold)) == 80
        assert len(plan.dev_ids(fold)) == 10
        assert len(plan.test_ids(fold)) == 10
        assert (
            set(plan.train_ids(fold))
            | set(plan.dev_ids(fold))
            | set(plan.test_ids(fold))
        ) == set(ids)


def test_kfold_config_errors():
    ids = [f"s{i}" for i in range(10)]
    with pytest.raises(ConfigError):
        kfold_split(ids, 1, (0.5, 0.0, 0.5))
    with pytest.raises(ConfigError):
        kfold_split(ids, 5, (0.7, 0.0, 0.2))  # does not sum to 1
    with pytest.raises(ConfigError):
        kfold_split(ids, 5, (0.8, 0.1, 0.1))  # test share != 1/k
    with pytest.raises(ConfigError):
        kfold_split(ids[:3], 5, (0.8, 0.0, 0.2))


def test_fold_plan_roundtrip():
    plan = kfold_split([f"s{i}" for i in range(6)], 3, (2 / 3, 0.0, 1 / 3), seed=1)
    again = FoldPlan.from_json(plan.to_json())
    assert again.assignment == dict(plan.assignment)
    assert again.test_ids(2) == plan.test_ids(2)


def test_dataset_roundtrip():
    corpus = two_sentence_ner()
    gaze = token_table(("TRT",), {(sid, w): [float(w)] for sid in ("s1", "s2") for w in (0, 1)})
    dataset = assemble(corpus, {"gaze": gaze})
    text = write_dataset(dataset)
    again = read_dataset(text.splitlines())
    assert again.task == dataset.task
    assert again.manifest == dataset.manifest
    assert [i.label for i in again.instances] == [i.label for i in dataset.instances]
    assert np.array_equal(again.instances[0].features, dataset.instances[0].features)
    assert write_dataset(again) == text
