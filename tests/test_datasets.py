from typing import Mapping

import numpy as np
import pytest

from cognlp.aggregate import SubjectAggregation, average_subjects
from cognlp.datasets import (
    _NEIGHBOR_BASE,
    Dataset,
    FoldPlan,
    Instance,
    assemble,
    kfold_split,
    read_dataset,
    write_dataset,
)
from cognlp.errors import ConfigError, ValidationError
from cognlp.eeg import eeg_table
from cognlp.gaze import fixation_probability, gaze_table
from cognlp.ingest import SENTENCE_CLASSES, Corpus, Sentence
from cognlp.synth import SynthSpec
from cognlp.tables import FeatureTable
from conftest import synth_records


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


def assemble_by_parts(
    corpus: Corpus,
    tables: Mapping[str, FeatureTable] | None = None,
    *,
    strict: bool = False,
    add_gaze_neighbors: bool = False,
    as_binary_sentiment: bool = False,
    binary_policy: str = "drop-all",
) -> Dataset:
    """Build a task dataset, concatenating feature tables in declared order.

    Omitting ``tables`` yields the baseline dataset (empty manifest).
    Sentence-level tasks additionally get a sentence vector, the mean over
    token vectors. ``as_binary_sentiment`` converts a ternary corpus to the
    binary task; ``binary_policy`` is ``drop-all`` (neutral sentences removed
    everywhere, the default) or ``drop-train-only`` (kept, but excluded from
    training).
    """
    tables = dict(tables or {})
    task = corpus.task
    if as_binary_sentiment:
        if corpus.task != "sentiment3":
            raise ConfigError("as_binary_sentiment requires a ternary sentiment corpus")
        if binary_policy not in ("drop-all", "drop-train-only"):
            raise ConfigError(f"unknown binary_policy {binary_policy!r}")
        task = "sentiment2"

    manifest: list[str] = []
    for source, table in tables.items():
        if table.subject_keyed:
            raise ValidationError(f"table {source!r} must be token-level (aggregated)")
        manifest.extend(f"{source}/{d}" for d in table.dims)
    neighbor_dims: list[tuple[str, int, int]] = []  # (dim name, gaze col, offset)
    if add_gaze_neighbors:
        gaze = tables.get("gaze")
        if gaze is None:
            raise ConfigError("add_gaze_neighbors requires a 'gaze' table")
        for offset, tag in ((-1, "prev"), (1, "next")):
            for name in _NEIGHBOR_BASE:
                neighbor_dims.append((f"gaze/{tag}_{name}", gaze.dim_index(name), offset))
        manifest.extend(d for d, _, _ in neighbor_dims)

    width = len(manifest)
    instances: list[Instance] = []
    train_exclude: frozenset[str] = frozenset()

    for sentence in corpus.sentences:
        label_for_sentence = sentence.labels[0] if task.startswith("sentiment") else None
        if as_binary_sentiment and label_for_sentence == "neu":
            if binary_policy == "drop-all":
                continue
            train_exclude = frozenset({"neu"})

        features = None
        sentence_vector = None
        if width:
            rows = []
            for w in range(len(sentence)):
                parts = []
                for source, table in tables.items():
                    vec = table.rows.get((sentence.id, w))
                    if vec is None:
                        if strict:
                            raise ValidationError(
                                f"no {source!r} features for ({sentence.id!r}, {w})"
                            )
                        vec = np.zeros(len(table.dims))
                    parts.append(vec)
                rows.append(np.concatenate(parts) if parts else np.zeros(0))
            base = np.stack(rows)
            if neighbor_dims:
                gaze = tables["gaze"]
                extra = np.zeros((len(sentence), len(neighbor_dims)))
                for col, (_, gcol, offset) in enumerate(neighbor_dims):
                    for w in range(len(sentence)):
                        u = w + offset
                        if 0 <= u < len(sentence):
                            vec = gaze.rows.get((sentence.id, u))
                            if vec is not None:
                                extra[w, col] = vec[gcol]
                base = np.concatenate([base, extra], axis=1)
            features = base
            if task in SENTENCE_CLASSES:
                sentence_vector = features.mean(axis=0)

        if task == "ner":
            instances.append(
                Instance(sentence.id, sentence.tokens, sentence.labels, features, None)
            )
        elif task == "relclass":
            for label in sentence.labels:
                instances.append(
                    Instance(sentence.id, sentence.tokens, label, features, sentence_vector)
                )
        else:
            instances.append(
                Instance(
                    sentence.id,
                    sentence.tokens,
                    label_for_sentence,
                    features,
                    sentence_vector,
                )
            )

    dataset = Dataset(
        task=task,
        manifest=tuple(manifest),
        instances=tuple(instances),
        train_exclude=train_exclude,
    )
    if task == "sentiment2" and binary_policy == "drop-all":
        assert all(i.label != "neu" for i in dataset.instances)
    return dataset


def _pipeline_tables(task, seed, keep):
    """A synthetic corpus and its gaze, fixation-probability and EEG tables
    (token level), each keeping a random ``keep`` share of the keys, plus a
    table row for a sentence the corpus lacks."""
    spec = SynthSpec(task=task, n_sentences=40, n_subjects=5, sentence_length=(3, 9))
    result, eeg_records = synth_records(spec, seed)
    subject_gaze = gaze_table(result.corpus, result.fixations)
    agg = SubjectAggregation.mean_all()
    tables = {
        "gaze": average_subjects(subject_gaze, agg),
        "fixp": fixation_probability(subject_gaze, agg),
        "eeg": average_subjects(eeg_table(result.corpus, result.fixations, eeg_records), agg),
    }
    rng = np.random.default_rng(seed)
    for table in tables.values():
        for key in list(table.rows):
            if rng.random() > keep:
                del table.rows[key]
    tables["eeg"].rows[("elsewhere", 0)] = np.ones(len(tables["eeg"].dims))
    return result.corpus, tables


def assert_same_dataset(actual: Dataset, expected: Dataset):
    """Same header, same instances and bitwise-equal arrays."""
    assert (actual.task, actual.manifest, actual.train_exclude) == (
        expected.task, expected.manifest, expected.train_exclude
    )
    assert len(actual.instances) == len(expected.instances)
    for a, e in zip(actual.instances, expected.instances):
        assert (a.sentence_id, a.tokens, a.label) == (e.sentence_id, e.tokens, e.label)
        for name in ("features", "sentence_vector"):
            x, y = getattr(a, name), getattr(e, name)
            assert (x is None) == (y is None), name
            if y is not None:
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    assert write_dataset(actual) == write_dataset(expected)


@pytest.mark.parametrize("seed", [0, 1009])
@pytest.mark.parametrize(
    "task, options",
    [
        ("ner", {}),
        ("ner", {"add_gaze_neighbors": True}),
        ("relclass", {}),
        ("sentiment3", {}),
        ("sentiment3", {"as_binary_sentiment": True}),
        ("sentiment3", {"as_binary_sentiment": True, "binary_policy": "drop-train-only"}),
    ],
)
def test_assemble_equals_per_source_concatenation(seed, task, options):
    """The join through ``concat_tables`` gives the dataset of the per-token
    concatenation it replaced, with keys that only some tables have."""
    corpus, tables = _pipeline_tables(task, seed, keep=0.85)
    assert_same_dataset(
        assemble(corpus, tables, **options), assemble_by_parts(corpus, tables, **options)
    )
    only_gaze = {"gaze": tables["gaze"]}
    assert_same_dataset(
        assemble(corpus, only_gaze, **options), assemble_by_parts(corpus, only_gaze, **options)
    )
    if "add_gaze_neighbors" not in options:
        assert_same_dataset(assemble(corpus, **options), assemble_by_parts(corpus, **options))


@pytest.mark.parametrize("seed", [0, 1009])
@pytest.mark.parametrize("task", ["ner", "sentiment3"])
def test_strict_assemble_raises_as_before(seed, task):
    """Under strict mode the first missing key raises the same error as
    before; with every key present the dataset is the same."""
    corpus, tables = _pipeline_tables(task, seed, keep=0.97)
    options = {"as_binary_sentiment": True} if task == "sentiment3" else {}
    with pytest.raises(ValidationError) as expected:
        assemble_by_parts(corpus, tables, strict=True, **options)
    with pytest.raises(ValidationError) as actual:
        assemble(corpus, tables, strict=True, **options)
    assert str(actual.value) == str(expected.value)
    corpus, full = _pipeline_tables(task, seed, keep=1.0)
    assert_same_dataset(
        assemble(corpus, full, strict=True, **options),
        assemble_by_parts(corpus, full, strict=True, **options),
    )
