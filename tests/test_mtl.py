import math

import numpy as np
import pytest

from cognlp.aggregate import discretize
from cognlp.datasets import Dataset, Instance
from cognlp.errors import ConfigError
from cognlp.models import TrunkConfig
from cognlp.mtl import (
    COMBINED_BANDS,
    FREQUENCY_SOURCE,
    AuxTaskSpec,
    FrequencyLexicon,
    TaskSet,
    build_tasks,
    evaluate_multitask,
    main_task_data,
    make_aux_targets,
    _manifest_column,
    train_multitask,
)


def random_ner_dataset(n=12, seed=0, manifest=("gaze/TRT", "gaze/NFIX")):
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        tokens = tuple(rng.choice(["aa", "bb", "cc", "dd", "ee"], size=4))
        tags = tuple(rng.choice(["O", "B-PER"], size=4))
        feats = rng.random((4, len(manifest))) if manifest else None
        instances.append(Instance(f"s{i}", tokens, tags, feats))
    return Dataset("ner", tuple(manifest), tuple(instances))


def test_make_aux_targets_binning():
    dataset = Dataset(
        "ner",
        ("gaze/TRT",),
        (Instance("a", ("x", "y", "z"), ("O", "O", "O"), np.array([[0.0], [0.73], [1.0]])),),
    )
    targets = make_aux_targets(dataset, AuxTaskSpec("TRT", n_bins=10))
    assert list(targets["a"]) == [0, 7, 9]


def test_make_aux_targets_constant_feature_all_zero():
    dataset = Dataset(
        "ner",
        ("gaze/TRT",),
        (Instance("a", ("x", "y"), ("O", "O"), np.full((2, 1), 0.5)),),
    )
    targets = make_aux_targets(dataset, AuxTaskSpec("TRT", n_bins=10))
    assert list(targets["a"]) == [0, 0]


def test_make_aux_targets_frequency_and_oov():
    dataset = Dataset(
        "ner", (), (Instance("a", ("the", "XYZZY", "the"), ("O", "O", "O")),)
    )
    freq = FrequencyLexicon({"the": 100})
    targets = make_aux_targets(dataset, AuxTaskSpec("word_frequency", n_bins=10), freq=freq)
    assert list(targets["a"]) == [9, 0, 9]  # log10(100) max, OOV count 1 -> lowest
    with pytest.raises(ConfigError):
        make_aux_targets(dataset, AuxTaskSpec("word_frequency"))


def test_make_aux_targets_combined_band_and_errors():
    manifest = ("eeg/alpha1", "eeg/alpha2")
    values = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    dataset = Dataset("ner", manifest, (Instance("a", ("x", "y", "z"), ("O", "O", "O"), values),))
    targets = make_aux_targets(dataset, AuxTaskSpec("EEG_a", n_bins=4))
    assert list(targets["a"]) == [0, 3, 2]  # means 0, 1, 0.5
    with pytest.raises(ConfigError):
        make_aux_targets(dataset, AuxTaskSpec("EEG_t"))
    with pytest.raises(ConfigError):
        make_aux_targets(dataset, AuxTaskSpec("GPT"))


def test_aux_target_histogram_is_complete():
    dataset = random_ner_dataset(8, seed=2)
    spec = AuxTaskSpec("TRT", n_bins=5)
    targets = make_aux_targets(dataset, spec)
    n_tokens = sum(len(i.tokens) for i in dataset.instances)
    flat = np.concatenate(list(targets.values()))
    assert flat.size == n_tokens
    assert np.all((0 <= flat) & (flat < 5))
    assert np.bincount(flat, minlength=5).sum() == n_tokens


def test_frequency_lexicon_parsing():
    lex = FrequencyLexicon.from_lines(["the\t100", "cat\t3", ""])
    assert lex.count("THE") == 100
    assert lex.count("dog") == 1
    with pytest.raises(Exception):
        FrequencyLexicon.from_lines(["the 100"])
    built = FrequencyLexicon.from_corpus_tokens(["The", "the", "cat"])
    assert built.count("the") == 2


def test_zero_weight_aux_is_bitwise_noop():
    dataset = random_ner_dataset()
    ids = dataset.sentence_ids()
    config = TrunkConfig(embed_dim=4, hidden_dim=5, seed=3)
    single = train_multitask(dataset, ids, build_tasks(dataset), net_config=config, epochs=2, seed=3)
    zeroed = train_multitask(
        dataset, ids, build_tasks(dataset, [AuxTaskSpec("TRT", weight=0.0)]),
        net_config=config, epochs=2, seed=3,
    )
    assert np.array_equal(single.net.embed, zeroed.net.embed)
    assert np.array_equal(single.net.w1, zeroed.net.w1)
    assert np.array_equal(single.net.b1, zeroed.net.b1)
    assert np.array_equal(single.net.heads["main"][0], zeroed.net.heads["main"][0])
    assert np.array_equal(single.net.heads["main"][1], zeroed.net.heads["main"][1])


def test_duplicated_main_equals_doubled_sampling():
    dataset = random_ner_dataset()
    ids = dataset.sentence_ids()
    config = TrunkConfig(embed_dim=4, hidden_dim=5, seed=3)
    # an auxiliary that is the main task itself: same name, so same head
    main = main_task_data(dataset)
    duplicated = train_multitask(
        dataset, ids, TaskSet((main, main), {}), net_config=config, epochs=2, seed=3
    )
    doubled = train_multitask(dataset, ids, TaskSet((main,), {}), net_config=config, epochs=4, seed=3)
    assert np.array_equal(duplicated.net.embed, doubled.net.embed)
    assert np.array_equal(duplicated.net.w1, doubled.net.w1)
    assert np.array_equal(duplicated.net.heads["main"][0], doubled.net.heads["main"][0])


def test_role_swap_feature_as_main():
    dataset = random_ner_dataset()
    ids = dataset.sentence_ids()
    tasks = build_tasks(dataset, [AuxTaskSpec("NFIX", n_bins=4)], main_source=AuxTaskSpec("TRT"))
    model = train_multitask(
        dataset,
        ids,
        tasks,
        net_config=TrunkConfig(embed_dim=4, hidden_dim=4, seed=1),
        epochs=1,
        seed=1,
    )
    assert set(model.tasks) == {"main", "NFIX"}
    scores = evaluate_multitask(model, dataset, ids, tasks)
    assert set(scores) == {"main", "NFIX"}
    assert 0.0 <= scores["main"]["accuracy"] <= 100.0


def test_main_source_targets_are_that_source_binned():
    dataset = random_ner_dataset()
    aux = make_aux_targets(dataset, AuxTaskSpec("TRT"))
    # label_mode only applies to the NLP labels a main source replaces
    for label_mode in ("task", "neutral-vs-rest"):
        main = main_task_data(dataset, label_mode, main_source=AuxTaskSpec("TRT"))
        assert (main.name, main.weight) == ("main", 1.0)
        assert main.classes == tuple(f"bin{i}" for i in range(10))
        assert main.targets.keys() == aux.keys()
        assert all(np.array_equal(main.targets[sid], aux[sid]) for sid in aux)


@pytest.mark.parametrize(
    "lr, weight", [(float("inf"), 1.0), (float("nan"), 1.0), (0.1, float("inf")), (0.1, float("nan"))]
)
def test_non_finite_step_sizes_are_rejected(lr, weight):
    dataset = random_ner_dataset()
    with pytest.raises(ConfigError):
        train_multitask(
            dataset, dataset.sentence_ids(), build_tasks(dataset, [AuxTaskSpec("TRT", weight=weight)]), lr=lr
        )


def test_evaluate_reports_majority_and_perfect_accuracy():
    dataset = random_ner_dataset(8, seed=5)
    ids = dataset.sentence_ids()
    main_only = build_tasks(dataset)
    model = train_multitask(
        dataset, ids, main_only, net_config=TrunkConfig(embed_dim=4, hidden_dim=4, seed=2),
        epochs=1, seed=2,
    )
    scores = evaluate_multitask(model, dataset, ids, main_only)
    entry = scores["main"]
    assert 0.0 <= entry["accuracy"] <= 100.0
    assert 0.0 <= entry["majority_baseline"] <= 100.0
    assert "accuracy_excluding_o" in entry
    # a model that memorizes a single sentence reaches 100 on it
    tiny = Dataset("ner", (), (Instance("s0", ("a", "b"), ("B-PER", "O")),))
    tiny_tasks = build_tasks(tiny)
    memorizer = train_multitask(
        tiny, ("s0",), tiny_tasks, net_config=TrunkConfig(embed_dim=8, hidden_dim=8, seed=0),
        epochs=60, lr=0.5, seed=0,
    )
    assert evaluate_multitask(memorizer, tiny, ("s0",), tiny_tasks)["main"]["accuracy"] == 100.0
    with pytest.raises(ConfigError, match="model has no head named 'TRT'"):
        evaluate_multitask(model, dataset, ids, build_tasks(dataset, [AuxTaskSpec("TRT")]))


def test_sentiment_broadcast_and_neutral_mode():
    instances = tuple(
        Instance(f"s{i}", ("w1", "w2"), label)
        for i, label in enumerate(["pos", "neu", "neg"])
    )
    dataset = Dataset("sentiment3", (), instances)
    main = main_task_data(dataset)
    assert main.classes == ("neg", "neu", "pos")
    assert list(main.targets["s0"]) == [2, 2]
    binary = main_task_data(dataset, label_mode="neutral-vs-rest")
    assert binary.classes == ("NEUTRAL", "NOT-NEUTRAL")
    assert list(binary.targets["s1"]) == [0, 0]
    assert list(binary.targets["s2"]) == [1, 1]
    with pytest.raises(ConfigError):
        main_task_data(Dataset("relclass", (), ()), label_mode="task")


def _minmax_bins(values: np.ndarray, n_bins: int) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi > lo:
        normalized = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
    else:
        normalized = np.zeros_like(values)
    return discretize(normalized, n_bins)


def make_aux_targets_by_minmax(
    dataset: Dataset,
    spec: AuxTaskSpec,
    freq: FrequencyLexicon | None = None,
) -> dict[str, np.ndarray]:
    """Per-token bin classes for one auxiliary source, keyed by sentence id.

    Cognitive sources min-max normalize their feature column over the whole
    dataset (a degenerate, constant column maps every token to class 0);
    frequency uses log10 counts, likewise min-max normalized, with OOV words
    counted as 1 and therefore falling in the lowest bin.
    """
    instances = dataset.instances
    if not instances:
        raise ConfigError("empty dataset")
    lengths = [len(inst.tokens) for inst in instances]
    if spec.source == FREQUENCY_SOURCE:
        if freq is None:
            raise ConfigError("word_frequency auxiliary requires a frequency lexicon")
        flat = np.array(
            [
                math.log10(freq.count(token))
                for inst in instances
                for token in inst.tokens
            ]
        )
    else:
        if spec.source in COMBINED_BANDS:
            cols = [_manifest_column(dataset, b) for b in COMBINED_BANDS[spec.source]]
        else:
            cols = [_manifest_column(dataset, spec.source)]
        pieces = []
        for inst in instances:
            feats = inst.features
            if feats is None:
                raise ConfigError(
                    f"instance {inst.sentence_id!r} has no features for {spec.source!r}"
                )
            pieces.append(feats[:, cols].mean(axis=1))
        flat = np.concatenate(pieces)
    bins = _minmax_bins(flat, spec.n_bins)
    out: dict[str, np.ndarray] = {}
    pos = 0
    for inst, length in zip(instances, lengths):
        out[inst.sentence_id] = bins[pos : pos + length]
        pos += length
    return out


def _ragged_dataset(seed, manifest=("gaze/TRT", "eeg/alpha1", "eeg/alpha2")):
    """Sentences of 1 to 9 tokens over a small vocabulary, with features."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    instances = []
    for i in range(40):
        n = int(rng.integers(1, 10))
        tokens = tuple(rng.choice(words, size=n))
        feats = rng.normal(200.0, 80.0, size=(n, len(manifest)))
        instances.append(Instance(f"s{i}", tokens, ("O",) * n, feats))
    return Dataset("ner", manifest, tuple(instances))


@pytest.mark.parametrize("seed", [0, 1009])
@pytest.mark.parametrize(
    "source, n_bins, column",
    [
        ("TRT", 10, "random"),
        ("EEG_a", 4, "random"),
        ("TRT", 10, "constant"),
        ("TRT", 3, "one token"),
        ("word_frequency", 10, None),
    ],
)
def test_aux_targets_equal_the_minmax_bins(seed, source, n_bins, column):
    """Binning through the fitted normalization gives the bytes of the
    private min-max rule it replaced."""
    dataset = _ragged_dataset(seed)
    if column == "constant":
        dataset = Dataset(dataset.task, dataset.manifest, tuple(
            Instance(i.sentence_id, i.tokens, i.label, np.full_like(i.features, 7.25))
            for i in dataset.instances
        ))
    elif column == "one token":
        first = dataset.instances[0]
        dataset = Dataset(dataset.task, dataset.manifest, (
            Instance(first.sentence_id, first.tokens[:1], ("O",), first.features[:1]),
        ))
    freq = FrequencyLexicon.from_corpus_tokens(
        t for inst in dataset.instances[::2] for t in inst.tokens
    )
    spec = AuxTaskSpec(source, n_bins=n_bins)
    expected = make_aux_targets_by_minmax(dataset, spec, freq)
    actual = make_aux_targets(dataset, spec, freq)
    assert list(actual) == list(expected)
    for sid, bins in expected.items():
        assert actual[sid].dtype == bins.dtype
        assert actual[sid].tobytes() == bins.tobytes()
    flat = np.concatenate(list(actual.values()))
    if column == "random" or column is None:
        assert len(set(flat.tolist())) > 2
