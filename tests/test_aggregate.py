import json

import numpy as np
import pytest

from cognlp.aggregate import (
    SubjectAggregation,
    apply_normalization,
    apply_type_lexicon,
    average_subjects,
    best_subjects,
    build_type_lexicon,
    discretize,
    fit_normalization,
)
from cognlp.errors import ConfigError, StateError, ValidationError
from cognlp.ingest import Corpus, Sentence
from cognlp.tables import FeatureTable


def subject_table(rows):
    return FeatureTable(dims=("x",), rows={k: np.array([v]) for k, v in rows.items()})


def test_mean_all_includes_zero_rows():
    table = subject_table({("A", "s1", 0): 2.0, ("B", "s1", 0): 4.0})
    out = average_subjects(table, SubjectAggregation.mean_all())
    assert out.rows[("s1", 0)][0] == 3.0
    # B read the sentence but never fixated word 1 -> its zero row counts
    table = subject_table({("A", "s1", 0): 2.0, ("A", "s1", 1): 2.0, ("B", "s1", 0): 0.0, ("B", "s1", 1): 0.0})
    out = average_subjects(table, SubjectAggregation.mean_all())
    assert out.rows[("s1", 1)][0] == 1.0


def test_missing_trial_subject_excluded_from_denominator():
    # C never read s1 at all: mean over A and B only
    table = subject_table(
        {("A", "s1", 0): 3.0, ("B", "s1", 0): 0.0, ("C", "s2", 0): 9.0}
    )
    out = average_subjects(table, SubjectAggregation.mean_all())
    assert out.rows[("s1", 0)][0] == 1.5
    assert out.rows[("s2", 0)][0] == 9.0


def test_single_mode_is_identity():
    table = subject_table({("A", "s1", 0): 2.5, ("B", "s1", 0): 4.0})
    out = average_subjects(table, SubjectAggregation.single("A"))
    assert out.rows[("s1", 0)][0] == 2.5
    assert not out.subject_keyed


def test_subset_equals_mean_all_when_complete():
    table = subject_table({("A", "s1", 0): 1.0, ("B", "s1", 0): 5.0})
    full = average_subjects(table, SubjectAggregation.mean_all())
    subset = average_subjects(table, SubjectAggregation.mean_subset(["A", "B"]))
    assert full.rows[("s1", 0)] == subset.rows[("s1", 0)]


def test_unknown_subject_rejected():
    table = subject_table({("A", "s1", 0): 1.0})
    with pytest.raises(ConfigError):
        average_subjects(table, SubjectAggregation.mean_subset(["A", "Z"]))
    with pytest.raises(ConfigError):
        average_subjects(table, SubjectAggregation.single("Z"))
    with pytest.raises(ConfigError):
        SubjectAggregation.mean_subset([])


def test_aggregation_parse():
    assert SubjectAggregation.parse("mean").mode == "mean_all"
    assert SubjectAggregation.parse("single:A").subjects == ("A",)
    assert SubjectAggregation.parse("subset:A,B").subjects == ("A", "B")
    with pytest.raises(ConfigError):
        SubjectAggregation.parse("best5")
    with pytest.raises(ConfigError, match=r"repeated in the subset: \['A'\]"):
        SubjectAggregation.parse("subset:A,B,A")


def test_minmax_normalization():
    stats = fit_normalization([np.array([2.0]), np.array([4.0]), np.array([6.0])])
    out = [apply_normalization(stats, np.array([v]))[0] for v in (2.0, 4.0, 6.0)]
    assert out == [0.0, 0.5, 1.0]
    assert apply_normalization(stats, np.array([8.0]))[0] == 1.0  # clipped
    assert apply_normalization(stats, np.array([0.0]))[0] == 0.0  # clipped


def test_constant_dimension_maps_to_zero():
    stats = fit_normalization([np.array([5.0]), np.array([5.0])])
    assert apply_normalization(stats, np.array([5.0]))[0] == 0.0


def test_apply_before_fit_is_state_error():
    with pytest.raises(StateError):
        apply_normalization(None, np.array([1.0]))
    with pytest.raises(ValidationError):
        fit_normalization([])


def test_normalization_preserves_ordering():
    rng = np.random.default_rng(0)
    data = rng.normal(0, 10, size=(50, 3))
    stats = fit_normalization(list(data))
    normalized = np.stack([apply_normalization(stats, v) for v in data])
    for d in range(3):
        assert np.array_equal(np.argsort(data[:, d]), np.argsort(normalized[:, d], kind="stable"))


def test_discretize_rules():
    assert discretize(0.5, 10) == 5
    assert discretize(1.0, 10) == 9
    assert discretize(0.0, 10) == 0
    assert np.array_equal(discretize(np.array([0.0, 0.999, 1.0]), 10), [0, 9, 9])
    with pytest.raises(ValueError):
        discretize(1.2, 10)
    with pytest.raises(ConfigError):
        discretize(0.5, 1)


def test_discretize_monotone():
    rng = np.random.default_rng(1)
    values = np.sort(rng.random(200))
    bins = discretize(values, 7)
    assert np.all(np.diff(bins) >= 0)


def corpus_two_sentences():
    return Corpus(
        "ner",
        (
            Sentence("s1", ("The", "cat"), ("O", "O")),
            Sentence("s2", ("the", "dog"), ("O", "O")),
        ),
    )


def token_table(values):
    return FeatureTable(
        dims=("x",),
        rows={k: np.array([v]) for k, v in values.items()},
        subject_keyed=False,
    )


def test_lexicon_case_folded_mean():
    corpus = corpus_two_sentences()
    table = token_table({("s1", 0): 0.2, ("s1", 1): 1.0, ("s2", 0): 0.4, ("s2", 1): 3.0})
    lexicon = build_type_lexicon(corpus, table)
    vec, count = lexicon.entries["the"]
    assert count == 2 and abs(vec[0] - 0.3) < 1e-12
    assert lexicon.entries["cat"][1] == 1


def test_lexicon_order_invariance_and_mass():
    corpus = corpus_two_sentences()
    table = token_table({("s1", 0): 0.2, ("s1", 1): 1.0, ("s2", 0): 0.4, ("s2", 1): 3.0})
    lexicon = build_type_lexicon(corpus, table)
    shuffled = Corpus("ner", tuple(reversed(corpus.sentences)))
    again = build_type_lexicon(shuffled, table)
    assert set(lexicon.entries) == set(again.entries)
    for t in lexicon.entries:
        assert np.allclose(lexicon.entries[t][0], again.entries[t][0])
    total_from_types = sum(c * v[0] for v, c in lexicon.entries.values())
    total_tokens = sum(v[0] for v in table.rows.values())
    assert abs(total_from_types - total_tokens) < 1e-12


def test_lexicon_roundtrip_json():
    corpus = corpus_two_sentences()
    table = token_table({("s1", 0): 0.25, ("s1", 1): 1.0, ("s2", 0): 0.75, ("s2", 1): 3.0})
    lexicon = build_type_lexicon(corpus, table)
    # the CLI's path: to_json, a JSON file, from_json
    again = type(lexicon).from_json(json.loads(json.dumps(lexicon.to_json())))
    assert again.dims == lexicon.dims
    assert set(again.entries) == set(lexicon.entries)
    assert again.to_json() == lexicon.to_json()


def test_apply_lexicon_coverage_and_unknown_vector():
    corpus = corpus_two_sentences()
    table = token_table({("s1", 0): 0.2, ("s1", 1): 1.0, ("s2", 0): 0.4, ("s2", 1): 3.0})
    lexicon = build_type_lexicon(corpus, table)
    probe = Corpus(
        "ner",
        (Sentence("p1", ("the", "cat", "xyzzy", "dog"), ("O", "O", "O", "O")),),
    )
    feats, coverage = apply_type_lexicon(lexicon, probe)
    assert feats.dims == ("x", "unknown_flag")
    assert coverage.n_tokens == 4 and coverage.n_unknown == 1
    assert coverage.unknown_pct == 25.0
    unknown = feats.rows[("p1", 2)]
    assert unknown[0] == 0.0 and unknown[1] == 1.0
    known = feats.rows[("p1", 0)]
    assert abs(known[0] - 0.3) < 1e-12 and known[1] == 0.0
    # source corpus covers itself
    _, self_cov = apply_type_lexicon(lexicon, corpus)
    assert self_cov.n_unknown == 0


def test_best_subjects_ranking():
    scores = {"A": 70.0, "B": 80.0, "C": 80.0, "D": 10.0}
    assert best_subjects(scores, k=3) == ("B", "C", "A")
