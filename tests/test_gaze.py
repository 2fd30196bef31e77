"""Reading-measure tests, including a brute-force reference implementation
that interprets each measure's definition literally, word by word."""

import itertools
from typing import Sequence

import numpy as np
import pytest

from cognlp.aggregate import SubjectAggregation
from cognlp.errors import ConfigError, ValidationError
from cognlp.gaze import (
    GAZE_FEATURES,
    compute_word_gaze,
    filter_fixations,
    fixation_probability,
    gaze_table,
)
from cognlp.ingest import Corpus, FixationLog, Sentence
from cognlp.synth import SynthSpec, generate_synthetic
from cognlp.tables import FeatureTable
from conftest import make_events


def brute_force_gaze(events, n_words):
    """Independent oracle: scan the event list separately for every measure."""
    out = []
    for w in range(n_words):
        on_w = [e for e in events if e.word_index == w]
        if not on_w:
            out.append((0, 0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        nfix = len(on_w)
        ffd = on_w[0].duration_ms
        trt = sum(e.duration_ms for e in on_w)
        first_idx = next(i for i, e in enumerate(events) if e.word_index == w)
        gd = 0.0
        for e in events[first_idx:]:
            if e.word_index != w:
                break
            gd += e.duration_ms
        end = len(events)
        for j in range(first_idx, len(events)):
            if events[j].word_index > w:
                end = j
                break
        gpt = sum(e.duration_ms for e in events[first_idx:end] if e.word_index <= w)
        out.append((nfix, ffd, gd, trt, gpt, trt / nfix))
    return out


def as_tuples(features):
    return [(f.nfix, f.ffd, f.gd, f.trt, f.gpt, f.mfd) for f in features]


def test_filter_threshold_is_inclusive():
    events = make_events([(0, 80), (0, 150), (0, 99), (1, 100)])
    kept = filter_fixations(events)
    assert [(e.word_index, e.duration_ms) for e in kept] == [(0, 150.0), (1, 100.0)]
    assert [e.seq for e in kept] == [1, 3]  # seq untouched


def test_filter_identity_and_empty():
    events = make_events([(0, 100), (1, 500)])
    assert filter_fixations(events) == tuple(events)
    assert filter_fixations([]) == ()


def test_hand_trace():
    events = make_events([(1, 150), (0, 120), (1, 130), (2, 200)])
    w0, w1, w2 = compute_word_gaze(events, 3)
    assert (w1.nfix, w1.ffd, w1.gd, w1.trt, w1.gpt, w1.mfd) == (2, 150, 150, 280, 400, 140)
    assert (w0.nfix, w0.ffd, w0.gd, w0.trt, w0.gpt) == (1, 120, 120, 120, 120)
    assert (w2.nfix, w2.trt, w2.gpt) == (1, 200, 200)


def test_never_fixated_word_is_all_zero():
    events = make_events([(0, 150)])
    feats = compute_word_gaze(events, 3)
    assert as_tuples(feats)[1:] == [(0, 0.0, 0.0, 0.0, 0.0, 0.0)] * 2


def test_gpt_window_extends_to_trial_end():
    # regression from word 2 back to 0; nothing ever right of word 2
    events = make_events([(0, 100), (1, 110), (2, 120), (0, 130), (2, 140)])
    feats = compute_word_gaze(events, 3)
    assert feats[2].gpt == 120 + 130 + 140
    # word 1's window closes at the first fixation on word 2
    assert feats[1].gpt == 110


def test_strict_rejects_unfiltered_short_fixation():
    events = make_events([(0, 80)])
    with pytest.raises(ValidationError):
        compute_word_gaze(events, 1, strict=True)
    # non-strict computes as given
    assert compute_word_gaze(events, 1)[0].trt == 80


def test_out_of_order_events_rejected():
    events = list(reversed(make_events([(0, 100), (1, 100)])))
    with pytest.raises(ValidationError):
        compute_word_gaze(events, 2)


def test_exhaustive_against_brute_force():
    n_words, durations = 3, (100.0, 150.0)
    choices = list(itertools.product(range(n_words), durations))
    for length in range(0, 5):
        for combo in itertools.product(choices, repeat=length):
            events = make_events(combo)
            assert as_tuples(compute_word_gaze(events, n_words)) == brute_force_gaze(
                events, n_words
            )


def test_random_trials_match_brute_force_and_ordering_chain():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n_words = int(rng.integers(1, 6))
        length = int(rng.integers(0, 12))
        events = make_events(
            [
                (int(rng.integers(n_words)), float(rng.integers(100, 400)))
                for _ in range(length)
            ]
        )
        feats = compute_word_gaze(events, n_words)
        assert as_tuples(feats) == brute_force_gaze(events, n_words)
        for f in feats:
            assert f.ffd <= f.gd <= f.trt
            assert f.gd <= f.gpt
            assert abs(f.mfd * f.nfix - f.trt) < 1e-9


def test_locality_outside_gpt_window():
    # permuting events after every window of w has closed never changes w
    rng = np.random.default_rng(3)
    for _ in range(200):
        n_words = 4
        events = make_events(
            [
                (int(rng.integers(n_words)), float(rng.integers(100, 300)))
                for _ in range(10)
            ]
        )
        base = as_tuples(compute_word_gaze(events, n_words))
        w = int(rng.integers(n_words))
        # find where w's go-past window closes (first event right of w after
        # w's first fixation); events strictly after that index on other
        # words may change without affecting w
        first = next((i for i, e in enumerate(events) if e.word_index == w), None)
        if first is None:
            continue
        close = next(
            (j for j in range(first, len(events)) if events[j].word_index > w),
            len(events) - 1,
        )
        mutated = list(events)
        changed = False
        for j in range(close + 1, len(events)):
            if mutated[j].word_index != w:
                mutated[j] = type(mutated[j])(
                    mutated[j].subject,
                    mutated[j].sentence_id,
                    mutated[j].seq,
                    mutated[j].word_index,
                    mutated[j].duration_ms + float(rng.integers(1, 50)),
                )
                changed = True
        if changed:
            assert as_tuples(compute_word_gaze(mutated, n_words))[w] == base[w]


def test_gaze_table_rows_and_zeros(ner_corpus):
    log = FixationLog(
        groups={
            ("A", "s1"): tuple(make_events([(0, 150), (2, 120)], "A", "s1")),
            ("B", "s1"): tuple(make_events([(1, 200)], "B", "s1")),
        }
    )
    table = gaze_table(ner_corpus, log)
    assert table.dims == GAZE_FEATURES
    assert len(table) == 6  # 3 words x 2 subjects; s2 unread by anyone
    assert table.rows[("A", "s1", 1)].sum() == 0.0
    assert table.rows[("B", "s1", 1)][0] == 1  # NFIX


def test_fixation_probability():
    corpus = Corpus("ner", (Sentence("s1", ("a", "b"), ("O", "O")),))
    log = FixationLog(
        groups={
            ("A", "s1"): tuple(make_events([(0, 150), (1, 150)], "A", "s1")),
            ("B", "s1"): tuple(make_events([(1, 150)], "B", "s1")),
        }
    )
    table = gaze_table(corpus, log)
    fixp = fixation_probability(table, SubjectAggregation.mean_all())
    assert fixp.rows[("s1", 0)][0] == 0.5  # {A: fixated, B: not}
    assert fixp.rows[("s1", 1)][0] == 1.0
    # subject C never read s1: denominator stays 2
    fixp_abc = fixation_probability(table, SubjectAggregation.mean_subset(["A", "B"]))
    assert fixp_abc.rows[("s1", 0)][0] == 0.5
    with pytest.raises(ConfigError):
        fixation_probability(table, SubjectAggregation.mean_subset([]))
    with pytest.raises(ConfigError):
        fixation_probability(table, SubjectAggregation.mean_subset(["A", "Z"]))


def fixation_probability_by_counts(
    table: FeatureTable, subjects: Sequence[str] | None = None
) -> FeatureTable:
    """Fraction of subjects that fixated each word at least once.

    The denominator counts only subjects with a trial for the sentence;
    subjects that skipped the sentence do not dilute the estimate.
    """
    if not table.subject_keyed:
        raise ValidationError("fixation probability needs a subject-level table")
    known = table.subjects()
    if subjects is None:
        subjects = known
    if not subjects:
        raise ConfigError("empty subject set")
    unknown = set(subjects) - set(known)
    if unknown:
        raise ConfigError(f"unknown subjects {sorted(unknown)}")
    nfix_col = table.dim_index("NFIX")
    wanted = set(subjects)
    fixated: dict[tuple[str, int], int] = {}
    present: dict[tuple[str, int], int] = {}
    for (s, sid, w), vec in table.rows.items():
        if s not in wanted:
            continue
        key = (sid, w)
        present[key] = present.get(key, 0) + 1
        if vec[nfix_col] >= 1:
            fixated[key] = fixated.get(key, 0) + 1
    rows = {
        key: np.array([fixated.get(key, 0) / n])
        for key, n in sorted(present.items())
    }
    return FeatureTable(dims=("FIXP",), rows=rows, subject_keyed=False)


def assert_same_table(actual: FeatureTable, expected: FeatureTable):
    """Same dims, keys in the same order and bitwise-equal rows."""
    assert (actual.dims, actual.subject_keyed) == (expected.dims, expected.subject_keyed)
    assert list(actual.rows) == list(expected.rows)
    for key, vec in expected.rows.items():
        assert actual.rows[key].dtype == vec.dtype
        assert actual.rows[key].tobytes() == vec.tobytes(), key


@pytest.mark.parametrize("seed", [0, 1009])
def test_fixation_probability_equals_subject_counts(seed):
    """The subject-average path gives the bytes of the counting code it
    replaced, with all subjects, a subset and a single subject, when some
    subjects skipped some sentences."""
    spec = SynthSpec(task="ner", n_sentences=40, n_subjects=5, entity_rate=0.3)
    result = generate_synthetic(spec, seed)
    rng = np.random.default_rng(seed)
    groups = {key: g for key, g in result.fixations.groups.items() if rng.random() > 0.2}
    table = gaze_table(result.corpus, FixationLog(groups=groups))
    subjects = table.subjects()
    assert len(subjects) == 5
    cases = [
        (SubjectAggregation.mean_all(), None),
        (SubjectAggregation.mean_subset(subjects[1:4]), subjects[1:4]),
        (SubjectAggregation.single(subjects[2]), subjects[2:3]),
    ]
    for agg, chosen in cases:
        expected = fixation_probability_by_counts(table, chosen)
        assert len(expected) > 0
        assert_same_table(fixation_probability(table, agg), expected)
    fractions = {float(v[0]) for v in fixation_probability(table, cases[0][0]).rows.values()}
    assert len(fractions) > 2  # a column of 0s and 1s would test little
