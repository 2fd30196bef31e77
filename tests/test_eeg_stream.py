"""The streamed ``eeg_table`` against the grouping one it replaced, which
read every record before reducing any trial and is kept here as the oracle."""

import logging
import tracemalloc

import numpy as np
import pytest

from cognlp.eeg import eeg_table, reduce_eeg, reduction_dims, word_eeg, write_eeg_features
from cognlp.errors import CognlpError, ConfigError, ValidationError
from cognlp.gaze import MIN_FIXATION_MS, filter_fixations
from cognlp.ingest import (
    BAND_ORDER, N_ELECTRODES, Corpus, EegFixationRecord, FixationLog, Lines, _eeg_line, iter_eeg,
)
from cognlp.synth import PlantedEffect, SynthSpec, generate_synthetic
from cognlp.tables import FeatureTable
from conftest import eeg_text, synth_records


def grouping_eeg_table(
    corpus, log, records, mode="ffd", reduction="electrode_mean", weighted=True,
    min_duration_ms=MIN_FIXATION_MS, strict=False,
):
    """``eeg_table`` as it was: every record grouped by trial first."""
    dims = reduction_dims(reduction)
    by_trial = {}
    for r in records:
        by_trial.setdefault((r.subject, r.sentence_id), []).append(r)
    rows = {}
    for (subject, sid), group in log.groups.items():
        if sid not in corpus.by_id:
            raise ValidationError(f"fixations reference unknown sentence {sid!r}")
        kept = filter_fixations(group, min_duration_ms)
        matrices = word_eeg(
            kept, by_trial.get((subject, sid), ()), mode, weighted=weighted, strict=strict
        )
        for w, matrix in matrices.items():
            rows[(subject, sid, w)] = reduce_eeg(matrix, reduction)
    return FeatureTable(dims=dims, rows=rows, subject_keyed=True)


@pytest.fixture(scope="module")
def synthetic():
    # many short fixations (filtered out) and refixations (several per word)
    spec = SynthSpec(
        task="ner", n_sentences=6, n_subjects=2, sentence_length=(4, 9),
        short_fix_prob=0.3, refix_prob=0.3, planted=PlantedEffect(eeg_band="theta2", delta_eeg_uv=2.0),
    )
    result, records = synth_records(spec, seed=8)
    return result.corpus, result.fixations, tuple(records)


def _trials(records):
    by_trial = {}
    for r in records:
        by_trial.setdefault((r.subject, r.sentence_id), []).append(r)
    return list(by_trial.values())


def _missing(records, rng):
    return [r for r in records if rng.random() > 0.15]


def _shuffled(records, rng):
    return [records[i] for i in rng.permutation(len(records))]


#: Record orders and gaps, each a function of (records, log, rng).
ORDERS = {
    "file order": lambda records, log, rng: list(records),
    "shuffled across trials": lambda records, log, rng: _shuffled(records, rng),
    "seq reversed within a trial": lambda records, log, rng: [
        r for trial in _trials(records) for r in reversed(trial)
    ],
    "trials in reverse": lambda records, log, rng: [
        r for trial in reversed(_trials(records)) for r in trial
    ],
    "without the filtered fixations' records": lambda records, log, rng: [
        r for r, e in zip(records, log.events()) if e.duration_ms >= MIN_FIXATION_MS
    ],
    "missing records": lambda records, log, rng: _missing(records, rng),
    "missing records, shuffled": lambda records, log, rng: _shuffled(_missing(records, rng), rng),
}


def _outcome(build, corpus, log, records, caplog, **kwargs):
    """The features file's text or the error (type and message), with the
    warnings logged on the way, in order."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="cognlp.eeg"):
        try:
            table = build(corpus, log, iter(records), **kwargs)
            result = write_eeg_features(table, kwargs["mode"], kwargs["reduction"])
        except CognlpError as exc:
            result = (type(exc), str(exc))
    return result, [r.getMessage() for r in caplog.records]


@pytest.mark.parametrize("corpus_kind", ["every sentence", "one sentence unknown"])
@pytest.mark.parametrize("reduction", ["electrode_mean", "band_mean", "none"])
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("mode", ["ffd", "trt"])
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_streamed_table_matches_the_grouping_one(
    synthetic, caplog, order, mode, strict, reduction, corpus_kind
):
    corpus, log, records = synthetic
    if corpus_kind == "one sentence unknown":
        corpus = Corpus(corpus.task, corpus.sentences[:3] + corpus.sentences[4:])
    records = ORDERS[order](records, log, np.random.default_rng(len(order)))
    kwargs = dict(mode=mode, reduction=reduction, strict=strict)
    expected = _outcome(grouping_eeg_table, corpus, log, records, caplog, **kwargs)
    assert _outcome(eeg_table, corpus, log, records, caplog, **kwargs) == expected
    if order.startswith("missing") and corpus_kind == "every sentence":
        # the case is not vacuous: records are missing, so it warns or fails
        assert expected[1] or isinstance(expected[0], tuple)


def test_unweighted_and_another_duration_filter_match_too(synthetic, caplog):
    corpus, log, records = synthetic
    shuffled = ORDERS["shuffled across trials"](records, log, np.random.default_rng(1))
    for min_duration in (0.0, 150.0):
        kwargs = dict(mode="trt", reduction="electrode_mean", weighted=False, min_duration_ms=min_duration)
        expected = _outcome(grouping_eeg_table, corpus, log, shuffled, caplog, **kwargs)
        assert _outcome(eeg_table, corpus, log, shuffled, caplog, **kwargs) == expected


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"mode": "nope"}, "window mode"),
        ({"reduction": "mean"}, "reduction"),
        ({"mode": "nope", "reduction": "mean"}, "reduction"),  # checked first, as before
    ],
)
def test_mode_and_reduction_errors_come_before_the_first_record(synthetic, kwargs, message):
    corpus, log, _ = synthetic

    def unread():
        raise AssertionError("a record was read")
        yield

    with pytest.raises(ConfigError, match=message):
        eeg_table(corpus, log, unread(), **kwargs)


def test_a_repeated_key_keeps_its_first_record(ner_corpus):
    # iter_eeg rejects a repeated key; passed straight to eeg_table, the
    # first record wins, where the grouping table kept the later one
    from conftest import make_events

    log = FixationLog(groups={("A", "s1"): tuple(make_events([(0, 150), (1, 150)]))})

    def record(seq, value):
        return EegFixationRecord("A", "s1", seq, np.full((len(BAND_ORDER), N_ELECTRODES), value))

    for records in (
        [record(0, 1.0), record(0, 9.0), record(1, 2.0)],  # trial incomplete at the repeat
        [record(0, 1.0), record(1, 2.0), record(0, 9.0)],  # trial complete at the repeat
    ):
        table = eeg_table(ner_corpus, log, iter(records))
        assert np.all(table.rows[("A", "s1", 0)] == 1.0)
        assert np.all(grouping_eeg_table(ner_corpus, log, records).rows[("A", "s1", 0)] == 9.0)


def test_unread_stream_reads_no_line(synthetic):
    corpus, log, _ = synthetic

    class Unread:
        def __iter__(self):
            raise AssertionError("read")

    stream = iter_eeg(Unread(), fixations=log)
    with pytest.raises(ConfigError):
        eeg_table(corpus, log, stream, mode="nope")
    stream.close()


def test_streamed_table_holds_about_one_trial(tmp_path):
    # the benchmark's shape: 24 long trials, contiguous as synth writes
    # them; the file's matrices are never held together
    spec = SynthSpec(task="ner", n_sentences=8, n_subjects=3, sentence_length=(40, 48))
    path = tmp_path / "eeg.jsonl"
    with path.open("wb") as fh:
        result = generate_synthetic(spec, seed=3, eeg_sink=lambda r: fh.write(_eeg_line(r)))
    matrix_bytes = len(result.fixations) * len(BAND_ORDER) * N_ELECTRODES * 8
    assert len(result.fixations.groups) >= 8
    tracemalloc.start()
    try:
        table = eeg_table(
            result.corpus, result.fixations, iter_eeg(Lines(path), fixations=result.fixations),
            mode="trt",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.rows
    # measured: a peak of 0.16 of the matrix bytes (above 1.0 when every
    # record was parsed before the first trial was reduced)
    assert peak < matrix_bytes / 3, (peak, matrix_bytes)
