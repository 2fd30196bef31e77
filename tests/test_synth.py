import json

import numpy as np
import pytest

from cognlp import ingest
from cognlp.cli import main
from cognlp.errors import ConfigError
from cognlp.gaze import gaze_table
from cognlp.synth import PlantedEffect, SynthSpec, generate_synthetic
from conftest import eeg_text, synth_records


def trt_by_group(result):
    """Mean filtered TRT of fixated affected vs other words."""
    table = gaze_table(result.corpus, result.fixations)
    affected = set(map(tuple, result.meta["affected"]))
    nfix_col, trt_col = table.dims.index("NFIX"), table.dims.index("TRT")
    ent, oth = [], []
    for (_subj, sid, w), vec in table.rows.items():
        if vec[nfix_col] < 1:
            continue
        (ent if (sid, w) in affected else oth).append(vec[trt_col])
    return np.array(ent), np.array(oth)


def test_deterministic_bytes():
    spec = SynthSpec(task="ner", n_sentences=20, n_subjects=2)
    a, a_eeg = synth_records(spec, seed=11)
    b, b_eeg = synth_records(spec, seed=11)
    assert ingest.serialize_corpus(a.corpus) == ingest.serialize_corpus(b.corpus)
    assert ingest.serialize_fixations(a.fixations) == ingest.serialize_fixations(b.fixations)
    assert eeg_text(a_eeg) == eeg_text(b_eeg)
    c = generate_synthetic(spec, seed=12)
    assert ingest.serialize_corpus(a.corpus) != ingest.serialize_corpus(c.corpus)


def test_output_passes_all_parsers():
    spec = SynthSpec(task="ner", n_sentences=15, n_subjects=2)
    result, eeg_records = synth_records(spec, seed=3)
    corpus = ingest.parse_corpus(
        ingest.serialize_corpus(result.corpus).splitlines(), "ner", strict=True
    )
    log = ingest.parse_fixations(
        ingest.serialize_fixations(result.fixations).splitlines(),
        corpus=corpus,
        strict=True,
    )
    records = tuple(ingest.iter_eeg(
        eeg_text(eeg_records).splitlines(), fixations=log, strict=True
    ))
    assert len(records) == len(log)  # one EEG record per fixation


def test_null_effect_statistically_flat():
    spec = SynthSpec(task="ner", n_sentences=200, n_subjects=2)
    result = generate_synthetic(spec, seed=7)
    ent, oth = trt_by_group(result)
    t = (ent.mean() - oth.mean()) / np.sqrt(
        ent.var(ddof=1) / len(ent) + oth.var(ddof=1) / len(oth)
    )
    assert abs(t) < 3.0


def test_planted_delta_recovered():
    spec = SynthSpec(
        task="ner", n_sentences=200, n_subjects=2, planted=PlantedEffect(delta_trt_ms=100.0)
    )
    result = generate_synthetic(spec, seed=7)
    ent, oth = trt_by_group(result)
    assert abs((ent.mean() - oth.mean()) - 100.0) <= 15.0


def test_planted_eeg_band_shift():
    spec = SynthSpec(
        task="ner",
        n_sentences=60,
        n_subjects=1,
        planted=PlantedEffect(eeg_band="alpha1", delta_eeg_uv=5.0),
    )
    result, eeg_records = synth_records(spec, seed=5)
    affected = set(map(tuple, result.meta["affected"]))
    fix_by_key = {(e.subject, e.sentence_id, e.seq): e for e in result.fixations.events()}
    band_i = ingest.BAND_ORDER.index("alpha1")
    ent, oth = [], []
    for record in eeg_records:
        e = fix_by_key[record.key]
        value = float(np.mean(record.matrix[band_i]))
        (ent if (e.sentence_id, e.word_index) in affected else oth).append(value)
    assert np.mean(ent) - np.mean(oth) == pytest.approx(5.0, abs=0.5)
    # other bands unshifted
    beta2 = ingest.BAND_ORDER.index("beta2")
    other = [float(np.mean(r.matrix[beta2])) for r in eeg_records]
    assert np.std(other) < 1.0


def test_lexical_mode_uses_entity_vocabulary():
    spec = SynthSpec(task="ner", n_sentences=60, n_subjects=1, entity_mode="lexical")
    result = generate_synthetic(spec, seed=2)
    for sentence in result.corpus.sentences:
        for tag, token in zip(sentence.labels, sentence.tokens):
            if tag != "O":
                assert token[0].isupper()
            else:
                assert token[0].islower()


def test_sentiment_and_relclass_targets():
    senti = generate_synthetic(SynthSpec(task="sentiment3", n_sentences=30), seed=1)
    affected = set(map(tuple, senti.meta["affected"]))
    for s in senti.corpus.sentences:
        inside = any((s.id, w) in affected for w in range(len(s)))
        assert inside == (s.labels[0] == "pos")
    rel = generate_synthetic(SynthSpec(task="relclass", n_sentences=30), seed=1)
    for s in rel.corpus.sentences:
        assert all(l in ingest.RELATION_TYPES for l in s.labels)


def test_invalid_planted_band_rejected():
    with pytest.raises(ConfigError):
        PlantedEffect(eeg_band="theta9", delta_eeg_uv=1.0)
    with pytest.raises(ConfigError):
        SynthSpec(task="parsing")
    # a shift with no band to shift would plant nothing
    with pytest.raises(ConfigError, match="needs an EEG band"):
        PlantedEffect(delta_eeg_uv=5.0)
    assert PlantedEffect(eeg_band="alpha1").delta_eeg_uv == 0.0


def test_lexical_mode_needs_an_entity_vocabulary():
    with pytest.raises(ConfigError, match="entity vocabulary"):
        SynthSpec(task="ner", n_sentences=5, entity_mode="lexical", entity_vocab_size=0)
    # positional entities never use the entity vocabulary
    positional = generate_synthetic(SynthSpec(task="ner", n_sentences=5, entity_vocab_size=0), 0)
    assert len(positional.corpus.sentences) == 5


def tuple_serialize_eeg(records):
    """The serialiser that stored each band as a tuple of Python floats,
    kept as the oracle for the columnar one."""
    lines = []
    for r in records:
        bands = {
            band: tuple(float(v) for v in r.matrix[b]) for b, band in enumerate(ingest.BAND_ORDER)
        }
        rec = {
            "subject": r.subject,
            "sentence_id": r.sentence_id,
            "seq": r.seq,
            "bands": {band: list(bands[band]) for band in ingest.BAND_ORDER},
        }
        lines.append(json.dumps(rec, ensure_ascii=False, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


@pytest.mark.parametrize("seed", [0, 1009])
def test_columnar_eeg_file_is_byte_identical_to_tuple_serialiser(tmp_path, seed):
    planted = PlantedEffect(delta_trt_ms=50.0, eeg_band="gamma1", delta_eeg_uv=3.0)
    spec = SynthSpec(task="ner", n_sentences=6, n_subjects=2, planted=planted)
    expected = tuple_serialize_eeg(synth_records(spec, seed)[1])
    out = tmp_path / "data"
    assert main([
        "synth", "--out", str(out), "--task", "ner", "--sentences", "6", "--subjects", "2",
        "--delta-trt", "50", "--eeg-band", "gamma1", "--delta-eeg", "3", "--seed", str(seed),
    ]) == 0
    header, _, body = (out / "eeg.jsonl").read_text(encoding="utf-8").partition("\n")
    assert json.loads(header)["_header"]["kind"] == "eeg"
    assert_same_text(body, expected)
    records = tuple(ingest.iter_eeg(body.splitlines()))
    assert_same_text(eeg_text(records), expected)


def assert_same_text(actual, expected):
    """Equality that reports the first differing line only: pytest's full
    diff of megabytes of floats takes minutes."""
    if actual != expected:
        pairs = zip(actual.split("\n"), expected.split("\n"))
        at = next((i for i, (a, e) in enumerate(pairs) if a != e), None)
        pytest.fail(f"texts differ, first at line {at}")


class RecordingGenerator(np.random.Generator):
    """A generator that keeps a copy of every EEG-sized normal draw."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.eeg_draws = []

    def normal(self, *args, **kwargs):
        out = super().normal(*args, **kwargs)
        if np.shape(out) == (len(ingest.BAND_ORDER), ingest.N_ELECTRODES):
            self.eeg_draws.append(out.copy())
        return out


@pytest.mark.parametrize("seed", [0, 1009])
def test_sink_records_equal_the_draws_bitwise(monkeypatch, seed):
    # each record is built from its own draw: base amplitudes plus the draw,
    # plus the planted shift for an affected word
    from cognlp import seeding, synth

    generators = []
    stream = seeding.stream

    def recording_stream(*labels):
        generators.append(RecordingGenerator(stream(*labels).bit_generator))
        return generators[-1]

    monkeypatch.setattr(synth.seeding, "stream", recording_stream)
    planted = PlantedEffect(delta_trt_ms=50.0, eeg_band="beta1", delta_eeg_uv=4.0)
    spec = SynthSpec(task="ner", n_sentences=12, n_subjects=2, planted=planted)
    result, records = synth_records(spec, seed)
    draws = generators[0].eeg_draws
    events = list(result.fixations.events())
    word_of = {(e.subject, e.sentence_id, e.seq): e.word_index for e in events}
    affected = set(map(tuple, result.meta["affected"]))
    band = ingest.BAND_ORDER.index("beta1")
    assert len(records) == len(draws) == len(events)
    assert [r.key for r in records] == list(word_of)
    shifted = 0
    for record, draw in zip(records, draws):
        amplitudes = np.asarray(synth.BASE_AMPLITUDES)[:, None] + draw
        if (record.sentence_id, word_of[record.key]) in affected:
            amplitudes[band] += planted.delta_eeg_uv
            shifted += 1
        assert record == ingest.EegFixationRecord(*record.key, amplitudes), record.key
    assert shifted > 0


def test_synth_draws_each_eeg_matrix_once(tmp_path, monkeypatch):
    # every EEG-sized normal draw of any generator made during the command
    from cognlp import seeding

    draws = []

    class CountingGenerator(np.random.Generator):
        def normal(self, *args, **kwargs):
            out = super().normal(*args, **kwargs)
            if np.shape(out) == (len(ingest.BAND_ORDER), ingest.N_ELECTRODES):
                draws.append(1)
            return out

    stream = seeding.stream
    monkeypatch.setattr(
        seeding, "stream", lambda *labels: CountingGenerator(stream(*labels).bit_generator)
    )
    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    out = tmp_path / "data"
    assert main([
        "synth", "--out", str(out), "--task", "ner", "--sentences", "6", "--subjects", "2",
        "--eeg-band", "beta1", "--delta-eeg", "4", "--seed", "0",
    ]) == 0
    written = len((out / "eeg.jsonl").read_text(encoding="utf-8").splitlines()) - 1  # header
    assert written > 0 and len(draws) == written


def test_generate_synthetic_holds_no_eeg_matrices():
    import tracemalloc

    spec = SynthSpec(task="ner", n_sentences=100, n_subjects=2)
    counts = []
    for sink in (None, lambda record: counts.append(record.matrix.size)):
        tracemalloc.start()
        try:
            result = generate_synthetic(spec, seed=2, eeg_sink=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = len(result.fixations) * len(ingest.BAND_ORDER) * ingest.N_ELECTRODES * 8
        assert len(result.fixations) >= 1000
        # measured: a peak under 0.1 of the matrix bytes, with or without a
        # sink (1.0 and more when the records held their matrices)
        assert peak < matrix_bytes / 4, (sink, peak, matrix_bytes)
    assert len(counts) == len(result.fixations)  # one record per fixation
