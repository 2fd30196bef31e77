import json

import numpy as np
import pytest

from cognlp.eeg import (
    eeg_table,
    read_eeg_features,
    reduce_eeg,
    reduction_dims,
    word_eeg,
    write_eeg_features,
)
from cognlp.errors import ConfigError, ParseError, ValidationError
from cognlp.ingest import BAND_ORDER, N_ELECTRODES, EegFixationRecord, FixationLog
from conftest import make_events


def record(seq, value=None, per_band=None, subject="A", sid="s1"):
    bands = {}
    for b, band in enumerate(BAND_ORDER):
        v = per_band[b] if per_band is not None else value
        bands[band] = tuple([float(v)] * N_ELECTRODES)
    return EegFixationRecord(subject, sid, seq, bands)


def test_ffd_mode_selects_first_fixation():
    events = make_events([(0, 150), (1, 120), (0, 130)])
    records = [record(0, 2.0), record(1, 5.0), record(2, 9.0)]
    out = word_eeg(events, records, mode="ffd")
    assert np.all(out[0] == 2.0)
    assert np.all(out[1] == 5.0)


def test_trt_mode_duration_weighted_mean():
    events = make_events([(0, 150), (1, 500), (0, 130)])
    records = [record(0, 2.0), record(1, 1.0), record(2, 4.0)]
    out = word_eeg(events, records, mode="trt")
    expected = (2.0 * 150 + 4.0 * 130) / 280
    assert np.allclose(out[0], expected, rtol=1e-12, atol=0.0)
    assert abs(out[0][0, 0] - 820.0 / 280.0) < 1e-12 * (820.0 / 280.0)


def test_trt_single_fixation_equals_ffd_bitwise():
    events = make_events([(0, 150), (1, 130)])
    records = [record(0, 3.25), record(1, 7.5)]
    ffd = word_eeg(events, records, mode="ffd")
    trt = word_eeg(events, records, mode="trt")
    for w in (0, 1):
        assert np.array_equal(ffd[w], trt[w])


def test_trt_unweighted_flag():
    events = make_events([(0, 150), (0, 130)])
    records = [record(0, 2.0), record(1, 4.0)]
    out = word_eeg(events, records, mode="trt", weighted=False)
    assert np.allclose(out[0], 3.0)


def test_weighted_mean_within_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        events = make_events([(0, float(rng.integers(100, 400))) for _ in range(n)])
        records = [record(i, per_band=rng.normal(0, 3, size=8)) for i in range(n)]
        out = word_eeg(events, records, mode="trt")[0]
        mats = np.stack([r.matrix for r in records])
        assert np.all(out >= mats.min(axis=0) - 1e-12)
        assert np.all(out <= mats.max(axis=0) + 1e-12)


def test_non_fixated_word_absent_and_missing_record_handling():
    events = make_events([(0, 150)])
    assert 1 not in word_eeg(events, [record(0, 1.0)], mode="ffd")
    with pytest.raises(ValidationError):
        word_eeg(events, [], mode="ffd", strict=True)
    assert word_eeg(events, [], mode="ffd") == {}  # skip with warning
    with pytest.raises(ConfigError):
        word_eeg(events, [], mode="nope")


def test_reduce_dimensions():
    matrix = np.arange(8 * N_ELECTRODES, dtype=float).reshape(8, N_ELECTRODES)
    assert reduce_eeg(matrix, "electrode_mean").shape == (8,)
    assert reduce_eeg(matrix, "band_mean").shape == (N_ELECTRODES,)
    flat = reduce_eeg(matrix, "none")
    assert flat.shape == (840,)
    assert np.array_equal(flat[:N_ELECTRODES], matrix[0])  # band-major
    assert len(reduction_dims("none")) == 840
    with pytest.raises(ConfigError):
        reduce_eeg(matrix, "mean")
    with pytest.raises(ValidationError):
        reduce_eeg(matrix[:, :10], "none")


def test_reduce_constant_band_and_grand_mean():
    matrix = np.tile(np.arange(8.0)[:, None], (1, N_ELECTRODES))
    by_band = reduce_eeg(matrix, "electrode_mean")
    assert np.array_equal(by_band, np.arange(8.0))
    grand_from_bands = reduce_eeg(matrix, "electrode_mean").mean()
    grand_from_electrodes = reduce_eeg(matrix, "band_mean").mean()
    assert abs(grand_from_bands - grand_from_electrodes) < 1e-12
    # reshaping the flat vector recovers both reductions bit-for-bit
    flat = reduce_eeg(matrix, "none").reshape(8, N_ELECTRODES)
    assert np.array_equal(flat.mean(axis=1), by_band)
    assert np.array_equal(flat.mean(axis=0), reduce_eeg(matrix, "band_mean"))


def test_eeg_table_and_roundtrip(ner_corpus):
    events = make_events([(0, 150), (1, 120)], "A", "s1")
    log = FixationLog(groups={("A", "s1"): tuple(events)})
    records = [record(0, 1.5), record(1, 2.5)]
    table = eeg_table(ner_corpus, log, records, mode="ffd", reduction="electrode_mean")
    assert table.dims == BAND_ORDER
    assert len(table) == 2  # only fixated words
    text = write_eeg_features(table, "ffd", "electrode_mean")
    header = json.loads(text.splitlines()[0])["_header"]
    assert (header["mode"], header["reduction"]) == ("ffd", "electrode_mean")
    again = read_eeg_features(text.splitlines())
    assert set(again.rows) == set(table.rows)
    for key in table.rows:
        assert np.array_equal(again.rows[key], table.rows[key])


def _features_lines(row):
    header = {"_header": {"kind": "eeg_features", "dims": ["theta1", "theta2"]}}
    good = {"subject": "A", "sentence_id": "s1", "word_index": 0, "values": [1.0, 2.0]}
    return [json.dumps(header), json.dumps(good), json.dumps(row)]


@pytest.mark.parametrize("missing", ["subject", "sentence_id", "word_index", "values"])
def test_read_eeg_features_row_without_field_is_parse_error(missing):
    row = {"subject": "A", "sentence_id": "s1", "word_index": 1, "values": [1.0, 2.0]}
    del row[missing]
    with pytest.raises(ParseError, match=f"line 3: missing field '{missing}'"):
        read_eeg_features(_features_lines(row))


def test_read_eeg_features_values_must_match_header_dims():
    row = {"subject": "A", "sentence_id": "s1", "word_index": 1, "values": [1.0, 2.0, 3.0]}
    with pytest.raises(ValidationError, match="line 3: field 'values' must have exactly 2 values"):
        read_eeg_features(_features_lines(row))
    row["values"] = [1.0, "x"]
    with pytest.raises(ParseError, match="line 3"):
        read_eeg_features(_features_lines(row))
    table = read_eeg_features(_features_lines({**row, "values": [3.0, 4.0]}))
    assert np.array_equal(table.rows[("A", "s1", 1)], [3.0, 4.0])
