import json
import tracemalloc

import numpy as np
import pytest

from cognlp import ingest
from cognlp.errors import CognlpError, ConfigError, ParseError, ValidationError
from cognlp.ingest import (
    BAND_ORDER,
    N_ELECTRODES,
    EegFixationRecord,
    Lines,
    iter_eeg,
    missing_trials,
    parse_corpus,
    parse_fixations,
    serialize_corpus,
    serialize_fixations,
    validation_report,
)
from conftest import eeg_text


def corpus_line(sid="s1", tokens=("John", "slept"), labels=("B-PER", "O")):
    return json.dumps({"id": sid, "tokens": list(tokens), "labels": list(labels)})


def fixation_line(subject="A", sid="s1", seq=0, w=0, dur=150.0, **extra):
    rec = {
        "subject": subject,
        "sentence_id": sid,
        "seq": seq,
        "word_index": w,
        "duration_ms": dur,
    }
    rec.update(extra)
    return json.dumps(rec)


def eeg_line(subject="A", sid="s1", seq=0, value=1.0, lengths=None):
    lengths = lengths or {}
    bands = {
        band: [value] * lengths.get(band, N_ELECTRODES) for band in BAND_ORDER
    }
    return json.dumps({"subject": subject, "sentence_id": sid, "seq": seq, "bands": bands})


def test_parse_minimal_ner_corpus():
    corpus = parse_corpus([corpus_line()], "ner")
    assert len(corpus) == 1
    assert corpus.sentences[0].tokens == ("John", "slept")
    assert corpus.sentences[0].labels == ("B-PER", "O")


def test_bio_must_be_well_formed():
    with pytest.raises(ValidationError):
        parse_corpus([corpus_line(labels=("I-PER", "O"))], "ner")
    with pytest.raises(ValidationError):
        parse_corpus([corpus_line(labels=("B-PER", "I-LOC"))], "ner")
    # I continuing same type is fine
    parse_corpus([corpus_line(labels=("B-PER", "I-PER"))], "ner")


def test_duplicate_id_rejected():
    with pytest.raises(ValidationError) as err:
        parse_corpus([corpus_line(), corpus_line()], "ner")
    assert "s1" in str(err.value)
    assert err.value.line == 2


def test_malformed_line_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_corpus([corpus_line(), "{not json"], "ner")
    assert err.value.line == 2


def test_task_label_sets():
    line = json.dumps({"id": "s1", "tokens": ["a"], "labels": ["award", "wife"]})
    corpus = parse_corpus([line], "relclass")
    assert corpus.sentences[0].labels == ("award", "wife")
    with pytest.raises(ValidationError):
        parse_corpus(
            [json.dumps({"id": "s1", "tokens": ["a"], "labels": ["spouse"]})], "relclass"
        )
    sent = json.dumps({"id": "s1", "tokens": ["a"], "labels": "pos"})
    assert parse_corpus([sent], "sentiment2").sentences[0].labels == ("pos",)
    with pytest.raises(ValidationError):
        parse_corpus([json.dumps({"id": "s1", "tokens": ["a"], "labels": "neu"})], "sentiment2")
    parse_corpus([json.dumps({"id": "s1", "tokens": ["a"], "labels": "neu"})], "sentiment3")
    with pytest.raises(ConfigError):
        parse_corpus([], "postagging")


def test_strict_rejects_unknown_fields():
    line = json.dumps(
        {"id": "s1", "tokens": ["a"], "labels": ["O"], "color": "red"}
    )
    parse_corpus([line], "ner")  # ignored by default
    with pytest.raises(ValidationError):
        parse_corpus([line], "ner", strict=True)


def test_header_lines_are_skipped():
    lines = [json.dumps({"_header": {"kind": "corpus"}}), corpus_line()]
    assert len(parse_corpus(lines, "ner")) == 1


def test_fixations_grouped_and_ordered():
    lines = [
        fixation_line("A", "s1", 0, 0),
        fixation_line("A", "s1", 3, 1),
        fixation_line("B", "s1", 0, 1),
    ]
    log = parse_fixations(lines)
    assert set(log.groups) == {("A", "s1"), ("B", "s1")}
    assert [e.seq for e in log.groups[("A", "s1")]] == [0, 3]
    assert log.subjects == ("A", "B")


def test_fixation_validation_errors():
    corpus = parse_corpus([corpus_line()], "ner")
    with pytest.raises(ValidationError):  # out-of-range word index
        parse_fixations([fixation_line(w=5)], corpus=corpus)
    with pytest.raises(ValidationError):  # unknown sentence
        parse_fixations([fixation_line(sid="nope")], corpus=corpus)
    with pytest.raises(ValidationError):  # non-increasing seq
        parse_fixations([fixation_line(seq=1), fixation_line(seq=1)])
    with pytest.raises(ValidationError):  # non-positive duration
        parse_fixations([fixation_line(dur=0.0)])
    with pytest.raises(ParseError):  # missing field
        parse_fixations([json.dumps({"subject": "A"})])


@pytest.mark.parametrize("field", ["duration_ms", "onset_ms"])
def test_fixation_number_beyond_float_range_is_validation_error(field):
    values = {"duration_ms": "150", "onset_ms": "20"}
    values[field] = "1" + "0" * 400  # a JSON integer literal beyond the float range
    line = (
        '{"subject": "A", "sentence_id": "s1", "seq": 1, "word_index": 0, '
        f'"duration_ms": {values["duration_ms"]}, "onset_ms": {values["onset_ms"]}}}'
    )
    with pytest.raises(ValidationError, match=f"line 2: field '{field}' must be finite"):
        parse_fixations([fixation_line(seq=0), line])


def test_eeg_record_repr_is_short():
    record = tuple(iter_eeg([eeg_line(sid="s9", seq=4)]))[0]
    text = repr(record)
    assert len(text) < 120
    assert "sentence_id='s9'" in text and "seq=4" in text and "(8, 105)" in text


def test_fixations_onset_passthrough():
    log = parse_fixations([fixation_line(onset_ms=12.5)])
    assert next(log.events()).onset_ms == 12.5


def test_eeg_accepts_full_record():
    records = tuple(iter_eeg([eeg_line()]))
    assert len(records) == 1
    assert records[0].matrix.shape == (len(BAND_ORDER), N_ELECTRODES)
    assert records[0].matrix.dtype == float
    assert not records[0].matrix.flags.writeable


def test_eeg_band_length_and_presence():
    with pytest.raises(ValidationError):
        tuple(iter_eeg([eeg_line(lengths={"theta1": 104})]))
    bad = json.loads(eeg_line())
    del bad["bands"]["gamma2"]
    with pytest.raises(ValidationError):
        tuple(iter_eeg([json.dumps(bad)]))
    bad = json.loads(eeg_line())
    bad["bands"]["delta"] = [0.0] * N_ELECTRODES
    with pytest.raises(ValidationError):
        tuple(iter_eeg([json.dumps(bad)]))


def test_eeg_dangling_record():
    log = parse_fixations([fixation_line(seq=0)])
    tuple(iter_eeg([eeg_line(seq=0)], fixations=log))
    with pytest.raises(ValidationError):
        tuple(iter_eeg([eeg_line(seq=9)], fixations=log))
    with pytest.raises(ValidationError):
        tuple(iter_eeg([eeg_line(), eeg_line()]))  # duplicate key


def test_corpus_roundtrip_is_canonical():
    lines = [
        corpus_line(),
        json.dumps({"id": "s2", "tokens": ["ok"], "labels": ["O"]}),
    ]
    corpus = parse_corpus(lines, "ner")
    text = serialize_corpus(corpus)
    assert parse_corpus(text.splitlines(), "ner") == corpus
    assert serialize_corpus(parse_corpus(text.splitlines(), "ner")) == text
    senti = parse_corpus(
        [json.dumps({"id": "s1", "tokens": ["a"], "labels": "pos"})], "sentiment2"
    )
    text = serialize_corpus(senti)
    assert parse_corpus(text.splitlines(), "sentiment2") == senti


def test_fixation_and_eeg_roundtrip():
    log = parse_fixations([fixation_line(), fixation_line(seq=1, w=1, dur=120)])
    text = serialize_fixations(log)
    again = parse_fixations(text.splitlines())
    assert again == log
    assert serialize_fixations(again) == text

    records = tuple(iter_eeg([eeg_line()]))
    text = eeg_text(records)
    assert tuple(iter_eeg(text.splitlines())) == records
    assert eeg_text(tuple(iter_eeg(text.splitlines()))) == text


def test_missing_trials_flagged():
    corpus = parse_corpus(
        [corpus_line(), json.dumps({"id": "s2", "tokens": ["x"], "labels": ["O"]})],
        "ner",
    )
    log = parse_fixations([fixation_line()], corpus=corpus)
    assert missing_trials(corpus, log) == {"A": ("s2",)}
    report = validation_report(corpus, log, len(tuple(iter_eeg([eeg_line()], fixations=log))))
    assert report["missing_trials"] == {"A": ["s2"]}
    assert report["fixations_without_eeg"] == 0


def test_validation_report_counts_fixations_without_eeg():
    log = parse_fixations([fixation_line(seq=0), fixation_line(seq=1, w=1), fixation_line(seq=2)])
    records = tuple(iter_eeg([eeg_line(seq=2)], fixations=log))
    corpus = parse_corpus([corpus_line()], "ner")
    report = validation_report(corpus, log, len(records))
    assert (report["eeg_records"], report["fixations_without_eeg"]) == (1, 2)
    assert "fixations_without_eeg" not in validation_report(corpus, None, 1)


def test_eeg_roundtrip_keeps_edge_floats():
    edges = [1e-05, 1e16, -0.0, 5e-324, 1.7976931348623157e308]
    values = (edges * N_ELECTRODES)[:N_ELECTRODES]
    line = json.dumps({
        "subject": "A", "sentence_id": "s1", "seq": 0,
        "bands": {band: values for band in BAND_ORDER},
    }, separators=(",", ":"))
    text = line + "\n"
    assert "1e+16" in text and "5e-324" in text and "-0.0" in text
    assert eeg_text(tuple(iter_eeg(text.splitlines()))) == text
    assert np.signbit(tuple(iter_eeg([line]))[0].matrix[0, 2])


def test_eeg_record_accepts_band_mapping_and_compares_bitwise():
    matrix = np.arange(len(BAND_ORDER) * N_ELECTRODES, dtype=float).reshape(len(BAND_ORDER), -1)
    from_bands = EegFixationRecord("A", "s1", 0, dict(zip(BAND_ORDER, matrix.tolist())))
    from_matrix = EegFixationRecord("A", "s1", 0, matrix)
    assert from_bands == from_matrix
    assert from_bands != EegFixationRecord("A", "s1", 1, matrix)
    matrix[0, 0] = -0.0  # equal as a number, not bitwise; the record kept its own copy
    assert from_matrix.matrix[0, 0] == 0.0
    assert from_bands != EegFixationRecord("A", "s1", 0, matrix)
    with pytest.raises(ValueError):
        from_bands.matrix[0, 0] = 1.0
    with pytest.raises(ValidationError):
        EegFixationRecord("A", "s1", 0, matrix[:, :10])


@pytest.mark.parametrize(
    "values, error, text",
    [
        ([1.0] * (N_ELECTRODES - 1), ValidationError, "exactly 105 values"),
        ("abc", ValidationError, "exactly 105 values"),
        (["x"] + [1.0] * (N_ELECTRODES - 1), ParseError, "only numbers"),
        (["2.5"] + [1.0] * (N_ELECTRODES - 1), ParseError, "only numbers"),
        ([1.0] * (N_ELECTRODES - 1) + ["nan"], ParseError, "only numbers"),
        ([[1.0]] * N_ELECTRODES, ParseError, "only numbers"),
        ([None] + [1.0] * (N_ELECTRODES - 1), ParseError, "only numbers"),
        ([float("inf")] + [1.0] * (N_ELECTRODES - 1), ValidationError, "must be finite"),
        ([10**400] + [1.0] * (N_ELECTRODES - 1), ValidationError, "must be finite"),
    ],
)
def test_eeg_bad_band_errors_name_the_band(values, error, text):
    obj = json.loads(eeg_line())
    obj["bands"]["alpha2"] = values
    with pytest.raises(error, match=f"line 1: band 'alpha2' .*{text}"):
        tuple(iter_eeg([json.dumps(obj)]))
    obj["bands"]["gamma2"] = [1.0]  # a later band at fault too: the first one is named
    with pytest.raises(error, match=f"line 1: band 'alpha2' .*{text}"):
        tuple(iter_eeg([json.dumps(obj)]))


def test_eeg_parse_streams_within_a_small_multiple_of_the_arrays(tmp_path):
    rng = np.random.default_rng(0)
    records = [
        EegFixationRecord("A", f"s{i // 10}", i % 10, rng.normal(3.0, 1.0, (len(BAND_ORDER), N_ELECTRODES)))
        for i in range(300)
    ]
    path = tmp_path / "eeg.jsonl"
    path.write_text(eeg_text(records), encoding="utf-8")
    array_bytes = sum(r.matrix.nbytes for r in records)
    assert path.stat().st_size > 2 * array_bytes  # holding the text would exceed the bound
    tracemalloc.start()
    try:
        with path.open(encoding="utf-8") as fh:
            parsed = tuple(iter_eeg(fh))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    same = len(parsed) == len(records) and all(a == b for a, b in zip(parsed, records))
    assert same  # not a list comparison: its failure report would repr 300 matrices
    assert peak < 1.5 * array_bytes, (peak, array_bytes)


# ---------------------------------------------------------------------------
# EEG files of a few records, each with one line replaced

N_RECORDS = 8


def _record_line(seq):
    return eeg_line(seq=seq, value=seq + 0.25)


def _with_band(seq, band, values):
    obj = json.loads(_record_line(seq))
    obj["bands"][band] = values
    return json.dumps(obj)


def _without(seq, *path):
    obj = json.loads(_record_line(seq))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return json.dumps(obj)


_EDGES = ([1e-05, 1e16, -0.0, 5e-324, 1.7976931348623157e308] * N_ELECTRODES)[:N_ELECTRODES]

#: What goes in place of record ``j``, as a function of ``j``.
CASE_LINES = {
    "header": lambda j: json.dumps({"_header": {"kind": "eeg"}}),
    "blank": lambda j: "",
    "whitespace": lambda j: "  \t ",
    "edge floats": lambda j: _with_band(j, "beta1", _EDGES),
    "non-utf8": lambda j: b'{"subject": "\xe9", "sentence_id": "s1"}',
    "invalid json": lambda j: '{"subject": "A",',
    "not an object": lambda j: "[1, 2]",
    "missing field": lambda j: _without(j, "bands"),
    "unknown field": lambda j: json.dumps({**json.loads(_record_line(j)), "color": "red"}),
    "seq not an integer": lambda j: _record_line(j).replace(f'"seq": {j}', '"seq": "x"'),
    "bands not an object": lambda j: json.dumps({**json.loads(_record_line(j)), "bands": [1.0]}),
    "short band": lambda j: _with_band(j, "theta1", [1.0] * (N_ELECTRODES - 1)),
    "missing band": lambda j: _without(j, "bands", "gamma2"),
    "unknown band": lambda j: _with_band(j, "delta", [0.0] * N_ELECTRODES),
    "band not a list": lambda j: _with_band(j, "alpha2", "abc"),
    "band with a string": lambda j: _with_band(j, "alpha2", ["x"] + [1.0] * (N_ELECTRODES - 1)),
    "band with a numeric string": lambda j: _with_band(j, "alpha2", [1.0] * (N_ELECTRODES - 1) + ["2.5"]),
    "nested band": lambda j: _with_band(j, "alpha2", [[1.0]] * N_ELECTRODES),
    "band with a null": lambda j: _with_band(j, "alpha2", [None] + [1.0] * (N_ELECTRODES - 1)),
    "band with inf": lambda j: _with_band(j, "alpha2", [float("inf")] + [1.0] * (N_ELECTRODES - 1)),
    "band beyond floats": lambda j: _with_band(j, "alpha2", [10**400] + [1.0] * (N_ELECTRODES - 1)),
    "dangling": lambda j: _record_line(99),
    # a second copy of the record half the file away, before or after it
    "duplicate": lambda j: _record_line((j + N_RECORDS // 2) % N_RECORDS),
}


def _write_lines(path, lines):
    path.write_bytes(b"".join((l if isinstance(l, bytes) else l.encode()) + b"\n" for l in lines))


def test_eeg_parse_reports_the_first_bad_line_in_the_file(tmp_path):
    path = tmp_path / "eeg.jsonl"
    log = parse_fixations([fixation_line(seq=i) for i in range(N_RECORDS)])
    for j in range(N_RECORDS):
        for k in range(N_RECORDS):
            if j == k:
                continue
            lines = [_record_line(i) for i in range(N_RECORDS)]
            lines[j], lines[k] = CASE_LINES["short band"](j), CASE_LINES["dangling"](k)
            _write_lines(path, lines)
            with pytest.raises(ValidationError) as raised:
                tuple(iter_eeg(Lines(path), fixations=log))
            assert raised.value.line == min(j, k) + 1


def _parse_outcome(path, strict):
    """The records, or the error's type, message and line, parsing ``path``
    against a log of fixations 0..N_RECORDS-1."""
    log = parse_fixations([fixation_line(seq=i) for i in range(N_RECORDS)])
    try:
        return tuple(iter_eeg(Lines(path), fixations=log, strict=strict))
    except CognlpError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@pytest.mark.parametrize("chunk", [61, 997, 4096])
@pytest.mark.parametrize("case", sorted(CASE_LINES))
def test_eeg_parse_does_not_depend_on_the_read_buffer(tmp_path, monkeypatch, case, chunk):
    """Each line spans several fills of a buffer this small; the oracle
    reads the whole file in one fill."""
    path = tmp_path / "eeg.jsonl"
    for j in range(N_RECORDS):  # moves the line across the fill boundaries
        lines = [_record_line(i) for i in range(N_RECORDS)]
        lines[j] = CASE_LINES[case](j)
        _write_lines(path, lines)
        for strict in (False, True) if case == "unknown field" else (True,):
            monkeypatch.setattr(ingest, "_CHUNK", path.stat().st_size + 1)
            expected = _parse_outcome(path, strict)
            monkeypatch.setattr(ingest, "_CHUNK", chunk)
            assert _parse_outcome(path, strict) == expected, (j, strict)


@pytest.mark.parametrize("chunk", [2, 3, 7, ingest._CHUNK])
@pytest.mark.parametrize(
    "data",
    [
        b"", b"a\n", b"a\nbb\n\nccc\ndddd\n", b"a\nbb\nccc", b"x" * 300 + b"\ny\n", b"\n\n\n\n\n\n",
        "\u00e9\n\u20ac\U0001f600\n\u00e9".encode(),  # multi-byte characters across fills
        "a\r\nb\u2028c\x0cd\x85e\n".encode(),  # only "\n" ends a line
    ],
)
def test_lines_are_the_file_split_on_newlines(tmp_path, monkeypatch, data, chunk):
    monkeypatch.setattr(ingest, "_CHUNK", chunk)
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    expected = data.decode().split("\n")
    if data.endswith(b"\n") or not data:
        expected.pop()
    assert list(Lines(path)) == expected


def test_line_past_the_read_buffer_is_checked_whole(tmp_path):
    # the bad byte lies past the first 64 KiB of the line, outside the
    # buffer's first fill
    path = tmp_path / "long.txt"
    path.write_bytes(b"a\n" + b"x" * (3 * ingest._CHUNK) + b"\xff\n" + b"c\n")
    with pytest.raises(ParseError, match="line 2: not UTF-8"):
        list(Lines(path))
    path.write_bytes(b"a\n" + b"x" * (3 * ingest._CHUNK) + b"\n" + b"c")
    assert list(Lines(path)) == ["a", "x" * (3 * ingest._CHUNK), "c"]


def _write_records(n):
    rng = np.random.default_rng(n)
    subjects = ("A", "Jürgen", "s x")  # non-ASCII text in the file's encoding
    records = [
        EegFixationRecord(subjects[i % 3], f"s{i // 3}", i, rng.normal(3.0, 1.0, (len(BAND_ORDER), N_ELECTRODES)))
        for i in range(n)
    ]
    if n:
        matrix = records[0].matrix.copy()
        matrix[2] = _EDGES
        records[0] = EegFixationRecord("A", "s0", 0, matrix)
    return tuple(records)


@pytest.mark.parametrize("n", [0, 1, 2, 11])
def test_eeg_file_after_a_buffered_header_holds_the_text(tmp_path, n):
    records = _write_records(n)
    header = '{"_header":{"kind":"eeg"}}\n'
    expected = header + eeg_text(records)
    path = tmp_path / "eeg.jsonl"
    with path.open("wb") as fh:  # as synth writes it
        fh.write(header.encode("utf-8"))  # still in the buffer when the records are written
        for record in records:
            fh.write(ingest._eeg_line(record))
    assert path.read_bytes() == expected.encode("utf-8")
    parsed = tuple(iter_eeg(Lines(path)))
    assert len(parsed) == n and all(a == b for a, b in zip(parsed, records))
