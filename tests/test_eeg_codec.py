"""orjson reads and writes EEG lines; ``json`` stays the reference.

The reader is checked against ``json_eeg_entries``, the json-only reader it
replaced: the same records, bitwise, or the same first error (type, message
and line). The writer is checked against ``ingest._dump``, byte for byte.
``ingest`` is the only module that names orjson, and only an EEG stage
imports it.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import orjson
import pytest

from cognlp import ingest
from cognlp.errors import CognlpError, ParseError, ValidationError
from cognlp.ingest import BAND_ORDER, N_ELECTRODES, EegFixationRecord, Lines, iter_eeg, parse_fixations
from test_ingest import (
    _EDGES,
    CASE_LINES,
    N_RECORDS,
    _record_line,
    _with_band,
    _write_lines,
    fixation_line,
)

SRC = Path(__file__).resolve().parents[1] / "src"
#: The reader under test, held before any test patches ``ingest._eeg_entries``.
_orjson_entries = ingest._eeg_entries


def json_eeg_entries(lines, known_keys, strict):
    """The EEG line reader before orjson: every line decoded by ``json``,
    and every band value's type checked (NumPy reads ``"2.5"`` as 2.5)."""
    shape = (len(BAND_ORDER), N_ELECTRODES)
    for lineno, obj, text in ingest._iter_records(lines):
        ingest._check_fields(obj, ("subject", "sentence_id", "seq", "bands"), (), lineno, strict)
        subject = ingest._as_str(obj, "subject", lineno)
        sid = ingest._as_str(obj, "sentence_id", lineno)
        seq = ingest._as_int(obj, "seq", lineno)
        bands = obj["bands"]
        if not isinstance(bands, dict):
            raise ParseError("field 'bands' must be an object", line=lineno)
        missing = [b for b in BAND_ORDER if b not in bands]
        if missing:
            raise ValidationError(f"missing bands {missing}", line=lineno)
        if len(bands) != len(BAND_ORDER):
            extra = sorted(set(bands) - set(BAND_ORDER))
            raise ValidationError(f"unknown bands {extra}", line=lineno)
        try:
            matrix = np.array([bands[band] for band in BAND_ORDER], dtype=float)
        except (TypeError, ValueError, OverflowError):
            matrix = None
        if (
            matrix is None
            or matrix.shape != shape
            or not np.isfinite(matrix).all()
            or any(
                isinstance(v, (bool, str)) for band in BAND_ORDER for v in bands[band]
            )
        ):
            raise ingest._band_error(bands, lineno)
        key = (subject, sid, seq)
        if known_keys is not None and key not in known_keys:
            raise ValidationError(
                f"dangling EEG record {key}: no matching fixation", line=lineno
            )
        yield lineno, EegFixationRecord(*key, matrix)


def _replace_seq(j, seq):
    return _record_line(j).replace(f'"seq": {j}', f'"seq": {seq}')


#: Lines the two decoders read differently, or that only ``json`` reads.
CODEC_LINES = {
    "nan": lambda j: _with_band(j, "alpha2", [float("nan")] + [1.0] * (N_ELECTRODES - 1)),
    "lone surrogate subject": lambda j: _record_line(j).replace('"subject": "A"', '"subject": "\\ud800"'),
    "seq beyond 64 bits": lambda j: _replace_seq(j, 10**25),
    "band integer beyond 64 bits": lambda j: _with_band(j, "alpha2", [10**25] + [1.0] * (N_ELECTRODES - 1)),
    "repeated key": lambda j: '{"seq": -7, ' + _record_line(j)[1:],
    "repeated band": lambda j: _record_line(j)[:-2] + ', "theta1": ' + json.dumps([2.5] * N_ELECTRODES) + "}}",
    "bom": lambda j: "\ufeff" + _record_line(j),
    "integer values": lambda j: _with_band(j, "gamma1", list(range(N_ELECTRODES))),
    "tiny exponent": lambda j: _record_line(j).replace(f"{j + 0.25}, ", "1e-400, ", 1),
    "number": lambda j: "5",
    "null": lambda j: "null",
    "string": lambda j: '"subject sentence_id seq bands"',
}


def _outcome(monkeypatch, path, entries, with_log, strict):
    """The records, or the first error's type, message and line, reading
    ``path`` with ``entries`` as the line reader."""
    monkeypatch.setattr(ingest, "_eeg_entries", entries)
    log = None
    if with_log:
        log = parse_fixations([fixation_line(seq=i) for i in range(N_RECORDS)])
    try:
        return tuple(iter_eeg(Lines(path), fixations=log, strict=strict))
    except CognlpError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("case", sorted({**CASE_LINES, **CODEC_LINES}))
def test_orjson_reader_matches_the_json_reader(tmp_path, monkeypatch, case, strict):
    make = {**CASE_LINES, **CODEC_LINES}[case]
    path = tmp_path / "eeg.jsonl"
    for j in (0, N_RECORDS - 2):
        lines = [_record_line(i) for i in range(N_RECORDS)]
        lines[j] = make(j)
        _write_lines(path, lines)
        for with_log in (True, False):
            expected = _outcome(monkeypatch, path, json_eeg_entries, with_log, strict)
            got = _outcome(monkeypatch, path, _orjson_entries, with_log, strict)
            assert got == expected, (j, with_log)


def test_the_cases_reach_both_outcomes(tmp_path, monkeypatch):
    """The json-only cases end in records as well as in errors, so the
    fallback is what decides them, not a shared failure."""
    path = tmp_path / "eeg.jsonl"
    kinds = {}
    for case, make in CODEC_LINES.items():
        lines = [_record_line(i) for i in range(N_RECORDS)]
        lines[0] = make(0)
        _write_lines(path, lines)
        outcome = _outcome(monkeypatch, path, _orjson_entries, False, False)
        kinds[case] = "records" if isinstance(outcome[0], EegFixationRecord) else outcome[0]
    assert kinds == {
        "nan": ValidationError,
        "lone surrogate subject": "records",
        "seq beyond 64 bits": "records",
        "band integer beyond 64 bits": "records",
        "repeated key": "records",
        "repeated band": "records",
        "bom": ParseError,
        "integer values": "records",
        "tiny exponent": "records",
        "number": ParseError,
        "null": ParseError,
        "string": ParseError,
    }


def test_json_decodes_only_the_lines_orjson_does_not_settle(tmp_path, monkeypatch):
    calls = []
    decode = ingest._object
    monkeypatch.setattr(ingest, "_object", lambda *args: calls.append(args) or decode(*args))
    path = tmp_path / "eeg.jsonl"
    lines = [_record_line(i) for i in range(N_RECORDS)]
    lines[1] = CODEC_LINES["seq beyond 64 bits"](1)
    _write_lines(path, [json.dumps({"_header": {"kind": "eeg"}}), *lines])
    assert len(list(iter_eeg(Lines(path)))) == N_RECORDS
    assert [lineno for _, lineno in calls] == [3]


#: Bytes a mutation writes: JSON syntax, number and literal characters, and
#: anything else.
_MUTATION_BYTES = b'0123456789.eE+-"\\u/{}[],: \t\x0cntfrueaslNIy' + bytes(range(256))


def _mutations(line: bytes, n: int, seed: int):
    """``n`` copies of ``line``, each with one to three bytes replaced,
    inserted or deleted; a third of the edits fall in the head of the line,
    where the keys, the strings and ``seq`` are."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        data = bytearray(line)
        for _ in range(rng.integers(1, 4)):
            end = 80 if rng.random() < 1 / 3 else len(data)
            at = int(rng.integers(0, end))
            byte = _MUTATION_BYTES[int(rng.integers(0, len(_MUTATION_BYTES)))]
            how = rng.integers(0, 3)
            if how == 0:
                data[at] = byte
            elif how == 1:
                data.insert(at, byte)
            else:
                del data[at]
        yield bytes(data)


def _entries_outcome(entries, text, known_keys, strict):
    try:
        return list(entries([text], known_keys, strict))
    except CognlpError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def test_orjson_reader_matches_the_json_reader_on_mutated_lines():
    values = np.random.default_rng(5).normal(0.0, 30.0, (len(BAND_ORDER), N_ELECTRODES))
    values[3] = _EDGES
    values[4, :8] = [0.0, -0.0, 1e-4, 123456789.0, 7.0, -1e-7, 1e15, 2.5e-300]
    record = EegFixationRecord("Jürgen", "s1", 12, values)
    line = _dump_line(record).rstrip("\n").encode("utf-8")
    known = {record.key}
    seen = {"records": 0, "errors": 0}
    for data in _mutations(line, 3000, seed=1):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            continue  # ``Lines`` rejects it before any decoder sees it
        for known_keys, strict in ((known, True), (None, False)):
            expected = _entries_outcome(json_eeg_entries, text, known_keys, strict)
            got = _entries_outcome(_orjson_entries, text, known_keys, strict)
            assert got == expected, text[:120]
        seen["records" if isinstance(expected, list) else "errors"] += 1
    assert seen["records"] > 300 and seen["errors"] > 300, seen


# ---------------------------------------------------------------------------
# the writer: orjson's lines are _dump's bytes


def _dump_line(record):
    bands = dict(zip(BAND_ORDER, record.matrix.tolist()))
    return ingest._dump(
        {"subject": record.subject, "sentence_id": record.sentence_id, "seq": record.seq, "bands": bands}
    ) + "\n"


def _random_in_range(rng, n):
    """Floats of uniformly random bit patterns with magnitude in [1e-4, 1e16),
    either sign."""
    low = int(np.float64(1e-4).view(np.int64))
    high = int(np.float64(1e16).view(np.int64))
    magnitude = rng.integers(low, high, n, dtype=np.int64).view(np.float64)
    return magnitude * rng.choice((-1.0, 1.0), n)


def _matrices():
    rng = np.random.default_rng(11)
    shape = (len(BAND_ORDER), N_ELECTRODES)
    for _ in range(40):
        yield _random_in_range(rng, shape[0] * shape[1]).reshape(shape)
    edges = [
        math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0),
        math.nextafter(1e16, 0.0), 1e16, math.nextafter(1e16, math.inf),
        0.0, -0.0, 5e-324,
    ]
    edges = edges + [-v for v in edges]
    for value in edges:
        matrix = np.full(shape, 2.5)
        matrix[5, 7] = value
        yield matrix
    matrix = np.full(shape, 1.5)
    matrix[2] = _EDGES
    yield matrix


SUBJECTS = ("A", "Jürgen", "s x", "tab\there \x00\x1f\x7f\u2028\"\\/", "\ud800")


def test_orjson_writes_the_bytes_of_the_json_writer():
    records = [
        EegFixationRecord(SUBJECTS[i % len(SUBJECTS)], f"s{i}", i, matrix)
        for i, matrix in enumerate(_matrices())
    ]
    records.append(EegFixationRecord("A", "s1", 10**25, records[0].matrix))
    # rows that are not contiguous, which orjson refuses and _dump renders
    records.append(EegFixationRecord("A", "s1", 7, np.asfortranarray(records[0].matrix)))
    assert not records[-1].matrix[0].flags.c_contiguous
    for record in records:
        if record.subject == "\ud800":  # UTF-8 cannot encode a lone surrogate
            with pytest.raises(UnicodeEncodeError):
                ingest._eeg_line(record)
        else:
            assert ingest._eeg_line(record) == _dump_line(record).encode("utf-8"), record


def test_json_writes_only_the_records_orjson_does_not_render(monkeypatch):
    dumped = []
    dump = ingest._dump
    monkeypatch.setattr(ingest, "_dump", lambda obj: dumped.append(obj["seq"]) or dump(obj))
    matrix = np.full((len(BAND_ORDER), N_ELECTRODES), 0.5)
    tiny = matrix.copy()
    tiny[7, 104] = 1e-5
    records = [
        EegFixationRecord("A", "s1", 0, matrix),
        EegFixationRecord("A", "s1", 1, tiny),
        EegFixationRecord("\ud800", "s1", 2, matrix),
        EegFixationRecord("A", "s1", 3, matrix),
    ]
    for record in records:
        try:
            ingest._eeg_line(record)
        except UnicodeEncodeError:  # the lone surrogate, after _dump rendered it
            assert record.subject == "\ud800"
    assert dumped == [1, 2]


def test_orjson_formats_every_value_in_the_range_as_repr():
    """Fails loudly if an orjson release formats floats, Python's or a
    float64 array's, or strings differently: then ``_orjson_renders`` must narrow, or orjson go."""
    rng = np.random.default_rng(3)
    values = np.concatenate([
        _random_in_range(rng, 200_000),
        [math.nextafter(1e-4, 1.0), 1e-4, math.nextafter(1e16, 0.0), 0.0, -0.0],
    ])
    expected = json.dumps(values.tolist(), separators=(",", ":")).encode()
    assert orjson.dumps(values.tolist()) == expected
    assert orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY) == expected
    text = [s for s in SUBJECTS if s != "\ud800"]
    assert orjson.dumps(text).decode() == json.dumps(text, ensure_ascii=False, separators=(",", ":"))


@pytest.mark.parametrize(
    "value, renders",
    [
        (1e-4, True),
        (math.nextafter(1e-4, 0.0), False),
        (math.nextafter(1e16, 0.0), True),
        (1e16, False),
        (0.0, True),
        (-0.0, True),
        (5e-324, False),
        (1.7976931348623157e308, False),
    ],
)
def test_orjson_renders_a_record_only_inside_the_repr_range(value, renders):
    matrix = np.full((len(BAND_ORDER), N_ELECTRODES), 1.0)
    matrix[0, 0] = -value
    assert ingest._orjson_renders(EegFixationRecord("A", "s1", 0, matrix)) is renders
    assert ingest._orjson_renders(EegFixationRecord("A", "s1", 0.0, matrix)) is False


# ---------------------------------------------------------------------------
# the import: ingest alone names orjson, and only an EEG stage loads it


def test_only_ingest_names_orjson_and_imports_it_lazily():
    naming = sorted(p.name for p in (SRC / "cognlp").glob("*.py") if "orjson" in p.read_text(encoding="utf-8"))
    assert naming == ["ingest.py"]
    import ast

    tree = ast.parse((SRC / "cognlp" / "ingest.py").read_text(encoding="utf-8"))
    top_level = [
        alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "orjson" not in top_level


def test_a_stage_without_eeg_never_imports_orjson(tmp_path):
    from cognlp.cli import main

    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--task", "ner", "--sentences", "4", "--subjects", "1", "--seed", "2"]) == 0
    script = textwrap.dedent(
        """
        import sys
        import cognlp.cli
        loaded = ["orjson" in sys.modules]
        data, out = sys.argv[1:]
        assert cognlp.cli.main(["assemble", "--corpus", data + "/corpus.jsonl", "--task", "ner",
                                "--out", out + "/baseline.jsonl"]) == 0
        loaded.append("orjson" in sys.modules)
        assert cognlp.cli.main(["ingest-validate", "--corpus", data + "/corpus.jsonl", "--task", "ner",
                                "--fixations", data + "/fixations.jsonl",
                                "--eeg", data + "/eeg.jsonl"]) == 0
        loaded.append("orjson" in sys.modules)
        print(loaded)
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script, str(data), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip().splitlines()[-1] == "[False, False, True]"
