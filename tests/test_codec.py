"""The one JSON codec: orjson reads and writes every file, ``json`` stays
the reference.

Writers are checked byte for byte against ``json.dumps(obj,
ensure_ascii=False, separators=(",", ":"))``, with and without
``sort_keys``. Readers are checked against themselves with orjson switched
off (``json_only``): the same objects, or the same first error (type,
message and line). The EEG reader is also checked against
``json_eeg_entries``, the json-only reader it replaced, on mutated lines.
On a clean pipeline, ``json`` handles only what the rule sends to it.
"""

import dataclasses
import json
import math
import sys

import numpy as np
import orjson
import pytest

from cognlp import cli, datasets, gaze, ingest, tables
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


class _NoOrjson:
    """Stands in for orjson in ``ingest``: every call fails, so ``json``
    decodes and renders everything."""

    JSONDecodeError = orjson.JSONDecodeError
    JSONEncodeError = orjson.JSONEncodeError
    OPT_SORT_KEYS = orjson.OPT_SORT_KEYS
    OPT_SERIALIZE_NUMPY = orjson.OPT_SERIALIZE_NUMPY

    @staticmethod
    def loads(text):
        raise orjson.JSONDecodeError("switched off", "", 0)

    @staticmethod
    def dumps(obj, option=0):
        raise orjson.JSONEncodeError("switched off")


@pytest.fixture
def json_only(monkeypatch):
    """A function that runs its argument with orjson switched off."""

    def call(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "orjson", _NoOrjson)
            return fn(*args, **kwargs)

    return call


def canon(value):
    """``value`` in a form whose equality tells an int from a float, and
    compares arrays by dtype and values."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, canon(value.tolist()))
    if isinstance(value, dict):
        return ("dict", tuple((canon(k), canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, frozenset)):
        items = sorted(value) if isinstance(value, frozenset) else value
        return (type(value).__name__, tuple(canon(v) for v in items))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, tuple(canon(getattr(value, f.name)) for f in dataclasses.fields(value)))
    return (type(value).__name__, repr(value))


def outcome(fn, *args, **kwargs):
    try:
        return canon(fn(*args, **kwargs))
    except CognlpError as exc:
        return "error", type(exc).__name__, str(exc), exc.line


# ---------------------------------------------------------------------------
# the writer: _dumps gives json.dumps's bytes


def reference(obj, sort_keys=False) -> bytes:
    """What the codec must write: ``json``'s text in UTF-8, each array as
    its ``tolist()``."""
    return json.dumps(
        obj, ensure_ascii=False, separators=(",", ":"), sort_keys=sort_keys,
        default=lambda a: a.tolist(),
    ).encode("utf-8")


EDGE_VALUES = (
    0.0, -0.0, 5e-324, 1e-7, 1e-6, 9.99e-05, 1e-4, 9.999e15, 1e16,
    1.7976931348623157e308, math.nan, math.inf, -math.inf,
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64,
    True, False, None,
)
EDGE_STRINGS = (
    "", "plain", "tab\there", "\x00\x01\x1f\x7f", "line\u2028sep\u2029", 'quo"te \\ /',
    "ünïcödé", "日本", "\U0001f600 non-BMP", "e-1 e1 null 0.0000 in a string",
)


def _random_value(rng, depth=0):
    pick = rng.integers(7 if depth < 3 else 4)
    if pick == 0:
        return EDGE_VALUES[rng.integers(len(EDGE_VALUES))]
    if pick == 1:
        # any float64 bit pattern: every exponent, either sign; a Python
        # float or a NumPy one
        value = rng.integers(0, 2**63, dtype=np.int64).view(np.float64) * rng.choice((-1.0, 1.0))
        return value if rng.random() < 0.5 else float(value)
    if pick == 2:
        return int(rng.integers(-(2**62), 2**62))
    if pick == 3:
        return EDGE_STRINGS[rng.integers(len(EDGE_STRINGS))]
    if pick == 4:
        return [_random_value(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    return {
        EDGE_STRINGS[rng.integers(len(EDGE_STRINGS))] + str(i): _random_value(rng, depth + 1)
        for i in range(rng.integers(0, 5))
    }


@pytest.mark.parametrize("sort_keys", [False, True])
@pytest.mark.parametrize("seed", range(20))
def test_random_objects_are_written_as_json_writes_them(seed, sort_keys):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        obj = _random_value(rng)
        assert ingest._dumps(obj, sort_keys) == reference(obj, sort_keys), obj


@pytest.mark.parametrize("sort_keys", [False, True])
@pytest.mark.parametrize("value", EDGE_VALUES + EDGE_STRINGS, ids=repr)
def test_edge_values_are_written_as_json_writes_them(value, sort_keys):
    for obj in (value, [value, 1.5], {"k": value, "a": [value]}):
        assert ingest._dumps(obj, sort_keys) == reference(obj, sort_keys)


def _same_as_json(obj, sort_keys):
    """``_dumps`` gives ``reference``'s bytes, or raises its error."""
    try:
        expected = reference(obj, sort_keys)
    except (TypeError, UnicodeEncodeError) as exc:
        with pytest.raises(type(exc)):
            ingest._dumps(obj, sort_keys)
        return type(exc)
    assert ingest._dumps(obj, sort_keys) == expected, obj
    return bytes


@pytest.mark.parametrize("sort_keys", [False, True])
def test_non_string_keys_are_written_as_json_writes_them(sort_keys):
    objects = ({1: "a", 2: "b"}, {1.5: 0, -0.0: 1}, {True: 1, None: 2}, {2**64: 0}, {"b": 1, "a": {3: []}})
    outcomes = [_same_as_json(obj, sort_keys) for obj in objects]
    # json cannot order a str key and an int key, nor None and True
    assert outcomes == [bytes] * 5 if not sort_keys else [bytes, bytes, TypeError, bytes, TypeError]


def test_a_lone_surrogate_fails_as_json_text_does():
    for obj in ("\ud800", {"\udfff": 1}, ["a", {"k": "x\ud83d"}]):
        assert _same_as_json(obj, False) is UnicodeEncodeError


def _blocks(rng):
    """Float64 row blocks: random bit patterns, normal values, edges."""
    # every sign and exponent, NaNs among them
    yield rng.integers(-(2**63), 2**63, (40, 7), dtype=np.int64, endpoint=False).view(np.float64)
    yield rng.normal(0.0, 10.0 ** rng.integers(-6, 8), (30, 9))
    edges = np.array([v for v in EDGE_VALUES if isinstance(v, float)] * 6).reshape(-1, 13)
    yield edges
    yield edges[:, ::2]  # rows not contiguous in memory
    yield np.zeros((0, 4))


@pytest.mark.parametrize("sort_keys", [False, True])
def test_row_blocks_are_written_as_json_writes_their_lists(sort_keys):
    rng = np.random.default_rng(7)
    for block in _blocks(rng):
        keyed = dict(zip((f"k{i}" for i in range(len(block))), block))
        for obj in (block, keyed, {"bands": keyed, "seq": 3}):
            expected = reference(obj, sort_keys)
            assert ingest._dumps(obj, sort_keys) == expected
            assert ingest._dumps(obj, sort_keys, values=block) == expected


def test_the_values_decide_as_the_markers_would():
    """``values`` stands in for ``_marked``: on any float64 array, a value
    beyond repr's range and a marker in orjson's bytes go together."""
    rng = np.random.default_rng(2)
    values = np.concatenate([
        rng.integers(-(2**63), 2**63, 200_000, dtype=np.int64).view(np.float64),
        [v for v in EDGE_VALUES if isinstance(v, float)],
        [math.nextafter(1e-4, 0.0), math.nextafter(1e16, 0.0), 1e-7, math.nextafter(1e-7, 0.0)],
        [10.00001, 100.00009, 0.00010001, 2.00000001e-5, 1e45, 3e99, 7e-45],
    ])
    values = np.concatenate([values, -values[-20:]])
    for chunk in np.array_split(values, 20_000):
        data = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)
        assert ingest._marked(data) == ingest._beyond_repr_range(chunk), chunk


def _random_in_range(rng, n):
    """Floats of uniformly random bit patterns with magnitude in [1e-4, 1e16),
    either sign."""
    low = int(np.float64(1e-4).view(np.int64))
    high = int(np.float64(1e16).view(np.int64))
    magnitude = rng.integers(low, high, n, dtype=np.int64).view(np.float64)
    return magnitude * rng.choice((-1.0, 1.0), n)


def test_orjson_formats_every_value_in_the_range_as_repr():
    """Fails loudly if an orjson release formats floats, Python's or a
    float64 array's, or strings differently: then ``_marked`` must widen,
    or orjson go."""
    rng = np.random.default_rng(3)
    values = np.concatenate([
        _random_in_range(rng, 200_000),
        [math.nextafter(1e-4, 1.0), 1e-4, math.nextafter(1e16, 0.0), 0.0, -0.0],
    ])
    expected = json.dumps(values.tolist(), separators=(",", ":")).encode()
    assert orjson.dumps(values.tolist()) == expected
    assert orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY) == expected
    assert not ingest._marked(expected)
    text = list(EDGE_STRINGS)
    assert orjson.dumps(text).decode() == json.dumps(text, ensure_ascii=False, separators=(",", ":"))


# ---------------------------------------------------------------------------
# readers: the same objects and errors as with json alone

BIG = (
    "1234567890123456789",  # 19 digits, within 64 bits
    "9999999999999999999",  # 19 digits, beyond a signed 64-bit integer
    "98765432109876543210",  # 20 digits, beyond 64 bits: orjson reads a float
    "-9223372036854775809",
    "1" + "0" * 400,  # beyond the float range
)
ODD = ("NaN", "Infinity", "-Infinity", "1e400", '"\\ud800"', "true", "null", '"x"', "2.5")
VALUES = BIG + ODD


def _case_lines(template: str):
    """``template`` with ``V`` replaced by each of ``VALUES``, plus the
    line with a trailing comma and with its first member repeated."""
    cases = [template.replace("V", v) for v in VALUES]
    line = template.replace("V", "1")
    cases.append(line[:-1] + ",}")
    cases.append(line[:-1] + ", " + line[1:].split(", ")[0] + "}")
    return cases


def _compare(json_only, read, template, before=(), after=()):
    """Each case line, between ``before`` and ``after`` lines, read with
    and without orjson; returns the outcomes."""
    seen = []
    for line in _case_lines(template):
        lines = [*before, line, *after]
        expected = json_only(outcome, read, lines)
        assert outcome(read, lines) == expected, line
        seen.append(expected)
    return seen


def _reached_both(seen):
    """Some cases end in an object and some in an error, so the equality is
    not that of a shared failure."""
    assert {s[0] == "error" for s in seen} == {True, False}


FIXATION = '{"subject": "A", "sentence_id": "s1", "seq": V, "word_index": 0, "duration_ms": 150.0}'


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "template",
    [
        FIXATION,
        FIXATION.replace('"word_index": 0', '"word_index": V').replace('"seq": V', '"seq": 0'),
        FIXATION.replace("150.0", "V").replace('"seq": V', '"seq": 0'),
        FIXATION.replace("150.0", "150.0, \"onset_ms\": V").replace('"seq": V', '"seq": 0'),
        FIXATION.replace('"A"', "V").replace('"seq": V', '"seq": 0'),
        FIXATION.replace("}", ', "extra": V}').replace('"seq": V', '"seq": 0'),
    ],
)
def test_fixations_read_as_with_json(json_only, template, strict):
    seen = _compare(json_only, lambda lines: ingest.parse_fixations(lines, strict=strict), template,
                    before=[json.dumps({"_header": {"kind": "fixations", "n": 10**30}})])
    if not strict:
        _reached_both(seen)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "template",
    [
        '{"id": V, "tokens": ["a", "b"], "labels": ["O", "O"]}',
        '{"id": "s1", "tokens": ["a", V], "labels": ["O", "O"]}',
        '{"id": "s1", "tokens": ["a", "b"], "labels": ["O", V]}',
        '{"id": "s1", "tokens": ["a", "b"], "labels": ["O", "O"], "extra": V}',
    ],
)
def test_corpora_read_as_with_json(json_only, template, strict):
    _compare(json_only, lambda lines: ingest.parse_corpus(lines, "ner", strict=strict), template,
             before=['{"id": "s0", "tokens": ["x"], "labels": ["O"]}'])


@pytest.mark.parametrize(
    "template",
    [
        '{"subject": "A", "sentence_id": "s1", "seq": V, "bands": BANDS}',
        '{"subject": "A", "sentence_id": "s1", "seq": 0, "bands": BANDS, "extra": V}',
        '{"subject": "A", "sentence_id": "s1", "seq": 0, "bands": VBANDS}',
    ],
)
def test_eeg_records_read_as_with_json(json_only, template):
    bands = json.dumps({band: [1.5] * N_ELECTRODES for band in BAND_ORDER})
    vbands = bands.replace("1.5", "V", 1)
    template = template.replace("VBANDS", vbands).replace("BANDS", bands)
    seen = _compare(json_only, lambda lines: tuple(iter_eeg(lines)), template)
    _reached_both(seen)


@pytest.mark.parametrize("field", ["word_index", "NFIX", "TRT", "subject"])
def test_gaze_rows_read_as_with_json(json_only, field):
    row = {"subject": "A", "sentence_id": "s1", "word_index": 0, "NFIX": 1, "FFD": 200.0, "GD": 200.0,
           "TRT": 250.5, "GPT": 200.0, "MFD": 200.0}
    template = json.dumps({**row, field: "@"}).replace('"@"', "V")
    seen = _compare(json_only, gaze.read_gaze_features, template)
    _reached_both(seen)


TABLE_HEADER = '{"_header": {"kind": "features", "dims": ["x", "y"]}}'


@pytest.mark.parametrize(
    "template",
    [
        '{"sentence_id": "s1", "word_index": V, "values": [1.0, 2.0]}',
        '{"sentence_id": "s1", "word_index": 0, "values": [V, 2.0]}',
    ],
)
def test_token_tables_read_as_with_json(json_only, template):
    seen = _compare(json_only, tables.read_token_table, template, before=[TABLE_HEADER])
    _reached_both(seen)


def test_table_headers_read_as_with_json(json_only):
    row = '{"sentence_id": "s1", "word_index": 0, "values": [1.0, 2.0]}'
    header = TABLE_HEADER.replace('"y"', "V")
    _compare(json_only, tables.read_token_table, header, after=[row])


@pytest.mark.parametrize(
    "header",
    [
        '{"_header": {"kind": "dataset", "task": "ner", "manifest": ["a", V]}}',
        '{"_header": {"kind": "dataset", "task": "ner", "manifest": ["a", "b"], "train_exclude": [V]}}',
        '{"_header": {"kind": "dataset", "task": V, "manifest": ["a", "b"]}}',
        '{"_header": {"kind": "dataset", "task": "ner", "manifest": ["a", "b"], "n": V}}',
    ],
)
def test_dataset_headers_read_as_with_json(json_only, header):
    row = '{"id": "s1", "tokens": ["a"], "labels": ["O"], "features": [[1.0, 2.0]]}'
    _compare(json_only, datasets.read_dataset, header, after=[row])


def test_dataset_instances_read_as_with_json(json_only):
    header = '{"_header": {"kind": "dataset", "task": "ner", "manifest": ["a", "b"]}}'
    seen = _compare(json_only, datasets.read_dataset,
                    '{"id": "s1", "tokens": ["a"], "labels": ["O"], "features": [[V, 2.0]]}', before=[header])
    _reached_both(seen)


@pytest.mark.parametrize("template", ['{"id": "s1", "prediction": [V]}', '{"id": V, "prediction": ["O"]}'])
def test_predictions_read_as_with_json(json_only, tmp_path, template):
    path = tmp_path / "predictions.jsonl"

    def read(lines):
        path.write_text("\n".join(lines) + "\n")
        return cli._read_predictions(path)

    _compare(json_only, read, template)


@pytest.mark.parametrize(
    "template",
    [
        '{"k": 2, "ratios": [0.5, 0.0, 0.5], "seed": V, "assignment": {"s1": 0, "s2": 1}}',
        '{"k": 2, "ratios": [0.5, 0.0, 0.5], "seed": 0, "assignment": {"s1": V, "s2": 1}}',
        '{"dims": ["x"], "entries": {"a": {"values": [V], "count": 1}}}',
        '{"dims": ["x"], "entries": {"a": {"values": [1.0], "count": V}}, "unknown_policy": V}',
        '{"seed": V, "lr": V, "epochs": 1}',
        '[V, [V, {"k": V}]]',
    ],
)
def test_whole_files_read_as_with_json(json_only, tmp_path, template):
    """Whole files have no reader check between the decoder and the value:
    the value itself must be json's."""
    path = tmp_path / "file.json"

    def read(lines):
        path.write_text("\n".join(lines) + "\n")
        return cli._read_json(path)

    for line in _case_lines(template):
        expected = json_only(outcome, read, [line])
        assert outcome(read, [line]) == expected, line
        if expected[0] != "error":
            assert expected == canon(json.loads(line))


def test_big_integers_are_seen_in_whole_files_only_where_they_may_be():
    assert ingest._may_hold_big_int("[1234567890123456789]")
    assert ingest._may_hold_big_int('{"a":-98765432109876543210}')
    assert ingest._may_hold_big_int("1" + "0" * 30)
    assert not ingest._may_hold_big_int("[0.00012345678901234567890, 123456789012345678]")
    assert not ingest._may_hold_big_int('{"w=x":[0.0,1.5e+300]}')


def test_damaged_files_keep_their_line_numbers(tmp_path):
    path = tmp_path / "file.json"
    for text, line in (('{\n"a": 1,\n}\n', 3), ('{"a":\n\n NaN, "b": [1,\n2,]}', 4), ("\n\n[1 2]", 3)):
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            cli._read_json(path)
        with pytest.raises(json.JSONDecodeError) as ref:
            json.loads(text)
        assert str(err.value) == f"line {line}: invalid JSON: {ref.value.msg}"
        assert err.value.line == ref.value.lineno == line


# ---------------------------------------------------------------------------
# EEG lines, against the json-only reader they replaced


def _band_error(bands, lineno):
    """The error for the first band, in ``BAND_ORDER``, that is not a list
    of ``N_ELECTRODES`` finite numbers."""
    for band in BAND_ORDER:
        values, name = bands[band], f"band {band!r}"
        if not isinstance(values, list) or len(values) != N_ELECTRODES:
            return ValidationError(f"{name} must have exactly {N_ELECTRODES} values", line=lineno)
        if not all(type(v) in (int, float) for v in values):
            return ParseError(f"{name} must contain only numbers", line=lineno)
        if not all(abs(v) <= sys.float_info.max for v in values):  # NaN, infinities, 10**400
            return ValidationError(f"{name} must be finite", line=lineno)
    raise AssertionError("no band at fault")


def json_eeg_entries(lines, known_keys, strict):
    """The EEG line reader before orjson: every line decoded by ``json``,
    and every band value's type checked (NumPy reads ``"2.5"`` as 2.5)."""
    shape = (len(BAND_ORDER), N_ELECTRODES)
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError("invalid JSON: lone surrogate escape", line=lineno) from None
        if not isinstance(obj, dict):
            raise ParseError("record is not a JSON object", line=lineno)
        if "_header" in obj:
            continue
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
            or any(isinstance(v, (bool, str)) for band in BAND_ORDER for v in bands[band])
        ):
            raise _band_error(bands, lineno)
        key = (subject, sid, seq)
        if known_keys is not None and key not in known_keys:
            raise ValidationError(f"dangling EEG record {key}: no matching fixation", line=lineno)
        yield lineno, EegFixationRecord(*key, matrix)


_Records = ingest._Records  # before any test patches it


def orjson_eeg_entries(lines, known_keys, strict):
    yield from _Records(lines, ingest._EEG, ingest._eeg_entry, known_keys, strict=strict)


def _replace_seq(j, seq):
    return _record_line(j).replace(f'"seq": {j}', f'"seq": {seq}')


#: Lines the two decoders read differently, or that only ``json`` reads.
CODEC_LINES = {
    "nan": lambda j: _with_band(j, "alpha2", [float("nan")] + [1.0] * (N_ELECTRODES - 1)),
    "lone surrogate subject": lambda j: _record_line(j).replace('"subject": "A"', '"subject": "\\ud800"'),
    "seq beyond 64 bits": lambda j: _replace_seq(j, 10**25),
    "band integer beyond 64 bits": lambda j: _with_band(j, "alpha2", [10**25] + [1.0] * (N_ELECTRODES - 1)),
    "band integer beyond the float range": lambda j: _with_band(j, "alpha2", [10**400] + [1.0] * (N_ELECTRODES - 1)),
    "repeated key": lambda j: '{"seq": -7, ' + _record_line(j)[1:],
    "repeated band": lambda j: _record_line(j)[:-2] + ', "theta1": ' + json.dumps([2.5] * N_ELECTRODES) + "}}",
    "bom": lambda j: "\ufeff" + _record_line(j),
    "integer values": lambda j: _with_band(j, "gamma1", list(range(N_ELECTRODES))),
    "tiny exponent": lambda j: _record_line(j).replace(f"{j + 0.25}, ", "1e-400, ", 1),
    "number": lambda j: "5",
    "null": lambda j: "null",
    "string": lambda j: '"subject sentence_id seq bands"',
}


def _eeg_outcome(monkeypatch, path, entries, with_log, strict):
    """The records, or the first error's type, message and line, reading
    ``path`` with ``entries`` as the line reader."""
    log = None
    if with_log:
        log = parse_fixations([fixation_line(seq=i) for i in range(N_RECORDS)])
    monkeypatch.setattr(
        ingest, "_Records", lambda lines, kind, entry, *args, strict: entries(lines, *args, strict)
    )
    try:
        return tuple(iter_eeg(Lines(path), fixations=log, strict=strict))
    except CognlpError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("case", sorted({**CASE_LINES, **CODEC_LINES}))
def test_eeg_reader_matches_the_json_reader(tmp_path, monkeypatch, case, strict):
    make = {**CASE_LINES, **CODEC_LINES}[case]
    path = tmp_path / "eeg.jsonl"
    for j in (0, N_RECORDS - 2):
        lines = [_record_line(i) for i in range(N_RECORDS)]
        lines[j] = make(j)
        _write_lines(path, lines)
        for with_log in (True, False):
            expected = _eeg_outcome(monkeypatch, path, json_eeg_entries, with_log, strict)
            got = _eeg_outcome(monkeypatch, path, orjson_eeg_entries, with_log, strict)
            assert got == expected, (j, with_log)


def test_the_eeg_cases_reach_both_outcomes(tmp_path, monkeypatch):
    """The json-only cases end in records as well as in errors, so the
    fallback is what decides them, not a shared failure."""
    path = tmp_path / "eeg.jsonl"
    kinds = {}
    for case, make in CODEC_LINES.items():
        lines = [_record_line(i) for i in range(N_RECORDS)]
        lines[0] = make(0)
        _write_lines(path, lines)
        result = _eeg_outcome(monkeypatch, path, orjson_eeg_entries, False, False)
        kinds[case] = "records" if isinstance(result[0], EegFixationRecord) else result[0]
    assert kinds == {
        "nan": ValidationError,
        "lone surrogate subject": ParseError,
        "seq beyond 64 bits": "records",
        "band integer beyond 64 bits": "records",
        "band integer beyond the float range": ValidationError,
        "repeated key": "records",
        "repeated band": "records",
        "bom": ParseError,
        "integer values": "records",
        "tiny exponent": "records",
        "number": ParseError,
        "null": ParseError,
        "string": ParseError,
    }


def test_json_decodes_only_the_eeg_lines_orjson_does_not_settle(tmp_path, monkeypatch):
    decoded = []
    monkeypatch.setattr(ingest, "json", _Counting(json, decoded))
    path = tmp_path / "eeg.jsonl"
    lines = [_record_line(i) for i in range(N_RECORDS)]
    lines[1] = CODEC_LINES["seq beyond 64 bits"](1)
    _write_lines(path, [json.dumps({"_header": {"kind": "eeg"}}), *lines])
    assert len(list(iter_eeg(Lines(path)))) == N_RECORDS
    assert [args[0] for name, args, _ in decoded if name == "loads"] == [lines[1]]


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


def test_eeg_reader_matches_the_json_reader_on_mutated_lines():
    values = np.random.default_rng(5).normal(0.0, 30.0, (len(BAND_ORDER), N_ELECTRODES))
    values[3] = _EDGES
    values[4, :8] = [0.0, -0.0, 1e-4, 123456789.0, 7.0, -1e-7, 1e15, 2.5e-300]
    record = EegFixationRecord("Jürgen", "s1", 12, values)
    line = ingest._eeg_line(record).rstrip(b"\n")
    known = {record.key}
    seen = {"records": 0, "errors": 0}
    for data in _mutations(line, 3000, seed=1):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            continue  # ``Lines`` rejects it before any decoder sees it
        for known_keys, strict in ((known, True), (None, False)):
            expected = _entries_outcome(json_eeg_entries, text, known_keys, strict)
            got = _entries_outcome(orjson_eeg_entries, text, known_keys, strict)
            assert got == expected, text[:120]
        seen["records" if isinstance(expected, list) else "errors"] += 1
    assert seen["records"] > 300 and seen["errors"] > 300, seen


def _eeg_reference(record):
    bands = dict(zip(BAND_ORDER, record.matrix.tolist()))
    obj = {"subject": record.subject, "sentence_id": record.sentence_id, "seq": record.seq, "bands": bands}
    return reference(obj) + b"\n"


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


SUBJECTS = ("A", "Jürgen", "s x", "tab\there \x00\x1f\x7f\u2028\"\\/", "e-1 null", "\ud800")


def test_eeg_lines_are_written_as_json_writes_them():
    records = [
        EegFixationRecord(SUBJECTS[i % len(SUBJECTS)], f"s{i}", i, matrix)
        for i, matrix in enumerate(_matrices())
    ]
    records.append(EegFixationRecord("A", "s1", 10**25, records[0].matrix))
    records.append(EegFixationRecord("A", "s1", 1e16, records[0].matrix))
    # rows that are not contiguous, which orjson refuses
    records.append(EegFixationRecord("A", "s1", 7, np.asfortranarray(records[0].matrix)))
    assert not records[-1].matrix[0].flags.c_contiguous
    for record in records:
        if record.subject == "\ud800":  # UTF-8 cannot encode a lone surrogate
            with pytest.raises(UnicodeEncodeError):
                ingest._eeg_line(record)
        else:
            assert ingest._eeg_line(record) == _eeg_reference(record), record


# ---------------------------------------------------------------------------
# a clean pipeline: json handles only what the rule sends to it


class _Counting:
    """A stand-in for a module that records every ``loads`` and ``dumps``
    call, ``(name, args, kwargs)``, and passes it on."""

    def __init__(self, module, calls):
        self._module, self._calls = module, calls

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if name not in ("loads", "dumps"):
            return value

        def call(*args, **kwargs):
            self._calls.append((name, args, kwargs))
            return value(*args, **kwargs)

        return call


def test_json_handles_only_what_the_rule_sends_it(tmp_path, monkeypatch, capsys):
    json_calls, orjson_calls = [], []
    monkeypatch.setattr(ingest, "json", _Counting(json, json_calls))
    monkeypatch.setattr(ingest, "orjson", _Counting(orjson, orjson_calls))
    data, feats, runs = tmp_path / "data", tmp_path / "feats", tmp_path / "runs"
    corpus = ["--corpus", data / "corpus.jsonl", "--task", "ner"]
    fixations = ["--fixations", data / "fixations.jsonl"]
    folds = ["--folds", 2, "--ratios", "0.5,0.0,0.5"]
    for argv in (
        ["synth", "--out", data, "--sentences", 10, "--subjects", 2, "--seed", 4],
        ["ingest-validate", *corpus, *fixations, "--eeg", data / "eeg.jsonl"],
        ["extract-gaze", *corpus, *fixations, "--out", feats / "gaze.jsonl"],
        ["extract-eeg", *corpus, *fixations, "--eeg", data / "eeg.jsonl", "--out", feats / "eeg.jsonl"],
        ["assemble", *corpus, "--gaze", feats / "gaze.jsonl", "--eeg", feats / "eeg.jsonl", "--out", feats / "ds.jsonl"],
        ["train", "--dataset", feats / "ds.jsonl", "--out", runs / "a", "--epochs", 1, *folds],
        ["evaluate", "--dataset", feats / "ds.jsonl", "--runs", f"a={runs / 'a'}", "--rounds", 20],
    ):
        assert cli.main([str(a) for a in argv]) == 0
    capsys.readouterr()
    decoded = sum(1 for name, _, _ in orjson_calls if name == "loads")
    encoded = sum(1 for name, _, _ in orjson_calls if name == "dumps")
    assert decoded > 1000 and encoded > 500
    # no line of a clean pipeline needs json to decode it
    assert [args for name, args, _ in json_calls if name == "loads"] == []
    # and json renders only what orjson raised on or marked: here the
    # headers, whose configs hold nulls, and EEG records with a value
    # below 1e-4
    rendered = [(args[0], kwargs) for name, args, kwargs in json_calls
                if name == "dumps" and "separators" in kwargs]
    for obj, kwargs in rendered:
        option = (orjson.OPT_SORT_KEYS if kwargs["sort_keys"] else 0) | orjson.OPT_SERIALIZE_NUMPY
        try:
            assert ingest._marked(orjson.dumps(obj, option=option)), obj
        except orjson.JSONEncodeError:
            pass
    assert len(rendered) < 0.05 * encoded
