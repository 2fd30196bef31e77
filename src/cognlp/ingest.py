"""Line-delimited interchange formats: corpora, fixation logs, EEG band records.

Three record kinds, one JSON object per line:

* ``corpus.jsonl``    -- ``{"id", "tokens", "labels"}``
* ``fixations.jsonl`` -- ``{"subject", "sentence_id", "seq", "word_index", "duration_ms"}``
* ``eeg.jsonl``       -- ``{"subject", "sentence_id", "seq", "bands": {band: [105 values]}}``

Every line file, these and the tables, datasets and predictions cognlp
writes, is read through one reader, ``_Records``, which checks each record's
fields against its ``_Kind``: unknown fields are rejected under strict mode
and ignored otherwise. A line whose object has a ``"_header"`` key is a
header (see ``_header``): read where the kind needs one before its first
record, skipped otherwise. ``Lines`` streams a file, split on ``"\\n"`` only.

EEG is the bulk of the data (8 bands x 105 electrodes per fixation), so it is
held columnar and streamed: each ``EegFixationRecord`` keeps one read-only
``(8, 105)`` float64 matrix whose rows follow ``BAND_ORDER``. ``iter_eeg``
yields the records of any iterable of lines as it parses them, keeping only
their keys, and ``_eeg_line`` renders one record's line as UTF-8 bytes, which
``synth`` writes as each record is drawn. Both keep every value's shortest
round-trip ``repr``, so a parse/render round trip is byte-identical.

Every file cognlp reads or writes goes through one JSON codec, here:
orjson does the work and ``json`` stays the reference, deciding every case
orjson does not settle identically.

* Decoding (``_loads``): orjson decodes a line and the reader checks what
  it read. When orjson rejects the line (``NaN``, a lone surrogate escape,
  ``1e400``, or bad JSON, whose error message is ``json``'s), or a check
  fails on what orjson read, ``json`` decodes the line and the check runs
  again, so every error (type, message and line) is the one ``json``
  gives. A lone surrogate escape, which ``json`` reads and no UTF-8 writer
  can write back, is refused there too. orjson reads an integer beyond 64
  bits as a float, which the checks of integer fields refuse and every
  number field reads alike. A whole file read without checks (a model, a
  fold plan, ``--config``) is decoded by ``json`` when its text may hold
  such an integer.
* Encoding (``_dumps``): orjson renders each line, block of model rows or
  whole object, and ``json`` renders it instead when orjson raises (a lone
  surrogate, a non-string key, an integer beyond 64 bits, an array not
  contiguous in memory) or when orjson's bytes hold a marker of a float
  format other than ``repr``'s: an exponent, ``0.0000`` or ``null``
  (``_marked``). When the caller holds every float of the object in one
  float64 array (an EEG record, a block of model rows), the array's values
  tell the same faster (``_beyond_repr_range``). The bytes are
  ``json.dumps(obj, ensure_ascii=False, separators=(",", ":"))``'s.

Every number a reader takes from a decoded line or file goes through one
rule, ``_numbers``: a boolean, a string, ``null`` or a list where a number
belongs is a ParseError, and a list of another length or a non-finite value
a ValidationError.
"""

from __future__ import annotations

import json
import re
import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import orjson

from .errors import CognlpError, ConfigError, ParseError, ValidationError

TASKS = ("ner", "relclass", "sentiment2", "sentiment3")

RELATION_TYPES = (
    "award",
    "employer",
    "education",
    "founder",
    "visited",
    "wife",
    "political-affiliation",
    "nationality",
    "job-title",
    "birth-place",
    "death-place",
)

#: Each sentence-level task's classes, in the fixed order a model file keeps
#: them (``synth`` draws relations in the order of ``RELATION_TYPES``).
SENTENCE_CLASSES = {
    "relclass": tuple(sorted(RELATION_TYPES)),
    "sentiment2": ("neg", "pos"),
    "sentiment3": ("neg", "neu", "pos"),
}

#: Closed frequency intervals in Hz, ordered by lower bound. The published
#: band edges make 40.0 Hz fall in both gamma intervals.
BANDS = (
    ("theta1", 4.0, 6.0),
    ("theta2", 6.5, 8.0),
    ("alpha1", 8.5, 10.0),
    ("alpha2", 10.5, 13.0),
    ("beta1", 13.5, 18.0),
    ("beta2", 18.5, 30.0),
    ("gamma1", 30.5, 40.0),
    ("gamma2", 40.0, 49.5),
)
BAND_ORDER = tuple(name for name, _, _ in BANDS)
N_ELECTRODES = 105

_JSON_SEPARATORS = (",", ":")

#: The read buffer of ``Lines``: reading and decoding the lines of an 18.8 MB
#: EEG file took about 9 ms with it and 25 ms with the default 8 KiB; 256 KiB
#: and 1 MiB saved under 2 ms more.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Sentence:
    """One tokenized sentence with its task labels.

    ``labels`` holds per-token BIO tags for NER, one or more relation types
    for relation classification, and a single sentiment label (as a 1-tuple)
    for the sentiment tasks.
    """

    id: str
    tokens: tuple[str, ...]
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    task: str
    sentences: tuple[Sentence, ...]

    @cached_property
    def by_id(self) -> dict[str, Sentence]:
        return {s.id: s for s in self.sentences}

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)


@dataclass(frozen=True)
class FixationEvent:
    subject: str
    sentence_id: str
    seq: int
    word_index: int
    duration_ms: float
    onset_ms: float | None = None


@dataclass(frozen=True, eq=False)
class EegFixationRecord:
    """Band amplitudes (microvolts) recorded during one fixation.

    ``matrix`` is a read-only ``(8, 105)`` float64 array, one row per band in
    ``BAND_ORDER``. The constructor also accepts a ``{band: values}`` mapping
    or any nested sequence of that shape, and always keeps its own copy.
    Records are equal when their keys are and their matrices match bitwise.
    """

    subject: str
    sentence_id: str
    seq: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        values = self.matrix
        if isinstance(values, Mapping):
            values = [values[band] for band in BAND_ORDER]
        matrix = np.array(values, dtype=float)
        if matrix.shape != (len(BAND_ORDER), N_ELECTRODES):
            raise ValidationError(
                f"EEG record needs a ({len(BAND_ORDER)}, {N_ELECTRODES}) matrix, "
                f"got {matrix.shape}"
            )
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def __repr__(self) -> str:
        # the 840 values would swamp any message that shows a record
        return (
            f"EegFixationRecord(subject={self.subject!r}, sentence_id={self.sentence_id!r}, "
            f"seq={self.seq!r}, matrix=<{self.matrix.shape} {self.matrix.dtype}>)"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EegFixationRecord):
            return NotImplemented
        return self.key == other.key and self.matrix.tobytes() == other.matrix.tobytes()

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.subject, self.sentence_id, self.seq)


@dataclass(frozen=True)
class FixationLog:
    """Fixation events grouped by (subject, sentence_id), ordered by seq."""

    groups: Mapping[tuple[str, str], tuple[FixationEvent, ...]]

    @cached_property
    def subjects(self) -> tuple[str, ...]:
        return tuple(sorted({subject for subject, _ in self.groups}))

    def events(self) -> Iterator[FixationEvent]:
        for group in self.groups.values():
            yield from group

    def __len__(self) -> int:
        return sum(len(g) for g in self.groups.values())


def check_bio(tags: Sequence[str], lineno: int | None = None) -> None:
    """Raise ValidationError, at ``lineno``, unless ``tags`` form a
    well-formed BIO sequence."""
    prev = "O"
    for tag in tags:
        if tag == "O":
            prev = tag
            continue
        if len(tag) < 3 or tag[1] != "-" or tag[0] not in "BI":
            raise ValidationError(f"tag {tag!r} is not O, B-X, or I-X", line=lineno)
        if tag[0] == "I" and prev not in (f"B-{tag[2:]}", f"I-{tag[2:]}"):
            raise ValidationError(f"{tag} does not continue a {tag[2:]} span", line=lineno)
        prev = tag


class Lines:
    """The lines of a UTF-8 text file without their ``"\\n"``, read one at a
    time, through a ``_CHUNK``-byte buffer, as they are iterated; iterating
    again reads the file again.

    Only ``"\\n"`` ends a line: the writers keep U+2028, form feeds and the
    like verbatim inside JSON strings. A line that is not valid UTF-8 is a
    ParseError with its line number.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def __iter__(self) -> Iterator[str]:
        with self.path.open("rb", buffering=_CHUNK) as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"not UTF-8 text: {exc.reason}", line=lineno) from None
                yield line.removesuffix("\n")


#: A text's characters mapped so that each ASCII digit reads "0", "." stays
#: and every other ASCII character reads " ": an integer of 19 digits or
#: more, the only kind that may lie beyond 64 bits, shows as " " and 19
#: zeros, where a fraction's digits follow ".".
_DIGIT_RUNS = str.maketrans(
    {chr(c): "0" if chr(c).isdigit() else "." if c == 46 else " " for c in range(128)}
)
_BIG_INT = "0" * 19


def _may_hold_big_int(text: str) -> bool:
    """Whether JSON ``text`` may hold an integer beyond 64 bits, which
    orjson reads as a float and ``json`` as an integer. For a 90 KB tagger
    file this took 0.09 ms, orjson's decoding 0.37 and ``json``'s 1.35;
    ``rfind`` found the zeros in a third of the time ``in`` took."""
    runs = text.translate(_DIGIT_RUNS)
    return runs.startswith(_BIG_INT) or runs.rfind(" " + _BIG_INT) >= 0


#: A ``\uXXXX`` escape of a surrogate that no backslash escapes, with the
#: low surrogate's escape after a high one's when there is one: a match of
#: one escape, 6 characters, is a lone surrogate.
_SURROGATE_ESCAPE = re.compile(
    r"(?<!\\)(?:\\\\)*(\\u[dD][89abAB][0-9a-fA-F]{2}(?:\\u[dD][c-fC-F][0-9a-fA-F]{2})?"
    r"|\\u[dD][c-fC-F][0-9a-fA-F]{2})"
)


def _loads(text: str, lineno: int | None = None, check=None, *args):
    """The JSON value of ``text`` by the codec's rule (see the module
    docstring), passed through ``check(value, *args)`` when a check is given.

    orjson decodes ``text``; ``json`` decodes it instead when orjson rejects
    it or ``check`` raises a CognlpError on what orjson read, and ``check``
    runs again. Without a check (a whole file), ``json`` decodes a text that
    may hold an integer beyond 64 bits. A text ``json`` rejects or nests too
    deeply to read, or one that escapes a lone surrogate (``json`` reads it,
    and no UTF-8 writer can write it back), is a ParseError at ``lineno``,
    or at its line in ``text`` when that is None.
    """
    if check is not None or not _may_hold_big_int(text):
        try:
            value = orjson.loads(text)
            return value if check is None else check(value, *args)
        except (orjson.JSONDecodeError, CognlpError):
            pass
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        line = exc.lineno if lineno is None else lineno
        raise ParseError(f"invalid JSON: {exc.msg}", line=line) from None
    except RecursionError:
        line = _deepest_line(text) if lineno is None else lineno
        raise ParseError("invalid JSON: nested too deeply", line=line) from None
    lone = next((m for m in _SURROGATE_ESCAPE.finditer(text) if len(m[1]) == 6), None)
    if lone is not None:
        line = text.count("\n", 0, lone.start()) + 1 if lineno is None else lineno
        raise ParseError("invalid JSON: lone surrogate escape", line=line)
    return value if check is None else check(value, *args)


#: A JSON string, or a bracket outside one.
_NESTING = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


def _deepest_line(text: str) -> int:
    """The line of JSON ``text`` on which its nesting first gets deepest."""
    depth = deepest = at = 0
    for m in _NESTING.finditer(text):
        depth += 1 if m[0] in "[{" else -1 if m[0] in "]}" else 0
        if depth > deepest:
            deepest, at = depth, m.start()
    return text.count("\n", 0, at) + 1


def _check_fields(
    obj: dict, required: Sequence[str], optional: Sequence[str], lineno: int, strict: bool
) -> None:
    for name in required:
        if name not in obj:
            raise ParseError(f"missing field {name!r}", line=lineno)
    if strict:
        unknown = set(obj) - set(required) - set(optional)
        if unknown:
            raise ValidationError(
                f"unknown fields {sorted(unknown)} (strict mode)", line=lineno
            )


@dataclass(frozen=True)
class _Kind:
    """A line file kind: the fields its records must and may hold. A kind
    with a ``header`` needs a header line of that kind, with the fields
    ``header_fields``, before its first record; ``read_header(fields, line
    number)`` reads what its records need from them."""

    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    header: str | None = None
    header_fields: tuple[str, ...] = ()
    read_header: Callable[[dict, int], object] | None = None


class _Records:
    """``(line number, entry(obj, line number, text, *args))`` for each record
    line of a ``kind`` file: ``obj`` is its JSON object, fields checked, and
    ``text`` the stripped line. For a kind with a header, ``entry`` gets the
    ``header`` (what ``read_header`` took from the last one) after ``text``.
    ``entry`` makes every other check, so that ``_loads`` can run it again
    on ``json``'s reading; it reads the state of the lines before (the ids
    seen, say) and leaves updating it to the caller."""

    def __init__(self, lines: Iterable[str], kind: _Kind, entry, *args, strict: bool = False):
        self.lines, self.kind, self.entry, self.args, self.strict = lines, kind, entry, args, strict
        self.header = None

    def __iter__(self) -> Iterator[tuple[int, object]]:
        for lineno, text in enumerate(map(str.strip, self.lines), start=1):
            if text and (value := _loads(text, lineno, self._line, lineno, text)) is not None:
                yield lineno, value
        if self.kind.header is not None and self.header is None:
            raise ParseError(f"missing {self.kind.header} header line")

    def _line(self, obj, lineno: int, text: str):
        """The entry's value for a record line; None for a header line."""
        if not isinstance(obj, dict):
            raise ParseError("record is not a JSON object", line=lineno)
        kind, args = self.kind, self.args
        if "_header" in obj:
            fields = obj["_header"]
            if kind.header and isinstance(fields, dict) and fields.get("kind") == kind.header:
                _check_fields(fields, kind.header_fields, (), lineno, strict=False)
                self.header = kind.read_header(fields, lineno)
            return None
        if kind.header is not None:
            if self.header is None:
                raise ParseError(f"missing {kind.header} header line", line=lineno)
            args = (self.header, *args)
        _check_fields(obj, kind.required, kind.optional, lineno, self.strict)
        return self.entry(obj, lineno, text, *args)


def _as_str(obj: dict, name: str, lineno: int) -> str:
    value = obj[name]
    if not isinstance(value, str) or not value:
        raise ParseError(f"field {name!r} must be a non-empty string", line=lineno)
    return value


def _as_names(values, what: str, lineno: int | None) -> tuple[str, ...]:
    """A JSON list of strings (dims, a manifest, tags) as a tuple."""
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ParseError(f"{what} must be a list of strings", line=lineno)
    return tuple(values)


def _as_int(obj: dict, name: str, lineno: int) -> int:
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {name!r} must be an integer", line=lineno)
    return value


_MAX_FLOAT = sys.float_info.max


def _as_number(value, name: str, lineno: int) -> float:
    """A number field's value: the one-value case of ``_numbers``, which a
    finite float or integer (not a bool) passes as it is, in 0.3 us where
    a call of ``_numbers`` took 4."""
    if type(value) in (float, int) and -_MAX_FLOAT <= value <= _MAX_FLOAT:
        return float(value)
    return float(_numbers([[value]], 1, (f"field {name!r}",), lineno)[0, 0])


def _may_hold_bool(text: str | None) -> bool:
    """Whether JSON ``text`` may hold a boolean (``None``: text unknown).
    ``struct`` packs ``true`` as 1.0, so a list of numbers needs a type
    check, which is paid only for text this cheap test lets through. A
    one-letter search runs at memory speed, and an EEG line's keys and
    numbers hold neither the ``r`` of ``true`` nor the ``f`` of ``false``: a
    16 KB EEG line is cleared in about 2 us, where looking for the words
    took 30."""
    return text is None or (
        ("r" in text or "f" in text) and ("true" in text or "false" in text)
    )


def _numbers(
    rows, width: int, what: str | tuple[str, ...], lineno: int | None, text: str | None = None
) -> np.ndarray:
    """``rows``, a JSON list of lists of ``width`` numbers, as a
    ``(len(rows), width)`` float64 array of its own, by the one number rule
    (see the module docstring); ``NaN``, an infinity and an integer beyond
    the float range are not finite. An error names ``what``, or the row at
    fault when ``what`` names each row (an EEG record's bands). ``text`` is
    the line or file the rows were read from (None: unknown).

    Valid rows cost one ``struct`` pack of each row into the array (NumPy's
    conversion would read ``"2.5"`` as 2.5 and ``null`` as NaN; one pack of
    all an EEG record's rows took 13.7 us, a pack per row 10.6, and checks
    each row's length), a look for a zero in the bytes of ``isfinite``
    (1.0 us for one row, where ``.all()`` took 2.2), a look for booleans,
    which ``struct`` packs as 1.0, only when ``text`` may hold one, and no
    search for the row at fault. A row read on its own is best
    ``flatten()``ed: a view of the array's first row took 368 bytes for six
    values, its own array 168.
    """
    try:
        out = np.empty((len(rows), width))
        fmt, size = f"{width}d", 8 * width
        for i, row in enumerate(rows):
            struct.pack_into(fmt, out, i * size, *row)
        if b"\0" not in np.isfinite(out).tobytes() and not (
            _may_hold_bool(text) and bool in map(type, chain.from_iterable(rows))
        ):
            return out
    except (TypeError, struct.error):
        pass
    per_row = isinstance(what, tuple)
    shape = f"have exactly {width} values" if per_row else f"be rows of exactly {width} values"
    if not isinstance(rows, list):
        raise ValidationError(f"{what} must {shape}", line=lineno)
    for i, row in enumerate(rows):
        name = what[i] if per_row else what
        if not isinstance(row, list) or len(row) != width:
            raise ValidationError(f"{name} must {shape}", line=lineno)
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in row):
            raise ParseError(f"{name} must contain only numbers", line=lineno)
        try:
            finite = np.isfinite(np.array(row, dtype=float)).all()
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValidationError(f"{name} must be finite", line=lineno)
    raise AssertionError("no row at fault")  # every failed check above has one


def _as_tokens(obj: dict, lineno: int) -> tuple[str, ...]:
    """A corpus or dataset line's ``tokens``: a non-empty list of non-empty strings."""
    tokens = obj["tokens"]
    if isinstance(tokens, list) and tokens and all(isinstance(t, str) and t for t in tokens):
        return tuple(tokens)
    raise ParseError("field 'tokens' must be a non-empty list of non-empty strings", line=lineno)


def _first_seen(seen: Mapping, key, what: str, lineno: int) -> None:
    """Refuse ``key``, named ``what``, if ``seen`` (each key read to its line) holds it."""
    if key in seen:
        raise ValidationError(f"duplicate {what} (first seen on line {seen[key]})", line=lineno)


def _sentence_label(task: str, label, lineno: int, also: frozenset[str] = frozenset()) -> str:
    """A label of sentence task ``task``: one of its classes, or of ``also``."""
    if not isinstance(label, str):
        raise ParseError(f"a {task} label must be a string", line=lineno)
    classes = SENTENCE_CLASSES[task]
    if label not in classes and label not in also:
        raise ValidationError(f"label {label!r} not in {classes} for task {task}", line=lineno)
    return label


def _validate_labels(task: str, tokens: Sequence[str], labels, lineno: int) -> tuple[str, ...]:
    """A corpus line's labels: BIO tags, one per token, relation types, or one sentiment."""
    if task == "ner":
        tags = _as_names(labels, "NER labels", lineno)
        if len(tags) != len(tokens):
            raise ValidationError(f"{len(tags)} tags for {len(tokens)} tokens", line=lineno)
        check_bio(tags, lineno)
        return tags
    if task == "relclass":
        relations = _as_names(labels, "relation labels", lineno)
        if not relations:
            raise ValidationError("at least one relation label required", line=lineno)
        if len(set(relations)) != len(relations):
            raise ValidationError("duplicate relation labels", line=lineno)
        return tuple(_sentence_label(task, r, lineno) for r in relations)
    return (_sentence_label(task, labels, lineno),)


_CORPUS = _Kind(("id", "tokens", "labels"))
_FIXATIONS = _Kind(("subject", "sentence_id", "seq", "word_index", "duration_ms"), ("onset_ms",))
_EEG = _Kind(("subject", "sentence_id", "seq", "bands"))


def parse_corpus(lines: Iterable[str], task: str, strict: bool = False) -> Corpus:
    """Parse ``corpus.jsonl`` content into a validated Corpus."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    seen: dict[str, int] = {}

    def entry(obj: dict, lineno: int, _text: str) -> Sentence:
        sid = _as_str(obj, "id", lineno)
        tokens = _as_tokens(obj, lineno)
        _first_seen(seen, sid, f"sentence id {sid!r}", lineno)
        return Sentence(sid, tokens, _validate_labels(task, tokens, obj["labels"], lineno))

    sentences: list[Sentence] = []
    for lineno, sentence in _Records(lines, _CORPUS, entry, strict=strict):
        seen[sentence.id] = lineno
        sentences.append(sentence)
    return Corpus(task=task, sentences=tuple(sentences))


def parse_fixations(
    lines: Iterable[str], corpus: Corpus | None = None, strict: bool = False
) -> FixationLog:
    """Parse ``fixations.jsonl`` into groups keyed by (subject, sentence_id).

    Within a group, ``seq`` must be strictly increasing in file order; when a
    corpus is supplied, sentence ids and word indices are cross-checked.
    """
    last_seq: dict[tuple[str, str], int] = {}

    def entry(obj: dict, lineno: int, _text: str) -> FixationEvent:
        subject = _as_str(obj, "subject", lineno)
        sid = _as_str(obj, "sentence_id", lineno)
        seq = _as_int(obj, "seq", lineno)
        word_index = _as_int(obj, "word_index", lineno)
        duration = _as_number(obj["duration_ms"], "duration_ms", lineno)
        if duration <= 0:
            raise ValidationError("duration_ms must be positive", line=lineno)
        if seq < 0 or word_index < 0:
            raise ValidationError("seq and word_index must be non-negative", line=lineno)
        onset = None
        if obj.get("onset_ms") is not None:
            onset = _as_number(obj["onset_ms"], "onset_ms", lineno)
        if corpus is not None:
            sentence = corpus.by_id.get(sid)
            if sentence is None:
                raise ValidationError(f"unknown sentence id {sid!r}", line=lineno)
            if word_index >= len(sentence):
                raise ValidationError(
                    f"word_index {word_index} out of range for sentence {sid!r} "
                    f"({len(sentence)} tokens)",
                    line=lineno,
                )
        key = (subject, sid)
        if key in last_seq and seq <= last_seq[key]:
            raise ValidationError(
                f"seq {seq} not increasing within (subject={subject!r}, sentence={sid!r})",
                line=lineno,
            )
        return FixationEvent(subject, sid, seq, word_index, duration, onset)

    groups: dict[tuple[str, str], list[FixationEvent]] = {}
    for _, event in _Records(lines, _FIXATIONS, entry, strict=strict):
        key = (event.subject, event.sentence_id)
        last_seq[key] = event.seq
        groups.setdefault(key, []).append(event)
    return FixationLog(groups={k: tuple(v) for k, v in groups.items()})


_Key = tuple[str, str, int]
_BAND_NAMES = tuple(f"band {band!r}" for band in BAND_ORDER)


def _eeg_entry(
    obj: dict, lineno: int, text: str, known_keys: set[_Key] | None
) -> EegFixationRecord:
    """The record on a line, given its decoded object and its text, after
    every check that needs no other record: bands, values and, given the
    keys of a fixation log, the join to it."""
    subject = _as_str(obj, "subject", lineno)
    sid = _as_str(obj, "sentence_id", lineno)
    seq = _as_int(obj, "seq", lineno)
    bands = obj["bands"]
    if not isinstance(bands, dict):
        raise ParseError("field 'bands' must be an object", line=lineno)
    missing = [b for b in BAND_ORDER if b not in bands]
    if missing:
        raise ValidationError(f"missing bands {missing}", line=lineno)
    if len(bands) != len(BAND_ORDER):
        extra = sorted(set(bands) - set(BAND_ORDER))
        raise ValidationError(f"unknown bands {extra}", line=lineno)
    matrix = _numbers([bands[band] for band in BAND_ORDER], N_ELECTRODES, _BAND_NAMES, lineno, text)
    key = (subject, sid, seq)
    # no record is both dangling and a duplicate: its first copy would
    # have been dangling too, so the order of the two checks is free
    if known_keys is not None and key not in known_keys:
        raise ValidationError(f"dangling EEG record {key}: no matching fixation", line=lineno)
    return EegFixationRecord(*key, matrix)


def iter_eeg(
    lines: Iterable[str], fixations: FixationLog | None = None, strict: bool = False
) -> Iterator[EegFixationRecord]:
    """Yield the records of ``eeg.jsonl`` in file order as they are parsed;
    each must carry all 8 bands x 105 values.

    Lines are consumed as a stream and nothing is read until the first
    record is asked for. Only the keys seen so far are kept (for the
    duplicate check), so memory is what the caller holds plus one decoded
    line. When a fixation log is supplied, every record must join to
    exactly one fixation by (subject, sentence_id, seq). An error is raised
    at its line's position, after the records before it.
    """
    known_keys: set[_Key] | None = None
    if fixations is not None:
        known_keys = {(e.subject, e.sentence_id, e.seq) for e in fixations.events()}
    seen: set[_Key] = set()
    for lineno, record in _Records(lines, _EEG, _eeg_entry, known_keys, strict=strict):
        key = record.key
        if key in seen:
            raise ValidationError(f"duplicate EEG record for {key}", line=lineno)
        seen.add(key)
        yield record


#: Where orjson's float format may not be ``repr``'s, its bytes hold an
#: exponent, ``e-`` or ``e`` and a digit (``repr`` writes ``1e+16`` and
#: ``1e-05`` where orjson writes ``1e16`` and ``0.00001``), ``0.0000`` (a
#: value below 1e-4 in fixed point, where it starts a number) or ``null``
#: (NaN or an infinity).
_EXPONENT = re.compile(rb"e[-1-9]")
_DIGITS = b"0123456789"


def _marked(data: bytes) -> bool:
    """Whether orjson's ``data`` hold an exponent, ``0.0000`` or ``null``,
    where ``json`` must render the object instead.

    ``re`` finds ``e`` and the byte after it in one scan for its literal
    first byte: on a 190-byte gaze line the whole test took 1.0 us, where
    finding each ``e`` and ``n`` with ``bytes.find`` took 4.1 and an ``in``
    test per marker 2.9. ``rfind`` scanned a 16 KB EEG line for ``0.0000``
    in 6 us, where ``in`` took 10."""
    if _EXPONENT.search(data) or b"null" in data:
        return True
    at = data.rfind(b"0.0000")
    while at >= 0:
        if at == 0 or data[at - 1] not in _DIGITS:  # not in 10.00001, say
            return True
        at = data.rfind(b"0.0000", 0, at)
    return False


def _beyond_repr_range(values: np.ndarray) -> bool:
    """Whether some value is neither zero nor of magnitude in ``[1e-4,
    1e16)``, where Python's float ``repr`` has no exponent: the values
    whose bytes ``_marked`` would find in orjson's rendering."""
    magnitude = np.abs(values)
    return not bool((((magnitude >= 1e-4) & (magnitude < 1e16)) | (magnitude == 0)).all())


def _dumps(obj, sort_keys: bool = False, values: np.ndarray | None = None) -> bytes:
    """``obj`` as compact JSON in UTF-8 by the codec's rule (see the module
    docstring): the bytes of ``json.dumps(obj, ensure_ascii=False,
    separators=(",", ":"), sort_keys=sort_keys)``, each array in ``obj`` as
    its ``tolist()``.

    The arrays in ``obj`` must be float64, integer or boolean, and its NumPy
    scalars float64: orjson writes a float32 value as its own shortest form,
    not as the float64 ``repr``, and ``json`` refuses other scalars.
    ``values``, when given, is a float64 array holding every float in
    ``obj``; its values then decide what ``_marked`` would find in the
    bytes. For a 16 KB EEG line that took 6 us, where ``_marked`` took 25.
    """
    option = orjson.OPT_SERIALIZE_NUMPY | (orjson.OPT_SORT_KEYS if sort_keys else 0)
    try:
        data = orjson.dumps(obj, option=option)
        if not (_marked(data) if values is None else _beyond_repr_range(values)):
            return data
    except orjson.JSONEncodeError:
        pass
    text = json.dumps(
        obj,
        ensure_ascii=False,
        separators=_JSON_SEPARATORS,
        sort_keys=sort_keys,
        default=np.ndarray.tolist,  # a TypeError for any other type, as json wants
    )
    return text.encode("utf-8")


def _lines_text(lines: list[bytes]) -> str:
    """``lines`` as text, each ended by ``"\\n"``."""
    return b"\n".join([*lines, b""]).decode("utf-8")


def _printed(obj) -> str:
    """``obj`` as the CLI prints a one-line JSON record: ``json.dumps(obj,
    sort_keys=True)``, ASCII with spaced separators, which orjson cannot
    write."""
    return json.dumps(obj, sort_keys=True)


def _header(kind: str, extra: dict | None = None, **fields) -> dict:
    """A header line's object: ``kind``, then ``fields``, then ``extra`` (the
    CLI's provenance, say), in that key order."""
    return {"_header": {"kind": kind, **fields, **(extra or {})}}


def serialize_corpus(corpus: Corpus) -> str:
    """Render a corpus in canonical jsonl form (one sentence per line)."""
    lines = []
    for sentence in corpus.sentences:
        labels: object = list(sentence.labels)
        if corpus.task in ("sentiment2", "sentiment3"):
            labels = sentence.labels[0]
        lines.append(
            _dumps({"id": sentence.id, "tokens": list(sentence.tokens), "labels": labels})
        )
    return _lines_text(lines)


def serialize_fixations(log: FixationLog) -> str:
    lines = []
    for group in log.groups.values():
        for e in group:
            rec = {
                "subject": e.subject,
                "sentence_id": e.sentence_id,
                "seq": e.seq,
                "word_index": e.word_index,
                "duration_ms": e.duration_ms,
            }
            if e.onset_ms is not None:
                rec["onset_ms"] = e.onset_ms
            lines.append(_dumps(rec))
    return _lines_text(lines)


def _eeg_line(r: EegFixationRecord) -> bytes:
    """``r``'s line in canonical jsonl form, with its newline, as UTF-8."""
    key = {"subject": r.subject, "sentence_id": r.sentence_id, "seq": r.seq}
    # with an integer seq, every float of the line is in the matrix
    values = r.matrix if type(r.seq) is int else None
    line = _dumps({**key, "bands": dict(zip(BAND_ORDER, r.matrix))}, values=values)
    return line + b"\n"


def missing_trials(corpus: Corpus, log: FixationLog) -> dict[str, tuple[str, ...]]:
    """Sentences each subject never fixated (skipped trials), per subject."""
    out: dict[str, tuple[str, ...]] = {}
    for subject in log.subjects:
        absent = tuple(
            s.id for s in corpus.sentences if (subject, s.id) not in log.groups
        )
        if absent:
            out[subject] = absent
    return out


def validation_report(
    corpus: Corpus, log: FixationLog | None = None, eeg_records: int | None = None
) -> dict:
    """Summary counts plus flagged gaps; inputs are assumed already validated.
    ``eeg_records`` counts the records of an EEG file, which (with a log)
    join one fixation each, so the others have no EEG."""
    report: dict = {
        "task": corpus.task,
        "sentences": len(corpus),
        "tokens": sum(len(s) for s in corpus.sentences),
    }
    if log is not None:
        report["subjects"] = list(log.subjects)
        report["fixations"] = len(log)
        report["missing_trials"] = {
            subject: list(sids) for subject, sids in missing_trials(corpus, log).items()
        }
    if eeg_records is not None:
        report["eeg_records"] = eeg_records
        if log is not None:
            report["fixations_without_eeg"] = len(log) - eeg_records
    return report
