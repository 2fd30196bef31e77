"""Word-level reading measures computed from ordered fixation sequences.

Measures per word:

* NFIX -- number of fixations landing on the word
* FFD  -- duration of the first fixation on the word
* GD   -- summed duration of the first-pass run of consecutive fixations on
          the word, before the eye first leaves it
* TRT  -- summed duration of all fixations on the word
* GPT  -- summed duration of all fixations from the first fixation on the
          word until the eye first moves past it to the right, including
          regressions to earlier words; if the eye never moves past the word,
          the window extends to the end of the trial
* MFD  -- TRT / NFIX (0 for never-fixated words)

Sub-100 ms fixations are excluded before any measure is computed, since such
glances are too short to reflect linguistic processing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .aggregate import SubjectAggregation, average_subjects
from .errors import ConfigError, ValidationError
from .ingest import Corpus, FixationEvent, FixationLog
from .ingest import _Kind, _Records, _as_int, _as_number, _as_str, _dumps, _header, _lines_text
from .tables import FeatureTable

GAZE_FEATURES = ("NFIX", "FFD", "GD", "TRT", "GPT", "MFD")
MIN_FIXATION_MS = 100.0


@dataclass(frozen=True)
class WordGazeFeatures:
    nfix: int
    ffd: float
    gd: float
    trt: float
    gpt: float
    mfd: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.nfix, self.ffd, self.gd, self.trt, self.gpt, self.mfd], dtype=float
        )


def check_min_duration(min_duration_ms: float) -> None:
    """A threshold of ``nan`` or ``inf`` ms would drop every fixation."""
    if not 0 <= min_duration_ms < math.inf:
        raise ConfigError(
            f"minimum fixation duration must be finite and >= 0 ms, got {min_duration_ms}"
        )


def filter_fixations(
    events: Sequence[FixationEvent], min_duration_ms: float = MIN_FIXATION_MS
) -> tuple[FixationEvent, ...]:
    """Drop fixations shorter than the threshold, preserving order and seq."""
    return tuple(e for e in events if e.duration_ms >= min_duration_ms)


def compute_word_gaze(
    events: Sequence[FixationEvent],
    sentence_length: int,
    strict: bool = False,
    min_duration_ms: float = MIN_FIXATION_MS,
) -> list[WordGazeFeatures]:
    """Single pass over a filtered, seq-ordered trial; one record per word.

    Under strict mode, events below the duration threshold are rejected
    (they should have been filtered); otherwise they are computed as given.
    """
    if sentence_length <= 0:
        raise ValidationError("sentence_length must be positive")
    prev_seq = None
    nfix = [0] * sentence_length
    ffd = [0.0] * sentence_length
    gd = [0.0] * sentence_length
    trt = [0.0] * sentence_length
    gpt = [0.0] * sentence_length
    gd_open = [False] * sentence_length  # first-pass run still extending
    gpt_open = [False] * sentence_length  # go-past window not yet closed

    for e in events:
        if prev_seq is not None and e.seq <= prev_seq:
            raise ValidationError(f"events not ordered by seq (seq {e.seq})")
        prev_seq = e.seq
        if strict and e.duration_ms < min_duration_ms:
            raise ValidationError(
                f"unfiltered {e.duration_ms} ms fixation under strict mode"
            )
        w = e.word_index
        if w >= sentence_length:
            raise ValidationError(
                f"word_index {w} out of range for {sentence_length} words"
            )
        for u in range(sentence_length):
            # moving right of u closes its go-past window (before adding);
            # any move off u ends its first-pass run
            if gpt_open[u] and w > u:
                gpt_open[u] = False
            if gd_open[u] and w != u:
                gd_open[u] = False
        if nfix[w] == 0:
            ffd[w] = e.duration_ms
            gd[w] = e.duration_ms
            gd_open[w] = True
            gpt_open[w] = True
        elif gd_open[w]:
            gd[w] += e.duration_ms
        nfix[w] += 1
        trt[w] += e.duration_ms
        for u in range(sentence_length):
            if gpt_open[u]:
                gpt[u] += e.duration_ms

    return [
        WordGazeFeatures(
            nfix=nfix[w],
            ffd=ffd[w],
            gd=gd[w],
            trt=trt[w],
            gpt=gpt[w],
            mfd=trt[w] / nfix[w] if nfix[w] else 0.0,
        )
        for w in range(sentence_length)
    ]


def gaze_table(
    corpus: Corpus,
    log: FixationLog,
    min_duration_ms: float = MIN_FIXATION_MS,
    strict: bool = False,
) -> FeatureTable:
    """Per-(subject, sentence, word) gaze features over a whole corpus.

    Every word of every read sentence gets a row; never-fixated words get
    all zeros. Sentences a subject skipped entirely produce no rows.
    """
    check_min_duration(min_duration_ms)
    rows: dict[tuple, np.ndarray] = {}
    for (subject, sid), group in log.groups.items():
        sentence = corpus.by_id.get(sid)
        if sentence is None:
            raise ValidationError(f"fixations reference unknown sentence {sid!r}")
        kept = filter_fixations(group, min_duration_ms)
        feats = compute_word_gaze(
            kept, len(sentence), strict=strict, min_duration_ms=min_duration_ms
        )
        for w, f in enumerate(feats):
            rows[(subject, sid, w)] = f.as_array()
    return FeatureTable(dims=GAZE_FEATURES, rows=rows, subject_keyed=True)


def fixation_probability(table: FeatureTable, agg: SubjectAggregation) -> FeatureTable:
    """Fraction of the selected subjects that fixated each word at least once:
    the subject average of an ``NFIX >= 1`` indicator.

    As in ``average_subjects``, only subjects with a trial for the sentence
    count; subjects that skipped the sentence do not dilute the estimate.
    """
    nfix = table.dim_index("NFIX")
    fixated = {key: (vec[nfix : nfix + 1] >= 1).astype(float) for key, vec in table.rows.items()}
    indicator = FeatureTable(dims=("FIXP",), rows=fixated, subject_keyed=table.subject_keyed)
    return average_subjects(indicator, agg)


def write_gaze_features(table: FeatureTable, header_extra: dict | None = None) -> str:
    """Serialize a subject-level gaze table to its jsonl interchange form."""
    if tuple(table.dims) != GAZE_FEATURES:
        raise ValidationError(f"expected gaze dims {GAZE_FEATURES}, got {table.dims}")
    lines = [_dumps(_header("gaze_features", header_extra, dims=list(GAZE_FEATURES)))]
    for (subject, sid, w), vec in table.rows.items():
        rec = {
            "subject": subject,
            "sentence_id": sid,
            "word_index": w,
            "NFIX": int(vec[0]),
            "FFD": float(vec[1]),
            "GD": float(vec[2]),
            "TRT": float(vec[3]),
            "GPT": float(vec[4]),
            "MFD": float(vec[5]),
        }
        lines.append(_dumps(rec))
    return _lines_text(lines)


_GAZE = _Kind(("subject", "sentence_id", "word_index") + GAZE_FEATURES)


def _gaze_row(obj: dict, lineno: int, _text: str) -> tuple[tuple, np.ndarray]:
    """A gaze file line's key and measures."""
    key = (
        _as_str(obj, "subject", lineno),
        _as_str(obj, "sentence_id", lineno),
        _as_int(obj, "word_index", lineno),
    )
    return key, np.array([_as_number(obj[name], name, lineno) for name in GAZE_FEATURES])


def read_gaze_features(lines: Iterable[str], *, strict: bool = False) -> FeatureTable:
    """Read a file written by ``write_gaze_features``: one row per (subject,
    sentence, word) with a number for each measure; headers are skipped."""
    rows = dict(row for _, row in _Records(lines, _GAZE, _gaze_row, strict=strict))
    return FeatureTable(dims=GAZE_FEATURES, rows=rows, subject_keyed=True)
