"""Word-level EEG band features locked to reading fixations.

Each fixation carries 8 frequency-band vectors of 105 electrode amplitudes.
Word features are taken either from the first fixation on the word (``ffd``
window) or as a duration-weighted mean over all of its fixations (``trt``
window), then optionally reduced across electrodes or bands.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ValidationError, warn
from .ingest import BAND_ORDER, N_ELECTRODES, EegFixationRecord, FixationEvent
from .ingest import Corpus, FixationLog, _dumps, _header, _lines_text
from .gaze import MIN_FIXATION_MS, check_min_duration, filter_fixations
from .tables import FeatureTable, read_table

WINDOW_MODES = ("ffd", "trt")
REDUCTIONS = ("electrode_mean", "band_mean", "none")


def word_eeg(
    events: Sequence[FixationEvent],
    records: Iterable[EegFixationRecord],
    mode: str = "ffd",
    weighted: bool = True,
    strict: bool = False,
) -> dict[int, np.ndarray]:
    """Per-word (8, 105) band matrices for one (subject, sentence) trial.

    ``events`` must already be duration-filtered and seq-ordered, and
    ``records`` are the same trial's EEG records. ``ffd``
    selects the matrix of the word's first fixation; ``trt`` averages over
    all of the word's fixations weighted by duration (set ``weighted=False``
    for a plain mean). Words never fixated are absent from the result. A
    fixated word whose record is missing raises under strict mode and is
    skipped with a warning otherwise.
    """
    if mode not in WINDOW_MODES:
        raise ConfigError(f"unknown window mode {mode!r}; expected {WINDOW_MODES}")
    by_seq = {r.seq: r.matrix for r in records}
    per_word: dict[int, list[FixationEvent]] = {}
    for e in events:
        per_word.setdefault(e.word_index, []).append(e)

    out: dict[int, np.ndarray] = {}
    for w in sorted(per_word):
        fixations = per_word[w]
        if mode == "ffd":
            first = fixations[0]
            matrix = by_seq.get(first.seq)
            if matrix is None:
                if strict:
                    raise ValidationError(
                        f"no EEG record for first fixation seq={first.seq} on word {w}"
                    )
                warn(__name__, "skipping word %d: no EEG record for seq %d", w, first.seq)
                continue
            out[w] = matrix
            continue
        total = np.zeros((len(BAND_ORDER), N_ELECTRODES))
        weight_sum = 0.0
        for e in fixations:
            matrix = by_seq.get(e.seq)
            if matrix is None:
                if strict:
                    raise ValidationError(
                        f"no EEG record for fixation seq={e.seq} on word {w}"
                    )
                warn(__name__, "skipping fixation seq %d on word %d: no EEG record", e.seq, w)
                continue
            weight = e.duration_ms if weighted else 1.0
            total += weight * matrix
            weight_sum += weight
        if weight_sum > 0:
            out[w] = total / weight_sum
    return out


def reduce_eeg(matrix: np.ndarray, reduction: str) -> np.ndarray:
    """Collapse a (8, 105) band matrix to the configured feature vector.

    ``electrode_mean`` averages electrodes per band (8 values, band order),
    ``band_mean`` averages bands per electrode (105 values), and ``none``
    concatenates band-major (840 values).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(BAND_ORDER), N_ELECTRODES):
        raise ValidationError(
            f"expected ({len(BAND_ORDER)}, {N_ELECTRODES}) matrix, got {matrix.shape}"
        )
    if reduction == "electrode_mean":
        return matrix.mean(axis=1)
    if reduction == "band_mean":
        return matrix.mean(axis=0)
    if reduction == "none":
        return matrix.reshape(-1)
    raise ConfigError(f"unknown reduction {reduction!r}; expected {REDUCTIONS}")


def reduction_dims(reduction: str) -> tuple[str, ...]:
    if reduction == "electrode_mean":
        return BAND_ORDER
    if reduction == "band_mean":
        return tuple(f"e{i:03d}" for i in range(N_ELECTRODES))
    if reduction == "none":
        return tuple(
            f"{band}:e{i:03d}" for band in BAND_ORDER for i in range(N_ELECTRODES)
        )
    raise ConfigError(f"unknown reduction {reduction!r}; expected {REDUCTIONS}")


def eeg_table(
    corpus: Corpus,
    log: FixationLog,
    records: Iterable[EegFixationRecord],
    mode: str = "ffd",
    reduction: str = "electrode_mean",
    weighted: bool = True,
    min_duration_ms: float = MIN_FIXATION_MS,
    strict: bool = False,
) -> FeatureTable:
    """Per-(subject, sentence, word) reduced EEG features over a corpus.

    ``records`` is consumed once, as a stream (``ingest.iter_eeg``), in any
    order. A trial is reduced as soon as every fixation it keeps after the
    duration filter has its record, and its records are dropped, so memory
    is the matrices of the trials not yet complete: one trial's when each
    trial's records are contiguous, as ``synth`` writes them. Records of
    filtered fixations, of unknown trials or of a trial already complete are
    not kept; a repeated key keeps its first record.

    The trials still incomplete when the stream ends, and the check for
    unknown sentences, follow in ``log.groups`` order; only they can warn or
    fail, so the rows, the warnings and the first error are those of a
    table built after reading every record. An unknown ``mode`` or
    ``reduction``, or a threshold ``check_min_duration`` rejects, is an
    error before the first record is read.
    """
    check_min_duration(min_duration_ms)
    dims = reduction_dims(reduction)
    if mode not in WINDOW_MODES:
        raise ConfigError(f"unknown window mode {mode!r}; expected {WINDOW_MODES}")
    kept = {
        trial: filter_fixations(group, min_duration_ms) for trial, group in log.groups.items()
    }
    # the seqs each incomplete trial still needs, and the records it has
    needed = {
        trial: {e.seq for e in events}
        for trial, events in kept.items()
        if events and trial[1] in corpus.by_id
    }
    held: dict[tuple[str, str], dict[int, EegFixationRecord]] = {}
    reduced: dict[tuple[str, str], dict[int, np.ndarray]] = {}

    def reduce_trial(trial: tuple[str, str], trial_records: Iterable[EegFixationRecord]):
        matrices = word_eeg(kept[trial], trial_records, mode, weighted=weighted, strict=strict)
        return {w: reduce_eeg(matrix, reduction) for w, matrix in matrices.items()}

    for r in records:
        trial = (r.subject, r.sentence_id)
        need = needed.get(trial)
        if need is None or r.seq not in need:
            continue
        got = held.setdefault(trial, {})
        got.setdefault(r.seq, r)
        if len(got) == len(need):
            del needed[trial]
            reduced[trial] = reduce_trial(trial, held.pop(trial).values())

    rows: dict[tuple, np.ndarray] = {}
    for trial in log.groups:
        subject, sid = trial
        if sid not in corpus.by_id:
            raise ValidationError(f"fixations reference unknown sentence {sid!r}")
        vectors = reduced.pop(trial, None)
        if vectors is None:
            vectors = reduce_trial(trial, held.pop(trial, {}).values())
        for w, vector in vectors.items():
            rows[(subject, sid, w)] = vector
    return FeatureTable(dims=dims, rows=rows, subject_keyed=True)


def write_eeg_features(
    table: FeatureTable, mode: str, reduction: str, header_extra: dict | None = None
) -> str:
    header = _header(
        "eeg_features", header_extra, dims=list(table.dims), mode=mode, reduction=reduction
    )
    lines = [_dumps(header)]
    for (subject, sid, w), vec in table.rows.items():
        rec = {
            "subject": subject,
            "sentence_id": sid,
            "word_index": w,
            "mode": mode,
            "reduction": reduction,
            "values": np.asarray(vec, dtype=float),
        }
        lines.append(_dumps(rec))
    return _lines_text(lines)


def read_eeg_features(lines: Iterable[str], *, strict: bool = False) -> FeatureTable:
    """Read a file written by ``write_eeg_features``: an ``eeg_features``
    header with the dims, then one row per (subject, sentence, word); the
    header's ``mode`` and ``reduction``, which each row repeats, are not read."""
    return read_table(
        lines, "eeg_features", subject_keyed=True, optional=("mode", "reduction"), strict=strict
    )
