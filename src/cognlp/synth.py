"""Deterministic synthetic corpora with optional planted feature effects.

The generator produces a corpus, a fixation log, and matching fixation-locked
EEG records that pass every parser validation. A planted effect shifts the
first-pass fixation duration (and optionally one EEG band) of "affected"
tokens: entity tokens for NER, tokens of positive sentences for sentiment,
tokens of sentences carrying the first relation type for relation
classification. The affected token set is returned so tests can verify that
downstream stages recover the effect.

The EEG records are not held: each record's matrix is drawn once, at its
place in the stream, and the record is handed to the caller's sink at once.
"""

from __future__ import annotations

import math
import string
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .errors import ConfigError
from .ingest import (
    BAND_ORDER,
    N_ELECTRODES,
    RELATION_TYPES,
    SENTENCE_CLASSES,
    TASKS,
    Corpus,
    EegFixationRecord,
    FixationEvent,
    FixationLog,
    Sentence,
)

#: Baseline band amplitudes in microvolts, theta1..gamma2.
BASE_AMPLITUDES = (5.0, 4.5, 4.0, 3.5, 3.0, 2.5, 2.0, 1.5)


@dataclass(frozen=True)
class PlantedEffect:
    """Mean shifts applied to affected tokens' signals."""

    delta_trt_ms: float = 0.0
    eeg_band: str | None = None
    delta_eeg_uv: float = 0.0

    def __post_init__(self) -> None:
        if self.eeg_band is not None and self.eeg_band not in BAND_ORDER:
            raise ConfigError(f"planted EEG band {self.eeg_band!r} is not one of {BAND_ORDER}")
        # a non-finite shift writes durations or band values no parser accepts
        for name, shift in (("TRT", self.delta_trt_ms), ("EEG", self.delta_eeg_uv)):
            if not math.isfinite(shift):
                raise ConfigError(f"planted {name} shift must be finite, got {shift}")
        if self.eeg_band is None and self.delta_eeg_uv != 0:
            raise ConfigError(
                f"planted EEG shift {self.delta_eeg_uv} needs an EEG band to shift"
            )


@dataclass(frozen=True)
class SynthSpec:
    task: str = "ner"
    n_sentences: int = 100
    n_subjects: int = 3
    vocab_size: int = 400
    entity_vocab_size: int = 120
    sentence_length: tuple[int, int] = (5, 12)
    # "positional": entity spans land on ordinary words, so token identity
    # carries no entity signal; "lexical": spans draw from a dedicated
    # capitalized vocabulary, so entity-hood generalizes across occurrences.
    entity_mode: str = "positional"
    entity_rate: float = 0.18
    entity_types: tuple[str, ...] = ("PER", "LOC", "ORG")
    base_duration_ms: float = 180.0
    duration_sd_ms: float = 25.0
    refix_prob: float = 0.12
    regression_prob: float = 0.08
    skip_prob: float = 0.10
    short_fix_prob: float = 0.05
    eeg_noise_sd: float = 1.0
    planted: PlantedEffect = field(default_factory=PlantedEffect)

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.entity_mode not in ("positional", "lexical"):
            raise ConfigError(f"unknown entity_mode {self.entity_mode!r}")
        if self.n_sentences < 1 or self.n_subjects < 1:
            raise ConfigError("need at least one sentence and one subject")
        if self.vocab_size < 1:
            raise ConfigError(f"vocabulary size must be >= 1, got {self.vocab_size}")
        if self.task == "ner" and self.entity_mode == "lexical" and self.entity_vocab_size < 1:
            raise ConfigError(
                f"lexical entities need an entity vocabulary size >= 1, got {self.entity_vocab_size}"
            )
        if not 1 <= self.sentence_length[0] <= self.sentence_length[1]:
            raise ConfigError(
                f"sentence lengths need 1 <= min <= max, got {self.sentence_length}"
            )
        if not 0 <= self.entity_rate <= 1:
            raise ConfigError(f"entity rate must be in [0, 1], got {self.entity_rate}")


@dataclass(frozen=True)
class SynthResult:
    """What ``generate_synthetic`` made, apart from the EEG records it
    handed to its sink."""

    corpus: Corpus
    fixations: FixationLog
    meta: dict


def _make_words(rng: np.random.Generator, count: int, capitalize: bool) -> list[str]:
    letters = np.array(list(string.ascii_lowercase))
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        length = int(rng.integers(3, 9))
        word = "".join(rng.choice(letters, size=length))
        if capitalize:
            word = word.capitalize()
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _plan_spans(
    rng: np.random.Generator, length: int, rate: float, types: tuple[str, ...]
) -> list[tuple[int, int, str]]:
    spans = []
    p = 0
    while p < length:
        if rng.random() < rate:
            span_len = 2 if (rng.random() < 0.4 and p + 1 < length) else 1
            spans.append((p, p + span_len, types[int(rng.integers(len(types)))]))
            p += span_len + 1  # keep spans non-adjacent
        else:
            p += 1
    return spans


def generate_synthetic(
    spec: SynthSpec,
    seed: int,
    eeg_sink: Callable[[EegFixationRecord], object] | None = None,
) -> SynthResult:
    """Build (corpus, fixations) deterministically from spec and seed.

    Each fixation's EEG record is passed to ``eeg_sink`` as its matrix is
    drawn, in fixation order, and dropped after; without a sink it is drawn
    and dropped, so the corpus and the fixations are the same either way.
    """
    rng = seeding.stream(seed, "synth")
    vocab = _make_words(rng, spec.vocab_size, capitalize=False)
    entity_vocab = _make_words(rng, spec.entity_vocab_size, capitalize=True)
    lo, hi = spec.sentence_length

    sentences: list[Sentence] = []
    affected: set[tuple[str, int]] = set()
    for i in range(spec.n_sentences):
        sid = f"s{i:04d}"
        length = int(rng.integers(lo, hi + 1))
        tokens = [vocab[int(rng.integers(len(vocab)))] for _ in range(length)]
        if spec.task == "ner":
            tags = ["O"] * length
            for start, end, etype in _plan_spans(
                rng, length, spec.entity_rate, spec.entity_types
            ):
                for p in range(start, end):
                    tags[p] = ("B-" if p == start else "I-") + etype
                    if spec.entity_mode == "lexical":
                        tokens[p] = entity_vocab[int(rng.integers(len(entity_vocab)))]
                    affected.add((sid, p))
            labels = tuple(tags)
        elif spec.task == "relclass":
            n_labels = 1 + int(rng.random() < 0.3)
            chosen = rng.choice(len(RELATION_TYPES), size=n_labels, replace=False)
            labels = tuple(RELATION_TYPES[int(c)] for c in sorted(chosen))
            if RELATION_TYPES[0] in labels:
                affected.update((sid, p) for p in range(length))
        else:
            allowed = SENTENCE_CLASSES[spec.task]
            labels = (allowed[int(rng.integers(len(allowed)))],)
            if labels[0] == "pos":
                affected.update((sid, p) for p in range(length))
        sentences.append(Sentence(id=sid, tokens=tuple(tokens), labels=labels))
    corpus = Corpus(task=spec.task, sentences=tuple(sentences))

    planted = spec.planted
    band_index = BAND_ORDER.index(planted.eeg_band) if planted.eeg_band else None
    base = np.asarray(BASE_AMPLITUDES)[:, None]
    groups: dict[tuple[str, str], tuple[FixationEvent, ...]] = {}

    def emit(subject: str, sid: str, seq: int, w: int, duration: float) -> FixationEvent:
        # drawn with or without a sink, so that the later draws are the same
        noise = rng.normal(0.0, spec.eeg_noise_sd, size=(len(BAND_ORDER), N_ELECTRODES))
        if eeg_sink is not None:
            amplitudes = base + noise
            if band_index is not None and (sid, w) in affected:
                amplitudes[band_index] += planted.delta_eeg_uv
            eeg_sink(EegFixationRecord(subject, sid, seq, amplitudes))
        return FixationEvent(subject, sid, seq, w, float(duration))

    for j in range(spec.n_subjects):
        subject = f"subj{j:02d}"
        for sentence in sentences:
            events: list[FixationEvent] = []
            seq = 0
            for w in range(len(sentence)):
                if rng.random() < spec.skip_prob:
                    continue
                duration = rng.normal(spec.base_duration_ms, spec.duration_sd_ms)
                if (sentence.id, w) in affected:
                    duration += planted.delta_trt_ms
                duration = max(duration, 1.0)
                events.append(emit(subject, sentence.id, seq, w, duration))
                seq += 1
                if rng.random() < spec.short_fix_prob:
                    # too short to count as reading; exercised by the filter
                    events.append(
                        emit(subject, sentence.id, seq, w, rng.uniform(40.0, 95.0))
                    )
                    seq += 1
                if rng.random() < spec.refix_prob:
                    refix = max(rng.normal(spec.base_duration_ms, spec.duration_sd_ms), 1.0)
                    events.append(emit(subject, sentence.id, seq, w, refix))
                    seq += 1
                if w >= 2 and rng.random() < spec.regression_prob:
                    target = int(rng.integers(0, w))
                    back = max(rng.normal(spec.base_duration_ms, spec.duration_sd_ms), 1.0)
                    events.append(emit(subject, sentence.id, seq, target, back))
                    seq += 1
            if events:
                groups[(subject, sentence.id)] = tuple(events)

    meta = {
        "task": spec.task,
        "seed": seed,
        "affected": sorted(affected),
        "delta_trt_ms": planted.delta_trt_ms,
        "eeg_band": planted.eeg_band,
        "delta_eeg_uv": planted.delta_eeg_uv,
        "n_sentences": spec.n_sentences,
        "n_subjects": spec.n_subjects,
    }
    return SynthResult(corpus=corpus, fixations=FixationLog(groups=groups), meta=meta)
