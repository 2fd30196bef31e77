"""Subject averaging, corpus normalization, discretization, type lexicons."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, StateError, ValidationError
from .ingest import Corpus, _as_int, _as_names, _numbers
from .tables import FeatureTable


@dataclass(frozen=True)
class SubjectAggregation:
    """How per-subject feature values collapse to one value per token."""

    mode: str  # "single" | "mean_all" | "mean_subset"
    subjects: tuple[str, ...] = ()

    @classmethod
    def single(cls, subject: str) -> "SubjectAggregation":
        return cls(mode="single", subjects=(subject,))

    @classmethod
    def mean_all(cls) -> "SubjectAggregation":
        return cls(mode="mean_all")

    @classmethod
    def mean_subset(cls, subjects: Sequence[str]) -> "SubjectAggregation":
        if not subjects:
            raise ConfigError("mean_subset requires a non-empty subject list")
        repeated = sorted({s for s in subjects if subjects.count(s) > 1})
        if repeated:
            # a repeated subject would count twice in every mean
            raise ConfigError(f"subjects repeated in the subset: {repeated}")
        return cls(mode="mean_subset", subjects=tuple(subjects))

    @classmethod
    def parse(cls, text: str) -> "SubjectAggregation":
        """Parse CLI syntax: ``mean``, ``single:ID``, or ``subset:ID,ID,...``."""
        if text == "mean":
            return cls.mean_all()
        if text.startswith("single:"):
            return cls.single(text.split(":", 1)[1])
        if text.startswith("subset:"):
            subjects = [s for s in text.split(":", 1)[1].split(",") if s]
            return cls.mean_subset(subjects)
        raise ConfigError(f"cannot parse aggregation {text!r}")


def average_subjects(table: FeatureTable, agg: SubjectAggregation) -> FeatureTable:
    """Collapse a subject-level table to one vector per (sentence, word).

    The mean runs over the selected subjects that have a trial for the
    sentence; within a trial, words the subject never fixated contribute
    zeros. Sentences no selected subject read are absent from the output.
    """
    if not table.subject_keyed:
        raise ValidationError("average_subjects needs a subject-level table")
    known = table.subjects()
    if agg.mode == "mean_all":
        selected = known
    else:
        unknown = set(agg.subjects) - set(known)
        if unknown:
            raise ConfigError(f"unknown subjects {sorted(unknown)}")
        selected = agg.subjects
    width = len(table.dims)
    trials: set[tuple[str, str]] = set()
    token_keys: dict[tuple[str, int], None] = {}
    for (s, sid, w) in table.rows:
        trials.add((s, sid))
        if s in selected:
            token_keys[(sid, w)] = None
    absent = np.zeros(width)
    rows: dict[tuple, np.ndarray] = {}
    for sid, w in sorted(token_keys):
        with_trial = [s for s in selected if (s, sid) in trials]
        if not with_trial:
            continue
        stacked = np.stack([table.rows.get((s, sid, w), absent) for s in with_trial])
        rows[(sid, w)] = stacked.mean(axis=0)
    return FeatureTable(dims=table.dims, rows=rows, subject_keyed=False)


@dataclass
class NormalizationStats:
    """Per-dimension min/max observed on the data the stats were fit on."""

    mins: np.ndarray
    maxs: np.ndarray

    def to_json(self) -> dict:
        return {"min": [float(v) for v in self.mins], "max": [float(v) for v in self.maxs]}

    @classmethod
    def from_json(cls, obj: dict) -> "NormalizationStats":
        width = len(obj["min"])
        return cls(*_numbers([obj["min"], obj["max"]], width, ("field 'min'", "field 'max'"), None))


def fit_normalization(vectors: Sequence[np.ndarray] | np.ndarray) -> NormalizationStats:
    """Min/max per dimension of a list of vectors or an ``(N, dims)`` array;
    fit on training data only to avoid leakage."""
    data = np.asarray(vectors, dtype=float)
    if not len(data):
        raise ValidationError("cannot fit normalization on an empty collection")
    return NormalizationStats(mins=data.min(axis=0), maxs=data.max(axis=0))


def apply_normalization(stats: NormalizationStats | None, v: np.ndarray) -> np.ndarray:
    """Map to [0, 1] by the fitted range, clipping; constant dims map to 0."""
    if stats is None:
        raise StateError("apply_normalization called before fit")
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != stats.mins.shape[0]:
        raise ValidationError(
            f"value has {v.shape[-1]} dims, stats have {stats.mins.shape[0]}"
        )
    span = stats.maxs - stats.mins
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (v - stats.mins) / span
    out = np.where(span > 0, np.clip(scaled, 0.0, 1.0), 0.0)
    return out


def _check_bins(n_bins: int) -> None:
    if n_bins < 2:
        raise ConfigError(f"n_bins must be >= 2, got {n_bins}")


def discretize(v, n_bins: int = 10):
    """Bin a normalized value: ``min(floor(v * n_bins), n_bins - 1)``."""
    _check_bins(n_bins)
    arr = np.asarray(v, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("values must lie in [0, 1]; normalize first")
    bins = np.minimum(np.floor(arr * n_bins).astype(int), n_bins - 1)
    if np.isscalar(v) or getattr(v, "ndim", 1) == 0:
        return int(bins)
    return bins


@dataclass
class CoverageReport:
    n_tokens: int
    n_unknown: int

    @property
    def unknown_pct(self) -> float:
        return 100.0 * self.n_unknown / self.n_tokens if self.n_tokens else 0.0


#: A lexicon's one policy for a word it lacks: zero features and the unknown
#: flag set (see ``apply_type_lexicon``).
UNKNOWN_POLICY = "zeros+flag"


@dataclass
class TypeLexicon:
    """Lower-cased word type -> feature vector averaged over its occurrences."""

    dims: tuple[str, ...]
    entries: dict[str, tuple[np.ndarray, int]] = field(default_factory=dict)

    def __contains__(self, word_type: str) -> bool:
        return word_type in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "entries": {
                t: {"values": [float(x) for x in vec], "count": count}
                for t, (vec, count) in sorted(self.entries.items())
            },
            "unknown_policy": UNKNOWN_POLICY,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TypeLexicon":
        dims = _as_names(obj["dims"], "lexicon 'dims'", None)
        entries = {
            t: (
                _numbers([e["values"]], len(dims), ("field 'values'",), None).flatten(),
                _as_int(e, "count", None),
            )
            for t, e in obj["entries"].items()
        }
        policy = obj.get("unknown_policy", UNKNOWN_POLICY)
        if policy != UNKNOWN_POLICY:
            raise ValidationError(f"unknown_policy must be {UNKNOWN_POLICY!r}, got {policy!r}")
        return cls(dims=dims, entries=entries)


def build_type_lexicon(corpus: Corpus, table: FeatureTable) -> TypeLexicon:
    """Average each lower-cased type's vectors over all its token occurrences.

    Tokens without a feature row (e.g. sentences nobody read) are skipped.
    """
    if table.subject_keyed:
        raise ValidationError("build_type_lexicon needs a token-level table")
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for sentence in corpus.sentences:
        for w, token in enumerate(sentence.tokens):
            vec = table.rows.get((sentence.id, w))
            if vec is None:
                continue
            key = token.lower()
            if key in sums:
                sums[key] = sums[key] + vec
                counts[key] += 1
            else:
                sums[key] = vec.astype(float).copy()
                counts[key] = 1
    entries = {t: (sums[t] / counts[t], counts[t]) for t in sums}
    return TypeLexicon(dims=table.dims, entries=entries)


def apply_type_lexicon(
    lexicon: TypeLexicon, corpus: Corpus
) -> tuple[FeatureTable, CoverageReport]:
    """Assign each token its type vector, or the unknown vector if absent.

    The output gains one extra ``unknown_flag`` dimension: 0 for in-lexicon
    tokens, 1 (with zero features) for out-of-lexicon tokens.
    """
    dims = lexicon.dims + ("unknown_flag",)
    width = len(lexicon.dims)
    rows: dict[tuple, np.ndarray] = {}
    n_tokens = n_unknown = 0
    for sentence in corpus.sentences:
        for w, token in enumerate(sentence.tokens):
            n_tokens += 1
            entry = lexicon.entries.get(token.lower())
            if entry is None:
                n_unknown += 1
                vec = np.zeros(width + 1)
                vec[-1] = 1.0
            else:
                vec = np.concatenate([entry[0], [0.0]])
            rows[(sentence.id, w)] = vec
    return (
        FeatureTable(dims=dims, rows=rows, subject_keyed=False),
        CoverageReport(n_tokens=n_tokens, n_unknown=n_unknown),
    )


def best_subjects(dev_scores: Mapping[str, float], k: int = 5) -> tuple[str, ...]:
    """Top-k subjects by downstream dev score; ties break on subject name."""
    ranked = sorted(dev_scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(subject for subject, _ in ranked[:k])
