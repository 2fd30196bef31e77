"""Metrics, paired permutation significance testing, and report generation.

The permutation test is paired approximate randomization at the sentence
level: each replicate swaps both systems' outputs for a random subset of
sentences and recomputes the absolute score difference. Replicate r draws
its swap mask from a generator seeded by (seed, r), so p-values do not
depend on evaluation order and replicates can run in parallel.

Every score is a function of count totals over sentences, so each sentence
is counted once per system instead of rescoring every replicate:

* ``entity_f1`` -- correct, predicted and gold spans;
* ``accuracy``  -- matching and total tokens;
* ``macro_f1``  -- true positives, predictions and gold labels per gold class.

With per-sentence count rows ``A`` and ``B`` and a replicate's 0/1 swap mask
``m``, the swapped systems' totals are ``A.sum(0) + m @ (B - A)`` and
``B.sum(0) - m @ (B - A)``. The counts are integers, so these sums are exact
in float64. Masks are stacked ``_BLOCK`` (256) replicates at a time, so the
extra memory is ``_BLOCK`` rows of ``n`` sentences however many rounds run.

The fold metrics of :func:`metrics` come from the same count rows and the
same arithmetic. ``tests/test_evaluation.py`` keeps the direct scorers that
count each fold and rescore each replicate as oracles: the fold metrics and
the p-values equal theirs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ValidationError, warn

CONFIG_ORDER = ("baseline", "gaze", "EEG", "gaze+EEG")


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    accuracy: float


def extract_entities(tags: Sequence[str]) -> set[tuple[int, int, str]]:
    """(start, end_exclusive, type) spans from a BIO sequence.

    A stray I-X (after O or a different type) is read as starting a new
    span, matching the repair convention applied to predictions.
    """
    spans = []
    start = None
    etype = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if start is not None:
                spans.append((start, i, etype))
                start = None
            continue
        prefix, name = tag[0], tag[2:]
        if prefix == "B" or (start is not None and name != etype) or start is None:
            if start is not None:
                spans.append((start, i, etype))
            start, etype = i, name
    if start is not None:
        spans.append((start, len(tags), etype))
    return set(spans)


def _flatten(units: Sequence) -> list:
    flat: list = []
    for unit in units:
        if isinstance(unit, (tuple, list)):
            flat.extend(unit)
        else:
            flat.append(unit)
    return flat


def _replicate_mask(seed: int, replicate: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, replicate]))
    return rng.random(n) < 0.5


#: Replicates whose swap masks are stacked into one matrix.
_BLOCK = 256


def _mask_blocks(seed: int, n_rounds: int, n: int) -> Iterator[np.ndarray]:
    """The swap masks of replicates ``0 .. n_rounds - 1`` as boolean blocks
    of up to ``_BLOCK`` rows; each block is overwritten by the next."""
    masks = np.empty((min(_BLOCK, n_rounds), n), dtype=bool)
    for start in range(0, n_rounds, _BLOCK):
        block = masks[: min(_BLOCK, n_rounds - start)]
        for j in range(len(block)):
            block[j] = _replicate_mask(seed, start + j, n)
        yield block


def _check_rounds(n_rounds: int) -> None:
    if n_rounds < 1:
        raise ConfigError(f"the number of rounds must be >= 1, got {n_rounds}")


def _percent(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``100.0 * num / den``, or 0 where ``den`` is 0."""
    return np.divide(100.0 * num, den, out=np.zeros(np.shape(num)), where=den > 0)


def _f1_of_counts(n_correct: np.ndarray, n_pred: np.ndarray, n_gold: np.ndarray) -> np.ndarray:
    """``2PR / (P + R)`` from count arrays, or 0 where ``P + R`` is 0."""
    p = _percent(n_correct, n_pred)
    r = _percent(n_correct, n_gold)
    return np.divide(2 * p * r, p + r, out=np.zeros(np.shape(p)), where=(p + r) > 0)


def _unit_pairs(gold_unit, pred_unit) -> list:
    gold_labels = _flatten([gold_unit])
    pred_labels = _flatten([pred_unit])
    if len(gold_labels) != len(pred_labels):
        raise ValidationError(
            f"a sentence has {len(gold_labels)} gold labels but {len(pred_labels)} predictions"
        )
    return list(zip(gold_labels, pred_labels))


def _entity_counts(gold: Sequence, *systems: Sequence) -> list[np.ndarray]:
    """Per-sentence (correct, predicted, gold) span counts of each system."""
    gold_spans = [extract_entities(tags) for tags in gold]

    def counts(preds):
        rows = []
        for g_tags, g_spans, p_tags in zip(gold, gold_spans, preds):
            if len(g_tags) != len(p_tags):
                raise ValidationError("tag sequence length mismatch")
            p_spans = extract_entities(p_tags)
            rows.append((len(g_spans & p_spans), len(p_spans), len(g_spans)))
        return np.array(rows, dtype=float)

    return [counts(preds) for preds in systems]


def _entity_f1(totals: np.ndarray) -> np.ndarray:
    return _f1_of_counts(totals[:, 0], totals[:, 1], totals[:, 2])


def _accuracy_counts(gold: Sequence, *systems: Sequence) -> list[np.ndarray]:
    """Per-sentence (matching, total) label counts of each system."""

    def counts(preds):
        rows = []
        for g_unit, p_unit in zip(gold, preds):
            pairs = _unit_pairs(g_unit, p_unit)
            rows.append((sum(1 for g, p in pairs if g == p), len(pairs)))
        return np.array(rows, dtype=float)

    rows = [counts(preds) for preds in systems]
    if not rows[0][:, 1].any():
        raise ValidationError("cannot score an empty collection")
    return rows


def _accuracy(totals: np.ndarray) -> np.ndarray:
    return 100.0 * totals[:, 0] / totals[:, 1]


def _macro_counts(gold: Sequence, *systems: Sequence) -> list[np.ndarray]:
    """Per-sentence true positives, predictions and gold labels of each gold
    class (``3 * n_classes`` columns) for each system."""
    classes = sorted(set(_flatten(gold)))
    if not classes:
        raise ValidationError("cannot score an empty collection")
    index = {c: i for i, c in enumerate(classes)}

    def counts(preds):
        out = np.zeros((len(gold), 3, len(classes)))
        for s, (g_unit, p_unit) in enumerate(zip(gold, preds)):
            for g, p in _unit_pairs(g_unit, p_unit):
                gi = index[g]
                out[s, 2, gi] += 1
                pi = index.get(p)  # labels outside the gold classes are not scored
                if pi is not None:
                    out[s, 1, pi] += 1
                    if pi == gi:
                        out[s, 0, gi] += 1
        return out.reshape(len(gold), -1)

    return [counts(preds) for preds in systems]


def _macro_f1(totals: np.ndarray) -> np.ndarray:
    tp, n_pred, n_gold = totals.reshape(len(totals), 3, -1).transpose(1, 0, 2)
    # np.mean along the contiguous last axis sums each row in the same order
    # as np.mean over one vector, as the direct scorer's class average does
    return np.mean(np.ascontiguousarray(_f1_of_counts(tp, n_pred, n_gold)), axis=1)


#: Named scorers as (per-sentence counts of each system, scores of count totals).
SCORERS: dict[str, tuple[Callable, Callable]] = {
    "entity_f1": (_entity_counts, _entity_f1),
    "accuracy": (_accuracy_counts, _accuracy),
    "macro_f1": (_macro_counts, _macro_f1),
}


def metrics(gold: Sequence, pred: Sequence, scorer: str) -> Metrics:
    """One system's precision, recall and F1 in percent under ``scorer``
    (``entity_f1``: exact span and type matches; ``macro_f1``: averaged over
    the gold classes), and its label accuracy, from the count totals that
    the permutation test scores.

    Precision is 0 by convention when nothing is predicted; a partially
    overlapping span counts as wrong, and a label outside the gold classes
    counts for no class. An empty collection is a ``ValidationError``.
    """
    if len(gold) != len(pred):
        raise ValidationError(f"{len(gold)} gold vs {len(pred)} predicted units")
    if not gold:
        raise ValidationError("cannot score an empty collection")
    count, score = SCORERS[scorer]
    totals = count(gold, pred)[0].sum(axis=0, keepdims=True)
    tp, n_pred, n_gold = totals.reshape(3, -1)  # one column per class; spans are one class
    accuracy_totals = _accuracy_counts(gold, pred)[0].sum(axis=0, keepdims=True)
    return Metrics(
        precision=float(np.mean(_percent(tp, n_pred))),
        recall=float(np.mean(_percent(tp, n_gold))),
        f1=float(score(totals)[0]),
        accuracy=float(_accuracy(accuracy_totals)[0]),
    )


def _count_test(
    counts_a: np.ndarray, counts_b: np.ndarray, score: Callable, n_rounds: int, seed: int
) -> float:
    """Permutation p-value from per-sentence count rows (module docstring)."""
    n = len(counts_a)
    total_a = counts_a.sum(axis=0)
    total_b = counts_b.sum(axis=0)
    diff = counts_b - counts_a
    scores = score(np.stack([total_a, total_b]))
    observed = abs(scores[0] - scores[1])
    exceed = 0
    for block in _mask_blocks(seed, n_rounds, n):
        moved = block @ diff
        delta = np.abs(score(total_a + moved) - score(total_b - moved))
        exceed += int(np.count_nonzero(delta >= observed))
    return (1 + exceed) / (1 + n_rounds)


def permutation_test(
    preds_a: Sequence,
    preds_b: Sequence,
    gold: Sequence,
    scorer: str,
    n_rounds: int = 10000,
    seed: int = 0,
) -> float:
    """Paired approximate randomization p-value with add-one smoothing.

    Elements of the prediction sequences are sentence units (a tag sequence,
    a label, or a tuple of labels); each replicate swaps whole units, so all
    tokens or sub-instances of a sentence move together. ``scorer`` names
    one of ``SCORERS``, which run on per-sentence counts.
    """
    if len(preds_a) != len(preds_b) or len(preds_a) != len(gold):
        raise ValidationError("misaligned prediction/gold collections")
    if not preds_a:
        raise ValidationError("nothing to compare")
    _check_rounds(n_rounds)
    if scorer not in SCORERS:
        raise ConfigError(f"unknown scorer {scorer!r}; expected {sorted(SCORERS)}")
    count, score = SCORERS[scorer]
    counts_a, counts_b = count(gold, preds_a, preds_b)
    return _count_test(counts_a, counts_b, score, n_rounds, seed)


@dataclass(frozen=True)
class SignificanceResult:
    p_value: float
    alpha: float
    n_hypotheses: int

    @property
    def threshold(self) -> float:
        return self.alpha / self.n_hypotheses

    @property
    def stars(self) -> str:
        if self.p_value < self.threshold:
            return "**"
        if self.p_value < self.alpha:
            return "*"
        return ""

    def to_json(self) -> dict:
        return {
            "p_value": self.p_value,
            "alpha": self.alpha,
            "n_hypotheses": self.n_hypotheses,
            "threshold": self.threshold,
            "stars": self.stars,
        }


def bonferroni(p: float, alpha: float = 0.01, n_hypotheses: int = 1) -> SignificanceResult:
    """Two-level star scheme under the corrected threshold alpha / n."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if n_hypotheses < 1:
        raise ConfigError(f"n_hypotheses must be >= 1, got {n_hypotheses}")
    return SignificanceResult(p_value=p, alpha=alpha, n_hypotheses=n_hypotheses)


@dataclass(frozen=True)
class RunMetrics:
    task: str
    config: str  # baseline | gaze | EEG | gaze+EEG
    fold: int
    metrics: Metrics


@dataclass
class MetricsReport:
    cells: dict[tuple[str, str], dict]
    significance: dict[tuple[str, str], SignificanceResult] = field(default_factory=dict)

    def to_json(self) -> dict:
        tasks: dict[str, dict] = {}
        for (task, config), cell in sorted(self.cells.items()):
            entry = dict(cell)
            sig = self.significance.get((task, config))
            if sig is not None:
                entry["significance"] = sig.to_json()
            tasks.setdefault(task, {})[config] = entry
        return {"tasks": tasks}

    def render_text(self) -> str:
        tasks = sorted({task for task, _ in self.cells})
        header = f"{'':<10}" + "".join(f"{task:>26}" for task in tasks)
        columns = f"{'':<10}" + "".join(f"{'P':>10}{'R':>7}{'F1':>9}" for _ in tasks)
        lines = [header, columns]
        configs = [
            c for c in CONFIG_ORDER if any((t, c) in self.cells for t in tasks)
        ]
        configs += sorted(
            {c for _, c in self.cells} - set(CONFIG_ORDER)
        )  # non-standard row names follow the canonical four
        for config in configs:
            row = f"{config:<10}"
            for task in tasks:
                cell = self.cells.get((task, config))
                if cell is None:
                    row += f"{'-':>10}{'-':>7}{'-':>9}"
                    continue
                stars = ""
                sig = self.significance.get((task, config))
                if sig is not None:
                    stars = sig.stars
                f1_text = f"{cell['f1']:.1f}{stars}"
                row += f"{cell['precision']:>10.1f}{cell['recall']:>7.1f}{f1_text:>9}"
            lines.append(row)
        return "\n".join(lines) + "\n"


def report(
    runs: Sequence[RunMetrics],
    significance: Mapping[tuple[str, str], SignificanceResult] | None = None,
) -> MetricsReport:
    """Mean metrics across folds per (task, config) cell with stars attached."""
    if not runs:
        raise ValidationError("report needs at least one run")
    grouped: dict[tuple[str, str], list[Metrics]] = {}
    for run in runs:
        grouped.setdefault((run.task, run.config), []).append(run.metrics)
    fold_counts = {len(v) for v in grouped.values()}
    if len(fold_counts) > 1:
        warn(__name__, "inconsistent fold counts across cells: %s", sorted(fold_counts))
    cells: dict[tuple[str, str], dict] = {}
    for key, metrics_list in grouped.items():
        cells[key] = {
            "precision": float(np.mean([m.precision for m in metrics_list])),
            "recall": float(np.mean([m.recall for m in metrics_list])),
            "f1": float(np.mean([m.f1 for m in metrics_list])),
            "n_folds": len(metrics_list),
            "accuracy": float(np.mean([m.accuracy for m in metrics_list])),
        }
    return MetricsReport(cells=cells, significance=dict(significance or {}))
