"""Multi-task training: a main token-level task plus auxiliary prediction of
discretized cognitive features and word frequency.

All tasks share the TrunkNet trunk and differ only in their softmax heads
(hard parameter sharing). Each training step samples one task proportional
to its instance count among tasks with positive loss weight, then updates
the trunk and that task's head with the gradient scaled by the weight.
Zero-weight tasks are excluded from sampling entirely, which makes them
exact no-ops on the parameter trajectory. Tasks sharing a name share a head,
so duplicating the main task as an auxiliary doubles its sampling mass
without introducing new parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import seeding
from .aggregate import (
    NormalizationStats, _check_bins, apply_normalization, discretize, fit_normalization,
)
from .datasets import Dataset, Instance
from .errors import ConfigError, ValidationError
from .models import (
    TrunkConfig, TrunkNet, _check_epochs, _check_lr, _overflow_is_config_error, repair_bio,
)

COMBINED_BANDS = {
    "EEG_t": ("theta1", "theta2"),
    "EEG_a": ("alpha1", "alpha2"),
    "EEG_b": ("beta1", "beta2"),
    "EEG_g": ("gamma1", "gamma2"),
}
FREQUENCY_SOURCE = "word_frequency"


@dataclass(frozen=True)
class AuxTaskSpec:
    """One auxiliary prediction target: a feature name, a combined EEG band
    (EEG_t/a/b/g), or word frequency; binned into ``n_bins`` classes."""

    source: str
    n_bins: int = 10
    weight: float = 1.0

    def __post_init__(self):
        _check_bins(self.n_bins)
        if not 0.0 <= self.weight < math.inf:
            raise ConfigError(f"loss weight must be finite and >= 0, got {self.weight}")


@dataclass
class FrequencyLexicon:
    """Lower-cased word -> corpus frequency count; OOV words count as 1."""

    counts: dict[str, int] = field(default_factory=dict)

    def count(self, word: str) -> int:
        return self.counts.get(word.lower(), 1)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "FrequencyLexicon":
        counts: dict[str, int] = {}
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValidationError(
                    f"expected 'word<TAB>count', got {line!r}", line=lineno
                )
            word = parts[0].lower()
            try:
                count = int(parts[1])
            except ValueError:
                raise ValidationError(
                    f"count must be an integer, got {parts[1]!r}", line=lineno
                ) from None
            if count < 1:
                raise ValidationError(f"count must be >= 1, got {count}", line=lineno)
            counts[word] = count
        return cls(counts=counts)

    @classmethod
    def from_corpus_tokens(cls, tokens: Iterable[str]) -> "FrequencyLexicon":
        counts: dict[str, int] = {}
        for token in tokens:
            key = token.lower()
            counts[key] = counts.get(key, 0) + 1
        return cls(counts=counts)


def _manifest_column(dataset: Dataset, basename: str) -> int:
    matches = [
        i for i, dim in enumerate(dataset.manifest) if dim.split("/")[-1] == basename
    ]
    if not matches:
        raise ConfigError(f"no manifest dimension named {basename!r}")
    if len(matches) > 1:
        raise ConfigError(f"ambiguous manifest dimension {basename!r}")
    return matches[0]


def make_aux_targets(
    dataset: Dataset,
    spec: AuxTaskSpec,
    freq: FrequencyLexicon | None = None,
) -> dict[str, np.ndarray]:
    """Per-token bin classes for one auxiliary source, keyed by sentence id.

    Cognitive sources min-max normalize their feature column over the whole
    dataset (a degenerate, constant column maps every token to class 0);
    frequency uses log10 counts, likewise min-max normalized, with OOV words
    counted as 1 and therefore falling in the lowest bin.
    """
    instances = dataset.instances
    if not instances:
        raise ConfigError("empty dataset")
    lengths = [len(inst.tokens) for inst in instances]
    if spec.source == FREQUENCY_SOURCE:
        if freq is None:
            raise ConfigError("word_frequency auxiliary requires a frequency lexicon")
        flat = np.array(
            [
                math.log10(freq.count(token))
                for inst in instances
                for token in inst.tokens
            ]
        )
    else:
        if spec.source in COMBINED_BANDS:
            cols = [_manifest_column(dataset, b) for b in COMBINED_BANDS[spec.source]]
        else:
            cols = [_manifest_column(dataset, spec.source)]
        pieces = []
        for inst in instances:
            feats = inst.features
            if feats is None:
                raise ConfigError(
                    f"instance {inst.sentence_id!r} has no features for {spec.source!r}"
                )
            pieces.append(feats[:, cols].mean(axis=1))
        flat = np.concatenate(pieces)
    column = flat[:, None]
    normalized = apply_normalization(fit_normalization(column), column)
    bins = discretize(normalized, spec.n_bins).ravel()
    out: dict[str, np.ndarray] = {}
    pos = 0
    for inst, length in zip(instances, lengths):
        out[inst.sentence_id] = bins[pos : pos + length]
        pos += length
    return out


@dataclass(frozen=True)
class TaskData:
    """Targets for one head: name, class labels, per-sentence class arrays."""

    name: str
    classes: tuple[str, ...]
    targets: dict[str, np.ndarray]
    weight: float = 1.0


def main_task_data(
    dataset: Dataset,
    label_mode: str = "task",
    main_source: AuxTaskSpec | None = None,
    freq: FrequencyLexicon | None = None,
) -> TaskData:
    """Token-level targets for the main head.

    NER uses its tag set; sentiment broadcasts the sentence label to every
    token. ``label_mode="neutral-vs-rest"`` recodes ternary sentiment into
    NEUTRAL / NOT-NEUTRAL. Relation classification has no token-level labels
    and is rejected. A ``main_source`` spec replaces the NLP labels by its
    source's bins, built exactly as for an auxiliary, and ``label_mode`` is
    then unused.
    """
    if main_source is not None:
        return replace(aux_task_data(dataset, main_source, freq=freq), name="main")
    if dataset.task == "relclass":
        raise ConfigError("relation classification has no token-level labels")
    targets: dict[str, np.ndarray] = {}
    if dataset.task == "ner":
        if label_mode != "task":
            raise ConfigError(f"label_mode {label_mode!r} only applies to sentiment")
        classes = tuple(sorted({t for inst in dataset.instances for t in inst.label}))
        index = {c: i for i, c in enumerate(classes)}
        for inst in dataset.instances:
            targets[inst.sentence_id] = np.array(
                [index[t] for t in inst.label], dtype=int
            )
        return TaskData(name="main", classes=classes, targets=targets)
    if label_mode == "neutral-vs-rest":
        if dataset.task != "sentiment3":
            raise ConfigError("neutral-vs-rest requires the ternary sentiment task")
        classes = ("NEUTRAL", "NOT-NEUTRAL")
        for inst in dataset.instances:
            cls = 0 if inst.label == "neu" else 1
            targets[inst.sentence_id] = np.full(len(inst.tokens), cls, dtype=int)
        return TaskData(name="main", classes=classes, targets=targets)
    if label_mode != "task":
        raise ConfigError(f"unknown label_mode {label_mode!r}")
    classes = tuple(sorted({inst.label for inst in dataset.instances}))
    index = {c: i for i, c in enumerate(classes)}
    for inst in dataset.instances:
        targets[inst.sentence_id] = np.full(
            len(inst.tokens), index[inst.label], dtype=int
        )
    return TaskData(name="main", classes=classes, targets=targets)


def aux_task_data(
    dataset: Dataset, spec: AuxTaskSpec, freq: FrequencyLexicon | None = None
) -> TaskData:
    targets = make_aux_targets(dataset, spec, freq=freq)
    classes = tuple(f"bin{i}" for i in range(spec.n_bins))
    return TaskData(name=spec.source, classes=classes, targets=targets, weight=spec.weight)


@dataclass(eq=False)
class TaskSet:
    """The targets of one ``mtl`` run: the main task, then each auxiliary
    source in order. ``heads`` maps each head to its class labels, and
    ``meta`` is what a model file records about the tasks."""

    tasks: tuple[TaskData, ...]
    meta: dict
    heads: dict[str, tuple[str, ...]] = field(init=False)

    def __post_init__(self):
        sizes: dict[str, int] = {}
        self.heads = {}
        for task in self.tasks:
            if sizes.setdefault(task.name, len(task.classes)) != len(task.classes):
                raise ConfigError(f"tasks named {task.name!r} disagree on class count")
            self.heads[task.name] = task.classes


def build_tasks(
    dataset: Dataset,
    aux_specs: Sequence[AuxTaskSpec] = (),
    *,
    freq: FrequencyLexicon | None = None,
    label_mode: str = "task",
    main_source: AuxTaskSpec | None = None,
) -> TaskSet:
    """The run's task set, binned over the whole dataset: the main task
    (see ``main_task_data``), then one task per auxiliary spec. Without
    ``freq``, a word-frequency source counts the dataset's own tokens."""
    if freq is None and FREQUENCY_SOURCE in [s.source for s in (main_source, *aux_specs) if s]:
        freq = FrequencyLexicon.from_corpus_tokens(
            t for inst in dataset.instances for t in inst.tokens
        )
    tasks = [main_task_data(dataset, label_mode, main_source, freq)]
    tasks += [aux_task_data(dataset, spec, freq=freq) for spec in aux_specs]
    meta = {
        "label_mode": label_mode,
        "main_source": main_source and main_source.source,
        "aux": [
            {"source": s.source, "n_bins": s.n_bins, "weight": s.weight} for s in aux_specs
        ],
    }
    return TaskSet(tuple(tasks), meta)


@dataclass(eq=False)
class MultitaskModel:
    net: TrunkNet
    tasks: dict[str, tuple[str, ...]]  # head name -> class labels
    manifest: tuple[str, ...]
    stats: NormalizationStats | None
    meta: dict

    def _cog(self, inst: Instance) -> np.ndarray | None:
        if not self.net.cog_dim:
            return None
        return apply_normalization(self.stats, inst.feature_matrix(len(self.manifest)))

    def to_json(self) -> dict:
        return {
            "kind": "multitask",
            "net": self.net.to_json(),
            "tasks": {name: list(classes) for name, classes in sorted(self.tasks.items())},
            "manifest": list(self.manifest),
            "stats": self.stats.to_json() if self.stats else None,
            "meta": self.meta,
        }


def train_multitask(
    dataset: Dataset,
    ids: Sequence[str],
    tasks: TaskSet,
    *,
    net_config: TrunkConfig = TrunkConfig(),
    epochs: int = 5,
    lr: float = 0.1,
    seed: int = 0,
    use_features_as_input: bool = False,
) -> MultitaskModel:
    """Jointly train the tasks of ``tasks`` on one dataset section.

    Cognitive features serve as auxiliary *targets*; the network input is
    the token embedding alone unless ``use_features_as_input`` is set (in
    which case predicting a feature that is also an input is trivial).
    Every step consumes exactly two uniform draws (task choice, instance
    choice), so runs with the same seed and the same active task list
    follow identical trajectories.
    """
    ids = tuple(ids)
    if not ids:
        raise ValidationError("empty training section")
    _check_lr(lr)
    _check_epochs(epochs)
    train_instances = {
        inst.sentence_id: inst
        for inst in dataset.select(ids)
        if inst.label not in dataset.train_exclude
    }
    if not train_instances:
        raise ValidationError("empty training set")
    vocab = tuple(sorted({t for inst in train_instances.values() for t in inst.tokens}))
    cog_dim = len(dataset.manifest) if use_features_as_input else 0
    stats = None
    if cog_dim:
        stats = fit_normalization(
            [
                row
                for inst in train_instances.values()
                for row in inst.feature_matrix(cog_dim)
            ]
        )
    head_sizes = {name: len(classes) for name, classes in tasks.heads.items()}
    net = TrunkNet(vocab, cog_dim, head_sizes, net_config)

    # each sentence's network input, built once and shared by every task
    inputs = {
        sid: (
            net.token_ids(inst.tokens),
            apply_normalization(stats, inst.feature_matrix(cog_dim)) if cog_dim else None,
        )
        for sid, inst in train_instances.items()
    }
    prepared: list[tuple[str, float, list[tuple[np.ndarray, np.ndarray | None, np.ndarray]]]] = []
    for task in tasks.tasks:
        if task.weight == 0.0:
            continue
        rows = [
            (*inputs[sid], task.targets[sid])
            for sid in ids
            if sid in inputs and sid in task.targets
        ]
        if rows:
            prepared.append((task.name, task.weight, rows))
    if not prepared:
        raise ValidationError("no task has any training instances")

    counts = np.array([len(rows) for _, _, rows in prepared], dtype=float)
    cumulative = np.cumsum(counts / counts.sum())
    steps_per_epoch = int(counts.sum())
    rng = seeding.stream(seed, "mtl")
    with _overflow_is_config_error(lr):
        for _ in range(epochs * steps_per_epoch):
            u_task = rng.random()
            t = int(np.searchsorted(cumulative, u_task, side="right"))
            t = min(t, len(prepared) - 1)
            name, weight, rows = prepared[t]
            u_inst = rng.random()
            token_ids, cog, targets = rows[min(int(u_inst * len(rows)), len(rows) - 1)]
            _, grads = net.forward_backward(token_ids, cog, targets, head=name)
            net.apply_gradients(grads, lr, scale=weight)

    meta = {
        "epochs": epochs,
        "lr": lr,
        "seed": seed,
        "use_features_as_input": use_features_as_input,
        **tasks.meta,
    }
    return MultitaskModel(
        net=net, tasks=dict(tasks.heads), manifest=dataset.manifest, stats=stats, meta=meta
    )


def evaluate_multitask(
    model: MultitaskModel, dataset: Dataset, ids: Sequence[str], tasks: TaskSet
) -> dict[str, dict]:
    """Token accuracy per head over a section, next to a majority baseline.

    Each sentence runs through the trunk once, and every head reads its
    prediction from that hidden layer. For a BIO-tagged main task the
    accuracy over non-O gold tokens is also reported, since the O class
    dominates plain token accuracy.
    """
    # tasks that share a name share a head and hold the same targets
    scored = {task.name: task for task in tasks.tasks}
    for name in scored:
        if name not in model.tasks:
            raise ConfigError(f"model has no head named {name!r}")
    bio = "main" if dataset.task == "ner" else None
    index = {c: i for i, c in enumerate(model.tasks[bio])} if bio in scored else {}
    net = model.net
    preds: dict[str, list[np.ndarray]] = {name: [] for name in scored}
    golds: dict[str, list[np.ndarray]] = {name: [] for name in scored}
    for inst in dataset.select(ids):
        hidden = net.hidden(net.token_ids(inst.tokens), model._cog(inst))
        for name, task in scored.items():
            gold = task.targets.get(inst.sentence_id)
            if gold is None:
                continue
            w, b = net.heads[name]
            pred = np.argmax(hidden @ w + b, axis=1)
            if name == bio:
                labels = repair_bio([model.tasks[name][c] for c in pred])
                pred = np.array([index[label] for label in labels], dtype=int)
            preds[name].append(pred)
            golds[name].append(gold)
    results: dict[str, dict] = {}
    for name in scored:
        total = sum(len(gold) for gold in golds[name])
        if total == 0:
            raise ValidationError(f"no evaluable tokens for head {name!r}")
        gold = np.concatenate(golds[name])
        match = np.concatenate(preds[name]) == gold
        majority = max(np.bincount(gold).max() / total * 100.0, 0.0)
        entry = {
            "accuracy": 100.0 * int(match.sum()) / total,
            "majority_baseline": float(majority),
            "n_tokens": total,
        }
        if name == bio:
            non_o = gold != index.get("O")
            if non_o.any():
                entry["accuracy_excluding_o"] = 100.0 * int((match & non_o).sum()) / int(non_o.sum())
        results[name] = entry
    return results
