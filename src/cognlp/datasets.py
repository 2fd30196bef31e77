"""Task dataset assembly and cross-validation splitting.

An assembled dataset pairs tokenized sentences with task labels and,
optionally, per-token cognitive feature vectors concatenated from one or
more token-level feature tables. Relation-classification sentences with
several labels are expanded to one instance per label but always stay in
one fold together.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import seeding
from .errors import ConfigError, ValidationError
from .ingest import (
    SENTENCE_CLASSES, TASKS, Corpus, _Kind, _Records, _as_int, _as_names, _as_str, _as_tokens,
    _first_seen, _header, _numbers, _render_lines, _sentence_label, _validate_labels,
)
from .tables import FeatureTable, concat_tables


@dataclass(frozen=True, eq=False)
class Instance:
    sentence_id: str
    tokens: tuple[str, ...]
    # per-token tag tuple for token-level tasks, a single label otherwise
    label: str | tuple[str, ...]
    features: np.ndarray | None = None  # (n_tokens, n_dims)
    sentence_vector: np.ndarray | None = None

    def feature_matrix(self, width: int) -> np.ndarray:
        """``features``, or zeros of shape ``(n_tokens, width)`` when absent."""
        if self.features is not None:
            return self.features
        return np.zeros((len(self.tokens), width))

    def sentence_row(self, width: int) -> np.ndarray:
        """``sentence_vector``, or zeros of shape ``(width,)`` when absent."""
        if self.sentence_vector is not None:
            return self.sentence_vector
        return np.zeros(width)


@dataclass(frozen=True, eq=False)
class Dataset:
    task: str
    manifest: tuple[str, ...]
    instances: tuple[Instance, ...]
    # labels kept in the data but excluded from training (e.g. neutral
    # sentences when binary sentiment drops them from training only)
    train_exclude: frozenset[str] = frozenset()

    def sentence_ids(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for inst in self.instances:
            seen.setdefault(inst.sentence_id, None)
        return tuple(seen)

    def select(self, ids: Iterable[str]) -> tuple[Instance, ...]:
        wanted = set(ids)
        return tuple(i for i in self.instances if i.sentence_id in wanted)


_NEIGHBOR_BASE = ("FFD", "TRT", "NFIX")


def assemble(
    corpus: Corpus,
    tables: Mapping[str, FeatureTable] | None = None,
    *,
    strict: bool = False,
    add_gaze_neighbors: bool = False,
    as_binary_sentiment: bool = False,
    binary_policy: str = "drop-all",
) -> Dataset:
    """Build a task dataset, concatenating feature tables in declared order.

    Omitting ``tables`` yields the baseline dataset (empty manifest).
    Sentence-level tasks additionally get a sentence vector, the mean over
    token vectors. ``as_binary_sentiment`` converts a ternary corpus to the
    binary task; ``binary_policy`` is ``drop-all`` (neutral sentences removed
    everywhere, the default) or ``drop-train-only`` (kept, but excluded from
    training).
    """
    tables = dict(tables or {})
    task = corpus.task
    if as_binary_sentiment:
        if corpus.task != "sentiment3":
            raise ConfigError("as_binary_sentiment requires a ternary sentiment corpus")
        if binary_policy not in ("drop-all", "drop-train-only"):
            raise ConfigError(f"unknown binary_policy {binary_policy!r}")
        task = "sentiment2"

    joined = concat_tables(tables)
    absent = np.zeros(len(joined.dims))
    manifest = list(joined.dims)
    neighbor_dims: list[tuple[str, int, int]] = []  # (dim name, gaze col, offset)
    if add_gaze_neighbors:
        gaze = tables.get("gaze")
        if gaze is None:
            raise ConfigError("add_gaze_neighbors requires a 'gaze' table")
        for offset, tag in ((-1, "prev"), (1, "next")):
            for name in _NEIGHBOR_BASE:
                neighbor_dims.append((f"gaze/{tag}_{name}", gaze.dim_index(name), offset))
        manifest.extend(d for d, _, _ in neighbor_dims)

    width = len(manifest)
    instances: list[Instance] = []
    train_exclude: frozenset[str] = frozenset()

    for sentence in corpus.sentences:
        label_for_sentence = sentence.labels[0] if task.startswith("sentiment") else None
        if as_binary_sentiment and label_for_sentence == "neu":
            if binary_policy == "drop-all":
                continue
            train_exclude = frozenset({"neu"})

        features = None
        sentence_vector = None
        if width:
            keys = [(sentence.id, w) for w in range(len(sentence))]
            if strict:
                for key in keys:
                    for source, table in tables.items():
                        if key not in table.rows:
                            raise ValidationError(f"no {source!r} features for {key}")
            base = np.stack([joined.rows.get(key, absent) for key in keys])
            if neighbor_dims:
                gaze = tables["gaze"]
                extra = np.zeros((len(sentence), len(neighbor_dims)))
                for col, (_, gcol, offset) in enumerate(neighbor_dims):
                    for w in range(len(sentence)):
                        u = w + offset
                        if 0 <= u < len(sentence):
                            vec = gaze.rows.get((sentence.id, u))
                            if vec is not None:
                                extra[w, col] = vec[gcol]
                base = np.concatenate([base, extra], axis=1)
            features = base
            if task in SENTENCE_CLASSES:
                sentence_vector = features.mean(axis=0)

        # one instance per relation label; a tag sequence or a sentiment otherwise
        if task == "relclass":
            labels = sentence.labels
        else:
            labels = [sentence.labels if task == "ner" else label_for_sentence]
        for label in labels:
            instances.append(Instance(sentence.id, sentence.tokens, label, features, sentence_vector))

    dataset = Dataset(task, tuple(manifest), tuple(instances), train_exclude)
    if task == "sentiment2" and binary_policy == "drop-all":
        assert all(i.label != "neu" for i in dataset.instances)
    return dataset


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic k-fold assignment of sentence ids.

    Fold i's test section is fold i itself; the development section is the
    next ``round(k * dev_ratio)`` folds cyclically; training is the rest.
    Test sections are therefore disjoint and exhaustive across folds.
    """

    k: int
    ratios: tuple[float, float, float]
    seed: int
    assignment: Mapping[str, int]

    @property
    def n_dev_folds(self) -> int:
        return round(self.k * self.ratios[1])

    def _fold_ids(self, folds: set[int]) -> tuple[str, ...]:
        return tuple(sid for sid, f in self.assignment.items() if f in folds)

    def test_ids(self, fold: int) -> tuple[str, ...]:
        return self._fold_ids({fold % self.k})

    def dev_ids(self, fold: int) -> tuple[str, ...]:
        dev = {(fold + 1 + j) % self.k for j in range(self.n_dev_folds)}
        return self._fold_ids(dev)

    def train_ids(self, fold: int) -> tuple[str, ...]:
        used = {fold % self.k} | {
            (fold + 1 + j) % self.k for j in range(self.n_dev_folds)
        }
        return self._fold_ids(set(range(self.k)) - used)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "ratios": list(self.ratios),
            "seed": self.seed,
            "assignment": dict(self.assignment),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FoldPlan":
        k = _as_int(obj, "k", None)
        assignment = obj["assignment"]
        if not isinstance(assignment, dict) or not all(
            type(f) is int and 0 <= f < k for f in assignment.values()
        ):
            raise ValidationError(f"'assignment' must map sentence ids to folds in [0, {k})")
        return cls(
            k=k,
            ratios=tuple(_numbers([obj["ratios"]], 3, ("field 'ratios'",), None)[0].tolist()),
            seed=_as_int(obj, "seed", None),
            assignment=assignment,
        )


def kfold_split(
    dataset: Dataset | Sequence[str],
    k: int,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> FoldPlan:
    """Shuffle sentence ids by seed and partition into k near-equal folds.

    All instances of a sentence share its fold, so expanded relation
    instances never leak across sections. The test share is one fold, so
    ``ratios[2]`` must equal 1/k.
    """
    ids = dataset.sentence_ids() if isinstance(dataset, Dataset) else tuple(dataset)
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if len(ids) < k:
        raise ConfigError(f"{len(ids)} sentences cannot fill {k} folds")
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ConfigError(f"ratios {ratios} must each be finite and in [0, 1]")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios {ratios} do not sum to 1")
    if abs(ratios[2] - 1.0 / k) > 1e-9:
        raise ConfigError(f"test ratio {ratios[2]} must equal 1/k = {1.0 / k}")
    n_dev = round(k * ratios[1])
    if k - 1 - n_dev < 1:
        raise ConfigError("ratios leave no training fold")
    order = list(ids)
    rng = seeding.stream(seed, "kfold")
    perm = rng.permutation(len(order))
    shuffled = [order[i] for i in perm]
    base, extra = divmod(len(shuffled), k)
    assignment: dict[str, int] = {}
    pos = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        for sid in shuffled[pos : pos + size]:
            assignment[sid] = fold
        pos += size
    return FoldPlan(k=k, ratios=tuple(ratios), seed=seed, assignment=assignment)


def write_dataset(dataset: Dataset, header_extra: dict | None = None) -> str:
    header = _header(
        "dataset",
        header_extra,
        task=dataset.task,
        manifest=list(dataset.manifest),
        train_exclude=sorted(dataset.train_exclude),
    )
    return _render_lines(chain([header], map(_instance_record, dataset.instances)))


def _instance_record(inst: Instance) -> dict:
    rec: dict = {"id": inst.sentence_id, "tokens": list(inst.tokens)}
    if isinstance(inst.label, tuple):
        rec["labels"] = list(inst.label)
    else:
        rec["label"] = inst.label
    if inst.features is not None:
        rec["features"] = np.asarray(inst.features, dtype=float)
    if inst.sentence_vector is not None:
        rec["sentence_vector"] = np.asarray(inst.sentence_vector, dtype=float)
    return rec


def _dataset_header(fields: dict, lineno: int) -> dict:
    """A dataset header's task, manifest and labels left out of training."""
    task = _as_str(fields, "task", lineno)
    if task not in TASKS:
        raise ValidationError(f"unknown task {task!r}; expected one of {TASKS}", line=lineno)
    return {
        "task": task,
        "manifest": _as_names(fields["manifest"], "dataset header 'manifest'", lineno),
        "train_exclude": frozenset(_as_names(
            fields.get("train_exclude", []), "dataset header 'train_exclude'", lineno
        )),
    }


_DATASET = _Kind(
    lambda header: ("id", "tokens", "labels" if header["task"] == "ner" else "label"),
    ("features", "sentence_vector"),
    header="dataset",
    header_fields=("task", "manifest"),
    read_header=_dataset_header,
)


def _read_instance(obj: dict, lineno: int, text: str, header: dict, seen: dict) -> tuple:
    """A dataset line's key (its id, and for relclass its label) and instance.
    Tokens, labels and a key not in ``seen`` follow the corpus reader's rules;
    a label of a sentence task may also be one of the header's ``train_exclude``."""
    sid = _as_str(obj, "id", lineno)
    tokens = _as_tokens(obj, lineno)
    task = header["task"]
    if task == "ner":
        label = _validate_labels(task, tokens, obj["labels"], lineno)
    else:
        label = _sentence_label(task, obj["label"], lineno, header["train_exclude"])
    key = (sid, label) if task == "relclass" else sid
    _first_seen(seen, key, f"instance {key!r}", lineno)
    width = len(header["manifest"])
    features = sent_vec = None
    if "features" in obj:
        rows = obj["features"]
        if not isinstance(rows, list) or len(rows) != len(tokens):
            raise ValidationError("field 'features' needs one row per token", line=lineno)
        features = _numbers(rows, width, "field 'features'", lineno, text)
    if "sentence_vector" in obj:
        sent_vec = _numbers(
            [obj["sentence_vector"]], width, ("field 'sentence_vector'",), lineno, text
        ).flatten()
    return key, Instance(sid, tokens, label, features, sent_vec)


def read_dataset(lines: Iterable[str], *, strict: bool = False) -> Dataset:
    """Read a file written by ``write_dataset``: a ``dataset`` header with the
    task and the manifest, then one instance per line."""
    seen: dict = {}
    records = _Records(lines, _DATASET, _read_instance, seen, strict=strict)
    instances = []
    for lineno, (key, inst) in records:
        seen[key] = lineno
        instances.append(inst)
    return Dataset(instances=tuple(instances), **records.header)
