"""Desk-scale trainable models that consume cognitive feature vectors.

Three models cover the experiment grid:

* ``LogisticModel`` -- multinomial logistic regression over a bag of token
  indicators plus the sentence-level cognitive vector (sentence tasks).
* ``PerceptronTagger`` -- averaged perceptron with greedy left-to-right
  decoding over lexical templates plus binned cognitive features of the
  token and its neighbors (token tasks).
* ``TrunkNet`` -- token embeddings into one shared tanh layer with a softmax
  head per task and exact, finite-difference-checkable gradients (multi-task
  training lives in :mod:`cognlp.mtl`).

Training is deterministic given the seed: shuffles and initializations draw
from named streams, and appending all-zero cognitive dimensions leaves every
model's predictions bitwise unchanged relative to the baseline manifest.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import seeding
from .aggregate import (
    NormalizationStats, _check_bins, apply_normalization, discretize, fit_normalization,
)
from .datasets import Dataset, Instance
from .errors import ConfigError, ValidationError
from .ingest import SENTENCE_CLASSES, _as_names, _numbers


def repair_bio(tags: Sequence[str]) -> tuple[str, ...]:
    """Make a tag sequence BIO-well-formed: illegal I-X becomes B-X."""
    repaired = []
    prev = "O"
    for tag in tags:
        if tag.startswith("I-") and prev not in (f"B-{tag[2:]}", f"I-{tag[2:]}"):
            tag = "B-" + tag[2:]
        repaired.append(tag)
        prev = tag
    return tuple(repaired)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _check_types(config) -> None:
    """A ConfigError unless each field of the dataclass ``config`` holds its
    annotated kind: an integer for ``int``, a number for ``float``, and
    never a boolean; ``None`` where the annotation allows it."""
    for field in fields(config):
        value, kind = getattr(config, field.name), field.type  # a string annotation
        if value is None and kind.endswith("| None"):
            continue
        integer = kind.startswith("int")
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            expected = "an integer" if integer else "a number"
            raise ConfigError(f"{field.name} must be {expected}, got {value!r}")


def _check_epochs(epochs: int) -> None:
    if epochs < 1:
        raise ConfigError(f"the number of epochs must be >= 1, got {epochs}")


def _check_lr(lr: float) -> None:
    if not 0.0 < lr < math.inf:
        raise ConfigError(f"learning rate must be finite and > 0, got {lr}")


@contextlib.contextmanager
def _overflow_is_config_error(lr: float):
    """Training steps in which a result beyond the float range (or the NaN
    that follows one) is a ConfigError that names the learning rate, not
    parameters near 1e299 or a RuntimeWarning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(
            f"training left the float range ({exc}): learning rate {lr} is too large"
        ) from None


@dataclass(frozen=True)
class KeyedRows:
    """A JSON object that maps each of the sorted, distinct ``keys`` to the
    row of ``rows`` at its position. A model's ``to_json`` holds one where a
    dict of one list per row would copy every weight into a Python float."""

    keys: Sequence[str]
    rows: np.ndarray


# ---------------------------------------------------------------------------
# multinomial logistic regression


@dataclass(frozen=True)
class LogisticConfig:
    lr: float = 0.5
    epochs: int = 100
    l2: float = 0.0
    seed: int = 0
    lr_halve_every: int | None = None  # halve the rate every N passes

    def __post_init__(self):
        _check_types(self)
        _check_lr(self.lr)
        if not 0.0 <= self.l2 < math.inf:
            raise ConfigError(f"l2 must be finite and >= 0, got {self.l2}")
        if self.lr * self.l2 >= 1.0:  # the ridge factor 1 - lr * l2 must stay positive
            raise ConfigError(f"lr * l2 must be < 1, got {self.lr} * {self.l2}")
        if self.lr_halve_every is not None and self.lr_halve_every < 1:
            raise ConfigError(f"lr_halve_every must be >= 1, got {self.lr_halve_every}")


@dataclass(eq=False)
class LogisticModel:
    classes: tuple[str, ...]
    vocab: tuple[str, ...]  # token order defines indicator indices
    weights: np.ndarray  # (n_classes, n_vocab + n_cog)
    bias: np.ndarray
    manifest: tuple[str, ...]
    stats: NormalizationStats | None
    config: LogisticConfig
    history: tuple[float, ...] = ()

    def _vocab_index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.vocab)}

    def scores(self, inst: Instance, index: dict[str, int] | None = None) -> np.ndarray:
        index = index if index is not None else self._vocab_index()
        idxs, cog = _logistic_input(inst, index, self.stats, len(self.manifest))
        return _logistic_scores(self.weights, self.bias, len(self.vocab), idxs, cog)

    def predict(self, instances: Sequence[Instance]) -> list[str]:
        index = self._vocab_index()
        return [
            self.classes[int(np.argmax(self.scores(inst, index)))] for inst in instances
        ]

    def to_json(self) -> dict:
        """The model file's object, its arrays left as arrays (see
        ``cli._render_model``)."""
        return {
            "kind": "logistic",
            "classes": list(self.classes),
            "vocab": list(self.vocab),
            "weights": self.weights,
            "bias": self.bias,
            "manifest": list(self.manifest),
            "stats": self.stats.to_json() if self.stats else None,
            "config": asdict(self.config),
            "history": [float(v) for v in self.history],
        }

    @classmethod
    def from_json(cls, obj: dict, text: str | None = None) -> "LogisticModel":
        """The model in a file's object; ``text`` is the file's text, if
        known (see ``ingest._numbers``)."""
        classes, vocab, manifest = (
            _as_names(obj[key], f"logistic {key!r}", None) for key in ("classes", "vocab", "manifest")
        )
        width = len(vocab) + len(manifest)
        history = obj["history"]
        weights = _numbers(obj["weights"], width, "logistic weights", None, text)
        if len(weights) != len(classes):
            raise ValidationError(f"logistic weights must be {len(classes)} rows of {width} numbers")
        return cls(
            classes=classes,
            vocab=vocab,
            weights=weights,
            bias=_numbers([obj["bias"]], len(classes), ("logistic bias",), None, text)[0],
            manifest=manifest,
            stats=NormalizationStats.from_json(obj["stats"]) if obj["stats"] else None,
            config=LogisticConfig(**obj["config"]),
            history=tuple(
                _numbers([history], len(history), ("logistic history",), None, text)[0].tolist()
            ),
        )


def _logistic_input(
    inst: Instance, index: Mapping[str, int], stats: NormalizationStats | None, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """A sentence's logistic input: the sorted indices of its token types in
    ``index``, and its normalized sentence vector (zeros when absent), or
    nothing when the manifest is empty."""
    idxs = np.array(sorted({index[t] for t in inst.tokens if t in index}), dtype=int)
    if not width:
        return idxs, np.zeros(0)
    return idxs, apply_normalization(stats, inst.sentence_row(width))


def _logistic_scores(
    weights: np.ndarray, bias: np.ndarray, n_vocab: int, idxs: np.ndarray, cog: np.ndarray
) -> np.ndarray:
    """Class scores of one input: the bias, plus the summed weights of its
    token types, plus the cognitive weights times its vector."""
    s = bias.copy()
    if idxs.size:
        s += weights[:, idxs].sum(axis=1)
    if cog.size:
        s += weights[:, n_vocab:] @ cog
    return s


def train_logistic(
    dataset: Dataset, ids: Iterable[str], config: LogisticConfig = LogisticConfig()
) -> LogisticModel:
    """Seeded SGD on the softmax objective; weights start at zero.

    Zero initialization keeps the objective's convexity useful: dimensions
    whose inputs are always zero never move, so padding a baseline dataset
    with all-zero cognitive dims cannot change predictions.
    """
    classes = SENTENCE_CLASSES.get(dataset.task)
    if classes is None:
        raise ConfigError(f"task {dataset.task!r} has no fixed sentence-level class set")
    train = [
        inst
        for inst in dataset.select(ids)
        if inst.label not in dataset.train_exclude
    ]
    if not train:
        raise ValidationError("empty training set")
    _check_epochs(config.epochs)
    class_index = {c: i for i, c in enumerate(classes)}
    vocab = tuple(sorted({t for inst in train for t in inst.tokens}))
    index = {t: i for i, t in enumerate(vocab)}
    n_vocab, n_cog = len(vocab), len(dataset.manifest)

    stats = None
    if n_cog:
        stats = fit_normalization([inst.sentence_row(n_cog) for inst in train])

    weights = np.zeros((len(classes), n_vocab + n_cog))
    bias = np.zeros(len(classes))
    inputs = [_logistic_input(inst, index, stats, n_cog) for inst in train]
    targets = [class_index[inst.label] for inst in train]

    rng = seeding.stream(config.seed, "logistic-shuffle")
    lr = config.lr
    history = []
    with _overflow_is_config_error(config.lr):
        for epoch in range(config.epochs):
            if config.lr_halve_every and epoch and epoch % config.lr_halve_every == 0:
                lr *= 0.5
            order = rng.permutation(len(train))
            total_ce = 0.0
            for i in order:
                # ridge step against the mean loss, so equally duplicated
                # training sets share the same minimizer
                if config.l2 > 0.0:
                    weights *= 1.0 - lr * config.l2
                (idxs, cog), y = inputs[i], targets[i]
                p = _softmax(_logistic_scores(weights, bias, n_vocab, idxs, cog))
                total_ce -= float(np.log(max(p[y], 1e-300)))
                grad = p.copy()
                grad[y] -= 1.0
                if idxs.size:
                    weights[:, idxs] -= lr * grad[:, None]
                if n_cog:
                    weights[:, n_vocab:] -= lr * np.outer(grad, cog)
                bias -= lr * grad
            history.append(total_ce / len(train))
    return LogisticModel(
        classes=classes,
        vocab=vocab,
        weights=weights,
        bias=bias,
        manifest=dataset.manifest,
        stats=stats,
        config=config,
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# averaged perceptron sequence tagger


@dataclass(frozen=True)
class TaggerConfig:
    epochs: int = 5
    seed: int = 0
    n_bins: int = 10

    def __post_init__(self):
        _check_types(self)
        _check_bins(self.n_bins)


START = "<s>"
END = "</s>"
#: Index of ``prev_tag=...`` in a token's feature list. The feature depends
#: on the previous prediction, so it is filled in at each decoding step.
_PREV_SLOT = 5


def _token_features(
    inst: Instance,
    manifest: Sequence[str],
    stats: NormalizationStats | None,
    n_bins: int,
) -> Iterator[list[str]]:
    """Each token's features, with ``prev_tag=<s>`` at ``_PREV_SLOT``: lexical
    templates, then the binned cognitive values of the token and of its two
    neighbours."""
    tokens = inst.tokens
    lower = [t.lower() for t in tokens]
    # "name=bin" for each nonzero dimension of each token; exact-zero values
    # fire no indicator, so all-zero cognitive vectors reduce to the
    # baseline feature set
    cog: list[list[str]] = [[] for _ in tokens]
    if manifest:
        feats = inst.feature_matrix(len(manifest))
        bins = discretize(apply_normalization(stats, feats), n_bins).tolist()
        nonzero = (feats != 0.0).tolist()
        cog = [
            [f"{name}={b}" for name, b, nz in zip(manifest, pos_bins, pos_nonzero) if nz]
            for pos_bins, pos_nonzero in zip(bins, nonzero)
        ]
    last = len(tokens) - 1
    for i, token in enumerate(tokens):
        feats = [
            "bias",
            f"w={token}",
            f"lc={lower[i]}",
            f"pre3={lower[i][:3]}",
            f"suf3={lower[i][-3:]}",
            f"prev_tag={START}",
            f"w-1={lower[i - 1] if i > 0 else START}",
            f"w+1={lower[i + 1] if i < last else END}",
        ]
        feats.extend(f"cog:{c}" for c in cog[i])
        if i > 0:
            feats.extend(f"cog-1:{c}" for c in cog[i - 1])
        if i < last:
            feats.extend(f"cog+1:{c}" for c in cog[i + 1])
        yield feats


@dataclass(eq=False)
class PerceptronTagger:
    tags: tuple[str, ...]
    features: tuple[str, ...]  # sorted; names the rows of ``weights``
    weights: np.ndarray  # (len(features), len(tags)) averaged weights
    manifest: tuple[str, ...]
    stats: NormalizationStats | None
    config: TaggerConfig

    @cached_property
    def _lookup(self) -> tuple[dict[str, int], np.ndarray]:
        """The row of each feature, and ``weights`` plus one zero row that
        stands for every feature the model does not know."""
        index = {f: i for i, f in enumerate(self.features)}
        return index, np.vstack([self.weights, np.zeros((1, len(self.tags)))])

    def tag(self, inst: Instance) -> tuple[str, ...]:
        index, table = self._lookup
        unknown = len(self.features)
        prev_rows = [index.get(f"prev_tag={t}", unknown) for t in self.tags]
        prev = index.get(f"prev_tag={START}", unknown)
        out = []
        for feats in _token_features(inst, self.manifest, self.stats, self.config.n_bins):
            ids = np.array([index.get(f, unknown) for f in feats], dtype=np.intp)
            ids[_PREV_SLOT] = prev
            # an axis-0 sum adds the rows one after another in feature order,
            # so the float scores equal those of a per-feature loop
            best = int(table[ids].sum(0).argmax())
            out.append(self.tags[best])
            prev = prev_rows[best]
        return tuple(out)

    def predict(self, instances: Sequence[Instance]) -> list[tuple[str, ...]]:
        return [repair_bio(self.tag(inst)) for inst in instances]

    def to_json(self) -> dict:
        """The model file's object, the weights a ``KeyedRows`` from each
        feature to its row (see ``cli._render_model``)."""
        return {
            "kind": "tagger",
            "tags": list(self.tags),
            "weights": KeyedRows(self.features, self.weights),
            "manifest": list(self.manifest),
            "stats": self.stats.to_json() if self.stats else None,
            "config": asdict(self.config),
        }

    @classmethod
    def from_json(cls, obj: dict, text: str | None = None) -> "PerceptronTagger":
        """The tagger in a file's object; ``text`` is the file's text, if
        known (see ``ingest._numbers``)."""
        tags = _as_names(obj["tags"], "tagger 'tags'", None)
        items = sorted(obj["weights"].items())
        return cls(
            tags=tags,
            features=tuple(f for f, _ in items),
            weights=_numbers([w for _, w in items], len(tags), "tagger weights", None, text),
            manifest=_as_names(obj["manifest"], "tagger 'manifest'", None),
            stats=NormalizationStats.from_json(obj["stats"]) if obj["stats"] else None,
            config=TaggerConfig(**obj["config"]),
        )


def train_tagger(
    dataset: Dataset, ids: Iterable[str], config: TaggerConfig = TaggerConfig()
) -> PerceptronTagger:
    """Averaged perceptron (Collins 2002) with greedy decoding and seeded
    epoch shuffles.

    Each training token's features become an array of feature ids once,
    before the first epoch. Scoring a token is then one gather and sum over
    the rows of a (features x tags) weight matrix, and a mistake updates the
    token's rows together. Averaging is lazy: a row's running total catches
    up only when the row changes, and once at the end. Training weights are
    integers, so every sum is exact in any order.
    """
    train = list(dataset.select(ids))
    if not train:
        raise ValidationError("empty training set")
    if not all(isinstance(inst.label, tuple) for inst in train):
        raise ConfigError("train_tagger requires a token-level dataset")
    _check_epochs(config.epochs)
    tags = tuple(sorted({t for inst in train for t in inst.label}))
    tag_index = {t: i for i, t in enumerate(tags)}
    manifest = dataset.manifest

    stats = None
    if manifest:
        stats = fit_normalization(
            [row for inst in train for row in inst.feature_matrix(len(manifest))]
        )
    index: dict[str, int] = {f"prev_tag={START}": 0}
    prev_ids = [index.setdefault(f"prev_tag={t}", len(index)) for t in tags]
    prepared = []
    for inst in train:
        token_ids = [
            np.array([index.setdefault(f, len(index)) for f in feats], dtype=np.intp)
            for feats in _token_features(inst, manifest, stats, config.n_bins)
        ]
        prepared.append((token_ids, [tag_index[t] for t in inst.label]))

    weights = np.zeros((len(index), len(tags)))
    totals = np.zeros_like(weights)
    stamps = np.zeros(len(index), dtype=np.int64)  # step of each row's last change
    step = 0
    rng = seeding.stream(config.seed, "tagger-shuffle")
    for _ in range(config.epochs):
        for idx in rng.permutation(len(prepared)):
            token_ids, golds = prepared[idx]
            prev = 0
            for ids, gold in zip(token_ids, golds):
                ids[_PREV_SLOT] = prev
                rows = weights[ids]
                pred = int(rows.sum(0).argmax())
                step += 1
                if pred != gold:
                    totals[ids] += (step - stamps[ids])[:, None] * rows
                    stamps[ids] = step
                    # a feature listed twice is bumped twice
                    np.add.at(weights, (ids, gold), 1.0)
                    np.add.at(weights, (ids, pred), -1.0)
                prev = prev_ids[pred]

    averaged = (totals + (step - stamps)[:, None] * weights) / max(step, 1)
    kept = np.any(averaged != 0.0, axis=1)
    features = sorted(f for f, i in index.items() if kept[i])
    return PerceptronTagger(
        tags=tags,
        features=tuple(features),
        weights=averaged[[index[f] for f in features]],
        manifest=manifest,
        stats=stats,
        config=config,
    )


# ---------------------------------------------------------------------------
# shared-trunk multi-head network


@dataclass(frozen=True)
class TrunkConfig:
    embed_dim: int = 32
    hidden_dim: int = 64
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError(
                f"embed_dim and hidden_dim must be >= 1, got {self.embed_dim} and {self.hidden_dim}"
            )


UNK = "<unk>"


class TrunkNet:
    """Token embeddings -> shared tanh layer -> one softmax head per task.

    Parameter groups draw from independent seed streams, so adding cognitive
    input dimensions or extra heads never perturbs the initialization of the
    groups shared with a smaller configuration.
    """

    def __init__(
        self,
        vocab: Sequence[str],
        cog_dim: int,
        heads: Mapping[str, int],
        config: TrunkConfig = TrunkConfig(),
    ):
        self.config = config
        self.vocab = (UNK,) + tuple(vocab)
        self.token_index = {t: i for i, t in enumerate(self.vocab)}
        self.cog_dim = cog_dim
        e, h, scale = config.embed_dim, config.hidden_dim, config.init_scale
        self.embed = seeding.stream(config.seed, "embed").normal(
            0.0, scale, size=(len(self.vocab), e)
        )
        w_tok = seeding.stream(config.seed, "trunk").normal(0.0, scale, size=(e, h))
        if cog_dim:
            w_cog = seeding.stream(config.seed, "trunk-cog").normal(
                0.0, scale, size=(cog_dim, h)
            )
            self.w1 = np.concatenate([w_tok, w_cog], axis=0)
        else:
            self.w1 = w_tok
        self.b1 = np.zeros(h)
        self.heads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name in heads:
            k = heads[name]
            w = seeding.stream(config.seed, "head", name).normal(0.0, scale, size=(h, k))
            self.heads[name] = (w, np.zeros(k))

    @property
    def n_vocab(self) -> int:
        return len(self.vocab)

    def token_ids(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.token_index.get(t, 0) for t in tokens], dtype=int)

    def _input(self, ids: np.ndarray, cog: np.ndarray | None) -> np.ndarray:
        x = self.embed[ids]
        if self.cog_dim:
            if cog is None:
                cog = np.zeros((len(ids), self.cog_dim))
            x = np.concatenate([x, cog], axis=1)
        return x

    def hidden(self, ids: np.ndarray, cog: np.ndarray | None) -> np.ndarray:
        """The shared layer's output for one sentence; a head's logits are
        ``hidden @ w + b``."""
        return np.tanh(self._input(ids, cog) @ self.w1 + self.b1)

    def forward_backward(
        self, ids: np.ndarray, cog: np.ndarray | None, targets: np.ndarray, head: str
    ) -> tuple[float, dict]:
        """Mean cross-entropy of the active head plus the exact gradients of
        the parameters one step changes.

        ``grads["rows"]`` lists the distinct embedding rows of ``ids`` and
        ``grads["embed"]`` holds their gradients, a repeated token's
        contributions summed in token order into a zero row.
        ``grads["heads"]`` holds the active head only. Every other embedding
        row and every other head has an exactly zero gradient, so the cost of
        a step does not grow with the vocabulary or the number of heads.
        """
        if head not in self.heads:
            raise ConfigError(f"no head named {head!r}")
        ids = np.asarray(ids, dtype=int)
        targets = np.asarray(targets, dtype=int)
        if cog is not None and self.cog_dim and cog.shape != (len(ids), self.cog_dim):
            raise ValidationError(
                f"cognitive input shape {cog.shape} != ({len(ids)}, {self.cog_dim})"
            )
        x = self._input(ids, cog)
        hidden = np.tanh(x @ self.w1 + self.b1)
        w, b = self.heads[head]
        probs = _softmax(hidden @ w + b)
        n = len(targets)
        gold = (np.arange(n), targets)
        loss = float(-np.log(np.maximum(probs[gold], 1e-300)).sum() / n)
        dlogits = probs  # becomes the gradient of the logits in place
        dlogits[gold] -= 1.0
        dlogits /= n
        d_z = (dlogits @ w.T) * (1.0 - hidden * hidden)
        d_tokens = d_z @ self.w1[: self.config.embed_dim].T
        slot: dict[int, int] = {}
        where = [slot.setdefault(t, len(slot)) for t in ids.tolist()]
        if len(slot) == len(where):
            # 0.0 + g, as a zero row gives (it turns -0.0 into +0.0)
            rows, d_rows = ids, d_tokens + 0.0
        else:
            rows = np.array(list(slot))
            d_rows = np.zeros((len(slot), self.config.embed_dim))
            np.add.at(d_rows, where, d_tokens)
        return loss, {
            "rows": rows,
            "embed": d_rows,
            "w1": x.T @ d_z,
            "b1": d_z.sum(axis=0),
            "heads": {head: (hidden.T @ dlogits, dlogits.sum(axis=0))},
        }

    def apply_gradients(self, grads: dict, lr: float, scale: float = 1.0) -> None:
        """One SGD step of ``lr * scale`` on the rows and heads in ``grads``,
        in place; every other parameter would only lose ``step * 0.0``."""
        step = lr * scale
        self.embed[grads["rows"]] -= step * grads["embed"]
        self.w1 -= step * grads["w1"]
        self.b1 -= step * grads["b1"]
        for name, (dw, db) in grads["heads"].items():
            w, b = self.heads[name]
            w -= step * dw
            b -= step * db

    def to_json(self) -> dict:
        """The network's object, its parameters left as arrays (see
        ``cli._render_model``)."""
        return {
            "kind": "trunknet",
            "vocab": list(self.vocab[1:]),
            "cog_dim": self.cog_dim,
            "config": asdict(self.config),
            "embed": self.embed,
            "w1": self.w1,
            "b1": self.b1,
            "heads": {name: {"w": w, "b": b} for name, (w, b) in self.heads.items()},
        }


def predict(model, dataset: Dataset, ids: Iterable[str]):
    """Deterministic predictions for a dataset section; manifest must match."""
    if tuple(model.manifest) != tuple(dataset.manifest):
        raise ConfigError(
            f"model manifest {model.manifest} != dataset manifest {dataset.manifest}"
        )
    instances = dataset.select(ids)
    return model.predict(instances)
