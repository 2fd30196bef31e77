import json
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from cognlp import seeding
from cognlp.aggregate import (
    SubjectAggregation,
    apply_normalization,
    average_subjects,
    discretize,
    fit_normalization,
)
from cognlp.cli import _render_model
from cognlp.datasets import Dataset, Instance, assemble
from cognlp.errors import ConfigError, ValidationError
from cognlp.gaze import gaze_table
from cognlp.ingest import Corpus, Sentence
from cognlp.models import (
    END,
    START,
    LogisticConfig,
    LogisticModel,
    PerceptronTagger,
    TaggerConfig,
    TrunkConfig,
    TrunkNet,
    _softmax,
    predict,
    repair_bio,
    train_logistic,
    train_tagger,
)
from cognlp.mtl import AuxTaskSpec, FrequencyLexicon, build_tasks, train_multitask
from cognlp.synth import SynthSpec, generate_synthetic


def sentiment_corpus():
    return Corpus(
        "sentiment2",
        (
            Sentence("t1", ("good", "movie"), ("pos",)),
            Sentence("t2", ("bad", "film"), ("neg",)),
            Sentence("t3", ("great", "plot"), ("pos",)),
            Sentence("t4", ("awful", "acting"), ("neg",)),
        ),
    )


def all_ids(corpus):
    return [s.id for s in corpus.sentences]


def test_logistic_fits_separable_toy():
    corpus = sentiment_corpus()
    dataset = assemble(corpus)
    model = train_logistic(dataset, all_ids(corpus), LogisticConfig(lr=1.0, epochs=200))
    preds = model.predict(dataset.instances)
    assert preds == [i.label for i in dataset.instances]
    # monitored cross-entropy trends down
    history = model.history
    assert np.mean(history[len(history) // 2 :]) <= np.mean(history[: len(history) // 2])
    assert history[-1] < history[0]


def test_logistic_probabilities_sum_to_one():
    corpus = sentiment_corpus()
    dataset = assemble(corpus)
    model = train_logistic(dataset, all_ids(corpus), LogisticConfig(epochs=5))
    for inst in dataset.instances:
        assert abs(_softmax(model.scores(inst)).sum() - 1.0) < 1e-9


def test_logistic_duplicated_training_set_same_decision_function():
    corpus = sentiment_corpus()
    doubled = Corpus(
        "sentiment2",
        corpus.sentences
        + tuple(Sentence(s.id + "d", s.tokens, s.labels) for s in corpus.sentences),
    )
    config = LogisticConfig(lr=0.5, epochs=600, l2=0.01, seed=0)
    m1 = train_logistic(assemble(corpus), all_ids(corpus), config)
    m2 = train_logistic(assemble(doubled), all_ids(doubled), config)
    w2 = {t: m2.weights[:, i] for i, t in enumerate(m2.vocab)}
    gap = max(abs(m1.weights[:, i] - w2[t]).max() for i, t in enumerate(m1.vocab))
    assert gap < 0.05
    probes = [
        Instance("p", tokens, "pos")
        for tokens in (("good",), ("awful",), ("movie", "plot"), ("film", "acting"), ("great", "good"))
    ]
    assert m1.predict(probes) == m2.predict(probes)


def test_logistic_errors_and_determinism():
    corpus = sentiment_corpus()
    dataset = assemble(corpus)
    with pytest.raises(ValidationError):
        train_logistic(dataset, [], LogisticConfig())
    config = LogisticConfig(epochs=20, seed=9)
    a = train_logistic(dataset, all_ids(corpus), config)
    b = train_logistic(dataset, all_ids(corpus), config)
    assert _render_model(a) == _render_model(b)
    again = LogisticModel.from_json(json.loads(_render_model(a)))
    assert again.predict(dataset.instances) == a.predict(dataset.instances)


def test_logistic_zero_cognitive_dims_match_baseline():
    corpus = sentiment_corpus()
    base = assemble(corpus)
    instances = tuple(
        Instance(i.sentence_id, i.tokens, i.label, np.zeros((2, 3)), np.zeros(3))
        for i in base.instances
    )
    padded = Dataset("sentiment2", ("g/a", "g/b", "g/c"), instances)
    config = LogisticConfig(epochs=30, seed=1)
    mb = train_logistic(base, all_ids(corpus), config)
    mp = train_logistic(padded, all_ids(corpus), config)
    assert predict(mb, base, all_ids(corpus)) == predict(mp, padded, all_ids(corpus))
    # the cognitive weight block never moved
    assert np.all(mp.weights[:, len(mp.vocab) :] == 0.0)


def test_missing_sentence_vector_is_one_input_in_training_and_prediction():
    """An instance without a sentence vector stands for the zero vector,
    normalized by the fitted range, in training as in prediction: with
    training range [-1, 0] both feed it 1.0, and the model equals one
    trained with an explicit zero vector."""
    corpus = sentiment_corpus()
    vectors = {"t1": np.array([-1.0]), "t2": None, "t3": np.array([-0.5]), "t4": None}
    instances = [
        Instance(i.sentence_id, i.tokens, i.label, None, vectors[i.sentence_id])
        for i in assemble(corpus).instances
    ]
    missing = Dataset("sentiment2", ("g/x",), tuple(instances))
    zeros = Dataset("sentiment2", ("g/x",), tuple(
        Instance(i.sentence_id, i.tokens, i.label, None, np.zeros(1))
        if i.sentence_vector is None else i
        for i in instances
    ))
    config = LogisticConfig(epochs=30, seed=1)
    model = train_logistic(missing, all_ids(corpus), config)
    assert list(model.stats.mins) == [-1.0] and list(model.stats.maxs) == [0.0]
    same = train_logistic(zeros, all_ids(corpus), config)
    assert model.weights.tobytes() == same.weights.tobytes()
    assert model.bias.tobytes() == same.bias.tobytes()
    assert model.history == same.history
    assert np.array_equal(model.scores(instances[1]), model.scores(zeros.instances[1]))
    assert np.array_equal(model.scores(instances[1]), same.scores(zeros.instances[1]))


def ner_dataset(n=6):
    return Dataset(
        "ner",
        (),
        tuple(Instance(f"s{i}", ("a", "b", "c"), ("O", "B-PER", "O")) for i in range(n)),
    )


def test_tagger_memorizes_single_sentence():
    corpus = Corpus("ner", (Sentence("s1", ("John", "slept", "in", "Rome"), ("B-PER", "O", "O", "B-LOC")),))
    dataset = assemble(corpus)
    tagger = train_tagger(dataset, ["s1"], TaggerConfig(epochs=5, seed=0))
    assert predict(tagger, dataset, ["s1"]) == [("B-PER", "O", "O", "B-LOC")]


def test_tagger_all_o_corpus():
    dataset = Dataset(
        "ner", (), tuple(Instance(f"s{i}", ("x", "y"), ("O", "O")) for i in range(4))
    )
    tagger = train_tagger(dataset, [f"s{i}" for i in range(4)], TaggerConfig(epochs=2))
    assert predict(tagger, dataset, [f"s{i}" for i in range(4)]) == [("O", "O")] * 4


def test_tagger_zero_cognitive_bins_match_baseline():
    base = ner_dataset()
    ids = base.sentence_ids()
    padded = Dataset(
        "ner",
        ("g/x", "g/y"),
        tuple(
            Instance(i.sentence_id, i.tokens, i.label, np.zeros((3, 2)))
            for i in base.instances
        ),
    )
    config = TaggerConfig(epochs=3, seed=3)
    t_base = train_tagger(base, ids, config)
    t_pad = train_tagger(padded, ids, config)
    assert predict(t_base, base, ids) == predict(t_pad, padded, ids)
    assert sorted(t_base.features) == sorted(t_pad.features)


def test_tagger_deterministic_serialization():
    dataset = ner_dataset()
    ids = dataset.sentence_ids()
    a = train_tagger(dataset, ids, TaggerConfig(epochs=3, seed=7))
    b = train_tagger(dataset, ids, TaggerConfig(epochs=3, seed=7))
    assert _render_model(a) == _render_model(b)
    again = PerceptronTagger.from_json(json.loads(_render_model(a)))
    assert predict(again, dataset, ids) == predict(a, dataset, ids)
    with pytest.raises(ValidationError):
        train_tagger(dataset, [], TaggerConfig())


def test_repair_bio():
    assert repair_bio(("I-PER", "I-PER", "O", "I-LOC")) == ("B-PER", "I-PER", "O", "B-LOC")
    assert repair_bio(("B-PER", "I-LOC")) == ("B-PER", "B-LOC")
    assert repair_bio(("O", "B-X", "I-X")) == ("O", "B-X", "I-X")


def test_predict_contracts():
    dataset = ner_dataset()
    ids = dataset.sentence_ids()
    tagger = train_tagger(dataset, ids, TaggerConfig(epochs=2))
    assert predict(tagger, dataset, []) == []
    assert predict(tagger, dataset, ids) == predict(tagger, dataset, ids)
    other = Dataset("ner", ("g/x",), dataset.instances)
    with pytest.raises(ConfigError):
        predict(tagger, other, ids)


def trunk_logits(net, ids, cog, head):
    """``head``'s logits for one sentence, from the trunk's hidden layer."""
    w, b = net.heads[head]
    return net.hidden(ids, cog) @ w + b


def trunk_loss(net, ids, cog, targets, head):
    """Mean cross-entropy of ``head`` on one sentence, recomputed from the
    logits: the function whose finite differences check the gradients."""
    logits = trunk_logits(net, ids, cog, head)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(logz - shifted[np.arange(len(targets)), targets]))


def dense_gradients(net, grads):
    """Full-size gradients from a trunk step's: the listed embedding rows
    scattered into zeros, and zeros for every head the step leaves out."""
    embed = np.zeros_like(net.embed)
    embed[grads["rows"]] = grads["embed"]
    heads = {
        name: grads["heads"].get(name, (np.zeros_like(w), np.zeros_like(b)))
        for name, (w, b) in net.heads.items()
    }
    return {"embed": embed, "w1": grads["w1"], "b1": grads["b1"], "heads": heads}


def numeric_gradient_check(net, ids, cog, targets, head, eps=1e-5):
    _, grads = net.forward_backward(ids, cog, targets, head)
    grads = dense_gradients(net, grads)
    worst = 0.0

    def sweep(arr, grad):
        nonlocal worst
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + eps
            up = trunk_loss(net, ids, cog, targets, head)
            arr[idx] = old - eps
            down = trunk_loss(net, ids, cog, targets, head)
            arr[idx] = old
            numeric = (up - down) / (2 * eps)
            worst = max(worst, abs(numeric - grad[idx]) / max(abs(numeric) + abs(grad[idx]), 1e-8))

    sweep(net.embed, grads["embed"])
    sweep(net.w1, grads["w1"])
    sweep(net.b1, grads["b1"])
    for name, (w, b) in net.heads.items():
        gw, gb = grads["heads"][name]
        sweep(w, gw)
        sweep(b, gb)
    return worst


def test_trunknet_gradients_small_config():
    rng = np.random.default_rng(0)
    net = TrunkNet(
        [f"w{i}" for i in range(8)],
        3,
        {"main": 4, "aux": 3},
        TrunkConfig(embed_dim=4, hidden_dim=5, seed=1),
    )
    ids = net.token_ids(["w1", "w3", "w1", "w7"])
    cog = rng.normal(size=(4, 3))
    targets = np.array([0, 2, 1, 3])
    assert numeric_gradient_check(net, ids, cog, targets, "main") < 1e-4


def test_trunknet_inactive_head_zero_and_uniform_loss():
    net = TrunkNet(["a", "b"], 0, {"main": 4, "aux": 7}, TrunkConfig(embed_dim=3, hidden_dim=3))
    ids = net.token_ids(["a", "b"])
    targets = np.array([1, 2])
    _, grads = net.forward_backward(ids, None, targets, "main")
    assert list(grads["heads"]) == ["main"]
    aux = [a.tobytes() for a in net.heads["aux"]]
    net.apply_gradients(grads, lr=0.5)
    assert [a.tobytes() for a in net.heads["aux"]] == aux
    net.heads["main"] = (np.zeros_like(net.heads["main"][0]), np.zeros_like(net.heads["main"][1]))
    assert trunk_loss(net, ids, None, targets, "main") == pytest.approx(np.log(4), abs=1e-12)
    with pytest.raises(ConfigError):
        net.forward_backward(ids, None, targets, "missing")


def test_trunknet_parameter_count_formula():
    net = TrunkNet(
        [f"w{i}" for i in range(10)], 3, {"main": 4, "aux": 5},
        TrunkConfig(embed_dim=5, hidden_dim=6),
    )
    v, e, h, c = net.n_vocab, 5, 6, 3
    arrays = [net.embed, net.w1, net.b1, *(a for head in net.heads.values() for a in head)]
    assert sum(a.size for a in arrays) == v * e + (e + c) * h + h + (h * 4 + 4) + (h * 5 + 5)


def test_trunknet_shared_groups_independent_of_extras():
    base = TrunkNet(["a", "b"], 0, {"main": 3}, TrunkConfig(embed_dim=4, hidden_dim=5, seed=2))
    wider = TrunkNet(["a", "b"], 6, {"main": 3, "aux": 9}, TrunkConfig(embed_dim=4, hidden_dim=5, seed=2))
    assert np.array_equal(base.embed, wider.embed)
    assert np.array_equal(base.w1, wider.w1[:4])
    assert np.array_equal(base.heads["main"][0], wider.heads["main"][0])


# ---------------------------------------------------------------------------
# reference tagger: the dict-of-vectors averaged perceptron with one ``bump``
# per feature that the integer-indexed train_tagger and PerceptronTagger.tag
# replaced, kept verbatim as the oracle


def _reference_features(tokens, i, prev_tag, manifest, bins, nonzero):
    token = tokens[i]
    lower = token.lower()
    feats = [
        "bias",
        f"w={token}",
        f"lc={lower}",
        f"pre3={lower[:3]}",
        f"suf3={lower[-3:]}",
        f"prev_tag={prev_tag}",
        f"w-1={tokens[i - 1].lower() if i > 0 else START}",
        f"w+1={tokens[i + 1].lower() if i + 1 < len(tokens) else END}",
    ]
    if bins is not None:
        for rel, pos in (("", i), ("-1", i - 1), ("+1", i + 1)):
            if 0 <= pos < len(tokens):
                for d, name in enumerate(manifest):
                    if nonzero[pos, d]:
                        feats.append(f"cog{rel}:{name}={bins[pos, d]}")
    return feats


@dataclass(eq=False)
class _ReferenceTagger:
    tags: tuple
    weights: dict
    manifest: tuple
    stats: object
    config: TaggerConfig

    def _instance_bins(self, inst):
        if not self.manifest:
            return None, None
        feats = (
            inst.features
            if inst.features is not None
            else np.zeros((len(inst.tokens), len(self.manifest)))
        )
        normalized = apply_normalization(self.stats, feats)
        return discretize(normalized, self.config.n_bins), feats != 0.0

    def tag(self, inst):
        bins, nonzero = self._instance_bins(inst)
        prev = START
        out = []
        for i in range(len(inst.tokens)):
            feats = _reference_features(inst.tokens, i, prev, self.manifest, bins, nonzero)
            scores = np.zeros(len(self.tags))
            for f in feats:
                w = self.weights.get(f)
                if w is not None:
                    scores += w
            prev = self.tags[int(np.argmax(scores))]
            out.append(prev)
        return tuple(out)

    def predict(self, instances):
        return [repair_bio(self.tag(inst)) for inst in instances]

    def to_json(self):
        return {
            "kind": "tagger",
            "tags": list(self.tags),
            "weights": {
                f: [float(v) for v in w] for f, w in sorted(self.weights.items())
            },
            "manifest": list(self.manifest),
            "stats": self.stats.to_json() if self.stats else None,
            "config": asdict(self.config),
        }


def _reference_train_tagger(dataset, ids, config=TaggerConfig()):
    train = list(dataset.select(ids))
    if not train:
        raise ValidationError("empty training set")
    if not all(isinstance(inst.label, tuple) for inst in train):
        raise ConfigError("train_tagger requires a token-level dataset")
    tags = tuple(sorted({t for inst in train for t in inst.label}))
    tag_index = {t: i for i, t in enumerate(tags)}
    n_tags = len(tags)

    stats = None
    if dataset.manifest:
        stats = fit_normalization(
            [
                row
                for inst in train
                for row in (
                    inst.features
                    if inst.features is not None
                    else np.zeros((len(inst.tokens), len(dataset.manifest)))
                )
            ]
        )
    prepared = []
    for inst in train:
        if stats is not None:
            feats = (
                inst.features
                if inst.features is not None
                else np.zeros((len(inst.tokens), len(dataset.manifest)))
            )
            normalized = apply_normalization(stats, feats)
            bins = discretize(normalized, config.n_bins)
            nonzero = feats != 0.0
        else:
            bins = nonzero = None
        prepared.append((inst, bins, nonzero))

    weights = {}
    totals = {}
    stamps = {}
    step = 0

    def bump(feature, gold_i, pred_i):
        w = weights.get(feature)
        if w is None:
            w = weights[feature] = np.zeros(n_tags)
            totals[feature] = np.zeros(n_tags)
        else:
            totals[feature] += (step - stamps[feature]) * w
        stamps[feature] = step
        w[gold_i] += 1.0
        w[pred_i] -= 1.0

    rng = seeding.stream(config.seed, "tagger-shuffle")
    for _ in range(config.epochs):
        order = rng.permutation(len(prepared))
        for idx in order:
            inst, bins, nonzero = prepared[idx]
            prev = START
            for i, gold in enumerate(inst.label):
                feats = _reference_features(
                    inst.tokens, i, prev, dataset.manifest, bins, nonzero
                )
                scores = np.zeros(n_tags)
                for f in feats:
                    w = weights.get(f)
                    if w is not None:
                        scores += w
                pred_i = int(np.argmax(scores))
                pred = tags[pred_i]
                step += 1
                if pred != gold:
                    gold_i = tag_index[gold]
                    for f in feats:
                        bump(f, gold_i, pred_i)
                prev = pred

    averaged = {}
    denom = max(step, 1)
    for f, w in weights.items():
        total = totals[f] + (step - stamps[f]) * w
        avg = total / denom
        if np.any(avg != 0.0):
            averaged[f] = avg
    return _ReferenceTagger(
        tags=tags,
        weights=averaged,
        manifest=dataset.manifest,
        stats=stats,
        config=config,
    )


def _synthetic_ner(seed, n_sentences=40, gaze=False):
    result = generate_synthetic(
        SynthSpec(task="ner", n_sentences=n_sentences, n_subjects=2), seed=seed
    )
    if not gaze:
        return assemble(result.corpus)
    table = gaze_table(result.corpus, result.fixations)
    return assemble(
        result.corpus,
        {"gaze": average_subjects(table, SubjectAggregation.mean_all())},
        add_gaze_neighbors=True,
    )


def _assert_matches_reference(dataset, train_ids, config):
    model = train_tagger(dataset, train_ids, config)
    reference = _reference_train_tagger(dataset, train_ids, config)
    text = _render_model(model)
    assert text == _render_model(reference)
    expected = reference.predict(dataset.instances)
    assert model.predict(dataset.instances) == expected
    loaded = PerceptronTagger.from_json(json.loads(text))
    assert _render_model(loaded) == text
    assert loaded.predict(dataset.instances) == expected


@pytest.mark.parametrize("gaze", [False, True])
@pytest.mark.parametrize(
    "seed, epochs, n_bins", [(0, 1, 10), (3, 3, 2), (11, 2, 5)]
)
def test_tagger_matches_reference_on_synthetic_ner(gaze, seed, epochs, n_bins):
    dataset = _synthetic_ner(seed, gaze=gaze)
    ids = dataset.sentence_ids()
    train_ids = ids[: len(ids) * 4 // 5]
    _assert_matches_reference(dataset, train_ids, TaggerConfig(epochs, seed, n_bins))


def test_tagger_matches_reference_on_all_o_and_tie_heavy_corpora():
    all_o = Dataset(
        "ner", (), tuple(Instance(f"s{i}", ("x", "y"), ("O", "O")) for i in range(4))
    )
    _assert_matches_reference(all_o, all_o.sentence_ids(), TaggerConfig(epochs=2))
    # the same tokens under conflicting tags keep the scores tied, so every
    # argmax falls back to the first maximal tag
    ties = Dataset(
        "ner",
        (),
        tuple(
            Instance(f"t{i}", ("a", "a"), tags)
            for i, tags in enumerate(
                [("B-X", "O"), ("O", "B-Y"), ("B-Y", "I-Y"), ("O", "O"), ("B-X", "I-X")]
            )
        ),
    )
    for seed in range(4):
        _assert_matches_reference(ties, ties.sentence_ids(), TaggerConfig(3, seed, 2))


def test_tagger_matches_reference_when_the_manifest_repeats_a_name():
    # equal bins under one name give one feature string twice per token,
    # which the reference bumps twice on every mistake
    rng = np.random.default_rng(5)
    instances = []
    for i in range(12):
        n = int(rng.integers(2, 6))
        column = rng.integers(0, 3, size=n).astype(float)
        feats = np.stack([column, column, rng.integers(0, 2, size=n)], axis=1)
        tokens = tuple(str(t) for t in rng.choice(["a", "b", "c"], size=n))
        tags = repair_bio([str(t) for t in rng.choice(["O", "B-PER", "O"], size=n)])
        instances.append(Instance(f"s{i}", tokens, tags, feats))
    dataset = Dataset("ner", ("g/x", "g/x", "g/y"), tuple(instances))
    for seed, n_bins in ((0, 2), (1, 3)):
        _assert_matches_reference(dataset, dataset.sentence_ids(), TaggerConfig(4, seed, n_bins))


def test_gather_sum_adds_rows_in_order():
    # PerceptronTagger.tag relies on an axis-0 sum of gathered rows adding
    # them one after another, as the per-feature loop did
    rng = np.random.default_rng(0)
    for n_tags in (2, 3, 5, 9, 17):
        table = rng.normal(size=(300, n_tags)) / rng.integers(1, 1000, size=(300, 1))
        for k in (1, 2, 7, 8, 9, 40, 130):
            ids = rng.integers(0, 300, size=k)
            expected = np.zeros(n_tags)
            for i in ids:
                expected += table[i]
            assert table[ids].sum(0).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# reference trunk step: the dense TrunkNet.forward_backward/apply_gradients
# (a V x E embedding gradient, zero arrays for every inactive head) that the
# touched-row, active-head step replaced, kept verbatim as the oracle


def _reference_forward_backward(self, ids, cog, targets, head):
    """Mean cross-entropy of the active head plus exact gradients.

    Inactive heads appear in the gradient dict with zero arrays.
    """
    if head not in self.heads:
        raise ConfigError(f"no head named {head!r}")
    targets = np.asarray(targets, dtype=int)
    if cog is not None and self.cog_dim and cog.shape != (len(ids), self.cog_dim):
        raise ValidationError(
            f"cognitive input shape {cog.shape} != ({len(ids)}, {self.cog_dim})"
        )
    x = self._input(ids, cog)
    hidden = np.tanh(x @ self.w1 + self.b1)
    w, b = self.heads[head]
    logits = hidden @ w + b
    probs = _softmax(logits)
    n = len(targets)
    loss = float(
        -np.mean(np.log(np.maximum(probs[np.arange(n), targets], 1e-300)))
    )
    dlogits = probs.copy()
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    d_head_w = hidden.T @ dlogits
    d_head_b = dlogits.sum(axis=0)
    d_hidden = dlogits @ w.T
    d_z = d_hidden * (1.0 - hidden * hidden)
    d_w1 = x.T @ d_z
    d_b1 = d_z.sum(axis=0)
    d_x = d_z @ self.w1.T
    d_embed = np.zeros_like(self.embed)
    np.add.at(d_embed, ids, d_x[:, : self.config.embed_dim])
    head_grads = {
        name: (
            (d_head_w, d_head_b)
            if name == head
            else (np.zeros_like(hw), np.zeros_like(hb))
        )
        for name, (hw, hb) in self.heads.items()
    }
    return loss, {
        "embed": d_embed,
        "w1": d_w1,
        "b1": d_b1,
        "heads": head_grads,
    }


def _reference_apply_gradients(self, grads, lr, scale=1.0):
    step = lr * scale
    self.embed -= step * grads["embed"]
    self.w1 -= step * grads["w1"]
    self.b1 -= step * grads["b1"]
    for name, (dw, db) in grads["heads"].items():
        w, b = self.heads[name]
        w -= step * dw
        b -= step * db


def _net_json(net):
    return _render_model(net)


# (n_vocab, cog_dim, heads, embed_dim, hidden_dim, sentence length range);
# a small vocabulary makes repeated tokens in one sentence common
TRUNK_CASES = {
    "repeats": (4, 0, {"main": 3}, 4, 5, (2, 9)),
    "cog": (30, 3, {"main": 5, "aux": 4}, 6, 7, (1, 8)),
    "heads": (60, 0, {"main": 9, "TRT": 10, "word_frequency": 10, "EEG_t": 4}, 8, 16, (3, 12)),
    "cog-repeats": (6, 5, {"main": 3, "aux": 2, "aux2": 6}, 3, 4, (1, 10)),
}


@pytest.mark.parametrize("case", sorted(TRUNK_CASES))
def test_trunk_step_matches_dense_reference(case):
    n_vocab, cog_dim, heads, e, h, (lo, hi) = TRUNK_CASES[case]
    config = TrunkConfig(embed_dim=e, hidden_dim=h, seed=7)
    vocab = [f"w{i}" for i in range(n_vocab)]
    net, reference = (TrunkNet(vocab, cog_dim, heads, config) for _ in range(2))
    names = sorted(heads)
    rng = np.random.default_rng(len(case))
    repeated = 0
    for step in range(400):
        length = int(rng.integers(lo, hi + 1))
        # ids include 0, the unknown-token row
        ids = rng.integers(0, n_vocab + 1, size=length)
        repeated += len(set(ids.tolist())) < length
        cog = rng.normal(size=(length, cog_dim)) if cog_dim else None
        # the first head comes up most, as a main task repeated as an
        # auxiliary shares its head; scale 0.0 stands for a zero-weight task
        head = names[0] if step % 3 == 0 else names[int(rng.integers(len(names)))]
        scale = (1.0, 0.5, 0.0, 2.0)[step % 4]
        targets = rng.integers(heads[head], size=length)
        loss, grads = net.forward_backward(ids, cog, targets, head)
        ref_loss, ref_grads = _reference_forward_backward(reference, ids, cog, targets, head)
        assert loss == ref_loss
        dense = dense_gradients(net, grads)
        for key in ("embed", "w1", "b1"):
            assert dense[key].tobytes() == ref_grads[key].tobytes()
        for name in names:
            for got, want in zip(dense["heads"][name], ref_grads["heads"][name]):
                assert got.tobytes() == want.tobytes()
        net.apply_gradients(grads, 0.1, scale=scale)
        _reference_apply_gradients(reference, ref_grads, 0.1, scale=scale)
    assert repeated > 20
    assert _net_json(net) == _net_json(reference)


def test_apply_gradients_leaves_untouched_rows_and_inactive_heads_unchanged():
    net = TrunkNet(
        [f"w{i}" for i in range(20)], 2, {"main": 3, "aux": 4, "aux2": 5},
        TrunkConfig(embed_dim=4, hidden_dim=6, seed=3),
    )
    ids = net.token_ids(["w3", "w7", "w3", "zzz", "w12"])
    touched = sorted(set(ids.tolist()))
    before = net.embed.copy()
    heads = {name: [a.tobytes() for a in arrays] for name, arrays in net.heads.items()}
    cog = np.arange(10.0).reshape(5, 2)
    _, grads = net.forward_backward(ids, cog, np.array([0, 1, 2, 3, 0]), "aux")
    assert sorted(grads["rows"].tolist()) == touched
    assert list(grads["heads"]) == ["aux"]
    net.apply_gradients(grads, lr=0.3)
    untouched = np.setdiff1d(np.arange(net.n_vocab), touched)
    assert net.embed[untouched].tobytes() == before[untouched].tobytes()
    assert not np.array_equal(net.embed[touched], before[touched])
    for name in ("main", "aux2"):
        assert [a.tobytes() for a in net.heads[name]] == heads[name]
    assert [a.tobytes() for a in net.heads["aux"]] != heads["aux"]


def _multitask_json(dataset, seed, features_as_input):
    ids = dataset.sentence_ids()
    tasks = build_tasks(
        dataset,
        # the second TRT task shares the first one's head
        [AuxTaskSpec("TRT"), AuxTaskSpec("word_frequency", n_bins=4),
         AuxTaskSpec("NFIX", weight=0.0), AuxTaskSpec("FFD", n_bins=3, weight=0.5),
         AuxTaskSpec("TRT", weight=0.5)],
        freq=FrequencyLexicon.from_corpus_tokens(
            t for inst in dataset.instances for t in inst.tokens
        ),
    )
    model = train_multitask(
        dataset,
        ids[: len(ids) * 4 // 5],
        tasks,
        net_config=TrunkConfig(embed_dim=8, hidden_dim=16, seed=seed),
        epochs=2,
        seed=seed,
        use_features_as_input=features_as_input,
    )
    return _render_model(model)


@pytest.mark.parametrize("features_as_input", [False, True])
@pytest.mark.parametrize("seed", [0, 5])
def test_train_multitask_matches_dense_reference(monkeypatch, seed, features_as_input):
    dataset = _synthetic_ner(seed, gaze=True)
    text = _multitask_json(dataset, seed, features_as_input)
    monkeypatch.setattr(TrunkNet, "forward_backward", _reference_forward_backward)
    monkeypatch.setattr(TrunkNet, "apply_gradients", _reference_apply_gradients)
    assert _multitask_json(dataset, seed, features_as_input) == text
