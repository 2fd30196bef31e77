import tracemalloc
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import pytest

from cognlp.errors import ConfigError, ValidationError
from cognlp.evaluation import (
    _BLOCK,
    SCORERS,
    Metrics,
    RunMetrics,
    _check_rounds,
    _flatten,
    _mask_blocks,
    _replicate_mask,
    bonferroni,
    extract_entities,
    metrics,
    permutation_test,
    report,
)

# ---------------------------------------------------------------------------
# oracles: the direct scorers that the count rows of evaluation.metrics and
# permutation_test replaced, and the rescoring paths, kept here to check
# them against


@dataclass(frozen=True)
class OracleMetrics:
    precision: float
    recall: float
    f1: float
    accuracy: float | None = None
    support: Mapping[str, int] = field(default_factory=dict)


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if (p + r) > 0 else 0.0


def entity_prf1(
    gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]]
) -> OracleMetrics:
    """Exact span+type match precision/recall/F1 in percent.

    Precision is 0 by convention when nothing is predicted; partially
    overlapping spans count as wrong.
    """
    if len(gold) != len(pred):
        raise ValidationError(f"{len(gold)} gold vs {len(pred)} predicted sentences")
    n_gold = n_pred = n_correct = 0
    n_tokens = n_token_match = 0
    for g_tags, p_tags in zip(gold, pred):
        if len(g_tags) != len(p_tags):
            raise ValidationError("tag sequence length mismatch")
        g_spans = extract_entities(g_tags)
        p_spans = extract_entities(p_tags)
        n_gold += len(g_spans)
        n_pred += len(p_spans)
        n_correct += len(g_spans & p_spans)
        n_tokens += len(g_tags)
        n_token_match += sum(1 for a, b in zip(g_tags, p_tags) if a == b)
    p = 100.0 * n_correct / n_pred if n_pred else 0.0
    r = 100.0 * n_correct / n_gold if n_gold else 0.0
    return OracleMetrics(
        precision=p,
        recall=r,
        f1=_f1(p, r),
        accuracy=100.0 * n_token_match / n_tokens if n_tokens else None,
        support={"gold": n_gold, "predicted": n_pred, "correct": n_correct},
    )


def accuracy(gold: Sequence, pred: Sequence) -> float:
    """Percent of matching positions."""
    if len(gold) != len(pred):
        raise ValidationError(f"{len(gold)} gold vs {len(pred)} predictions")
    if not gold:
        raise ValidationError("cannot score an empty collection")
    return 100.0 * sum(1 for g, p in zip(gold, pred) if g == p) / len(gold)


def class_prf1(gold: Sequence[str], pred: Sequence[str]) -> OracleMetrics:
    """Macro-averaged P/R/F1 over the classes present in the gold labels."""
    if len(gold) != len(pred):
        raise ValidationError(f"{len(gold)} gold vs {len(pred)} predictions")
    if not gold:
        raise ValidationError("cannot score an empty collection")
    classes = sorted(set(gold))
    ps, rs, fs = [], [], []
    for c in classes:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        n_pred = sum(1 for p in pred if p == c)
        n_gold = sum(1 for g in gold if g == c)
        p = 100.0 * tp / n_pred if n_pred else 0.0
        r = 100.0 * tp / n_gold if n_gold else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(_f1(p, r))
    return OracleMetrics(
        precision=float(np.mean(ps)),
        recall=float(np.mean(rs)),
        f1=float(np.mean(fs)),
        accuracy=accuracy(gold, pred),
        support={c: sum(1 for g in gold if g == c) for c in classes},
    )


def entity_f1_scorer(gold, pred):
    return entity_prf1(gold, pred).f1


def accuracy_scorer(gold, pred):
    return accuracy(_flatten(gold), _flatten(pred))


def macro_f1_scorer(gold, pred):
    return class_prf1(_flatten(gold), _flatten(pred)).f1


#: The callable scorer of each name in ``SCORERS``.
RESCORERS = {
    "entity_f1": entity_f1_scorer,
    "accuracy": accuracy_scorer,
    "macro_f1": macro_f1_scorer,
}


def rescoring_test(preds_a, preds_b, gold, scorer, n_rounds=10000, seed=0):
    """The permutation test with a callable ``scorer(gold, preds)`` applied
    to every replicate."""
    if len(preds_a) != len(preds_b) or len(preds_a) != len(gold):
        raise ValidationError("misaligned prediction/gold collections")
    if not preds_a:
        raise ValidationError("nothing to compare")
    _check_rounds(n_rounds)
    n = len(gold)
    observed = abs(scorer(gold, preds_a) - scorer(gold, preds_b))
    exceed = 0
    for r in range(n_rounds):
        mask = _replicate_mask(seed, r, n)
        swapped_a = [preds_b[i] if mask[i] else preds_a[i] for i in range(n)]
        swapped_b = [preds_a[i] if mask[i] else preds_b[i] for i in range(n)]
        delta = abs(scorer(gold, swapped_a) - scorer(gold, swapped_b))
        if delta >= observed:
            exceed += 1
    return (1 + exceed) / (1 + n_rounds)


def permutation_test_scores(scores_a, scores_b, n_rounds=10000, seed=0):
    """The same test for scorers that are means of per-sentence scores.

    Swapping a sentence's outputs swaps its per-sentence score, so the
    replicate statistic reduces to a mean over masked vectors; masks are
    drawn exactly as in :func:`rescoring_test`, a block at a time. A mean
    along the contiguous last axis sums each row as it sums one vector, so
    p-values equal those of a per-replicate loop.
    """
    scores_a = np.asarray(scores_a, dtype=float)
    scores_b = np.asarray(scores_b, dtype=float)
    if scores_a.shape != scores_b.shape or scores_a.ndim != 1:
        raise ValidationError("score vectors must be 1-D and aligned")
    if scores_a.size == 0:
        raise ValidationError("nothing to compare")
    _check_rounds(n_rounds)
    n = scores_a.size
    observed = abs(scores_a.mean() - scores_b.mean())
    exceed = 0
    for masks in _mask_blocks(seed, n_rounds, n):
        mean_a = np.where(masks, scores_b, scores_a).mean(axis=1)
        mean_b = np.where(masks, scores_a, scores_b).mean(axis=1)
        exceed += int(np.count_nonzero(np.abs(mean_a - mean_b) >= observed))
    return (1 + exceed) / (1 + n_rounds)


# ---------------------------------------------------------------------------
# tests


def test_extract_entities():
    assert extract_entities(["B-PER", "O"]) == {(0, 1, "PER")}
    assert extract_entities(["B-LOC", "I-LOC", "O", "B-LOC"]) == {(0, 2, "LOC"), (3, 4, "LOC")}
    assert extract_entities(["O", "I-PER"]) == {(1, 2, "PER")}  # stray I starts a span
    assert extract_entities(["B-PER", "B-PER"]) == {(0, 1, "PER"), (1, 2, "PER")}
    assert extract_entities(["O", "O"]) == set()


def test_entity_metrics_exact_match():
    m = metrics([["B-PER", "O"]], [["B-PER", "O"]], "entity_f1")
    assert (m.precision, m.recall, m.f1, m.accuracy) == (100.0, 100.0, 100.0, 100.0)


def test_entity_metrics_empty_prediction_convention():
    m = metrics([["B-PER", "O"]], [["O", "O"]], "entity_f1")
    assert (m.precision, m.recall, m.f1, m.accuracy) == (0.0, 0.0, 0.0, 50.0)


def test_entity_metrics_partial_overlap_is_wrong():
    gold, pred = [["B-LOC", "I-LOC"]], [["B-LOC", "O"]]
    assert metrics(gold, pred, "entity_f1").f1 == 0.0
    count, _ = SCORERS["entity_f1"]
    # one (correct, predicted, gold) span row
    assert count(gold, pred)[0].tolist() == [[0.0, 1.0, 1.0]]


def test_entity_metrics_type_relabeling_symmetry():
    gold = [["B-PER", "O", "B-LOC"]]
    pred = [["B-PER", "O", "B-PER"]]
    base = metrics(gold, pred, "entity_f1")
    swap = {"PER": "LOC", "LOC": "PER"}
    relabel = lambda tags: [
        t if t == "O" else t[:2] + swap[t[2:]] for t in tags
    ]
    swapped = metrics([relabel(g) for g in gold], [relabel(p) for p in pred], "entity_f1")
    assert base == swapped
    for scorer in ("entity_f1", "macro_f1"):
        with pytest.raises(ValidationError):
            metrics([["O"]], [["O"], ["O"]], scorer)
        with pytest.raises(ValidationError):
            metrics([["O", "O"]], [["O"]], scorer)


def test_metrics_accuracy():
    assert metrics(["a", "b"], ["a", "b"], "macro_f1").accuracy == 100.0
    assert metrics(["a", "b"], ["b", "a"], "macro_f1").accuracy == 0.0
    assert metrics(["a", "b", "c", "d"], ["a", "b", "c", "x"], "macro_f1").accuracy == 75.0
    for scorer in ("entity_f1", "macro_f1"):
        with pytest.raises(ValidationError):
            metrics([], [], scorer)


def test_class_metrics_macro():
    gold = ["award", "award", "wife"]
    pred = ["award", "wife", "wife"]
    m = metrics(gold, pred, "macro_f1")
    # award: P=100, R=50; wife: P=50, R=100
    assert m.precision == 75.0 and m.recall == 75.0
    assert m.accuracy == pytest.approx(200 / 3)


ENTITY_TAGS = ("O", "O", "O", "B-PER", "I-PER", "B-LOC", "I-LOC", "I-MISC")
RELATIONS = tuple(f"rel{i}" for i in range(14))


def _entity_case(rng):
    """Gold tag sequences and predictions: noisy copies, all ``O``, or
    random tags with stray ``I-`` tags and a type gold never uses."""
    gold = [
        [str(t) for t in rng.choice(ENTITY_TAGS, size=int(rng.integers(1, 8)))]
        for _ in range(int(rng.integers(1, 7)))
    ]
    kind = int(rng.integers(3))
    if kind == 0:
        pred = [[t if rng.random() < 0.7 else "O" for t in tags] for tags in gold]
    elif kind == 1:
        pred = [["O"] * len(tags) for tags in gold]
    else:
        tags = ENTITY_TAGS + ("B-ORG", "I-ORG")
        pred = [[str(t) for t in rng.choice(tags, size=len(g))] for g in gold]
    return gold, pred


def _class_case(rng):
    """Gold labels, or relclass tuple units, and predictions that keep a
    label, draw another or draw one outside the gold classes."""
    labels = list(rng.choice(RELATIONS, size=int(rng.integers(1, 12)), replace=False))
    units = bool(rng.integers(2))
    gold = [
        tuple(str(g) for g in rng.choice(labels, size=int(rng.integers(1, 4))))
        if units else str(rng.choice(labels))
        for _ in range(int(rng.integers(1, 9)))
    ]

    def predict(label):
        return label if rng.random() < 0.5 else str(rng.choice(RELATIONS + ("other",)))

    pred = [tuple(map(predict, g)) if units else predict(g) for g in gold]
    return gold, pred


def _bits(m):
    return [float(x).hex() for x in (m.precision, m.recall, m.f1, m.accuracy)]


#: The random cases and the direct scorer of each scorer that gives fold metrics.
METRIC_CASES = {
    "entity_f1": (_entity_case, entity_prf1),
    "macro_f1": (_class_case, lambda gold, pred: class_prf1(_flatten(gold), _flatten(pred))),
}


@pytest.mark.parametrize("scorer", sorted(METRIC_CASES))
def test_metrics_equal_the_direct_scorers_bit_for_bit(scorer):
    case, oracle = METRIC_CASES[scorer]
    rng = np.random.default_rng(19)
    for _ in range(3000):
        gold, pred = case(rng)
        assert _bits(metrics(gold, pred, scorer)) == _bits(oracle(gold, pred)), (gold, pred)


def test_permutation_identical_systems_give_p_one():
    preds = [("a",), ("b",), ("a",)]
    gold = [("a",), ("b",), ("b",)]
    p = permutation_test(preds, preds, gold, "accuracy", n_rounds=100, seed=0)
    assert p == 1.0


def test_permutation_determinism_and_bounds():
    rng = np.random.default_rng(1)
    gold = [(str(i % 2),) for i in range(40)]
    a = [(str(int(rng.random() < 0.7 and i % 2)),) for i in range(40)]
    b = [(str(int(rng.random() < 0.3)),) for i in range(40)]
    p1 = permutation_test(a, b, gold, "accuracy", n_rounds=500, seed=9)
    p2 = permutation_test(a, b, gold, "accuracy", n_rounds=500, seed=9)
    assert p1 == p2
    assert 1 / 501 <= p1 <= 1.0
    p3 = permutation_test(a, b, gold, "accuracy", n_rounds=500, seed=10)
    assert p3 != p1 or p3 == p1  # different seed merely allowed to differ
    with pytest.raises(ValidationError):
        permutation_test(a[:-1], b, gold, "accuracy")
    with pytest.raises(ConfigError):
        permutation_test(a, b, gold, "nope")
    with pytest.raises(ConfigError):  # only named scorers
        permutation_test(a, b, gold, accuracy_scorer)


def test_permutation_replicates_are_order_independent():
    # replicate masks depend only on (seed, index): summing exceedance counts
    # over any partition of the replicate indices gives the sequential answer
    gold, a, b = _tagged_systems(3)
    sequential = permutation_test(a, b, gold, "accuracy", n_rounds=200, seed=5)
    observed = abs(accuracy_scorer(gold, a) - accuracy_scorer(gold, b))
    exceed = 0
    for r in list(range(0, 200, 2)) + list(reversed(range(1, 200, 2))):
        mask = _replicate_mask(5, r, len(gold))
        swapped_a = [y if m else x for x, y, m in zip(a, b, mask)]
        swapped_b = [x if m else y for x, y, m in zip(a, b, mask)]
        if abs(accuracy_scorer(gold, swapped_a) - accuracy_scorer(gold, swapped_b)) >= observed:
            exceed += 1
    assert sequential == (1 + exceed) / 201


def test_generic_and_scores_paths_agree_for_mean_scorer():
    rng = np.random.default_rng(7)
    values_a = rng.normal(size=25)
    values_b = values_a + rng.normal(0, 0.5, size=25)
    mean_scorer = lambda gold, preds: float(np.mean(np.asarray(preds)))
    p_generic = rescoring_test(
        list(values_a), list(values_b), [0.0] * 25, mean_scorer, n_rounds=300, seed=2
    )
    p_scores = permutation_test_scores(values_a, values_b, n_rounds=300, seed=2)
    assert p_generic == p_scores


def test_bonferroni_star_scheme():
    sig = bonferroni(0.0005, alpha=0.01, n_hypotheses=12)
    assert sig.threshold == pytest.approx(0.01 / 12)
    assert sig.stars == "**"
    assert bonferroni(0.005, 0.01, 12).stars == "*"
    assert bonferroni(0.02, 0.01, 12).stars == ""
    with pytest.raises(ConfigError):
        bonferroni(0.5, alpha=0.0)
    with pytest.raises(ConfigError):
        bonferroni(0.5, n_hypotheses=0)


def test_report_single_and_mean():
    m1 = Metrics(precision=80, recall=80, f1=80.0, accuracy=95.0)
    m2 = Metrics(precision=90, recall=90, f1=90.0, accuracy=97.0)
    single = report([RunMetrics("ner", "gaze", 0, m1)])
    assert single.cells[("ner", "gaze")]["f1"] == 80.0
    multi = report(
        [RunMetrics("ner", "gaze", 0, m1), RunMetrics("ner", "gaze", 1, m2)]
    )
    assert multi.cells[("ner", "gaze")]["f1"] == 85.0
    assert multi.cells[("ner", "gaze")]["accuracy"] == 96.0
    assert multi.cells[("ner", "gaze")]["n_folds"] == 2
    with pytest.raises(ValidationError):
        report([])


def test_report_rendering_row_order():
    runs = [
        RunMetrics("ner", config, 0, Metrics(precision=50, recall=50, f1=50.0, accuracy=50.0))
        for config in ("EEG", "baseline", "gaze+EEG", "gaze")
    ]
    sig = {("ner", "gaze"): bonferroni(0.0001, 0.01, 12)}
    rendered = report(runs, sig).render_text()
    lines = rendered.splitlines()
    order = [line.split()[0] for line in lines[2:]]
    assert order == ["baseline", "gaze", "EEG", "gaze+EEG"]
    assert "**" in lines[3]
    payload = report(runs, sig).to_json()
    assert payload["tasks"]["ner"]["gaze"]["significance"]["stars"] == "**"


def test_macro_f1_scorer_flattens_units():
    gold = [("award", "wife"), ("visited",)]
    pred = [("award", "wife"), ("visited",)]
    assert macro_f1_scorer(gold, pred) == 100.0
    assert metrics(gold, pred, "macro_f1") == Metrics(100.0, 100.0, 100.0, 100.0)


def test_report_fold_order_invariance():
    runs = [
        RunMetrics("ner", "gaze", fold, Metrics(precision=p, recall=p, f1=p, accuracy=p))
        for fold, p in enumerate((81.25, 90.5, 77.0, 88.75))
    ]
    forward = report(runs).cells[("ner", "gaze")]
    backward = report(list(reversed(runs))).cells[("ner", "gaze")]
    assert forward["f1"] == pytest.approx(backward["f1"], abs=1e-12)
    assert forward["precision"] == pytest.approx(backward["precision"], abs=1e-12)


def _tagged_systems(seed, n=30, length=6, noise=(0.3, 0.4)):
    """``n`` gold sequences of ``length`` tags with one two-token entity
    each, and two noisy taggers that drop its second token or add a stray
    B-PER. ``seed`` is an int or a NumPy generator to draw from."""
    rng = np.random.default_rng(seed)
    gold, a, b = [], [], []
    for _ in range(n):
        tags = ["O"] * length
        start = int(rng.integers(0, length - 1))
        etype = ("PER", "LOC")[int(rng.integers(2))]
        tags[start], tags[start + 1] = f"B-{etype}", f"I-{etype}"
        gold.append(tags)
        for system, p in zip((a, b), noise):
            out = list(tags)
            if rng.random() < p:
                out[start + 1] = "O"
            if rng.random() < p:
                out[int(rng.integers(length))] = "B-PER"
            system.append(out)
    return gold, a, b


def _oracle_p(preds_a, preds_b, gold, name, **kwargs):
    return rescoring_test(preds_a, preds_b, gold, RESCORERS[name], **kwargs)


@pytest.mark.parametrize("name", sorted(SCORERS))
@pytest.mark.parametrize(
    "case", ["mid_range", "identical", "no_entities", "class_outside_gold", "partial_block"]
)
def test_count_path_matches_rescoring_oracle(name, case):
    gold, a, b = _tagged_systems(6)
    rounds = 200
    if case == "identical":
        b = a
    elif case == "no_entities":
        b = [["O"] * len(tags) for tags in gold]
    elif case == "class_outside_gold":
        b = [tags[:-1] + ["B-MISC"] for tags in b]
    elif case == "partial_block":
        rounds = 2 * _BLOCK + 37
    p_count = permutation_test(a, b, gold, name, n_rounds=rounds, seed=4)
    assert p_count == _oracle_p(a, b, gold, name, n_rounds=rounds, seed=4)
    if case == "mid_range":
        assert 0.1 < p_count < 0.9
    if case == "identical":
        assert p_count == 1.0


def test_count_path_matches_oracle_for_many_label_classes():
    # more classes than np.mean's 8-way unrolled summation, and predictions
    # of a label that gold never uses
    rng = np.random.default_rng(11)
    labels = [f"rel{i}" for i in range(14)]
    gold = [tuple(rng.choice(labels, size=int(rng.integers(1, 4)))) for _ in range(60)]

    def system(keep):
        return [
            tuple(g if rng.random() < keep else rng.choice(labels + ["other"]) for g in unit)
            for unit in gold
        ]

    a, b = system(0.7), system(0.6)
    for name in ("accuracy", "macro_f1"):
        p_count = permutation_test(a, b, gold, name, n_rounds=300, seed=1)
        assert p_count == _oracle_p(a, b, gold, name, n_rounds=300, seed=1)


def test_count_path_rejects_units_of_different_sizes():
    gold = [("a", "b"), ("a",)]
    with pytest.raises(ValidationError):
        permutation_test([("a",), ("a", "b")], [("a", "b"), ("a",)], gold, "accuracy")
    with pytest.raises(ValidationError):
        permutation_test([["O"], ["O", "O"]], [["O"], ["O"]], [["O"], ["O"]], "entity_f1")


def test_count_path_memory_does_not_grow_with_rounds():
    gold, a, b = _tagged_systems(2, n=200)

    def peak(rounds):
        tracemalloc.start()
        try:
            permutation_test(a, b, gold, "entity_f1", n_rounds=rounds, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8 * _BLOCK) < 1.2 * peak(_BLOCK)


@pytest.mark.parametrize("rounds", [0, -1, -3])
def test_permutation_tests_reject_rounds_below_one(rounds):
    gold, a, b = _tagged_systems(0, n=5)
    with pytest.raises(ConfigError):
        permutation_test(a, b, gold, "entity_f1", n_rounds=rounds)
    with pytest.raises(ConfigError):
        _oracle_p(a, b, gold, "entity_f1", n_rounds=rounds)
    with pytest.raises(ConfigError):
        permutation_test_scores(np.zeros(5), np.ones(5), n_rounds=rounds)


def _reference_scores_p(scores_a, scores_b, n_rounds, seed):
    """The per-replicate loop that permutation_test_scores replaced."""
    n = scores_a.size
    observed = abs(scores_a.mean() - scores_b.mean())
    exceed = 0
    for r in range(n_rounds):
        mask = _replicate_mask(seed, r, n)
        mean_a = np.where(mask, scores_b, scores_a).mean()
        mean_b = np.where(mask, scores_a, scores_b).mean()
        if abs(mean_a - mean_b) >= observed:
            exceed += 1
    return (1 + exceed) / (1 + n_rounds)


@pytest.mark.parametrize("n", [1, 9, 40, 130, 301])
def test_scores_path_blocks_match_per_replicate_loop(n):
    rng = np.random.default_rng(n)
    scores_a = rng.normal(size=n)
    # a small shift keeps the p-value mid-range, where rounding would show
    scores_b = scores_a + rng.normal(0.05, 1.0, size=n)
    rounds = 2 * _BLOCK + 37
    p = permutation_test_scores(scores_a, scores_b, n_rounds=rounds, seed=n)
    assert p == _reference_scores_p(scores_a, scores_b, rounds, n)
    if n >= 40:
        assert 0.05 < p < 0.95
