"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cognlp.aggregate import (
    SubjectAggregation,
    apply_type_lexicon,
    average_subjects,
    build_type_lexicon,
)
from cognlp.datasets import assemble, kfold_split
from cognlp.eeg import reduce_eeg, word_eeg
from cognlp.evaluation import _replicate_mask, bonferroni, permutation_test
from cognlp.gaze import compute_word_gaze, gaze_table
from cognlp.ingest import BAND_ORDER, Corpus, EegFixationRecord, N_ELECTRODES
from cognlp.models import TaggerConfig, TrunkConfig, TrunkNet, predict, train_tagger
from cognlp.mtl import AuxTaskSpec, build_tasks, evaluate_multitask, train_multitask
from cognlp.synth import PlantedEffect, SynthSpec, generate_synthetic

from conftest import make_events
from test_evaluation import RESCORERS, _tagged_systems, entity_prf1, rescoring_test
from test_gaze import as_tuples, brute_force_gaze
from test_models import dense_gradients, trunk_loss


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def test_criterion_1_gaze_oracle_equivalence():
    with criterion(1, "gaze features match brute-force oracle; ordering chain holds"):
        start = time.monotonic()
        n_words, durations = 3, (100.0, 150.0)
        choices = list(itertools.product(range(n_words), durations))
        checked = 0
        for length in range(0, 6):
            for combo in itertools.product(choices, repeat=length):
                events = make_events(combo)
                assert as_tuples(compute_word_gaze(events, n_words)) == brute_force_gaze(
                    events, n_words
                )
                checked += 1
        assert checked == sum(6**n for n in range(6))  # 9331 sequences

        rng = np.random.default_rng(123)
        for _ in range(10_000):
            k = int(rng.integers(1, 6))
            events = make_events(
                [
                    (int(rng.integers(k)), float(rng.integers(100, 500)))
                    for _ in range(int(rng.integers(0, 12)))
                ]
            )
            for f in compute_word_gaze(events, k):
                assert f.ffd <= f.gd <= f.trt
                assert f.gd <= f.gpt
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_filter_and_hand_trace():
    with criterion(2, "100 ms filter and worked trace reproduce exactly"):
        from cognlp.gaze import filter_fixations

        filtered = filter_fixations(make_events([(0, 80), (0, 150), (0, 99)]))
        assert [e.duration_ms for e in filtered] == [150.0]
        events = make_events([(1, 150), (0, 120), (1, 130), (2, 200)])
        w1 = compute_word_gaze(events, 3)[1]
        assert (w1.nfix, w1.ffd, w1.gd, w1.trt, w1.gpt) == (2, 150.0, 150.0, 280.0, 400.0)
        assert w1.mfd == 140.0


def test_criterion_3_eeg_windowing_and_reductions():
    with criterion(3, "EEG windows and reductions: bitwise, 1e-12, dims 8/105/840"):
        def record(seq, value):
            return EegFixationRecord(
                "A", "s1", seq, {b: tuple([value] * N_ELECTRODES) for b in BAND_ORDER}
            )

        single = make_events([(0, 150)])
        ffd = word_eeg(single, [record(0, 3.25)], mode="ffd")
        trt = word_eeg(single, [record(0, 3.25)], mode="trt")
        assert np.array_equal(ffd[0], trt[0])

        pair = make_events([(0, 150), (0, 130)])
        out = word_eeg(pair, [record(0, 2.0), record(1, 4.0)], mode="trt")
        expected = 820.0 / 280.0
        assert abs(out[0][0, 0] - expected) <= 1e-12 * expected

        matrix = np.arange(8 * N_ELECTRODES, dtype=float).reshape(8, N_ELECTRODES)
        assert reduce_eeg(matrix, "electrode_mean").shape == (8,)
        assert reduce_eeg(matrix, "band_mean").shape == (105,)
        assert reduce_eeg(matrix, "none").shape == (840,)


def test_criterion_4_bonferroni_protocol():
    with criterion(4, "alpha=0.01, N=12 threshold and two-level star scheme"):
        sig = bonferroni(0.5, alpha=0.01, n_hypotheses=12)
        assert sig.threshold == pytest.approx(0.01 / 12, rel=0, abs=1e-18)
        assert sig.threshold == pytest.approx(8.33e-4, abs=5e-7)
        # caption-level cut: the threshold truncates to p < 0.0008
        assert math.floor(sig.threshold * 1e4) / 1e4 == 0.0008
        assert bonferroni(0.0005, 0.01, 12).stars == "**"
        assert bonferroni(0.005, 0.01, 12).stars == "*"
        assert bonferroni(0.02, 0.01, 12).stars == ""


def test_criterion_5_permutation_null_calibration():
    with criterion(5, "null rejection rate at alpha=0.05 within [0.03, 0.07]"):
        start = time.monotonic()
        rng = np.random.default_rng(12345)
        # the count path must agree with rescoring every replicate exactly
        # before its rejection rate stands for the test's
        for probe_seed in range(3):
            gold, a, b = _tagged_systems(rng, n=40, length=8, noise=(0.35, 0.35))
            p_count = permutation_test(a, b, gold, "entity_f1", n_rounds=200, seed=probe_seed)
            p_oracle = rescoring_test(
                a, b, gold, RESCORERS["entity_f1"], n_rounds=200, seed=probe_seed
            )
            assert p_count == p_oracle

        rejections = 0
        comparisons, rounds = 500, 2000
        for i in range(comparisons):
            # both systems drawn with the same noise: the null holds
            gold, a, b = _tagged_systems(rng, n=100, length=8, noise=(0.35, 0.35))
            if permutation_test(a, b, gold, "entity_f1", n_rounds=rounds, seed=i) < 0.05:
                rejections += 1
        rate = rejections / comparisons
        elapsed = time.monotonic() - start
        print(f"[acceptance] criterion 5: null rejection rate {rate:.3f} in {elapsed:.1f}s")
        assert 0.03 <= rate <= 0.07, f"rejection rate {rate}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_6_gradient_checks():
    with criterion(6, "finite-difference gradient checks on 20 random configs"):
        rng = np.random.default_rng(99)
        eps = 1e-5
        for _ in range(20):
            n_vocab = int(rng.integers(3, 12))
            net = TrunkNet(
                [f"w{i}" for i in range(n_vocab)],
                int(rng.integers(0, 5)),
                {
                    name: int(rng.integers(2, 6))
                    for name in ["main", "auxA", "auxB"][: int(rng.integers(1, 4))]
                },
                TrunkConfig(
                    embed_dim=int(rng.integers(2, 7)),
                    hidden_dim=int(rng.integers(2, 8)),
                    seed=int(rng.integers(1000)),
                ),
            )
            length = int(rng.integers(1, 7))
            ids = net.token_ids(
                [f"w{int(rng.integers(n_vocab))}" for _ in range(length)]
            )
            cog = rng.normal(size=(length, net.cog_dim)) if net.cog_dim else None
            head = sorted(net.heads)[int(rng.integers(len(net.heads)))]
            targets = rng.integers(len(net.heads[head][1]), size=length)
            _, grads = net.forward_backward(ids, cog, targets, head)
            grads = dense_gradients(net, grads)

            def sweep(arr, grad):
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
                    rel = abs(numeric - grad[idx]) / max(abs(numeric) + abs(grad[idx]), 1e-8)
                    assert rel < 1e-4, f"relative error {rel}"

            sweep(net.embed, grads["embed"])
            sweep(net.w1, grads["w1"])
            sweep(net.b1, grads["b1"])
            for name, (w, b) in net.heads.items():
                gw, gb = grads["heads"][name]
                sweep(w, gw)
                sweep(b, gb)


def _planted_gaze_datasets(seed=42):
    spec = SynthSpec(
        task="ner",
        n_sentences=500,
        n_subjects=3,
        entity_types=("ENT",),
        planted=PlantedEffect(delta_trt_ms=100.0),
    )
    result = generate_synthetic(spec, seed=seed)
    table = gaze_table(result.corpus, result.fixations)
    token_gaze = average_subjects(table, SubjectAggregation.mean_all())
    ds_gaze = assemble(result.corpus, {"gaze": token_gaze})
    ds_base = assemble(result.corpus)
    return ds_base, ds_gaze


def test_criterion_7_directional_gaze_improvement():
    with criterion(7, "gaze-augmented tagger beats baseline by >= 2 F1, p < 0.01"):
        start = time.monotonic()
        ds_base, ds_gaze = _planted_gaze_datasets()
        plan = kfold_split(ds_base, 5, (0.8, 0.0, 0.2), seed=0)

        def fold_f1(ds, seed, fold):
            model = train_tagger(ds, plan.train_ids(fold), TaggerConfig(epochs=3, seed=seed))
            ids = plan.test_ids(fold)
            preds = predict(model, ds, ids)
            gold = [inst.label for inst in ds.select(ids)]
            return entity_prf1(gold, preds).f1, dict(
                zip((i.sentence_id for i in ds.select(ids)), preds)
            )

        deltas = []
        for seed in range(10):
            f1_base, _ = fold_f1(ds_base, seed, 0)
            f1_gaze, _ = fold_f1(ds_gaze, seed, 0)
            deltas.append(f1_gaze - f1_base)
        median_delta = float(np.median(deltas))
        assert median_delta >= 2.0, f"median delta {median_delta:.2f}"

        # pooled test predictions over all folds at seed 0 for significance
        preds_base: dict = {}
        preds_gaze: dict = {}
        for fold in range(plan.k):
            _, by_sid = fold_f1(ds_base, 0, fold)
            preds_base.update(by_sid)
            _, by_sid = fold_f1(ds_gaze, 0, fold)
            preds_gaze.update(by_sid)
        order = ds_base.sentence_ids()
        gold_units = [inst.label for inst in ds_base.instances]
        units_base = [preds_base[sid] for sid in order]
        units_gaze = [preds_gaze[sid] for sid in order]
        p_value = permutation_test(
            units_base, units_gaze, gold_units, "entity_f1", n_rounds=2000, seed=0
        )
        elapsed = time.monotonic() - start
        assert p_value < 0.01, f"p = {p_value}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_8_type_aggregation_generalizes():
    with criterion(8, "lexicon built on one split helps a disjoint split; exact coverage"):
        spec = SynthSpec(
            task="ner",
            n_sentences=400,
            n_subjects=3,
            entity_mode="lexical",
            entity_types=("ENT",),
            vocab_size=600,
            entity_vocab_size=150,
            planted=PlantedEffect(delta_trt_ms=150.0),
        )
        result = generate_synthetic(spec, seed=11)
        sids = [s.id for s in result.corpus.sentences]
        half = len(sids) // 2
        a_ids, b_ids = set(sids[:half]), set(sids[half:])
        corpus_a = Corpus("ner", tuple(s for s in result.corpus.sentences if s.id in a_ids))
        corpus_b = Corpus("ner", tuple(s for s in result.corpus.sentences if s.id in b_ids))
        log_a = type(result.fixations)(
            groups={k: v for k, v in result.fixations.groups.items() if k[1] in a_ids}
        )
        token_a = average_subjects(gaze_table(corpus_a, log_a), SubjectAggregation.mean_all())
        lexicon = build_type_lexicon(corpus_a, token_a)
        feats_b, coverage = apply_type_lexicon(lexicon, corpus_b)

        known_types = set(lexicon.entries)
        independent_unknown = sum(
            1 for s in corpus_b.sentences for t in s.tokens if t.lower() not in known_types
        )
        n_tokens = sum(len(s) for s in corpus_b.sentences)
        assert coverage.n_unknown == independent_unknown
        assert coverage.unknown_pct == 100.0 * independent_unknown / n_tokens

        ds_lex = assemble(corpus_b, {"lex": feats_b})
        ds_base = assemble(corpus_b)
        plan = kfold_split(ds_base, 5, (0.8, 0.0, 0.2), seed=0)
        deltas = []
        for seed in range(10):
            ids = plan.test_ids(0)
            gold = [inst.label for inst in ds_base.select(ids)]
            m_base = train_tagger(ds_base, plan.train_ids(0), TaggerConfig(epochs=3, seed=seed))
            m_lex = train_tagger(ds_lex, plan.train_ids(0), TaggerConfig(epochs=3, seed=seed))
            f1_base = entity_prf1(gold, predict(m_base, ds_base, ids)).f1
            f1_lex = entity_prf1(gold, predict(m_lex, ds_lex, ids)).f1
            deltas.append(f1_lex - f1_base)
        assert float(np.median(deltas)) > 0.0, f"median delta {np.median(deltas):.2f}"


def test_criterion_9_mtl_noop_and_direction():
    with criterion(9, "zero-weight aux is a bitwise no-op; TRT aux does not hurt"):
        spec = SynthSpec(
            task="ner",
            n_sentences=150,
            n_subjects=3,
            entity_mode="lexical",
            entity_types=("ENT",),
            vocab_size=300,
            entity_vocab_size=80,
            entity_rate=0.3,
            planted=PlantedEffect(delta_trt_ms=150.0),
        )
        result = generate_synthetic(spec, seed=21)
        token_gaze = average_subjects(
            gaze_table(result.corpus, result.fixations), SubjectAggregation.mean_all()
        )
        ds = assemble(result.corpus, {"gaze": token_gaze})
        plan = kfold_split(ds, 5, (0.8, 0.0, 0.2), seed=0)
        train_ids, test_ids = plan.train_ids(0), plan.test_ids(0)

        config = TrunkConfig(embed_dim=12, hidden_dim=16, seed=0)
        main_only = build_tasks(ds)
        single = train_multitask(ds, train_ids, main_only, net_config=config, epochs=2, lr=0.3, seed=0)
        zeroed = train_multitask(
            ds, train_ids, build_tasks(ds, [AuxTaskSpec("TRT", n_bins=2, weight=0.0)]),
            net_config=config, epochs=2, lr=0.3, seed=0,
        )
        assert np.array_equal(single.net.embed, zeroed.net.embed)
        assert np.array_equal(single.net.w1, zeroed.net.w1)
        assert np.array_equal(single.net.b1, zeroed.net.b1)
        assert np.array_equal(single.net.heads["main"][0], zeroed.net.heads["main"][0])
        assert np.array_equal(single.net.heads["main"][1], zeroed.net.heads["main"][1])

        aux = build_tasks(ds, [AuxTaskSpec("TRT", n_bins=2, weight=1.0)])
        single_accs, mtl_accs = [], []
        for seed in range(10):
            cfg = TrunkConfig(embed_dim=12, hidden_dim=16, seed=seed)
            m_single = train_multitask(ds, train_ids, main_only, net_config=cfg, epochs=2, lr=0.3, seed=seed)
            m_mtl = train_multitask(ds, train_ids, aux, net_config=cfg, epochs=2, lr=0.3, seed=seed)
            single_accs.append(evaluate_multitask(m_single, ds, test_ids, main_only)["main"]["accuracy"])
            mtl_accs.append(evaluate_multitask(m_mtl, ds, test_ids, aux)["main"]["accuracy"])
        assert float(np.median(mtl_accs)) >= float(np.median(single_accs)), (
            f"mtl {np.median(mtl_accs):.2f} < single {np.median(single_accs):.2f}"
        )


def test_criterion_10_stage_determinism(tmp_path):
    with criterion(10, "pipeline stages rerun byte-identically; replicates order-free"):
        from test_cli import pipeline

        files = [
            "data/corpus.jsonl", "data/fixations.jsonl", "data/eeg.jsonl",
            "feats/gaze.jsonl", "feats/eeg.jsonl", "feats/dataset.jsonl",
            "runs/gaze/fold_plan.json", "runs/gaze/model_fold0.json",
            "runs/gaze/report.json", "runs/gaze/predictions.jsonl",
        ]
        pipeline(tmp_path)
        before = {rel: (tmp_path / rel).read_bytes() for rel in files}
        pipeline(tmp_path)
        for rel in files:
            assert (tmp_path / rel).read_bytes() == before[rel], rel

        # permutation replicates are keyed by (seed, index): any evaluation
        # order, e.g. split across workers, yields the same p-value
        gold, units_a, units_b = _tagged_systems(8, n=50)
        sequential = permutation_test(units_a, units_b, gold, "entity_f1", n_rounds=400, seed=3)
        observed = abs(entity_prf1(gold, units_a).f1 - entity_prf1(gold, units_b).f1)
        exceed = 0
        for worker in range(4):  # interleaved partition, reversed within worker
            for r in reversed(range(worker, 400, 4)):
                mask = _replicate_mask(3, r, 50)
                swapped_a = [y if m else x for x, y, m in zip(units_a, units_b, mask)]
                swapped_b = [x if m else y for x, y, m in zip(units_a, units_b, mask)]
                delta = abs(entity_prf1(gold, swapped_a).f1 - entity_prf1(gold, swapped_b).f1)
                if delta >= observed:
                    exceed += 1
        assert sequential == (1 + exceed) / 401
