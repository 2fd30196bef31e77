"""Per-layer metrics from the span trees of traced pipeline passes.

``PER_LAYER`` lists every metric with its unit; ``BENCHMARK.json`` mirrors
it. A layer a workload does not use reports 0, and a ratio reports 0 when
its base is 0; every ratio's base is listed beside it.
"""

from __future__ import annotations

import statistics

from tracer import self_times
from workloads import STAGES

LAYER_MODULES = (
    "ingest", "synth", "gaze", "eeg", "aggregate", "datasets",
    "models", "mtl", "evaluation", "tables", "seeding", "cli",
)

PER_LAYER = (
    ("ingest.parse_eeg_s", "s"),
    ("ingest.parse_eeg_mb", "MB"),
    ("ingest.parse_eeg_mb_per_s", "MB/s"),
    ("ingest.serialize_eeg_s", "s"),
    ("ingest.parse_corpus_s", "s"),
    ("ingest.parse_fixations_s", "s"),
    ("ingest.validation_report_s", "s"),
    ("synth.generate_s", "s"),
    ("synth.fixations", "count"),
    ("gaze.gaze_table_s", "s"),
    ("gaze.compute_word_gaze_s", "s"),
    ("gaze.trials", "count"),
    ("gaze.trials_long", "count"),
    ("gaze.us_per_trial_short", "us"),
    ("gaze.us_per_trial_long", "us"),
    ("gaze.fixations", "count"),
    ("gaze.fixations_dropped", "count"),
    ("gaze.words", "count"),
    ("gaze.words_unfixated", "count"),
    ("gaze.write_s", "s"),
    ("gaze.read_s", "s"),
    ("eeg.eeg_table_s", "s"),
    ("eeg.word_eeg_s", "s"),
    ("eeg.reduce_eeg_s", "s"),
    ("eeg.words_fixated", "count"),
    ("eeg.words_missing_record", "count"),
    ("eeg.write_s", "s"),
    ("eeg.read_s", "s"),
    ("aggregate.average_subjects_s", "s"),
    ("aggregate.build_type_lexicon_s", "s"),
    ("aggregate.apply_type_lexicon_s", "s"),
    ("aggregate.lexicon_tokens", "count"),
    ("aggregate.unknown_pct", "%"),
    ("datasets.assemble_s", "s"),
    ("datasets.write_dataset_s", "s"),
    ("datasets.read_dataset_s", "s"),
    ("datasets.read_dataset_calls", "count"),
    ("datasets.kfold_split_s", "s"),
    ("models.train_tagger_s", "s"),
    ("models.tagger_tokens", "count"),
    ("models.tagger_tokens_per_s", "1/s"),
    ("models.train_logistic_s", "s"),
    ("models.predict_s", "s"),
    ("models.load_s", "s"),
    ("models.trunk_step_us", "us"),
    ("models.trunk_steps", "count"),
    ("models.trunk_vocab", "count"),
    ("mtl.train_multitask_s", "s"),
    ("mtl.evaluate_multitask_s", "s"),
    ("mtl.make_aux_targets_s", "s"),
    ("evaluation.permutation_test_s", "s"),
    ("evaluation.rounds", "count"),
    ("evaluation.us_per_round", "us"),
    ("evaluation.extract_entities_calls", "count"),
    ("evaluation.extract_entities_per_round", "count"),
    ("evaluation.report_s", "s"),
    *((f"{module}.self_s", "s") for module in LAYER_MODULES),
    *((f"cli.{stage}.self_s", "s") for stage in STAGES),
    *((f"stage.{stage}_s", "s") for stage in STAGES),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


class _Tree:
    """Sums over the nodes of one traced pass."""

    def __init__(self, nodes: list[dict]):
        self.nodes = nodes
        self.by_id = {n["id"]: n for n in nodes}
        self.selfs = self_times(nodes)

    @staticmethod
    def _matches(node: dict, name: str) -> bool:
        return node["name"] == name or node["name"].split("[")[0] == name

    def _under(self, node: dict, ancestor: str | None) -> bool:
        parent = node["parent"]
        while ancestor is not None and parent is not None:
            if self._matches(self.by_id[parent], ancestor):
                return True
            parent = self.by_id[parent]["parent"]
        return ancestor is None

    def seconds(self, name: str) -> float:
        return sum(n["total"] for n in self.nodes if self._matches(n, name))

    def calls(self, name: str, under: str | None = None) -> int:
        return sum(
            n["count"] for n in self.nodes if self._matches(n, name) and self._under(n, under)
        )

    def counter(self, name: str, key: str, under: str | None = None) -> float:
        return sum(
            n["counters"].get(key, 0)
            for n in self.nodes
            if self._matches(n, name) and self._under(n, under)
        )

    def module_self(self, module: str) -> float:
        return sum(
            self.selfs[n["id"]] for n in self.nodes if n["name"].split(".")[0] == module
        )

    def stage_self(self, stage: str) -> float:
        return sum(
            self.selfs[n["id"]]
            for n in self.nodes
            if n["parent"] is None and n["name"] == f"cli.{stage}"
        )


def pass_metrics(nodes: list[dict]) -> dict[str, float]:
    """Every traced metric of one pipeline pass, except the ``stage.*`` and
    ``trace.*`` ones, which compare traced and untraced passes."""
    t = _Tree(nodes)
    m: dict[str, float] = {}
    eeg_mb = t.counter("ingest.parse_eeg", "eeg_bytes") / 1e6
    m["ingest.parse_eeg_s"] = t.seconds("ingest.parse_eeg")
    m["ingest.parse_eeg_mb"] = eeg_mb
    m["ingest.parse_eeg_mb_per_s"] = _ratio(eeg_mb, m["ingest.parse_eeg_s"])
    m["ingest.serialize_eeg_s"] = t.seconds("ingest.serialize_eeg")
    m["ingest.parse_corpus_s"] = t.seconds("ingest.parse_corpus")
    m["ingest.parse_fixations_s"] = t.seconds("ingest.parse_fixations")
    m["ingest.validation_report_s"] = t.seconds("ingest.validation_report")
    m["synth.generate_s"] = t.seconds("synth.generate_synthetic")
    m["synth.fixations"] = t.counter("synth.generate_synthetic", "fixations")

    short, long_ = "gaze.compute_word_gaze[short]", "gaze.compute_word_gaze[long]"
    m["gaze.gaze_table_s"] = t.seconds("gaze.gaze_table")
    m["gaze.compute_word_gaze_s"] = t.seconds("gaze.compute_word_gaze")
    m["gaze.trials"] = t.calls("gaze.compute_word_gaze")
    m["gaze.trials_long"] = t.calls(long_)
    m["gaze.us_per_trial_short"] = _ratio(t.seconds(short), t.calls(short), 1e6)
    m["gaze.us_per_trial_long"] = _ratio(t.seconds(long_), t.calls(long_), 1e6)
    # eeg_table filters fixations too; count the gaze extraction's filter only
    kept = t.counter("gaze.filter_fixations", "fixations_out", under="gaze.gaze_table")
    m["gaze.fixations"] = t.counter("gaze.filter_fixations", "fixations_in", under="gaze.gaze_table")
    m["gaze.fixations_dropped"] = m["gaze.fixations"] - kept
    m["gaze.words"] = t.counter("gaze.compute_word_gaze", "words")
    m["gaze.words_unfixated"] = t.counter("gaze.compute_word_gaze", "words_unfixated")
    m["gaze.write_s"] = t.seconds("gaze.write_gaze_features")
    m["gaze.read_s"] = t.seconds("gaze.read_gaze_features")

    m["eeg.eeg_table_s"] = t.seconds("eeg.eeg_table")
    m["eeg.word_eeg_s"] = t.seconds("eeg.word_eeg")
    m["eeg.reduce_eeg_s"] = t.seconds("eeg.reduce_eeg")
    m["eeg.words_fixated"] = t.counter("eeg.word_eeg", "words_fixated")
    m["eeg.words_missing_record"] = t.counter("eeg.word_eeg", "words_missing_record")
    m["eeg.write_s"] = t.seconds("eeg.write_eeg_features")
    m["eeg.read_s"] = t.seconds("eeg.read_eeg_features")

    tokens = t.counter("aggregate.apply_type_lexicon", "tokens")
    m["aggregate.average_subjects_s"] = t.seconds("aggregate.average_subjects")
    m["aggregate.build_type_lexicon_s"] = t.seconds("aggregate.build_type_lexicon")
    m["aggregate.apply_type_lexicon_s"] = t.seconds("aggregate.apply_type_lexicon")
    m["aggregate.lexicon_tokens"] = tokens
    m["aggregate.unknown_pct"] = _ratio(t.counter("aggregate.apply_type_lexicon", "unknown"), tokens, 100.0)

    m["datasets.assemble_s"] = t.seconds("datasets.assemble")
    m["datasets.write_dataset_s"] = t.seconds("datasets.write_dataset")
    m["datasets.read_dataset_s"] = t.seconds("datasets.read_dataset")
    m["datasets.read_dataset_calls"] = t.calls("datasets.read_dataset")
    m["datasets.kfold_split_s"] = t.seconds("datasets.kfold_split")

    step = "models.TrunkNet.forward_backward"
    m["models.train_tagger_s"] = t.seconds("models.train_tagger")
    m["models.tagger_tokens"] = t.counter("models.train_tagger", "tokens")
    m["models.tagger_tokens_per_s"] = _ratio(m["models.tagger_tokens"], m["models.train_tagger_s"])
    m["models.train_logistic_s"] = t.seconds("models.train_logistic")
    m["models.predict_s"] = t.seconds("models.predict")
    m["models.load_s"] = t.seconds("models.load")
    m["models.trunk_steps"] = t.calls(step)
    m["models.trunk_step_us"] = _ratio(t.seconds(step), m["models.trunk_steps"], 1e6)
    # folds differ a little in vocabulary: the mean over steps
    m["models.trunk_vocab"] = _ratio(t.counter(step, "vocab"), m["models.trunk_steps"])

    m["mtl.train_multitask_s"] = t.seconds("mtl.train_multitask")
    m["mtl.evaluate_multitask_s"] = t.seconds("mtl.evaluate_multitask")
    m["mtl.make_aux_targets_s"] = t.seconds("mtl.make_aux_targets")

    rounds = t.counter("evaluation.permutation_test", "rounds")
    m["evaluation.permutation_test_s"] = t.seconds("evaluation.permutation_test")
    m["evaluation.rounds"] = rounds
    m["evaluation.us_per_round"] = _ratio(m["evaluation.permutation_test_s"], rounds, 1e6)
    m["evaluation.extract_entities_calls"] = t.calls("evaluation.extract_entities")
    m["evaluation.extract_entities_per_round"] = _ratio(
        t.calls("evaluation.extract_entities", under="evaluation.permutation_test"), rounds
    )
    m["evaluation.report_s"] = t.seconds("evaluation.report")

    for module in LAYER_MODULES:
        m[f"{module}.self_s"] = t.module_self(module)
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = t.stage_self(stage)
    return m


def layer_metrics(traced: list[list[dict]], stage_seconds: dict[str, float],
                  traced_pipeline: float, untraced_pipeline: float) -> dict[str, float]:
    """Medians over traced passes, plus the untraced stage medians and the
    tracing overhead (traced minus untraced median pipeline time)."""
    per_pass = [pass_metrics(nodes) for nodes in traced]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for stage in STAGES:
        out[f"stage.{stage}_s"] = stage_seconds.get(stage, 0.0)
    out["trace.overhead_s"] = traced_pipeline - untraced_pipeline
    return out
