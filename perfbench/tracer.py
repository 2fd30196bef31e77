"""Outside-in tracing: wrap the public functions of each cognlp module and
record a tree of spans, then derive self times and counters from it.

Recording runs inside the pipeline child process; the analysis functions at
the bottom run in the benchmark parent on the node list the child returns.

A node is ``{"id", "parent", "name", "start", "end", "count", "total",
"counters", "merged"}``. A plain span is a node with ``count == 1`` and ``total ==
end - start``. Functions called once per sentence, trial, replicate or step
(``AGGREGATED``) get one node per (parent, name) instead, holding the call
count and summed time; every call nested inside such a node is aggregated
too, so the node list stays small however many rounds or steps a run makes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

#: Modules whose public functions are wrapped. ``cli`` is traced through the
#: per-stage root spans the pipeline opens around ``cli.main``.
MODULES = (
    "ingest", "synth", "gaze", "eeg", "aggregate", "datasets",
    "models", "mtl", "evaluation", "tables", "seeding",
)

#: Per-call hot functions: counted and summed, never one span per call.
AGGREGATED = frozenset({
    "ingest.check_bio",
    "gaze.filter_fixations",
    "gaze.compute_word_gaze",
    "eeg.word_eeg",
    "eeg.reduce_eeg",
    "eeg.reduction_dims",
    "eeg.band_of_frequency",
    "eeg.combine_bands",
    "aggregate.apply_normalization",
    "aggregate.discretize",
    "aggregate.one_hot",
    "datasets.task_classes",
    "models.repair_bio",
    "models.TrunkNet.forward_backward",
    "models.TrunkNet.apply_gradients",
    "evaluation.extract_entities",
    "evaluation.entity_prf1",
    "evaluation.class_prf1",
    "evaluation.accuracy",
    "evaluation.entity_f1_scorer",
    "evaluation.accuracy_scorer",
    "evaluation.macro_f1_scorer",
    "evaluation.bonferroni",
    "seeding.stream",
})

#: Sentences longer than this many words count as long in the per-trial
#: gaze timing split.
LONG_SENTENCE_WORDS = 30


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _probe_parse_eeg(args, kwargs, result):
    lines = _arg(args, kwargs, 0, "lines")
    # the EEG files are ASCII JSON, so one character is one byte
    return {"eeg_bytes": sum(len(line) + 1 for line in lines), "eeg_records": len(result)}


def _probe_generate(args, kwargs, result):
    return {"fixations": len(result.fixations)}


def _probe_filter(args, kwargs, result):
    return {"fixations_in": len(_arg(args, kwargs, 0, "events")), "fixations_out": len(result)}


def _probe_word_gaze(args, kwargs, result):
    return {"words": len(result), "words_unfixated": sum(1 for f in result if f.nfix == 0)}


def _probe_word_eeg(args, kwargs, result):
    fixated = {e.word_index for e in _arg(args, kwargs, 0, "events")}
    return {"words_fixated": len(fixated), "words_missing_record": len(fixated - set(result))}


def _probe_apply_lexicon(args, kwargs, result):
    coverage = result[1]
    return {"tokens": coverage.n_tokens, "unknown": coverage.n_unknown}


def _probe_train_tagger(args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    ids = _arg(args, kwargs, 1, "ids")
    config = _arg(args, kwargs, 2, "config", result.config)
    tokens = sum(len(inst.tokens) for inst in dataset.select(ids))
    return {"tokens": tokens * config.epochs}


def _probe_trunk_step(args, kwargs, result):
    return {"vocab": args[0].n_vocab}


def _probe_permutation(args, kwargs, result):
    return {"rounds": _arg(args, kwargs, 4, "n_rounds", 10000)}


#: Counters taken from a call's arguments and result, after its clock stops.
PROBES = {
    "ingest.parse_eeg": _probe_parse_eeg,
    "synth.generate_synthetic": _probe_generate,
    "gaze.filter_fixations": _probe_filter,
    "gaze.compute_word_gaze": _probe_word_gaze,
    "eeg.word_eeg": _probe_word_eeg,
    "aggregate.apply_type_lexicon": _probe_apply_lexicon,
    "models.train_tagger": _probe_train_tagger,
    "models.TrunkNet.forward_backward": _probe_trunk_step,
    "evaluation.permutation_test": _probe_permutation,
}


def _split_word_gaze(args, kwargs):
    length = _arg(args, kwargs, 1, "sentence_length")
    return "long" if length > LONG_SENTENCE_WORDS else "short"


#: Functions whose aggregated node is split by a property of the call; the
#: node is named ``<name>[<key>]``.
SPLITS = {"gaze.compute_word_gaze": _split_word_gaze}


class Tracer:
    """Keeps nodes in memory; ``nodes`` is written out once, at the end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.nodes: list[dict] = []
        self._stack: list[dict] = []
        self._merged: dict[tuple, dict] = {}

    def _open(self, name: str, start: float) -> dict:
        parent = self._stack[-1] if self._stack else None
        if name.split("[")[0] in AGGREGATED or (parent is not None and parent["merged"]):
            key = (parent["id"] if parent else None, name)
            node = self._merged.get(key)
            if node is None:
                node = self._merged[key] = self._new(name, parent, start)
                node["merged"] = True
                node["count"] = 0
            return node
        return self._new(name, parent, start)

    def _new(self, name: str, parent: dict | None, start: float) -> dict:
        node = {
            "id": len(self.nodes),
            "parent": parent["id"] if parent else None,
            "name": name,
            "start": start,
            "end": start,
            "count": 1,
            "total": 0.0,
            "counters": {},
            "merged": False,
        }
        self.nodes.append(node)
        return node

    def call(self, name: str, func, args, kwargs):
        split = SPLITS.get(name)
        node_name = f"{name}[{split(args, kwargs)}]" if split else name
        start = self.clock()
        node = self._open(node_name, start)
        self._stack.append(node)
        try:
            result = func(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            node["end"] = end
            if node["merged"]:
                node["count"] += 1
                node["total"] += end - start
            else:
                node["total"] = end - start
        probe = PROBES.get(name)
        if probe is not None:
            counters = node["counters"]
            for key, value in probe(args, kwargs, result).items():
                counters[key] = counters.get(key, 0) + value
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        """A per-call span opened by the benchmark itself, such as a stage."""
        node = self._new(name, self._stack[-1] if self._stack else None, self.clock())
        self._stack.append(node)
        try:
            yield node
        finally:
            self._stack.pop()
            node["end"] = self.clock()
            node["total"] = node["end"] - node["start"]

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, args, kwargs)

        return traced


def install(tracer: Tracer, package) -> None:
    """Replace each public function of the traced modules wherever a cognlp
    module looks it up (``eeg`` imports names from ``gaze``, ``models`` from
    ``aggregate``, ...)."""
    modules = {
        name: getattr(package, name)
        for name in dir(package)
        if inspect.ismodule(getattr(package, name))
    }
    wrapped: dict[int, object] = {}
    for short in MODULES:
        module = modules[short]
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            wrapped[id(value)] = tracer.wrap(f"{short}.{attr}", value)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
    trunk = modules["models"].TrunkNet
    for method in ("forward_backward", "apply_gradients"):
        setattr(trunk, method, tracer.wrap(f"models.TrunkNet.{method}", getattr(trunk, method)))
    # model loading lives in the CLI; its span counts toward the models layer
    cli = modules["cli"]
    cli._load_model = tracer.wrap("models.load", cli._load_model)


# ---------------------------------------------------------------------------
# analysis (benchmark parent)


def self_times(nodes: list[dict]) -> dict[int, float]:
    """Self time of every node: its total minus what its children cover.

    A per-call child covers its interval clipped to the parent's, and
    overlapping intervals count once; an aggregated child (several calls)
    covers its summed time.
    """
    children: dict[int, list[dict]] = {}
    for node in nodes:
        if node["parent"] is not None:
            children.setdefault(node["parent"], []).append(node)
    out = {}
    for node in nodes:
        kids = children.get(node["id"], [])
        covered = sum(k["total"] for k in kids if k["count"] != 1)
        reach = node["start"]
        for lo, hi in sorted(
            (max(k["start"], node["start"]), min(k["end"], node["end"]))
            for k in kids
            if k["count"] == 1
        ):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[node["id"]] = node["total"] - covered
    return out
