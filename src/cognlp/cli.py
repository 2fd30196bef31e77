"""Command-line pipeline: each subcommand fronts one stage and exchanges
files with the next.

Every output starts with (or embeds) a provenance header carrying the tool
version, the seed, the resolved configuration, and its hash; reruns with
identical inputs and seed produce byte-identical files. A ``--config`` JSON
file supplies defaults for any long option (dashes as underscores); explicit
flags win.

Each command imports the modules it runs when it starts, so a call loads
only those: ``ingest-validate`` loads no feature or model module, and no
feature stage loads ``models``, ``mtl``, ``evaluation`` or ``workers``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import reprlib
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, ingest
from .errors import CognlpError, ConfigError, ParseError, ValidationError

if TYPE_CHECKING:  # for annotations only
    from . import datasets, evaluation


def _dump(obj) -> str:
    return ingest._dumps(obj, sort_keys=True).decode("utf-8")


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"func", "config"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        out[key] = value
    return out


def _provenance(args: argparse.Namespace) -> dict:
    config = _resolved_config(args)
    digest = hashlib.sha256(_dump(config).encode("utf-8")).hexdigest()[:12]
    return {
        "tool": "cognlp",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "config_hash": digest,
        "config": config,
    }


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _header_line(kind: str, provenance: dict, extra: dict | None = None) -> str:
    return _dump(ingest._header(kind, extra, provenance=provenance))


def _read_text(path: str | Path) -> str:
    """A whole file's text; bad UTF-8 is a ParseError with its line."""
    return "\n".join(ingest.Lines(path))


def _read_json(path: str | Path):
    """A whole JSON file's value; bad UTF-8 or JSON is a ParseError with its
    line."""
    return ingest._loads(_read_text(path))


def _load_corpus(args) -> ingest.Corpus:
    return ingest.parse_corpus(ingest.Lines(args.corpus), args.task, strict=args.strict)


def _load_fixations(args, corpus: ingest.Corpus) -> ingest.FixationLog:
    return ingest.parse_fixations(
        ingest.Lines(args.fixations), corpus=corpus, strict=args.strict
    )


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    from . import synth

    planted = synth.PlantedEffect(
        delta_trt_ms=args.delta_trt,
        eeg_band=args.eeg_band,
        delta_eeg_uv=args.delta_eeg,
    )
    spec = synth.SynthSpec(
        task=args.task,
        n_sentences=args.sentences,
        n_subjects=args.subjects,
        vocab_size=args.vocab,
        entity_vocab_size=args.entity_vocab,
        sentence_length=(args.len_min, args.len_max),
        entity_mode=args.entity_mode,
        entity_rate=args.entity_rate,
        planted=planted,
    )
    out = Path(args.out)
    provenance = _provenance(args)
    # the largest file by far: each record's line is written as its matrix
    # is drawn, so neither the text nor the matrices are held; a failed run
    # removes it, since its whole lines would still validate
    eeg_path = out / "eeg.jsonl"
    out.mkdir(parents=True, exist_ok=True)
    try:
        with eeg_path.open("wb") as fh:
            fh.write((_header_line("eeg", provenance) + "\n").encode("utf-8"))
            result = synth.generate_synthetic(
                spec, args.seed, eeg_sink=lambda record: fh.write(ingest._eeg_line(record))
            )
    except BaseException:
        eeg_path.unlink(missing_ok=True)
        raise
    _write(
        out / "corpus.jsonl",
        _header_line("corpus", provenance, {"task": args.task})
        + "\n"
        + ingest.serialize_corpus(result.corpus),
    )
    _write(
        out / "fixations.jsonl",
        _header_line("fixations", provenance)
        + "\n"
        + ingest.serialize_fixations(result.fixations),
    )
    _write(out / "meta.json", _dump({"provenance": provenance, **result.meta}) + "\n")
    print(f"wrote corpus/fixations/eeg for {args.sentences} sentences to {out}")
    return 0


def cmd_ingest_validate(args) -> int:
    corpus = _load_corpus(args)
    log = None
    eeg_records = None
    if args.fixations:
        log = _load_fixations(args, corpus)
    if args.eeg:
        records = ingest.iter_eeg(ingest.Lines(args.eeg), fixations=log, strict=args.strict)
        eeg_records = sum(1 for _ in records)
    report = ingest.validation_report(corpus, log, eeg_records)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_extract_gaze(args) -> int:
    from . import aggregate, gaze
    from .tables import write_token_table

    corpus = _load_corpus(args)
    log = _load_fixations(args, corpus)
    table = gaze.gaze_table(
        corpus, log, min_duration_ms=args.min_duration, strict=args.strict
    )
    provenance = _provenance(args)
    _write(Path(args.out), gaze.write_gaze_features(table, {"provenance": provenance}))
    if args.fixp_out:
        fixp = gaze.fixation_probability(table, aggregate.SubjectAggregation.mean_all())
        _write(Path(args.fixp_out), write_token_table(fixp, {"provenance": provenance}))
    print(f"gaze features for {len(table)} (subject, word) rows -> {args.out}")
    return 0


def cmd_extract_eeg(args) -> int:
    from . import eeg

    corpus = _load_corpus(args)
    log = _load_fixations(args, corpus)
    # closed on the way out, so an error in eeg_table closes the file at once
    with contextlib.closing(
        ingest.iter_eeg(ingest.Lines(args.eeg), fixations=log, strict=args.strict)
    ) as records:
        table = eeg.eeg_table(
            corpus,
            log,
            records,
            mode=args.eeg_window,
            reduction=args.eeg_reduce,
            weighted=not args.unweighted,
            min_duration_ms=args.min_duration,
            strict=args.strict,
        )
    provenance = _provenance(args)
    _write(
        Path(args.out),
        eeg.write_eeg_features(
            table, args.eeg_window, args.eeg_reduce, {"provenance": provenance}
        ),
    )
    print(f"EEG features for {len(table)} (subject, word) rows -> {args.out}")
    return 0


def _aggregated_tables(args) -> dict:
    """Load the ``--gaze`` and ``--eeg`` feature files (subject level) and
    reduce them to token level."""
    from . import aggregate

    agg = aggregate.SubjectAggregation.parse(args.agg)
    tables = {}
    if args.gaze:
        from . import gaze

        gtable = gaze.read_gaze_features(ingest.Lines(args.gaze), strict=args.strict)
        tables["gaze"] = aggregate.average_subjects(gtable, agg)
        if args.fixp:
            tables["fixp"] = gaze.fixation_probability(gtable, agg)
    if args.eeg:
        from . import eeg

        etable = eeg.read_eeg_features(ingest.Lines(args.eeg), strict=args.strict)
        tables["eeg"] = aggregate.average_subjects(etable, agg)
    return tables


def cmd_build_lexicon(args) -> int:
    from . import aggregate
    from .tables import concat_tables

    corpus = _load_corpus(args)
    tables = _aggregated_tables(args)
    if not tables:
        raise ConfigError("build-lexicon needs --gaze and/or --eeg features")
    merged = concat_tables(tables)
    lexicon = aggregate.build_type_lexicon(corpus, merged)
    provenance = _provenance(args)
    payload = lexicon.to_json()
    payload["provenance"] = provenance
    _write(Path(args.out), _dump(payload) + "\n")
    print(f"lexicon with {len(lexicon)} types over dims {list(merged.dims)} -> {args.out}")
    return 0


def cmd_apply_lexicon(args) -> int:
    from . import aggregate
    from .tables import write_token_table

    corpus = _load_corpus(args)
    lexicon = _from_json(
        aggregate.TypeLexicon.from_json, _read_json(args.lexicon), "lexicon", args.lexicon
    )
    table, coverage = aggregate.apply_type_lexicon(lexicon, corpus)
    provenance = _provenance(args)
    _write(Path(args.out), write_token_table(table, {"provenance": provenance}))
    print(
        ingest._printed(
            {
                "tokens": coverage.n_tokens,
                "unknown": coverage.n_unknown,
                "unknown_pct": coverage.unknown_pct,
            }
        )
    )
    return 0


def cmd_assemble(args) -> int:
    from . import datasets
    from .tables import read_token_table

    corpus = _load_corpus(args)
    tables = _aggregated_tables(args)
    if args.lex:
        tables["lex"] = read_token_table(ingest.Lines(args.lex), strict=args.strict)
    dataset = datasets.assemble(
        corpus,
        tables,
        strict=args.strict,
        add_gaze_neighbors=args.neighbors,
        as_binary_sentiment=args.binary,
        binary_policy=args.binary_policy,
    )
    provenance = _provenance(args)
    _write(Path(args.out), datasets.write_dataset(dataset, {"provenance": provenance}))
    print(
        f"dataset task={dataset.task} instances={len(dataset.instances)} "
        f"dims={len(dataset.manifest)} -> {args.out}"
    )
    return 0


def _load_dataset(args, path: str | None = None) -> datasets.Dataset:
    from . import datasets

    return datasets.read_dataset(ingest.Lines(path or args.dataset), strict=args.strict)


def _fold_plan(args, dataset: datasets.Dataset) -> datasets.FoldPlan:
    """Split ``dataset`` by ``--folds``, ``--ratios`` and ``--seed``."""
    from . import datasets

    try:
        train, dev, test = (float(x) for x in args.ratios.split(","))
    except ValueError:
        raise ConfigError(f"expected train,dev,test ratios, got {args.ratios!r}") from None
    return datasets.kfold_split(dataset, args.folds, (train, dev, test), args.seed)


def _write_model(
    out: Path, fold: int, data: bytes, plan: datasets.FoldPlan, provenance: dict
) -> None:
    """Write a fold's model file from its rendered bytes, and with the first
    one ``fold_plan.json``: a run that fails a training check has written
    nothing."""
    if fold == 0:
        _write(out / "fold_plan.json", _dump({**plan.to_json(), "provenance": provenance}) + "\n")
    (out / f"model_fold{fold}.json").write_bytes(data)


#: About this many values per codec call when a model file's array is
#: rendered: a ``ner-protocol`` MTL model's rendering then peaks at about
#: 1.25x its file size (2048 values: 1.8x) and takes about as long as one
#: call for the whole file. One call per row made a tagger file 2.5x slower.
_BLOCK_VALUES = 512


def _render_model(model) -> bytes:
    """A model file's bytes: ``_dump`` of ``model.to_json()`` with its arrays
    in list form, plus a newline, as UTF-8.

    The text is written into one buffer. Each array, and each
    ``models.KeyedRows``, is rendered in blocks of rows that hold about
    ``_BLOCK_VALUES`` values, one ``ingest._dumps`` of each block;
    everything else goes through it whole. So rendering holds about the
    file's bytes plus one block, not a Python float and a JSON chunk for
    every weight. Bytes, not text: a fold worker's result is unpickled
    without a second, decoded copy (peak memory).
    """
    out = io.BytesIO()
    _render(model.to_json(), out)
    out.write(b"\n")
    # the buffer's own bytes, not a copy
    return out.getvalue()


def _render(obj, out: io.BytesIO) -> None:
    """Write the UTF-8 bytes of ``_dump(obj)`` to ``out``, where ``obj`` may
    hold arrays and ``KeyedRows`` as dict values."""
    from . import models

    if isinstance(obj, dict):
        out.write(b"{")
        for i, key in enumerate(sorted(obj)):  # as _dump sorts them
            if i:
                out.write(b",")
            out.write(ingest._dumps(key))
            out.write(b":")
            _render(obj[key], out)
        out.write(b"}")
    elif isinstance(obj, np.ndarray):
        _render_rows(obj, None, out)
    elif isinstance(obj, models.KeyedRows):
        _render_rows(obj.rows, obj.keys, out)
    else:
        out.write(ingest._dumps(obj, sort_keys=True))


def _render_rows(rows: np.ndarray, keys, out: io.BytesIO) -> None:
    """Write ``rows`` as a JSON list, or as an object from each of the sorted
    ``keys`` to its row, one ``ingest._dumps`` per block of rows (see
    ``_row_ranges``)."""
    step = max(1, _BLOCK_VALUES // max(1, math.prod(rows.shape[1:])))
    out.write(b"[" if keys is None else b"{")
    for start, stop in _row_ranges(rows, step):
        block = values = rows[start:stop]
        if rows.dtype != np.float64:
            # orjson writes a float32 value as its own shortest form
            block, values = block.tolist(), None
        if keys is not None:
            block = dict(zip(keys[start:stop], block))
        if start:
            out.write(b",")
        data = ingest._dumps(block, sort_keys=True, values=values)
        out.write(data[1:-1])  # without its brackets
    out.write(b"]" if keys is None else b"}")


def _row_ranges(rows: np.ndarray, step: int):
    """``(start, stop)`` of each block of ``step`` rows; a float64 block
    that holds a value beyond ``repr``'s fixed-point range, which ``json``
    renders, is split into its rows, so that ``json`` renders only the rows
    that hold one. A trunk's weights, drawn near zero, put one in about a
    third of their blocks."""
    for start in range(0, len(rows), step):
        stop = min(start + step, len(rows))
        block = rows[start:stop]
        if rows.dtype == np.float64 and len(block) > 1 and ingest._beyond_repr_range(block):
            yield from ((row, row + 1) for row in range(start, stop))
        else:
            yield start, stop


def cmd_train(args) -> int:
    from . import models, workers

    dataset = _load_dataset(args)
    out = Path(args.out)
    provenance = _provenance(args)
    plan = _fold_plan(args, dataset)
    model_kind = args.model
    if model_kind == "auto":
        model_kind = "tagger" if dataset.task == "ner" else "logistic"
    if model_kind == "tagger":
        config = models.TaggerConfig(epochs=args.epochs, seed=args.seed, n_bins=args.bins)
        train = models.train_tagger
    elif model_kind == "logistic":
        config = models.LogisticConfig(
            lr=args.lr,
            epochs=args.epochs,
            l2=args.l2,
            seed=args.seed,
            lr_halve_every=args.lr_halve_every,
        )
        train = models.train_logistic
    else:
        raise ConfigError(f"unknown model {model_kind!r}")

    def fold_model(fold: int) -> bytes:
        return _render_model(train(dataset, plan.train_ids(fold), config))

    # no fold's model stays referenced while the next fold trains
    # (enumerate would keep the last one): peak memory
    rendered = workers.by_fold(fold_model, plan.k)
    for fold in range(plan.k):
        _write_model(out, fold, next(rendered), plan, provenance)
    _write(out / "config.json", _dump({"provenance": provenance}) + "\n")
    print(f"trained {plan.k} {model_kind} folds -> {out}")
    return 0


def _from_json(build, obj, what: str, path: Path):
    """``build(obj)`` for the JSON ``obj`` read from ``path``; a missing
    field, a value of the wrong type, an unusable value or a matrix of the
    wrong shape is a ValidationError that names the file."""
    try:
        return build(obj)
    except (
        AttributeError, KeyError, TypeError, ValueError, ConfigError, ParseError, ValidationError
    ) as exc:
        raise ValidationError(
            f"malformed {what} in {path}: {type(exc).__name__}: {exc}"
        ) from None


def _load_model(path: Path):
    from . import models

    text = _read_text(path)
    obj = ingest._loads(text)
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in ("tagger", "logistic"):
        raise ValidationError(f"unknown model kind {kind!r} in {path}")
    loader = models.PerceptronTagger if kind == "tagger" else models.LogisticModel
    return _from_json(lambda o: loader.from_json(o, text), obj, f"{kind} model", path)


def _predict_run(run_dir: Path, dataset: datasets.Dataset):
    """Per-sentence test predictions pooled across folds, plus fold metrics."""
    from . import datasets, evaluation, models

    plan_path = run_dir / "fold_plan.json"
    plan = _from_json(datasets.FoldPlan.from_json, _read_json(plan_path), "fold plan", plan_path)
    ner = dataset.task == "ner"
    scorer = _default_scorer(dataset.task)
    fold_metrics = []
    predictions: dict[str, list] = {}
    for fold in range(plan.k):
        model = _load_model(run_dir / f"model_fold{fold}.json")
        test_ids = plan.test_ids(fold)
        instances = dataset.select(test_ids)
        preds = models.predict(model, dataset, test_ids)
        fold_metrics.append(evaluation.metrics([inst.label for inst in instances], preds, scorer))
        for inst, p in zip(instances, preds):
            # a tagged sentence, or the labels of a sentence's instances
            if ner:
                predictions[inst.sentence_id] = list(p)
            else:
                predictions.setdefault(inst.sentence_id, []).append(p)
    return plan, fold_metrics, predictions


def _prediction_units(dataset: datasets.Dataset, predictions: dict):
    """Aligned (gold, pred) sentence units for permutation testing."""
    by_sid: dict[str, list] = {}
    for inst in dataset.instances:
        by_sid.setdefault(inst.sentence_id, []).append(inst)
    gold_units = []
    pred_units = []
    for sid, instances in by_sid.items():
        if sid not in predictions:
            continue
        if dataset.task == "ner":
            gold_units.append(instances[0].label)
        else:
            gold_units.append(tuple(i.label for i in instances))
        pred_units.append(tuple(predictions[sid]))
    return gold_units, pred_units


def _default_scorer(task: str) -> str:
    return "entity_f1" if task == "ner" else "macro_f1"


def _significance(
    args, dataset: datasets.Dataset, preds_a: dict, preds_b: dict
) -> evaluation.SignificanceResult:
    """Permutation-test two systems' pooled test predictions (sentence id ->
    prediction) against ``dataset`` and star the p-value under the
    Bonferroni threshold."""
    from . import evaluation

    only_a = sorted(set(preds_a) - set(preds_b))
    only_b = sorted(set(preds_b) - set(preds_a))
    if only_a or only_b:
        raise ConfigError(
            f"prediction files cover different sentence ids: {len(only_a)} only in A, "
            f"{len(only_b)} only in B, e.g. {(only_a + only_b)[0]!r}"
        )
    gold_units, units_a = _prediction_units(dataset, preds_a)
    _, units_b = _prediction_units(dataset, preds_b)
    scorer = args.scorer or _default_scorer(dataset.task)
    p_value = evaluation.permutation_test(
        units_a, units_b, gold_units, scorer, n_rounds=args.rounds, seed=args.seed
    )
    return evaluation.bonferroni(p_value, alpha=args.alpha, n_hypotheses=args.n_hyp)


def _evaluate_one_run(args, dataset, run_dir: Path, label: str, provenance: dict):
    """Score one run dir, writing its report and pooled test predictions."""
    from . import evaluation

    _plan, fold_metrics, predictions = _predict_run(run_dir, dataset)
    runs = [
        evaluation.RunMetrics(task=dataset.task, config=label, fold=i, metrics=m)
        for i, m in enumerate(fold_metrics)
    ]
    rep = evaluation.report(runs)
    payload = rep.to_json()
    payload["provenance"] = provenance
    _write(run_dir / "report.json", _dump(payload) + "\n")
    header = ingest._header("predictions", {"task": dataset.task}, provenance=provenance)
    records = (
        {"id": sid, "prediction": predictions[sid]}
        for sid in dataset.sentence_ids()
        if sid in predictions
    )
    text = ingest._render_lines(chain([header], records), sort_keys=True)
    _write(run_dir / "predictions.jsonl", text)
    return runs, predictions


def cmd_evaluate(args) -> int:
    from . import evaluation

    if args.compare or args.runs:
        evaluation._check_rounds(args.rounds)
    # bonferroni's checks, before a bad value reaches the report's provenance
    evaluation.bonferroni(1.0, alpha=args.alpha, n_hypotheses=args.n_hyp)
    dataset = _load_dataset(args)
    provenance = _provenance(args)
    if args.compare:
        run_dirs = args.compare.split(",")
        if len(run_dirs) != 2 or not all(run_dirs):
            raise ConfigError(
                f"--compare needs exactly two run dirs RUN_A,RUN_B, got {args.compare!r}"
            )
        run_a, run_b = [Path(p) for p in run_dirs]
        sig = _significance(
            args,
            dataset,
            _read_predictions(run_a / "predictions.jsonl", args.strict),
            _read_predictions(run_b / "predictions.jsonl", args.strict),
        )
        print(ingest._printed({"comparison": args.compare, **sig.to_json()}))
        return 0
    # a table over one or more feature configurations; each run is scored
    # against the dataset it was trained on (recorded in its config.json),
    # and non-baseline rows are tested against baseline
    labeled: dict[str, Path] = {}
    if args.runs:
        for item in args.runs.split(","):
            label, _, path = item.partition("=")
            if not path:
                raise ConfigError(f"--runs items must be label=dir, got {item!r}")
            if label in labeled:
                raise ConfigError(f"--runs repeats the label {label!r}")
            labeled[label] = Path(path)
    elif args.run:
        labeled[args.label] = Path(args.run)
    else:
        raise ConfigError("evaluate needs --run, --runs, or --compare")
    all_runs = []
    pooled: dict[str, dict] = {}
    for label, run_dir in labeled.items():
        run_dataset = _training_dataset(args, run_dir) or dataset
        if run_dataset.sentence_ids() != dataset.sentence_ids():
            raise ConfigError(f"run {label!r} was trained on a different sentence set")
        runs, predictions = _evaluate_one_run(args, run_dataset, run_dir, label, provenance)
        all_runs.extend(runs)
        pooled[label] = predictions
    significance = {}
    if "baseline" in labeled:
        for label in labeled:
            if label != "baseline":
                significance[(dataset.task, label)] = _significance(
                    args, dataset, pooled["baseline"], pooled[label]
                )
    rep = evaluation.report(all_runs, significance)
    payload = rep.to_json()
    payload["provenance"] = provenance
    if args.out:
        _write(Path(args.out), _dump(payload) + "\n")
    print(rep.render_text())
    return 0


def _training_dataset(args, run_dir: Path) -> datasets.Dataset | None:
    """The dataset a run was trained on, recovered from its config record."""
    config_path = run_dir / "config.json"
    if not config_path.exists():
        return None
    dataset_path = _read_json(config_path)
    for key in ("provenance", "config", "dataset"):
        if not isinstance(dataset_path, dict):
            raise ValidationError(
                f"malformed run config in {config_path}: no object to hold {key!r}"
            )
        if key not in dataset_path:
            return None
        dataset_path = dataset_path[key]
    if not isinstance(dataset_path, str):
        raise ValidationError(f"malformed run config in {config_path}: 'dataset' is not a string")
    if dataset_path and Path(dataset_path).exists():
        return _load_dataset(args, dataset_path)
    return None


_PREDICTIONS = ingest._Kind(("id", "prediction"))


def _prediction(obj: dict, lineno: int, _text: str) -> tuple[str, tuple]:
    """A predictions line's sentence id and prediction."""
    sid = ingest._as_str(obj, "id", lineno)
    return sid, ingest._as_names(obj["prediction"], "field 'prediction'", lineno)


def _read_predictions(path: Path, strict: bool = False) -> dict:
    records = ingest._Records(ingest.Lines(path), _PREDICTIONS, _prediction, strict=strict)
    return dict(p for _, p in records)


def cmd_mtl(args) -> int:
    from . import models, mtl, workers

    dataset = _load_dataset(args)
    aux_specs = []
    for source in [s for s in (args.aux or "").split(",") if s]:
        aux_specs.append(mtl.AuxTaskSpec(source=source, n_bins=args.bins, weight=args.aux_weight))
    main = None if args.main_source is None else mtl.AuxTaskSpec(args.main_source, args.bins)
    freq = None
    if args.freq_lexicon:
        freq = mtl.FrequencyLexicon.from_lines(ingest.Lines(args.freq_lexicon))
    out = Path(args.out)
    provenance = _provenance(args)
    plan = _fold_plan(args, dataset)
    net_config = models.TrunkConfig(
        embed_dim=args.embed, hidden_dim=args.hidden, seed=args.seed
    )
    # built once, before the folds fork: every fold trains and scores these
    tasks = mtl.build_tasks(
        dataset, aux_specs, freq=freq, label_mode=args.label_mode, main_source=main
    )

    def fold_run(fold: int) -> tuple[bytes, dict]:
        model = mtl.train_multitask(
            dataset,
            plan.train_ids(fold),
            tasks,
            net_config=net_config,
            epochs=args.epochs,
            lr=args.lr,
            seed=args.seed,
            use_features_as_input=args.features_as_input,
        )
        scores = mtl.evaluate_multitask(model, dataset, plan.test_ids(fold), tasks)
        return _render_model(model), scores

    results = workers.by_fold(fold_run, plan.k)
    per_fold = []
    for fold in range(plan.k):
        data, scores = next(results)
        _write_model(out, fold, data, plan, provenance)
        per_fold.append(scores)
        del data  # not held while the next fold trains, as in cmd_train
    heads = sorted(per_fold[0])
    summary = {
        head: {
            "accuracy": float(np.mean([f[head]["accuracy"] for f in per_fold])),
            "majority_baseline": float(
                np.mean([f[head]["majority_baseline"] for f in per_fold])
            ),
        }
        for head in heads
    }
    for head in heads:
        if all("accuracy_excluding_o" in f[head] for f in per_fold):
            summary[head]["accuracy_excluding_o"] = float(
                np.mean([f[head]["accuracy_excluding_o"] for f in per_fold])
            )
    _write(
        out / "mtl_report.json",
        _dump({"provenance": provenance, "folds": per_fold, "mean": summary}) + "\n",
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError, so it ends in the one-line JSON record."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _check_config_value(action: argparse.Action, key: str, value) -> None:
    """A ``--config`` value must suit its option: a flag takes ``true`` or
    ``false``, a string is parsed as if it were given on the command line,
    and ``null`` stands only for an option whose default is ``None``."""
    shown = reprlib.repr(value)  # a few levels deep: JSON may nest past the recursion limit
    if action.choices is not None and value is not None and value not in action.choices:
        raise ConfigError(f"--config key {key!r}: {shown} is not one of {list(action.choices)}")
    if action.nargs == 0 and not isinstance(value, bool):
        raise ConfigError(f"--config key {key!r} must be true or false, got {shown}")
    if action.nargs == 0 or isinstance(value, str) or (value is None and action.default is None):
        return
    expected = {int: (int,), float: (int, float)}.get(action.type, (str,))
    if isinstance(value, bool) or not isinstance(value, expected):
        kind = {int: "an integer", float: "a number"}.get(action.type, "a string")
        raise ConfigError(f"--config key {key!r} must be {kind}, got {shown}")


#: The options of every subcommand, and of every one that reads a corpus;
#: each is a flag and its ``add_argument`` keywords.
_COMMON = (("--seed", {"type": int, "default": 0}), ("--strict", {"action": "store_true"}))
_CORPUS = (
    ("--corpus", {"required": True}),
    ("--task", {"required": True, "choices": ingest.TASKS}),
)

#: Each subcommand's function, help line and options after the ``_COMMON`` ones.
_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic corpus with recordings", (
        ("--out", {"required": True}),
        ("--task", {"default": "ner", "choices": ingest.TASKS}),
        ("--sentences", {"type": int, "default": 100}),
        ("--subjects", {"type": int, "default": 3}),
        ("--vocab", {"type": int, "default": 400}),
        ("--entity-vocab", {"type": int, "default": 120}),
        ("--entity-mode", {"default": "positional", "choices": ("positional", "lexical")}),
        ("--entity-rate", {"type": float, "default": 0.18}),
        ("--len-min", {"type": int, "default": 5}),
        ("--len-max", {"type": int, "default": 12}),
        ("--delta-trt", {"type": float, "default": 0.0}),
        ("--eeg-band", {"default": None}),
        ("--delta-eeg", {"type": float, "default": 0.0}),
    )),
    "ingest-validate": (cmd_ingest_validate, "validate interchange files", (
        *_CORPUS,
        ("--fixations", {}),
        ("--eeg", {}),
    )),
    "extract-gaze": (cmd_extract_gaze, "compute word-level reading measures", (
        *_CORPUS,
        ("--fixations", {"required": True}),
        ("--out", {"required": True}),
        ("--min-duration", {"type": float, "default": ingest.MIN_FIXATION_MS}),
        ("--fixp-out", {"help": "also write fixation probabilities (token level)"}),
    )),
    "extract-eeg": (cmd_extract_eeg, "compute word-level EEG band features", (
        *_CORPUS,
        ("--fixations", {"required": True}),
        ("--eeg", {"required": True}),
        ("--out", {"required": True}),
        ("--eeg-window", {"default": "ffd", "choices": ingest.WINDOW_MODES}),
        ("--eeg-reduce", {"default": "electrode_mean", "choices": ingest.REDUCTIONS}),
        ("--unweighted", {"action": "store_true"}),
        ("--min-duration", {"type": float, "default": ingest.MIN_FIXATION_MS}),
    )),
    "build-lexicon": (cmd_build_lexicon, "build a type-aggregated lexicon", (
        *_CORPUS,
        ("--gaze", {"help": "gaze features file (subject level)"}),
        ("--eeg", {"help": "EEG features file (subject level)"}),
        ("--agg", {"default": "mean"}),
        ("--fixp", {"action": "store_true"}),
        ("--out", {"required": True}),
    )),
    "apply-lexicon": (cmd_apply_lexicon, "look up type features for a corpus", (
        *_CORPUS,
        ("--lexicon", {"required": True}),
        ("--out", {"required": True}),
    )),
    "assemble": (cmd_assemble, "build a task dataset with features", (
        *_CORPUS,
        ("--gaze", {}),
        ("--eeg", {}),
        ("--lex", {"help": "token-level features from apply-lexicon"}),
        ("--agg", {"default": "mean"}),
        ("--fixp", {"action": "store_true"}),
        ("--neighbors", {"action": "store_true"}),
        ("--binary", {"action": "store_true"}),
        ("--binary-policy", {"default": "drop-all", "choices": ("drop-all", "drop-train-only")}),
        ("--out", {"required": True}),
    )),
    "train": (cmd_train, "train per-fold models", (
        ("--dataset", {"required": True}),
        ("--out", {"required": True}),
        ("--model", {"default": "auto", "choices": ("auto", "tagger", "logistic")}),
        ("--folds", {"type": int, "default": 10}),
        ("--ratios", {"default": "0.8,0.1,0.1"}),
        ("--epochs", {"type": int, "default": 20}),
        ("--lr", {"type": float, "default": 0.5}),
        ("--l2", {"type": float, "default": 0.0}),
        ("--lr-halve-every", {"type": int, "default": None}),
        ("--bins", {"type": int, "default": 10}),
    )),
    "evaluate": (cmd_evaluate, "score runs, build tables, compare systems", (
        ("--dataset", {"required": True}),
        ("--run", {"help": "DIR: the same as --runs LABEL=DIR, LABEL from --label"}),
        ("--label", {"default": "baseline", "help": "config row name for --run"}),
        ("--runs", {
            "help": "label=dir,...: combined table; non-baseline rows tested against baseline",
        }),
        ("--out", {"help": "write the combined report JSON here"}),
        ("--compare", {"help": "RUN_A,RUN_B: permutation-test two runs"}),
        ("--scorer", {}),  # its choices, from evaluation, are added in build_parser
        ("--rounds", {"type": int, "default": 10000}),
        ("--alpha", {"type": float, "default": 0.01}),
        ("--n-hyp", {"type": int, "default": 12}),
    )),
    "mtl": (cmd_mtl, "multi-task training with auxiliary features", (
        ("--dataset", {"required": True}),
        ("--out", {"required": True}),
        ("--aux", {"default": "", "help": "comma list: TRT,EEG_a,word_frequency,..."}),
        ("--aux-weight", {"type": float, "default": 1.0}),
        ("--bins", {"type": int, "default": 10}),
        ("--freq-lexicon", {"help": "word<TAB>count file"}),
        ("--label-mode", {"default": "task", "choices": ("task", "neutral-vs-rest")}),
        ("--main-source", {"default": None, "help": "swap roles: feature as main task"}),
        ("--features-as-input", {"action": "store_true"}),
        ("--folds", {"type": int, "default": 5}),
        ("--ratios", {"default": "0.8,0.0,0.2"}),
        ("--epochs", {"type": int, "default": 5}),
        ("--lr", {"type": float, "default": 0.1}),
        ("--embed", {"type": int, "default": 32}),
        ("--hidden", {"type": int, "default": 64}),
    )),
}


def build_parser(
    defaults: dict | None = None, command: str | None = None
) -> argparse.ArgumentParser:
    """Build the CLI parser with the subparser of ``command`` only, or of
    every subcommand when ``command`` names none (so ``--help`` lists them
    all and an unknown name is refused with their list). ``defaults`` (from
    --config) override option defaults, and are type-checked, in each
    subparser built that defines the option; other keys are ignored.

    With one subparser, building the parser and parsing an
    ``ingest-validate`` command took 0.4 ms instead of 2.6, and left 87
    objects that only the cyclic garbage collector frees instead of 483
    (each ``add_argument`` leaves a ``HelpFormatter`` cycle).
    """
    parser = _Parser(
        prog="cognlp",
        description="Cognitive-signal feature extraction and evaluation pipeline",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)
    # subcommands parse into a fresh namespace, so defaults must be set on
    # each subparser that actually defines the option
    renamed = {k.replace("-", "_"): v for k, v in (defaults or {}).items()}
    for name in [command] if command in _COMMANDS else _COMMANDS:
        func, help_line, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(func=func, command=name)
        for flag, kwargs in _COMMON + options:
            if flag == "--scorer":  # so only the evaluate subparser loads evaluation
                from . import evaluation

                kwargs = {**kwargs, "choices": sorted(evaluation.SCORERS)}
            p.add_argument(flag, **kwargs)
        actions = {a.dest: a for a in p._actions}
        overrides = {k: v for k, v in renamed.items() if k in actions}
        for key, value in overrides.items():
            _check_config_value(actions[key], key, value)
        p.set_defaults(**overrides)
    return parser


def _command(argv: list[str]) -> str | None:
    """The subcommand that ``argv`` names in its first item other than
    ``--config`` and that option's value; None when that item is no
    subcommand (``--help``, an unknown name, an abbreviated ``--config``)."""
    args = iter(argv)
    for arg in args:
        if arg == "--config":
            next(args, None)
        elif not arg.startswith("--config="):
            return arg if arg in _COMMANDS else None
    return None


def _config_defaults(argv: list[str]) -> dict | None:
    """Option defaults from the JSON object in the ``--config`` file, if any."""
    for at, arg in enumerate(argv):
        name, eq, path = arg.partition("=")
        if name != "--config":
            continue
        if not eq:
            if at + 1 == len(argv):
                raise ConfigError("--config needs a JSON file path")
            path = argv[at + 1]
        defaults = _read_json(path)
        if not isinstance(defaults, dict):
            raise ConfigError("--config must contain a JSON object")
        return defaults
    return None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(_config_defaults(argv), _command(argv)).parse_args(argv)
        return args.func(args)
    except (CognlpError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        line = getattr(exc, "line", None)
        if line is not None:
            record["line"] = line
        print(ingest._printed(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
