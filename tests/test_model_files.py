"""Model files are rendered array by array, in blocks of rows.

The oracle is the whole file through one ``json.dumps`` of the model's
object with every array in list form, as model files were written before:
``cli._render_model`` must give the same bytes for any mix of arrays,
``KeyedRows`` and plain JSON values, at any array shape, and for every model
kind that ``train`` and ``mtl`` write.
"""

import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cognlp import cli, datasets, gaze, ingest, mtl
from cognlp.models import (
    KeyedRows,
    LogisticConfig,
    TaggerConfig,
    TrunkConfig,
    TrunkNet,
    train_logistic,
    train_tagger,
)
from cognlp.tables import FeatureTable, write_token_table

from test_cli import _tiny_dataset, run
from test_models import ner_dataset, sentiment_corpus

EDGE_VALUES = (
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308,
)
KEYS = ("plain", "ünïcödé", "line sep", 'quo"te', "日本", "")


def tolist(obj):
    """``obj`` with every array and ``KeyedRows`` in list form."""
    if isinstance(obj, dict):
        return {key: tolist(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, KeyedRows):
        return dict(zip(obj.keys, obj.rows.tolist()))
    return obj


def oracle(obj) -> bytes:
    text = json.dumps(tolist(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def rendered(obj) -> bytes:
    return cli._render_model(SimpleNamespace(to_json=lambda: obj))


def _random_array(rng, shape, kind=None):
    kind = rng.integers(3) if kind is None else kind
    if kind == 0:
        array = rng.normal(0.0, 10.0 ** rng.integers(-6, 7), size=shape)
        flat = array.reshape(-1)
        for i in rng.integers(0, max(flat.size, 1), size=min(flat.size, 4)):
            flat[i] = EDGE_VALUES[rng.integers(len(EDGE_VALUES))]
        return array
    if kind == 1:
        return rng.integers(-(2**62), 2**62, size=shape, dtype=np.int64)
    return rng.random(shape) < 0.5


def _block_rows(width):
    return max(1, cli._BLOCK_VALUES // max(1, width))


def _shapes(rng):
    k = int(rng.integers(1, 12))
    n = _block_rows(k)
    return [(0,), (0, k), (k, 0), (1, k), (n - 1, k), (n, k), (n + 1, k), (int(rng.integers(2, 200)),)]


def _random_object(rng, depth=0):
    obj = {}
    for key in rng.permutation(KEYS)[: rng.integers(1, len(KEYS))]:
        pick = rng.integers(5)
        if pick == 0 and depth < 3:
            obj[str(key)] = _random_object(rng, depth + 1)
        elif pick == 1:
            shapes = _shapes(rng)
            obj[str(key)] = _random_array(rng, shapes[rng.integers(len(shapes))])
        elif pick == 2:
            n = int(rng.integers(0, 3 * _block_rows(3)))
            keys = sorted({f"{KEYS[i % len(KEYS)]}{i}" for i in range(n)})
            obj[str(key)] = KeyedRows(tuple(keys), rng.normal(size=(len(keys), 3)))
        elif pick == 3:
            obj[str(key)] = [float(rng.normal()), int(rng.integers(9)), None, True, "t "]
        else:
            obj[str(key)] = EDGE_VALUES[rng.integers(len(EDGE_VALUES))]
    return obj


@pytest.mark.parametrize("seed", range(40))
def test_random_objects_render_as_the_oracle(seed):
    obj = _random_object(np.random.default_rng(seed))
    assert rendered(obj) == oracle(obj)


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["float64", "int64", "bool"])
def test_every_shape_around_the_block_size_renders_as_the_oracle(kind):
    rng = np.random.default_rng(1)
    for k in (1, 3, 8, 64, 600):
        n = _block_rows(k)
        for shape in [(0,), (0, k), (k, 0), (1, k), (n - 1, k), (n, k), (n + 1, k), (2 * n + 1, k),
                      (cli._BLOCK_VALUES - 1,), (cli._BLOCK_VALUES,), (cli._BLOCK_VALUES + 1,),
                      (n + 1, 2, k)]:
            array = _random_array(rng, shape, kind)
            obj = {"a": array, "b": {"c": array[:1]}}
            assert rendered(obj) == oracle(obj), shape


def test_edge_values_render_as_the_oracle():
    values = np.array(EDGE_VALUES * 200).reshape(-1, 8)
    obj = {'"': values, " ": values[:, 0], "é": KeyedRows(tuple(f"k{i:04d}" for i in range(len(values))), values)}
    assert rendered(obj) == oracle(obj)
    assert b"NaN" in rendered(obj) and b"-Infinity" in rendered(obj) and b"5e-324" in rendered(obj)


def test_keyed_rows_with_unusual_keys_render_as_the_oracle():
    keys = tuple(sorted(f"{key}{i}" for i in range(3 * _block_rows(2)) for key in KEYS))
    obj = {"weights": KeyedRows(keys, np.arange(2 * len(keys), dtype=float).reshape(-1, 2))}
    assert rendered(obj) == oracle(obj)


def _dataset(task):
    """Twelve five-token sentences with a gaze feature per token and per
    sentence."""
    instances = []
    rng = np.random.default_rng(0)
    for i in range(12):
        tokens = tuple(f"w{rng.integers(40)}" for _ in range(5))
        label = ("pos", "neg")[i % 2]
        if task == "ner":
            label = tuple("B-PER" if j == 0 and i % 2 else "O" for j in range(5))
        instances.append(datasets.Instance(
            f"s{i}", tokens, label, rng.random((5, 1)) * 300, rng.random(1) * 300,
        ))
    return datasets.Dataset(task, ("gaze/TRT",), tuple(instances))


def _models():
    ner, sentiment = _dataset("ner"), _dataset("sentiment2")
    for data in (ner, ner_dataset()):
        yield train_tagger(data, data.sentence_ids(), TaggerConfig(epochs=2, seed=3))
    for data in (sentiment, datasets.assemble(sentiment_corpus())):
        yield train_logistic(data, data.sentence_ids(), LogisticConfig(epochs=3, seed=3))
    for features_as_input in (False, True):
        yield mtl.train_multitask(
            ner, ner.sentence_ids(), mtl.build_tasks(ner, [mtl.AuxTaskSpec("TRT", n_bins=3)]),
            net_config=TrunkConfig(embed_dim=4, hidden_dim=5, seed=1), epochs=1, seed=1,
            use_features_as_input=features_as_input,
        )


@pytest.mark.parametrize("model", list(_models()), ids=lambda m: type(m).__name__)
def test_every_model_kind_renders_as_the_oracle(model):
    assert cli._render_model(model) == oracle(model.to_json())


@pytest.mark.parametrize(
    "stage, task, extra",
    [
        ("train", "ner", ["--model", "tagger"]),
        ("train", "sentiment2", ["--model", "logistic"]),
        ("mtl", "ner", ["--aux", "word_frequency"]),
    ],
)
def test_files_written_by_train_and_mtl_are_the_oracle_bytes(tmp_path, capsys, stage, task, extra):
    _tiny_dataset(tmp_path / "dataset.jsonl", task)
    assert run([
        stage, "--dataset", tmp_path / "dataset.jsonl", "--out", tmp_path / "out",
        "--folds", 2, "--ratios", "0.5,0.0,0.5", "--epochs", 2, *extra,
    ]) == 0
    for fold in range(2):
        data = (tmp_path / "out" / f"model_fold{fold}.json").read_bytes()
        assert data == oracle(json.loads(data))


def test_rendering_an_mtl_model_peaks_near_its_file_size():
    # a ner-protocol fold's MTL model: about 400 words, the default trunk,
    # the main head and two auxiliary heads
    net = TrunkNet([f"word{i}" for i in range(400)], 0, {"main": 9, "TRT": 10, "word_frequency": 10})
    model = mtl.MultitaskModel(net, {"main": tuple("ABCDEFGHI")}, (), None, {"epochs": 2})
    size = len(cli._render_model(model))
    assert size > 300_000
    tracemalloc.start()
    try:
        cli._render_model(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one json.dumps of the whole model peaked at 6.9x the file size
    assert peak < 1.5 * size


def _line_files(n: int = 3000) -> dict:
    """Each line writer to a table of ``n`` rows, with values like the
    pipeline's: a fixation log, a token table and a gaze table."""
    rng = np.random.default_rng(0)
    keys = [(f"s{i // 15}", i % 15) for i in range(n)]
    events = [
        ingest.FixationEvent("A", sid, w, w, float(rng.integers(80, 400)), 30.0 * w if w % 2 else None)
        for sid, w in keys
    ]
    groups = {}
    for e in events:
        groups.setdefault((e.subject, e.sentence_id), []).append(e)
    log = ingest.FixationLog({key: tuple(group) for key, group in groups.items()})
    token = FeatureTable(("g/TRT", "g/FFD", "e/theta1"), dict(zip(keys, rng.random((n, 3)))), False)
    measures = np.column_stack([rng.integers(0, 4, n), rng.integers(80, 900, (n, 5)).astype(float)])
    subject_keys = [("A", sid, w) for sid, w in keys]
    gaze_table = FeatureTable(gaze.GAZE_FEATURES, dict(zip(subject_keys, measures)), True)
    return {
        ingest.serialize_fixations: log,
        write_token_table: token,
        gaze.write_gaze_features: gaze_table,
    }


@pytest.mark.parametrize(
    "write", [ingest.serialize_fixations, write_token_table, gaze.write_gaze_features]
)
def test_rendering_a_line_file_peaks_near_its_text_size(write):
    data = _line_files()[write]
    size = len(write(data))
    assert size > 100_000
    tracemalloc.start()
    try:
        write(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of one orjson result per line, joined at the end, peaked at
    # 14.1x (fixations), 12.0x (token table) and 10.9x (gaze) these texts;
    # one buffer peaks at 2.1x
    assert peak < 2.5 * size
