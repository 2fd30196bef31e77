"""Forked workers: ``workers.by_fold`` against one-CPU runs, and the
``train`` and ``mtl`` commands whose folds it runs."""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

import cognlp
from cognlp import datasets, workers
from cognlp.cli import main
from cognlp.errors import ValidationError

from test_cli import _error_record, _open_fds

FOLDS = ("--folds", 5, "--ratios", "0.8,0.0,0.2", "--epochs", 2, "--seed", 1)

#: the CPU affinity the test process started with
MASK = os.sched_getaffinity(0)


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """An assembled dataset with gaze features for each of three tasks."""
    root = tmp_path_factory.mktemp("folds")
    for task in ("ner", "sentiment3", "relclass"):
        d = root / task
        corpus = ("--corpus", d / "corpus.jsonl", "--task", task)
        assert run(["synth", "--out", d, "--task", task, "--sentences", 30, "--subjects", 2,
                    "--seed", 5]) == 0
        assert run(["extract-gaze", *corpus, "--fixations", d / "fixations.jsonl",
                    "--out", d / "gaze.jsonl"]) == 0
        assert run(["assemble", *corpus, "--gaze", d / "gaze.jsonl",
                    "--out", d / "dataset.jsonl"]) == 0
    return root


def _argv(data, command, out):
    return {
        "tagger": ["train", "--dataset", data / "ner/dataset.jsonl", "--model", "tagger"],
        "logistic-sentiment3": ["train", "--dataset", data / "sentiment3/dataset.jsonl",
                                "--model", "logistic"],
        "logistic-relclass": ["train", "--dataset", data / "relclass/dataset.jsonl",
                              "--model", "logistic"],
        "mtl": ["mtl", "--dataset", data / "ner/dataset.jsonl", "--aux", "TRT,word_frequency"],
    }[command] + ["--out", out, *FOLDS]


def _files(out):
    if not out.exists():
        return {}
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _outcome(monkeypatch, capsys, argv, out, parts):
    """Exit code, stdout, stderr and every file written, running ``argv``
    into a fresh ``out`` with the folds in ``parts`` parts."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: parts)
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, _files(out)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def affinity_kept():
    """Every test below, whether its command succeeds or fails, leaves the
    process's CPU affinity as it started and no worker behind (checked
    before each test too, for what module fixtures ran)."""
    assert os.sched_getaffinity(0) == MASK
    yield
    assert os.sched_getaffinity(0) == MASK
    _assert_no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """The fold groups handed to worker processes."""
    handed = []
    fork = workers._fork

    def counted(work, folds, *args):
        handed.append(folds)
        return fork(work, folds, *args)

    monkeypatch.setattr(workers, "_fork", counted)
    return handed


def _result(fold):
    """A tuple, bytes, a dict or None, by fold."""
    return [("x", fold), f"{fold}\u2028é".encode(), {"x": [fold, -0.0]}, None][fold % 4]


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_by_fold_gives_the_results_of_one_cpu(monkeypatch, forks, cpus):
    k = 11
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    expected = list(workers.by_fold(_result, k))
    assert expected == [_result(f) for f in range(k)] and forks == []
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    results = list(workers.by_fold(_result, k))
    assert repr(results) == repr(expected)  # repr tells -0.0 from 0.0
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_by_fold_raises_an_error_after_the_results_before_it(monkeypatch, cpus):
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    k = 7
    for bad in range(k):
        def work(fold):
            if fold == bad:
                raise ValidationError(f"fold {fold} failed", line=fold + 1)
            return fold

        seen = []
        with pytest.raises(ValidationError) as raised:
            for result in workers.by_fold(work, k):
                seen.append(result)
        assert seen == list(range(bad)), (cpus, bad)
        assert (str(raised.value), raised.value.line) == (f"line {bad + 1}: fold {bad} failed", bad + 1)


@pytest.mark.parametrize("parts", [2, 3, 5])
@pytest.mark.parametrize("command", ["tagger", "logistic-sentiment3", "logistic-relclass", "mtl"])
def test_split_folds_write_the_same_bytes(data, tmp_path, monkeypatch, capsys, forks, command, parts):
    out = tmp_path / "run"
    argv = _argv(data, command, out)
    serial = _outcome(monkeypatch, capsys, argv, out, 1)
    assert serial[0] == 0 and "fold_plan.json" in serial[3] and "model_fold4.json" in serial[3]
    assert forks == []
    assert _outcome(monkeypatch, capsys, argv, out, parts) == serial
    assert len(forks) == parts - 1


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("fold", range(5))
@pytest.mark.parametrize("command", ["tagger", "mtl"])
def test_fold_error_matches_a_serial_run(data, tmp_path, monkeypatch, capsys, command, fold, parts):
    # with 2 parts folds 0-1 train in the parent and 2-4 in a worker; with 3,
    # fold 0 in the parent and 1-2 and 3-4 in two workers
    train_ids = datasets.FoldPlan.train_ids

    def failing(plan, f):
        if f == fold:
            raise ValidationError(f"fold {f} failed", line=f + 1)
        return train_ids(plan, f)

    monkeypatch.setattr(datasets.FoldPlan, "train_ids", failing)
    out = tmp_path / "run"
    argv = _argv(data, command, out)
    serial = _outcome(monkeypatch, capsys, argv, out, 1)
    assert serial[0] == 1 and f'"line": {fold + 1}' in serial[2]
    assert sorted(serial[3]) == sorted(
        ["fold_plan.json"] * (fold > 0) + [f"model_fold{f}.json" for f in range(fold)]
    )
    assert _outcome(monkeypatch, capsys, argv, out, parts) == serial


def test_write_error_matches_a_serial_run(data, tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    argv = _argv(data, "mtl", out)
    outcomes = []
    for parts in (1, 3):
        monkeypatch.setattr(workers, "usable_cpus", lambda: parts)
        shutil.rmtree(out, ignore_errors=True)
        (out / "model_fold1.json").mkdir(parents=True)  # unwritable
        capsys.readouterr()
        outcomes.append((run(argv), capsys.readouterr(), _files(out)))
    assert outcomes[0][0] == 1 and "IsADirectoryError" in outcomes[0][1].err
    assert outcomes[1] == outcomes[0]


def _in_workers(monkeypatch, action):
    """Run ``action()`` at the start of every fold trained in a worker."""
    parent = os.getpid()
    train_ids = datasets.FoldPlan.train_ids

    def hooked(plan, f):
        if os.getpid() != parent:
            action()
        return train_ids(plan, f)

    monkeypatch.setattr(datasets.FoldPlan, "train_ids", hooked)


def test_killed_fold_worker_is_one_json_line(data, tmp_path, monkeypatch, capsys):
    spools = tmp_path / "spools"
    spools.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spools))
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    _in_workers(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    fds = _open_fds()
    assert run(_argv(data, "tagger", tmp_path / "run")) == 1
    assert _error_record(capsys) == {
        "error": "CognlpError", "message": "a worker process was killed by signal 9",
    }
    assert list(spools.iterdir()) == [] and _open_fds() == fds


def test_unexpected_exception_in_a_fold_worker_is_one_json_line(data, tmp_path, monkeypatch, capsys):
    def bug():
        raise TypeError("unsupported operand")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    _in_workers(monkeypatch, bug)
    assert run(_argv(data, "mtl", tmp_path / "run")) == 1
    assert _error_record(capsys) == {
        "error": "CognlpError", "message": "worker failed: TypeError: unsupported operand",
    }


@pytest.mark.parametrize("parts", [1, 2, 3, 5, 9])
def test_by_fold_yields_in_fold_order_from_pinned_workers(monkeypatch, parts):
    monkeypatch.setattr(workers, "usable_cpus", lambda: parts)
    cpus = sorted(MASK)
    k = 7
    results = list(workers.by_fold(lambda f: (f, os.getpid(), os.sched_getaffinity(0)), k))
    assert [f for f, _, _ in results] == list(range(k))
    n = min(parts, k)
    groups = [range(k * i // n, k * (i + 1) // n) for i in range(n)]
    assert results[0][1] == os.getpid()
    assert len({results[f][1] for f in range(k)}) == n  # one process per group
    for i, group in enumerate(groups):
        assert len({results[f][1] for f in group}) == 1
        pinned = MASK if n == 1 else {cpus[i % len(cpus)]}
        assert all(results[f][2] == pinned for f in group), i


def test_error_in_the_parents_group_kills_the_workers(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    parent = os.getpid()

    def work(f):
        if os.getpid() != parent:
            time.sleep(30)  # workers that would not finish within the bound below
        raise ValidationError("first fold failed")

    start = time.monotonic()
    with pytest.raises(ValidationError, match="first fold failed"):
        list(workers.by_fold(work, 3))
    assert time.monotonic() - start < 20


def test_one_usable_cpu_never_forks(data, tmp_path, monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("forked or pinned with one usable CPU")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", forbidden)
    monkeypatch.setattr(os, "sched_setaffinity", forbidden)
    for command in ("tagger", "mtl"):
        assert run(_argv(data, command, tmp_path / command)) == 0


def test_another_python_thread_means_one_group(monkeypatch, forks):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    assert len(set(workers.by_fold(lambda f: os.getpid(), 3))) == 3 and len(forks) == 2
    forks.clear()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert list(workers.by_fold(lambda f: os.getpid(), 3)) == [os.getpid()] * 3
        assert forks == []
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()


@pytest.mark.parametrize("command", ["tagger", "mtl"])
def test_forking_after_the_blas_pool_started_keeps_bytes(data, tmp_path, monkeypatch, capsys, command):
    # without OPENBLAS_NUM_THREADS, importing NumPy starts OpenBLAS's thread
    # pool before any fold worker is forked
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(cognlp.__file__).resolve().parents[1])
    out = tmp_path / "run"
    argv = [str(a) for a in _argv(data, command, out)]
    proc = subprocess.run(
        [sys.executable, "-m", "cognlp.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    forked = (proc.returncode, proc.stdout, proc.stderr, _files(out))
    assert forked[0] == 0, proc.stderr
    assert _outcome(monkeypatch, capsys, argv, out, 1) == forked


@pytest.mark.skipif(len(MASK) < 2, reason="needs 2 usable CPUs to fork and pin")
def test_the_cpu_pin_ends_with_the_folds(data, tmp_path, monkeypatch, capsys):
    from cognlp import cli

    seen = {}
    write = cli._write

    def recording_write(path, text):
        seen[Path(path).name] = os.sched_getaffinity(0)
        write(path, text)

    monkeypatch.setattr(cli, "_write", recording_write)
    assert run(_argv(data, "tagger", tmp_path / "train")) == 0
    assert run(_argv(data, "mtl", tmp_path / "mtl")) == 0
    assert seen["config.json"] == MASK and seen["mtl_report.json"] == MASK
