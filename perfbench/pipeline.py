"""One half of a workload's pipeline pass, in a fresh process.

Run by ``run.py``:

    python perfbench/pipeline.py setup|stages WORKLOAD SEED WORKDIR TRACE

Imports cognlp from ``PYTHONPATH`` (the checkout's ``src``) and, with
``TRACE`` = 1, wraps its public functions. ``setup`` generates the
workload's inputs in ``WORKDIR``; it runs in its own process so that the
stages' peak memory excludes it. ``stages`` calls ``cognlp.cli.main`` once
per stage step, in order, timing each, and after each step digests the
files the step wrote and its stdout. Either prints one JSON object: the
digests, timings, peak memory and environment, and the span tree when
tracing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path) -> str:
    # in chunks, so that digesting a large output does not raise peak memory
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _snapshot(root: Path) -> dict[str, tuple]:
    out = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            out[path.relative_to(root).as_posix()] = (st.st_mtime_ns, st.st_size, st.st_ino)
    return out


def _written(before: dict, root: Path) -> dict[str, str]:
    """Digests of the files created or changed since ``before``."""
    after = _snapshot(root)
    return {
        name: _file_sha256(root / name)
        for name, stamp in sorted(after.items())
        if before.get(name) != stamp
    }


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def _run_steps(workload, seed: int, tracer, cli) -> list[dict]:
    root = Path(".")
    steps = []
    for index, step in enumerate(workload.steps(seed)):
        before = _snapshot(root)
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{step.stage}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            with span:
                try:
                    rc = cli.main(list(step.argv))
                except Exception as exc:  # a traceback is a failed stage, not a crash
                    rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {err.getvalue().strip()}"
        elif step.check is not None:
            try:
                problem = step.check(out.getvalue())
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable stdout: {exc!r}"
        steps.append({
            "key": f"{index:02d} {step.argv[0]}",
            "stage": step.stage,
            "seconds": seconds,
            "problem": problem,
            "digests": {"<stdout>": _sha256(out.getvalue().encode("utf-8")), **_written(before, root)},
        })
    return steps


def main(argv: list[str]) -> int:
    mode, workload_name, seed, workdir, trace = argv[0], argv[1], int(argv[2]), Path(argv[3]), argv[4] == "1"
    workload = WORKLOADS[workload_name]

    import cognlp
    from cognlp import cli

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, cognlp)
    os.chdir(workdir)

    if mode == "setup":
        before = _snapshot(Path("."))
        with tracer.span("setup") if tracer else contextlib.nullcontext():
            workload.setup(seed)
        result = {"files": _written(before, Path("."))}
    else:
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        result = {
            "ready": ready,
            "steps": _run_steps(workload, seed, tracer, cli),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": _environment(),
            "cognlp": str(Path(cognlp.__file__).resolve()),
        }
    result["nodes"] = tracer.nodes if tracer else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
