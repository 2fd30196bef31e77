"""cognlp benchmark: end-to-end stage times per workload, per-layer traces.

    python3 perfbench/run.py --workload ner-protocol --seed 0 --seconds 58 --trace 0

Run from the root of a checkout. Each pass of the chosen workload is a
closed loop with one caller: a fresh process (``pipeline.py setup``)
generates the inputs, then another (``pipeline.py stages``) imports cognlp
from ``src`` and runs the workload's CLI stages in-process through
``cognlp.cli.main``, each stage waiting for the one before. Passes repeat
until ``--seconds`` have elapsed; every metric is the median over passes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones, in which every public function of the
cognlp modules is wrapped, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced median pipeline time).

Every stage's output files and stdout are digested. A stage fails when it
exits nonzero, fails its stdout check, or writes a digest that differs from
the reference: ``reference.json`` for a seed recorded there (``--record``
adds one), else the run's first pass. The last stdout line is one JSON
object: ``correct``, ``attempted`` and ``failed`` stage operations, and the
metrics; the lines before it give each metric's median, quartiles and pass
count, the failures, and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, layer_metrics  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
#: The default workload seed and the held-out one; ``reference.json`` holds
#: digests for both.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009
#: A run, set-up included, must end well within three minutes.
RUN_LIMIT_S = 170.0

#: Gated by ``BENCHMARK.json``: the metrics every workload has. Per-stage
#: times exist only where a workload runs the stage, so they are printed
#: but not gated (the traced run reports them as ``stage.<stage>_s``).
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_before": os.getloadavg(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: two shared vCPUs should measure the program, not the
    # scheduler
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _child(mode: str, workload: str, seed: int, trace: bool, workdir: Path,
           timeout: float) -> tuple[dict, float, float]:
    """Run one ``pipeline.py`` process; returns its result and the monotonic
    times it was spawned and ended."""
    cmd = [sys.executable, str(HERE / "pipeline.py"), mode, workload, str(seed),
           str(workdir), "1" if trace else "0"]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                          timeout=timeout, check=False)
    ended = time.clock_gettime(time.CLOCK_MONOTONIC)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned, ended


def run_pass(workload: str, seed: int, trace: bool, workdir: Path, timeout: float) -> dict:
    """One pipeline pass: the set-up process (if the workload has one), then
    the stages process. ``setup_s`` covers the whole set-up process plus the
    stages process up to its first stage."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + timeout
    try:
        setup_files, setup_s, nodes = {}, 0.0, []
        if WORKLOADS[workload].setup is not None:
            setup, spawned, ended = _child("setup", workload, seed, trace, workdir, timeout)
            setup_files, setup_s, nodes = setup["files"], ended - spawned, setup["nodes"] or []
        result, spawned, _ = _child("stages", workload, seed, trace, workdir,
                                    max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s"}
    except RuntimeError as exc:
        return {"error": str(exc)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_files"] = setup_files
    result["setup_s"] = setup_s + result["ready"] - spawned
    if trace:
        # node ids restart in each process; shift the stages' past the set-up's
        shift = len(nodes)
        for node in result["nodes"]:
            node["id"] += shift
            if node["parent"] is not None:
                node["parent"] += shift
        result["nodes"] = nodes + result["nodes"]
    return result


def pass_digests(result: dict) -> dict:
    return {"setup": result["setup_files"],
            **{step["key"]: step["digests"] for step in result["steps"]}}


def compare(expected: dict, actual: dict) -> dict[str, list[str]]:
    """Per operation, each file (or ``<stdout>``) whose digest differs."""
    problems: dict[str, list[str]] = {}
    for op in sorted(set(expected) | set(actual)):
        want, got = expected.get(op, {}), actual.get(op, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                state = "missing" if name not in got else "unexpected" if name not in want else "differs"
                problems.setdefault(op, []).append(f"{name} {state}")
    return problems


def _load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


class Checker:
    """Counts stage operations and fails those that exit nonzero, fail their
    stdout check, or write a digest other than the reference's."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, index: int, result: dict) -> None:
        digests = pass_digests(result)
        if self.reference is None:
            self.reference = digests
        mismatches = compare(self.reference, digests)
        ops = [("setup", None)] if result["setup_files"] else []
        ops += [(step["key"], step["problem"]) for step in result["steps"]]
        for op, problem in ops:
            self.attempted += 1
            if problem or op in mismatches:
                self.failures.append(f"pass {index} {op}: {problem or '; '.join(mismatches[op])}")


def measure(args, checker: Checker) -> list[dict] | None:
    """Passes until ``args.seconds`` elapse (two for ``--record``; at least
    one traced and one untraced for ``--trace 1``). None if a pass crashed."""
    started = time.monotonic()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    passes: list[dict] = []
    try:
        while True:
            elapsed = time.monotonic() - started
            if args.record:
                if len(passes) == 2:
                    break
            elif passes and elapsed >= args.seconds and not (args.trace and len(passes) < 2):
                break
            trace = bool(args.trace) and len(passes) % 2 == 1
            result = run_pass(args.workload, args.seed, trace, workdir,
                              max(5.0, RUN_LIMIT_S - elapsed))
            if "error" in result:
                print(f"pass {len(passes)} crashed: {result['error']}", file=sys.stderr)
                return None
            checker.check(len(passes), result)
            result["traced"] = trace
            passes.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return passes


def _pipeline_s(result: dict) -> float:
    return sum(step["seconds"] for step in result["steps"])


def series(passes: list[dict]) -> dict[str, list[float]]:
    """Per-pass values of every end-to-end metric, and of each stage's time
    where the workload runs it."""
    out = {
        "setup_s": [p["setup_s"] for p in passes],
        "pipeline_s": [_pipeline_s(p) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    for stage in STAGES:
        if any(step["stage"] == stage for step in passes[0]["steps"]):
            out[f"{stage}_s"] = [
                sum(step["seconds"] for step in p["steps"] if step["stage"] == stage)
                for p in passes
            ]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's digests in reference.json (two passes must agree)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cognlp" / "cli.py").is_file():
        print(f"no cognlp sources under {ROOT / 'src'}; run from a cognlp checkout",
              file=sys.stderr)
        return 2

    env = _environment()
    stored = _load_reference()
    recorded = None if args.record else stored.get(args.workload, {}).get(str(args.seed))
    checker = Checker(recorded)
    passes = measure(args, checker)
    if passes is None:
        return 1
    failed = len(checker.failures)

    if args.record:
        if failed:
            print("\n".join(checker.failures), file=sys.stderr)
            return 1
        stored.setdefault(args.workload, {})[str(args.seed)] = checker.reference
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {args.workload} seed {args.seed} in {REFERENCE.name}")
        return 0

    untraced = series([p for p in passes if not p["traced"]])
    for name, values in untraced.items():
        q1, q3 = _quartiles(values)
        unit = "MB" if name.endswith("_mb") else "s"
        print(f"{args.workload:<20} {name:<18} median {statistics.median(values):10.4f} "
              f"{unit:<3} q1 {q1:.4f} q3 {q3:.4f} n {len(values)} "
              f"passes {' '.join(f'{v:.4f}' for v in values)}")
    print(f"{args.workload:<20} ops_failed {failed}/{checker.attempted} "
          f"({failed / checker.attempted:.4f}; seed {args.seed}, reference "
          f"{'recorded' if recorded else 'first pass'})")
    for line in checker.failures[:20]:
        print(f"FAILED {line}")
    env["loadavg_after"] = os.getloadavg()
    env.update(passes[0]["environment"], cognlp=passes[0]["cognlp"])
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        print(f"traced passes {len(traced)}, untraced passes {len(passes) - len(traced)}")
        values = layer_metrics(
            [p["nodes"] for p in traced],
            {name[:-2]: statistics.median(v) for name, v in untraced.items() if name[:-2] in STAGES},
            statistics.median(_pipeline_s(p) for p in traced),
            statistics.median(untraced["pipeline_s"]),
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": statistics.median(untraced[name]), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
