"""corpus-eta benchmark: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload {sweep,predict-replay,ingest} \
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

The program is driven only through ``python -m corpus_eta.cli`` with
``PYTHONPATH=src``, one call after another. A run builds its inputs from
``--seed``, repeats whole rounds of the workload's calls until ``--seconds``
have passed, checks every output against the benchmark's own computation and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the same calls run in this interpreter through
``corpus_eta.cli.main`` under span-recording wrappers, and the metrics are
the per-layer ones. ``--size smoke`` shrinks every input so that a run takes
seconds; it exists to test the benchmark itself. ``BENCHMARK.json`` lists
``sweep`` and ``ingest``; README.md says why ``predict-replay`` is run by hand.
"""

from __future__ import annotations

import os
import sys

from common import THREAD_ENV

os.environ.update(THREAD_ENV)  # before numpy loads, so this process is pinned too

import importlib.util  # noqa: E402
import subprocess  # noqa: E402

NEEDED = ("numpy", "scipy")
REEXEC_MARK = "PERFBENCH_REEXEC"


def python_candidates():
    """Interpreters that may have NEEDED: each on PATH, then each pyenv version."""
    for folder in filter(None, os.environ.get("PATH", os.defpath).split(os.pathsep)):
        yield from (os.path.join(folder, name) for name in ("python3", "python"))
    for root in filter(None, (os.environ.get("PYENV_ROOT"), os.path.expanduser("~/.pyenv"))):
        try:
            names = sorted(os.listdir(os.path.join(root, "versions")))
        except OSError:
            continue
        yield from (os.path.join(root, "versions", name, "bin", "python3") for name in names)


def ensure_interpreter() -> None:
    """Re-run this script under a Python that has NEEDED, if this one lacks them."""
    if all(importlib.util.find_spec(name) for name in NEEDED):
        return
    if os.environ.get(REEXEC_MARK) is None:
        tried = {os.path.realpath(sys.executable)}
        for python in python_candidates():
            real = os.path.realpath(python)
            if real in tried or not os.access(real, os.X_OK):
                continue
            tried.add(real)
            probe = subprocess.run([python, "-c", "import " + ", ".join(NEEDED)],
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                   timeout=60, check=False)
            if probe.returncode == 0:
                os.environ[REEXEC_MARK] = python
                sys.stdout.flush()
                os.execv(python, [python, os.path.abspath(__file__), *sys.argv[1:]])
    print(f"perfbench: no Python with {', '.join(NEEDED)} found (this one is "
          f"{sys.executable})", file=sys.stderr)
    sys.exit(2)


ensure_interpreter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (BENCH_DIR, ROOT, SRC, CheckFailed, InProcessCaller,  # noqa: E402
                    SubprocessCaller, child_env, run_process)
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
WORK_ROOT = ROOT / ".perfbench_work"

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s", "call_p50_s": "s"}
ACCURACY = ("sape_bp_pct", "sape_cp_pct", "sape_xp_pct", "sape_cxp_pct", "sape_gxp_pct",
            "predict_ape_pct")


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_per_task"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb") or name.endswith("_mb_read"):
        return "MB"
    if name.endswith("_gflop"):
        return "GFLOP"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


class Run:
    """Attempted and failed operations, and the lines printed before the result."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def count(self, ops) -> None:
        self.attempted += len(ops)
        self.failed += sum(1 for _, known_fault in ops if known_fault)

    def result(self, correct: bool, metrics: dict[str, tuple[float, str]]) -> dict:
        self.lines.insert(0, f"{self.workload}: {self.attempted} operations attempted, "
                          f"{self.failed} failed")
        for name, (value, unit) in metrics.items():
            self.lines.append(f"  {name:<42} {value:>14.6g} {unit}")
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}


def time_setup(args, wl, logs: Path) -> list[float]:
    """Build the inputs in a fresh interpreter, several times; the last build is used."""
    samples = []
    for _ in range(SETUP_REPEATS):
        call = run_process([sys.executable, str(BENCH_DIR / "workloads.py"), args.workload,
                            str(args.seed), args.size, str(wl.work)], logs, child_env())
        if call.rc != 0:
            raise CheckFailed(f"set-up exited {call.rc}: {call.stderr.strip()[-400:]}")
        samples.append(call.wall_s)
    return samples


def untraced(args, work: Path, run: Run) -> dict[str, tuple[float, str]]:
    wl = WORKLOADS[args.workload](work / "main", args.seed, args.size)
    wl.work.mkdir(parents=True)
    setup = time_setup(args, wl, work / "logs")
    caller = SubprocessCaller(work / "logs")
    wl.prepare(caller)
    rounds = []
    start = time.perf_counter()
    while True:
        ops = wl.round(caller)
        run.count(ops)
        rounds.append(ops)
        wl.check(ops)
        if time.perf_counter() - start >= args.seconds:
            break
    calls = [call for ops in rounds for call, _ in ops]
    for name, value, unit in wl.summary(rounds):
        run.lines.append(f"  {name:<42} {value:>14.6g} {unit}")
    run.lines.append("  round walls: " + ", ".join(
        f"{sum(call.wall_s for call, _ in ops):.3f}" for ops in rounds)
        + "; set-up samples: " + ", ".join(f"{s:.3f}" for s in setup))
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(call.maxrss_kb for call in calls) / 1024.0,
        "round_s": statistics.median(sum(call.wall_s for call, _ in ops) for ops in rounds),
        "call_p50_s": statistics.median(call.wall_s for call in calls),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def traced(args, work: Path, run: Run) -> dict[str, tuple[float, str]]:
    sys.path.insert(0, str(SRC))
    import tracing

    tracer = tracing.layer_tracer()
    caller = InProcessCaller()

    # A smoke-size pass of every workload first, so each layer has run at
    # least once whichever workload this run measures.
    smoke = {}
    for name, cls in WORKLOADS.items():
        wl = cls(work / "smoke" / name, args.seed, "smoke")
        wl.work.mkdir(parents=True)
        tracer.install()
        wl.setup()
        tracer.uninstall()
        wl.prepare(caller)
        tracer.install()
        ops = wl.round(caller)
        tracer.uninstall()
        wl.check(ops)
        smoke[name] = wl
    probes = tracing.fixed_size_probes(args.seed, work / "logs")

    wl = WORKLOADS[args.workload](work / "main", args.seed, args.size)
    wl.work.mkdir(parents=True)
    tracer.install()
    wl.setup()
    tracer.uninstall()
    wl.prepare(caller)
    plain, spanned = [], []
    start = time.perf_counter()
    while True:
        for walls, traced_round in ((plain, False), (spanned, True)):
            if traced_round:
                tracer.phase = "round"
                tracer.install()
            try:
                ops = wl.round(caller)
            finally:
                tracer.uninstall()
                tracer.phase = "extra"
            run.count(ops)
            wl.check(ops)
            walls.append(sum(call.wall_s for call, _ in ops))
        if time.perf_counter() - start >= args.seconds:
            break
    tracer.dump(WORK_ROOT / f"spans-{args.workload}.jsonl")

    values = tracing.layer_metrics(tracer.spans, len(spanned))
    values.update(probes)
    values["runner.overhead_ms_per_task"] = tracing.runner_overhead_ms(
        tracer.spans, work / "bare")
    values["trace.overhead_s"] = statistics.median(spanned) - statistics.median(plain)
    for name in ACCURACY:
        source = wl if name in wl.accuracy else next(
            w for w in smoke.values() if name in w.accuracy)
        values[f"accuracy.{name}"] = source.accuracy[name]
    return {name: (values[name], per_layer_unit(name)) for name in sorted(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # numpy's generators take non-negative seeds; any integer maps onto one
    parser.add_argument("--seed", type=lambda text: int(text) % 2 ** 64, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "corpus_eta" / "cli.py").is_file():
        print(f"perfbench: the program's source is missing under {SRC}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload)
    try:
        metrics = (traced if args.trace else untraced)(args, work, run)
        correct = True
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        metrics, correct = {}, False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = run.result(correct, metrics)
    print("\n".join(run.lines))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
