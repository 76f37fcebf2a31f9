"""Shared plumbing: where things live, how the program is called, and checks.

Every program call goes through a caller object. ``SubprocessCaller`` starts
``python -m corpus_eta.cli`` as a user would and records the call's wall
time and peak resident memory; ``InProcessCaller`` drives ``cli.main`` in
this interpreter, which the traced run needs so that its wrappers see the
calls.
"""

from __future__ import annotations

import csv
import io
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

# BLAS pools pinned to one thread: the program's own workers (analyze --jobs
# nproc) then keep the total thread count within the core count.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# A single program call may not hold a run past the 180 s limit.
CALL_LIMIT_S = 150.0

# Every task is encoded with these settings, in this order (the program's
# documented grid; the benchmark spells it out to build its oracles).
PRESETS = ("ultrafast", "medium", "veryslow")
CQPS = (22, 27, 32, 37)
ENCODER = "x264"


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("CORPUS_ETA_CONFIG", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def task_ids(clip_ids) -> list[str]:
    """Tasks in corpus order: clip-major, then preset, then CQP."""
    return [f"{clip}:{ENCODER}:{preset}:{cqp}"
            for clip in clip_ids for preset in PRESETS for cqp in CQPS]


@dataclass
class Call:
    argv: list[str]
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int | None   # None for in-process calls

    def json_line(self) -> str:
        lines = self.stdout.strip().splitlines()
        return lines[-1] if lines else ""


def run_process(argv: list[str], log_dir: Path, env: dict | None = None) -> Call:
    """Run argv to completion; time it and read its peak RSS from wait4."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "call.stdout", log_dir / "call.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(CALL_LIMIT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(argv=argv, rc=proc.returncode,
                stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                stderr=err_path.read_text(encoding="utf-8", errors="replace"),
                wall_s=wall, maxrss_kb=usage.ru_maxrss)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class SubprocessCaller:
    """``corpus-eta <argv>`` in a fresh interpreter, as a user runs it."""

    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self.env = child_env()

    def __call__(self, argv: list[str]) -> Call:
        call = run_process([sys.executable, "-m", "corpus_eta.cli", *argv],
                           self.log_dir, self.env)
        call.argv = list(argv)
        return call


class InProcessCaller:
    """``corpus_eta.cli.main(argv)`` in this interpreter, output captured."""

    def __call__(self, argv: list[str]) -> Call:
        from corpus_eta import cli
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:   # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - start
        return Call(argv=list(argv), rc=rc, stdout=out.getvalue(),
                    stderr=err.getvalue(), wall_s=wall, maxrss_kb=None)


def expect_ok(call: Call) -> Call:
    check(call.rc == 0, f"corpus-eta {' '.join(call.argv[:1])} exited {call.rc}: "
                        f"{call.stderr.strip()[-400:]}")
    return call


def read_csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))
