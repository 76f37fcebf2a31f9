"""Run encode commands against a corpus and record wall-clock times.

The runner is encoder-agnostic: the command is a template string whose
placeholders are filled per task. Measured times append to a CSV that doubles
as the resume state, so an interrupted batch picks up where it left off.
"""

from __future__ import annotations

import contextlib
import csv
import glob as globmod
import logging
import os
import queue
import shlex
import signal
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import (TIMES_HEADER, Clip, Corpus, EncodeTask, atomic_open, float_text,
                     load_times_csv, write_csv)
from .errors import EncodeError, ValidationError

logger = logging.getLogger(__name__)

# below one millisecond the measurement is almost certainly not an encode
SUSPECT_SECONDS = 1e-3

PLACEHOLDERS = ("input", "output", "task_id", "clip_id", "encoder", "preset",
                "cqp", "width", "height", "framerate_num", "framerate_den",
                "num_frames")


@dataclass(frozen=True)
class CommandTemplate:
    """Shell-style command with {placeholder} fields, split before substitution.

    Splitting first means rendered values never re-tokenize: a path with
    spaces stays a single argument. Literal braces must be doubled.
    """

    template: str

    def __post_init__(self):
        try:
            tokens = shlex.split(self.template)
        except ValueError as exc:
            raise ValidationError(f"unparseable command template: {exc}") from exc
        if not tokens:
            raise ValidationError("empty command template")

    def render(self, mapping: Mapping[str, object]) -> list[str]:
        out = []
        for token in shlex.split(self.template):
            try:
                out.append(token.format_map(dict(mapping)))
            except KeyError as exc:
                raise ValidationError(
                    f"unknown placeholder {{{exc.args[0]}}} in command template; "
                    f"known: {', '.join(PLACEHOLDERS)}") from exc
            except (ValueError, IndexError) as exc:
                raise ValidationError(
                    f"bad placeholder syntax in token {token!r}: {exc}") from exc
        return out


@dataclass(frozen=True)
class EncodeResult:
    task_id: str
    seconds: float
    log_path: str
    suspect: bool = False   # elapsed under SUSPECT_SECONDS


def _safe_name(task_id: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in task_id)


def task_mapping(task: EncodeTask, clip: Clip, input_path, output_path) -> dict:
    return {
        "input": str(input_path), "output": str(output_path),
        "task_id": task.task_id, "clip_id": task.clip_id,
        "encoder": task.encoder, "preset": task.preset, "cqp": task.cqp,
        "width": clip.width, "height": clip.height,
        "framerate_num": clip.framerate.numerator,
        "framerate_den": clip.framerate.denominator,
        "num_frames": clip.num_frames,
    }


def run_encode(task: EncodeTask, clip: Clip, template: CommandTemplate,
               input_path, scratch_dir, keep_output: bool = False,
               running: set[subprocess.Popen] | None = None) -> EncodeResult:
    """Run one encode and time it with the monotonic clock.

    stdout/stderr land in a per-task log under scratch_dir; the encoded
    output is deleted on success unless keep_output is set. Nonzero exit or
    a failure to launch raises EncodeError pointing at the log. The encoder
    runs in a session of its own, which a terminal's Ctrl-C does not reach.
    An encode killed by SIGINT raises KeyboardInterrupt: whoever sent it meant
    to stop the batch, not to fail the task. The process is in ``running``
    until it is reaped, for a batch to kill its process group.
    """
    scratch = Path(scratch_dir)
    scratch.mkdir(parents=True, exist_ok=True)
    stem = _safe_name(task.task_id)
    output_path = scratch / f"{stem}.out"
    log_path = scratch / f"{stem}.log"
    argv = template.render(task_mapping(task, clip, input_path, output_path))
    running = set() if running is None else running

    with open(log_path, "w", encoding="utf-8") as log:
        start = time.monotonic()
        try:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
        except OSError as exc:
            raise EncodeError(f"could not launch {argv[0]!r}: {exc}",
                              task_id=task.task_id, log_path=str(log_path)) from exc
        running.add(proc)
        proc.wait()
        running.discard(proc)
        elapsed = time.monotonic() - start

    if proc.returncode == -signal.SIGINT:
        raise KeyboardInterrupt
    if proc.returncode != 0:
        raise EncodeError(
            f"encode exited with code {proc.returncode}",
            task_id=task.task_id, exit_code=proc.returncode, log_path=str(log_path))

    if not keep_output:
        output_path.unlink(missing_ok=True)

    suspect = elapsed < SUSPECT_SECONDS
    if suspect:
        logger.warning("task %s finished in %.6fs; measurement looks degenerate",
                       task.task_id, elapsed)
    return EncodeResult(task_id=task.task_id, seconds=max(elapsed, 1e-9),
                        log_path=str(log_path), suspect=suspect)


def resolve_input(input_dir, clip_id: str) -> Path:
    """Locate the source file for a clip: exact name, else a unique clip_id.* match."""
    base = Path(input_dir)
    exact = base / clip_id
    if exact.is_file():
        return exact
    matches = sorted(base.glob(globmod.escape(clip_id) + ".*"))
    matches = [m for m in matches if m.is_file()]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ValidationError(f"no input file for clip {clip_id!r} under {base}")
    names = ", ".join(m.name for m in matches)
    raise ValidationError(f"ambiguous input for clip {clip_id!r}: {names}")


@dataclass(frozen=True)
class BatchSummary:
    requested: int
    skipped: int      # already present in the times file
    succeeded: int
    failed: tuple[str, ...]    # task ids
    aborted: int      # not attempted because fail_fast tripped


def _drop_torn_final_row(times_path: Path) -> None:
    """Remove an unterminated final row, left by a crash in the middle of a write.

    The row goes even when it parses, because a cut inside the seconds field
    still reads as a (wrong) number; its task is then encoded again. The
    shortened file replaces the old one atomically.
    """
    data = times_path.read_bytes()
    if data.endswith(b"\n"):
        return
    keep = data[:data.rfind(b"\n") + 1]
    logger.warning("%s: dropping unterminated final row %r left by an interrupted "
                   "write; its task will be encoded again",
                   times_path, data[len(keep):].decode("utf-8", "replace"))
    with atomic_open(times_path, "wb") as fh:
        fh.write(keep)


def batch_encode(corpus: Corpus, template: CommandTemplate, input_dir, times_path,
                 scratch_dir, tasks: Sequence[EncodeTask] | None = None,
                 concurrency: int = 1, fail_fast: bool = False,
                 keep_output: bool = False) -> BatchSummary:
    """Encode every pending task, appending one time row per success.

    Tasks whose ids already appear in times_path are skipped, so re-running
    after an interruption never duplicates a measurement; a final row cut
    short by a crash is dropped, so its task runs again. The calling thread
    alone writes and fsyncs each finished encode's row (in corpus order with
    one worker). Any exception, SIGINT too, kills the running encodes' process
    groups, each encoder with its children, and records none of them.
    """
    if concurrency < 1:
        raise ValidationError(f"concurrency must be >= 1, got {concurrency}")
    todo_all = list(tasks) if tasks is not None else list(corpus.tasks)

    times_path = Path(times_path)
    done: set[str] = set()
    if times_path.exists() and times_path.stat().st_size > 0:
        _drop_torn_final_row(times_path)
        done = set(load_times_csv(times_path))
    pending = [t for t in todo_all if t.task_id not in done]

    # inputs are resolved up front so a bad corpus fails before any encode runs
    inputs = {t.task_id: resolve_input(input_dir, t.clip_id) for t in pending}

    stop = threading.Event()  # start no more tasks
    running: set[subprocess.Popen] = set()
    failures: list[str] = []
    succeeded = 0

    def work(task: EncodeTask) -> EncodeResult | EncodeError | None:
        if stop.is_set():
            return None
        try:
            return run_encode(task, corpus.clip(task.clip_id), template,
                              inputs[task.task_id], scratch_dir,
                              keep_output, running)
        except EncodeError as exc:
            if fail_fast:  # before this worker takes its next task
                stop.set()
            return exc

    finished = queue.SimpleQueue()  # futures, in completion order
    with open(times_path, "a", newline="", encoding="utf-8") as fh, \
            ThreadPoolExecutor(max_workers=concurrency) as pool:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(TIMES_HEADER)
            fh.flush()
        futures = []
        try:
            for task in pending:
                futures.append(pool.submit(work, task))
                futures[-1].add_done_callback(finished.put)
            for _ in pending:
                result = finished.get().result()
                if isinstance(result, EncodeError):
                    logger.error("task %s failed: %s (log: %s)",
                                 result.task_id, result, result.log_path)
                    failures.append(result.task_id)
                elif result is not None:
                    writer.writerow([result.task_id, float_text(result.seconds)])
                    fh.flush()
                    os.fsync(fh.fileno())
                    succeeded += 1
        except BaseException:
            # record nothing more; kill until the workers are idle, as one may launch
            # after a kill pass; no SIGINT reaches the encoders' own sessions
            stop.set()
            while futures:
                for proc in list(running):
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGKILL)
                futures = wait(futures, timeout=0.05).not_done
            raise
        finally:
            # the manifest lists this run's failures only: a run without any removes it
            manifest = times_path.with_name(times_path.name + ".failures.csv")
            if failures:
                write_csv(manifest, ["task_id"], ([tid] for tid in failures))
            else:
                manifest.unlink(missing_ok=True)

    return BatchSummary(requested=len(todo_all), skipped=len(todo_all) - len(pending),
                        succeeded=succeeded, failed=tuple(failures),
                        aborted=len(pending) - succeeded - len(failures))
