"""Run encode commands against a corpus and record wall-clock times.

The runner is encoder-agnostic: the command is a template string whose
placeholders are filled per task. Measured times append to a CSV that doubles
as the resume state, so an interrupted batch picks up where it left off.
"""

from __future__ import annotations

import csv
import glob as globmod
import logging
import os
import shlex
import signal
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
               input_path, scratch_dir, keep_output: bool = False) -> EncodeResult:
    """Run one encode and time it with the monotonic clock.

    stdout/stderr land in a per-task log under scratch_dir; the encoded
    output is deleted on success unless keep_output is set. Nonzero exit or
    a failure to launch raises EncodeError pointing at the log. An encode
    killed by SIGINT raises KeyboardInterrupt: a Ctrl-C reaches the whole
    process group, so the batch is being interrupted, not the task failing.
    """
    scratch = Path(scratch_dir)
    scratch.mkdir(parents=True, exist_ok=True)
    stem = _safe_name(task.task_id)
    output_path = scratch / f"{stem}.out"
    log_path = scratch / f"{stem}.log"
    argv = template.render(task_mapping(task, clip, input_path, output_path))

    with open(log_path, "w", encoding="utf-8") as log:
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT)
        except OSError as exc:
            raise EncodeError(f"could not launch {argv[0]!r}: {exc}",
                              task_id=task.task_id, log_path=str(log_path)) from exc
        elapsed = time.monotonic() - start

    if proc.returncode == -signal.SIGINT:
        raise KeyboardInterrupt
    if proc.returncode != 0:
        raise EncodeError(
            f"encode exited with code {proc.returncode}",
            task_id=task.task_id, exit_code=proc.returncode, log_path=str(log_path))

    if not keep_output:
        try:
            output_path.unlink()
        except FileNotFoundError:
            pass

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
    after an interruption never duplicates a measurement. Each row is written
    and flushed under a lock the moment its task finishes; a final row cut
    short by a crash is dropped, so its task runs again.
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
    skipped = len(todo_all) - len(pending)

    # inputs are resolved up front so a bad corpus fails before any encode runs
    inputs = {t.task_id: resolve_input(input_dir, t.clip_id) for t in pending}

    lock = threading.Lock()
    stop = threading.Event()  # start no more tasks
    interrupted = threading.Event()  # and record none that are running
    failures: list[str] = []
    succeeded = 0
    aborted = 0

    new_file = not times_path.exists() or times_path.stat().st_size == 0
    with open(times_path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(TIMES_HEADER)
            fh.flush()

        def work(task: EncodeTask) -> None:
            nonlocal succeeded, aborted
            if stop.is_set():
                with lock:
                    aborted += 1
                return
            try:
                result = run_encode(task, corpus.clip(task.clip_id), template,
                                    inputs[task.task_id], scratch_dir,
                                    keep_output=keep_output)
            except EncodeError as exc:
                logger.error("task %s failed: %s (log: %s)",
                             task.task_id, exc, exc.log_path)
                with lock:
                    failures.append(task.task_id)
                if fail_fast:
                    stop.set()
                return
            with lock:
                if interrupted.is_set():  # the encode was cut short, not finished
                    return
                writer.writerow([result.task_id, float_text(result.seconds)])
                fh.flush()
                os.fsync(fh.fileno())
                succeeded += 1

        if concurrency == 1:
            for task in pending:
                work(task)
        else:
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                try:
                    list(pool.map(work, pending))
                except KeyboardInterrupt:
                    # Ctrl-C reached the running encoders too, and one that
                    # traps it may still exit 0: record none of them.  This
                    # runs before the pool's shutdown waits for them.
                    interrupted.set()
                    stop.set()
                    raise

    # the manifest lists this run's failures only: a run without any removes it
    manifest = times_path.with_name(times_path.name + ".failures.csv")
    if failures:
        write_csv(manifest, ["task_id"], ([tid] for tid in failures))
    else:
        manifest.unlink(missing_ok=True)

    return BatchSummary(requested=len(todo_all), skipped=skipped,
                        succeeded=succeeded, failed=tuple(failures),
                        aborted=aborted)
