"""Domain types for the encode corpus, and the CSV table format every module uses.

A corpus is a set of clips, the encode tasks derived from them (one task per
clip x encoder x preset x CQP combination), and optionally the measured
wall-clock seconds per completed task.  All model fitting happens on the
natural log of the measured seconds; reporting stays in linear seconds.

Every table the package writes or reads goes through ``write_csv``,
``read_csv`` and ``float_text``, so all of them share one byte format.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import stat
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CsvParseError, ValidationError

PRESETS = ("ultrafast", "medium", "veryslow")
PRESET_ORD = {"ultrafast": 0, "medium": 1, "veryslow": 2}
CQPS = (22, 27, 32, 37)
DEFAULT_ENCODERS = ("x264", "x265")

FEATURES_HEADER = ["clip_id", "width", "height", "framerate_num", "framerate_den",
                   "num_frames", "E", "h", "luma", "source_group"]
TIMES_HEADER = ["task_id", "seconds"]
TASKS_HEADER = ["task_id", "clip_id", "encoder", "preset", "cqp"]

# The clip properties that k-means clusters on and that lead every GBRT row,
# in this order; ``Clip.feature_values`` reads them.
CLIP_FEATURES = ("height", "num_pixels", "framerate", "num_frames", "E", "h", "luma")


@dataclass(frozen=True)
class Clip:
    """One video segment with its format properties and complexity features."""

    clip_id: str
    width: int
    height: int
    framerate: Fraction
    num_frames: int
    E: float
    h: float
    luma: float
    source_group: str

    def __post_init__(self):
        if not self.clip_id:
            raise ValidationError("clip_id must be non-empty")
        if self.width < 1:
            raise ValidationError(f"clip {self.clip_id!r}: width must be >= 1, got {self.width}")
        if self.height < 1:
            raise ValidationError(f"clip {self.clip_id!r}: height must be >= 1, got {self.height}")
        if self.num_frames < 1:
            raise ValidationError(
                f"clip {self.clip_id!r}: num_frames must be >= 1, got {self.num_frames}")
        if self.framerate <= 0:
            raise ValidationError(
                f"clip {self.clip_id!r}: framerate must be > 0, got {self.framerate}")
        if not (0.0 <= self.E < math.inf):
            raise ValidationError(f"clip {self.clip_id!r}: E must be finite and >= 0, "
                                  f"got {self.E}")
        if not (0.0 <= self.h < math.inf):
            raise ValidationError(f"clip {self.clip_id!r}: h must be finite and >= 0, "
                                  f"got {self.h}")
        if not (0.0 <= self.luma <= 255.0):
            raise ValidationError(
                f"clip {self.clip_id!r}: luma must be in [0, 255], got {self.luma}")

    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    @property
    def feature_values(self) -> tuple[float, ...]:
        """The clip's CLIP_FEATURES, in that order, as floats."""
        return tuple(float(getattr(self, name)) for name in CLIP_FEATURES)


@dataclass(frozen=True)
class EncodeTask:
    """The unit of work whose wall-clock encode time is measured and predicted."""

    task_id: str
    clip_id: str
    encoder: str
    preset: str
    cqp: int

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValidationError(
                f"task {self.task_id!r}: preset must be one of {PRESETS}, got {self.preset!r}")
        if self.cqp not in CQPS:
            raise ValidationError(
                f"task {self.task_id!r}: cqp must be one of {CQPS}, got {self.cqp}")
        if not self.encoder:
            raise ValidationError(f"task {self.task_id!r}: encoder must be non-empty")


@dataclass(frozen=True)
class TimeRecord:
    """Measured wall-clock seconds for one completed encode task."""

    task_id: str
    seconds: float

    def __post_init__(self):
        if not (0.0 < self.seconds < math.inf):
            raise ValidationError(f"time for task {self.task_id!r}: seconds must be finite "
                                  f"and > 0, got {self.seconds}")


def task_id_for(clip_id: str, encoder: str, preset: str, cqp: int) -> str:
    """Deterministic composite task identifier."""
    return f"{clip_id}:{encoder}:{preset}:{cqp}"


@dataclass(frozen=True)
class Corpus:
    """Clips plus their encode tasks, and measured times when available."""

    clips: tuple[Clip, ...]
    tasks: tuple[EncodeTask, ...]
    times: dict[str, TimeRecord] | None = None
    _clips_by_id: dict[str, Clip] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.clips:
            raise ValidationError("empty corpus")
        by_id: dict[str, Clip] = {}
        for clip in self.clips:
            if clip.clip_id in by_id:
                raise ValidationError(f"duplicate clip_id {clip.clip_id!r}")
            by_id[clip.clip_id] = clip
        seen_tasks = set()
        for task in self.tasks:
            if task.task_id in seen_tasks:
                raise ValidationError(f"duplicate task_id {task.task_id!r}")
            seen_tasks.add(task.task_id)
            if task.clip_id not in by_id:
                raise ValidationError(
                    f"task {task.task_id!r} references unknown clip {task.clip_id!r}")
        if self.times is not None:
            for task_id in self.times:
                if task_id not in seen_tasks:
                    raise ValidationError(f"time record for unknown task {task_id!r}")
        object.__setattr__(self, "_clips_by_id", by_id)

    @property
    def N(self) -> int:
        """Number of encode tasks (prediction granularity is the task)."""
        return len(self.tasks)

    def clip(self, clip_id: str) -> Clip:
        return self._clips_by_id[clip_id]

    def task_map(self) -> dict[str, EncodeTask]:
        return {t.task_id: t for t in self.tasks}

    def tasks_of(self, task_ids: Sequence[str]) -> list[EncodeTask]:
        """The task of each id, in the order of ``task_ids``."""
        task_map = self.task_map()
        try:
            return [task_map[tid] for tid in task_ids]
        except KeyError as exc:
            raise ValidationError(f"unknown task_id {exc.args[0]!r}") from None

    def seconds_of(self, task_ids: Sequence[str]) -> np.ndarray:
        """Measured seconds of each task, in the order of ``task_ids``."""
        if self.times is None and len(task_ids):
            raise ValidationError("corpus has no measured times")
        try:
            return np.array([self.times[tid].seconds for tid in task_ids], dtype=np.float64)
        except KeyError as exc:
            raise ValidationError(f"no measured time for task {exc.args[0]!r}") from None


def expand_tasks(clips: Sequence[Clip], encoders: Sequence[str],
                 presets: Sequence[str] = PRESETS,
                 cqps: Sequence[int] = CQPS) -> list[EncodeTask]:
    """Cartesian product of clips x encoders x presets x cqps, in that order."""
    if not clips:
        raise ValidationError("expand_tasks: no clips")
    if not encoders:
        raise ValidationError("expand_tasks: no encoders")
    if not presets:
        raise ValidationError("expand_tasks: no presets")
    if not cqps:
        raise ValidationError("expand_tasks: no cqps")
    tasks = []
    for clip in clips:
        for encoder in encoders:
            for preset in presets:
                for cqp in cqps:
                    tasks.append(EncodeTask(
                        task_id=task_id_for(clip.clip_id, encoder, preset, cqp),
                        clip_id=clip.clip_id, encoder=encoder,
                        preset=preset, cqp=int(cqp)))
    return tasks


def float_text(x) -> str:
    """The one float rule for every table: shortest text that reads back bit for bit.

    ``float()`` first, so an ``np.float64`` gives the same text as the equal
    Python float rather than numpy's ``np.float64(...)`` repr.
    """
    return repr(float(x))


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open path for writing so that it changes only once the whole write succeeds.

    The data goes to a sibling ``.tmp`` file, which is flushed, fsynced and then
    renamed onto path. If the body raises, path keeps its old bytes and the
    temporary file is removed. A target that exists and is not a regular file
    (a FIFO, a symlink such as /dev/stdout) is written in place.
    """
    path = Path(path)
    try:
        in_place = not stat.S_ISREG(path.lstat().st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    tmp = path.with_name(path.name + ".tmp")
    try:
        fh = open(tmp, mode, **kwargs)
    except OSError as exc:  # name the file the caller asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 table in the default csv dialect: the header, then the rows.

    Cells are written with ``str``; callers pass float cells through ``float_text``.
    The file is replaced only once every row is written (``atomic_open``).
    """
    with atomic_open(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (row number, cells) for each non-blank row after the header.

    Rows are numbered from 1 at the header, as error messages name them. The
    first row must equal ``header`` and every later row must have as many
    cells; rows whose cells are all empty are skipped, and so is an empty file.
    """
    header = list(header)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is not None and first != header:
            raise CsvParseError(f"{path}: expected header {','.join(header)!r}, "
                                f"got {','.join(first)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not any(row):
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}, row {lineno}: expected {len(header)} columns, got {len(row)}")
            yield lineno, row


def parse_field(path, lineno: int, name: str, raw: str, kind):
    """``kind(raw)``, or a CsvParseError naming the file, row and column."""
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise CsvParseError(f"{path}, row {lineno}: bad {name} value {raw!r}") from exc


def load_features_csv(path) -> list[Clip]:
    path = Path(path)
    clips = []
    for lineno, row in read_csv(path, FEATURES_HEADER):
        (clip_id, width, height, fr_num, fr_den,
         num_frames, e_val, h_val, luma, group) = row
        try:
            clips.append(Clip(
                clip_id=clip_id,
                width=parse_field(path, lineno, "width", width, int),
                height=parse_field(path, lineno, "height", height, int),
                framerate=Fraction(parse_field(path, lineno, "framerate_num", fr_num, int),
                                   parse_field(path, lineno, "framerate_den", fr_den, int)),
                num_frames=parse_field(path, lineno, "num_frames", num_frames, int),
                E=parse_field(path, lineno, "E", e_val, float),
                h=parse_field(path, lineno, "h", h_val, float),
                luma=parse_field(path, lineno, "luma", luma, float),
                source_group=group))
        except ZeroDivisionError as exc:
            raise CsvParseError(f"{path}, row {lineno}: framerate_den is zero") from exc
    return clips


def load_times_csv(path) -> dict[str, TimeRecord]:
    path = Path(path)
    times: dict[str, TimeRecord] = {}
    for lineno, (task_id, seconds) in read_csv(path, TIMES_HEADER):
        if task_id in times:
            raise ValidationError(f"{path}, row {lineno}: duplicate task_id {task_id!r}")
        times[task_id] = TimeRecord(
            task_id=task_id, seconds=parse_field(path, lineno, "seconds", seconds, float))
    return times


def load_tasks_csv(path) -> list[EncodeTask]:
    path = Path(path)
    return [EncodeTask(task_id=task_id, clip_id=clip_id, encoder=encoder, preset=preset,
                       cqp=parse_field(path, lineno, "cqp", cqp, int))
            for lineno, (task_id, clip_id, encoder, preset, cqp)
            in read_csv(path, TASKS_HEADER)]


def load_corpus(features_path, times_path=None, tasks_path=None,
                encoders: Sequence[str] = DEFAULT_ENCODERS) -> Corpus:
    """Load and validate a corpus.

    Tasks come from ``tasks_path`` when given, otherwise from expanding the
    clip list against the encoder/preset/CQP grid.
    """
    clips = load_features_csv(features_path)
    if not clips:
        raise ValidationError("empty corpus")
    if tasks_path is not None:
        tasks = load_tasks_csv(tasks_path)
    else:
        tasks = expand_tasks(clips, encoders)
    times = load_times_csv(times_path) if times_path is not None else None
    return Corpus(clips=tuple(clips), tasks=tuple(tasks), times=times)


def save_features_csv(path, clips: Sequence[Clip]) -> None:
    write_csv(path, FEATURES_HEADER,
              ([c.clip_id, c.width, c.height, c.framerate.numerator, c.framerate.denominator,
                c.num_frames, float_text(c.E), float_text(c.h), float_text(c.luma),
                c.source_group] for c in clips))


def save_tasks_csv(path, tasks: Sequence[EncodeTask]) -> None:
    write_csv(path, TASKS_HEADER,
              ([t.task_id, t.clip_id, t.encoder, t.preset, t.cqp] for t in tasks))


def save_times_csv(path, times: Mapping[str, TimeRecord]) -> None:
    write_csv(path, TIMES_HEADER,
              ([r.task_id, float_text(r.seconds)] for r in times.values()))


def save_corpus(corpus: Corpus, features_path, tasks_path=None, times_path=None) -> None:
    save_features_csv(features_path, corpus.clips)
    if tasks_path is not None:
        save_tasks_csv(tasks_path, corpus.tasks)
    if times_path is not None:
        if corpus.times is None:
            raise ValidationError("corpus has no times to save")
        save_times_csv(times_path, corpus.times)
