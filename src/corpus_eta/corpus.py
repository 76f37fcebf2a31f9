"""Domain types and CSV ingestion for the encode corpus.

A corpus is a set of clips, the encode tasks derived from them (one task per
clip x encoder x preset x CQP combination), and optionally the measured
wall-clock seconds per completed task.  All model fitting happens on the
natural log of the measured seconds; reporting stays in linear seconds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import CsvParseError, ValidationError

PRESETS = ("ultrafast", "medium", "veryslow")
PRESET_ORD = {"ultrafast": 0, "medium": 1, "veryslow": 2}
CQPS = (22, 27, 32, 37)
DEFAULT_ENCODERS = ("x264", "x265")

FEATURES_HEADER = ["clip_id", "width", "height", "framerate_num", "framerate_den",
                   "num_frames", "E", "h", "luma", "source_group"]
TIMES_HEADER = ["task_id", "seconds"]
TASKS_HEADER = ["task_id", "clip_id", "encoder", "preset", "cqp"]


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
        if not (self.E >= 0.0):
            raise ValidationError(f"clip {self.clip_id!r}: E must be >= 0, got {self.E}")
        if not (self.h >= 0.0):
            raise ValidationError(f"clip {self.clip_id!r}: h must be >= 0, got {self.h}")
        if not (0.0 <= self.luma <= 255.0):
            raise ValidationError(
                f"clip {self.clip_id!r}: luma must be in [0, 255], got {self.luma}")

    @property
    def num_pixels(self) -> int:
        return self.width * self.height


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
        if not (self.seconds > 0.0):
            raise ValidationError(
                f"time for task {self.task_id!r}: seconds must be > 0, got {self.seconds}")


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


def to_log_time(seconds: float) -> float:
    """Natural log of a positive wall-clock duration."""
    if not (seconds > 0.0):
        raise ValidationError(f"seconds must be positive, got {seconds}")
    return math.log(seconds)


def _parse_row(reader: Iterable[list[str]], path, expected_header: list[str]):
    """Yield (line_number, row) after checking the header line."""
    lineno = 0
    for row in reader:
        lineno += 1
        if lineno == 1:
            if row != expected_header:
                raise CsvParseError(
                    f"{path}: expected header {','.join(expected_header)!r}, "
                    f"got {','.join(row)!r}")
            continue
        if not row or all(cell == "" for cell in row):
            continue
        if len(row) != len(expected_header):
            raise CsvParseError(
                f"{path}, row {lineno}: expected {len(expected_header)} columns, got {len(row)}")
        yield lineno, row


def _field(path, lineno: int, name: str, raw: str, kind):
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise CsvParseError(f"{path}, row {lineno}: bad {name} value {raw!r}") from exc


def _open_csv(path):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from exc


def load_features_csv(path) -> list[Clip]:
    path = Path(path)
    clips = []
    with _open_csv(path) as fh:
        for lineno, row in _parse_row(csv.reader(fh), path, FEATURES_HEADER):
            (clip_id, width, height, fr_num, fr_den,
             num_frames, e_val, h_val, luma, group) = row
            try:
                clips.append(Clip(
                    clip_id=clip_id,
                    width=_field(path, lineno, "width", width, int),
                    height=_field(path, lineno, "height", height, int),
                    framerate=Fraction(_field(path, lineno, "framerate_num", fr_num, int),
                                       _field(path, lineno, "framerate_den", fr_den, int)),
                    num_frames=_field(path, lineno, "num_frames", num_frames, int),
                    E=_field(path, lineno, "E", e_val, float),
                    h=_field(path, lineno, "h", h_val, float),
                    luma=_field(path, lineno, "luma", luma, float),
                    source_group=group))
            except ZeroDivisionError as exc:
                raise CsvParseError(f"{path}, row {lineno}: framerate_den is zero") from exc
    return clips


def load_times_csv(path) -> dict[str, TimeRecord]:
    path = Path(path)
    times: dict[str, TimeRecord] = {}
    with _open_csv(path) as fh:
        for lineno, row in _parse_row(csv.reader(fh), path, TIMES_HEADER):
            task_id, seconds = row
            if task_id in times:
                raise ValidationError(f"{path}, row {lineno}: duplicate task_id {task_id!r}")
            times[task_id] = TimeRecord(
                task_id=task_id,
                seconds=_field(path, lineno, "seconds", seconds, float))
    return times


def load_tasks_csv(path) -> list[EncodeTask]:
    path = Path(path)
    tasks = []
    with _open_csv(path) as fh:
        for lineno, row in _parse_row(csv.reader(fh), path, TASKS_HEADER):
            task_id, clip_id, encoder, preset, cqp = row
            tasks.append(EncodeTask(task_id=task_id, clip_id=clip_id, encoder=encoder,
                                    preset=preset, cqp=_field(path, lineno, "cqp", cqp, int)))
    return tasks


def load_corpus(features_path, times_path=None, tasks_path=None,
                encoders: Sequence[str] = DEFAULT_ENCODERS,
                presets: Sequence[str] = PRESETS,
                cqps: Sequence[int] = CQPS) -> Corpus:
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
        tasks = expand_tasks(clips, encoders, presets, cqps)
    times = load_times_csv(times_path) if times_path is not None else None
    return Corpus(clips=tuple(clips), tasks=tuple(tasks), times=times)


def _fmt(x: float) -> str:
    return repr(float(x))


def save_features_csv(path, clips: Sequence[Clip]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURES_HEADER)
        for c in clips:
            writer.writerow([c.clip_id, c.width, c.height,
                             c.framerate.numerator, c.framerate.denominator,
                             c.num_frames, _fmt(c.E), _fmt(c.h), _fmt(c.luma),
                             c.source_group])


def save_tasks_csv(path, tasks: Sequence[EncodeTask]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TASKS_HEADER)
        for t in tasks:
            writer.writerow([t.task_id, t.clip_id, t.encoder, t.preset, t.cqp])


def save_times_csv(path, times: Mapping[str, TimeRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMES_HEADER)
        for record in times.values():
            writer.writerow([record.task_id, _fmt(record.seconds)])


def save_corpus(corpus: Corpus, features_path, tasks_path=None, times_path=None) -> None:
    save_features_csv(features_path, corpus.clips)
    if tasks_path is not None:
        save_tasks_csv(tasks_path, corpus.tasks)
    if times_path is not None:
        if corpus.times is None:
            raise ValidationError("corpus has no times to save")
        save_times_csv(times_path, corpus.times)
