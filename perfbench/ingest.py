"""Workload ``ingest``: ``analyze`` then ``encode`` over raw YUV420p clips.

Each round analyzes every clip into one features.csv, encodes the corpus
with a stand-in encoder, runs ``encode --resume`` (nothing left to do), and
then resumes from a times.csv whose final row was cut inside its task id, as
a crash in the middle of a write leaves it. That last call fails today: the
CSV loader rejects the torn row, so crash recovery cannot resume. It is
counted as a failed operation until the program recovers from it.
"""

from __future__ import annotations

import shlex
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from common import (BENCH_DIR, Call, check, expect_ok, nproc, read_csv_rows,
                    rel_close, task_ids)
from oracles import clip_features

# (width, height, frames); neither height is a multiple of 32, so padding runs
SIZES = {"full": ((1920, 1080, 8), (1280, 720, 12)),
         "smoke": ((320, 180, 3),)}
CONTENTS = ("textured", "flat", "static")
PAN = 8  # textured content moves this many pixels per frame
FEATURES_HEADER = ["clip_id", "width", "height", "framerate_num", "framerate_den",
                   "num_frames", "E", "h", "luma", "source_group"]


def standin_template() -> str:
    return (f"{shlex.quote(sys.executable)} -I -S "
            f"{shlex.quote(str(BENCH_DIR / 'standin_encoder.py'))} "
            "--preset {preset} --qp {cqp} -o {output} {input}")


def make_clip(rng: np.random.Generator, content: str, width: int, height: int,
              frames: int) -> list[np.ndarray]:
    """Luma planes of one clip: panned noise, one flat level, or a still image."""
    if content == "flat":
        return [np.full((height, width), rng.integers(16, 236), dtype=np.uint8)] * frames
    if content == "static":
        return [rng.integers(0, 256, (height, width), dtype=np.uint8)] * frames
    texture = rng.integers(0, 256, (height, width + PAN * frames), dtype=np.uint8)
    return [texture[:, PAN * t:PAN * t + width] for t in range(frames)]


def write_yuv420p(path: Path, planes: list[np.ndarray]) -> None:
    height, width = planes[0].shape
    chroma = np.full(width * height // 2, 128, dtype=np.uint8).tobytes()
    with open(path, "wb") as fh:
        for luma in planes:
            fh.write(np.ascontiguousarray(luma).tobytes())
            fh.write(chroma)


class Ingest:
    name = "ingest"

    def __init__(self, work: Path, seed: int, size: str):
        self.work, self.seed, self.shapes = work, seed, SIZES[size]
        self.clips_dir = work / "clips"
        self.features = work / "features.csv"
        self.times = work / "times.csv"
        self.torn = work / "times_torn.csv"
        self.scratch = work / "scratch"
        self.first_features: bytes | None = None
        self.accuracy: dict[str, float] = {}

    def setup(self) -> None:
        """Nothing to build with the program: set-up is the import alone."""
        import corpus_eta  # noqa: F401

    def prepare(self, call) -> None:
        """Generate the seeded clips and their reference features."""
        rng = np.random.default_rng(self.seed)
        self.clips_dir.mkdir(parents=True, exist_ok=True)
        self.clips = []
        for width, height, frames in self.shapes:
            for content in CONTENTS:
                clip_id = f"{content}{height}p"
                planes = make_clip(rng, content, width, height, frames)
                write_yuv420p(self.clips_dir / f"{clip_id}.yuv", planes)
                E, h = clip_features(planes)
                total = sum(int(p.sum(dtype=np.int64)) for p in planes)
                luma = float(Fraction(total, frames * width * height))
                self.clips.append({"id": clip_id, "content": content, "width": width,
                                   "height": height, "frames": frames,
                                   "E": E, "h": h, "luma": luma})
        self.ids = task_ids(c["id"] for c in self.clips)

    def _encode_argv(self, out: Path) -> list[str]:
        return ["encode", "--features", str(self.features), "--encoders", "x264",
                "--input-dir", str(self.clips_dir), "--template", standin_template(),
                "--out", str(out), "--scratch", str(self.scratch)]

    def round(self, call) -> list[tuple[Call, bool]]:
        for path in (self.features, self.times, self.torn):
            path.unlink(missing_ok=True)
        shutil.rmtree(self.scratch, ignore_errors=True)
        ops = []
        for clip in self.clips:
            ops.append((call(["analyze", "--yuv", str(self.clips_dir / f"{clip['id']}.yuv"),
                              "--width", str(clip["width"]), "--height", str(clip["height"]),
                              "--jobs", str(nproc()), "--features-out", str(self.features),
                              "--append", "--clip-id", clip["id"],
                              "--source-group", "bench"]), False))
        ops.append((call(self._encode_argv(self.times)), False))
        self.times_after_encode = self.times.read_bytes() if self.times.exists() else b""
        ops.append((call(self._encode_argv(self.times) + ["--resume"]), False))

        text = self.times_after_encode.decode("utf-8")
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        cut = len(text.rstrip("\n")) - len(last) + len(last.split(",")[0]) // 2
        self.torn.write_text(text[:cut], encoding="utf-8")
        torn = call(self._encode_argv(self.torn) + ["--resume"])
        ops.append((torn, torn.rc == 1 and self.torn.name in torn.stderr))
        return ops

    def check(self, ops: list[tuple[Call, bool]]) -> None:
        analyze_calls = [call for call, _ in ops[:len(self.clips)]]
        encode, resume, torn = (call for call, _ in ops[len(self.clips):])
        for call, clip in zip(analyze_calls, self.clips):
            expect_ok(call)
            where = f"analyze {clip['id']}"
            printed = dict(line.split(": ", 1) for line in call.stdout.splitlines()
                           if ": " in line)
            check(int(printed["frames"]) == clip["frames"], f"{where}: frame count")
            E, h, luma = (float(printed[k]) for k in ("E", "h", "luma"))
            check(rel_close(luma, clip["luma"], 1e-12),
                  f"{where}: luma {luma} != exact sample mean {clip['luma']}")
            check(rel_close(E, clip["E"], 1e-9), f"{where}: E {E} != reference {clip['E']}")
            if clip["content"] == "textured":
                check(rel_close(h, clip["h"], 1e-9), f"{where}: h {h} != reference {clip['h']}")
            else:
                check(h == 0.0, f"{where}: unchanging content gives h {h}, not 0")
            clip["E_program"] = E

        features = self.features.read_bytes()
        if self.first_features is None:
            rows = read_csv_rows(self.features)
            check(rows[0] == FEATURES_HEADER, f"features header {rows[0]}")
            check([r[0] for r in rows[1:]] == [c["id"] for c in self.clips],
                  "features.csv does not hold one row per clip")
            self.first_features = features
        check(features == self.first_features, "features.csv differs between rounds")

        expect_ok(encode)
        rows = read_csv_rows(self.times)
        check(rows[0] == ["task_id", "seconds"], f"times header {rows[0]}")
        check(sorted(r[0] for r in rows[1:]) == sorted(self.ids),
              "times.csv does not hold one row per task")
        check(all(float(r[1]) > 0.0 for r in rows[1:]), "a measured time is not > 0")
        check(not list(self.scratch.glob("*.out")), "encoded output left in scratch")

        expect_ok(resume)
        check(self.times.read_bytes() == self.times_after_encode, "--resume added rows")

        if torn.rc != 0:  # the known fault: the loader rejects the torn row
            check(torn.rc == 1 and self.torn.name in torn.stderr,
                  f"torn-row resume failed another way ({torn.rc}): {torn.stderr[-400:]}")
        else:  # recovered: the file must hold every task once
            rows = read_csv_rows(self.torn)[1:]
            check(sorted(r[0] for r in rows) == sorted(self.ids),
                  "torn-row resume left an incomplete times.csv")

    def summary(self, rounds: list[list[tuple[Call, bool]]]) -> list[tuple[str, float, str]]:
        frames = sum(c["frames"] for c in self.clips)
        n = len(self.clips)
        analyze = [sum(call.wall_s for call, _ in ops[:n]) for ops in rounds]
        encode = [ops[n][0].wall_s for ops in rounds]
        return ([("analyze_frames_per_s", frames / statistics.median(analyze), "frames/s"),
                 ("encode_tasks_per_s", len(self.ids) / statistics.median(encode), "tasks/s")]
                + [(f"E_{c['id']}", c["E_program"], "")
                   for c in self.clips if c["content"] == "flat"])
