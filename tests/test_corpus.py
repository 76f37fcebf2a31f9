"""Domain-type invariants, task expansion, the log-time transform, and CSV I/O."""

import math
from fractions import Fraction

import numpy as np
import pytest

from corpus_eta.corpus import (Clip, Corpus, EncodeTask, TimeRecord,
                               expand_tasks, load_corpus,
                               load_features_csv, load_tasks_csv, load_times_csv,
                               save_corpus, save_features_csv, save_tasks_csv,
                               save_times_csv, task_id_for, to_log_time)
from corpus_eta.errors import CsvParseError, ValidationError

from helpers import make_clip, make_clips


class TestClip:
    def test_valid_clip(self):
        clip = make_clip()
        assert clip.num_pixels == 1920 * 1080

    def test_rejects_empty_id(self):
        with pytest.raises(ValidationError, match="clip_id"):
            make_clip(clip_id="")

    @pytest.mark.parametrize("field,value", [
        ("width", 0), ("height", -1), ("num_frames", 0), ("framerate", 0),
        ("E", -0.5), ("h", -1.0), ("luma", -1.0), ("luma", 256.0),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValidationError):
            make_clip(**{field: value})

    def test_rejects_nan_features(self):
        with pytest.raises(ValidationError):
            make_clip(E=float("nan"))

    def test_fractional_framerate(self):
        clip = Clip(clip_id="c", width=640, height=480,
                    framerate=Fraction(30000, 1001), num_frames=10,
                    E=1.0, h=1.0, luma=100.0, source_group="g")
        assert float(clip.framerate) == pytest.approx(29.97, rel=1e-3)


class TestEncodeTask:
    def test_valid(self):
        EncodeTask(task_id="a:x264:medium:27", clip_id="a", encoder="x264",
                   preset="medium", cqp=27)

    def test_rejects_unknown_preset(self):
        with pytest.raises(ValidationError, match="preset"):
            EncodeTask(task_id="t", clip_id="a", encoder="x264",
                       preset="placebo", cqp=27)

    def test_rejects_unknown_cqp(self):
        with pytest.raises(ValidationError, match="cqp"):
            EncodeTask(task_id="t", clip_id="a", encoder="x264",
                       preset="medium", cqp=23)

    def test_rejects_empty_encoder(self):
        with pytest.raises(ValidationError, match="encoder"):
            EncodeTask(task_id="t", clip_id="a", encoder="",
                       preset="medium", cqp=27)


class TestTimeRecord:
    def test_positive_ok(self):
        assert TimeRecord(task_id="t", seconds=0.001).seconds == 0.001

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValidationError, match="seconds"):
            TimeRecord(task_id="t", seconds=bad)


class TestCorpus:
    def test_n_counts_tasks(self):
        clips = make_clips(2)
        tasks = expand_tasks(clips, ["x264"])
        corpus = Corpus(clips=tuple(clips), tasks=tuple(tasks))
        assert corpus.N == 24

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="empty corpus"):
            Corpus(clips=(), tasks=())

    def test_rejects_duplicate_clip(self):
        clip = make_clip()
        with pytest.raises(ValidationError, match="duplicate clip_id"):
            Corpus(clips=(clip, clip), tasks=())

    def test_rejects_duplicate_task(self):
        clip = make_clip()
        task = expand_tasks([clip], ["x264"], presets=["medium"], cqps=[27])[0]
        with pytest.raises(ValidationError, match="duplicate task_id"):
            Corpus(clips=(clip,), tasks=(task, task))

    def test_rejects_task_for_unknown_clip(self):
        clip = make_clip()
        stray = EncodeTask(task_id="b:x264:medium:27", clip_id="b",
                           encoder="x264", preset="medium", cqp=27)
        with pytest.raises(ValidationError, match="unknown clip"):
            Corpus(clips=(clip,), tasks=(stray,))

    def test_rejects_time_for_unknown_task(self):
        clip = make_clip()
        tasks = expand_tasks([clip], ["x264"], presets=["medium"], cqps=[27])
        times = {"nope": TimeRecord(task_id="nope", seconds=1.0)}
        with pytest.raises(ValidationError, match="unknown task"):
            Corpus(clips=(clip,), tasks=tuple(tasks), times=times)

    def test_clip_lookup_and_task_map(self):
        clips = make_clips(3)
        tasks = expand_tasks(clips, ["x264"], presets=["medium"], cqps=[27])
        corpus = Corpus(clips=tuple(clips), tasks=tuple(tasks))
        assert corpus.clip("clip001") is clips[1]
        assert corpus.task_map()[tasks[0].task_id] is tasks[0]


class TestExpandTasks:
    def test_full_grid_single_encoder(self):
        clips = make_clips(600)
        tasks = expand_tasks(clips, ["x264"])
        assert len(tasks) == 7200

    def test_full_grid_two_encoders(self):
        clips = make_clips(600)
        tasks = expand_tasks(clips, ["x264", "x265"])
        assert len(tasks) == 14400

    def test_small_product(self):
        clips = make_clips(2)
        tasks = expand_tasks(clips, ["x264", "x265"])
        assert len(tasks) == 48

    def test_identity_case(self):
        tasks = expand_tasks([make_clip()], ["x264"], presets=["medium"], cqps=[27])
        assert len(tasks) == 1
        assert tasks[0].task_id == "clip0:x264:medium:27"

    def test_order_is_clip_encoder_preset_cqp(self):
        clips = make_clips(2)
        tasks = expand_tasks(clips, ["x264"], presets=["ultrafast", "medium"],
                             cqps=[22, 27])
        ids = [t.task_id for t in tasks]
        assert ids == [
            "clip000:x264:ultrafast:22", "clip000:x264:ultrafast:27",
            "clip000:x264:medium:22", "clip000:x264:medium:27",
            "clip001:x264:ultrafast:22", "clip001:x264:ultrafast:27",
            "clip001:x264:medium:22", "clip001:x264:medium:27",
        ]

    def test_size_always_the_product(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            n_enc = int(rng.integers(1, 3))
            presets = ["ultrafast", "medium", "veryslow"][:int(rng.integers(1, 4))]
            cqps = [22, 27, 32, 37][:int(rng.integers(1, 5))]
            clips = make_clips(n)
            encoders = [f"enc{i}" for i in range(n_enc)]
            assert len(expand_tasks(clips, encoders, presets, cqps)) == \
                n * n_enc * len(presets) * len(cqps)

    @pytest.mark.parametrize("kwargs", [
        dict(encoders=[]), dict(encoders=["x264"], presets=[]),
        dict(encoders=["x264"], cqps=[]),
    ])
    def test_empty_axis_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            expand_tasks([make_clip()], **kwargs)

    def test_no_clips_rejected(self):
        with pytest.raises(ValidationError):
            expand_tasks([], ["x264"])


class TestTaskIdFor:
    def test_format(self):
        assert task_id_for("clipA", "x265", "veryslow", 37) == "clipA:x265:veryslow:37"


class TestLogTransform:
    def test_identity_point(self):
        assert to_log_time(1.0) == 0.0

    def test_base_point(self):
        assert to_log_time(math.e) == 1.0

    def test_round_trip(self):
        assert math.exp(to_log_time(137.25)) == pytest.approx(137.25, rel=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        for value in rng.uniform(1e-6, 1e6, size=50):
            assert math.exp(to_log_time(value)) == pytest.approx(value, rel=1e-12)

    def test_strictly_monotone(self):
        rng = np.random.default_rng(6)
        values = np.sort(rng.uniform(1e-3, 1e3, size=100))
        logs = [to_log_time(v) for v in values]
        assert all(a < b for a, b in zip(logs, logs[1:]))

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("nan")])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValidationError):
            to_log_time(bad)


class TestCsvRoundTrip:
    def test_features_round_trip(self, tmp_path):
        clips = [
            make_clip(clip_id="a", E=0.1 + 0.2, h=1.0 / 3.0, luma=137.2499999999),
            Clip(clip_id="b", width=640, height=480, framerate=Fraction(30000, 1001),
                 num_frames=75, E=0.0, h=0.0, luma=0.0, source_group="g1"),
        ]
        path = tmp_path / "features.csv"
        save_features_csv(path, clips)
        assert load_features_csv(path) == clips

    def test_times_round_trip_preserves_every_bit(self, tmp_path):
        rng = np.random.default_rng(9)
        times = {f"t{i}": TimeRecord(task_id=f"t{i}", seconds=float(v))
                 for i, v in enumerate(rng.uniform(1e-6, 1e4, size=40))}
        path = tmp_path / "times.csv"
        save_times_csv(path, times)
        loaded = load_times_csv(path)
        assert loaded == times
        for tid in times:
            assert loaded[tid].seconds == times[tid].seconds

    def test_tasks_round_trip(self, tmp_path):
        tasks = expand_tasks(make_clips(3), ["x264", "x265"])
        path = tmp_path / "tasks.csv"
        save_tasks_csv(path, tasks)
        assert load_tasks_csv(path) == tasks

    def test_save_then_load_corpus_identity(self, tmp_path):
        clips = make_clips(3)
        tasks = expand_tasks(clips, ["x264"])
        times = {t.task_id: TimeRecord(task_id=t.task_id, seconds=1.5 + i * 0.1)
                 for i, t in enumerate(tasks)}
        corpus = Corpus(clips=tuple(clips), tasks=tuple(tasks), times=times)
        save_corpus(corpus, tmp_path / "f.csv", tmp_path / "k.csv", tmp_path / "t.csv")
        loaded = load_corpus(tmp_path / "f.csv", times_path=tmp_path / "t.csv",
                             tasks_path=tmp_path / "k.csv")
        assert loaded.clips == corpus.clips
        assert loaded.tasks == corpus.tasks
        assert loaded.times == corpus.times

    def test_save_is_byte_stable(self, tmp_path):
        clips = make_clips(4)
        save_features_csv(tmp_path / "one.csv", clips)
        save_features_csv(tmp_path / "two.csv", clips)
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_load_corpus_expands_grid_when_no_tasks_file(self, tmp_path):
        save_features_csv(tmp_path / "f.csv", make_clips(2))
        corpus = load_corpus(tmp_path / "f.csv", encoders=["x264", "x265"])
        assert corpus.N == 48

    def test_save_corpus_without_times_rejected(self, tmp_path):
        clips = make_clips(1)
        corpus = Corpus(clips=tuple(clips),
                        tasks=tuple(expand_tasks(clips, ["x264"])))
        with pytest.raises(ValidationError, match="no times"):
            save_corpus(corpus, tmp_path / "f.csv", times_path=tmp_path / "t.csv")


class TestCsvErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvParseError, match="cannot read"):
            load_features_csv(tmp_path / "nope.csv")

    def test_features_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("clip,who,knows\n")
        with pytest.raises(CsvParseError, match="header"):
            load_features_csv(path)

    def test_features_bad_value_names_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "clip_id,width,height,framerate_num,framerate_den,num_frames,E,h,luma,source_group\n"
            "a,1280,720,30,1,60,1.0,1.0,100.0,g\n"
            "b,1280,720,30,1,sixty,1.0,1.0,100.0,g\n")
        with pytest.raises(CsvParseError, match="row 3"):
            load_features_csv(path)

    def test_features_zero_denominator(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "clip_id,width,height,framerate_num,framerate_den,num_frames,E,h,luma,source_group\n"
            "a,1280,720,30,0,60,1.0,1.0,100.0,g\n")
        with pytest.raises(CsvParseError, match="framerate_den"):
            load_features_csv(path)

    def test_features_wrong_column_count(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "clip_id,width,height,framerate_num,framerate_den,num_frames,E,h,luma,source_group\n"
            "a,1280,720\n")
        with pytest.raises(CsvParseError, match="row 2"):
            load_features_csv(path)

    def test_times_zero_seconds_hits_invariant(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("task_id,seconds\nt1,0.0\n")
        with pytest.raises(ValidationError, match="seconds"):
            load_times_csv(path)

    def test_times_duplicate_task(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("task_id,seconds\nt1,1.0\nt1,2.0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_times_csv(path)

    def test_times_bad_float_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("task_id,seconds\nt1,1.0\nt2,fast\n")
        with pytest.raises(CsvParseError, match="row 3"):
            load_times_csv(path)

    def test_empty_clip_file_is_empty_corpus(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "clip_id,width,height,framerate_num,framerate_den,num_frames,E,h,luma,source_group\n")
        with pytest.raises(ValidationError, match="empty corpus"):
            load_corpus(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("task_id,seconds\n\nt1,1.5\n\n")
        assert load_times_csv(path) == {"t1": TimeRecord(task_id="t1", seconds=1.5)}
