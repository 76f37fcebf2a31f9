"""Domain-type invariants, task expansion, the log-time transform, and CSV I/O."""

import math
import os
import stat
import tempfile
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus_eta.corpus import (CQPS, PRESETS, Clip, Corpus, EncodeTask, TimeRecord,
                               expand_tasks, load_corpus,
                               load_features_csv, load_tasks_csv, load_times_csv,
                               save_corpus, save_features_csv, save_tasks_csv,
                               save_times_csv, task_id_for, float_text,
                               read_csv, write_csv)
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
        ("E", math.inf), ("h", math.inf),
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

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), math.inf])
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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_save_then_load_corpus_is_exact(self, data):
        # any text a CSV field can carry in UTF-8, commas, quotes and newlines too
        text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
        clip_ids = data.draw(st.lists(text.filter(bool), min_size=1, max_size=4, unique=True))
        features = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
        clips = [Clip(clip_id=cid, width=data.draw(st.integers(1, 8192)),
                      height=data.draw(st.integers(1, 8192)),
                      framerate=Fraction(data.draw(st.integers(1, 240000)),
                                         data.draw(st.integers(1, 1001))),
                      num_frames=data.draw(st.integers(1, 10 ** 6)),
                      E=data.draw(features), h=data.draw(features),
                      luma=data.draw(st.floats(0.0, 255.0)),
                      source_group=data.draw(text))
                 for cid in clip_ids]
        tasks = expand_tasks(
            clips, data.draw(st.lists(text.filter(bool), min_size=1, max_size=2, unique=True)),
            data.draw(st.lists(st.sampled_from(PRESETS), min_size=1, unique=True)),
            data.draw(st.lists(st.sampled_from(CQPS), min_size=1, unique=True)))
        ids = [t.task_id for t in tasks]
        assume(len(set(ids)) == len(ids))   # ':' inside ids can make two collide
        seconds = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                            allow_infinity=False)
        times = {tid: TimeRecord(tid, data.draw(seconds))
                 for tid in ids if data.draw(st.booleans())}
        corpus = Corpus(clips=tuple(clips), tasks=tuple(tasks), times=times)

        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / name for name in ("f.csv", "k.csv", "t.csv")]
            save_corpus(corpus, *paths)
            loaded = load_corpus(paths[0], tasks_path=paths[1], times_path=paths[2])

        def bits(clip):   # float.hex tells -0.0 from 0.0, which == does not
            return (clip.E.hex(), clip.h.hex(), clip.luma.hex())

        assert loaded.clips == corpus.clips
        assert [bits(c) for c in loaded.clips] == [bits(c) for c in clips]
        assert loaded.tasks == corpus.tasks
        assert {tid: r.seconds.hex() for tid, r in loaded.times.items()} == \
            {tid: r.seconds.hex() for tid, r in times.items()}

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


# Python and numpy floats, including the values a float format most often gets wrong.
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     math.inf, -math.inf, math.nan]))
_CELLS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.integers(),
    _FLOATS,
    _FLOATS.map(np.float64))


class TestTableFormat:
    """write_csv, read_csv and float_text: the format every table shares."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_read_back_cell_for_cell(self, data):
        width = data.draw(st.integers(1, 4))
        header = [f"col{i}" for i in range(width)]
        rows = data.draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width),
                                  max_size=6))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            write_csv(path, header,
                      ([float_text(v) if isinstance(v, float) else v for v in row]
                       for row in rows))
            loaded = [row for _, row in read_csv(path, header)]

        # the reader skips rows whose cells are all empty
        kept = [row for row in rows if any(v != "" for v in row)]
        assert len(loaded) == len(kept)
        for written, read in zip(kept, loaded):
            for value, text in zip(written, read):
                if isinstance(value, float):   # np.float64 is a float subclass
                    assert float(text).hex() == float(value).hex()
                    assert text == float_text(float(value))
                else:
                    assert text == str(value)

    @given(_FLOATS)
    def test_numpy_float_text_matches_python_float(self, x):
        assert float_text(np.float64(x)) == float_text(x)
        assert float(float_text(x)).hex() == float(x).hex()

    def test_row_numbers_count_the_header_and_skipped_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n,\n\n3,4\n")
        assert list(read_csv(path, ["a", "b"])) == [(2, ["1", "2"]), (5, ["3", "4"])]

    def test_empty_file_has_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        assert list(read_csv(path, ["a", "b"])) == []


class TestAtomicWrite:
    """write_csv replaces its target only once every row is written."""

    @staticmethod
    def _rows_then_crash():
        yield ["1", "2"]
        raise RuntimeError("interrupted mid-write")

    def test_a_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [["old", "row"]])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="mid-write"):
            write_csv(path, ["a", "b"], self._rows_then_crash())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_a_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError, match="mid-write"):
            write_csv(tmp_path / "t.csv", ["a", "b"], self._rows_then_crash())
        assert list(tmp_path.iterdir()) == []

    def test_a_missing_directory_is_named_in_the_error(self, tmp_path):
        path = tmp_path / "no" / "t.csv"
        with pytest.raises(FileNotFoundError) as raised:
            write_csv(path, ["a", "b"], [])
        assert raised.value.filename == str(path)

    def test_a_fifo_is_written_in_place(self, tmp_path):
        path = tmp_path / "t.csv"
        os.mkfifo(path)
        received = []
        reader = threading.Thread(target=lambda: received.append(path.read_bytes()),
                                  daemon=True)
        reader.start()
        write_csv(path, ["a", "b"], [["1", "2"]])
        reader.join(timeout=30)
        assert received == [b"a,b\r\n1,2\r\n"]
        assert stat.S_ISFIFO(path.lstat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


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

    def test_infinite_values_rejected(self, tmp_path):
        features = tmp_path / "f.csv"
        features.write_text(
            "clip_id,width,height,framerate_num,framerate_den,num_frames,E,h,luma,source_group\n"
            "a,1280,720,30,1,60,inf,1.0,100.0,g\n")
        with pytest.raises(ValidationError, match="E must be finite"):
            load_features_csv(features)
        times = tmp_path / "t.csv"
        times.write_text("task_id,seconds\na:x264:medium:27,inf\n")
        with pytest.raises(ValidationError, match="seconds must be finite"):
            load_times_csv(times)

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
