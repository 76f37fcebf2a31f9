"""Encode runner: templating, timing, resume bookkeeping, failure handling."""

import csv
import sys
import time

import pytest

from corpus_eta.corpus import TIMES_HEADER, load_times_csv
from corpus_eta.errors import CsvParseError, EncodeError, ValidationError
from corpus_eta.runner import (PLACEHOLDERS, BatchSummary, CommandTemplate,
                               batch_encode, resolve_input, run_encode,
                               task_mapping)

from helpers import make_clip, make_corpus

PY = sys.executable

SLEEP_HALF = CommandTemplate(f"{PY} -c 'import time; time.sleep(0.5)'")
NOOP = CommandTemplate("true")
FAIL3 = CommandTemplate(f"{PY} -c 'import sys; sys.exit(3)'")


def small_corpus(tmp_path, n_clips=2):
    """Corpus plus an input directory holding one .yuv stand-in per clip."""
    corpus = make_corpus(n_clips=n_clips, presets=("medium",), cqps=(22, 27))
    input_dir = tmp_path / "inputs"
    input_dir.mkdir()
    for clip in corpus.clips:
        (input_dir / f"{clip.clip_id}.yuv").write_bytes(b"\x00")
    return corpus, input_dir


class TestCommandTemplate:
    def test_renders_placeholders_per_token(self):
        template = CommandTemplate("enc -i {input} -o {output} -p {preset} -q {cqp}")
        argv = template.render({"input": "in.yuv", "output": "out.bin",
                                "preset": "medium", "cqp": 27})
        assert argv == ["enc", "-i", "in.yuv", "-o", "out.bin",
                        "-p", "medium", "-q", "27"]

    def test_substituted_paths_with_spaces_stay_one_argument(self):
        template = CommandTemplate("enc {input}")
        argv = template.render({"input": "/tmp/two words.yuv"})
        assert argv == ["enc", "/tmp/two words.yuv"]

    def test_doubled_braces_become_literals(self):
        template = CommandTemplate("enc --filter {{grain}}")
        assert template.render({}) == ["enc", "--filter", "{grain}"]

    def test_unknown_placeholder_lists_known_names(self):
        template = CommandTemplate("enc {bitrate}")
        with pytest.raises(ValidationError, match="unknown placeholder"):
            template.render({"input": "x"})
        with pytest.raises(ValidationError, match="framerate_num"):
            template.render({"input": "x"})

    @pytest.mark.parametrize("bad", ["enc {input", "enc {0}"])
    def test_bad_placeholder_syntax(self, bad):
        with pytest.raises(ValidationError, match="bad placeholder syntax"):
            CommandTemplate(bad).render({"input": "x"})

    @pytest.mark.parametrize("empty", ["", "   "])
    def test_empty_template_rejected(self, empty):
        with pytest.raises(ValidationError, match="empty command template"):
            CommandTemplate(empty)

    def test_unbalanced_quote_rejected(self):
        with pytest.raises(ValidationError, match="unparseable command template"):
            CommandTemplate("enc 'oops")

    def test_mapping_covers_declared_placeholders(self):
        from fractions import Fraction
        clip = make_clip("clipA", width=1280, height=720, num_frames=120)
        clip = type(clip)(**{**clip.__dict__, "framerate": Fraction(30000, 1001)})
        task = make_corpus(n_clips=1).tasks[0]
        mapping = task_mapping(task, clip, "in.yuv", "out.bin")
        assert set(mapping) == set(PLACEHOLDERS)
        assert mapping["framerate_num"] == 30000
        assert mapping["framerate_den"] == 1001
        assert mapping["width"] == 1280
        assert mapping["input"] == "in.yuv"
        assert mapping["output"] == "out.bin"


class TestRunEncode:
    def test_half_second_command_timed_in_band(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path, n_clips=1)
        task, clip = corpus.tasks[0], corpus.clips[0]
        start = time.monotonic()
        result = run_encode(task, clip, SLEEP_HALF,
                            input_dir / f"{clip.clip_id}.yuv", tmp_path / "scratch")
        span = time.monotonic() - start
        # the child sleeps 0.5 s, and the timing lies inside the call: bounds
        # that a loaded machine cannot break
        assert 0.5 <= result.seconds <= span
        assert not result.suspect

    def test_log_captures_stdout_and_stderr(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path, n_clips=1)
        task, clip = corpus.tasks[0], corpus.clips[0]
        template = CommandTemplate(
            f"{PY} -c 'import sys; print(\"to out\"); print(\"to err\", file=sys.stderr)'")
        result = run_encode(task, clip, template,
                            input_dir / f"{clip.clip_id}.yuv", tmp_path / "scratch")
        text = (tmp_path / "scratch" / f"{result.task_id.replace(':', '_')}.log").read_text()
        assert "to out" in text
        assert "to err" in text
        assert result.log_path.endswith(".log")

    def test_output_deleted_unless_kept(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path, n_clips=1)
        task, clip = corpus.tasks[0], corpus.clips[0]
        template = CommandTemplate("cp {input} {output}")
        scratch = tmp_path / "scratch"
        run_encode(task, clip, template, input_dir / f"{clip.clip_id}.yuv", scratch)
        assert not list(scratch.glob("*.out"))
        run_encode(task, clip, template, input_dir / f"{clip.clip_id}.yuv",
                   scratch, keep_output=True)
        assert len(list(scratch.glob("*.out"))) == 1

    def test_nonzero_exit_raises_structured_error(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path, n_clips=1)
        task, clip = corpus.tasks[0], corpus.clips[0]
        with pytest.raises(EncodeError, match="exited with code 3") as info:
            run_encode(task, clip, FAIL3,
                       input_dir / f"{clip.clip_id}.yuv", tmp_path / "scratch")
        assert info.value.task_id == task.task_id
        assert info.value.exit_code == 3
        assert info.value.log_path.endswith(".log")

    def test_missing_binary_raises(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path, n_clips=1)
        task, clip = corpus.tasks[0], corpus.clips[0]
        template = CommandTemplate("/no/such/encoder {input}")
        with pytest.raises(EncodeError, match="could not launch"):
            run_encode(task, clip, template,
                       input_dir / f"{clip.clip_id}.yuv", tmp_path / "scratch")

    def test_instant_measurement_flagged_suspect(self, tmp_path, monkeypatch):
        corpus, input_dir = small_corpus(tmp_path, n_clips=1)
        task, clip = corpus.tasks[0], corpus.clips[0]
        real = time.monotonic
        ticks = iter([100.0, 100.0000005])
        monkeypatch.setattr(time, "monotonic",
                            lambda: next(ticks, None) or real())
        result = run_encode(task, clip, NOOP,
                            input_dir / f"{clip.clip_id}.yuv", tmp_path / "scratch")
        assert result.suspect
        assert result.seconds == pytest.approx(5e-7, rel=1e-6)

    def test_zero_elapsed_clamped_to_positive(self, tmp_path, monkeypatch):
        corpus, input_dir = small_corpus(tmp_path, n_clips=1)
        task, clip = corpus.tasks[0], corpus.clips[0]
        real = time.monotonic
        ticks = iter([100.0, 100.0])
        monkeypatch.setattr(time, "monotonic",
                            lambda: next(ticks, None) or real())
        result = run_encode(task, clip, NOOP,
                            input_dir / f"{clip.clip_id}.yuv", tmp_path / "scratch")
        assert result.seconds == 1e-9


class TestResolveInput:
    def test_exact_name_wins(self, tmp_path):
        (tmp_path / "clip0").write_bytes(b"x")
        (tmp_path / "clip0.yuv").write_bytes(b"x")
        assert resolve_input(tmp_path, "clip0").name == "clip0"

    def test_unique_extension_match(self, tmp_path):
        (tmp_path / "clip0.yuv").write_bytes(b"x")
        (tmp_path / "clip1.yuv").write_bytes(b"x")
        assert resolve_input(tmp_path, "clip0").name == "clip0.yuv"

    def test_missing_input_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no input file"):
            resolve_input(tmp_path, "clip0")

    def test_ambiguous_input_rejected(self, tmp_path):
        (tmp_path / "clip0.yuv").write_bytes(b"x")
        (tmp_path / "clip0.y4m").write_bytes(b"x")
        with pytest.raises(ValidationError, match="ambiguous input"):
            resolve_input(tmp_path, "clip0")

    def test_glob_metacharacters_in_clip_id(self, tmp_path):
        (tmp_path / "cl[i]p.yuv").write_bytes(b"x")
        assert resolve_input(tmp_path, "cl[i]p").name == "cl[i]p.yuv"


class TestBatchEncode:
    def test_fresh_run_records_every_task(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path)
        times_path = tmp_path / "times.csv"
        summary = batch_encode(corpus, NOOP, input_dir, times_path,
                               tmp_path / "scratch")
        assert summary == BatchSummary(requested=4, skipped=0, succeeded=4,
                                       failed=(), aborted=0)
        records = load_times_csv(times_path)
        assert set(records) == {t.task_id for t in corpus.tasks}
        assert all(r.seconds > 0 for r in records.values())

    def test_serial_rows_follow_corpus_order(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path)
        times_path = tmp_path / "times.csv"
        batch_encode(corpus, NOOP, input_dir, times_path, tmp_path / "scratch")
        with open(times_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TIMES_HEADER
        assert [r[0] for r in rows[1:]] == [t.task_id for t in corpus.tasks]

    def test_rerun_skips_everything(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path)
        times_path = tmp_path / "times.csv"
        batch_encode(corpus, NOOP, input_dir, times_path, tmp_path / "scratch")
        before = times_path.read_bytes()
        summary = batch_encode(corpus, NOOP, input_dir, times_path,
                               tmp_path / "scratch")
        assert summary.skipped == 4
        assert summary.succeeded == 0
        assert times_path.read_bytes() == before

    def test_partial_resume_runs_only_missing_tasks(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path)
        times_path = tmp_path / "times.csv"
        seeded = [t.task_id for t in corpus.tasks[:2]]
        with open(times_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TIMES_HEADER)
            for tid in seeded:
                writer.writerow([tid, "0.5"])
        summary = batch_encode(corpus, NOOP, input_dir, times_path,
                               tmp_path / "scratch")
        assert summary.skipped == 2
        assert summary.succeeded == 2
        records = load_times_csv(times_path)
        assert len(records) == 4
        with open(times_path, newline="") as fh:
            ids = [row[0] for row in list(csv.reader(fh))[1:]]
        assert len(ids) == len(set(ids))  # resume never duplicates a task row

    def test_resume_after_cut_anywhere_in_final_row(self, tmp_path, caplog):
        corpus, input_dir = small_corpus(tmp_path)
        full_path = tmp_path / "full.csv"
        batch_encode(corpus, NOOP, input_dir, full_path, tmp_path / "scratch")
        full = full_path.read_bytes()
        last_row = full.rstrip(b"\r\n").rfind(b"\n") + 1
        every_task = sorted(t.task_id for t in corpus.tasks)
        for cut in range(last_row, len(full)):
            times_path = tmp_path / f"cut{cut}.csv"
            times_path.write_bytes(full[:cut])
            caplog.clear()
            summary = batch_encode(corpus, NOOP, input_dir, times_path,
                                   tmp_path / "scratch")
            assert summary.skipped == 3 and summary.succeeded == 1, cut
            with open(times_path, newline="") as fh:
                ids = [row[0] for row in list(csv.reader(fh))[1:]]
            assert sorted(ids) == every_task, cut
            assert times_path.read_bytes()[:last_row] == full[:last_row]
            torn = cut > last_row
            assert ("unterminated final row" in caplog.text) == torn, cut
        assert not list(tmp_path.glob("*.tmp"))

    def test_torn_header_starts_a_fresh_file(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path)
        times_path = tmp_path / "times.csv"
        times_path.write_text("task_id,sec")
        summary = batch_encode(corpus, NOOP, input_dir, times_path,
                               tmp_path / "scratch")
        assert summary.succeeded == 4
        assert len(load_times_csv(times_path)) == 4

    @pytest.mark.parametrize("text", [
        "task_id,seconds\r\nt1,fast\r\nt2,1.0",     # bad row before a torn one
        "task_id,seconds\r\nt1,1.0\r\nt2,fast\r\n",  # bad final row, terminated
        "task_id,seconds\r\nt1,1.0,9\r\n",
    ])
    def test_other_malformed_rows_still_raise(self, tmp_path, text):
        corpus, input_dir = small_corpus(tmp_path)
        times_path = tmp_path / "times.csv"
        times_path.write_bytes(text.encode())
        with pytest.raises(CsvParseError, match="row"):
            batch_encode(corpus, NOOP, input_dir, times_path, tmp_path / "scratch")

    def test_all_failures_leave_manifest_and_no_times(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path)
        times_path = tmp_path / "times.csv"
        summary = batch_encode(corpus, FAIL3, input_dir, times_path,
                               tmp_path / "scratch")
        assert summary.succeeded == 0
        assert set(summary.failed) == {t.task_id for t in corpus.tasks}
        assert load_times_csv(times_path) == {}
        manifest = tmp_path / "times.csv.failures.csv"
        lines = manifest.read_text().splitlines()
        assert lines[0] == "task_id"
        assert set(lines[1:]) == {t.task_id for t in corpus.tasks}

    def test_fail_fast_aborts_the_rest(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path)
        times_path = tmp_path / "times.csv"
        summary = batch_encode(corpus, FAIL3, input_dir, times_path,
                               tmp_path / "scratch", fail_fast=True)
        assert summary.failed == (corpus.tasks[0].task_id,)
        assert summary.aborted == 3

    def test_concurrent_run_records_each_task_once(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path, n_clips=3)
        times_path = tmp_path / "times.csv"
        summary = batch_encode(corpus, NOOP, input_dir, times_path,
                               tmp_path / "scratch", concurrency=3)
        assert summary.succeeded == 6
        with open(times_path, newline="") as fh:
            ids = [row[0] for row in list(csv.reader(fh))[1:]]
        assert sorted(ids) == sorted(t.task_id for t in corpus.tasks)

    def test_task_subset_argument(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path)
        times_path = tmp_path / "times.csv"
        summary = batch_encode(corpus, NOOP, input_dir, times_path,
                               tmp_path / "scratch", tasks=corpus.tasks[:1])
        assert summary.requested == 1
        assert len(load_times_csv(times_path)) == 1

    def test_unresolvable_input_fails_before_any_encode(self, tmp_path):
        corpus, _ = small_corpus(tmp_path)
        empty_dir = tmp_path / "empty"
        empty_dir.mkdir()
        times_path = tmp_path / "times.csv"
        with pytest.raises(ValidationError, match="no input file"):
            batch_encode(corpus, NOOP, empty_dir, times_path, tmp_path / "scratch")
        assert not times_path.exists()

    def test_bad_concurrency_rejected(self, tmp_path):
        corpus, input_dir = small_corpus(tmp_path)
        with pytest.raises(ValidationError, match="concurrency"):
            batch_encode(corpus, NOOP, input_dir, tmp_path / "t.csv",
                         tmp_path / "scratch", concurrency=0)
