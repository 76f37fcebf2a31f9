"""Command-line interface: exit codes, flows, and output formats."""

import json
import subprocess
import sys

import numpy as np
import pytest

from corpus_eta.cli import main
from corpus_eta.corpus import (TimeRecord, load_features_csv, load_times_csv,
                               save_features_csv, save_times_csv)
from corpus_eta.harness import load_report_csv

from helpers import make_corpus, with_random_times

PY = sys.executable


def write_yuv(path, frames):
    with open(path, "wb") as fh:
        for luma in frames:
            h, w = luma.shape
            fh.write(luma.astype(np.uint8).tobytes())
            fh.write(bytes([128]) * (w * h // 2))


@pytest.fixture
def corpus_files(tmp_path):
    """Features + full times CSVs for a 2-clip corpus (x264 only, 24 tasks)."""
    corpus = with_random_times(make_corpus(n_clips=2, encoders=("x264",)),
                               np.random.default_rng(0))
    features = tmp_path / "features.csv"
    times = tmp_path / "times.csv"
    save_features_csv(features, corpus.clips)
    save_times_csv(times, corpus.times)
    return corpus, features, times


def partial_times(tmp_path, corpus, n, seconds=2.0):
    path = tmp_path / f"partial{n}.csv"
    records = {t.task_id: TimeRecord(t.task_id, seconds)
               for t in corpus.tasks[:n]}
    save_times_csv(path, records)
    return path


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["ingest", "--nope"],
        ["cluster"],
        ["predict", "--features", "x", "--system", "QQ"],
        ["predict", "--features", "x", "--system", "BP", "--cascade"],
        ["simulate", "--synthetic"],
    ])
    def test_usage_problems_exit_64(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 64

    @pytest.mark.parametrize("cmd", [None, "ingest", "analyze", "cluster",
                                     "encode", "simulate", "predict", "report"])
    def test_help_exits_zero(self, cmd, capsys):
        argv = ["--help"] if cmd is None else [cmd, "--help"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_console_script_installed(self):
        proc = subprocess.run(["corpus-eta", "--help"], capture_output=True)
        assert proc.returncode == 0
        assert b"corpus-eta" in proc.stdout


class TestIngest:
    def test_reports_corpus_shape(self, corpus_files, capsys):
        _, features, times = corpus_files
        rc = main(["ingest", "--features", str(features), "--times", str(times),
                   "--encoders", "x264"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clips: 2" in out
        assert "tasks: 24" in out
        assert "completed: 24 (c=1.0000)" in out

    def test_writes_normalized_corpus(self, corpus_files, tmp_path, capsys):
        _, features, times = corpus_files
        out_dir = tmp_path / "normalized"
        rc = main(["ingest", "--features", str(features), "--times", str(times),
                   "--encoders", "x264", "--out-dir", str(out_dir)])
        assert rc == 0
        assert len(load_features_csv(out_dir / "features.csv")) == 2
        assert len(load_times_csv(out_dir / "times.csv")) == 24
        assert (out_dir / "tasks.csv").exists()

    def test_missing_features_file_exits_1(self, tmp_path, capsys):
        rc = main(["ingest", "--features", str(tmp_path / "none.csv")])
        assert rc == 1
        assert "corpus-eta: error:" in capsys.readouterr().err


class TestAnalyze:
    def test_gray_clip_features(self, tmp_path, capsys):
        yuv = tmp_path / "gray.yuv"
        write_yuv(yuv, [np.full((64, 64), 128, dtype=np.uint8)] * 2)
        rc = main(["analyze", "--yuv", str(yuv), "--width", "64", "--height", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "frames: 2" in out  # inferred from the file size
        assert "E: 0.0" in out
        assert "h: 0.0" in out
        assert "luma: 128.0" in out

    def test_truncated_file_exits_1(self, tmp_path, capsys):
        yuv = tmp_path / "bad.yuv"
        yuv.write_bytes(b"\x00" * 100)
        rc = main(["analyze", "--yuv", str(yuv), "--width", "64", "--height", "64"])
        assert rc == 1
        assert "whole number" in capsys.readouterr().err

    def test_frames_out(self, tmp_path):
        yuv = tmp_path / "gray.yuv"
        write_yuv(yuv, [np.full((32, 32), 50, dtype=np.uint8)] * 3)
        frames_csv = tmp_path / "frames.csv"
        rc = main(["analyze", "--yuv", str(yuv), "--width", "32", "--height", "32",
                   "--frames-out", str(frames_csv)])
        assert rc == 0
        lines = frames_csv.read_text().splitlines()
        assert lines[0] == "frame_index,E,h,luma"
        assert len(lines) == 4

    def test_features_out_and_append(self, tmp_path, capsys):
        yuv = tmp_path / "clip.yuv"
        write_yuv(yuv, [np.full((32, 32), 90, dtype=np.uint8)] * 2)
        features = tmp_path / "features.csv"
        base = ["analyze", "--yuv", str(yuv), "--width", "32", "--height", "32",
                "--features-out", str(features)]
        assert main(base + ["--clip-id", "a"]) == 0
        assert main(base + ["--clip-id", "b", "--append"]) == 0
        clips = load_features_csv(features)
        assert [c.clip_id for c in clips] == ["a", "b"]
        assert clips[0].luma == 90.0
        rc = main(base + ["--clip-id", "a", "--append"])
        assert rc == 1
        assert "already present" in capsys.readouterr().err

    def test_features_out_requires_clip_id(self, tmp_path, capsys):
        yuv = tmp_path / "clip.yuv"
        write_yuv(yuv, [np.full((32, 32), 90, dtype=np.uint8)])
        rc = main(["analyze", "--yuv", str(yuv), "--width", "32", "--height", "32",
                   "--features-out", str(tmp_path / "f.csv")])
        assert rc == 1
        assert "--clip-id" in capsys.readouterr().err


class TestCluster:
    def test_writes_labels_and_centroids(self, tmp_path, capsys):
        clips = make_corpus(n_clips=5).clips
        features = tmp_path / "features.csv"
        save_features_csv(features, clips)
        out = tmp_path / "clusters.csv"
        centroids = tmp_path / "centroids.csv"
        rc = main(["cluster", "--features", str(features), "--k", "2",
                   "--out", str(out), "--centroids-out", str(centroids)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "clip_id,cluster"
        assert len(out.read_text().splitlines()) == 6
        assert centroids.read_text().splitlines()[0].startswith("cluster,height")
        stdout = capsys.readouterr().out
        assert "k: 2" in stdout
        assert "sse:" in stdout

    def test_k_above_clip_count_exits_1(self, tmp_path, capsys):
        clips = make_corpus(n_clips=2).clips
        features = tmp_path / "features.csv"
        save_features_csv(features, clips)
        rc = main(["cluster", "--features", str(features), "--k", "5",
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 1
        assert "exceeds the number of points" in capsys.readouterr().err


class TestEncode:
    def setup_inputs(self, tmp_path, corpus):
        input_dir = tmp_path / "inputs"
        input_dir.mkdir()
        for clip in corpus.clips:
            (input_dir / f"{clip.clip_id}.yuv").write_bytes(b"\x00")
        return input_dir

    def test_full_batch(self, tmp_path, capsys):
        corpus = make_corpus(n_clips=2, encoders=("x264",),
                             presets=("medium",), cqps=(22, 27))
        features = tmp_path / "features.csv"
        save_features_csv(features, corpus.clips)
        input_dir = self.setup_inputs(tmp_path, corpus)
        times = tmp_path / "times.csv"
        argv = ["encode", "--features", str(features), "--encoders", "x264",
                "--input-dir", str(input_dir), "--template", "true",
                "--out", str(times), "--scratch", str(tmp_path / "scratch")]
        # the features-only corpus expands ALL presets/cqps: 12 tasks
        rc = main(argv)
        assert rc == 0
        out = capsys.readouterr().out
        assert "requested: 24" in out
        assert "succeeded: 24" in out
        assert len(load_times_csv(times)) == 24

        rc = main(argv)  # refuse to touch an existing measurement file
        assert rc == 1
        assert "--resume" in capsys.readouterr().err

        rc = main(argv + ["--resume"])
        assert rc == 0
        assert "skipped (already measured): 24" in capsys.readouterr().out

    def test_failures_exit_2(self, tmp_path, capsys):
        corpus = make_corpus(n_clips=1, encoders=("x264",),
                             presets=("medium",), cqps=(22,))
        features = tmp_path / "features.csv"
        save_features_csv(features, corpus.clips)
        input_dir = self.setup_inputs(tmp_path, corpus)
        rc = main(["encode", "--features", str(features), "--encoders", "x264",
                   "--input-dir", str(input_dir), "--template", "false",
                   "--out", str(tmp_path / "times.csv"),
                   "--scratch", str(tmp_path / "scratch")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "failed tasks:" in err
        assert (tmp_path / "times.csv.failures.csv").exists()


SIM_BASE = ["simulate", "--synthetic", "--n-clips", "4", "--num-groups", "2",
            "--systems", "BP", "CP", "--realisations", "2",
            "--c-grid", "0.25", "0.5", "--k", "2", "--trees", "5",
            "--depth", "2", "--seed", "3"]


class TestSimulate:
    def test_synthetic_report_rows(self, tmp_path):
        report = tmp_path / "report.csv"
        rc = main(SIM_BASE + ["--report-out", str(report)])
        assert rc == 0
        rows = load_report_csv(report)
        assert [(r.system, r.c) for r in rows] == \
            [("BP", 0.25), ("BP", 0.5), ("CP", 0.25), ("CP", 0.5)]

    def test_fixed_seeds_reproduce_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(SIM_BASE + ["--report-out", str(a)]) == 0
        assert main(SIM_BASE + ["--report-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_comma_separated_systems(self, tmp_path):
        report = tmp_path / "report.csv"
        argv = [a for a in SIM_BASE if a not in ("BP", "CP")]
        argv[argv.index("--systems") + 1:argv.index("--systems") + 1] = ["BP,CP"]
        rc = main(argv + ["--report-out", str(report)])
        assert rc == 0
        assert {r.system for r in load_report_csv(report)} == {"BP", "CP"}

    def test_realisations_and_corpus_out(self, tmp_path):
        report = tmp_path / "report.csv"
        reals = tmp_path / "reals.csv"
        corpus_dir = tmp_path / "corpus"
        rc = main(SIM_BASE + ["--report-out", str(report),
                              "--realisations-out", str(reals),
                              "--corpus-out", str(corpus_dir)])
        assert rc == 0
        lines = reals.read_text().splitlines()
        assert lines[0] == "system,seed,c,mape,r2,sape,n"
        assert len(lines) == 1 + 2 * 2 * 2  # systems x realisations x grid
        assert (corpus_dir / "features.csv").exists()
        assert (corpus_dir / "times.csv").exists()

    def test_measured_corpus(self, corpus_files, tmp_path):
        _, features, times = corpus_files
        report = tmp_path / "report.csv"
        rc = main(["simulate", "--features", str(features), "--times", str(times),
                   "--encoders", "x264", "--systems", "BP", "--realisations", "2",
                   "--c-grid", "0.5", "--report-out", str(report)])
        assert rc == 0
        assert len(load_report_csv(report)) == 1

    def test_measured_corpus_needs_times(self, corpus_files, tmp_path, capsys):
        _, features, _ = corpus_files
        rc = main(["simulate", "--features", str(features),
                   "--systems", "BP", "--report-out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "pass --synthetic" in capsys.readouterr().err

    def test_gxp_needs_test_groups(self, tmp_path, capsys):
        rc = main(["simulate", "--synthetic", "--n-clips", "4",
                   "--systems", "GXP", "--report-out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "held-out source group" in capsys.readouterr().err


class TestPredict:
    def run_json(self, argv, capsys):
        rc = main(argv)
        out = capsys.readouterr().out.strip().splitlines()
        return rc, json.loads(out[-1])

    def test_bp_hand_value(self, corpus_files, tmp_path, capsys):
        corpus, features, _ = corpus_files
        times = partial_times(tmp_path, corpus, 3, seconds=2.0)
        rc, doc = self.run_json(["predict", "--features", str(features),
                                 "--times", str(times), "--encoders", "x264",
                                 "--system", "BP"], capsys)
        assert rc == 0
        assert doc["system"] == "BP"
        assert doc["total_tasks"] == 24
        assert doc["completed"] == 3
        assert doc["remaining"] == 21
        assert doc["c"] == 0.125
        assert doc["T_hat_seconds"] == 42.0
        assert doc["T_hat_hms"] == "0:00:42"
        assert doc["mean_completed_seconds"] == 2.0

    def test_bp_at_zero_completion_exits_1(self, corpus_files, capsys):
        _, features, _ = corpus_files
        rc = main(["predict", "--features", str(features), "--encoders", "x264",
                   "--system", "BP"])
        assert rc == 1
        assert "BP undefined at c=0" in capsys.readouterr().err

    def test_cascade_picks_cxp_at_low_completion(self, corpus_files, tmp_path, capsys):
        corpus, features, _ = corpus_files
        times = partial_times(tmp_path, corpus, 1)  # c = 1/24
        rc, doc = self.run_json(["predict", "--features", str(features),
                                 "--times", str(times), "--encoders", "x264",
                                 "--cascade", "--trees", "5"], capsys)
        assert rc == 0
        assert doc["system"] == "CXP"

    def test_cascade_picks_cp_later(self, corpus_files, tmp_path, capsys):
        corpus, features, _ = corpus_files
        times = partial_times(tmp_path, corpus, 6)  # c = 0.25
        rc, doc = self.run_json(["predict", "--features", str(features),
                                 "--times", str(times), "--encoders", "x264",
                                 "--cascade", "--k", "2"], capsys)
        assert rc == 0
        assert doc["system"] == "CP"

    def test_cascade_at_zero_needs_model(self, corpus_files, capsys):
        _, features, _ = corpus_files
        rc = main(["predict", "--features", str(features), "--encoders", "x264",
                   "--cascade"])
        assert rc == 1
        assert "model trained elsewhere" in capsys.readouterr().err

    def test_model_roundtrip_through_files(self, corpus_files, tmp_path, capsys):
        corpus, features, _ = corpus_files
        times = partial_times(tmp_path, corpus, 6)
        model_path = tmp_path / "model.json"
        rc, doc_trained = self.run_json(
            ["predict", "--features", str(features), "--times", str(times),
             "--encoders", "x264", "--system", "XP", "--trees", "5",
             "--model-out", str(model_path)], capsys)
        assert rc == 0
        assert model_path.exists()
        rc, doc_loaded = self.run_json(
            ["predict", "--features", str(features), "--times", str(times),
             "--encoders", "x264", "--system", "XP",
             "--model-in", str(model_path)], capsys)
        assert rc == 0
        assert doc_loaded["T_hat_seconds"] == doc_trained["T_hat_seconds"]
        rc, doc_gxp = self.run_json(
            ["predict", "--features", str(features), "--times", str(times),
             "--encoders", "x264", "--system", "GXP",
             "--model-in", str(model_path)], capsys)
        assert rc == 0
        assert doc_gxp["system"] == "GXP"

    def test_per_task_out(self, corpus_files, tmp_path, capsys):
        corpus, features, _ = corpus_files
        times = partial_times(tmp_path, corpus, 3)
        per_task = tmp_path / "per_task.csv"
        rc = main(["predict", "--features", str(features), "--times", str(times),
                   "--encoders", "x264", "--system", "BP",
                   "--per-task-out", str(per_task)])
        assert rc == 0
        lines = per_task.read_text().splitlines()
        assert lines[0] == "task_id,predicted_seconds"
        ids = [line.split(",")[0] for line in lines[1:]]
        assert len(ids) == 21
        assert ids == sorted(ids)

    def test_nothing_left_to_predict_exits_1(self, corpus_files, capsys):
        _, features, times = corpus_files
        rc = main(["predict", "--features", str(features), "--times", str(times),
                   "--encoders", "x264", "--system", "BP"])
        assert rc == 1
        assert "nothing to predict" in capsys.readouterr().err


class TestReport:
    @pytest.fixture
    def report_path(self, tmp_path):
        report = tmp_path / "report.csv"
        assert main(SIM_BASE + ["--report-out", str(report)]) == 0
        return report

    def test_table(self, report_path, capsys):
        rc = main(["report", "--report", str(report_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["system", "c", "MAPE%", "R2", "SAPE%"]
        assert len(lines) == 5

    def test_filters(self, report_path, capsys):
        rc = main(["report", "--report", str(report_path),
                   "--system", "BP", "--c", "0.5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("BP")

    def test_json(self, report_path, capsys):
        rc = main(["report", "--report", str(report_path), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 4
        assert all(row["system"] in {"BP", "CP"} for row in doc)

    def test_no_matching_rows_exits_1(self, report_path, capsys):
        rc = main(["report", "--report", str(report_path), "--c", "0.77"])
        assert rc == 1
        assert "no report rows match" in capsys.readouterr().err

    def test_missing_report_exits_1(self, tmp_path, capsys):
        rc = main(["report", "--report", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "cannot read report" in capsys.readouterr().err
