"""Command-line interface: exit codes, flows, and output formats."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from corpus_eta import cli, complexity, harness
from corpus_eta.cli import _gbrt_params, build_parser, main
from corpus_eta.clustering import DEFAULT_K
from corpus_eta.corpus import (TimeRecord, load_features_csv, load_times_csv,
                               save_features_csv, save_times_csv)
from corpus_eta.errors import EncodeError, ValidationError
from corpus_eta.gbrt import GbrtParams
from corpus_eta.harness import SweepConfig, SynthSpec, load_report_csv

from helpers import make_corpus, with_random_times

PY = sys.executable
SRC = str(Path(__file__).resolve().parents[1] / "src")


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
        ["cluster", "--features", "f.csv", "--out", "o.csv", "--config", "c.yaml"],
        ["simulate", "--synthetic", "--report-out", "r.csv", "--config", "c.yaml"],
        ["predict", "--features", "f.csv", "--cascade"],
        ["analyze", "--yuv", "c.yuv", "--width", "32", "--height", "32",
         "--num-frames", "2"],
        ["encode", "--features", "f.csv", "--input-dir", "in", "--template", "true",
         "--out", "t.csv", "--scratch", "s", "--jobs", "2"],
        # numpy's generators take no negative seed
        ["cluster", "--features", "f.csv", "--out", "o.csv", "--seed", "-1"],
        ["simulate", "--synthetic", "--report-out", "r.csv", "--seed", "-3"],
        ["simulate", "--synthetic", "--report-out", "r.csv", "--base-seed", "-3",
         "--jobs", "1"],
        ["simulate", "--synthetic", "--report-out", "r.csv", "--base-seed", "-3",
         "--jobs", "2"],
        ["predict", "--features", "f.csv", "--system", "CP", "--seed", "-1"],
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


class TestFlagDefaults:
    def test_each_default_is_the_library_default(self):
        parser = build_parser()
        sim = parser.parse_args(["simulate", "--synthetic", "--report-out", "r.csv"])
        pred = parser.parse_args(["predict", "--features", "f.csv"])
        clus = parser.parse_args(["cluster", "--features", "f.csv", "--out", "o.csv"])
        sweep, spec = SweepConfig(), SynthSpec()
        assert (tuple(sim.systems), sim.realisations, tuple(sim.c_grid), sim.base_seed,
                sim.k, tuple(sim.test_groups), sim.jobs) == (
            sweep.systems, sweep.num_realisations, sweep.c_grid, sweep.base_seed,
            sweep.k, sweep.test_groups, sweep.jobs)
        assert (sim.n_clips, sim.sigma, sim.num_groups) == (
            spec.n_clips, spec.sigma, spec.num_groups)
        # resolved by the kind of corpus: see TestSimulate's encoder defaults
        assert sim.encoders is None
        assert _gbrt_params(sim) == _gbrt_params(pred) == GbrtParams() == sweep.gbrt
        assert pred.k == clus.k == DEFAULT_K == sweep.k
        assert pred.system is None and pred.config is None


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


def no_frames_read(*args, **kwargs):
    raise ValidationError("frames were read before the arguments were checked")


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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        yuv = tmp_path / "gray.yuv"
        write_yuv(yuv, [np.full((32, 32), 50, dtype=np.uint8)] * 2)
        rc = main(["analyze", "--yuv", str(yuv), "--width", "32", "--height", "32",
                   "--jobs", jobs])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"jobs must be >= 1, got {jobs}" in captured.err
        assert captured.out == ""

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

    def test_features_out_and_append(self, tmp_path, capsys, monkeypatch):
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
        monkeypatch.setattr(complexity, "analyze_yuv", no_frames_read)
        rc = main(base + ["--clip-id", "a", "--append"])
        assert rc == 1
        assert "already present" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--width", "0"], "frame size must be positive, got 0x32"),
        (["--height", "0"], "frame size must be positive, got 32x0"),
        (["--framerate-den", "0"], "framerate must be positive, got 30/0"),
        (["--framerate-num", "-30"], "framerate must be positive, got -30/1"),
    ])
    def test_bad_geometry_or_framerate_exits_1_before_reading(self, flags, message, tmp_path,
                                                              capsys, monkeypatch):
        yuv = tmp_path / "clip.yuv"
        write_yuv(yuv, [np.full((32, 32), 90, dtype=np.uint8)])
        monkeypatch.setattr(complexity, "analyze_yuv", no_frames_read)
        # the last of a repeated flag wins
        rc = main(["analyze", "--yuv", str(yuv), "--width", "32", "--height", "32",
                   "--clip-id", "a", "--features-out", str(tmp_path / "f.csv"), *flags])
        assert rc == 1
        out, err = capsys.readouterr()
        assert message in err and out == ""
        assert not (tmp_path / "f.csv").exists()

    def test_features_out_requires_clip_id(self, tmp_path, capsys, monkeypatch):
        yuv = tmp_path / "clip.yuv"
        write_yuv(yuv, [np.full((32, 32), 90, dtype=np.uint8)])
        monkeypatch.setattr(complexity, "analyze_yuv", no_frames_read)
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

    def test_encode_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise EncodeError("cannot launch the encoder")

        monkeypatch.setattr(cli, "batch_encode", broken)
        corpus = make_corpus(n_clips=1, encoders=("x264",))
        features = tmp_path / "features.csv"
        save_features_csv(features, corpus.clips)
        rc = main(["encode", "--features", str(features), "--encoders", "x264",
                   "--input-dir", str(tmp_path), "--template", "true",
                   "--out", str(tmp_path / "times.csv"),
                   "--scratch", str(tmp_path / "scratch")])
        assert rc == 2
        assert capsys.readouterr().err == "corpus-eta: error: cannot launch the encoder\n"


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
        assert lines[0] == "system,seed,c,mape,r2,sape,n,signed_sape"
        assert len(lines) == 1 + 2 * 2 * 2  # systems x realisations x grid
        assert (corpus_dir / "features.csv").exists()
        assert (corpus_dir / "times.csv").exists()

    def test_default_jobs_match_serial_bytes(self, tmp_path, monkeypatch):
        # two usable CPUs on any machine, so the default takes the pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pools = []
        real_pool = harness.ProcessPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", counted_pool)
        argv = ["simulate", "--synthetic", "--n-clips", "12", "--num-groups", "6",
                "--systems", "BP,CP,XP,CXP,GXP", "--test-groups", "group4", "group5",
                "--realisations", "3", "--c-grid", "0.25", "0.5", "--k", "3",
                "--trees", "5", "--depth", "2", "--seed", "5"]
        outputs = {}
        for name, jobs in (("default", []), ("serial", ["--jobs", "1"])):
            report, reals = tmp_path / f"{name}.csv", tmp_path / f"{name}-reals.csv"
            assert main(argv + jobs + ["--report-out", str(report),
                                       "--realisations-out", str(reals)]) == 0
            outputs[name] = (report.read_bytes(), reals.read_bytes())
        assert pools == [2]
        assert outputs["default"] == outputs["serial"]

    def test_jobs_below_one_exits_1(self, tmp_path, capsys):
        rc = main(SIM_BASE + ["--jobs", "0", "--report-out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--report-out", "--realisations-out"])
    def test_missing_output_directory_exits_1_before_the_sweep(self, tmp_path, capsys,
                                                                monkeypatch, flag):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "monte_carlo", no_sweep)
        outputs = {"--report-out": str(tmp_path / "r.csv"),
                   flag: str(tmp_path / "missing" / "out.csv")}
        rc = main(SIM_BASE + [arg for pair in outputs.items() for arg in pair])
        assert rc == 1
        assert f"{flag}: directory of" in capsys.readouterr().err

    def test_kmeans_error_in_a_worker_exits_1(self, tmp_path, capsys):
        rc = main(SIM_BASE + ["--k", "5", "--jobs", "2",
                              "--report-out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "corpus-eta: error: k=5 exceeds the number of points (4)\n"
        assert not (tmp_path / "r.csv").exists()

    def test_ctrl_c_exits_130_with_one_line(self, tmp_path):
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=SRC + os.pathsep + path if path else SRC)
        argv = [PY, "-m", "corpus_eta.cli", "simulate", "--synthetic", "--n-clips", "60",
                "--systems", "XP", "--realisations", "1000", "--c-grid", "0.5",
                "--trees", "30", "--depth", "6", "--jobs", "2",
                "--corpus-out", str(tmp_path / "corpus"),
                "--report-out", str(tmp_path / "r.csv")]
        # its own process group, which a terminal's Ctrl-C signals as a whole
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, text=True, start_new_session=True)
        try:
            # the corpus is written just before the sweep starts its workers
            assert proc.stdout.readline().startswith("wrote corpus CSVs")
            time.sleep(1.0)
            os.killpg(proc.pid, signal.SIGINT)
            sent = time.monotonic()
            _, err = proc.communicate(timeout=10)
            waited = time.monotonic() - sent
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode == 130
        assert waited < 10
        assert err.splitlines() == ["corpus-eta: interrupted"]
        assert not (tmp_path / "r.csv").exists()

    def test_measured_corpus(self, corpus_files, tmp_path):
        _, features, times = corpus_files
        report = tmp_path / "report.csv"
        rc = main(["simulate", "--features", str(features), "--times", str(times),
                   "--encoders", "x264", "--systems", "BP", "--realisations", "2",
                   "--c-grid", "0.5", "--report-out", str(report)])
        assert rc == 0
        assert len(load_report_csv(report)) == 1

    def test_measured_corpus_defaults_to_the_other_commands_encoders(self, tmp_path):
        corpus = with_random_times(make_corpus(n_clips=2, encoders=("x264", "x265")),
                                   np.random.default_rng(1))
        features, times = tmp_path / "features.csv", tmp_path / "times.csv"
        save_features_csv(features, corpus.clips)
        save_times_csv(times, corpus.times)
        corpus_args = ["--features", str(features), "--times", str(times)]
        assert main(["ingest", *corpus_args]) == 0
        rc = main(["simulate", *corpus_args, "--systems", "BP", "--realisations", "1",
                   "--c-grid", "0.5", "--report-out", str(tmp_path / "r.csv")])
        assert rc == 0

    def test_synthetic_corpus_defaults_to_x264(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        rc = main(SIM_BASE + ["--report-out", str(tmp_path / "r.csv"),
                              "--corpus-out", str(corpus_dir)])
        assert rc == 0
        rows = (corpus_dir / "tasks.csv").read_text().splitlines()[1:]
        assert rows and all(":x264:" in row for row in rows)

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
                                 "--trees", "5"], capsys)
        assert rc == 0
        assert doc["system"] == "CXP"

    def test_cascade_picks_cp_later(self, corpus_files, tmp_path, capsys):
        corpus, features, _ = corpus_files
        times = partial_times(tmp_path, corpus, 6)  # c = 0.25
        rc, doc = self.run_json(["predict", "--features", str(features),
                                 "--times", str(times), "--encoders", "x264",
                                 "--k", "2"], capsys)
        assert rc == 0
        assert doc["system"] == "CP"

    def test_cascade_at_zero_needs_model(self, corpus_files, capsys):
        _, features, _ = corpus_files
        rc = main(["predict", "--features", str(features), "--encoders", "x264"])
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

    def test_infinite_time_exits_1(self, corpus_files, tmp_path, capsys):
        corpus, features, _ = corpus_files
        times = partial_times(tmp_path, corpus, 3)
        with open(times, "a", encoding="utf-8") as fh:
            fh.write(f"{corpus.tasks[3].task_id},inf\n")
        rc = main(["predict", "--features", str(features), "--times", str(times),
                   "--encoders", "x264", "--system", "BP"])
        assert rc == 1
        assert "seconds must be finite" in capsys.readouterr().err

    def test_infinite_feature_exits_1(self, corpus_files, tmp_path, capsys):
        corpus, features, _ = corpus_files
        times = partial_times(tmp_path, corpus, 6)
        model_path = tmp_path / "model.json"
        assert main(["predict", "--features", str(features), "--times", str(times),
                     "--encoders", "x264", "--system", "XP", "--trees", "5",
                     "--model-out", str(model_path)]) == 0
        header, *rows = features.read_text().splitlines()
        cells = rows[1].split(",")
        cells[header.split(",").index("E")] = "inf"
        rows[1] = ",".join(cells)
        features.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        rc = main(["predict", "--features", str(features), "--encoders", "x264",
                   "--system", "GXP", "--model-in", str(model_path)])
        assert rc == 1
        assert "E must be finite" in capsys.readouterr().err

    def test_model_out_records_the_stages(self, corpus_files, tmp_path, capsys):
        corpus, features, _ = corpus_files
        times = partial_times(tmp_path, corpus, 6)  # boundaries 1, 2, 4 of 24 tasks
        model_path = tmp_path / "model.json"
        assert main(["predict", "--features", str(features), "--times", str(times),
                     "--encoders", "x264", "--system", "XP", "--trees", "6",
                     "--model-out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        assert doc["version"] == 2
        assert doc["stages"] == [6, 1, 1, 1]
        assert len(doc["trees"]) == 9

    @pytest.mark.parametrize("stages", [[], [5, 0], [4]])
    def test_bad_stage_list_exits_1(self, corpus_files, tmp_path, capsys, stages):
        corpus, features, _ = corpus_files
        times = partial_times(tmp_path, corpus, 1)
        model_path = tmp_path / "model.json"
        assert main(["predict", "--features", str(features), "--times", str(times),
                     "--encoders", "x264", "--system", "XP", "--trees", "5",
                     "--model-out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        assert doc["stages"] == [5]
        doc["stages"] = stages
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["predict", "--features", str(features), "--encoders", "x264",
                   "--system", "GXP", "--model-in", str(model_path)])
        assert rc == 1
        assert "stage" in capsys.readouterr().err

    def test_reordered_times_keep_order_free_outputs(self, tmp_path, capsys):
        """BP, CP and GXP ignore the completion order, and so does XP up to the
        first stage boundary (ceil(240/50) = 5 tasks)."""
        corpus = with_random_times(make_corpus(n_clips=20, encoders=("x264",),
                                               rng=np.random.default_rng(3)),
                                   np.random.default_rng(4))
        features = tmp_path / "features.csv"
        save_features_csv(features, corpus.clips)
        model_path = tmp_path / "model.json"
        ids = [t.task_id for t in corpus.tasks]
        rng = np.random.default_rng(9)
        # the XP calls write the model GXP then reads
        for system, n in (("XP", 4), ("XP", 5), ("BP", 60), ("CP", 60), ("GXP", 60)):
            done = [ids[i] for i in rng.permutation(len(ids))[:n]]
            outputs = []
            for k, order in enumerate((done, done[::-1], sorted(done))):
                times = tmp_path / f"times{k}.csv"
                save_times_csv(times, {t: corpus.times[t] for t in order})
                per_task = tmp_path / f"per_task{k}.csv"
                argv = ["predict", "--features", str(features), "--times", str(times),
                        "--encoders", "x264", "--system", system, "--k", "3",
                        "--trees", "6", "--per-task-out", str(per_task)]
                if system == "GXP":
                    argv += ["--model-in", str(model_path)]
                elif system == "XP":
                    argv += ["--model-out", str(model_path)]
                assert main(argv) == 0
                outputs.append((capsys.readouterr().out, per_task.read_bytes(),
                                model_path.read_bytes() if system == "XP" else None))
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0], (system, n)

    def test_nothing_left_to_predict_exits_1(self, corpus_files, capsys):
        _, features, times = corpus_files
        rc = main(["predict", "--features", str(features), "--times", str(times),
                   "--encoders", "x264", "--system", "BP"])
        assert rc == 1
        assert "nothing to predict" in capsys.readouterr().err

    def test_nothing_left_to_predict_under_the_cascade_exits_1(self, corpus_files, capsys):
        _, features, times = corpus_files
        rc = main(["predict", "--features", str(features), "--times", str(times),
                   "--encoders", "x264"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "corpus-eta: error: every task already has a measured time; nothing to predict\n")


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
        err = capsys.readouterr().err
        assert "cannot read" in err and "nope.csv" in err


class TestChainedPredictMatchesSweep:
    """Separate ``predict`` calls on a growing ``times.csv`` grade exactly like
    one sweep realisation, which reuses its stages from one c-point to the next."""

    GRID = (0.05, 0.1, 0.25, 0.5)

    @pytest.mark.parametrize("system", ["XP", "CXP"])
    def test_each_c_scores_the_sweep_metrics(self, system, tmp_path):
        from corpus_eta.clustering import cluster_clips
        from corpus_eta.gbrt import GbrtParams
        from corpus_eta.metrics import evaluate
        from corpus_eta.predictors import cxp_order

        corpus = harness.synth_corpus(harness.SynthSpec(n_clips=18, num_groups=3), seed=5)
        seed = 11
        assignment = cluster_clips(corpus.clips, k=3, seed=seed)
        params = GbrtParams(num_trees=8, max_depth=3, learning_rate=0.3, min_samples_leaf=2)
        graded = harness.run_realization(corpus, system, seed, self.GRID,
                                         assignment=assignment, model=params).per_c
        if system == "CXP":
            order = cxp_order(corpus, assignment, seed)
        else:
            ids = [t.task_id for t in corpus.tasks]
            order = [ids[i] for i in np.random.default_rng(seed).permutation(len(ids))]
        features = tmp_path / "features.csv"
        save_features_csv(features, corpus.clips)
        for c in self.GRID:
            n = int(c * len(order))
            times = tmp_path / "times.csv"
            save_times_csv(times, {t: corpus.times[t] for t in order[:n]})
            per_task = tmp_path / "per_task.csv"
            assert main(["predict", "--features", str(features), "--times", str(times),
                         "--encoders", "x264", "--system", system,
                         "--trees", "8", "--depth", "3", "--learning-rate", "0.3",
                         "--min-leaf", "2", "--per-task-out", str(per_task)]) == 0
            shipped = dict(line.split(",") for line in per_task.read_text().splitlines()[1:])
            report = evaluate([corpus.times[t].seconds for t in order[n:]],
                              [float(shipped[t]) for t in order[n:]])
            assert report == graded[c], c
