"""Monte-Carlo evaluation harness: generation, realizations, sweeps, reports."""

import math
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from corpus_eta import harness
from corpus_eta.clustering import ClusterAssignment, cluster_clips
from corpus_eta.errors import ValidationError
from corpus_eta.gbrt import GbrtParams, feature_matrix
from corpus_eta.harness import (DEFAULT_C_GRID, REALISATIONS_HEADER,
                                REPORT_HEADER, SweepConfig, SynthSpec,
                                default_time_law, load_report_csv, monte_carlo,
                                report_rows, run_realization, synth_corpus,
                                write_realisations_csv, write_report_csv)
from corpus_eta.metrics import MetricReport

from helpers import make_corpus, with_constant_times, with_random_times

SMALL_GBRT = GbrtParams(num_trees=5, max_depth=2, learning_rate=0.3,
                        min_samples_leaf=2)


def _interrupt_self() -> str:
    try:
        os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.2)   # the handler runs here, if there is one
    except KeyboardInterrupt:
        return "interrupted"
    return "ignored"


def tiny_corpus(n_clips=5, seed=0):
    return with_random_times(make_corpus(n_clips=n_clips, num_groups=2),
                             np.random.default_rng(seed))


class TestTimeLaw:
    def test_hand_computed_value(self):
        row = np.array([[720.0, 921600.0, 30.0, 300.0, 50.0, 5.0, 100.0, 1.0, 27.0]])
        expected = (-13.0 + math.log(921600.0) + 0.9 * math.log(300.0)
                    + 0.12 * math.log1p(50.0) + 0.08 * math.log1p(5.0)
                    + 1.15 * 1.0 - 0.035 * 27.0)
        assert default_time_law(row)[0] == pytest.approx(expected, rel=1e-12)

    def test_slower_presets_cost_more(self):
        base = np.array([[720.0, 921600.0, 30.0, 300.0, 50.0, 5.0, 100.0, 0.0, 27.0]])
        slow = base.copy()
        slow[0, 7] = 2.0
        assert default_time_law(slow)[0] > default_time_law(base)[0]

    def test_higher_cqp_costs_less(self):
        base = np.array([[720.0, 921600.0, 30.0, 300.0, 50.0, 5.0, 100.0, 1.0, 22.0]])
        coarse = base.copy()
        coarse[0, 8] = 37.0
        assert default_time_law(coarse)[0] < default_time_law(base)[0]

    def test_more_pixels_cost_more(self):
        base = np.array([[540.0, 518400.0, 30.0, 300.0, 50.0, 5.0, 100.0, 1.0, 27.0]])
        big = np.array([[2160.0, 8294400.0, 30.0, 300.0, 50.0, 5.0, 100.0, 1.0, 27.0]])
        assert default_time_law(big)[0] > default_time_law(base)[0]


class TestSynthCorpus:
    def test_expected_shape(self):
        corpus = synth_corpus(SynthSpec(n_clips=5), seed=0)
        assert corpus.N == 5 * 1 * 3 * 4
        assert len(corpus.clips) == 5
        assert len(corpus.times) == corpus.N

    def test_seed_determinism(self):
        a = synth_corpus(SynthSpec(n_clips=4), seed=3)
        b = synth_corpus(SynthSpec(n_clips=4), seed=3)
        assert a.clips == b.clips
        assert all(a.times[t.task_id].seconds == b.times[t.task_id].seconds
                   for t in a.tasks)
        c = synth_corpus(SynthSpec(n_clips=4), seed=4)
        assert any(a.times[t.task_id].seconds != c.times[t.task_id].seconds
                   for t in a.tasks)

    def test_groups_assigned_round_robin(self):
        corpus = synth_corpus(SynthSpec(n_clips=7, num_groups=3), seed=0)
        groups = [c.source_group for c in corpus.clips]
        assert groups == ["group0", "group1", "group2"] * 2 + ["group0"]

    def test_clip_geometry_from_known_menus(self):
        corpus = synth_corpus(SynthSpec(n_clips=20), seed=1)
        menu = {(960, 540), (1280, 720), (1920, 1080), (3840, 2160)}
        for clip in corpus.clips:
            assert (clip.width, clip.height) in menu
            fps = int(clip.framerate)
            assert fps in (24, 25, 30, 50, 60)
            assert clip.num_frames in (2 * fps, 4 * fps)

    def test_zero_noise_times_follow_the_law_exactly(self):
        corpus = synth_corpus(SynthSpec(n_clips=3, sigma=0.0), seed=5)
        ids = [t.task_id for t in corpus.tasks]
        expected = np.exp(default_time_law(feature_matrix(corpus, ids)))
        got = np.array([corpus.times[tid].seconds for tid in ids])
        assert np.array_equal(got, expected)

    def test_custom_law_used(self):
        spec = SynthSpec(n_clips=2, sigma=0.0,
                         law=lambda X: np.full(X.shape[0], math.log(7.0)))
        corpus = synth_corpus(spec, seed=0)
        for record in corpus.times.values():
            assert record.seconds == pytest.approx(7.0, rel=1e-12)

    def test_misshapen_law_rejected(self):
        spec = SynthSpec(n_clips=2, law=lambda X: np.zeros(3))
        with pytest.raises(ValidationError, match="one log-second value per task"):
            synth_corpus(spec, seed=0)

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(n_clips=0), "n_clips"),
        (dict(sigma=-0.1), "sigma"),
        (dict(num_groups=0), "num_groups"),
    ])
    def test_bad_spec_rejected(self, kwargs, msg):
        with pytest.raises(ValidationError, match=msg):
            SynthSpec(**kwargs)


class TestRunRealization:
    def test_constant_corpus_scores_perfectly_under_bp(self):
        corpus = with_constant_times(make_corpus(n_clips=3), 4.0)
        res = run_realization(corpus, "BP", seed=0, c_grid=(0.25, 0.5))
        for c, rep in res.per_c.items():
            assert rep.sape == 0.0
            assert rep.mape == 0.0
            assert math.isnan(rep.r2)

    def test_remaining_count_uses_floor(self):
        corpus = tiny_corpus(n_clips=5)  # 60 tasks
        res = run_realization(corpus, "BP", seed=1, c_grid=(0.2, 0.33))
        assert res.per_c[0.2].n == 60 - 12
        assert res.per_c[0.33].n == 60 - math.floor(0.33 * 60)

    def test_zero_completed_rejected_for_online_systems(self):
        corpus = tiny_corpus(n_clips=2)  # 24 tasks
        with pytest.raises(ValidationError, match="needs at least one"):
            run_realization(corpus, "BP", seed=0, c_grid=(0.01,))

    def test_full_completion_rejected(self):
        corpus = tiny_corpus(n_clips=2)
        with pytest.raises(ValidationError, match="leaves nothing to predict"):
            run_realization(corpus, "BP", seed=0, c_grid=(1.0,))

    def test_same_seed_reproduces_metrics(self):
        corpus = tiny_corpus(n_clips=4)
        a = run_realization(corpus, "BP", seed=5, c_grid=(0.25, 0.5))
        b = run_realization(corpus, "BP", seed=5, c_grid=(0.25, 0.5))
        assert a == b
        c = run_realization(corpus, "BP", seed=6, c_grid=(0.25, 0.5))
        assert c.per_c[0.25].mape != a.per_c[0.25].mape

    def test_bp_matches_direct_recomputation(self):
        corpus = tiny_corpus(n_clips=3)  # 36 tasks
        res = run_realization(corpus, "BP", seed=7, c_grid=(0.5,))
        ids = [t.task_id for t in corpus.tasks]
        order = [ids[i] for i in np.random.default_rng(7).permutation(len(ids))]
        times = [corpus.times[tid].seconds for tid in order]
        done, left = times[:18], times[18:]
        t_bar = math.fsum(done) / 18
        expected_sape = abs(math.fsum(left) - 18 * t_bar) / math.fsum(left) * 100.0
        assert res.per_c[0.5].sape == pytest.approx(expected_sape, rel=1e-12)
        expected_mape = math.fsum(abs(a - t_bar) / a for a in left) / 18 * 100.0
        assert res.per_c[0.5].mape == pytest.approx(expected_mape, rel=1e-12)

    def test_cp_needs_assignment(self):
        corpus = tiny_corpus(n_clips=2)
        with pytest.raises(ValidationError, match="needs a cluster assignment"):
            run_realization(corpus, "CP", seed=0, c_grid=(0.5,))

    def test_cp_and_cxp_run_with_clusters(self):
        corpus = tiny_corpus(n_clips=4)
        assignment = cluster_clips(corpus.clips, k=2, seed=0)
        for system in ("CP", "CXP"):
            res = run_realization(corpus, system, seed=2, c_grid=(0.25,),
                                  assignment=assignment, model=SMALL_GBRT)
            assert res.system == system
            assert res.per_c[0.25].n == 36

    def test_xp_runs_and_improves_with_information(self):
        corpus = synth_corpus(SynthSpec(n_clips=10, sigma=0.0), seed=8)
        res = run_realization(corpus, "XP", seed=3, c_grid=(0.05, 0.6),
                              model=GbrtParams(num_trees=30, max_depth=3,
                                               learning_rate=0.2, min_samples_leaf=2))
        assert res.per_c[0.6].mape < res.per_c[0.05].mape

    def test_gxp_scores_only_held_out_tasks(self):
        corpus = tiny_corpus(n_clips=6)
        from corpus_eta.gbrt import train
        from corpus_eta.predictors import gxp_train_split
        split = gxp_train_split(corpus, ["g1"])
        model = train(split.train_rows, split.train_targets, SMALL_GBRT)
        res = run_realization(corpus, "GXP", seed=0, c_grid=(0.0, 0.5),
                              model=model, gxp_test_ids=split.test_ids)
        n_test = len(split.test_ids)
        assert res.per_c[0.0].n == n_test
        assert res.per_c[0.5].n == n_test - n_test // 2

    def test_gxp_needs_model_and_ids(self):
        corpus = tiny_corpus(n_clips=2)
        with pytest.raises(ValidationError, match="held-out task ids"):
            run_realization(corpus, "GXP", seed=0, c_grid=(0.5,))
        ids = [t.task_id for t in corpus.tasks]
        with pytest.raises(ValidationError, match="GXP needs a trained model"):
            run_realization(corpus, "GXP", seed=0, c_grid=(0.5,), gxp_test_ids=ids)

    def test_unknown_system_rejected(self):
        corpus = tiny_corpus(n_clips=2)
        with pytest.raises(ValidationError, match="unknown system"):
            run_realization(corpus, "QP", seed=0, c_grid=(0.5,))

    def test_parallel_models_match_serial(self):
        # k-means and the GXP fit run as the first pool jobs, and their
        # assignment and model travel inside the realisation jobs queued
        # after them; with one worker the same jobs run in this process
        corpus = tiny_corpus(n_clips=6)
        base = dict(systems=("BP", "CP", "XP", "CXP", "GXP"), num_realisations=2,
                    c_grid=(0.25, 0.5), k=2, gbrt=SMALL_GBRT, test_groups=("g1",))
        serial = monte_carlo(corpus, SweepConfig(jobs=1, **base))
        assert [(r.system, r.seed) for r in serial.realisations] == \
            [(s, seed) for s in base["systems"] for seed in (0, 1)]
        for jobs in (2, 3):
            parallel = monte_carlo(corpus, SweepConfig(jobs=jobs, **base))
            assert parallel.realisations == serial.realisations
            assert parallel.mean == serial.mean

    def test_corpus_without_times_rejected(self):
        corpus = make_corpus(n_clips=2)
        with pytest.raises(ValidationError, match="no measured times"):
            run_realization(corpus, "BP", seed=0, c_grid=(0.5,))


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig()
        assert config.systems == ("BP", "CP", "XP", "CXP")
        assert config.c_grid == DEFAULT_C_GRID
        assert len(DEFAULT_C_GRID) == 49
        assert DEFAULT_C_GRID[0] == 0.02
        assert DEFAULT_C_GRID[-1] == 0.98
        assert config.jobs is None

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(systems=()), "no systems"),
        (dict(systems=("BP", "QP")), "unknown system"),
        (dict(systems=("BP", "BP")), "listed twice"),
        (dict(num_realisations=0), "num_realisations"),
        (dict(c_grid=()), "empty completion grid"),
        (dict(c_grid=(0.5, 1.0)), "completion ratios"),
        (dict(c_grid=(-0.1, 0.5)), "completion ratios"),
        (dict(c_grid=(0.5, 0.25)), "strictly increasing"),
        (dict(k=0), "k must be"),
        (dict(jobs=0), "jobs"),
        (dict(systems=("GXP",)), "held-out source group"),
    ])
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValidationError, match=msg):
            SweepConfig(**kwargs)


class TestMonteCarlo:
    def test_mean_is_the_average_of_realisations(self):
        corpus = tiny_corpus(n_clips=4)
        config = SweepConfig(systems=("BP", "CP"), num_realisations=3,
                             c_grid=(0.25, 0.5), k=2, gbrt=SMALL_GBRT)
        result = monte_carlo(corpus, config)
        assert len(result.realisations) == 6
        for s_idx, system in enumerate(config.systems):
            chunk = result.realisations[s_idx * 3:(s_idx + 1) * 3]
            assert [r.system for r in chunk] == [system] * 3
            assert [r.seed for r in chunk] == [0, 1, 2]
            for c in config.c_grid:
                reports = [r.per_c[c] for r in chunk]
                mean = result.mean[(system, c)]
                assert mean.mape == math.fsum(r.mape for r in reports) / 3
                assert mean.sape == math.fsum(r.sape for r in reports) / 3
                assert mean.r2 == math.fsum(r.r2 for r in reports) / 3
                assert mean.n == reports[0].n

    def test_single_realisation_mean_is_identity(self):
        corpus = tiny_corpus(n_clips=3)
        config = SweepConfig(systems=("BP",), num_realisations=1,
                             c_grid=(0.5,))
        result = monte_carlo(corpus, config)
        real = result.realisations[0].per_c[0.5]
        mean = result.mean[("BP", 0.5)]
        assert (mean.mape, mean.r2, mean.sape, mean.n) == \
            (real.mape, real.r2, real.sape, real.n)

    def test_systems_share_ordering_seeds(self):
        corpus = tiny_corpus(n_clips=3)
        config = SweepConfig(systems=("BP", "XP"), num_realisations=2,
                             c_grid=(0.5,), base_seed=11, gbrt=SMALL_GBRT)
        result = monte_carlo(corpus, config)
        assert [r.seed for r in result.realisations] == [11, 12, 11, 12]

    def test_cp_rejects_a_label_outside_k(self):
        corpus = tiny_corpus(n_clips=2)
        a, b = (c.clip_id for c in corpus.clips)
        assignment = ClusterAssignment(k=1, labels={a: 0, b: 3},
                                       centroids=np.zeros((1, 7)), sizes=np.array([1]),
                                       sse_per_iter=(0.0,), n_iter=1)
        config = SweepConfig(systems=("CP",), num_realisations=1, c_grid=(0.5,), k=1,
                             jobs=1)
        with pytest.raises(ValidationError, match="has cluster label 3, outside"):
            monte_carlo(corpus, config, assignment)

    def test_auto_clustering_kicks_in_for_cp(self):
        corpus = tiny_corpus(n_clips=4)
        config = SweepConfig(systems=("CP",), num_realisations=1,
                             c_grid=(0.5,), k=2)
        result = monte_carlo(corpus, config)  # no assignment passed
        assert ("CP", 0.5) in result.mean

    def test_cp_with_an_unlabeled_clip_rejected(self):
        corpus = tiny_corpus(n_clips=4)
        partial = cluster_clips(corpus.clips[:3], k=2, seed=0)
        config = SweepConfig(systems=("CP",), num_realisations=1, c_grid=(0.5,), jobs=1)
        missing = corpus.clips[3].clip_id
        with pytest.raises(ValidationError, match=f"clip '{missing}' has no cluster label"):
            monte_carlo(corpus, config, assignment=partial)

    def test_gxp_flow(self):
        corpus = tiny_corpus(n_clips=6)
        config = SweepConfig(systems=("GXP",), num_realisations=2,
                             c_grid=(0.0, 0.5), gbrt=SMALL_GBRT,
                             test_groups=("g1",))
        result = monte_carlo(corpus, config)
        assert result.mean[("GXP", 0.0)].n == 36

    def test_parallel_execution_matches_serial(self):
        corpus = tiny_corpus(n_clips=4)
        base = dict(systems=("BP", "CP"), num_realisations=2,
                    c_grid=(0.25, 0.5), k=2, gbrt=SMALL_GBRT)
        serial = monte_carlo(corpus, SweepConfig(jobs=1, **base))
        parallel = monte_carlo(corpus, SweepConfig(jobs=2, **base))
        assert serial.mean == parallel.mean
        assert serial.realisations == parallel.realisations

    def test_worker_count_is_usable_cpus_capped_at_jobs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [harness._worker_count(None, n) for n in (1, 2, 3, 10)] == [1, 2, 3, 3]
        assert [harness._worker_count(2, n) for n in (1, 2, 10)] == [1, 2, 2]

    def test_worker_count_without_cpu_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert harness._worker_count(None, 10) == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._worker_count(None, 10) == 1

    def test_workers_ignore_ctrl_c(self):
        # a terminal's Ctrl-C signals every worker too; only the parent acts on it
        with ProcessPoolExecutor(max_workers=1, initializer=harness._init_worker,
                                 initargs=(None,)) as pool:
            assert pool.submit(_interrupt_self).result(timeout=30) == "ignored"

    def test_parent_runs_neither_kmeans_nor_the_gxp_fit(self, tmp_path, monkeypatch):
        log = tmp_path / "pids"

        def logged(fn):
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{fn.__name__} {os.getpid()}\n")
                return fn(*args, **kwargs)
            return wrapper

        # the workers fork after these patches, so they run the wrappers too
        monkeypatch.setattr(harness, "cluster_clips", logged(harness.cluster_clips))
        monkeypatch.setattr(harness, "train", logged(harness.train))
        corpus = tiny_corpus(n_clips=6)
        config = SweepConfig(systems=("CP", "GXP"), num_realisations=2, c_grid=(0.5,),
                             k=2, gbrt=SMALL_GBRT, test_groups=("g1",), jobs=2)
        monte_carlo(corpus, config)
        calls = [line.split() for line in log.read_text().splitlines()]
        assert sorted(name for name, _ in calls) == ["cluster_clips", "train"]
        assert str(os.getpid()) not in {pid for _, pid in calls}

    def test_kmeans_error_in_a_worker_reaches_the_caller(self):
        corpus = tiny_corpus(n_clips=3)
        config = SweepConfig(systems=("XP", "CP"), num_realisations=2, c_grid=(0.5,),
                             k=4, gbrt=SMALL_GBRT, jobs=2)
        with pytest.raises(ValidationError, match=r"k=4 exceeds the number of points \(3\)"):
            monte_carlo(corpus, config)

    def test_missing_held_out_group_fails_before_any_pool_starts(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a ProcessPoolExecutor was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        corpus = tiny_corpus(n_clips=4)
        config = SweepConfig(systems=("BP", "GXP"), num_realisations=2, c_grid=(0.5,),
                             test_groups=("g7",), jobs=2)
        with pytest.raises(ValidationError, match=r"test groups \['g7'\] not present"):
            monte_carlo(corpus, config)

    def test_single_worker_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a ProcessPoolExecutor was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        corpus = tiny_corpus(n_clips=3)
        base = dict(systems=("BP",), c_grid=(0.5,))
        one_job = monte_carlo(corpus, SweepConfig(num_realisations=1, **base))
        assert len(one_job.realisations) == 1
        serial = monte_carlo(corpus, SweepConfig(num_realisations=2, jobs=1, **base))
        assert len(serial.realisations) == 2
        with pytest.raises(AssertionError, match="ProcessPoolExecutor"):
            monte_carlo(corpus, SweepConfig(num_realisations=2, **base))

    def test_corpus_without_times_rejected(self):
        with pytest.raises(ValidationError, match="no measured times"):
            monte_carlo(make_corpus(n_clips=2), SweepConfig(systems=("BP",),
                                                            c_grid=(0.5,)))


def small_result():
    corpus = tiny_corpus(n_clips=3)
    config = SweepConfig(systems=("BP",), num_realisations=2, c_grid=(0.25, 0.5))
    return monte_carlo(corpus, config)


class TestReports:
    def test_rows_are_system_major(self):
        corpus = tiny_corpus(n_clips=3)
        config = SweepConfig(systems=("CP", "BP"), num_realisations=1,
                             c_grid=(0.25, 0.5), k=2)
        rows = report_rows(monte_carlo(corpus, config))
        assert [(r.system, r.c) for r in rows] == \
            [("CP", 0.25), ("CP", 0.5), ("BP", 0.25), ("BP", 0.5)]

    def test_csv_roundtrip_and_header(self, tmp_path):
        result = small_result()
        path = tmp_path / "report.csv"
        write_report_csv(path, result)
        first_line = path.read_text().splitlines()[0]
        assert first_line == "system,c,mape,r2,sape"
        assert REPORT_HEADER == ["system", "c", "mape", "r2", "sape"]
        loaded = load_report_csv(path)
        assert loaded == report_rows(result)

    def test_csv_bytes_are_stable(self, tmp_path):
        result = small_result()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(a, result)
        write_report_csv(b, result)
        assert a.read_bytes() == b.read_bytes()

    def test_realisations_csv(self, tmp_path):
        result = small_result()
        path = tmp_path / "realisations.csv"
        write_realisations_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(REALISATIONS_HEADER)
        assert lines[0] == "system,seed,c,mape,r2,sape,n,signed_sape"
        assert len(lines) == 1 + 2 * 2  # realisations x grid points
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[5]) == abs(float(cells[7]))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match=r"cannot read .*none\.csv"):
            load_report_csv(tmp_path / "none.csv")

    def test_load_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("system,c,mape\nBP,0.5,1.0\n")
        with pytest.raises(ValidationError, match=r"bad\.csv: expected header"):
            load_report_csv(path)

    def test_load_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("system,c,mape,r2,sape\nBP,0.5,1.0\n")
        with pytest.raises(ValidationError, match=r"bad\.csv, row 2: expected 5 columns"):
            load_report_csv(path)

    def test_load_bad_float(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("system,c,mape,r2,sape\nBP,0.5,abc,0.9,1.0\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_report_csv(path)
