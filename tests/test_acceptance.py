"""Acceptance gate: every shipped guarantee checked end to end.

Each test covers one numbered guarantee and prints a single
``ACCEPTANCE PASS``/``ACCEPTANCE FAIL`` line so a run of this file doubles
as a checklist. Oracles here are written from scratch (plain loops,
math.fsum) so they cannot share bugs with the library code they check.
"""

import contextlib
import math
import sys
import time
from collections import Counter

import numpy as np
import pytest

from corpus_eta.cli import main as cli_main
from corpus_eta.clustering import kmeans
from corpus_eta.complexity import analyze_yuv, block_dct_energy
from corpus_eta.corpus import load_times_csv
from corpus_eta.gbrt import GbrtParams, predict, train
from corpus_eta.harness import (SweepConfig, SynthSpec, monte_carlo,
                                report_rows, synth_corpus)
from corpus_eta.metrics import mape, r2, sape
from corpus_eta.predictors import (DEFAULT_CASCADE, bp_predict, cascade_select,
                                   cp_predict, xp_predict)
from corpus_eta.runner import CommandTemplate, batch_encode, run_encode

from helpers import make_corpus


@contextlib.contextmanager
def criterion(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE FAIL [{label}]")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE PASS [{label}]")


def close(got, want, tol):
    return abs(got - want) <= tol * max(abs(got), abs(want))


def walk_tree(tree, x):
    node = 0
    while tree.feature[node] != -1:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return float(tree.value[node])


def walk_model(model, x):
    out = model.base_score
    for tree in model.trees:
        out += model.params.learning_rate * walk_tree(tree, x)
    return out


def test_01_oracle_equivalence(capsys):
    label = ("1 predictor totals and metrics match brute-force references "
             "(1000 instances, rel 1e-12, <10 s)")
    with criterion(capsys, label):
        t0 = time.perf_counter()
        for i in range(1000):
            rng = np.random.default_rng(5000 + i)
            total = int(rng.integers(4, 28))
            n_done = int(rng.integers(1, total - 1))
            times = rng.uniform(0.3, 25.0, size=total)
            completed = times[:n_done]
            actual_rest = times[n_done:]
            scale = 1.0 - n_done / total

            t_bar = math.fsum(completed) / n_done
            assert close(bp_predict(completed, total).T_hat,
                         scale * (total * t_bar), 1e-12)

            k = int(rng.integers(1, 4))
            labels = rng.integers(0, k, size=total)
            by_cluster = {j: [float(t) for t, lab in zip(completed, labels[:n_done])
                              if lab == j] for j in range(k)}
            counts = [int(np.sum(labels == j)) for j in range(k)]
            means = {j: math.fsum(v) / len(v) if v else t_bar
                     for j, v in by_cluster.items()}
            want_cp = scale * math.fsum(counts[j] * means[j] for j in range(k))
            assert close(cp_predict(labels, completed).T_hat, want_cp, 1e-12)

            X = rng.uniform(0.0, 10.0, size=(total, 3))
            model = train(X[:n_done], np.log(completed), GbrtParams(3, 2, 0.5, 1))
            remaining = {f"t{j}": X[n_done + j] for j in range(total - n_done)}
            want_xp = math.fsum(math.exp(walk_model(model, X[n_done + j]))
                                for j in range(total - n_done))
            assert close(xp_predict(model, remaining).T_hat, want_xp, 1e-12)

            predicted = actual_rest * rng.uniform(0.5, 1.5, size=len(actual_rest))
            want_mape = 100.0 * math.fsum(
                abs(a - p) / a for a, p in zip(actual_rest, predicted)) / len(actual_rest)
            assert close(mape(actual_rest, predicted), want_mape, 1e-12)

            mean_a = math.fsum(actual_rest) / len(actual_rest)
            ss_res = math.fsum((a - p) ** 2 for a, p in zip(actual_rest, predicted))
            ss_tot = math.fsum((a - mean_a) ** 2 for a in actual_rest)
            assert close(r2(actual_rest, predicted), 1.0 - ss_res / ss_tot, 1e-12)

            want_sape = 100.0 * abs(math.fsum(actual_rest) - math.fsum(predicted)) \
                / math.fsum(actual_rest)
            assert close(sape(actual_rest, predicted), want_sape, 1e-12)
        assert time.perf_counter() - t0 < 10.0


def test_02_single_cluster_reduces_to_global_mean(capsys):
    with criterion(capsys, "2 one-cluster CP equals BP bit for bit (100 instances)"):
        for i in range(100):
            rng = np.random.default_rng(6000 + i)
            total = int(rng.integers(2, 40))
            n_done = int(rng.integers(1, total))
            times = rng.uniform(0.1, 30.0, size=total)
            bp = bp_predict(times[:n_done], total)
            cp = cp_predict([0] * total, times[:n_done])
            assert cp.T_hat == bp.T_hat
            assert cp.c == bp.c
            assert cp.t_hat.tolist() == bp.t_hat.tolist()


def test_03_gbrt_soundness(capsys):
    label = ("3 GBRT: training error never rises, exact step recovery, "
             "row-order invariance (<30 s)")
    with criterion(capsys, label):
        t0 = time.perf_counter()
        for i in range(50):
            rng = np.random.default_rng(7000 + i)
            n = int(rng.integers(20, 81))
            d = int(rng.integers(2, 6))
            X = rng.uniform(size=(n, d))
            y = 3.0 * X[:, 0] + rng.normal(size=n)
            model = train(X, y, GbrtParams(30, 3, 0.2, 2))
            assert len(model.train_mse) == 30
            for a, b in zip(model.train_mse, model.train_mse[1:]):
                assert b <= a * (1.0 + 1e-12)

        X = np.arange(10.0).reshape(-1, 1)
        y = np.where(X[:, 0] < 5.0, 0.0, 10.0)
        step = train(X, y, GbrtParams(1, 1, 1.0, 1))
        assert np.array_equal(predict(step, X), y)

        for i in range(5):
            rng = np.random.default_rng(7100 + i)
            X = rng.uniform(size=(40, 3))
            y = rng.normal(size=40)
            perm = rng.permutation(40)
            params = GbrtParams(10, 3, 0.3, 2)
            X_eval = rng.uniform(size=(25, 3))
            assert np.array_equal(predict(train(X, y, params), X_eval),
                                  predict(train(X[perm], y[perm], params), X_eval))
        assert time.perf_counter() - t0 < 30.0


def exhaustive_two_cluster_sse(pts):
    """Best SSE over every nonempty bipartition; point 0 pinned to side 0."""
    n = len(pts)
    best = math.inf
    for mask in range(1, 2 ** (n - 1)):
        side = np.zeros(n, dtype=bool)
        for i in range(1, n):
            side[i] = (mask >> (i - 1)) & 1
        sse = 0.0
        for flag in (False, True):
            group = pts[side == flag]
            sse += float(((group - group.mean(axis=0)) ** 2).sum())
        best = min(best, sse)
    return best


def test_04_kmeans_objective(capsys):
    label = ("4 k-means: objective never rises; exhaustive two-cluster optimum "
             "reached in >=95/100 trials")
    with criterion(capsys, label):
        for i in range(100):
            rng = np.random.default_rng(8000 + i)
            n = int(rng.integers(5, 61))
            k = int(rng.integers(1, min(6, n) + 1))
            pts = rng.uniform(0.0, 10.0, size=(n, 2))
            hist = kmeans(pts, k, seed=i).sse_per_iter
            assert all(b <= a for a, b in zip(hist, hist[1:]))

        hits = 0
        for seed in range(100):
            data_rng = np.random.default_rng(20000 + seed)
            n = int(data_rng.integers(4, 13))
            pts = data_rng.uniform(0.0, 10.0, size=(n, 2))
            got = kmeans(pts, 2, seed=seed).sse_per_iter[-1]
            if got <= exhaustive_two_cluster_sse(pts) * (1.0 + 1e-9):
                hits += 1
        assert hits >= 95


def test_05_synthetic_sweep_trends(capsys):
    label = ("5 synthetic sweep: online systems improve with completion, "
             "CXP beats BP early, SAPE<MAPE, GXP transfers across groups (<10 min)")
    with criterion(capsys, label):
        t0 = time.perf_counter()
        corpus = synth_corpus(SynthSpec(n_clips=600, sigma=0.3, num_groups=6),
                              seed=42)
        assert len(corpus.tasks) == 600 * 12
        cfg = SweepConfig(systems=("BP", "CP", "XP", "CXP", "GXP"),
                          num_realisations=100,
                          c_grid=(0.02, 0.06, 0.10, 0.20, 0.40),
                          base_seed=1000, k=10,
                          gbrt=GbrtParams(30, 6, 0.35, 2),
                          test_groups=("group4", "group5"))
        rows = report_rows(monte_carlo(corpus, cfg))
        by = {(r.system, r.c): r for r in rows}
        for system in ("BP", "CP", "XP", "CXP"):
            assert by[(system, 0.40)].sape < by[(system, 0.02)].sape
        assert by[("CXP", 0.02)].sape < by[("BP", 0.02)].sape
        for r in rows:
            assert r.sape < r.mape
        for c in cfg.c_grid:
            assert by[("GXP", c)].r2 > 0.0
        assert time.perf_counter() - t0 < 600.0


def test_06_noiseless_representable_law(capsys):
    label = "6 noiseless threshold law: XP mean SAPE under 1% once c >= 0.2"
    with criterion(capsys, label):
        def step_law(X):
            return np.where(X[:, 8] < 29.5, math.log(2.0), math.log(8.0))

        corpus = synth_corpus(
            SynthSpec(n_clips=120, sigma=0.0, num_groups=6, law=step_law), seed=7)
        cfg = SweepConfig(systems=("XP",), num_realisations=20,
                          c_grid=(0.2, 0.3, 0.4), base_seed=300,
                          gbrt=GbrtParams(5, 2, 1.0, 1))
        for row in report_rows(monte_carlo(corpus, cfg)):
            assert row.sape < 1.0


def naive_block_energy(block):
    """Weighted sum of |DCT-II coefficients| straight from the definition."""
    n = block.shape[0]
    xs = np.arange(n)
    vectors = []
    for u in range(n):
        cu = math.sqrt(1.0 / n) if u == 0 else math.sqrt(2.0 / n)
        vectors.append(cu * np.cos((2 * xs + 1) * u * math.pi / (2 * n)))
    total = 0.0
    for u in range(n):
        row = vectors[u] @ block
        for v in range(n):
            if u == 0 and v == 0:
                continue
            coeff = float(row @ vectors[v])
            total += 2.0 ** ((u + v) / 2.0 - 2.0) * abs(coeff)
    return total


def test_07_complexity_features(capsys, tmp_path):
    label = ("7 complexity: flat gray clip scores E=0, h=0, luma=128 exactly; "
             "block energy matches the naive DCT oracle (100 blocks, rel 1e-6)")
    with criterion(capsys, label):
        path = tmp_path / "gray.yuv"
        frame = np.full((64, 64), 128, dtype=np.uint8)
        with open(path, "wb") as fh:
            for _ in range(3):
                fh.write(frame.tobytes())
                fh.write(bytes([128]) * (64 * 64 // 2))
        _, clip = analyze_yuv(path, 64, 64, 3)
        assert clip.E == 0.0
        assert clip.h == 0.0
        assert clip.luma == 128.0

        rng = np.random.default_rng(11)
        for _ in range(100):
            block = rng.uniform(0.0, 255.0, size=(32, 32))
            got = block_dct_energy(block)
            want = naive_block_energy(block)
            assert abs(got - want) <= 1e-6 * max(abs(got), abs(want))


def test_08_cascade_defaults(capsys):
    label = "8 default cascade: GXP at c=0, CXP at c=0.04, CP at c=0.10"
    with criterion(capsys, label):
        assert cascade_select(DEFAULT_CASCADE, 0.0) == "GXP"
        assert cascade_select(DEFAULT_CASCADE, 0.04) == "CXP"
        assert cascade_select(DEFAULT_CASCADE, 0.10) == "CP"


def test_09_runner_measurement_and_resume(capsys, tmp_path):
    label = ("9 runner: 0.5 s proxy lands in [0.4, 0.7] s; "
             "resuming never duplicates a task row")
    with criterion(capsys, label):
        corpus = make_corpus(n_clips=2, encoders=("x264",),
                             presets=("medium",), cqps=(22, 27))
        input_dir = tmp_path / "in"
        input_dir.mkdir()
        for clip in corpus.clips:
            (input_dir / f"{clip.clip_id}.yuv").write_bytes(b"\x00")

        sleeper = CommandTemplate(
            f"{sys.executable} -c 'import time; time.sleep(0.5)'")
        result = run_encode(corpus.tasks[0], corpus.clips[0], sleeper,
                            input_dir / "clip0000.yuv", tmp_path / "scratch")
        assert 0.4 <= result.seconds <= 0.7
        assert not result.suspect

        times_path = tmp_path / "times.csv"
        noop = CommandTemplate("true")
        first = batch_encode(corpus, noop, input_dir, times_path,
                             tmp_path / "scratch", tasks=corpus.tasks[:2])
        assert (first.succeeded, first.skipped) == (2, 0)
        second = batch_encode(corpus, noop, input_dir, times_path,
                              tmp_path / "scratch")
        assert (second.succeeded, second.skipped) == (2, 2)
        third = batch_encode(corpus, noop, input_dir, times_path,
                             tmp_path / "scratch")
        assert (third.succeeded, third.skipped) == (0, 4)

        recorded = load_times_csv(times_path)
        assert len(recorded) == 4
        counts = Counter(line.split(",")[0]
                         for line in times_path.read_text().splitlines()[1:])
        assert all(n == 1 for n in counts.values())
        assert set(counts) == {t.task_id for t in corpus.tasks}


def test_10_simulation_determinism(capsys, tmp_path):
    label = "10 CLI simulate: fixed seeds give byte-identical reports"
    with criterion(capsys, label):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["simulate", "--synthetic", "--n-clips", "6", "--num-groups", "2",
                "--systems", "BP,CP,XP", "--realisations", "3",
                "--c-grid", "0.1", "0.3", "--k", "2", "--trees", "4",
                "--depth", "2", "--seed", "9", "--base-seed", "17"]
        assert cli_main(base + ["--report-out", str(out_a)]) == 0
        assert cli_main(base + ["--report-out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert len(out_a.read_text().splitlines()) == 1 + 3 * 2
