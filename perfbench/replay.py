"""Workload ``predict-replay``: one encode job, queried the way an ETA display does.

``times.csv`` grows in corpus order, the order ``encode`` runs today, and one
``corpus-eta predict`` process starts at each completion ratio of a fixed
list. Each call pays for the interpreter and imports, the CSV load, a fresh
k-means and, inside the CXP window, a 200-tree fit.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from common import Call, check, expect_ok, read_csv_rows, rel_close, task_ids
from sweep import GBRT

SIZES = {"full": {"n_clips": 900}, "smoke": {"n_clips": 90}}
JOB_GROUPS = ("group0", "group1", "group2", "group3")  # the job; group4/5 pre-train GXP
K = 10
CASCADE_CXP_BOUND = 0.06

# (completion ratio, explicit --system or None for the cascade default)
POINTS = ([(0.0, None)]
          + [(i / 100, None) for i in range(1, 7)]       # the CXP window, 1 % steps
          + [(i / 10, None) for i in range(1, 10)]       # CP, every 10 %
          + [(0.02, "XP"), (0.05, "XP"), (0.02, "BP"), (0.5, "BP")])


class Replay:
    name = "predict-replay"

    def __init__(self, work: Path, seed: int, size: str):
        self.work, self.seed, self.size = work, seed, SIZES[size]
        self.features = work / "features.csv"
        self.truth = work / "truth_times.csv"
        self.model = work / "gxp_model.json"
        self.first_t_hat: list[float] | None = None
        self.ape_pct: list[float] = []
        self.accuracy: dict[str, float] = {}

    def setup(self) -> None:
        """Synthesize the job and the other source groups; pre-train GXP on the latter."""
        from corpus_eta import corpus, gbrt, harness, predictors
        spec = harness.SynthSpec(n_clips=self.size["n_clips"], sigma=0.3, num_groups=6)
        generated = harness.synth_corpus(spec, seed=self.seed)
        split = predictors.gxp_train_split(generated, JOB_GROUPS)
        model = gbrt.train(split.train_rows, split.train_targets, gbrt.GbrtParams(**GBRT))
        gbrt.save_model(self.model, model)
        clips = tuple(c for c in generated.clips if c.source_group in JOB_GROUPS)
        job = corpus.Corpus(clips=clips, tasks=tuple(corpus.expand_tasks(clips, ("x264",))),
                            times={t: generated.times[t] for t in split.test_ids})
        corpus.save_corpus(job, self.features, None, self.truth)

    def prepare(self, call) -> None:
        """Write the growing times.csv prefixes; get CP's labels from ``cluster``."""
        self.ids = task_ids(row[0] for row in read_csv_rows(self.features)[1:])
        truth_rows = {row[0]: row[1] for row in read_csv_rows(self.truth)[1:]}
        check(sorted(truth_rows) == sorted(self.ids), "truth times do not cover the job")
        self.seconds = {t: float(s) for t, s in truth_rows.items()}
        N = len(self.ids)
        self.calls = []
        for i, (c, system) in enumerate(POINTS):
            n = math.floor(c * N)
            times = self.work / f"times_{n}.csv"
            with open(times, "w", encoding="utf-8") as fh:
                fh.write("task_id,seconds\n")
                fh.writelines(f"{t},{truth_rows[t]}\n" for t in self.ids[:n])
            per_task = self.work / f"per_task_{i}.csv"
            argv = ["predict", "--features", str(self.features), "--times", str(times),
                    "--encoders", "x264", "--per-task-out", str(per_task)]
            if system is not None:
                argv += ["--system", system]
            if n == 0:
                argv += ["--model-in", str(self.model)]
            expected = system or ("GXP" if n == 0 else
                                  "CXP" if n / N <= CASCADE_CXP_BOUND else "CP")
            self.calls.append((argv, n, expected, per_task))

        labels_csv = self.work / "clusters.csv"
        expect_ok(call(["cluster", "--features", str(self.features), "--k", str(K),
                        "--seed", "0", "--out", str(labels_csv)]))
        clip_label = {row[0]: int(row[1]) for row in read_csv_rows(labels_csv)[1:]}
        self.label = {t: clip_label[t.split(":")[0]] for t in self.ids}

    def round(self, call) -> list[tuple[Call, bool]]:
        return [(call(argv), False) for argv, _, _, _ in self.calls]

    def check(self, ops: list[tuple[Call, bool]]) -> None:
        t_hats = []
        for (call, _), (_, n, expected, per_task) in zip(ops, self.calls):
            doc = json.loads(expect_ok(call).json_line())
            t_hats.append(doc["T_hat_seconds"])
            if self.first_t_hat is not None:
                continue
            self._check_call(doc, n, expected, per_task)
        if self.first_t_hat is None:
            self.first_t_hat = t_hats
            self.accuracy = {"predict_ape_pct": statistics.fmean(self.ape_pct)}
        check(t_hats == self.first_t_hat, "predict output differs between rounds")

    def _check_call(self, doc: dict, n: int, expected: str, per_task: Path) -> None:
        N, ids = len(self.ids), self.ids
        where = f"predict at c={n / N:.4f} ({expected})"
        check(doc["system"] == expected, f"{where}: ran {doc['system']}")
        check((doc["completed"], doc["remaining"], doc["total_tasks"]) == (n, N - n, N),
              f"{where}: wrong task counts {doc}")
        queued = ids[n:]
        rows = read_csv_rows(per_task)[1:]
        check(sorted(r[0] for r in rows) == sorted(queued),
              f"{where}: per-task rows do not cover exactly the queued tasks")
        per = {r[0]: float(r[1]) for r in rows}
        t_hat = doc["T_hat_seconds"]
        done = [self.seconds[t] for t in ids[:n]]

        if expected == "BP":
            t_bar = math.fsum(done) / n
            check(t_hat == (1.0 - n / N) * (N * t_bar), f"{where}: T_hat {t_hat} != oracle")
            check(all(v == t_bar for v in per.values()), f"{where}: per-task != mean")
        elif expected == "CP":
            by: dict[int, list[float]] = {}
            for t in ids[:n]:
                by.setdefault(self.label[t], []).append(self.seconds[t])
            means = {j: math.fsum(v) / len(v) for j, v in by.items()}
            fallback = math.fsum(done) / n
            predicted = [means.get(self.label[t], fallback) for t in queued]
            check(all(per[t] == p for t, p in zip(queued, predicted)),
                  f"{where}: per-task predictions are not the cluster means")
            sizes: dict[int, int] = {}
            for t in ids:
                sizes[self.label[t]] = sizes.get(self.label[t], 0) + 1
            paper = (1.0 - n / N) * math.fsum(m * means.get(j, fallback)
                                              for j, m in sizes.items())
            check(rel_close(t_hat, paper, 1e-9) or rel_close(t_hat, math.fsum(predicted), 1e-9),
                  f"{where}: T_hat {t_hat} matches neither CP aggregate")
        else:
            check(math.isfinite(t_hat) and t_hat > 0.0, f"{where}: T_hat {t_hat}")
            check(t_hat == math.fsum(per.values()),
                  f"{where}: T_hat is not the sum of its per-task rows")
        true_remaining = math.fsum(self.seconds[t] for t in queued)
        self.ape_pct.append(abs(t_hat - true_remaining) / true_remaining * 100.0)

    def summary(self, rounds: list[list[tuple[Call, bool]]]) -> list[tuple[str, float, str]]:
        walls = [call.wall_s for ops in rounds for call, _ in ops]
        N = len(self.ids)
        per_call = [(f"predict c={n / N:.2f} {expected}",
                     statistics.median(ops[i][0].wall_s for ops in rounds), "s")
                    for i, (_, n, expected, _) in enumerate(self.calls)]
        return [("predict_p50_s", statistics.median(walls), "s"),
                ("predict_replay_s", statistics.median(
                    sum(call.wall_s for call, _ in ops) for ops in rounds), "s"),
                ("predict_ape_pct", self.accuracy["predict_ape_pct"], "%")] + per_call
