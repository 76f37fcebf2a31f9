"""Workload ``sweep``: one ``corpus-eta simulate`` per round.

The acceptance test_05 configuration on a synthetic x264-only corpus, with a
few realisations instead of 100. GBRT training does nearly all the work;
loading and clustering run once per call.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

from common import Call, check, expect_ok, read_csv_rows, rel_close, task_ids
from oracles import sweep_baselines

SIZES = {"full": {"n_clips": 600, "realisations": 2},
         "smoke": {"n_clips": 60, "realisations": 1}}
SYSTEMS = ("BP", "CP", "XP", "CXP", "GXP")
C_GRID = ("0.02", "0.06", "0.10", "0.20", "0.40")
K = 10
BASE_SEED = 1000
GBRT = {"num_trees": 30, "max_depth": 6, "learning_rate": 0.35, "min_samples_leaf": 2}
GBRT_ARGS = ["--trees", str(GBRT["num_trees"]), "--depth", str(GBRT["max_depth"]),
             "--learning-rate", str(GBRT["learning_rate"]),
             "--min-leaf", str(GBRT["min_samples_leaf"])]
TEST_GROUPS = ("group4", "group5")


class Sweep:
    name = "sweep"

    def __init__(self, work: Path, seed: int, size: str):
        self.work, self.seed, self.size = work, seed, SIZES[size]
        self.features = work / "features.csv"
        self.times = work / "times.csv"
        self.report = work / "report.csv"
        self.reals = work / "realisations.csv"
        self.first_report: bytes | None = None
        self.accuracy: dict[str, float] = {}

    def setup(self) -> None:
        """Generate the corpus with the program's own functions and save it."""
        from corpus_eta import corpus, harness
        spec = harness.SynthSpec(n_clips=self.size["n_clips"], sigma=0.3, num_groups=6)
        generated = harness.synth_corpus(spec, seed=self.seed)
        corpus.save_corpus(generated, self.features, None, self.times)

    def prepare(self, call) -> None:
        """Compute the BP and CP oracles; CP takes its labels from ``cluster``."""
        labels_csv = self.work / "clusters.csv"
        expect_ok(call(["cluster", "--features", str(self.features), "--k", str(K),
                        "--seed", str(BASE_SEED), "--out", str(labels_csv)]))
        clip_ids = [row[0] for row in read_csv_rows(self.features)[1:]]
        ids = task_ids(clip_ids)
        seconds = {row[0]: float(row[1]) for row in read_csv_rows(self.times)[1:]}
        clip_label = {row[0]: int(row[1]) for row in read_csv_rows(labels_csv)[1:]}
        self.expected = sweep_baselines(
            ids, seconds, {t: clip_label[t.split(":")[0]] for t in ids}, K,
            [BASE_SEED + i for i in range(self.size["realisations"])],
            [float(c) for c in C_GRID])

    def round(self, call) -> list[tuple[Call, bool]]:
        argv = ["simulate", "--features", str(self.features), "--times", str(self.times),
                "--encoders", "x264", "--systems", ",".join(SYSTEMS),
                "--realisations", str(self.size["realisations"]),
                "--c-grid", *C_GRID, "--k", str(K), *GBRT_ARGS,
                "--test-groups", *TEST_GROUPS, "--base-seed", str(BASE_SEED),
                "--report-out", str(self.report), "--realisations-out", str(self.reals)]
        return [(call(argv), False)]

    def check(self, ops: list[tuple[Call, bool]]) -> None:
        expect_ok(ops[0][0])
        report = self.report.read_bytes()
        if self.first_report is not None:
            check(report == self.first_report,
                  "simulate report differs between rounds with the same seeds")
            return
        self.first_report = report
        rows = read_csv_rows(self.report)
        check(rows[0] == ["system", "c", "mape", "r2", "sape"], f"report header {rows[0]}")
        got = {(r[0], float(r[1])): tuple(map(float, r[2:])) for r in rows[1:]}
        check(sorted(got) == sorted((s, float(c)) for s in SYSTEMS for c in C_GRID),
              "report rows do not cover every (system, c)")
        for value in got.values():
            check(all(math.isfinite(v) for v in value), "non-finite value in the report")

        # the report is the mean of the per-realisation rows
        per: dict = {}
        for r in read_csv_rows(self.reals)[1:]:
            per.setdefault((r[0], float(r[2])), []).append(tuple(map(float, r[3:6])))
        for key, value in got.items():
            reals = per.get(key, [])
            check(len(reals) == self.size["realisations"],
                  f"{key}: {len(reals)} realisation rows")
            for i, name in enumerate(("mape", "r2", "sape")):
                check(value[i] == math.fsum(r[i] for r in reals) / len(reals),
                      f"{key} {name}: report is not the mean of its realisations")

        for (system, c), oracle in self.expected.items():
            m, r2, sape = got[(system, c)]
            if system == "BP":
                check((m, r2, sape) == (oracle["mape"], oracle["r2"], oracle["sape"][0]),
                      f"BP at c={c}: report {(m, r2, sape)} != oracle")
            else:
                check(rel_close(m, oracle["mape"], 1e-9) and rel_close(r2, oracle["r2"], 1e-9),
                      f"CP at c={c}: per-task metrics differ from the oracle")
                check(any(rel_close(sape, s, 1e-9) for s in oracle["sape"]),
                      f"CP at c={c}: SAPE {sape} matches neither CP aggregate")
        for (system, c), (_, r2, _) in got.items():
            if system == "GXP" or (system in ("XP", "CXP") and c >= 0.10):
                check(r2 > 0.0, f"{system} at c={c}: R^2 {r2} is not above 0")

        self.accuracy = {f"sape_{s.lower()}_pct": statistics.fmean(
            got[(s, float(c))][2] for c in C_GRID) for s in SYSTEMS}

    def summary(self, rounds: list[list[tuple[Call, bool]]]) -> list[tuple[str, float, str]]:
        walls = [ops[0][0].wall_s for ops in rounds]
        return [("sweep_s", statistics.median(walls), "s")] + [
            (name, value, "%") for name, value in self.accuracy.items()]
