"""What ``corpus-eta predict`` ships is what the Monte-Carlo sweep grades.

For each system, the first n tasks of the processing order that
``run_realization`` uses for a seed become ``times.csv``; the per-task
predictions ``predict`` writes for the rest must score exactly the metrics
the sweep reports at c = n/N.
"""

import math

import numpy as np
import pytest

from corpus_eta.cli import main
from corpus_eta.clustering import cluster_clips
from corpus_eta.corpus import save_features_csv, save_times_csv
from corpus_eta.gbrt import GbrtParams, save_model, train
from corpus_eta.harness import SynthSpec, run_realization, synth_corpus
from corpus_eta.metrics import evaluate
from corpus_eta.predictors import cxp_order, gxp_train_split

K = 3
SEED = 11           # ordering seed, and the clustering seed as in monte_carlo
C = 0.25
PARAMS = GbrtParams(num_trees=8, max_depth=3, learning_rate=0.3, min_samples_leaf=2)
GBRT_ARGS = ["--trees", "8", "--depth", "3", "--learning-rate", "0.3", "--min-leaf", "2"]
TEST_GROUPS = ("group2",)


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(SynthSpec(n_clips=18, num_groups=3), seed=5)


def processing_order(corpus, system, assignment, test_ids):
    """The order run_realization documents for each system."""
    rng = np.random.default_rng(SEED)
    if system == "GXP":
        return [test_ids[i] for i in rng.permutation(len(test_ids))]
    if system == "CXP":
        return cxp_order(corpus, assignment, SEED)
    ids = [t.task_id for t in corpus.tasks]
    return [ids[i] for i in rng.permutation(len(ids))]


@pytest.mark.parametrize("system", ["BP", "CP", "XP", "CXP", "GXP"])
def test_per_task_predictions_score_the_sweep_metrics(system, corpus, tmp_path):
    assignment = cluster_clips(corpus.clips, k=K, seed=SEED)
    argv = ["--system", system, "--k", str(K), "--seed", str(SEED), *GBRT_ARGS]
    gxp = {}
    clips = corpus.clips
    if system == "GXP":
        split = gxp_train_split(corpus, TEST_GROUPS)
        model = train(split.train_rows, split.train_targets, PARAMS)
        save_model(tmp_path / "model.json", model)
        argv += ["--model-in", str(tmp_path / "model.json")]
        gxp = {"gxp_model": model, "gxp_test_ids": split.test_ids}
        clips = [c for c in clips if c.source_group in TEST_GROUPS]

    graded = run_realization(corpus, system, SEED, (C,), assignment=assignment,
                             gbrt_params=PARAMS, **gxp).per_c[C]

    order = processing_order(corpus, system, assignment, gxp.get("gxp_test_ids"))
    n = math.floor(C * len(order))
    save_features_csv(tmp_path / "features.csv", clips)
    save_times_csv(tmp_path / "times.csv", {t: corpus.times[t] for t in order[:n]})
    per_task = tmp_path / "per_task.csv"
    rc = main(["predict", "--features", str(tmp_path / "features.csv"),
               "--times", str(tmp_path / "times.csv"), "--encoders", "x264",
               "--per-task-out", str(per_task), *argv])
    assert rc == 0

    shipped = dict(line.split(",") for line in per_task.read_text().splitlines()[1:])
    assert sorted(shipped) == sorted(order[n:])
    report = evaluate([corpus.times[t].seconds for t in order[n:]],
                      [float(shipped[t]) for t in order[n:]])
    assert (report.mape, report.r2, report.sape, report.n) == \
        (graded.mape, graded.r2, graded.sape, graded.n)
