"""Estimate remaining encode time with each predictor family.

A synthetic corpus plays the role of a half-finished batch job: after a
seeded shuffle, the first tasks count as completed and everything later is
still queued. Each predictor then answers the same question -- how many
seconds of work are left? -- from the completed prefix alone.

Run:  python3 demos/predictors_tour.py
"""

import math

import numpy as np

from corpus_eta.clustering import cluster_clips, task_labels
from corpus_eta.gbrt import GbrtParams
from corpus_eta.harness import SynthSpec, run_realization, synth_corpus
from corpus_eta.predictors import Forecast, cxp_order


def main():
    corpus = synth_corpus(SynthSpec(n_clips=80, num_groups=4), seed=13)
    total = len(corpus.tasks)
    rng = np.random.default_rng(99)
    order = [corpus.tasks[i].task_id for i in rng.permutation(total)]
    n_done = total // 10
    done = corpus.seconds_of(order[:n_done])
    truth = math.fsum(corpus.seconds_of(order[n_done:]).tolist())
    print(f"{total} tasks, {n_done} completed (c={n_done / total:.2f}); "
          f"true remaining = {truth:,.0f} s\n")

    # one Forecast per system and processing order; ``at`` takes the seconds
    # of the tasks completed so far
    bp = Forecast("BP", corpus, order).at(done)
    print(f"BP   extrapolates the running mean:            "
          f"{bp.T_hat:12,.0f} s ({100 * (bp.T_hat / truth - 1):+6.1f}%)")

    assignment = cluster_clips(corpus.clips, k=6, seed=0)
    cp = Forecast("CP", corpus, order, assignment=assignment).at(done)
    print(f"CP   keeps one mean per complexity cluster:    "
          f"{cp.T_hat:12,.0f} s ({100 * (cp.T_hat / truth - 1):+6.1f}%)")

    params = GbrtParams(num_trees=40, max_depth=5, learning_rate=0.2,
                        min_samples_leaf=2)
    xp = Forecast("XP", corpus, order, model=params).at(done)
    print(f"XP   regresses log-seconds on task features:   "
          f"{xp.T_hat:12,.0f} s ({100 * (xp.T_hat / truth - 1):+6.1f}%)")
    print(f"     trees per stage, added as tasks completed: {xp.model.stages}")

    balanced = cxp_order(corpus, assignment, seed=99)
    print(f"\nCXP reorders the queue so early tasks cover all clusters;")
    first = task_labels(assignment, corpus.tasks_of(balanced[:12])).tolist()
    print(f"cluster labels of the first 12 tasks under that order: {first}")

    print("\nPrediction error (SAPE %) as the batch completes:")
    grid = (0.05, 0.1, 0.2, 0.4, 0.8)
    header = "".join(f"{c:>9.2f}" for c in grid)
    print(f"  {'system':<6}{header}")
    for system in ("BP", "CP", "XP", "CXP"):
        result = run_realization(corpus, system, seed=99, c_grid=grid,
                                 assignment=assignment, model=params)
        cells = "".join(f"{result.per_c[c].sape:9.2f}" for c in grid)
        print(f"  {system:<6}{cells}")


if __name__ == "__main__":
    main()
