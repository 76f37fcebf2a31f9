"""Group a synthetic corpus into complexity classes with k-means.

Shows the full path the CP and CXP predictors rely on: standardize the
seven clip features, sweep k to see the elbow in the objective, then keep
one assignment and count how many encode tasks land in each cluster.

Run:  python3 demos/clustering_walkthrough.py
"""

import numpy as np

from corpus_eta.clustering import (clip_feature_matrix, cluster_clips, kmeans,
                                   standardize, task_labels)
from corpus_eta.harness import SynthSpec, synth_corpus


def main():
    corpus = synth_corpus(SynthSpec(n_clips=60, num_groups=3), seed=21)
    print(f"corpus: {len(corpus.clips)} clips, {len(corpus.tasks)} encode tasks")

    raw = clip_feature_matrix(corpus.clips)
    std = standardize(corpus.clips)
    print("feature ranges before/after standardization (height column):")
    print(f"  raw  {raw[:, 0].min():8.1f} .. {raw[:, 0].max():8.1f}")
    print(f"  std  {std[:, 0].min():8.3f} .. {std[:, 0].max():8.3f}\n")

    print("objective vs k (watch for the elbow):")
    for k in (1, 2, 4, 6, 8, 12):
        result = kmeans(std, k, seed=0)
        print(f"  k={k:<3d} final SSE = {result.sse_per_iter[-1]:10.2f} "
              f"after {result.n_iter} iterations")

    assignment = cluster_clips(corpus.clips, k=6, seed=0)
    sizes = np.bincount(task_labels(assignment, corpus.tasks), minlength=assignment.k)
    print("\nkept k=6; tasks per cluster:")
    for j, count in enumerate(sizes):
        members = sum(1 for lab in assignment.labels.values() if lab == j)
        print(f"  cluster {j}: {members:3d} clips -> {count:4d} tasks")

    heights = {j: [] for j in range(assignment.k)}
    for clip in corpus.clips:
        heights[assignment.labels[clip.clip_id]].append(clip.height)
    print("\nclusters separate resolutions without being told about them:")
    for j, vals in heights.items():
        if vals:
            print(f"  cluster {j}: heights {sorted(set(vals))}")


if __name__ == "__main__":
    main()
