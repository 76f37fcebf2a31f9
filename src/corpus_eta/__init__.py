"""Predict the remaining wall-clock time of a video encode corpus.

The package covers the whole workflow: extract per-clip complexity features
from raw video, cluster clips, run (or simulate) the encodes, and predict the
aggregate time still ahead with statistical baselines (BP, CP), boosted-tree
models (XP, CXP, GXP) or a completion-ratio cascade over them. A Monte-Carlo
harness scores every predictor over random corpus orderings.
"""

__version__ = "1.0.0"
