"""The benchmark's workloads by name.

Run as a script, it builds one workload's inputs with the program's own
functions; ``run.py`` times that in a fresh interpreter, so set-up time
includes starting Python and importing ``corpus_eta`` as a user pays them.

    python3 perfbench/workloads.py WORKLOAD SEED SIZE WORK_DIR
"""

import sys
from pathlib import Path

from ingest import Ingest
from replay import Replay
from sweep import Sweep

WORKLOADS = {w.name: w for w in (Sweep, Replay, Ingest)}

if __name__ == "__main__":
    name, seed, size, work = sys.argv[1:]
    WORKLOADS[name](Path(work), int(seed), size).setup()
