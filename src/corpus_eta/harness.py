"""Monte-Carlo evaluation of remaining-time predictors over random corpus orderings.

Each realisation fixes a processing order for the tasks, then walks a grid of
completion ratios c. At every grid point the tasks before floor(c*N) count as
completed and the chosen system predicts the per-task times of the remainder;
per-task and aggregate errors are scored in linear seconds.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .clustering import DEFAULT_K, ClusterAssignment, cluster_clips
from .corpus import CQPS, PRESETS, Clip, Corpus, TimeRecord, _fmt, expand_tasks
from .errors import ValidationError
from .gbrt import GbrtModel, GbrtParams, feature_matrix, train
from .metrics import MetricReport, evaluate
from .predictors import SYSTEMS, cxp_order, gxp_train_split, predict_remaining

# Nothing here calls these; perfbench/tracing.py wraps them as attributes
# of this module, so they stay importable from it.
from .gbrt import predict  # noqa: F401
from .predictors import bp_predict, cp_predict  # noqa: F401

# 2% increments, full completion excluded (nothing left to predict there)
DEFAULT_C_GRID = tuple(i / 50.0 for i in range(1, 50))

REPORT_HEADER = ["system", "c", "mape", "r2", "sape"]
REALISATIONS_HEADER = ["system", "seed", "c", "mape", "r2", "sape", "n"]


# ---------------------------------------------------------------------------
# synthetic corpora

_RESOLUTIONS = ((960, 540), (1280, 720), (1920, 1080), (3840, 2160))
_FRAMERATES = (24, 25, 30, 50, 60)
_DURATIONS_S = (2, 4)


def default_time_law(X: np.ndarray) -> np.ndarray:
    """Log-seconds as an affine function of the model features.

    Slower presets and lower CQPs cost more; cost scales roughly linearly
    with pixel count and frame count, with mild complexity terms.
    """
    return (-13.0
            + 1.0 * np.log(X[:, 1])        # num_pixels
            + 0.9 * np.log(X[:, 3])        # num_frames
            + 0.12 * np.log1p(X[:, 4])     # E
            + 0.08 * np.log1p(X[:, 5])     # h
            + 1.15 * X[:, 7]               # preset_ord
            - 0.035 * X[:, 8])             # cqp


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a generated corpus with known ground-truth times."""

    n_clips: int = 600
    encoders: tuple[str, ...] = ("x264",)
    presets: tuple[str, ...] = PRESETS
    cqps: tuple[int, ...] = CQPS
    sigma: float = 0.3            # lognormal noise on the time law
    num_groups: int = 6
    law: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.n_clips < 1:
            raise ValidationError(f"n_clips must be >= 1, got {self.n_clips}")
        if self.sigma < 0.0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")
        if self.num_groups < 1:
            raise ValidationError(f"num_groups must be >= 1, got {self.num_groups}")


def synth_corpus(spec: SynthSpec, seed: int = 0) -> Corpus:
    """Generate clips, expand tasks and draw times t = exp(law(x) + eps)."""
    rng = np.random.default_rng(seed)
    clips = []
    for i in range(spec.n_clips):
        width, height = _RESOLUTIONS[int(rng.integers(len(_RESOLUTIONS)))]
        fps = int(_FRAMERATES[int(rng.integers(len(_FRAMERATES)))])
        duration = int(_DURATIONS_S[int(rng.integers(len(_DURATIONS_S)))])
        clips.append(Clip(
            clip_id=f"clip{i:04d}",
            width=width, height=height,
            framerate=Fraction(fps, 1),
            num_frames=fps * duration,
            E=float(rng.lognormal(3.6, 0.9)),
            h=float(rng.lognormal(2.6, 0.9)),
            luma=float(rng.uniform(16.0, 235.0)),
            source_group=f"group{i % spec.num_groups}",
        ))
    tasks = expand_tasks(clips, spec.encoders, spec.presets, spec.cqps)
    corpus = Corpus(clips=tuple(clips), tasks=tuple(tasks))

    law = spec.law if spec.law is not None else default_time_law
    ids = [t.task_id for t in tasks]
    X = feature_matrix(corpus, ids)
    g = np.asarray(law(X), dtype=np.float64)
    if g.shape != (len(ids),):
        raise ValidationError(
            f"time law must return one log-second value per task, got shape {g.shape}")
    if spec.sigma > 0.0:
        g = g + rng.normal(0.0, spec.sigma, size=len(ids))
    seconds = np.exp(g)
    times = {tid: TimeRecord(task_id=tid, seconds=float(s))
             for tid, s in zip(ids, seconds)}
    return Corpus(clips=corpus.clips, tasks=corpus.tasks, times=times)


# ---------------------------------------------------------------------------
# sweep configuration and per-realisation evaluation

@dataclass(frozen=True)
class SweepConfig:
    systems: tuple[str, ...] = ("BP", "CP", "XP", "CXP")
    num_realisations: int = 100
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    base_seed: int = 0
    k: int = DEFAULT_K
    gbrt: GbrtParams = field(default_factory=GbrtParams)
    test_groups: tuple[str, ...] = ()   # held-out source groups for GXP
    jobs: int = 1

    def __post_init__(self):
        if not self.systems:
            raise ValidationError("no systems selected")
        seen = set()
        for system in self.systems:
            if system not in SYSTEMS:
                raise ValidationError(f"unknown system {system!r}, expected one of {SYSTEMS}")
            if system in seen:
                raise ValidationError(f"system {system!r} listed twice")
            seen.add(system)
        if self.num_realisations < 1:
            raise ValidationError(f"num_realisations must be >= 1, got {self.num_realisations}")
        if not self.c_grid:
            raise ValidationError("empty completion grid")
        for c in self.c_grid:
            if not 0.0 <= c < 1.0:
                raise ValidationError(f"completion ratios must lie in [0, 1), got {c}")
        if any(b <= a for a, b in zip(self.c_grid, self.c_grid[1:])):
            raise ValidationError("completion grid must be strictly increasing")
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {self.jobs}")
        if "GXP" in self.systems and not self.test_groups:
            raise ValidationError("GXP needs at least one held-out source group")


@dataclass(frozen=True)
class RealizationResult:
    system: str
    seed: int
    per_c: dict[float, MetricReport]


def _times_in_order(corpus: Corpus, order: Sequence[str]) -> np.ndarray:
    if corpus.times is None:
        raise ValidationError("corpus has no measured times")
    out = np.empty(len(order), dtype=np.float64)
    for i, tid in enumerate(order):
        record = corpus.times.get(tid)
        if record is None:
            raise ValidationError(f"no measured time for task {tid!r}")
        out[i] = record.seconds
    return out


def run_realization(corpus: Corpus, system: str, seed: int,
                    c_grid: Sequence[float] = DEFAULT_C_GRID, *,
                    assignment: ClusterAssignment | None = None,
                    gbrt_params: GbrtParams | None = None,
                    gxp_model: GbrtModel | None = None,
                    gxp_test_ids: Sequence[str] | None = None) -> RealizationResult:
    """Score one system over one seeded processing order.

    BP/CP/XP draw a uniform random order over all tasks; CXP uses its
    cluster-stratified order; GXP shuffles only the held-out tasks and uses
    the model trained once on the rest.
    """
    if system not in SYSTEMS:
        raise ValidationError(f"unknown system {system!r}, expected one of {SYSTEMS}")
    if system in ("CP", "CXP") and assignment is None:
        raise ValidationError(f"{system} needs a cluster assignment")
    if gbrt_params is None:
        gbrt_params = GbrtParams()

    rng = np.random.default_rng(seed)
    if system == "GXP":
        if gxp_model is None or gxp_test_ids is None:
            raise ValidationError("GXP needs a pre-trained model and the held-out task ids")
        pool = list(gxp_test_ids)
        order = [pool[i] for i in rng.permutation(len(pool))]
    elif system == "CXP":
        order = cxp_order(corpus, assignment, seed)
    else:
        ids = [t.task_id for t in corpus.tasks]
        order = [ids[i] for i in rng.permutation(len(ids))]

    N = len(order)
    t = _times_in_order(corpus, order)
    rows = labels = None
    if system == "CP":
        tmap = corpus.task_map()
        labels = np.asarray([assignment.labels[tmap[tid].clip_id] for tid in order],
                            dtype=np.int64)
    elif system != "BP":
        rows = feature_matrix(corpus, order)
    model = gxp_model if system == "GXP" else gbrt_params

    per_c: dict[float, MetricReport] = {}
    for c in c_grid:
        n_done = math.floor(c * N)
        if n_done >= N:
            raise ValidationError(f"c={c} leaves nothing to predict (N={N})")
        if n_done < 1 and system != "GXP":
            raise ValidationError(
                f"c={c}: floor(c*N)=0 completed tasks, {system} needs at least one")
        res = predict_remaining(system, t[:n_done], N, rows=rows, labels=labels, model=model)
        per_c[float(c)] = evaluate(t[n_done:], res.t_hat)
    return RealizationResult(system=system, seed=seed, per_c=per_c)


# ---------------------------------------------------------------------------
# the sweep itself

@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    mean: dict[tuple[str, float], MetricReport]       # (system, c) -> averaged metrics
    realisations: tuple[RealizationResult, ...]


def _run_one(context, job) -> RealizationResult:
    corpus, c_grid, assignment, gbrt_params, gxp_model, gxp_test_ids = context
    system, seed = job
    return run_realization(corpus, system, seed, c_grid, assignment=assignment,
                           gbrt_params=gbrt_params, gxp_model=gxp_model,
                           gxp_test_ids=gxp_test_ids)


# Set once per worker process by the pool initializer, so the corpus and
# models travel to each worker once rather than inside every job.
_worker_context = None


def _init_worker(context) -> None:
    global _worker_context
    _worker_context = context


def _run_in_worker(job) -> RealizationResult:
    return _run_one(_worker_context, job)


def _mean_report(reports: Sequence[MetricReport]) -> MetricReport:
    n = len(reports)
    return MetricReport(mape=math.fsum(r.mape for r in reports) / n,
                        r2=math.fsum(r.r2 for r in reports) / n,
                        sape=math.fsum(r.sape for r in reports) / n,
                        n=reports[0].n)


def monte_carlo(corpus: Corpus, config: SweepConfig,
                assignment: ClusterAssignment | None = None) -> SweepResult:
    """Average every selected system over seeded random orderings.

    Realisation i uses seed base_seed + i for every system, so systems that
    share the uniform ordering policy see identical orders. Results do not
    depend on scheduling: seeds fix each realisation completely.
    """
    if corpus.times is None:
        raise ValidationError("corpus has no measured times")
    needs_clusters = any(s in ("CP", "CXP") for s in config.systems)
    if needs_clusters and assignment is None:
        assignment = cluster_clips(corpus.clips, k=config.k, seed=config.base_seed)

    gxp_model = None
    gxp_test_ids = None
    if "GXP" in config.systems:
        split = gxp_train_split(corpus, config.test_groups)
        gxp_model = train(split.train_rows, split.train_targets, config.gbrt)
        gxp_test_ids = split.test_ids

    context = (corpus, config.c_grid, assignment, config.gbrt, gxp_model, gxp_test_ids)
    jobs = [(system, config.base_seed + i)
            for system in config.systems
            for i in range(config.num_realisations)]

    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs, initializer=_init_worker,
                                 initargs=(context,)) as pool:
            results = list(pool.map(_run_in_worker, jobs))
    else:
        results = [_run_one(context, job) for job in jobs]

    mean: dict[tuple[str, float], MetricReport] = {}
    R = config.num_realisations
    for s_idx, system in enumerate(config.systems):
        chunk = results[s_idx * R:(s_idx + 1) * R]
        for c in config.c_grid:
            mean[(system, float(c))] = _mean_report([r.per_c[float(c)] for r in chunk])
    return SweepResult(config=config, mean=mean, realisations=tuple(results))


# ---------------------------------------------------------------------------
# persistence

@dataclass(frozen=True)
class ReportRow:
    system: str
    c: float
    mape: float
    r2: float
    sape: float


def report_rows(result: SweepResult) -> list[ReportRow]:
    """Averaged metrics flattened in (system, c) order."""
    rows = []
    for system in result.config.systems:
        for c in result.config.c_grid:
            rep = result.mean[(system, float(c))]
            rows.append(ReportRow(system=system, c=float(c), mape=rep.mape,
                                  r2=rep.r2, sape=rep.sape))
    return rows


def write_report_csv(path, result: SweepResult) -> None:
    """Averaged metrics, one row per (system, c); float text round-trips exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for row in report_rows(result):
            writer.writerow([row.system, _fmt(row.c), _fmt(row.mape),
                             _fmt(row.r2), _fmt(row.sape)])


def write_realisations_csv(path, result: SweepResult) -> None:
    """Per-realisation metrics before averaging."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REALISATIONS_HEADER)
        for real in result.realisations:
            for c in result.config.c_grid:
                rep = real.per_c[float(c)]
                writer.writerow([real.system, real.seed, _fmt(c), _fmt(rep.mape),
                                 _fmt(rep.r2), _fmt(rep.sape), rep.n])


def load_report_csv(path) -> list[ReportRow]:
    """Read back what write_report_csv produced."""
    out: list[ReportRow] = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read report {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != REPORT_HEADER:
            raise ValidationError(f"{path}: unexpected report header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(REPORT_HEADER):
                raise ValidationError(
                    f"{path}, row {lineno}: expected {len(REPORT_HEADER)} fields, "
                    f"got {len(row)}")
            system, c, mape_v, r2_v, sape_v = row
            try:
                out.append(ReportRow(system=system, c=float(c), mape=float(mape_v),
                                     r2=float(r2_v), sape=float(sape_v)))
            except ValueError as exc:
                raise ValidationError(f"{path}, row {lineno}: {exc}") from exc
    return out
