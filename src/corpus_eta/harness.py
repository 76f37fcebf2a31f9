"""Monte-Carlo evaluation of remaining-time predictors over random corpus orderings.

Each realisation fixes a processing order for the tasks, then walks a grid of
completion ratios c. At every grid point the tasks before floor(c*N) count as
completed and the chosen system predicts the per-task times of the remainder;
per-task and aggregate errors are scored in linear seconds.
"""

from __future__ import annotations

import functools
import math
import os
import signal
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .clustering import DEFAULT_K, ClusterAssignment, cluster_clips
from .corpus import (Clip, Corpus, TimeRecord, expand_tasks, float_text, parse_field,
                     read_csv, write_csv)
from .errors import ValidationError
from .gbrt import GbrtModel, GbrtParams, feature_matrix, train
from .metrics import MetricReport, evaluate
from .predictors import SYSTEMS, Forecast, cxp_order, gxp_train_split

# Nothing here calls these; perfbench/tracing.py wraps them as attributes
# of this module, so they stay importable from it.
from .gbrt import predict  # noqa: F401
from .predictors import bp_predict, cp_predict  # noqa: F401

# 2% increments, full completion excluded (nothing left to predict there)
DEFAULT_C_GRID = tuple(i / 50.0 for i in range(1, 50))

REPORT_HEADER = ["system", "c", "mape", "r2", "sape"]
REALISATIONS_HEADER = ["system", "seed", "c", "mape", "r2", "sape", "n", "signed_sape"]


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
    tasks = expand_tasks(clips, spec.encoders)
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
    jobs: int | None = None             # worker processes; None: one per usable CPU

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
        if self.jobs is not None and self.jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {self.jobs}")
        if "GXP" in self.systems and not self.test_groups:
            raise ValidationError("GXP needs at least one held-out source group")


@dataclass(frozen=True)
class RealizationResult:
    system: str
    seed: int
    per_c: dict[float, MetricReport]


def run_realization(corpus: Corpus, system: str, seed: int,
                    c_grid: Sequence[float] = DEFAULT_C_GRID, *,
                    assignment: ClusterAssignment | None = None,
                    model: GbrtModel | GbrtParams = GbrtParams(),
                    gxp_test_ids: Sequence[str] | None = None) -> RealizationResult:
    """Score one system over one seeded processing order.

    BP/CP/XP draw a uniform random order over all tasks; CXP uses its
    cluster-stratified order; GXP shuffles only the held-out tasks. ``model``
    is what XP and CXP fit with, or GXP's model trained once on the rest.
    """
    if system == "CXP" and assignment is None:
        raise ValidationError("CXP needs a cluster assignment")
    if system == "GXP" and gxp_test_ids is None:
        raise ValidationError("GXP needs the held-out task ids")

    if system == "CXP":
        order = cxp_order(corpus, assignment, seed)
    else:
        pool = gxp_test_ids if system == "GXP" else [t.task_id for t in corpus.tasks]
        order = [pool[i] for i in np.random.default_rng(seed).permutation(len(pool))]

    # one Forecast walks the grid, so each c-point starts from the work of the
    # last: XP and CXP's fitted stages, GXP's output on every held-out task
    forecast = Forecast(system, corpus, order, assignment=assignment, model=model)
    N = len(order)
    t = corpus.seconds_of(order)
    per_c: dict[float, MetricReport] = {}
    for c in c_grid:
        n_done = math.floor(c * N)
        if n_done >= N:
            raise ValidationError(f"c={c} leaves nothing to predict (N={N})")
        if n_done < 1 and system != "GXP":
            raise ValidationError(
                f"c={c}: floor(c*N)=0 completed tasks, {system} needs at least one")
        res = forecast.at(t[:n_done])
        per_c[float(c)] = evaluate(t[n_done:], res.t_hat)
    return RealizationResult(system=system, seed=seed, per_c=per_c)


# ---------------------------------------------------------------------------
# the sweep itself

@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    mean: dict[tuple[str, float], MetricReport]       # (system, c) -> averaged metrics
    realisations: tuple[RealizationResult, ...]


# Set once per worker process by the pool initializer, so the corpus travels to
# each worker once rather than inside every job.
_worker_context = None


def _init_worker(context) -> None:
    # Ctrl-C reaches the whole process group; only the parent acts on it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _worker_context
    _worker_context = context


def _in_worker(fn, *args):
    return fn(_worker_context, *args)


class _InProcess:
    """The executor for one worker: each job runs in this process as it is
    submitted, and a job that raises raises from ``submit``."""

    def __init__(self, context):
        self.context = context

    def submit(self, fn, *args) -> Future:
        future = Future()
        future.set_result(fn(self.context, *args))
        return future

    def shutdown(self, cancel_futures: bool = False) -> None:
        pass


# Jobs take the (corpus, c_grid, gbrt_params) context first; what the set-up
# jobs produce travels inside the realisation jobs that need it.

def _cluster_job(context, k: int, seed: int) -> ClusterAssignment:
    return cluster_clips(context[0].clips, k=k, seed=seed)


def _train_job(context, rows: np.ndarray, targets: np.ndarray) -> GbrtModel:
    return train(rows, targets, context[2])


def _realisation_job(context, system: str, seed: int, inputs: dict) -> RealizationResult:
    corpus, c_grid, gbrt_params = context
    inputs = {"model": gbrt_params, **inputs}  # GXP's inputs carry its trained model
    return run_realization(corpus, system, seed, c_grid, **inputs)


def _worker_count(jobs: int | None, n_jobs: int) -> int:
    """Worker processes for n_jobs realisations: ``jobs``, or when it is None
    one per CPU this process may use; never more than n_jobs."""
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            jobs = os.cpu_count() or 1
    return min(jobs, n_jobs)


def _mean_report(reports: Sequence[MetricReport]) -> MetricReport:
    n = len(reports)
    return MetricReport(mape=math.fsum(r.mape for r in reports) / n,
                        r2=math.fsum(r.r2 for r in reports) / n,
                        sape=math.fsum(r.sape for r in reports) / n,
                        n=reports[0].n,
                        signed_sape=math.fsum(r.signed_sape for r in reports) / n)


def monte_carlo(corpus: Corpus, config: SweepConfig,
                assignment: ClusterAssignment | None = None) -> SweepResult:
    """Average every selected system over seeded random orderings.

    Realisation i uses seed base_seed + i for every system, so systems that
    share the uniform ordering policy see identical orders. Realisations run
    in ``config.jobs`` worker processes, by default one per CPU this process
    may use; with one worker they run in this process. The workers fork as
    soon as the corpus is loaded. Jobs are queued in program order: k-means
    and the GXP fit, then BP and XP, then CP and CXP once the clusters are
    back, then GXP once its model is. Results do not depend on scheduling:
    seeds fix each realisation completely, and results are reassembled in
    config order.
    """
    if corpus.times is None:
        raise ValidationError("corpus has no measured times")
    # in the parent, so that a bad held-out group fails before any worker starts
    split = gxp_train_split(corpus, config.test_groups) if "GXP" in config.systems else None
    seeds = range(config.base_seed, config.base_seed + config.num_realisations)

    context = (corpus, config.c_grid, config.gbrt)
    workers = _worker_count(config.jobs, len(config.systems) * len(seeds))
    if workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                   initargs=(context,))
        submit = functools.partial(pool.submit, _in_worker)
    else:
        pool = _InProcess(context)
        submit = pool.submit

    futures: dict[tuple[str, int], Future] = {}

    def queue(systems, inputs: dict) -> None:
        for system in systems:
            if system in config.systems:
                for seed in seeds:
                    futures[(system, seed)] = submit(_realisation_job, system, seed, inputs)

    try:
        clusters = model = None
        if assignment is None and {"CP", "CXP"} & set(config.systems):
            clusters = submit(_cluster_job, config.k, config.base_seed)
        if split is not None:
            model = submit(_train_job, split.train_rows, split.train_targets)
        # each group heaviest first: XP and CXP refit GBRT stages at every c-point
        queue(("XP", "BP"), {})
        if clusters is not None:
            assignment = clusters.result()
        queue(("CXP", "CP"), {"assignment": assignment})
        if model is not None:
            queue(("GXP",), {"model": model.result(), "gxp_test_ids": split.test_ids})
        results = [futures[(system, seed)].result()
                   for system in config.systems for seed in seeds]
    finally:
        # cancel_futures drops the queued jobs when a job fails or Ctrl-C lands
        pool.shutdown(cancel_futures=True)

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
    write_csv(path, REPORT_HEADER,
              ([row.system, float_text(row.c), float_text(row.mape), float_text(row.r2),
                float_text(row.sape)] for row in report_rows(result)))


def write_realisations_csv(path, result: SweepResult) -> None:
    """Per-realisation metrics before averaging."""
    rows = []
    for real in result.realisations:
        for c in result.config.c_grid:
            rep = real.per_c[float(c)]
            rows.append([real.system, real.seed, float_text(c), float_text(rep.mape),
                         float_text(rep.r2), float_text(rep.sape), rep.n,
                         float_text(rep.signed_sape)])
    write_csv(path, REALISATIONS_HEADER, rows)


def load_report_csv(path) -> list[ReportRow]:
    """Read back what write_report_csv produced."""
    return [ReportRow(system=system, c=parse_field(path, lineno, "c", c, float),
                      mape=parse_field(path, lineno, "mape", mape, float),
                      r2=parse_field(path, lineno, "r2", r2, float),
                      sape=parse_field(path, lineno, "sape", sape, float))
            for lineno, (system, c, mape, r2, sape) in read_csv(path, REPORT_HEADER)]
