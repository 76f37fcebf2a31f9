"""Command-line entry points.

Exit codes: 0 on success, 1 when input data or arguments fail validation,
2 when something breaks at runtime (an encode fails, a file vanishes), 64
for malformed command lines, and 130 when interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from fractions import Fraction

from . import complexity, corpus as corpus_mod
from .clustering import DEFAULT_K, cluster_clips, save_centroids_csv, save_clusters_csv
from .config import load_config
from .corpus import (DEFAULT_ENCODERS, Clip, float_text, load_corpus, load_features_csv,
                     save_corpus, write_csv)
from .errors import CorpusEtaError, ValidationError
from .gbrt import GbrtParams, load_model, save_model
from .harness import (SweepConfig, SynthSpec, load_report_csv, monte_carlo,
                      synth_corpus, write_realisations_csv, write_report_csv)
from .predictors import SYSTEMS, Forecast, cascade_select
from .runner import CommandTemplate, batch_encode

# Nothing here calls these; perfbench/tracing.py wraps them as attributes
# of this module, so they stay importable from it.
from .gbrt import feature_matrix, train  # noqa: F401
from .predictors import bp_predict, cp_predict, xp_predict  # noqa: F401

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; reserve 2 for runtime failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """argparse type of the seed flags: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _gbrt_params(args) -> GbrtParams:
    return GbrtParams(num_trees=args.trees, max_depth=args.depth,
                      learning_rate=args.learning_rate, min_samples_leaf=args.min_leaf)


def _hms(seconds: float) -> str:
    return str(datetime.timedelta(seconds=round(seconds)))


def _save_corpus_dir(corpus, out_dir) -> None:
    """features.csv, tasks.csv and (when measured) times.csv under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    save_corpus(corpus, os.path.join(out_dir, "features.csv"),
                os.path.join(out_dir, "tasks.csv"),
                os.path.join(out_dir, "times.csv") if corpus.times is not None else None)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args) -> int:
    corpus = load_corpus(args.features, times_path=args.times, tasks_path=args.tasks,
                         encoders=args.encoders)
    completed = len(corpus.times) if corpus.times is not None else 0
    print(f"clips: {len(corpus.clips)}")
    print(f"tasks: {corpus.N}")
    print(f"completed: {completed} (c={completed / corpus.N:.4f})")
    if args.out_dir is not None:
        _save_corpus_dir(corpus, args.out_dir)
        print(f"wrote normalized corpus to {args.out_dir}")
    return 0


def _infer_num_frames(path, width: int, height: int) -> int:
    frame_bytes = width * height * 3 // 2
    size = os.path.getsize(path)
    if size == 0 or size % frame_bytes:
        raise ValidationError(
            f"{path}: size {size} is not a whole number of {width}x{height} "
            f"YUV420p frames ({frame_bytes} bytes each)")
    return size // frame_bytes


def cmd_analyze(args) -> int:
    # checked before any frame is read, so a bad request costs no DCT work
    if args.width < 1 or args.height < 1:
        raise ValidationError(f"frame size must be positive, got {args.width}x{args.height}")
    if args.framerate_num < 1 or args.framerate_den < 1:
        raise ValidationError(f"framerate must be positive, got "
                              f"{args.framerate_num}/{args.framerate_den}")
    existing: list[Clip] = []
    if args.features_out is not None:
        if args.clip_id is None:
            raise ValidationError("--clip-id is required with --features-out")
        if (args.append and os.path.exists(args.features_out)
                and os.path.getsize(args.features_out) > 0):
            existing = load_features_csv(args.features_out)
            if any(c.clip_id == args.clip_id for c in existing):
                raise ValidationError(
                    f"clip {args.clip_id!r} already present in {args.features_out}")
    num_frames = _infer_num_frames(args.yuv, args.width, args.height)
    frames, clip_stats = complexity.analyze_yuv(
        args.yuv, args.width, args.height, num_frames, jobs=args.jobs)
    print(f"frames: {num_frames}")
    print(f"E: {clip_stats.E!r}")
    print(f"h: {clip_stats.h!r}")
    print(f"luma: {clip_stats.luma!r}")

    if args.frames_out is not None:
        complexity.write_frame_features_csv(args.frames_out, frames)
        print(f"wrote per-frame features to {args.frames_out}")

    if args.features_out is not None:
        clip = Clip(clip_id=args.clip_id, width=args.width, height=args.height,
                    framerate=Fraction(args.framerate_num, args.framerate_den),
                    num_frames=num_frames, E=clip_stats.E, h=clip_stats.h,
                    luma=clip_stats.luma, source_group=args.source_group)
        corpus_mod.save_features_csv(args.features_out, existing + [clip])
        print(f"wrote clip features to {args.features_out}")
    return 0


def cmd_cluster(args) -> int:
    clips = load_features_csv(args.features)
    assignment = cluster_clips(clips, k=args.k, seed=args.seed)
    save_clusters_csv(args.out, assignment)
    if args.centroids_out is not None:
        save_centroids_csv(args.centroids_out, assignment)
    sizes = ",".join(str(int(s)) for s in assignment.sizes)
    print(f"k: {assignment.k}")
    print(f"iterations: {assignment.n_iter}")
    print(f"sizes: {sizes}")
    print(f"sse: {assignment.sse_per_iter[-1]!r}")
    print(f"wrote cluster labels to {args.out}")
    return 0


def cmd_encode(args) -> int:
    corpus = load_corpus(args.features, tasks_path=args.tasks, encoders=args.encoders)
    template = CommandTemplate(args.template)
    if (not args.resume and os.path.exists(args.out)
            and os.path.getsize(args.out) > 0):
        raise ValidationError(
            f"{args.out} already has measurements; pass --resume to continue it")
    summary = batch_encode(corpus, template, args.input_dir, args.out,
                           args.scratch, concurrency=args.concurrency,
                           fail_fast=args.fail_fast, keep_output=args.keep_output)
    print(f"requested: {summary.requested}")
    print(f"skipped (already measured): {summary.skipped}")
    print(f"succeeded: {summary.succeeded}")
    print(f"failed: {len(summary.failed)}")
    if summary.aborted:
        print(f"aborted by fail-fast: {summary.aborted}")
    if summary.failed:
        print("failed tasks: " + ", ".join(summary.failed), file=sys.stderr)
        return 2
    return 0


def _split_labels(values) -> tuple[str, ...]:
    """Accept both repeated flags and comma-joined lists (BP,CP,XP)."""
    out: list[str] = []
    for value in values:
        out.extend(part for part in value.split(",") if part)
    return tuple(out)


def cmd_simulate(args) -> int:
    if args.synthetic:
        spec = SynthSpec(n_clips=args.n_clips, encoders=tuple(args.encoders or SynthSpec.encoders),
                         sigma=args.sigma, num_groups=args.num_groups)
        corpus = synth_corpus(spec, seed=args.seed)
    else:
        if args.features is None or args.times is None:
            raise ValidationError(
                "pass --synthetic, or --features and --times for a measured corpus")
        corpus = load_corpus(args.features, times_path=args.times, tasks_path=args.tasks,
                             encoders=args.encoders or DEFAULT_ENCODERS)
    if args.corpus_out is not None:
        _save_corpus_dir(corpus, args.corpus_out)
        print(f"wrote corpus CSVs to {args.corpus_out}")

    # checked before the sweep, which can run for minutes
    for flag, path in (("--report-out", args.report_out),
                       ("--realisations-out", args.realisations_out)):
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValidationError(f"{flag}: directory of {path} does not exist")
    sweep = SweepConfig(
        systems=_split_labels(args.systems),
        num_realisations=args.realisations,
        c_grid=tuple(args.c_grid),
        base_seed=args.base_seed,
        k=args.k,
        gbrt=_gbrt_params(args),
        test_groups=_split_labels(args.test_groups),
        jobs=args.jobs)
    result = monte_carlo(corpus, sweep)
    write_report_csv(args.report_out, result)
    print(f"wrote report to {args.report_out}")
    if args.realisations_out is not None:
        write_realisations_csv(args.realisations_out, result)
        print(f"wrote per-realisation metrics to {args.realisations_out}")
    return 0


def cmd_predict(args) -> int:
    """One-shot prediction: the completed tasks in times.csv row order, which is
    the order they finished, then the queued ones in corpus order."""
    cascade = load_config(args.config)
    corpus = load_corpus(args.features, times_path=args.times, tasks_path=args.tasks,
                         encoders=args.encoders)
    times = corpus.times or {}
    done = list(times)
    queued = [t.task_id for t in corpus.tasks if t.task_id not in times]
    if not queued:
        raise ValidationError("every task already has a measured time; nothing to predict")
    system = args.system or cascade_select(cascade, len(done) / corpus.N)

    assignment = model = None
    if system == "CP":
        assignment = cluster_clips(corpus.clips, k=args.k, seed=args.seed)
    elif system != "BP":
        if args.model_in is not None:
            model = load_model(args.model_in)
        elif system == "GXP":
            raise ValidationError("GXP predicts with a model trained elsewhere; "
                                  "pass --model-in")
        else:
            model = _gbrt_params(args)
    result = Forecast(system, corpus, done + queued, assignment=assignment,
                      model=model).at(corpus.seconds_of(done))
    if args.model_out is not None and result.model is not None:
        save_model(args.model_out, result.model)

    if args.per_task_out is not None:
        write_csv(args.per_task_out, ["task_id", "predicted_seconds"],
                  ([tid, float_text(seconds)] for tid, seconds
                   in sorted(zip(queued, result.t_hat.tolist()))))

    doc = {
        "system": result.system,
        "c": result.c,
        "total_tasks": corpus.N,
        "completed": len(done),
        "remaining": len(queued),
        "T_hat_seconds": result.T_hat,
        "T_hat_hms": _hms(result.T_hat),
    }
    if result.t_bar is not None:
        doc["mean_completed_seconds"] = result.t_bar
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    rows = load_report_csv(args.report)
    if args.system:
        wanted = set(args.system)
        rows = [r for r in rows if r.system in wanted]
    if args.c:
        wanted_c = set(args.c)
        rows = [r for r in rows if any(abs(r.c - w) < 1e-12 for w in wanted_c)]
    if not rows:
        raise ValidationError("no report rows match the requested filters")
    if args.json:
        print(json.dumps([{"system": r.system, "c": r.c, "mape": r.mape,
                           "r2": r.r2, "sape": r.sape} for r in rows]))
        return 0
    print(f"{'system':<8}{'c':>6}{'MAPE%':>12}{'R2':>12}{'SAPE%':>12}")
    for r in rows:
        print(f"{r.system:<8}{r.c:>6.2f}{r.mape:>12.3f}{r.r2:>12.4f}{r.sape:>12.3f}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _add_gbrt_flags(p) -> None:
    """GBRT flags shared by simulate and predict; ``_gbrt_params`` reads them."""
    gbrt = GbrtParams()
    p.add_argument("--trees", type=int, default=gbrt.num_trees,
                   help="boosting rounds (default %(default)s)")
    p.add_argument("--depth", type=int, default=gbrt.max_depth,
                   help="tree depth (default %(default)s)")
    p.add_argument("--learning-rate", type=float, default=gbrt.learning_rate,
                   help="shrinkage (default %(default)s)")
    p.add_argument("--min-leaf", type=int, default=gbrt.min_samples_leaf,
                   help="fewest rows in a leaf (default %(default)s)")


def build_parser() -> _Parser:
    spec, sweep = SynthSpec(), SweepConfig()
    parser = _Parser(
        prog="corpus-eta",
        description="Predict how long the rest of a video encode corpus will take.",
        epilog="exit codes: 0 ok, 1 invalid input, 2 runtime failure, 64 usage, "
               "130 interrupted")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate corpus CSVs and expand the task grid")
    p.add_argument("--features", required=True, help="clip features CSV")
    p.add_argument("--times", default=None, help="measured times CSV")
    p.add_argument("--tasks", default=None,
                   help="task list CSV; omitted means expand clips x encoders x presets x CQPs")
    p.add_argument("--encoders", nargs="+", default=list(DEFAULT_ENCODERS))
    p.add_argument("--out-dir", default=None, help="write normalized CSVs here")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("analyze", help="complexity features from a raw YUV420p file")
    p.add_argument("--yuv", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--framerate-num", type=int, default=30)
    p.add_argument("--framerate-den", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1, help="frame-level worker threads")
    p.add_argument("--frames-out", default=None, help="per-frame feature CSV")
    p.add_argument("--features-out", default=None, help="clip features CSV to write")
    p.add_argument("--append", action="store_true",
                   help="append to --features-out instead of overwriting")
    p.add_argument("--clip-id", default=None)
    p.add_argument("--source-group", default="default")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cluster", help="k-means over standardized clip features")
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_K, help="clusters (default %(default)s)")
    p.add_argument("--seed", type=_seed, default=0, help="centroid seeding (default %(default)s)")
    p.add_argument("--out", required=True, help="clip_id,cluster CSV")
    p.add_argument("--centroids-out", default=None)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("encode", help="run encode commands and record wall-clock times")
    p.add_argument("--features", required=True)
    p.add_argument("--tasks", default=None)
    p.add_argument("--encoders", nargs="+", default=list(DEFAULT_ENCODERS))
    p.add_argument("--input-dir", required=True, help="directory holding source clips")
    p.add_argument("--template", required=True,
                   help="command template, e.g. 'x264 --preset {preset} --qp {cqp} "
                        "-o {output} {input}'")
    p.add_argument("--out", required=True, help="times CSV to write")
    p.add_argument("--scratch", required=True, help="directory for outputs and logs")
    p.add_argument("--concurrency", type=int, default=1,
                   help="simultaneous encodes; above 1 distorts timing via contention")
    p.add_argument("--resume", action="store_true",
                   help="continue an existing times CSV, skipping measured tasks")
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--keep-output", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("simulate",
                       help="Monte-Carlo sweep of the predictors over corpus orderings")
    p.add_argument("--synthetic", action="store_true",
                   help="generate the corpus instead of reading CSVs")
    p.add_argument("--features", default=None, help="measured corpus: features CSV")
    p.add_argument("--times", default=None, help="measured corpus: times CSV")
    p.add_argument("--tasks", default=None, help="measured corpus: tasks CSV")
    p.add_argument("--n-clips", type=int, default=spec.n_clips,
                   help="synthetic corpus size (default %(default)s)")
    p.add_argument("--encoders", nargs="+", default=None,
                   help=f"encoders to expand tasks over (default: {','.join(spec.encoders)} "
                        f"for --synthetic, else {','.join(DEFAULT_ENCODERS)})")
    p.add_argument("--sigma", type=float, default=spec.sigma,
                   help="lognormal time noise (default %(default)s)")
    p.add_argument("--num-groups", type=int, default=spec.num_groups,
                   help="synthetic source groups (default %(default)s)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="corpus generation seed (default %(default)s)")
    p.add_argument("--systems", nargs="+", default=sweep.systems,
                   help="subset of BP,CP,XP,CXP,GXP; commas or repeats both work "
                        f"(default {','.join(sweep.systems)})")
    p.add_argument("--realisations", type=int, default=sweep.num_realisations,
                   help="replay orders per system (default %(default)s)")
    p.add_argument("--base-seed", type=_seed, default=sweep.base_seed,
                   help="ordering seed for realisation 0 (default %(default)s)")
    grid = sweep.c_grid
    p.add_argument("--c-grid", type=float, nargs="+", default=grid,
                   help=f"completion ratios (default {len(grid)} points, "
                        f"{grid[0]:g} to {grid[-1]:g})")
    p.add_argument("--k", type=int, default=sweep.k,
                   help="clusters for CP and CXP (default %(default)s)")
    p.add_argument("--test-groups", nargs="+", default=sweep.test_groups,
                   help="held-out source groups (required for GXP)")
    _add_gbrt_flags(p)
    p.add_argument("--jobs", type=int, default=sweep.jobs,
                   help="realisation worker processes (default: one per usable CPU)")
    p.add_argument("--report-out", required=True)
    p.add_argument("--realisations-out", default=None)
    p.add_argument("--corpus-out", default=None,
                   help="also write the corpus CSVs here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("predict",
                       help="predict remaining wall-clock time for a corpus")
    p.add_argument("--features", required=True)
    p.add_argument("--times", default=None, help="measured times so far")
    p.add_argument("--tasks", default=None)
    p.add_argument("--encoders", nargs="+", default=list(DEFAULT_ENCODERS))
    p.add_argument("--system", choices=list(SYSTEMS), default=None,
                   help="default: the cascade picks one from the completion ratio")
    p.add_argument("--config", default=None,
                   help="YAML file with the cascade policy (bounds and systems)")
    p.add_argument("--k", type=int, default=DEFAULT_K,
                   help="clusters for CP (default %(default)s)")
    p.add_argument("--seed", type=_seed, default=0, help="clustering seed (default %(default)s)")
    _add_gbrt_flags(p)
    p.add_argument("--model-in", default=None, help="load a trained model (JSON)")
    p.add_argument("--model-out", default=None, help="save the trained model (JSON)")
    p.add_argument("--per-task-out", default=None, help="per-task prediction CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="render a sweep report CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--system", nargs="+", default=None, choices=list(SYSTEMS))
    p.add_argument("--c", type=float, nargs="+", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("corpus-eta: interrupted", file=sys.stderr)
        return 130
    except ValidationError as exc:
        print(f"corpus-eta: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # unreadable/unwritable paths are an input problem, not a crash
        print(f"corpus-eta: error: {exc}", file=sys.stderr)
        return 1
    except CorpusEtaError as exc:
        print(f"corpus-eta: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"corpus-eta: unexpected error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
