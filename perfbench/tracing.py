"""Span tracing from the benchmark's own files, and the per-layer metrics.

The tracer swaps module-level names the program calls through (for example
``corpus_eta.harness.train`` and ``corpus_eta.cli.train``) for wrappers that
record a span: name, start, end and the span that caused it. Nothing inside
the program changes, and ``uninstall`` puts the original names back. Spans
stay in memory until the run ends; self times are derived from them. A call
that raises records no span; none of the wrapped calls raises in a workload.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import BENCH_DIR, child_env, run_process
from sweep import GBRT, SYSTEMS

DCT_FLOP_PER_BLOCK = 2 * 2 * 32 ** 3  # two 32x32x32 matrix products per block
MB = 1 << 20
BARE_RERUNS = 120  # encodes run again bare, which bounds a traced ingest run


@dataclass
class Span:
    sid: int
    parent: int | None   # enclosing span on the same thread
    name: str
    start: float
    end: float
    phase: str           # "extra" (smoke pass, set-up) or "round"
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "extra"
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, module, attr: str, name, info=None) -> None:
        """Prepare a wrapper for module.attr; ``name`` may be a function of the args."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            label = name(args, kwargs) if callable(name) else name
            details = info(args, kwargs, result) if info is not None else {}
            tracer.spans.append(Span(sid, parent, label, start, end, tracer.phase, details))
            return result

        self._patches.append((module, attr, original, wrapper))

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def layer_tracer() -> Tracer:
    """Wrappers at every boundary between the layers the benchmark reports."""
    from corpus_eta import cli, clustering, complexity, harness, predictors, runner

    def rows_of(a, k, r):
        return {"rows": int(np.atleast_2d(np.asarray(a[1])).shape[0])}

    def trained(a, k, r):
        return {"rows": len(a[0]), "nodes": sum(int(t.feature.size) for t in r.trees)}

    def csv_bytes(a, k, r):
        paths = (a[0], k.get("times_path"), k.get("tasks_path"))
        return {"bytes": sum(os.path.getsize(p) for p in paths if p is not None)}

    def frame(a, k, r):
        h, w = np.shape(a[0])
        return {"pixels": h * w, "blocks": math.ceil(h / 32) * math.ceil(w / 32)}

    def clip_held(a, k, r):
        jobs = k.get("jobs", a[4] if len(a) > 4 else 1)
        return {"held": a[1] * a[2] * a[3] if jobs > 1 else 0}

    def encoded(a, k, r):
        return {"input": str(a[3]), "preset": a[0].preset, "cqp": a[0].cqp}

    t = Tracer()
    for mod in (harness, cli):
        t.wrap(mod, "train", "gbrt.train", trained)
        t.wrap(mod, "cluster_clips", "clustering.cluster_clips")
        t.wrap(mod, "bp_predict", "predictors.bp_predict")
        t.wrap(mod, "cp_predict", "predictors.cp_predict")
    for mod in (harness, predictors):
        t.wrap(mod, "predict", "gbrt.predict", rows_of)
    for mod in (harness, cli, predictors):
        t.wrap(mod, "feature_matrix", "gbrt.feature_matrix",
               lambda a, k, r: {"rows": len(a[1])})
    t.wrap(clustering, "_lloyd", "clustering.lloyd", lambda a, k, r: {"iters": r[3]})
    t.wrap(harness, "cxp_order", "predictors.cxp_order")
    t.wrap(cli, "xp_predict", "predictors.xp_predict")
    t.wrap(harness, "evaluate", "metrics.evaluate")
    t.wrap(harness, "run_realization",
           lambda a, k: f"harness.run_realization.{a[1] if len(a) > 1 else k['system']}")
    t.wrap(harness, "synth_corpus", "harness.synth_corpus")
    t.wrap(cli, "load_corpus", "corpus.load_corpus", csv_bytes)
    t.wrap(cli, "cmd_predict", "cli.predict")
    t.wrap(complexity, "analyze_yuv", "complexity.analyze_yuv", clip_held)
    t.wrap(complexity, "frame_block_energies", "complexity.frame_block_energies", frame)
    t.wrap(runner, "run_encode", "runner.run_encode", encoded)
    return t


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Set-up and smoke-pass spans count once; traced rounds count as their mean."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    total, own, calls, info = (defaultdict(float) for _ in range(4))
    for s in spans:
        w = 1.0 if s.phase == "extra" else 1.0 / rounds
        total[s.name] += w * (s.end - s.start)
        own[s.name] += w * (s.end - s.start - child[s.sid])
        calls[s.name] += w
        for key, value in s.info.items():
            if isinstance(value, (int, float)):
                info[(s.name, key)] += w * value
    out = {
        "gbrt.train_s": total["gbrt.train"],
        "gbrt.train_calls": calls["gbrt.train"],
        "gbrt.train_rows": info[("gbrt.train", "rows")],
        "gbrt.tree_nodes": info[("gbrt.train", "nodes")],
        "gbrt.predict_s": total["gbrt.predict"],
        "gbrt.predict_rows": info[("gbrt.predict", "rows")],
        "gbrt.feature_matrix_s": total["gbrt.feature_matrix"],
        "gbrt.feature_matrix_rows": info[("gbrt.feature_matrix", "rows")],
        "clustering.cluster_clips_s": total["clustering.cluster_clips"],
        "clustering.calls": calls["clustering.cluster_clips"],
        "clustering.lloyd_iters": info[("clustering.lloyd", "iters")],
        "predictors.cxp_order_s": total["predictors.cxp_order"],
        "predictors.bp_predict_s": total["predictors.bp_predict"],
        "predictors.cp_predict_s": total["predictors.cp_predict"],
        "predictors.xp_predict_s": total["predictors.xp_predict"],
        "metrics.evaluate_s": total["metrics.evaluate"],
        "metrics.evaluate_calls": calls["metrics.evaluate"],
        "harness.realisations": sum(calls[f"harness.run_realization.{s}"] for s in SYSTEMS),
        "harness.synth_corpus_s": total["harness.synth_corpus"],
        "corpus.load_corpus_s": total["corpus.load_corpus"],
        "corpus.load_corpus_calls": calls["corpus.load_corpus"],
        "corpus.csv_mb_read": info[("corpus.load_corpus", "bytes")] / MB,
        "cli.predict_self_s": own["cli.predict"],
        "complexity.frame_block_energies_s": total["complexity.frame_block_energies"],
        "complexity.frames": calls["complexity.frame_block_energies"],
        "complexity.dct_gflop":
            info[("complexity.frame_block_energies", "blocks")] * DCT_FLOP_PER_BLOCK / 1e9,
        "complexity.read_mb": info[("complexity.frame_block_energies", "pixels")] / MB,
        "complexity.held_clip_mb": max((s.info["held"] for s in spans
                                        if s.name == "complexity.analyze_yuv"), default=0) / MB,
        "runner.run_encode_s": total["runner.run_encode"],
        "runner.tasks": calls["runner.run_encode"],
    }
    for system in SYSTEMS:
        out[f"harness.run_realization_self_s.{system}"] = own[f"harness.run_realization.{system}"]
    return out


def runner_overhead_ms(spans: list[Span], scratch: Path) -> float:
    """Mean of run_encode's wall time minus the same stand-in argv run bare,
    over the first BARE_RERUNS encodes of the run."""
    scratch.mkdir(parents=True, exist_ok=True)
    output = scratch / "bare.out"
    gaps = []
    for s in [s for s in spans if s.name == "runner.run_encode"][:BARE_RERUNS]:
        argv = [sys.executable, "-I", "-S", str(BENCH_DIR / "standin_encoder.py"),
                "--preset", s.info["preset"], "--qp", str(s.info["cqp"]),
                "-o", str(output), s.info["input"]]
        start = time.perf_counter()
        subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        gaps.append((s.end - s.start) - (time.perf_counter() - start))
        output.unlink()
    return statistics.fmean(gaps) * 1e3


def fixed_size_probes(seed: int, log_dir: Path) -> dict[str, float]:
    """Per-layer timings at fixed input sizes, independent of the workload."""
    from corpus_eta import complexity, gbrt, harness

    corpus = harness.synth_corpus(harness.SynthSpec(n_clips=600), seed=seed)
    ids = [t.task_id for t in corpus.tasks]
    order = [ids[i] for i in np.random.default_rng(seed).permutation(len(ids))]
    X = gbrt.feature_matrix(corpus, order)
    y = np.log([corpus.times[t].seconds for t in order])
    params = gbrt.GbrtParams(**GBRT)

    def median_ms(fn, repeats):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) * 1e3

    out = {f"gbrt.train_{n}_ms": median_ms(lambda n=n: gbrt.train(X[:n], y[:n], params), 3)
           for n in (144, 720, 2880)}
    model = gbrt.train(X[:2880], y[:2880], params)
    out["gbrt.predict_7200_ms"] = median_ms(lambda: gbrt.predict(model, X), 5)
    luma = np.random.default_rng(seed).integers(0, 256, (1080, 1920), dtype=np.uint8)
    out["complexity.block_energy_1080p_ms"] = median_ms(
        lambda: complexity.frame_block_energies(luma), 5)

    code = ("import time; t = time.perf_counter(); import corpus_eta.cli; "
            "print(time.perf_counter() - t)")
    out["cli.import_s"] = statistics.median(
        float(run_process([sys.executable, "-c", code], log_dir, child_env()).stdout)
        for _ in range(3))
    return out
