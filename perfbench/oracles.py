"""Results recomputed apart from the program, from the paper's definitions.

Nothing here imports ``corpus_eta``: the oracles read the same CSV files the
program reads and follow the definitions in the README (metrics in linear
seconds over the queued tasks, BP as the running mean, CP as per-cluster
running means with the global mean for a cluster that has no completed task).
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 32


# ---------------------------------------------------------------------------
# per-task metrics, in the README's words

def mape(a: np.ndarray, p: np.ndarray) -> float:
    return float(np.mean(np.abs(a - p) / a)) * 100.0


def r2(a: np.ndarray, p: np.ndarray) -> float:
    mean_a = math.fsum(a.tolist()) / a.size
    ss_tot = math.fsum(((a - mean_a) ** 2).tolist())
    return 1.0 - math.fsum(((a - p) ** 2).tolist()) / ss_tot


def sape_of_totals(actual_total: float, predicted_total: float) -> float:
    return abs(actual_total - predicted_total) / actual_total * 100.0


def mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


# ---------------------------------------------------------------------------
# BP and CP under the sweep's seeded uniform orders

def sweep_baselines(ids: list[str], seconds: dict[str, float],
                    label_of_task: dict[str, int], k: int,
                    seeds: list[int], c_grid: list[float]) -> dict:
    """Expected report rows for BP and CP.

    Returns {(system, c): {"mape", "r2", "sape": [candidates]}}. BP has one
    SAPE; CP has two, the per-task sum over the queue and the paper's
    (1 - c) * sum_j M_j * mean_j, because both are faithful to the paper.
    """
    N = len(ids)
    counts = np.bincount([label_of_task[t] for t in ids], minlength=k)
    per: dict = {}
    for seed in seeds:
        order = [ids[i] for i in np.random.default_rng(seed).permutation(N)]
        t = np.asarray([seconds[tid] for tid in order], dtype=np.float64)
        labels = np.asarray([label_of_task[tid] for tid in order], dtype=np.int64)
        for c in c_grid:
            n = math.floor(c * N)
            done, actual = t[:n], t[n:]
            total_actual = math.fsum(actual.tolist())

            t_bar = math.fsum(done.tolist()) / n
            p = np.full(N - n, t_bar)
            per.setdefault(("BP", c), []).append(
                (mape(actual, p), r2(actual, p),
                 [sape_of_totals(total_actual, math.fsum(p.tolist()))]))

            means = np.full(k, t_bar)
            for j in range(k):
                member = done[labels[:n] == j]
                if member.size:
                    means[j] = math.fsum(member.tolist()) / member.size
            p = means[labels[n:]]
            paper = (1.0 - n / N) * math.fsum((counts * means).tolist())
            per.setdefault(("CP", c), []).append(
                (mape(actual, p), r2(actual, p),
                 [sape_of_totals(total_actual, math.fsum(p.tolist())),
                  sape_of_totals(total_actual, paper)]))

    out = {}
    for key, reals in per.items():
        out[key] = {"mape": mean(r[0] for r in reals),
                    "r2": mean(r[1] for r in reals),
                    "sape": [mean(r[2][i] for r in reals)
                             for i in range(len(reals[0][2]))]}
    return out


# ---------------------------------------------------------------------------
# complexity features from scipy's DCT

def _weights() -> np.ndarray:
    idx = np.arange(BLOCK, dtype=np.float64)
    w = 2.0 ** ((idx[:, None] + idx[None, :]) / 2.0 - 2.0)
    w[0, 0] = 0.0
    return w


def block_energies(luma: np.ndarray) -> np.ndarray:
    """Weighted |DCT-II| AC energy of each zero-padded 32x32 block."""
    from scipy.fft import dctn
    h, w = luma.shape
    padded = np.zeros((-(-h // BLOCK) * BLOCK, -(-w // BLOCK) * BLOCK))
    padded[:h, :w] = luma
    rows, cols = padded.shape[0] // BLOCK, padded.shape[1] // BLOCK
    blocks = padded.reshape(rows, BLOCK, cols, BLOCK).swapaxes(1, 2)
    coeffs = dctn(blocks.reshape(-1, BLOCK, BLOCK), type=2, norm="ortho", axes=(1, 2))
    return (np.abs(coeffs) * _weights()).sum(axis=(1, 2))


def clip_features(frames: list[np.ndarray]) -> tuple[float, float]:
    """Clip E (mean over frames) and h (mean block change over frames 1..n-1)."""
    energies = [block_energies(f) for f in frames]
    E = float(np.mean([e.mean() for e in energies]))
    changes = [np.abs(b - a).mean() for a, b in zip(energies, energies[1:])]
    return E, (float(np.mean(changes)) if changes else 0.0)
