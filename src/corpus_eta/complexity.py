"""Spatial/temporal complexity features from raw YUV420p 8-bit video.

Per 32x32 luma block we take a 2-D orthonormal DCT-II and sum the weighted
magnitudes of the AC coefficients; the DC term is excluded so a flat block
scores zero.  Coefficient (i, j) is weighted by 2^((i + j) / 2 - 2), which
emphasises high-frequency texture.  Frame-level spatial energy is the mean
block energy, temporal energy is the mean absolute change of each block's
energy against the previous frame, and brightness is the plain mean of the
luma samples.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .corpus import float_text, write_csv
from .errors import ValidationError

BLOCK_SIZE = 32


@dataclass(frozen=True)
class FrameFeatures:
    frame_index: int
    E_frame: float
    h_frame: float  # 0 for the first frame, which has no predecessor
    luma_frame: float


@dataclass(frozen=True)
class ClipComplexity:
    """Clip-level averages: E over all frames, h over frames 1..n-1."""

    E: float
    h: float
    luma: float
    num_frames: int


@lru_cache(maxsize=None)
def _dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix; row i holds the i-th cosine basis vector."""
    x = np.arange(n, dtype=np.float64)
    i = x[:, None]
    basis = np.cos(np.pi * (2.0 * x[None, :] + 1.0) * i / (2.0 * n))
    basis *= np.sqrt(2.0 / n)
    basis[0, :] = np.sqrt(1.0 / n)
    return basis


@lru_cache(maxsize=None)
def _energy_weights(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.float64)
    weights = 2.0 ** ((idx[:, None] + idx[None, :]) / 2.0 - 2.0)
    weights[0, 0] = 0.0  # DC excluded
    return weights


def block_dct_energy(block: np.ndarray) -> float:
    """Weighted AC energy of one fully populated square luma block."""
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ValidationError(f"block must be square 2-D, got shape {block.shape}")
    n = block.shape[0]
    basis = _dct_basis(n)
    # The DC weight is zero, so removing the mean cannot change the result;
    # it does let a flat block cancel to exactly 0 instead of rounding noise.
    coeffs = basis @ (block - block.mean()) @ basis.T
    return float(np.sum(_energy_weights(n) * np.abs(coeffs)))


def frame_block_energies(luma: np.ndarray) -> np.ndarray:
    """Per-block weighted AC energies of one luma plane, row-major block order.

    Partial edge blocks are zero-padded. The frame is transformed one row of
    blocks at a time, so the float64 working set is a few strips of
    BLOCK_SIZE rows rather than several copies of the whole frame.
    """
    luma = np.asarray(luma)
    height, width = luma.shape
    rows, cols = -(-height // BLOCK_SIZE), -(-width // BLOCK_SIZE)
    basis = _dct_basis(BLOCK_SIZE)
    weights = _energy_weights(BLOCK_SIZE)
    strip = np.zeros((BLOCK_SIZE, cols * BLOCK_SIZE))
    energies = np.empty(rows * cols)
    for row in range(rows):
        part = luma[row * BLOCK_SIZE:(row + 1) * BLOCK_SIZE]
        strip[:part.shape[0], :width] = part
        strip[part.shape[0]:] = 0.0  # only the last strip can be short
        # A contiguous copy: centring in place must not touch the strip's
        # zero padding, and the block means' summation order must not depend
        # on how many block rows the frame has.
        blocks = strip.reshape(BLOCK_SIZE, cols, BLOCK_SIZE).transpose(1, 0, 2).copy()
        blocks -= blocks.mean(axis=(1, 2), keepdims=True)
        coeffs = np.abs(basis @ blocks @ basis.T)
        energies[row * cols:(row + 1) * cols] = np.einsum("bij,ij->b", coeffs, weights)
    return energies


def _frame_stats(luma: np.ndarray) -> tuple[np.ndarray, float]:
    return frame_block_energies(luma), float(np.mean(luma, dtype=np.float64))


def _frame_stats_in_order(frames, jobs: int):
    """Yield ``_frame_stats`` per frame in order, with at most ``jobs`` frames held."""
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending = deque()
        for frame in frames:
            pending.append(pool.submit(_frame_stats, frame))
            if len(pending) == jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def analyze_frames(frames, jobs: int = 1) -> tuple[list[FrameFeatures], ClipComplexity]:
    """Compute per-frame and clip-level features from an iterable of luma planes.

    Per-frame work is independent; frames are handed to a pool of ``jobs``
    threads as they are read, at most ``jobs`` at a time, and reduced in index
    order, so the result is identical for any worker count.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    features: list[FrameFeatures] = []
    prev_energies = None
    for index, (energies, luma_mean) in enumerate(_frame_stats_in_order(frames, jobs)):
        e_frame = float(np.mean(energies))
        if prev_energies is None:
            h_frame = 0.0
        else:
            h_frame = float(np.mean(np.abs(energies - prev_energies)))
        features.append(FrameFeatures(index, e_frame, h_frame, luma_mean))
        prev_energies = energies
    if not features:
        raise ValidationError("no frames to analyze")

    n = len(features)
    clip = ClipComplexity(
        E=float(np.mean([f.E_frame for f in features])),
        h=float(np.mean([f.h_frame for f in features[1:]])) if n > 1 else 0.0,
        luma=float(np.mean([f.luma_frame for f in features])),
        num_frames=n)
    return features, clip


def read_yuv420p_luma(path, width: int, height: int, num_frames: int):
    """Yield luma planes of a raw planar YUV420p 8-bit file, one per frame."""
    if num_frames < 1:
        raise ValidationError(f"num_frames must be >= 1, got {num_frames}")
    if width < 1 or height < 1:
        raise ValidationError(f"frame size must be positive, got {width}x{height}")
    if width % 2 or height % 2:
        raise ValidationError(f"YUV420p needs even dimensions, got {width}x{height}")
    path = Path(path)
    luma_bytes = width * height
    frame_bytes = luma_bytes * 3 // 2
    expected = frame_bytes * num_frames
    try:
        actual = path.stat().st_size
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if actual != expected:
        raise ValidationError(
            f"{path}: size {actual} does not match {width}x{height} YUV420p 8-bit "
            f"x {num_frames} frames ({expected} bytes)")
    with open(path, "rb") as fh:
        for _ in range(num_frames):
            raw = fh.read(luma_bytes)
            yield np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
            fh.seek(luma_bytes // 2, 1)  # skip the two chroma planes


def analyze_yuv(path, width: int, height: int, num_frames: int,
                jobs: int = 1) -> tuple[list[FrameFeatures], ClipComplexity]:
    """Analyze a raw YUV420p file; see ``analyze_frames`` for the feature math."""
    frames = read_yuv420p_luma(path, width, height, num_frames)
    return analyze_frames(frames, jobs=jobs)


def write_frame_features_csv(path, features: list[FrameFeatures]) -> None:
    write_csv(path, ["frame_index", "E", "h", "luma"],
              ([f.frame_index, float_text(f.E_frame), float_text(f.h_frame),
                float_text(f.luma_frame)] for f in features))
