"""Test-only reference: the whole-frame block-energy path.

The luma plane is converted to float64 in one piece, zero-padded to whole
32x32 blocks, cut into every block of the frame at once and transformed as
one batch. It needs several float64 copies of the frame, which is why the
production code walks one block row at a time instead; for 8-bit input the
two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from corpus_eta.complexity import BLOCK_SIZE, _dct_basis, _energy_weights


def _pad_to_blocks(luma: np.ndarray) -> np.ndarray:
    """Zero-pad so both dimensions are multiples of the block size."""
    height, width = luma.shape
    pad_h = (-height) % BLOCK_SIZE
    pad_w = (-width) % BLOCK_SIZE
    if pad_h or pad_w:
        luma = np.pad(luma, ((0, pad_h), (0, pad_w)))
    return luma


def reference_frame_block_energies(luma: np.ndarray) -> np.ndarray:
    """Per-block weighted AC energies of one luma plane, row-major block order."""
    luma = np.asarray(luma, dtype=np.float64)
    padded = _pad_to_blocks(luma)
    rows, cols = padded.shape[0] // BLOCK_SIZE, padded.shape[1] // BLOCK_SIZE
    blocks = (padded.reshape(rows, BLOCK_SIZE, cols, BLOCK_SIZE)
              .transpose(0, 2, 1, 3)
              .reshape(rows * cols, BLOCK_SIZE, BLOCK_SIZE))
    blocks = blocks - blocks.mean(axis=(1, 2), keepdims=True)
    basis = _dct_basis(BLOCK_SIZE)
    coeffs = np.abs(basis @ blocks @ basis.T)
    return np.einsum("bij,ij->b", coeffs, _energy_weights(BLOCK_SIZE))
