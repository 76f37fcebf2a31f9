"""Complexity features checked against a direct cosine-sum reference transform,
and the strip-wise frame path against the whole-frame path in reference_complexity.py."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_eta import complexity
from corpus_eta.complexity import (BLOCK_SIZE, ClipComplexity, FrameFeatures,
                                   analyze_frames, analyze_yuv, block_dct_energy,
                                   frame_block_energies, read_yuv420p_luma,
                                   write_frame_features_csv)
from corpus_eta.errors import ValidationError

from reference_complexity import reference_frame_block_energies


# Reference: evaluate each transform coefficient as an explicit double cosine
# sum (quartic in the block size), then weight and accumulate. Shares no code
# with the production path, which uses a cached basis-matrix product.

def _scale(i, n):
    return math.sqrt(1.0 / n) if i == 0 else math.sqrt(2.0 / n)


def naive_coefficient(block, i, j):
    n = block.shape[0]
    x = np.arange(n)
    cos_i = np.cos(math.pi * (2.0 * x + 1.0) * i / (2.0 * n))
    cos_j = np.cos(math.pi * (2.0 * x + 1.0) * j / (2.0 * n))
    return _scale(i, n) * _scale(j, n) * float(np.sum(block * np.outer(cos_i, cos_j)))


def naive_block_energy(block):
    block = np.asarray(block, dtype=np.float64)
    n = block.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == 0 and j == 0:
                continue
            weight = 2.0 ** ((i + j) / 2.0 - 2.0)
            total += weight * abs(naive_coefficient(block, i, j))
    return total


def naive_block_energy_pure_python(block):
    """Fully scalar variant, used once to vouch for the numpy reference above."""
    n = len(block)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == 0 and j == 0:
                continue
            s = 0.0
            for x in range(n):
                for y in range(n):
                    s += (block[x][y]
                          * math.cos(math.pi * (2 * x + 1) * i / (2 * n))
                          * math.cos(math.pi * (2 * y + 1) * j / (2 * n)))
            s *= _scale(i, n) * _scale(j, n)
            total += 2.0 ** ((i + j) / 2.0 - 2.0) * abs(s)
    return total


def write_yuv420p(path, frames):
    """Serialize uint8 luma planes with mid-gray chroma filler."""
    with open(path, "wb") as fh:
        for luma in frames:
            h, w = luma.shape
            fh.write(luma.astype(np.uint8).tobytes())
            fh.write(bytes([128]) * (w * h // 2))


class TestBlockEnergy:
    def test_reference_implementations_agree(self):
        rng = np.random.default_rng(0)
        block = rng.integers(0, 256, size=(8, 8)).astype(np.float64)
        assert naive_block_energy(block) == pytest.approx(
            naive_block_energy_pure_python(block.tolist()), rel=1e-9)

    def test_constant_block_scores_zero(self):
        assert block_dct_energy(np.full((32, 32), 128.0)) == 0.0
        assert block_dct_energy(np.zeros((32, 32))) == 0.0

    def test_impulse_block_matches_reference(self):
        block = np.zeros((32, 32))
        block[0, 0] = 1.0
        assert block_dct_energy(block) == pytest.approx(
            naive_block_energy(block), rel=1e-6)

    def test_horizontal_ramp_matches_reference(self):
        block = np.tile(np.arange(32, dtype=np.float64), (32, 1))
        assert block_dct_energy(block) == pytest.approx(
            naive_block_energy(block), rel=1e-6)

    def test_random_blocks_match_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            block = rng.integers(0, 256, size=(32, 32)).astype(np.float64)
            assert block_dct_energy(block) == pytest.approx(
                naive_block_energy(block), rel=1e-6)

    def test_dc_offset_leaves_energy_unchanged(self):
        rng = np.random.default_rng(2)
        block = rng.uniform(0.0, 200.0, size=(32, 32))
        base = block_dct_energy(block)
        assert block_dct_energy(block + 50.0) == pytest.approx(base, rel=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            block_dct_energy(np.zeros((32, 16)))


class TestFrameBlockEnergies:
    def test_splits_into_row_major_blocks(self):
        frame = np.zeros((32, 64))
        frame[:, 32:] = np.tile(np.arange(32, dtype=np.float64), (32, 1))
        energies = frame_block_energies(frame)
        assert energies.shape == (2,)
        assert energies[0] == 0.0
        assert energies[1] == pytest.approx(
            block_dct_energy(frame[:, 32:]), rel=1e-12)

    def test_zero_pads_partial_edge_blocks(self):
        rng = np.random.default_rng(3)
        frame = rng.integers(0, 256, size=(40, 40)).astype(np.float64)
        energies = frame_block_energies(frame)
        assert energies.shape == (4,)
        padded = np.zeros((64, 64))
        padded[:40, :40] = frame
        expected = [block_dct_energy(padded[r:r + 32, c:c + 32])
                    for r in (0, 32) for c in (0, 32)]
        assert energies == pytest.approx(expected, rel=1e-12)


class TestAnalyzeFrames:
    def test_static_gray_clip_is_exactly_featureless(self):
        frames = [np.full((64, 64), 128, dtype=np.uint8) for _ in range(3)]
        per_frame, clip = analyze_frames(frames)
        assert clip == ClipComplexity(E=0.0, h=0.0, luma=128.0, num_frames=3)
        for f in per_frame:
            assert (f.E_frame, f.h_frame, f.luma_frame) == (0.0, 0.0, 128.0)

    def test_two_constant_frames_average_their_levels(self):
        frames = [np.full((64, 64), 100, dtype=np.uint8),
                  np.full((64, 64), 200, dtype=np.uint8)]
        per_frame, clip = analyze_frames(frames)
        assert clip.E == 0.0
        assert clip.h == 0.0
        assert clip.luma == 150.0
        assert [f.luma_frame for f in per_frame] == [100.0, 200.0]

    def test_first_frame_has_no_temporal_term(self):
        rng = np.random.default_rng(4)
        frames = [rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
                  for _ in range(2)]
        per_frame, _ = analyze_frames(frames)
        assert per_frame[0].h_frame == 0.0

    def test_random_noise_has_positive_energy(self):
        rng = np.random.default_rng(5)
        frames = [rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
                  for _ in range(3)]
        per_frame, clip = analyze_frames(frames)
        assert clip.E > 0.0
        assert clip.h > 0.0
        assert all(f.E_frame > 0.0 for f in per_frame)

    def test_duplicated_frames_zero_the_temporal_term(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        b = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        per_frame, _ = analyze_frames([a, a, b, b])
        assert per_frame[1].h_frame == 0.0
        assert per_frame[2].h_frame > 0.0
        assert per_frame[3].h_frame == 0.0

    def test_temporal_term_is_mean_absolute_block_delta(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 256, size=(32, 64)).astype(np.float64)
        b = rng.integers(0, 256, size=(32, 64)).astype(np.float64)
        per_frame, _ = analyze_frames([a, b])
        expected = float(np.mean(np.abs(frame_block_energies(b)
                                        - frame_block_energies(a))))
        assert per_frame[1].h_frame == pytest.approx(expected, rel=1e-12)

    def test_clip_average_skips_first_frame_for_h(self):
        rng = np.random.default_rng(8)
        frames = [rng.integers(0, 256, size=(32, 32)).astype(np.float64)
                  for _ in range(4)]
        per_frame, clip = analyze_frames(frames)
        assert clip.E == pytest.approx(
            float(np.mean([f.E_frame for f in per_frame])), rel=1e-12)
        assert clip.h == pytest.approx(
            float(np.mean([f.h_frame for f in per_frame[1:]])), rel=1e-12)

    def test_single_frame_clip(self):
        frames = [np.full((32, 32), 10, dtype=np.uint8)]
        per_frame, clip = analyze_frames(frames)
        assert clip.h == 0.0
        assert clip.num_frames == 1

    def test_luma_offset_shifts_brightness_only(self):
        rng = np.random.default_rng(9)
        base = rng.uniform(0.0, 180.0, size=(32, 32))
        _, clip_a = analyze_frames([base])
        _, clip_b = analyze_frames([base + 60.0])
        assert clip_b.E == pytest.approx(clip_a.E, rel=1e-9)
        assert clip_b.luma == pytest.approx(clip_a.luma + 60.0, rel=1e-12)

    def test_worker_count_does_not_change_results(self):
        rng = np.random.default_rng(10)
        frames = [rng.integers(0, 256, size=(48, 48)).astype(np.uint8)
                  for _ in range(5)]
        serial_frames, serial_clip = analyze_frames(frames, jobs=1)
        pooled_frames, pooled_clip = analyze_frames(frames, jobs=4)
        assert serial_frames == pooled_frames
        assert serial_clip == pooled_clip

    def test_empty_clip_rejected(self):
        with pytest.raises(ValidationError, match="no frames"):
            analyze_frames([])

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        frames = [np.full((32, 32), 10, dtype=np.uint8)]
        with pytest.raises(ValidationError, match=f"jobs must be >= 1, got {jobs}"):
            analyze_frames(frames, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    def test_thread_pool_holds_at_most_jobs_frames(self, monkeypatch, jobs):
        """A frame is pending from the moment the source yields it until its
        per-frame statistics are computed; the pool must not read ahead of that."""
        rng = np.random.default_rng(20 + jobs)
        frames = [rng.integers(0, 256, size=(40, 72), dtype=np.uint8) for _ in range(12)]
        serial = analyze_frames(frames, jobs=1)

        lock = threading.Lock()
        pending = most = 0
        frame_stats = complexity._frame_stats

        def counted_frame_stats(luma):
            nonlocal pending
            result = frame_stats(luma)
            with lock:
                pending -= 1
            return result

        def source():
            nonlocal pending, most
            for frame in frames:
                with lock:
                    pending += 1
                    most = max(most, pending)
                yield frame

        monkeypatch.setattr(complexity, "_frame_stats", counted_frame_stats)
        pooled = analyze_frames(source(), jobs=jobs)
        assert most <= jobs
        assert pending == 0
        assert pooled == serial


def _uint8_frame(rng, height, width, fill):
    if fill == "flat":
        return np.full((height, width), rng.integers(0, 256), dtype=np.uint8)
    if fill == "gradient":
        return (np.add.outer(np.arange(height), 3 * np.arange(width)) % 256).astype(np.uint8)
    return rng.integers(0, 256, size=(height, width), dtype=np.uint8)


class TestStripWiseMatchesWholeFrame:
    """``frame_block_energies`` against the whole-frame path in reference_complexity.py.

    For 8-bit input every sum before the transform is an exact integer and the
    per-block matmul does not depend on how many blocks share a batch, so
    working one block row at a time must not change a single bit.
    """

    @settings(max_examples=150, deadline=None)
    @given(height=st.integers(1, 200), width=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1),
           fill=st.sampled_from(["random", "flat", "gradient"]),
           steps=st.sampled_from([(1, 1), (2, 1), (1, 3), (-1, 1), (2, -2)]))
    def test_uint8_frames_are_bit_identical(self, height, width, seed, fill, steps):
        row_step, col_step = steps
        rng = np.random.default_rng(seed)
        base = _uint8_frame(rng, height * abs(row_step), width * abs(col_step), fill)
        frame = base[::row_step, ::col_step]
        assert frame.shape == (height, width)
        assert (frame_block_energies(frame).tobytes()
                == reference_frame_block_energies(frame).tobytes())

    @settings(max_examples=50, deadline=None)
    @given(height=st.integers(1, 200), width=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_transposed_frames_match_their_contiguous_copy(self, height, width, seed):
        """The reference hands a column-major block to matmul when a transposed
        frame is one block high or wide, which moves its last bits; the
        strip-wise path copies every strip into row-major order first, so
        its result does not depend on the input's memory layout."""
        frame = np.random.default_rng(seed).integers(
            0, 256, size=(width, height), dtype=np.uint8).T
        contiguous = np.ascontiguousarray(frame)
        assert (frame_block_energies(frame).tobytes()
                == frame_block_energies(contiguous).tobytes()
                == reference_frame_block_energies(contiguous).tobytes())

    @pytest.mark.parametrize("height,width", [(720, 1280), (1080, 1920), (2160, 3840)])
    def test_full_size_frames_are_bit_identical(self, height, width):
        frame = np.random.default_rng(height).integers(
            0, 256, size=(height, width), dtype=np.uint8)
        assert (frame_block_energies(frame).tobytes()
                == reference_frame_block_energies(frame).tobytes())

    @pytest.mark.parametrize("height,width", [(20, 100), (32, 64), (100, 20),
                                              (70, 90), (96, 33)])
    def test_float_frames_agree_to_rounding(self, height, width):
        """Not bit for bit: for a frame one block row high the reference's
        reshape returns a strided view instead of a copy, and numpy sums a
        strided view's block means in a different order. Non-integral float
        samples make that order visible in the last bits."""
        frame = np.random.default_rng(width).uniform(0.0, 255.0, size=(height, width))
        np.testing.assert_allclose(frame_block_energies(frame),
                                   reference_frame_block_energies(frame),
                                   rtol=1e-12, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(height=st.integers(1, 200), width=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1), as_float=st.booleans(),
           steps=st.sampled_from([(1, 1), (2, 1), (1, 3), (-1, -1)]))
    def test_luma_frame_is_the_float64_mean(self, height, width, seed, as_float, steps):
        """Float frames are drawn contiguous: a strided float view's mean is
        summed in another order than its contiguous copy, in either version."""
        rng = np.random.default_rng(seed)
        if as_float:
            frame = rng.uniform(0.0, 255.0, size=(height, width))
        else:
            row_step, col_step = steps
            base = rng.integers(0, 256, size=(height * abs(row_step), width * abs(col_step)),
                                dtype=np.uint8)
            frame = base[::row_step, ::col_step]
        (features,), _ = analyze_frames([frame])
        expected = float(np.mean(frame.astype(np.float64)))
        assert features.luma_frame.hex() == expected.hex()

    @pytest.mark.parametrize("level", [0, 255])
    def test_luma_frame_of_a_flat_2160p_frame(self, level):
        frame = np.full((2160, 3840), level, dtype=np.uint8)
        (features,), _ = analyze_frames([frame])
        assert features.luma_frame == float(level)


MiB = 2**20


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """numpy reports its buffers to tracemalloc, so these peaks are deterministic.
    The whole-frame path peaked at about 80 MiB for one 1080p frame, and holding
    a 16-frame 1080p clip for the thread pool at about 190 MiB."""

    def test_block_energies_of_a_1080p_frame(self):
        frame = np.random.default_rng(30).integers(0, 256, size=(1080, 1920), dtype=np.uint8)
        frame_block_energies(frame[:32, :32])  # builds the cached basis outside the trace
        assert _traced_peak(lambda: frame_block_energies(frame)) < 8 * MiB

    def test_pooled_analysis_of_a_1080p_clip(self):
        rng = np.random.default_rng(31)

        def clip():
            for _ in range(16):
                yield rng.integers(0, 256, size=(1080, 1920), dtype=np.uint8)

        analyze_frames([np.zeros((32, 32), dtype=np.uint8)], jobs=2)
        assert _traced_peak(lambda: analyze_frames(clip(), jobs=2)) < 24 * MiB


class TestYuvReader:
    def test_reads_luma_and_skips_chroma(self, tmp_path):
        f0 = np.arange(16, dtype=np.uint8).reshape(4, 4)
        f1 = np.arange(16, 32, dtype=np.uint8).reshape(4, 4)
        path = tmp_path / "tiny.yuv"
        write_yuv420p(path, [f0, f1])
        frames = list(read_yuv420p_luma(path, 4, 4, 2))
        assert np.array_equal(frames[0], f0)
        assert np.array_equal(frames[1], f1)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.yuv"
        path.write_bytes(b"\x00" * 23)  # one byte short of a 4x4 frame
        with pytest.raises(ValidationError, match="size"):
            list(read_yuv420p_luma(path, 4, 4, 1))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            list(read_yuv420p_luma(tmp_path / "none.yuv", 4, 4, 1))

    @pytest.mark.parametrize("w,h,n", [(3, 4, 1), (4, 5, 1), (4, 4, 0), (0, 4, 1)])
    def test_bad_geometry_rejected(self, tmp_path, w, h, n):
        path = tmp_path / "x.yuv"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(ValidationError):
            list(read_yuv420p_luma(path, w, h, n))

    def test_analyze_yuv_end_to_end(self, tmp_path):
        frames = [np.full((64, 64), 128, dtype=np.uint8) for _ in range(2)]
        path = tmp_path / "gray.yuv"
        write_yuv420p(path, frames)
        per_frame, clip = analyze_yuv(path, 64, 64, 2)
        assert clip == ClipComplexity(E=0.0, h=0.0, luma=128.0, num_frames=2)
        assert len(per_frame) == 2

    def test_analyze_yuv_small_frame_mean(self, tmp_path):
        f0 = np.arange(16, dtype=np.uint8).reshape(4, 4)
        f1 = np.arange(16, 32, dtype=np.uint8).reshape(4, 4)
        path = tmp_path / "tiny.yuv"
        write_yuv420p(path, [f0, f1])
        per_frame, clip = analyze_yuv(path, 4, 4, 2)
        assert per_frame[0].luma_frame == 7.5
        assert per_frame[1].luma_frame == 23.5
        assert clip.luma == 15.5


class TestFrameFeaturesCsv:
    def test_writes_header_and_rows(self, tmp_path):
        rows = [FrameFeatures(0, 1.25, 0.0, 100.0), FrameFeatures(1, 2.5, 0.75, 90.0)]
        path = tmp_path / "frames.csv"
        write_frame_features_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame_index,E,h,luma"
        assert lines[1] == "0,1.25,0.0,100.0"
        assert len(lines) == 3
