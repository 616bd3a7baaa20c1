"""Codec throughput guard: stats-only decoding skips the pixel work.

A receiver that watches a flow nobody renders runs the decoder with
``pixels=False``: the freeze/resync state machine alone, no inverse
transforms.  This guard asserts what is stable on any hardware -- that
it is cheaper than decoding pixels.

Run this file with ``pytest``; tracked absolute codec numbers live in
``BENCH_*.json`` (``repro bench``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.media.feeds import LowMotionFeed
from repro.media.frames import FrameSpec
from repro.media.video_codec import VideoCodec, VideoCodecConfig, VideoDecoder

VIDEO_SPEC = FrameSpec(128, 96, 12)
VIDEO_FRAMES = 48


def _best_of(runs, fn):
    return min(fn() for _ in range(runs))


def test_stats_only_decoder_is_cheaper_than_pixels():
    """pixels=False must do asymptotically less work (no transforms)."""
    codec = VideoCodec(VIDEO_SPEC, VideoCodecConfig(gop_size=12),
                       target_bps=400_000)
    encoded = codec.encode_batch(
        np.stack(LowMotionFeed(VIDEO_SPEC, seed=3).frames(VIDEO_FRAMES))
    )

    def timed(pixels: bool) -> float:
        decoder = VideoDecoder(VIDEO_SPEC, pixels=pixels)
        start = time.perf_counter()
        for frame in encoded:
            decoder.decode(frame)
        return time.perf_counter() - start

    stats = _best_of(3, lambda: timed(False))
    pixels = _best_of(3, lambda: timed(True))
    assert stats < pixels, (
        f"stats-only decode ({stats:.4f}s) not cheaper than pixel decode "
        f"({pixels:.4f}s)"
    )
