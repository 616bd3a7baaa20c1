"""Codec work guard: stats-only decoding skips the pixel work.

A receiver that watches a flow nobody renders runs the decoder with
``pixels=False``: the freeze/resync state machine alone, no inverse
transforms.  This guard counts the decoder's calls into the pixel
reconstruction helpers -- exact on any hardware -- and checks that the
stats-only decoder makes none of them while keeping the same frame
accounting as a pixel decoder.

Run this file with ``pytest``; wall-clock numbers for real sessions
come from ``python3 perfbench/run.py``.
"""

from __future__ import annotations

from repro.media import video_codec
from repro.media.feeds import LowMotionFeed
from repro.media.frames import FrameSpec
from repro.media.video_codec import VideoCodec, VideoCodecConfig, VideoDecoder

VIDEO_SPEC = FrameSpec(128, 96, 12)
VIDEO_FRAMES = 48

#: One frame lost in transport, so both decoders also run the
#: freeze-until-keyframe path.
LOST_INDEX = 5


def _count_pixel_calls(monkeypatch) -> dict:
    """Count calls into the pixel reconstruction helpers from here on."""
    calls = {}
    for name in ("_residual_from_blocks", "_reconstruct_from_sparse"):
        original = getattr(video_codec, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(video_codec, name, counted)
    return calls


def _decode(encoded, pixels: bool, monkeypatch):
    decoder = VideoDecoder(VIDEO_SPEC, pixels=pixels)
    with monkeypatch.context() as patch:
        calls = _count_pixel_calls(patch)
        for frame in encoded:
            if frame.index == LOST_INDEX:
                decoder.mark_lost(frame.index)
            else:
                decoder.decode(frame)
    return decoder, calls


def test_stats_only_decoder_is_cheaper_than_pixels(monkeypatch):
    """pixels=False makes no reconstruction call and counts the same frames."""
    codec = VideoCodec(VIDEO_SPEC, VideoCodecConfig(gop_size=12),
                       target_bps=400_000)
    feed = LowMotionFeed(VIDEO_SPEC, seed=3)
    encoded = [codec.encode(frame) for frame in feed.frames(VIDEO_FRAMES)]

    stats, stats_calls = _decode(encoded, False, monkeypatch)
    pixels, pixel_calls = _decode(encoded, True, monkeypatch)

    assert sum(stats_calls.values()) == 0, stats_calls
    assert sum(pixel_calls.values()) > 0, pixel_calls
    assert stats.frames_frozen == pixels.frames_frozen > 0
    assert stats.frames_decoded == pixels.frames_decoded > 0
