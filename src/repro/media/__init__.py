"""Media substrate: feeds, loopback devices, codecs and A/V alignment.

This package replaces the paper's sensory pipeline.  Where the testbed
used ``v4l2loopback``/``snd-aloop`` virtual devices fed by ``ffmpeg``
and ``aplay`` replaying recorded clips, we generate deterministic
synthetic media:

* :mod:`repro.media.frames` / :mod:`repro.media.feeds` — video frame
  sources with controlled motion energy (low-motion talking head,
  high-motion tour, blank-with-periodic-flash for lag probing),
* :mod:`repro.media.audio` — a speech-like audio source,
* :mod:`repro.media.video_codec` — a real block-DCT video codec with
  rate control (quality loss is *computed*, not assumed),
* :mod:`repro.media.audio_codec` — a subband audio codec,
* :mod:`repro.media.loopback` — virtual camera/microphone devices,
* :mod:`repro.media.padding` — the Fig. 13 padding/cropping workflow,
* :mod:`repro.media.sync` — recording alignment (SSIM trim search,
  audio offset finder, loudness normalisation).
"""

from .audio import AudioSource, SpeechLikeSource, SilenceSource, ToneSource
from .audio_codec import AudioCodec, AudioCodecConfig, EncodedAudioFrame
from .feeds import FlashFeed, HighMotionFeed, LowMotionFeed, StaticFeed
from .frames import FrameSource, FrameSpec
from .loopback import VirtualCamera, VirtualMicrophone
from .padding import add_padding, crop_padding, resize_frame, resize_frames
from .sync import align_recordings, find_audio_offset, normalize_loudness
from .video_codec import (
    EncodedFrame,
    RateController,
    VideoCodec,
    VideoCodecConfig,
)

__all__ = [
    "AudioCodec",
    "AudioCodecConfig",
    "AudioSource",
    "EncodedAudioFrame",
    "EncodedFrame",
    "FlashFeed",
    "FrameSource",
    "FrameSpec",
    "HighMotionFeed",
    "LowMotionFeed",
    "RateController",
    "SilenceSource",
    "SpeechLikeSource",
    "StaticFeed",
    "ToneSource",
    "VideoCodec",
    "VideoCodecConfig",
    "VirtualCamera",
    "VirtualMicrophone",
    "add_padding",
    "align_recordings",
    "crop_padding",
    "find_audio_offset",
    "normalize_loudness",
    "resize_frame",
    "resize_frames",
]
