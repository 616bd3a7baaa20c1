"""Layer spans and counters, recorded from outside the program.

The benchmark never edits ``src/``.  Instead, for a traced run it
replaces public functions and methods of ``repro`` with timing
wrappers *at the site where each name is looked up*: a class attribute
for methods, and every module global a function was imported into for
plain functions (``bandwidth_study`` calls its own imported
``score_recorded_video``, not ``postprocess.score_recorded_video``).

Each wrapper opens a span.  A span's *self time* is its duration minus
the durations of the wrapped spans it directly contains, so the self
times of one iteration add up to the iteration's wall time; whatever no
layer claims stays with the benchmark's root span and is reported as
``unattributed_s``.

Per-packet work (``Network.transmit``, SFU forwarding, streamer emit)
is not wrapped -- a wrapper there costs more than the work it times.
It is read from the program's public counters instead: the
constructors of ``Network`` and ``ServiceRelay`` are wrapped (once per
object, not per packet) so the tracer knows which objects to read.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: (module, owner, attribute, metric): ``owner`` names a class in
#: ``module`` (method or property) or is ``None`` for a module global.
#: The same metric may be bound at several lookup sites.
SPANS: Tuple[Tuple[str, "str | None", str, str], ...] = (
    # core
    ("repro.core.testbed", "Testbed", "__init__", "core.testbed.setup_s"),
    ("repro.core.testbed", "Testbed", "add_vm", "core.testbed.setup_s"),
    ("repro.core.testbed", "Testbed", "deploy_group", "core.testbed.setup_s"),
    ("repro.core.testbed", "Testbed", "run_session", "core.session.run_s"),
    ("repro.core.session", "SessionArtifacts", "rate_summary",
     "core.session.readout_s"),
    ("repro.core.session", "SessionArtifacts", "download_rate_bps",
     "core.session.readout_s"),
    ("repro.core.session", "SessionArtifacts", "mean_rtt_ms",
     "core.session.readout_s"),
    ("repro.core.session", "SessionArtifacts", "discovered_endpoints",
     "core.session.readout_s"),
    ("repro.core.session", "SessionArtifacts", "lag_measurements",
     "core.session.readout_s"),
    ("repro.experiments.bandwidth_study", None, "score_recorded_video",
     "core.postprocess.self_s"),
    ("repro.experiments.bandwidth_study", None, "score_recorded_audio",
     "core.postprocess.self_s"),
    ("repro.experiments.qoe_study", None, "align_recorded_video",
     "core.postprocess.self_s"),
    ("repro.experiments.dynamics_study", None,
     "score_recorded_video_by_phase", "core.postprocess.self_s"),
    ("repro.core.postprocess", None, "align_recorded_video",
     "core.postprocess.self_s"),
    # net
    ("repro.net.simulator", "Simulator", "run", "net.simulator.self_s"),
    # media
    ("repro.media.video_codec", "VideoCodec", "encode",
     "media.video_codec.encode_s"),
    ("repro.media.video_codec", "VideoCodec", "encode_batch",
     "media.video_codec.encode_s"),
    ("repro.media.video_codec", "VideoDecoder", "decode",
     "media.video_codec.decode_s"),
    ("repro.media.video_codec", "VideoDecoder", "decode_batch",
     "media.video_codec.decode_s"),
    ("repro.media.audio_codec", "AudioCodec", "encode",
     "media.audio_codec.encode_s"),
    ("repro.media.audio_codec", "AudioDecoder", "waveform",
     "media.audio_codec.decode_s"),
    ("repro.media.audio", "SpeechLikeSource", "samples", "media.audio.source_s"),
    ("repro.core.postprocess", None, "align_recordings",
     "media.sync.video_align_s"),
    ("repro.core.postprocess", None, "find_audio_offset",
     "media.sync.audio_align_s"),
    ("repro.core.postprocess", None, "resize_frames", "media.padding.resize_s"),
    # clients
    ("repro.clients.recorder", "DesktopRecorder", "frames",
     "clients.recorder.finalize_s"),
    ("repro.clients.recorder", "DesktopRecorder", "frames_head",
     "clients.recorder.finalize_s"),
    # qoe
    ("repro.core.postprocess", None, "score_video", "qoe.video_s"),
    ("repro.experiments.qoe_study", None, "score_video", "qoe.video_s"),
    ("repro.core.postprocess", None, "mos_lqo", "qoe.audio_mos_s"),
    # experiments: the cell drivers, where the campaign registry and the
    # benchmark look them up
    ("repro.experiments.bandwidth_study", None, "run_bandwidth_cell",
     "experiments.self_s"),
    ("repro.campaign.registry", None, "run_bandwidth_cell",
     "experiments.self_s"),
    ("repro.campaign.registry", None, "run_qoe_cell", "experiments.self_s"),
    ("repro.campaign.registry", None, "run_lag_scenario", "experiments.self_s"),
    ("repro.campaign.registry", None, "run_dynamics_cell",
     "experiments.self_s"),
    ("repro.campaign.registry", None, "run_endpoint_study",
     "experiments.self_s"),
    ("repro.campaign.registry", None, "run_mobile_scenario",
     "experiments.self_s"),
    # campaign
    ("repro.campaign.fabric.executors", None, "execute_cell",
     "campaign.runner.execute_cell_s"),
    ("repro.campaign.store", "CampaignStoreBase", "append_cell",
     "campaign.store.append_s"),
    ("repro.campaign.store", "CampaignStoreBase", "cell_records",
     "campaign.store.scan_s"),
    ("repro.campaign.fabric.streaming", "StreamingAggregator", "fold",
     "campaign.aggregate.fold_s"),
    ("repro.campaign.aggregate", None, "report_from_store",
     "campaign.aggregate.report_s"),
    ("repro.analysis.report", "ExperimentReport", "render",
     "campaign.aggregate.report_s"),
    ("repro.campaign.runner", None, "run_campaign", "campaign.fabric.self_s"),
)

#: Span metric -> count metric reported from the same wrapper, with the
#: function that turns one call's result into the amount counted.
COUNTED: Dict[str, Tuple[str, Callable[[Any], int]]] = {
    "media.audio.source_s": ("media.audio.source_calls", lambda _: 1),
    "clients.recorder.finalize_s": ("clients.recorder.frames_out", len),
    "qoe.video_s": ("qoe.frames_scored", lambda report: report.frame_count),
    "campaign.store.append_s": ("campaign.store.appends", lambda _: 1),
    "campaign.store.scan_s": ("campaign.store.scans", lambda _: 1),
    "campaign.aggregate.fold_s": ("campaign.aggregate.folds", lambda _: 1),
}

#: Counters read from the program's own objects at the end of an
#: iteration (per-packet work, never wrapped).
COUNTER_METRICS = (
    "net.simulator.events",
    "net.packets_sent",
    "net.fast_lane.fused_frac",
    "net.packets_dropped",
    "net.burst.trains",
    "platforms.packets_forwarded",
)

#: The root span's metric: benchmark glue that no layer claims.
ROOT = "unattributed_s"


def span_metrics() -> List[str]:
    """Every self-time metric a span can report, in declaration order."""
    seen: Dict[str, None] = {}
    for *_, metric in SPANS:
        seen.setdefault(metric, None)
    return list(seen)


def count_metrics() -> List[str]:
    """Every count metric the tracer reports."""
    return [name for name, _ in COUNTED.values()] + list(COUNTER_METRICS)


class Tracer:
    """Self-time spans and counts for one traced iteration at a time."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: List[float] = []
        self._networks: List[Any] = []
        self._relays: List[Any] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, metric: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as a span of ``metric``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counter = COUNTED.get(metric)
        counts = self.counts
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[metric] += elapsed - stack.pop()
                calls[metric] += 1
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def root(self, fn: Callable[[], None]) -> float:
        """Run ``fn`` as the iteration's root span; returns its wall time."""
        if self._stack:
            raise RuntimeError("a root span is already open")
        start = time.perf_counter()
        self.wrap(ROOT, fn)()
        return time.perf_counter() - start

    # -- installation ------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Bind every span at its lookup site and hook the counter objects.

        A site that no longer exists raises: a renamed function must
        fail the traced run, not silently read as 0 s.
        """
        for module_name, owner_name, attribute, metric in SPANS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__.get(attribute)
            if original is None:
                raise AttributeError(
                    f"trace site {module_name}.{owner_name or ''}"
                    f"{'.' if owner_name else ''}{attribute} does not exist"
                )
            if isinstance(original, property):
                replacement: Any = property(self.wrap(metric, original.fget))
            else:
                replacement = self.wrap(metric, original)
            self._patch(owner, attribute, replacement)
        from repro.net.routing import Network
        from repro.platforms.base import ServiceRelay

        self._patch(Network, "__init__",
                    self._registering(Network.__init__, self._networks))
        self._patch(ServiceRelay, "__init__",
                    self._registering(ServiceRelay.__init__, self._relays))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @staticmethod
    def _registering(init: Callable[..., None],
                     registry: List[Any]) -> Callable[..., None]:
        def registered(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            registry.append(obj)
        return registered

    # -- per-iteration readout ---------------------------------------------

    def reset(self) -> None:
        """Forget the previous iteration's spans, counts and objects."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self._networks.clear()
        self._relays.clear()

    def read_counters(self) -> None:
        """Fold the public counters of this iteration's networks/relays.

        The objects are released straight away: holding them until the
        next iteration would hand that iteration their garbage.
        """
        sent = fused = 0
        for network in self._networks:
            self.counts["net.simulator.events"] += (
                network.simulator.events_processed
            )
            sent += sum(host.packets_sent for host in network.hosts())
            fused += network.fast_lane_fused
            self.counts["net.packets_dropped"] += (
                network.packets_lost
                + network.packets_shaper_dropped
                + network.packets_condition_lost
            )
            self.counts["net.burst.trains"] += network.burst_trains
        self.counts["net.packets_sent"] += sent
        self.counts["platforms.packets_forwarded"] += sum(
            relay.packets_forwarded for relay in self._relays
        )
        self._fused_frac = fused / sent if sent else 0.0
        self._networks.clear()
        self._relays.clear()

    def iteration(self) -> Dict[str, float]:
        """This iteration's metrics: self times, counts, fused fraction."""
        self.read_counters()
        values: Dict[str, float] = {name: 0.0 for name in span_metrics()}
        values.update(self.self_s)
        values.update({name: 0 for name in count_metrics()})
        values.update(self.counts)
        values["net.fast_lane.fused_frac"] = self._fused_frac
        return values

    def silent(self, expected: Sequence[str]) -> List[str]:
        """Expected spans that never fired and counters that stayed 0.

        Call after :meth:`iteration`, which reads the counters.
        """
        return [metric for metric in expected
                if not self.calls.get(metric) and not self.counts.get(metric)]
