"""The four benchmark workloads: real campaign cells, sessions and grids.

Each workload is built from a benchmark seed.  The seed never reaches
the program directly: :func:`derive` turns it into the inputs the
program takes (a testbed seed, a feed seed, a campaign master seed), so
the same seed always gives the same inputs and the same outputs.

An iteration has four parts, and the harness in ``run.py`` times them:

* ``prepare`` -- fresh per-iteration inputs (a testbed, a store path),
  built before the clock starts,
* ``run`` -- the timed run phase: one cell, one session, or one
  ``run_campaign`` over a fresh store,
* ``read`` -- reading the finished run's results back (see each
  workload for what that is),
* ``outputs`` -- the JSON-able results the output check digests.

Constructing a workload plus its first ``prepare`` is the set-up that
``setup_s`` times, together with importing ``repro``.
"""

from __future__ import annotations

import glob
import os
import random
import re
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from repro.campaign import aggregate, runner
from repro.campaign.grids import calibration_campaign, smoke_campaign
from repro.campaign.stores import open_store
from repro.core.session import SessionConfig
from repro.core.testbed import Testbed, TestbedConfig
from repro.experiments import bandwidth_study
from repro.experiments.scale import ExperimentScale
from repro.media.frames import FrameSpec
from repro.units import kbps

#: Cells in the calibration grid of ``fabric_calibration``.
CALIBRATION_CELLS = 1000

#: Simulated media seconds of the ``sfu_session`` meeting.
SFU_DURATION_S = 30.0

#: The six VMs of the size-modelled SFU meeting (Table 4 shape).
SFU_CLIENTS = ("US-East", "US-East2", "US-East3",
               "US-Central", "US-Central2", "US-West")

#: The three VMs of a bandwidth cell (host, capped receiver, other).
BANDWIDTH_CLIENTS = ("US-East", "US-East2", "US-Central")


def derive(seed: int, label: str) -> int:
    """One program input derived from the benchmark seed."""
    return random.Random(f"{label}:{seed}").randrange(1, 1_000_000)


def network_counters(testbed: Testbed) -> Dict[str, int]:
    """The session counters of one testbed's network."""
    network = testbed.network
    return {
        "events": network.simulator.events_processed,
        "packets_sent": sum(host.packets_sent for host in network.hosts()),
        "fast_lane_fused": network.fast_lane_fused,
        "packets_dropped": (network.packets_lost
                            + network.packets_shaper_dropped
                            + network.packets_condition_lost),
    }


class _SessionClockTestbed(Testbed):
    """A testbed that notes when its last session returned.

    The bandwidth cell runs its session and then scores it inside one
    driver call; the note splits the cell at that point.
    """

    session_done = 0.0

    def run_session(self, *args: Any, **kwargs: Any) -> Any:
        artifacts = super().run_session(*args, **kwargs)
        self.session_done = time.perf_counter()
        return artifacts


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    #: Cells (or sessions) one run phase completes.
    units = 1
    #: Reads per iteration; ``read_s`` is their mean, so a read of a
    #: few milliseconds is still timed over a steady stretch.
    read_repeats = 1
    #: Span and counter metrics that must be non-zero in a traced run.
    expected: tuple = ()

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def inputs(self) -> Dict[str, Any]:
        """The generated program inputs, for the result's env block."""
        raise NotImplementedError

    def prepare(self) -> Any:
        raise NotImplementedError

    def run(self, prepared: Any) -> Any:
        raise NotImplementedError

    def read(self, prepared: Any, ran: Any) -> Any:
        return None

    def read_seconds(self, prepared: Any, run_end: float) -> Optional[float]:
        """The read time, when it lies inside ``run`` (else ``None``)."""
        return None

    def outputs(self, prepared: Any, ran: Any, read: Any) -> Any:
        raise NotImplementedError

    def cleanup(self, prepared: Any) -> None:
        pass


class BandwidthCell(Workload):
    """One Fig. 17/18 cell: zoom, low motion, 500 Kbps ingress cap.

    ``run_bandwidth_cell`` at the drivers' default geometry (160x120@15,
    40 scored frames), one session, VIFp off as in campaigns, on a fresh
    testbed.  Its ``read_s`` is the part of the cell after the session
    returns: recorder finalize, alignment, video and audio scoring.
    """

    name = "bandwidth_cell"
    expected = (
        "core.testbed.setup_s", "core.session.run_s",
        "core.session.readout_s", "core.postprocess.self_s",
        "net.simulator.self_s",
        "media.video_codec.encode_s", "media.video_codec.decode_s",
        "media.audio_codec.encode_s", "media.audio_codec.decode_s",
        "media.audio.source_s", "media.sync.video_align_s",
        "media.sync.audio_align_s", "media.padding.resize_s",
        "clients.recorder.finalize_s", "qoe.video_s", "qoe.audio_mos_s",
        "experiments.self_s", "net.simulator.events", "net.packets_sent",
        "net.packets_dropped",
    )

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.testbed_seed = derive(seed, "testbed")
        self.scale = ExperimentScale(sessions=1, seed=derive(seed, "feed"))

    def inputs(self) -> Dict[str, Any]:
        return {"testbed_seed": self.testbed_seed,
                "feed_seed": self.scale.seed}

    def prepare(self) -> _SessionClockTestbed:
        testbed = _SessionClockTestbed(TestbedConfig(seed=self.testbed_seed))
        for name in BANDWIDTH_CLIENTS:
            testbed.add_vm(name)
        return testbed

    def run(self, testbed: _SessionClockTestbed) -> Any:
        # Looked up on the module at call time, where a trace wraps it.
        return bandwidth_study.run_bandwidth_cell(
            "zoom", "low", kbps(500), scale=self.scale, testbed=testbed,
            capped_client=BANDWIDTH_CLIENTS[1], compute_vifp=False,
        )

    def read_seconds(self, testbed: _SessionClockTestbed,
                     run_end: float) -> float:
        return run_end - testbed.session_done

    def outputs(self, testbed: _SessionClockTestbed, cell: Any,
                read: Any) -> Any:
        return {"cell": asdict(cell), "counters": network_counters(testbed)}


class SfuSession(Workload):
    """A 6-party webex meeting with size-modelled video, no recording.

    640x480@30 modelled rates, RTT probes on: the packet path and SFU
    forwarding with no codec or scoring work.  Its ``read_s`` is the
    results readout users run on a finished session: the L7 rate
    summary over every capture, mean probe RTTs and the endpoints each
    client discovered.
    """

    name = "sfu_session"
    expected = (
        "core.testbed.setup_s", "core.session.run_s",
        "core.session.readout_s", "net.simulator.self_s",
        "net.simulator.events", "net.packets_sent",
        "platforms.packets_forwarded",
    )

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.testbed_seed = derive(seed, "testbed")
        self.config = SessionConfig(
            duration_s=SFU_DURATION_S,
            feed="high",
            use_codec=False,
            content_spec=FrameSpec(640, 480, 30),
            probes=True,
            record_video=False,
            audio=False,
            session_index=0,
            feed_seed=derive(seed, "feed"),
        )

    def inputs(self) -> Dict[str, Any]:
        return {"testbed_seed": self.testbed_seed,
                "feed_seed": self.config.feed_seed}

    def prepare(self) -> Testbed:
        testbed = Testbed(TestbedConfig(seed=self.testbed_seed))
        for name in SFU_CLIENTS:
            testbed.add_vm(name)
        return testbed

    def run(self, testbed: Testbed) -> Any:
        return testbed.run_session("webex", list(SFU_CLIENTS), SFU_CLIENTS[0],
                                   self.config)

    def read(self, testbed: Testbed, artifacts: Any) -> Dict[str, Any]:
        rates = artifacts.rate_summary()
        return {
            "upload_bps": rates.upload_bps,
            "download_bps": dict(sorted(rates.download_bps_by_client.items())),
            "rtt_ms": {name: artifacts.mean_rtt_ms(name)
                       for name in SFU_CLIENTS},
            "endpoints": {name: len(artifacts.discovered_endpoints(name))
                          for name in SFU_CLIENTS},
        }

    def outputs(self, testbed: Testbed, artifacts: Any, read: Any) -> Any:
        return {"readout": read, "counters": network_counters(testbed)}


#: The report's run-dependent text: the summed cell wall time in the
#: summary note, and table columns of per-cell wall time.
_RUNTIME_NOTE = re.compile(r"[0-9.]+ s of cell runtime")
_WALL_CLOCK_COLUMNS = {"Duration (ms)"}
_TABLE_RULE = re.compile(r"^-+(-\+-+)*$")


def report_content(text: str) -> List[str]:
    """A rendered campaign report with its wall-clock parts masked.

    Table rows become their stripped cells joined by ``|`` (column
    widths follow the masked values), with wall-time columns replaced.
    """
    lines = _RUNTIME_NOTE.sub("<runtime>", text).splitlines()
    content: List[str] = []
    masked: "set[int]" = set()
    for index, line in enumerate(lines):
        if " | " not in line and not _TABLE_RULE.match(line):
            masked = set()
            content.append(line)
            continue
        cells = [cell.strip() for cell in line.split(" | ")]
        if index + 1 < len(lines) and _TABLE_RULE.match(lines[index + 1]):
            masked = {i for i, header in enumerate(cells)
                      if header in _WALL_CLOCK_COLUMNS}
        elif not _TABLE_RULE.match(line):
            cells = ["<wall>" if i in masked else cell
                     for i, cell in enumerate(cells)]
        content.append("|".join(cells) if " | " in line else "<rule>")
    return content


class _CampaignWorkload(Workload):
    """A campaign grid run inline into a fresh default (jsonl) store.

    ``read_s`` is what every restart and report pays on the finished
    store: a resume that finds every cell complete, then
    ``report_from_store``.
    """

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.master_seed = derive(seed, "master")
        self.spec = self._spec()
        self.units = self.spec.cell_count()
        self._runs = 0

    def _spec(self) -> Any:
        raise NotImplementedError

    def inputs(self) -> Dict[str, Any]:
        return {"master_seed": self.master_seed, "cells": self.units}

    def prepare(self) -> str:
        self._runs += 1
        return os.path.join(self.workdir, f"{self.name}-{self._runs}.jsonl")

    def run(self, store_path: str) -> Any:
        summary = runner.run_campaign(self.spec, store_path)
        if summary.failed or summary.executed != self.units:
            raise RuntimeError(
                f"{self.name}: {summary.failed} failed cells, "
                f"{summary.executed}/{self.units} executed"
            )
        return summary

    def read(self, store_path: str, summary: Any) -> str:
        resumed = runner.run_campaign(self.spec, store_path, resume=True)
        if resumed.skipped != self.units or resumed.executed:
            raise RuntimeError(
                f"{self.name}: resume skipped {resumed.skipped} and ran "
                f"{resumed.executed} of {self.units} complete cells"
            )
        # Looked up on the module at call time, where a trace wraps it.
        return aggregate.report_from_store(store_path).render()

    def outputs(self, store_path: str, summary: Any, report: str) -> Any:
        records = open_store(store_path).cell_records()
        return {
            "cells": sorted(record.content_key() for record in records),
            "report": report_content(report),
        }

    def cleanup(self, store_path: str) -> None:
        for path in glob.glob(glob.escape(store_path) + "*"):
            os.remove(path)


class SmokeGrid(_CampaignWorkload):
    """The real ``smoke_campaign()`` grid: 2 lag, 2 qoe, 1 dynamics ramp."""

    name = "smoke_grid"
    # Five records: one resume plus report takes about 1.5 ms.
    read_repeats = 20
    expected = (
        "core.testbed.setup_s", "core.session.run_s",
        "core.session.readout_s", "core.postprocess.self_s",
        "net.simulator.self_s",
        "media.video_codec.encode_s", "media.video_codec.decode_s",
        "media.sync.video_align_s", "media.padding.resize_s",
        "clients.recorder.finalize_s", "qoe.video_s", "experiments.self_s",
        "campaign.runner.execute_cell_s", "campaign.store.append_s",
        "campaign.store.scan_s", "campaign.aggregate.fold_s",
        "campaign.aggregate.report_s", "campaign.fabric.self_s",
        "net.simulator.events", "net.packets_sent",
        "platforms.packets_forwarded",
    )

    def _spec(self) -> Any:
        return smoke_campaign(master_seed=self.master_seed)


class FabricCalibration(_CampaignWorkload):
    """``calibration_campaign(spin_ms=0)`` no-op cells: all fabric work.

    The run phase appends (one fsync per record, the default policy);
    the read phase scans the complete store and folds every record.
    """

    name = "fabric_calibration"
    expected = (
        "campaign.runner.execute_cell_s", "campaign.store.append_s",
        "campaign.store.scan_s", "campaign.aggregate.fold_s",
        "campaign.aggregate.report_s", "campaign.fabric.self_s",
    )

    def _spec(self) -> Any:
        return calibration_campaign(cells=CALIBRATION_CELLS, spin_ms=0.0,
                                    master_seed=self.master_seed)


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (BandwidthCell, SfuSession, SmokeGrid, FabricCalibration)
}


def make(name: str, seed: int, workdir: str) -> Workload:
    """Build one workload's inputs (the set-up ``setup_s`` times)."""
    return WORKLOADS[name](seed, workdir)


def names() -> List[str]:
    return list(WORKLOADS)
