"""Live campaign status: tail a store, read-only.

``repro campaign watch <store>`` attaches to a JSONL store that another
process is writing and folds newly-appended records through a
:class:`~repro.campaign.fabric.streaming.StreamingAggregator`,
printing throughput, ETA, per-kind progress and recent failures on
each tick.  With ``--report`` it also keeps a Markdown report file
refreshed in place, so the paper tables grow live during a 48-hour
run.

Watching never writes to the store: :meth:`tail` only opens read
handles, and its cursor is the byte offset read so far.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, Optional, TextIO

from ...analysis.report import ExperimentReport
from ..stores import open_store
from .streaming import ProgressSnapshot, StreamingAggregator


def render_deltas(deltas: "list[tuple[str, int, int]]") -> str:
    """Per-kind movement lines for one watch tick.

    ``deltas`` comes from
    :meth:`~repro.campaign.fabric.streaming.StreamingAggregator.kind_deltas`;
    only kinds that actually moved appear, with signed ok/failed
    counts (a failure superseded by a retry's ok shows as ``-1
    failed``).
    """
    lines = []
    for kind, ok_delta, failed_delta in deltas:
        parts = []
        if ok_delta:
            parts.append(f"{ok_delta:+d} ok")
        if failed_delta:
            parts.append(f"{failed_delta:+d} failed")
        lines.append(f"  delta {kind:<10} {', '.join(parts)}")
    return "\n".join(lines)


def load_fabric_health(store: Any) -> Optional[Dict[str, Any]]:
    """The scheduler's checkpoint sidecar, or ``None``.

    The sidecar (``fabric.json`` next to the store) is where the
    scheduler persists degradation state -- the attempts worker deaths
    charged per cell, quarantined cells, executor downgrades and
    pending backoff waits.  The scheduler writes it only when that state
    changes, so a run with no failure has none: ``None`` means nothing
    to report.  Watching also tolerates a torn sidecar (the writer may
    be mid-``os.replace``).
    """
    path = store.sidecar_path("fabric.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def render_fabric_health(checkpoint: Dict[str, Any],
                         now_wall: Optional[float] = None) -> str:
    """Degradation lines for one watch tick (empty if all healthy).

    Surfaces the hardening state a long watch actually needs: which
    cells are quarantined as poison, whether the crash-loop breaker
    degraded the executor, and which cells are sitting out a backoff
    wait (with seconds remaining against the wall clock).
    """
    now = time.time() if now_wall is None else now_wall
    lines = []
    quarantined = checkpoint.get("quarantined") or []
    if quarantined:
        shown = ", ".join(quarantined[:3])
        more = f" (+{len(quarantined) - 3} more)" if len(quarantined) > 3 else ""
        lines.append(
            f"  fabric: {len(quarantined)} quarantined poison cell(s): "
            f"{shown}{more}"
        )
    degraded = checkpoint.get("degraded")
    if degraded:
        lines.append(f"  fabric: executor degraded -- {degraded}")
    backoff = checkpoint.get("backoff") or {}
    waiting = sorted(
        (until - now, cell_id)
        for cell_id, until in backoff.items()
        if until - now > 0
    )
    if waiting:
        head = ", ".join(
            f"{cell_id} ({left:.1f}s)" for left, cell_id in waiting[:3]
        )
        more = f" (+{len(waiting) - 3} more)" if len(waiting) > 3 else ""
        lines.append(
            f"  fabric: {len(waiting)} cell(s) in retry backoff: "
            f"{head}{more}"
        )
    return "\n".join(lines)


def render_snapshot(snapshot: ProgressSnapshot) -> str:
    """One status block for a terminal tick."""
    rate = (
        f"{snapshot.cells_per_s:.1f} cells/s" if snapshot.cells_per_s
        else "rate n/a"
    )
    eta = (
        f"ETA {snapshot.eta_s:.0f}s" if snapshot.eta_s is not None
        else "ETA n/a"
    )
    lines = [
        f"campaign {snapshot.name!r} [{snapshot.spec_hash[:12]}]: "
        f"{snapshot.ok}/{snapshot.total} ok, {snapshot.failed} failed, "
        f"{snapshot.pending} pending | {rate}, {eta} | "
        f"{snapshot.runtime_s:.1f}s cell runtime"
    ]
    for kind, total, done, failed, pend in snapshot.kind_rows:
        lines.append(
            f"  {kind:<10} {done}/{total} done, {failed} failed, "
            f"{pend} pending"
        )
    for cell_id, error in snapshot.recent_failures:
        lines.append(f"  ! {cell_id}: {error}")
    return "\n".join(lines)


def watch_store(
    store_path: str,
    interval_s: float = 1.0,
    once: bool = False,
    report_path: Optional[str] = None,
    stream: Optional[TextIO] = None,
    max_ticks: Optional[int] = None,
) -> ProgressSnapshot:
    """Tail a store until its campaign completes (or ``once``).

    Args:
        store_path: Store path; must exist already.
        interval_s: Seconds between polls.
        once: Render a single snapshot and return (status check).
        report_path: Keep a Markdown report refreshed here each tick
            that brought new records.
        stream: Where status blocks go (default stdout).
        max_ticks: Stop after this many polls even if incomplete
            (mainly for tests and bounded CI watches).

    Returns:
        The final :class:`ProgressSnapshot` observed.
    """
    out = stream if stream is not None else sys.stdout
    store = open_store(store_path)
    spec = store.spec()  # raises CampaignError if the store is missing
    aggregator = StreamingAggregator(spec)
    report: Optional[ExperimentReport] = None
    if report_path is not None:
        report = ExperimentReport(f"Campaign report: {spec.name}")
    cursor: Any = None
    ticks = 0
    while True:
        records, cursor = store.tail(cursor)
        if ticks == 0:
            # History replays in a tight loop: seed it at one instant,
            # so no throughput or ETA is made up from the replay.
            aggregator.seed(records)
        else:
            for record in records:
                aggregator.fold(record)
        snapshot = aggregator.snapshot()
        # The first tick folds history, so it only sets the movement
        # baseline; later ticks print what landed since the previous
        # one.
        deltas = aggregator.kind_deltas()
        print(render_snapshot(snapshot), file=out, flush=True)
        if ticks and deltas:
            print(render_deltas(deltas), file=out, flush=True)
        checkpoint = load_fabric_health(store)
        if checkpoint is not None:
            health = render_fabric_health(checkpoint)
            if health:
                print(health, file=out, flush=True)
        if report is not None and (records or ticks == 0):
            aggregator.refresh_report(report)
            report.save(report_path)
        ticks += 1
        if once or snapshot.complete:
            return snapshot
        if max_ticks is not None and ticks >= max_ticks:
            return snapshot
        time.sleep(interval_s)
