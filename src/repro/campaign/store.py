"""The persistent result store of a measurement campaign.

A campaign store holds one header record (the campaign spec and its
content hash) plus one record per finished cell.  The header hash is
the integrity check: a store is only ever extended by the exact spec
that created it, and a crash mid-campaign loses at most the in-flight
cell -- every completed cell survives, so ``resume`` is a set
difference between the spec's expansion and the ids already persisted.

This module defines the :class:`CellRecord` schema and the one store,
:class:`CampaignStore`: an append-only JSONL file with torn-tail
healing, an fsync after every record, bounded retries on transient
append errors and atomic compaction.
:func:`repro.campaign.stores.open_store` opens a store by path.
"""

from __future__ import annotations

import errno as errno_mod
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from ..errors import CampaignError, StoreIntegrityError
from .spec import CampaignSpec, canonical_json

#: Record discriminators on the ``type`` field of each record.
HEADER_TYPE = "campaign"
CELL_TYPE = "cell"

#: errno values treated as *transient* on append: the media is busy or
#: momentarily full, not corrupt, so a bounded retry is safe.  Anything
#: else (and any integrity error) still refuses immediately.
TRANSIENT_APPEND_ERRNOS = frozenset({
    errno_mod.EIO, errno_mod.ENOSPC, errno_mod.EAGAIN, errno_mod.EINTR,
})

#: Retries (beyond the first try) one append gets on transient errors.
APPEND_RETRIES = 3


@dataclass
class CellRecord:
    """One persisted cell outcome.

    Attributes:
        cell_id: Stable identity from the spec expansion.
        kind: Experiment kind.
        params: Axis values the cell ran with.
        seed: Derived per-cell seed the drivers were reseeded with.
        spec_hash: Hash of the owning campaign spec.
        status: ``"ok"`` or ``"error"``.
        duration_s: Wall-clock runtime of the cell.
        finished_at: Unix timestamp when the cell completed.
        metrics: Serialized driver output (``None`` on error).
        error: Exception text when ``status == "error"``.
        worker: Pid of the process that executed the cell.
    """

    cell_id: str
    kind: str
    params: Dict[str, Any]
    seed: int
    spec_hash: str
    status: str = "ok"
    duration_s: float = 0.0
    finished_at: float = 0.0
    metrics: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    worker: int = 0

    @property
    def ok(self) -> bool:
        """Whether the cell completed successfully."""
        return self.status == "ok"

    def content_key(self) -> Tuple[str, str, str, int, str, str]:
        """Run-invariant identity of this record's *content*.

        Excludes wall-clock fields (``duration_s``, ``finished_at``)
        and the executing pid, so two records are content-equal exactly
        when the cell produced the same result -- the equality the
        kill/resume self-check asserts across interrupted and
        uninterrupted runs.
        """
        return (
            self.cell_id,
            self.kind,
            canonical_json(self.params),
            self.seed,
            self.status,
            canonical_json([self.metrics, self.error]),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The serialized record payload."""
        return {
            "type": CELL_TYPE,
            "cell_id": self.cell_id,
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
            "spec_hash": self.spec_hash,
            "status": self.status,
            "duration_s": self.duration_s,
            "finished_at": self.finished_at,
            "metrics": self.metrics,
            "error": self.error,
            "worker": self.worker,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellRecord":
        """Rebuild a record from one parsed payload."""
        try:
            return cls(
                cell_id=data["cell_id"],
                kind=data["kind"],
                params=dict(data["params"]),
                seed=int(data["seed"]),
                spec_hash=data["spec_hash"],
                status=data["status"],
                duration_s=float(data.get("duration_s", 0.0)),
                finished_at=float(data.get("finished_at", 0.0)),
                metrics=data.get("metrics"),
                error=data.get("error"),
                worker=int(data.get("worker", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(f"bad cell record: {exc!r}") from exc


@dataclass(frozen=True)
class GcStats:
    """What one store compaction (``campaign gc``) reclaimed.

    Attributes:
        records_kept: Cell records surviving the rewrite.
        errors_dropped: Error records dropped because a later ``ok``
            record superseded them (latest-wins, same as resume).
        debris_bytes: Bytes of torn-tail crash debris healed away.
    """

    records_kept: int
    errors_dropped: int
    debris_bytes: int

    @property
    def reclaimed(self) -> bool:
        """Whether the compaction actually removed anything."""
        return self.errors_dropped > 0 or self.debris_bytes > 0


def partition_superseded(
    payloads: List[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], int]:
    """Split payloads into survivors and a superseded-error count.

    An error record is superseded when any ``ok`` record exists for
    the same cell -- exactly the records ``completed_ids`` already
    ignores, so dropping them never changes what a resume or report
    sees.  Non-cell payloads (headers) pass through untouched.
    """
    ok_ids = {
        p["cell_id"] for p in payloads
        if p.get("type") == CELL_TYPE and p.get("status") == "ok"
    }
    kept = [
        p for p in payloads
        if p.get("type") != CELL_TYPE
        or p.get("status") == "ok"
        or p.get("cell_id") not in ok_ids
    ]
    return kept, len(payloads) - len(kept)




def iter_jsonl_payloads(
    path: str, start: int = 0
) -> Iterator[Tuple[Dict[str, Any], int]]:
    """Yield ``(payload, end_offset)`` for each complete record line.

    A truncated or corrupt *final* line (crash mid-append) is
    tolerated -- iteration stops before it and the cursor never
    advances past it; corruption anywhere earlier raises, because an
    append-only file damaged mid-stream means lost results, not an
    interrupted write.
    """
    with open(path, "rb") as handle:
        handle.seek(start)
        offset = start
        for raw in handle:
            end = offset + len(raw)
            if not raw.endswith(b"\n"):
                return  # partial tail write; re-read once completed
            stripped = raw.strip()
            if not stripped:
                offset = end
                continue
            try:
                payload = json.loads(stripped.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                if handle.read(1):
                    raise CampaignError(
                        f"{path}: corrupt record at byte {offset}"
                    ) from None
                return  # corrupt final line: the interrupted append
            yield payload, end
            offset = end


class CampaignStore:
    """Append-only single-file JSONL campaign store.

    The first line is the header; every later line is one cell.  A
    persistent append handle is kept open across appends (reopening
    it per record made the store the bottleneck for sub-second cells).
    Every append is flushed, so live readers (``campaign watch``) see
    records immediately, and fsynced, so a kill loses at most the
    in-flight cell.
    """

    def __init__(self, path: str) -> None:
        if not path:
            raise CampaignError("a store needs a path")
        self.path = path
        self._header: Optional[Dict[str, Any]] = None
        self._handle = None

    # -- header and spec -------------------------------------------------

    def exists(self) -> bool:
        """Whether anything has been written at this path."""
        return os.path.exists(self.path) and os.path.getsize(self.path) > 0

    def initialise(self, spec: CampaignSpec,
                   cell_count: Optional[int] = None) -> None:
        """Write the header for a fresh store.

        ``cell_count`` is the size of the grid when the caller has
        already expanded it; otherwise the spec is expanded here.

        Raises:
            CampaignError: The path already holds a campaign (use
                :meth:`verify_spec` + resume instead of overwriting).
        """
        if self.exists():
            raise CampaignError(
                f"store {self.path!r} already exists; resume it or pick "
                "a new path"
            )
        header = {
            "type": HEADER_TYPE,
            "name": spec.name,
            "spec_hash": spec.spec_hash(),
            "created_at": time.time(),
            "cells": spec.cell_count() if cell_count is None else cell_count,
            "spec": spec.to_dict(),
        }
        os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                    exist_ok=True)
        self._write_line(header)
        self._header = header

    def header(self) -> Dict[str, Any]:
        """The campaign header record (parsed once, then cached --
        the header of an append-only store never changes)."""
        if self._header is not None:
            return self._header
        if not self.exists():
            raise CampaignError(f"no campaign store at {self.path!r}")
        # Only the first line: a file that is not a JSONL store (an
        # old sqlite database, say) must read as a foreign header, not
        # trip over mid-file "corruption".
        with open(self.path, "rb") as handle:
            first = handle.readline()
        try:
            header = json.loads(first.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            header = None
        if not isinstance(header, dict) or header.get("type") != HEADER_TYPE:
            raise StoreIntegrityError(
                f"{self.path!r} does not start with a campaign header"
            )
        self._header = header
        return header

    def spec(self) -> CampaignSpec:
        """The campaign spec persisted in the header."""
        return CampaignSpec.from_dict(self.header()["spec"])

    def spec_hash(self) -> str:
        """The spec hash persisted in the header."""
        return self.header()["spec_hash"]

    def verify_spec(self, spec: CampaignSpec) -> None:
        """Check that ``spec`` is the one this store was created from.

        Raises:
            StoreIntegrityError: The hashes differ -- resuming would mix
                results from two different grids in one store.
        """
        stored = self.spec_hash()
        current = spec.spec_hash()
        if stored != current:
            raise StoreIntegrityError(
                f"store {self.path!r} was created by spec {stored}, "
                f"refusing to resume with spec {current} "
                "(campaign definition changed; use a new store path)"
            )

    # -- reading ---------------------------------------------------------

    def cell_records(self) -> List[CellRecord]:
        """Every persisted cell record.

        Records come back in append order, so latest-wins dedup per
        cell is well defined.  A missing file raises (unlike
        :meth:`tail`, which reads it as empty).
        """
        return [
            CellRecord.from_dict(payload)
            for payload, _ in iter_jsonl_payloads(self.path)
            if payload.get("type") == CELL_TYPE
        ]

    def completed_ids(self) -> Set[str]:
        """Ids of cells that finished successfully (resume skips these)."""
        return {r.cell_id for r in self.cell_records() if r.ok}

    def tail(self, cursor: Optional[int] = None) -> Tuple[List[CellRecord], int]:
        """Records appended since ``cursor`` plus the new cursor.

        ``cursor=None`` starts from the beginning; callers only thread
        the cursor (a byte offset) through.  Reading is safe while
        another process appends (``campaign watch``).
        """
        offset = 0 if cursor is None else int(cursor)
        if not os.path.exists(self.path):
            return [], offset
        records: List[CellRecord] = []
        for payload, end in iter_jsonl_payloads(self.path, start=offset):
            if payload.get("type") == CELL_TYPE:
                records.append(CellRecord.from_dict(payload))
            offset = end
        return records, offset

    # -- writing ---------------------------------------------------------

    def append_cell(self, record: CellRecord) -> None:
        """Persist one finished cell, absorbing transient I/O errors.

        An ``OSError`` whose errno is in :data:`TRANSIENT_APPEND_ERRNOS`
        (EIO, ENOSPC, EAGAIN, EINTR -- busy or momentarily full media)
        gets up to :data:`APPEND_RETRIES` retries: the append handle is
        dropped (the next write reopens it, which also heals any
        partial line the failed write tore into the file), then a short
        deterministic backoff passes.  Anything else -- and every
        integrity refusal -- propagates unchanged: corruption is never
        retried into.
        """
        payload = record.to_dict()
        attempt = 0
        while True:
            try:
                if os.environ.get("REPRO_FAULT_PLAN"):
                    # Lazy: fabric imports this module at import time.
                    from .fabric.faults import fire_store_append
                    fire_store_append(self, payload)
                self._write_line(payload)
                return
            except OSError as exc:
                if (
                    exc.errno not in TRANSIENT_APPEND_ERRNOS
                    or attempt >= APPEND_RETRIES
                ):
                    raise CampaignError(
                        f"store {self.path!r}: append of "
                        f"{record.cell_id!r} failed after "
                        f"{attempt + 1} attempt(s): {exc}"
                    ) from exc
                attempt += 1
                self._drop_handle()
                from .fabric.faults import backoff_delay
                time.sleep(backoff_delay(
                    f"append:{record.cell_id}", attempt,
                    base_s=0.01, cap_s=0.2,
                ))

    def _write_line(self, payload: Dict[str, Any]) -> None:
        if self._handle is None:
            # A kill mid-append leaves a torn (or corrupt) final line.
            # Readers tolerate it, but appending *after* it would turn
            # the debris into permanent mid-file corruption, so the
            # partial tail is truncated away before the handle opens.
            # Its record was never complete; the cell re-runs on resume.
            if self.exists():
                valid_end = 0
                for _, end in iter_jsonl_payloads(self.path):
                    valid_end = end
                if valid_end < os.path.getsize(self.path):
                    with open(self.path, "r+b") as handle:
                        handle.truncate(valid_end)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _drop_handle(self) -> None:
        """Drop the append handle after a failed write; the next write
        reopens it and truncates any torn tail left behind."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def _torn_write(self, payload: Dict[str, Any]) -> None:
        """Tear a partial line into the file (the fault plane's
        ``store.append`` ``torn`` mode)."""
        with open(self.path, "ab") as handle:
            handle.write(b'{"type": "cell", "cell_id": "to')
            handle.flush()
            os.fsync(handle.fileno())

    def close(self) -> None:
        """Release the append handle (every append is already synced)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def sidecar_path(self, name: str) -> str:
        """Where scheduler sidecar state (checkpoints) lives."""
        return f"{self.path}.{name}"

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- compaction ------------------------------------------------------

    def gc(self) -> GcStats:
        """Compact the store in place.

        Drops error records superseded by a later ``ok`` for the same
        cell and heals torn-tail crash debris by rewriting only
        complete records.  The header survives unchanged, and nothing a
        resume, report or watch would use is ever removed.  The rewrite
        goes through a fsynced temporary and ``os.replace``, so a kill
        mid-gc leaves the original file intact.

        Raises:
            CampaignError: The store does not exist.
        """
        if not self.exists():
            raise CampaignError(f"no campaign store at {self.path!r}")
        self.header()  # integrity check before any rewrite
        self.close()  # the rewrite replaces the append handle's file
        size = os.path.getsize(self.path)
        payloads: List[Dict[str, Any]] = []
        valid_end = 0
        for payload, end in iter_jsonl_payloads(self.path):
            payloads.append(payload)
            valid_end = end
        kept, dropped = partition_superseded(payloads)
        tmp = f"{self.path}.gc"
        with open(tmp, "w", encoding="utf-8") as handle:
            for payload in kept:
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        if os.environ.get("REPRO_FAULT_PLAN"):
            # The crash window the gc-crash chaos case rehearses: dying
            # here must leave the original file untouched (plus a stray
            # .gc temp).
            from .fabric.faults import fire_gc_crash
            fire_gc_crash()
        os.replace(tmp, self.path)
        cells_kept = sum(1 for p in kept if p.get("type") == CELL_TYPE)
        return GcStats(cells_kept, dropped, size - valid_end)


#: perfbench/tracing.py binds append_cell/cell_records through this name.
CampaignStoreBase = CampaignStore
