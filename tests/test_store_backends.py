"""The campaign store contract: shared behaviour + corruption.

``TestStoreContract`` pins what every caller relies on (the runner,
status, report, watch and gc all open stores by path).  Corruption
cases (truncated tail, mid-file damage, missing or foreign header) are
part of the contract: crash debris must be tolerated, silent data loss
must not.  Paths that named the removed sqlite and sharded-directory
backends must fail loudly instead of being misread as JSONL.
"""

import json
import sqlite3

import pytest

from repro.campaign import (
    CampaignStore,
    CellRecord,
    open_store,
    run_campaign,
)
from repro.campaign.grids import calibration_campaign
from repro.errors import CampaignError, StoreIntegrityError


# One backend is left; the ``[jsonl]`` id suffix keeps these tests'
# ids stable.
@pytest.fixture(params=["jsonl"])
def store_path(tmp_path, request):
    return str(tmp_path / f"store.{request.param}")


def spec_of(cells=3, name="contract"):
    return calibration_campaign(cells=cells, name=name)


def record_for(cell, spec, status="ok"):
    return CellRecord(
        cell_id=cell.cell_id, kind=cell.kind, params=dict(cell.params),
        seed=cell.seed, spec_hash=spec.spec_hash(), status=status,
        duration_s=0.01,
        metrics={"index": cell.params["index"], "value": 1} if status == "ok"
        else None,
        error=None if status == "ok" else "boom",
    )


class TestBackendSelection:
    def test_by_scheme_prefix(self):
        for scheme in ("sqlite", "shards"):
            with pytest.raises(CampaignError,
                               match=f"the {scheme} backend was removed"):
                open_store(f"{scheme}:results")

    def test_trailing_slash_means_directory(self):
        with pytest.raises(CampaignError, match="is a directory"):
            open_store("campaign/")

    def test_existing_directory_means_shards(self, tmp_path):
        with pytest.raises(CampaignError,
                           match="the shards backend was removed"):
            open_store(str(tmp_path))

    def test_empty_scheme_path_rejected(self):
        with pytest.raises(CampaignError):
            open_store("sqlite:")
        with pytest.raises(CampaignError):
            open_store("")

    def test_open_store_classes(self, tmp_path):
        # Any file path is a JSONL store, whatever its suffix.
        for name in ("a.jsonl", "a.sqlite", "a.db", "plain.txt"):
            assert isinstance(open_store(str(tmp_path / name)),
                              CampaignStore)


class TestStoreContract:
    def test_initialise_and_read_back(self, store_path):
        spec = spec_of()
        store = open_store(store_path)
        store.initialise(spec)
        for cell in spec.expand():
            store.append_cell(record_for(cell, spec))
        store.close()

        reopened = open_store(store_path)
        assert reopened.exists()
        assert reopened.spec_hash() == spec.spec_hash()
        assert reopened.spec().spec_hash() == spec.spec_hash()
        records = reopened.cell_records()
        assert [r.cell_id for r in records] == [
            c.cell_id for c in spec.expand()
        ]
        assert reopened.completed_ids() == {
            c.cell_id for c in spec.expand()
        }

    def test_initialise_refuses_existing(self, store_path):
        spec = spec_of()
        store = open_store(store_path)
        store.initialise(spec)
        store.close()
        with pytest.raises(CampaignError):
            open_store(store_path).initialise(spec)

    def test_missing_store_header_raises(self, store_path):
        with pytest.raises(CampaignError):
            open_store(store_path).header()

    def test_verify_spec_mismatch(self, store_path):
        store = open_store(store_path)
        store.initialise(spec_of())
        store.verify_spec(spec_of())
        with pytest.raises(StoreIntegrityError):
            store.verify_spec(spec_of(cells=4))
        store.close()

    def test_error_records_do_not_complete_cells(self, store_path):
        spec = spec_of()
        cells = spec.expand()
        store = open_store(store_path)
        store.initialise(spec)
        store.append_cell(record_for(cells[0], spec))
        store.append_cell(record_for(cells[1], spec, status="error"))
        store.close()
        assert open_store(store_path).completed_ids() == {cells[0].cell_id}

    def test_tail_is_incremental(self, store_path):
        spec = spec_of(cells=4)
        cells = spec.expand()
        store = open_store(store_path)
        store.initialise(spec)
        store.append_cell(record_for(cells[0], spec))

        reader = open_store(store_path)
        first, cursor = reader.tail()
        assert [r.cell_id for r in first] == [cells[0].cell_id]

        for cell in cells[1:3]:
            store.append_cell(record_for(cell, spec))
        fresh, cursor = reader.tail(cursor)
        assert [r.cell_id for r in fresh] == [c.cell_id for c in cells[1:3]]
        nothing, cursor = reader.tail(cursor)
        assert nothing == []
        store.close()

    def test_run_campaign_against_backend(self, store_path):
        spec = spec_of(cells=4, name="run")
        summary = run_campaign(spec, store_path, workers=1)
        assert summary.executed == 4 and summary.failed == 0
        again = run_campaign(spec, store_path, workers=1, resume=True)
        assert again.executed == 0 and again.skipped == 4


class TestGc:
    """``campaign gc``: compaction is part of the store contract."""

    def test_gc_drops_superseded_errors(self, store_path):
        spec = spec_of(cells=4, name="gc")
        cells = spec.expand()
        store = open_store(store_path)
        store.initialise(spec)
        store.append_cell(record_for(cells[0], spec, status="error"))
        store.append_cell(record_for(cells[0], spec))  # retry's ok
        store.append_cell(record_for(cells[1], spec, status="error"))
        store.append_cell(record_for(cells[2], spec))
        store.close()

        stats = open_store(store_path).gc()
        assert stats.errors_dropped == 1
        assert stats.records_kept == 3
        assert stats.reclaimed

        reopened = open_store(store_path)
        assert reopened.spec_hash() == spec.spec_hash()  # header survives
        records = reopened.cell_records()
        assert len(records) == 3
        # The live failure (no superseding ok) is untouched.
        statuses = {r.cell_id: r.status for r in records}
        assert statuses[cells[1].cell_id] == "error"
        assert reopened.completed_ids() == {
            cells[0].cell_id, cells[2].cell_id
        }

    def test_gc_is_idempotent_and_resume_safe(self, store_path):
        spec = spec_of(cells=3, name="gcresume")
        cells = spec.expand()
        store = open_store(store_path)
        store.initialise(spec)
        store.append_cell(record_for(cells[0], spec, status="error"))
        store.append_cell(record_for(cells[0], spec))
        store.close()

        assert open_store(store_path).gc().errors_dropped == 1
        second = open_store(store_path).gc()
        assert second.errors_dropped == 0
        assert not second.reclaimed
        # A resume still runs exactly the genuinely-pending cells.
        summary = run_campaign(spec, store_path, workers=1, resume=True)
        assert summary.skipped == 1 and summary.executed == 2
        assert open_store(store_path).completed_ids() == {
            c.cell_id for c in cells
        }

    def test_gc_missing_store_errors(self, store_path):
        with pytest.raises(CampaignError):
            open_store(store_path).gc()

    def test_gc_heals_torn_tail(self, store_path):
        spec = spec_of(cells=3, name="gctorn")
        cells = spec.expand()
        store = open_store(store_path)
        store.initialise(spec)
        for cell in cells:
            store.append_cell(record_for(cell, spec))
        store.close()
        debris = '{"type": "cell", "cell_id": "noop:torn'
        with open(store_path, "a", encoding="utf-8") as handle:
            handle.write(debris)

        stats = open_store(store_path).gc()
        assert stats.debris_bytes == len(debris)
        assert stats.records_kept == 3
        # The file really is clean now: raw bytes end on a newline.
        with open(store_path, "rb") as handle:
            assert handle.read().endswith(b"\n")
        reopened = open_store(store_path)
        assert reopened.completed_ids() == {c.cell_id for c in cells}
        # Appending after gc still works (fresh handle, clean tail).
        writer = open_store(store_path)
        writer.append_cell(record_for(cells[0], spec))
        writer.close()
        assert len(open_store(store_path).cell_records()) == 4


class TestCrashDebris:
    """Corruption semantics."""

    def initialised(self, store_path, cells=3):
        spec = spec_of(cells=cells)
        store = open_store(store_path)
        store.initialise(spec)
        for cell in spec.expand():
            store.append_cell(record_for(cell, spec))
        store.close()
        return spec

    def test_truncated_tail_tolerated(self, store_path):
        spec = self.initialised(store_path)
        with open(store_path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "cell_id": "noop:trunc')
        store = open_store(store_path)
        assert len(store.cell_records()) == 3
        assert store.completed_ids() == {c.cell_id for c in spec.expand()}

    def test_corrupt_final_line_tolerated(self, store_path):
        self.initialised(store_path)
        with open(store_path, "a", encoding="utf-8") as handle:
            handle.write("g@rbage not json\n")
        assert len(open_store(store_path).cell_records()) == 3

    def test_mid_file_corruption_raises(self, store_path):
        spec = self.initialised(store_path)
        with open(store_path, "a", encoding="utf-8") as handle:
            handle.write("g@rbage not json\n")
            handle.write(json.dumps(
                record_for(spec.expand()[0], spec).to_dict()
            ) + "\n")
        with pytest.raises(CampaignError, match="corrupt record"):
            open_store(store_path).cell_records()

    def test_jsonl_foreign_header_rejected(self, tmp_path):
        path = str(tmp_path / "foreign.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"type": "something-else"}\n')
        with pytest.raises(StoreIntegrityError):
            open_store(path).header()

    def test_sqlite_garbage_file_rejected(self, tmp_path):
        path = str(tmp_path / "garbage.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"this is not a database\n")
        with pytest.raises((CampaignError, StoreIntegrityError)):
            open_store(path).header()

    def test_existing_sqlite_database_rejected(self, tmp_path):
        # A database left by the removed sqlite backend reads as a
        # foreign header, not as JSONL corruption or a decode error.
        path = str(tmp_path / "old.sqlite")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute("CREATE TABLE cells (seq INTEGER PRIMARY KEY, "
                     "cell_id TEXT, payload TEXT)")
        conn.execute("INSERT INTO meta VALUES ('header', '{}')")
        conn.commit()
        conn.close()
        store = open_store(path)
        with pytest.raises(StoreIntegrityError,
                           match="does not start with a campaign header"):
            store.header()
        with pytest.raises(StoreIntegrityError):
            run_campaign(spec_of(), path, workers=1, resume=True)

    def test_resume_after_torn_append(self, store_path):
        # A kill mid-append leaves a torn tail; resume must re-run only
        # that cell.
        spec = spec_of(cells=4, name="torn")
        cells = spec.expand()
        store = open_store(store_path)
        store.initialise(spec)
        for cell in cells[:2]:
            store.append_cell(record_for(cell, spec))
        store.close()
        with open(store_path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "cell_id"')
        summary = run_campaign(spec, store_path, workers=1, resume=True)
        assert summary.skipped == 2 and summary.executed == 2
        final = open_store(store_path)
        assert final.completed_ids() == {c.cell_id for c in cells}
