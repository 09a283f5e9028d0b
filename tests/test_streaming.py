"""Streaming ingestion (Section IX future work #1)."""

import pytest

from repro import Schema
from repro.core.tables import CommonTable
from repro.errors import (
    ExecutionError,
    ReplicationQuorumError,
    TableExistsError,
)
from repro.streaming import StreamTopic

from conftest import POI_SCHEMA_FIELDS, T0


def order_event(i, t_offset=0.0):
    return {"oid": str(i), "lng": 116.0 + (i % 50) * 0.01, "lat": 39.9,
            "ts": int((T0 + t_offset + i) * 1000)}


CONFIG = {
    "fid": "to_int(oid)",
    "name": "oid",
    "time": "long_to_date_ms(ts)",
    "geom": "lng_lat_to_point(lng, lat)",
}


class TestStreamTopic:
    def test_append_and_read(self):
        topic = StreamTopic("t")
        # Both append and append_many return the next end offset.
        assert topic.append({"a": 1}) == 1
        assert topic.append({"a": 2}) == 2
        assert topic.append_many([{"a": 3}, {"a": 4}]) == 4
        assert topic.read(0, 10) == [{"a": 1}, {"a": 2}, {"a": 3},
                                     {"a": 4}]
        assert topic.read(1, 1) == [{"a": 2}]
        assert topic.end_offset == 4

    def test_events_are_copied(self):
        topic = StreamTopic("t")
        event = {"a": 1}
        topic.append(event)
        event["a"] = 99
        assert topic.read(0, 1) == [{"a": 1}]

    def test_negative_offset(self):
        with pytest.raises(ExecutionError):
            StreamTopic("t").read(-1, 5)

    def test_nonpositive_max_events_rejected(self):
        topic = StreamTopic("t")
        topic.append({"a": 1})
        with pytest.raises(ExecutionError):
            topic.read(0, 0)
        with pytest.raises(ExecutionError):
            topic.read(0, -3)  # a negative slice must not return events


class TestStreamLoader:
    def setup_engine(self, engine):
        engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
        topic = engine.create_topic("gps")
        return topic

    def test_micro_batches(self, engine):
        topic = self.setup_engine(engine)
        topic.append_many(order_event(i) for i in range(25))
        loader = engine.stream_load("gps", "poi", CONFIG, batch_size=10)
        assert loader.lag == 25
        stats = loader.poll()
        assert (stats["consumed"], stats["loaded"], stats["dropped"]) \
            == (10, 10, 0)
        assert stats["sim_ms"] > 0
        assert loader.lag == 15
        totals = loader.drain()
        assert totals["loaded"] == 15
        assert engine.table("poi").row_count == 25

    def test_loaded_rows_are_queryable(self, engine):
        from repro.geometry import Envelope
        topic = self.setup_engine(engine)
        topic.append(order_event(3))
        engine.stream_load("gps", "poi", CONFIG).drain()
        rows = engine.st_range_query(
            "poi", Envelope(115.9, 39.8, 116.6, 40.0),
            T0, T0 + 100).rows
        assert len(rows) == 1

    def test_filter_drops_events(self, engine):
        topic = self.setup_engine(engine)
        topic.append_many(order_event(i) for i in range(10))
        loader = engine.stream_load(
            "gps", "poi", CONFIG,
            row_filter=lambda e: int(e["oid"]) % 2 == 0)
        totals = loader.drain()
        assert totals["loaded"] == 5 and totals["dropped"] == 5
        assert loader.total_dropped == 5

    def test_independent_consumers(self, engine):
        topic = self.setup_engine(engine)
        engine.create_table("poi2", Schema(list(POI_SCHEMA_FIELDS)))
        topic.append_many(order_event(i) for i in range(6))
        a = engine.stream_load("gps", "poi", CONFIG)
        b = engine.stream_load("gps", "poi2", CONFIG)
        a.drain()
        assert b.lag == 6  # b's offset is untouched
        b.drain()
        assert engine.table("poi2").row_count == 6

    def test_resume_after_new_events(self, engine):
        topic = self.setup_engine(engine)
        loader = engine.stream_load("gps", "poi", CONFIG)
        topic.append(order_event(1))
        loader.drain()
        topic.append(order_event(2))
        assert loader.lag == 1
        loader.drain()
        assert engine.table("poi").row_count == 2

    def test_streaming_historical_events_accepted(self, engine):
        """Unlike ST-Hadoop, late events for old periods just work."""
        topic = self.setup_engine(engine)
        topic.append(order_event(1, t_offset=-86400.0 * 365))
        engine.stream_load("gps", "poi", CONFIG).drain()
        assert engine.table("poi").row_count == 1

    def test_duplicate_topic_rejected(self, engine):
        engine.create_topic("gps")
        with pytest.raises(TableExistsError):
            engine.create_topic("gps")

    def test_loader_validates_table(self, engine):
        engine.create_topic("gps")
        from repro.errors import TableNotFoundError
        with pytest.raises(TableNotFoundError):
            engine.stream_load("gps", "missing", CONFIG)

    def test_loaders_listed_in_sys_streams(self, engine):
        topic = self.setup_engine(engine)
        topic.append_many(order_event(i) for i in range(5))
        loader = engine.stream_load("gps", "poi", CONFIG,
                                    name="gps-loader")
        rows = engine.sql("SELECT loader, lag, loaded "
                          "FROM sys.streams").rows
        assert rows == [{"loader": "gps-loader", "lag": 5, "loaded": 0}]
        loader.drain()
        rows = engine.sql("SELECT lag, loaded FROM sys.streams").rows
        assert rows == [{"lag": 0, "loaded": 5}]


class TestAtLeastOnce:
    """The headline bugfix: offsets commit only after the insert."""

    def setup_engine(self, engine):
        engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
        return engine.create_topic("gps")

    def _flaky_insert(self, monkeypatch, fail_on_call: int,
                      after_rows: int = 0):
        """Patch ``insert_rows`` to fail once, mid-drain.

        ``after_rows`` > 0 applies that many rows *before* raising —
        the torn-batch case re-delivery must repair idempotently.
        """
        real = CommonTable.insert_rows
        calls = {"n": 0}

        def flaky(table_self, rows, job=None):
            calls["n"] += 1
            if calls["n"] == fail_on_call:
                if after_rows:
                    real(table_self, rows[:after_rows], job)
                raise ReplicationQuorumError("poi", 0, 0, acks=1,
                                             required=2)
            return real(table_self, rows, job)

        monkeypatch.setattr(CommonTable, "insert_rows", flaky)
        return calls

    def test_offset_not_committed_on_failed_insert(self, engine,
                                                   monkeypatch):
        topic = self.setup_engine(engine)
        topic.append_many(order_event(i) for i in range(30))
        loader = engine.stream_load("gps", "poi", CONFIG, batch_size=10)
        self._flaky_insert(monkeypatch, fail_on_call=2)
        loader.poll()
        assert loader.offset == 10
        with pytest.raises(ReplicationQuorumError):
            loader.poll()
        # The failed batch was NOT acked: offset stays, lag stays.
        assert loader.offset == 10
        assert loader.lag == 20
        # Retry re-reads the same batch; nothing is lost.
        loader.drain()
        assert loader.offset == 30
        assert engine.table("poi").row_count == 30

    def test_torn_batch_repaired_by_redelivery(self, engine,
                                               monkeypatch):
        """A partial insert + retry must neither lose nor duplicate."""
        topic = self.setup_engine(engine)
        topic.append_many(order_event(i) for i in range(30))
        loader = engine.stream_load("gps", "poi", CONFIG, batch_size=10)
        self._flaky_insert(monkeypatch, fail_on_call=2, after_rows=4)
        loader.poll()
        with pytest.raises(ReplicationQuorumError):
            loader.poll()
        loader.drain()
        # Inserts are idempotent upserts by primary key: the 4 torn
        # rows were re-delivered, not doubled.
        assert engine.table("poi").row_count == 30
        fids = sorted(r["fid"] for r in
                      engine.sql("SELECT fid FROM poi").rows)
        assert fids == list(range(30))

    def test_empty_poll_is_free(self, engine):
        self.setup_engine(engine)
        loader = engine.stream_load("gps", "poi", CONFIG)
        stats = loader.poll()
        assert stats == {"consumed": 0, "loaded": 0, "dropped": 0,
                         "emitted": 0, "alerts": 0, "sim_ms": 0.0}

    def test_all_filtered_batch_charges_filter_only(self, engine):
        topic = self.setup_engine(engine)
        topic.append_many(order_event(i) for i in range(10))
        loader = engine.stream_load("gps", "poi", CONFIG,
                                    row_filter=lambda e: False)
        stats = loader.poll()
        assert stats["consumed"] == 10 and stats["loaded"] == 0
        assert engine.table("poi").row_count == 0
        # Filter CPU only — no insert, no disk write.  A real 10-row
        # insert under the same cost model is orders of magnitude more.
        from repro.core.loader import apply_config
        insert_job = engine.cluster.job()
        engine.table("poi").insert_rows(
            [apply_config(order_event(i), CONFIG) for i in range(10)],
            insert_job)
        assert stats["sim_ms"] < insert_job.elapsed_ms / 10
        assert stats["sim_ms"] < 0.01

    def test_restart_resume_at_saved_offset(self, engine):
        """Recreating a loader at a saved offset: no dups, no gaps."""
        topic = self.setup_engine(engine)
        topic.append_many(order_event(i) for i in range(25))
        loader = engine.stream_load("gps", "poi", CONFIG, batch_size=10)
        loader.poll()
        saved = loader.offset
        assert saved == 10
        # "Restart": a brand-new loader resuming from the checkpoint.
        resumed = engine.stream_load("gps", "poi", CONFIG,
                                     batch_size=10, start_offset=saved)
        resumed.drain()
        assert resumed.offset == 25
        assert engine.table("poi").row_count == 25
        fids = sorted(r["fid"] for r in
                      engine.sql("SELECT fid FROM poi").rows)
        assert fids == list(range(25))

    def test_negative_start_offset_rejected(self, engine):
        self.setup_engine(engine)
        with pytest.raises(ExecutionError):
            engine.stream_load("gps", "poi", CONFIG, start_offset=-1)
