"""Tests for the unified observability layer (repro.obs)."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.comm import count_communications
from repro.config import laptop
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
from repro.graph import build_cholesky_graph, compile_cholesky
from repro.obs import (
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.export import assign_lanes
from repro.ooc import TileCache, execute_block_left_looking
from repro.runtime.distributed import execute_distributed
from repro.runtime.execution import InitialDataSpec
from repro.runtime.local import execute_graph
from repro.runtime.simulator import simulate, simulate_compiled
from repro.tiles.generation import random_spd_dense
from repro.tiles.layout import TileGrid


def small_graph(ntiles=10, b=32, r=4):
    d = SymmetricBlockCyclic(r)
    return build_cholesky_graph(ntiles, b, d), laptop(nodes=d.num_nodes, cores=2)


@pytest.fixture
def traced():
    g, machine = small_graph()
    rec = Recorder(source="simulator")
    rep = simulate(g, machine, recorder=rec)
    return g, rep, rec


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.5, labels=(1, 2))
        assert c.value() == 1.0
        assert c.value((1, 2)) == 2.5
        assert c.total() == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set_max(3.0)
        g.set_max(1.0)
        assert g.value() == 3.0
        g.set(0.5)
        assert g.value() == 0.5

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (0.001, 0.002, 10.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(10.003)
        assert h.mean == pytest.approx(10.003 / 3)
        assert h.min == 0.001 and h.max == 10.0
        assert h.quantile(0.5) <= h.quantile(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_registry_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")
        reg.gauge("g")
        with pytest.raises(TypeError):
            reg.counter("g")

    def test_get_or_create_returns_same(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.get("missing") is None

    def test_as_dict_and_summary(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2, labels=(0, 1))
        reg.gauge("g").set(7)
        reg.histogram("h").observe(3.0)
        d = reg.as_dict()
        assert d["c"]["values"]["0|1"] == 2
        assert d["g"]["values"][""] == 7
        assert d["h"]["count"] == 1
        text = reg.summary()
        for name in ("c", "g", "h"):
            assert name in text


class TestRecorder:
    def test_null_recorder_is_noop(self):
        rec = NULL_RECORDER
        assert not rec.enabled
        rec.record_task(0, "POTRF", 0, 0.0, 0.0, 1.0)
        rec.record_transfer("k", 0, 1, 10, 0.0, 0.0, 1.0)
        rec.record_io("load", "k", 10, 0.0)
        rec.record_cache("hit", "k", 10, 0.0)
        rec.finalize_utilization([1.0], 1.0)
        assert rec.num_events() == 0
        assert len(rec.metrics) == 0

    def test_null_recorder_disables_simulator_tracing(self):
        g, machine = small_graph(6)
        rep = simulate(g, machine, recorder=NullRecorder())
        assert rep.trace is None and rep.transfers is None and rep.obs is None

    def test_events_are_immutable_and_hashable(self, traced):
        _g, _rep, rec = traced
        e = rec.task_events[0]
        with pytest.raises(AttributeError):
            e.start = 0.0
        assert hash(e) == hash(e._replace())
        moved = e._replace(start=e.start + 1.0)
        assert moved.start == e.start + 1.0 and moved.end == e.end
        assert moved != e and moved.duration == e.end - moved.start

    def test_invalid_ops_rejected(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            rec.record_io("write", "k", 1, 0.0)
        with pytest.raises(ValueError):
            rec.record_cache("flush", "k", 1, 0.0)
        with pytest.raises(ValueError):
            rec.record_fault("explode", 0.0)

    def test_fault_events_feed_metrics(self):
        rec = Recorder()
        rec.record_fault("loss", 1.0, src=0, dst=2, key="k")
        rec.record_fault("retry", 1.5, src=0, dst=2, key="k")
        rec.record_fault("crash", 2.0, node=3, detail="after 7 tasks")
        assert rec.metrics.counter("faults").value(("loss",)) == 1
        assert rec.metrics.counter("faults").value(("crash",)) == 1
        assert rec.num_events() >= 3

    def test_cache_hit_rate(self):
        rec = Recorder()
        assert rec.cache_hit_rate() is None
        rec.record_cache("hit", "a", 8, 1.0)
        rec.record_cache("miss", "b", 8, 2.0)
        assert rec.cache_hit_rate() == pytest.approx(0.5)


_WAITS = st.sampled_from([0.0, 1e-6, 0.25]) | st.floats(0, 10)


@st.composite
def task_rows(draw):
    ready = draw(st.floats(0, 1e3))
    start = ready + draw(_WAITS)
    return (draw(st.integers(0, 99)),
            draw(st.sampled_from(["POTRF", "TRSM", "SYRK", "GEMM"])),
            draw(st.integers(0, 3)), ready, start,
            start + draw(st.floats(0, 10)), draw(st.floats(0, 1e9)))


@st.composite
def transfer_rows(draw):
    submitted = draw(st.floats(0, 1e3))
    started = submitted + draw(_WAITS)
    return (draw(st.sampled_from(["a", ("A", 1, 0), 7])),
            draw(st.integers(0, 3)), draw(st.integers(0, 3)),
            draw(st.integers(0, 1 << 22)), submitted, started,
            started + draw(st.floats(0, 10)))


def _batches(rows, held, cuts):
    """``rows[held:]`` cut at ``cuts`` (repeats give empty batches)."""
    edges = ([held] + sorted(min(max(c, held), len(rows)) for c in cuts)
             + [len(rows)])
    return [rows[a:b] for a, b in zip(edges, edges[1:])]


@settings(max_examples=80, deadline=None)
@given(tasks=st.lists(task_rows(), max_size=30),
       transfers=st.lists(transfer_rows(), max_size=30),
       held=st.integers(0, 30), cuts=st.lists(st.integers(0, 30), max_size=4))
def test_bulk_recording_is_per_row_recording(tasks, transfers, held, cuts):
    """Rows recorded in batches (empty ones among them, the first onto a
    recorder already holding ``held`` rows) are the events and the metrics
    document of one ``record_task`` / ``record_transfer`` per row: every
    sum is accumulated in row order."""
    one, bulk = Recorder(), Recorder()
    for rows, single, many in (
            (tasks, "record_task", "record_tasks"),
            (transfers, "record_transfer", "record_transfers")):
        for row in rows:
            getattr(one, single)(*row)
        for row in rows[:held]:
            getattr(bulk, single)(*row)
        for batch in _batches(rows, min(held, len(rows)), cuts):
            getattr(bulk, many)(batch)
    assert bulk.task_events == one.task_events
    assert bulk.transfer_events == one.transfer_events
    assert (json.dumps(bulk.metrics.as_dict(), sort_keys=True)
            == json.dumps(one.metrics.as_dict(), sort_keys=True))


def test_an_empty_batch_registers_no_metric():
    rec = Recorder()
    rec.record_tasks([])
    rec.record_transfers([])
    assert len(rec.metrics) == 0 and rec.num_events() == 0


class TestSimulatorIntegration:
    def test_metrics_match_comm_counter(self, traced):
        """The acceptance invariant: traced wire bytes == counted volume."""
        g, rep, rec = traced
        stats = count_communications(g)
        assert rec.metrics.counter("net.bytes").total() == stats.total_bytes
        assert rec.metrics.counter("net.messages").total() == stats.num_messages
        assert sum(e.nbytes for e in rec.transfer_events) == stats.total_bytes
        # Per-source sums match the counter's sent_bytes breakdown.
        per_src = {}
        for (src, _dst), v in rec.bytes_by_pair().items():
            per_src[src] = per_src.get(src, 0) + v
        assert per_src == stats.sent_bytes

    def test_trace_fields_on_report(self, traced):
        g, rep, rec = traced
        assert rep.obs is rec
        assert rep.trace is rec.task_events
        assert rep.transfers is rec.transfer_events
        assert len(rec.task_events) == len(g.tasks)

    def test_task_events_carry_kind_and_node(self, traced):
        g, _rep, rec = traced
        for e in rec.task_events:
            t = g.tasks[e.task_id]
            assert e.kind == t.kind and e.node == t.node and e.flops == t.flops

    def test_utilization_metrics(self, traced):
        _g, rep, rec = traced
        util = rec.metrics.gauge("worker.utilization")
        for node in range(rep.num_nodes):
            assert 0.0 <= util.value((node,)) <= 1.0

    #: SHA-256 of ``json.dumps(metrics.as_dict(), sort_keys=True)`` for a
    #: traced N = 24 run, recorded at 8a810f4 — before a recorder kept the
    #: metric objects of its per-event counters instead of looking them up
    #: by name on every event.
    METRICS_AT_PARENT = {
        "core": "68743968216ac8e2183ff4de30e997559e7f78025e3322737fb6f557e51e94b3",
        "oracle": "bc31d8662ce1228d585e1a5b5e4119ac3d528525adcfb8a487d75d7f6b2639a8",
    }

    @pytest.mark.parametrize("engine", ["core", "oracle"])
    def test_metrics_document_is_the_recorded_one(self, engine):
        d = SymmetricBlockCyclic(4)
        m = laptop(nodes=d.num_nodes, cores=2)
        rep = (simulate_compiled(compile_cholesky(24, 64, d), m, trace=True)
               if engine == "core"
               else simulate(build_cholesky_graph(24, 64, d), m, trace=True))
        doc = json.dumps(rep.obs.metrics.as_dict(), sort_keys=True)
        assert (hashlib.sha256(doc.encode()).hexdigest()
                == self.METRICS_AT_PARENT[engine])

    def test_a_metric_is_registered_by_its_first_event(self):
        """One node sends nothing, so no ``net.*`` metric exists."""
        rep = simulate_compiled(compile_cholesky(4, 64, BlockCyclic2D(1, 1)),
                                laptop(nodes=1, cores=2), trace=True)
        assert sorted(rep.obs.metrics.as_dict()) == [
            "makespan.seconds", "queue.depth.max", "task.seconds",
            "task.wait.seconds", "tasks", "worker.busy.seconds",
            "worker.utilization"]

    def test_untraced_run_records_nothing(self):
        g, machine = small_graph(6)
        rep = simulate(g, machine)
        assert rep.obs is None and rep.trace is None


class TestExport:
    def test_jsonl_round_trip(self, traced, tmp_path):
        _g, _rep, rec = traced
        rec.record_io("load", ("A", 0, 0), 64, 1.0)
        rec.record_cache("miss", ("A", 0, 0), 64, 2.0)
        rec.record_fault("loss", 3.0, src=0, dst=1, key=("A", 0, 0),
                         detail="retry at 3.1")
        path = write_jsonl(rec, tmp_path / "trace.jsonl")
        back = read_jsonl(path)
        assert back.source == rec.source
        assert back.task_events == rec.task_events
        assert back.transfer_events == rec.transfer_events
        assert back.io_events == rec.io_events
        assert back.cache_events == rec.cache_events
        assert back.fault_events == rec.fault_events
        # Replayed metrics equal the originals (modulo gauges, which are
        # finalized by the runtime, not the events).
        assert (back.metrics.counter("net.bytes").values
                == rec.metrics.counter("net.bytes").values)
        assert (back.metrics.counter("tasks").values
                == rec.metrics.counter("tasks").values)

    #: SHA-256 of both exports of a traced N = 24 core run, recorded when
    #: the events were frozen dataclasses and the core appended its rows
    #: as it went, in a second loop that traced runs took then.
    EXPORTS_AT_PARENT = {
        "jsonl": "6bac511748ca1740f371f665ca10bff237f95e5d4b087a66ebb21e377fb9fd55",
        "chrome": "8b2879ccf4cc7118b8c1cd92937e4465032f8115cda8d213265b6fa555d40ffd",
    }

    def test_exports_are_the_recorded_ones(self, tmp_path):
        d = SymmetricBlockCyclic(4)
        rec = simulate_compiled(compile_cholesky(24, 64, d),
                                laptop(nodes=d.num_nodes, cores=2),
                                trace=True).obs
        for name, write in (("jsonl", write_jsonl),
                            ("chrome", write_chrome_trace)):
            with open(write(rec, tmp_path / name), "rb") as fh:
                assert (hashlib.sha256(fh.read()).hexdigest()
                        == self.EXPORTS_AT_PARENT[name])
        back = read_jsonl(tmp_path / "jsonl")
        assert back.task_events == rec.task_events
        assert back.transfer_events == rec.transfer_events
        assert back.fault_events == rec.fault_events

    def test_jsonl_rejects_bad_version(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"type": "header", "version": 99}\n')
        with pytest.raises(ValueError):
            read_jsonl(p)

    def test_jsonl_rejects_unknown_record(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError):
            read_jsonl(p)

    def test_chrome_trace_structure(self, traced):
        g, _rep, rec = traced
        doc = chrome_trace(rec)
        assert doc["otherData"]["source"] == "simulator"
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        tasks = [e for e in slices if e["cat"] == "task"]
        xfers = [e for e in slices if e["cat"] == "transfer"]
        assert len(tasks) == len(g.tasks)
        assert len(xfers) == len(rec.transfer_events)
        for e in slices:
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_chrome_trace_fault_instants(self, traced):
        _g, _rep, rec = traced
        rec.record_fault("crash", 1.0, node=2, detail="after 5 tasks")
        rec.record_fault("loss", 0.5, src=1, dst=3, key=("A", 0, 0))
        doc = chrome_trace(rec)
        instants = [e for e in doc["traceEvents"]
                    if e.get("cat") == "fault" and e.get("ph") == "i"]
        assert len(instants) == 2
        # crash lands on the affected node's track; loss on the source's
        assert {e["pid"] for e in instants} == {2, 1}
        names = [e for e in doc["traceEvents"]
                 if e.get("name") == "thread_name"
                 and e["args"]["name"] == "faults"]
        assert {e["pid"] for e in names} == {2, 1}

    def test_chrome_trace_lanes_do_not_overlap(self, traced):
        _g, _rep, rec = traced
        doc = chrome_trace(rec)
        by_lane = {}
        for e in doc["traceEvents"]:
            if e.get("ph") == "X":
                by_lane.setdefault((e["pid"], e["tid"]), []).append(
                    (e["ts"], e["ts"] + e["dur"])
                )
        for spans in by_lane.values():
            spans.sort()
            for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
                assert s1 >= e0 - 1e-6

    def test_assign_lanes(self):
        lanes = assign_lanes([(0, 2), (1, 3), (2, 4)])
        assert lanes[0] == 0 and lanes[1] == 1 and lanes[2] == 0

    def test_trace_path_perfetto_bytes_equal_counter(self, tmp_path):
        """Acceptance criterion: simulate_cholesky(..., trace_path=...)
        produces a Perfetto-loadable JSON whose summed transfer bytes
        equal count_communications on the same graph."""
        ntiles, b, r = 10, 64, 4
        path = tmp_path / "run.json"
        rep = repro.simulate_cholesky(
            ntiles=ntiles, b=b, dist=SymmetricBlockCyclic(r),
            machine=laptop(nodes=6, cores=2), trace_path=str(path),
        )
        with open(path) as fh:
            doc = json.load(fh)
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        summed = sum(e["args"]["nbytes"] for e in doc["traceEvents"]
                     if e.get("cat") == "transfer")
        g = build_cholesky_graph(ntiles, b, SymmetricBlockCyclic(r))
        assert summed == count_communications(g).total_bytes
        assert summed == rep.comm_bytes


class TestLocalRuntimeIntegration:
    def test_sequential_records_all_tasks(self):
        g, _machine = small_graph(6)
        rec = Recorder()
        execute_graph(g, InitialDataSpec(TileGrid(n=192, b=32)), recorder=rec)
        assert rec.source == "local"
        assert len(rec.task_events) == len(g.tasks)
        assert {e.task_id for e in rec.task_events} == set(range(len(g.tasks)))
        for e in rec.task_events:
            assert e.end >= e.start >= e.ready >= 0.0
        assert rec.metrics.gauge("store.bytes.max").value() > 0

    def test_threaded_records_all_tasks(self):
        g, _machine = small_graph(6)
        rec = Recorder()
        execute_graph(g, InitialDataSpec(TileGrid(n=192, b=32)),
                      num_threads=3, recorder=rec)
        assert len(rec.task_events) == len(g.tasks)
        for e in rec.task_events:
            assert e.end >= e.start >= e.ready >= 0.0

    def test_recorder_does_not_change_results(self):
        dist = SymmetricBlockCyclic(4)
        rec = Recorder()
        L1, _ = repro.cholesky(n=128, b=32, dist=dist, recorder=rec)
        L2, _ = repro.cholesky(n=128, b=32, dist=dist)
        np.testing.assert_allclose(L1, L2)


class TestDistributedIntegration:
    def test_transfer_events_match_measured_traffic(self):
        g, _machine = small_graph(6, b=16)
        rec = Recorder()
        rep = execute_distributed(
            g, InitialDataSpec(TileGrid(n=96, b=16)), recorder=rec
        )
        assert rec.source == "distributed"
        stats = count_communications(g)
        assert sum(e.nbytes for e in rec.transfer_events) == stats.total_bytes
        assert rec.metrics.counter("net.bytes").total() == rep.total_bytes
        assert len(rec.transfer_events) == rep.total_messages
        assert len(rec.task_events) == len(g.tasks)
        assert rep.obs is rec


class TestOutOfCoreIntegration:
    def test_io_events_match_traffic(self):
        a = random_spd_dense(64, seed=0)
        rec = Recorder()
        res = execute_block_left_looking(a, M=3 * 16 * 16, q=16, recorder=rec)
        io = rec.metrics.counter("io.bytes")
        assert io.value(("load",)) == res.loaded * 8
        assert io.value(("store",)) == res.stored * 8
        assert len(rec.io_events) > 0
        assert rec.source == "ooc"

    def test_tile_cache_events(self):
        rec = Recorder()
        cache = TileCache(100, recorder=rec)
        cache.load("a", 60)
        cache.load("a", 60)
        cache.create("b", 30)
        cache.touch_dirty("b")
        cache.load("c", 80)  # evicts a (clean) and b (dirty)
        ops = rec.metrics.counter("cache.ops")
        assert ops.value(("miss",)) == 2
        assert ops.value(("hit",)) == 1
        assert ops.value(("evict",)) == 2
        assert rec.metrics.counter("cache.writeback.bytes").total() == 30 * 8
        assert rec.cache_hit_rate() == pytest.approx(1 / 3)
        assert rec.metrics.counter("cache.ops").value(("create",)) == 1

    def test_tile_cache_flush_emits_evictions(self):
        rec = Recorder()
        cache = TileCache(100, recorder=rec)
        cache.load("a", 40)
        cache.create("b", 30)
        ticks_before = max(e.time for e in rec.cache_events)
        cache.flush()
        evicts = [e for e in rec.cache_events if e.op == "evict"]
        assert {e.key for e in evicts} == {"a", "b"}
        # the dirty created tile is written back, the clean load is not
        assert {e.key: e.dirty for e in evicts} == {"a": False, "b": True}
        assert rec.metrics.counter("cache.writeback.bytes").total() == 30 * 8
        # the logical clock keeps advancing through the flush
        assert all(e.time > ticks_before for e in evicts)
        assert cache.used == 0


class TestSelfcheck:
    def test_selfcheck_exits_zero(self, capsys):
        assert obs_main(["--selfcheck"]) == 0
        assert "obs selfcheck OK" in capsys.readouterr().out

    def test_no_args_prints_help(self, capsys):
        assert obs_main([]) == 2
