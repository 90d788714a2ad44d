"""Continuous batching mechanisms: the event timeline, EDF admission,
backpressure, safe-point hooks, and the latency surface.

The differential pins (every tenant's transcript byte-identical to its
solo run, including under chaos and rebalancing) live in
``tests/properties/test_property_async.py``; this file tests the
machinery itself — where batches land on the modeled timeline, which
requests a batch admits and in what order, when submissions are
refused, and what the stats surface reports.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import AdmissionError
from repro.serve import (
    CuLiServer,
    DevicePipeline,
    LatencyReservoir,
    generate_trace,
    replay_trace,
)

DEVICE = "gtx1080"


# ---------------------------------------------------------------------------
# DevicePipeline: the virtual-time double-buffer model
# ---------------------------------------------------------------------------


class TestDevicePipeline:
    def test_first_batch_runs_serially(self):
        pipe = DevicePipeline()
        done = pipe.charge(0.0, upload_ms=2.0, kernel_ms=10.0, download_ms=1.0)
        assert done == pytest.approx(13.0)
        assert pipe.completed_ms == pytest.approx(13.0)
        # No prior kernel to hide under: pipelined == serial, zero overlap.
        assert pipe.serial_ms == pytest.approx(13.0)
        assert pipe.overlap_ms == pytest.approx(0.0)

    def test_upload_hides_under_previous_kernel(self):
        pipe = DevicePipeline()
        pipe.charge(0.0, upload_ms=2.0, kernel_ms=10.0, download_ms=1.0)
        done = pipe.charge(0.0, upload_ms=2.0, kernel_ms=10.0, download_ms=1.0)
        # Batch 2's upload runs on the up-link during batch 1's kernel
        # (up-link free at 2.0, kernel busy until 12.0): kernel 2 starts
        # the moment kernel 1 ends, so only the serial model pays the
        # second upload.
        slot = pipe.last
        assert slot.upload_start_ms == pytest.approx(2.0)
        assert slot.kernel_start_ms == pytest.approx(12.0)
        assert done == pytest.approx(23.0)
        assert pipe.serial_ms == pytest.approx(26.0)
        assert pipe.overlap_ms == pytest.approx(3.0)

    def test_full_duplex_link_downloads_do_not_block_uploads(self):
        pipe = DevicePipeline()
        pipe.charge(0.0, upload_ms=1.0, kernel_ms=1.0, download_ms=50.0)
        pipe.charge(0.0, upload_ms=1.0, kernel_ms=1.0, download_ms=1.0)
        slot = pipe.last
        # The huge result download of batch 1 occupies the down-link
        # only; batch 2's upload and kernel proceed underneath it.
        assert slot.kernel_start_ms == pytest.approx(2.0)
        # ...but the down-link itself is serial: batch 2's (tiny)
        # download queues behind batch 1's.
        assert slot.download_end_ms == pytest.approx(53.0)

    def test_floor_delays_every_phase(self):
        pipe = DevicePipeline()
        pipe.charge(5.0, upload_ms=1.0, kernel_ms=2.0, download_ms=1.0)
        assert pipe.last.upload_start_ms == pytest.approx(5.0)
        assert pipe.completed_ms == pytest.approx(9.0)

    def test_horizon_is_engine_or_uplink_availability(self):
        pipe = DevicePipeline()
        assert pipe.horizon_ms == pytest.approx(0.0)
        pipe.charge(0.0, upload_ms=3.0, kernel_ms=10.0, download_ms=20.0)
        # The next batch could start its kernel once engine frees at 13;
        # the slow download is invisible to admission.
        assert pipe.horizon_ms == pytest.approx(13.0)

    def test_zero_cost_batch_is_free(self):
        pipe = DevicePipeline()
        done = pipe.charge(7.0, 0.0, 0.0, 0.0)
        assert done == pytest.approx(7.0)
        assert pipe.overlap_ms == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Scheduler mode selection
# ---------------------------------------------------------------------------


class TestModeSelection:
    def test_default_is_async(self):
        """With no ``scheduler=`` the drain runs the per-device
        pipelines: the batch lands on the device's event timeline."""
        with CuLiServer(devices=[DEVICE]) as server:
            assert server.open_session().eval("(+ 1 2)") == "3"
            (dev,) = server.stats.snapshot()["scheduler"]["devices"].values()
            assert dev["batches"] == 1

    def test_unknown_mode_rejected(self):
        for mode in ("round-robin", "lockstep"):
            with pytest.raises(ValueError, match="scheduler"):
                CuLiServer(devices=[DEVICE], scheduler=mode)

    def test_explicit_surviving_modes_are_accepted(self):
        """``scheduler="async"`` and ``placement="cost"`` name the only
        discipline and load model; callers that spell them out (the
        repository benchmark does) keep working."""
        with CuLiServer(
            devices=[DEVICE], scheduler="async", placement="cost"
        ) as server:
            session = server.open_session()
            assert session.eval("(setq x 10)") == "10"
            assert session.eval("(* x x)") == "100"


# ---------------------------------------------------------------------------
# EDF admission and ordering
# ---------------------------------------------------------------------------


class TestEDFBatchFormation:
    def test_deadline_order_beats_submission_order(self):
        """An SLO-bearing request jumps ahead of earlier bulk arrivals
        within one batch (order inside a batch is the order requests
        were packed, which is the EDF order)."""
        with CuLiServer(devices=[DEVICE]) as server:
            bulk = server.open_session("bulk")            # no deadline
            urgent = server.open_session("urgent", slo_ms=1.0)
            bulk.submit("(+ 1 1)", arrival_ms=0.0)
            urgent.submit("(+ 2 2)", arrival_ms=0.0)
            pdev = server.pool[bulk.device_id]
            batch = server.scheduler.form_batch_async(pdev)
            assert [t.session.session_id for t in batch] == [
                urgent.session_id,
                bulk.session_id,
            ]
            # form_batch_async pops its picks: run them so nothing hangs.
            server.scheduler.dispatch(pdev, batch)

    def test_bulk_ties_break_by_arrival_then_seq(self):
        with CuLiServer(devices=[DEVICE]) as server:
            a = server.open_session("a")
            b = server.open_session("b")
            tb = b.submit("(+ 2 2)", arrival_ms=0.0)
            ta = a.submit("(+ 1 1)", arrival_ms=0.0)
            pdev = server.pool[a.device_id]
            batch = server.scheduler.form_batch_async(pdev)
            # Equal (inf) deadlines and equal arrivals: global submission
            # order (seq) decides, so b's earlier submit wins.
            assert batch == [tb, ta]
            server.flush()

    def test_per_session_fifo_is_inviolable(self):
        """Only the head-of-line ticket per session is a candidate, so a
        later command can never overtake an earlier one from the same
        tenant — even when the later one's deadline is tighter."""
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session("s", slo_ms=5.0)
            first = session.submit("(setq x 1)", arrival_ms=0.0)
            second = session.submit("(setq x 2)", arrival_ms=0.0)
            pdev = server.pool[session.device_id]
            batch = server.scheduler.form_batch_async(pdev)
            assert batch == [first]
            server.flush()
            assert second.ok

    def test_future_arrivals_wait_behind_the_horizon(self):
        """A request that has not arrived by the admission horizon stays
        queued while arrived work is served."""
        with CuLiServer(devices=[DEVICE]) as server:
            now_s = server.open_session("now")
            later_s = server.open_session("later")
            now = now_s.submit("(+ 1 1)", arrival_ms=0.0)
            later = later_s.submit("(+ 2 2)", arrival_ms=1e6)
            pdev = server.pool[now_s.device_id]
            batch = server.scheduler.form_batch_async(pdev)
            assert batch == [now]
            server.scheduler.dispatch(pdev, batch)
            server.flush()  # jumps the horizon forward for `later`
            assert now.ok and later.ok
            assert later.resolve_ms >= 1e6

    def test_horizon_jumps_to_earliest_arrival_when_device_idle(self):
        """An all-future queue still yields a batch: the horizon jumps
        forward (the device sits idle until work arrives) instead of
        spinning or deadlocking."""
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session("s")
            ticket = session.submit("(+ 1 1)", arrival_ms=500.0)
            server.flush()
            assert ticket.ok
            assert ticket.resolve_ms >= 500.0
            assert server.scheduler.now_ms >= 500.0

    def test_no_slo_batches_keep_submission_order(self):
        """No SLOs, equal arrivals: EDF collapses to submission order,
        one ticket per session per batch."""
        with CuLiServer(devices=[DEVICE], max_batch=4) as server:
            sessions = [server.open_session(f"t{i}") for i in range(6)]
            first = [s.submit("(+ 1 1)", arrival_ms=0.0) for s in sessions]
            second = [s.submit("(+ 2 2)", arrival_ms=0.0) for s in sessions]
            pdev = server.pool[sessions[0].device_id]
            batches = []
            while pdev.queue:
                batch = server.scheduler.form_batch_async(pdev)
                server.scheduler.dispatch(pdev, batch)
                batches.append(batch)
            assert batches == [
                first[:4],
                first[4:] + second[:2],
                second[2:],
            ]


# ---------------------------------------------------------------------------
# Admission control (backpressure)
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def test_queue_cap_rejects_with_admission_error(self):
        with CuLiServer(devices=[DEVICE], max_session_queue=3) as server:
            session = server.open_session()
            for i in range(3):
                session.submit(f"(+ {i} 1)")
            with pytest.raises(AdmissionError, match="3"):
                session.submit("(+ 99 1)")
            assert server.stats.requests_rejected == 1
            # Draining releases the slots: submission works again.
            server.flush()
            assert session.pending == 0
            session.submit("(+ 99 1)")
            server.flush()

    def test_cap_is_per_session_not_global(self):
        with CuLiServer(devices=[DEVICE], max_session_queue=1) as server:
            a = server.open_session("a")
            b = server.open_session("b")
            a.submit("(+ 1 1)")
            b.submit("(+ 2 2)")  # b's own slot, not blocked by a
            with pytest.raises(AdmissionError):
                a.submit("(+ 3 3)")
            server.flush()

    def test_rejected_submission_leaves_no_ticket(self):
        with CuLiServer(devices=[DEVICE], max_session_queue=1) as server:
            session = server.open_session()
            session.submit("(+ 1 1)")
            before = server.stats.requests_enqueued
            with pytest.raises(AdmissionError):
                session.submit("(+ 2 2)")
            assert server.stats.requests_enqueued == before
            assert session.pending == 1
            server.flush()
            assert session.pending == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match="max_session_queue"):
            CuLiServer(devices=[DEVICE], max_session_queue=0)


# ---------------------------------------------------------------------------
# The latency surface
# ---------------------------------------------------------------------------


class TestLatencyReservoir:
    def test_exact_percentiles_small_sample(self):
        res = LatencyReservoir()
        for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
            res.record(v)
        assert res.percentile(0) == 1.0
        assert res.percentile(50) == 3.0
        assert res.percentile(100) == 5.0
        assert res.mean == pytest.approx(3.0)
        assert res.max == 5.0
        assert res.count == 5

    def test_bounded_memory_exact_aggregates(self):
        res = LatencyReservoir(capacity=64)
        for i in range(10_000):
            res.record(float(i))
        assert len(res._samples) == 64
        assert res.count == 10_000
        assert res.max == 9999.0
        assert res.mean == pytest.approx(4999.5)

    def test_seeded_replacement_is_deterministic(self):
        a, b = LatencyReservoir(capacity=32), LatencyReservoir(capacity=32)
        for i in range(1000):
            a.record(float(i % 97))
            b.record(float(i % 97))
        assert a.snapshot() == b.snapshot()

    def test_empty_snapshot_is_zeros(self):
        snap = LatencyReservoir().snapshot()
        assert snap == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
            "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0,
        }


class TestLatencyAccounting:
    def test_every_completed_request_is_sampled(self):
        with CuLiServer(devices=[DEVICE] * 2) as server:
            sessions = [server.open_session(f"t{i}") for i in range(4)]
            for s in sessions:
                for i in range(3):
                    s.submit(f"(+ {i} 1)")
            server.flush()
            snap = server.stats.snapshot()["latency"]
            assert snap["count"] == 12
            assert 0.0 <= snap["p50_ms"] <= snap["p95_ms"] <= snap["p99_ms"]
            assert snap["p99_ms"] <= snap["max_ms"]

    def test_latency_measured_from_arrival(self):
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session()
            ticket = session.submit("(+ 1 1)", arrival_ms=100.0)
            server.flush()
            assert ticket.resolve_ms >= 100.0
            latency = ticket.resolve_ms - ticket.arrival_ms
            assert server.stats.latency.max == pytest.approx(latency)

    def test_async_resolves_per_device(self):
        """Per-device pipelines: co-round tickets on different devices
        resolve at their own batch completion, not a shared barrier."""
        with CuLiServer(devices=[DEVICE] * 2) as server:
            a = server.open_session("a")
            b = server.open_session("b")
            ta = a.submit("(+ 1 1)")
            tb = b.submit("(length (list 1 2 3 4 5 6 7 8 9))")
            server.flush()
            assert ta.resolve_ms != tb.resolve_ms

    def test_render_includes_latency_and_scheduler_lines(self):
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session()
            session.eval("(+ 1 2)")
            text = server.stats.render()
            assert "latency:" in text
            assert "p50" in text and "p99" in text
            assert "scheduler: virtual clock" in text
            assert "rejected" in text


# ---------------------------------------------------------------------------
# Scheduler timeline gauge
# ---------------------------------------------------------------------------


class TestSchedulerSnapshot:
    def test_snapshot_reports_pipelines(self):
        with CuLiServer(devices=[DEVICE] * 2) as server:
            sessions = [server.open_session(f"t{i}") for i in range(4)]
            for s in sessions:
                for i in range(3):
                    s.submit(f"(* {i} {i})")
            server.flush()
            sched = server.stats.snapshot()["scheduler"]
            assert sched["makespan_ms"] > 0.0
            assert len(sched["devices"]) == 2
            for dev in sched["devices"].values():
                assert dev["batches"] > 0
                assert dev["completed_ms"] <= dev["serial_ms"]

    def test_back_to_back_batches_overlap_transfers(self):
        """A device running several queued batches hides uploads under
        kernels: pipelined completion beats the serial clock."""
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session()
            items = " ".join(str(i) for i in range(64))
            for _ in range(6):
                session.submit(f"(length (list {items}))")
            server.flush()
            sched = server.stats.snapshot()["scheduler"]
            (dev,) = sched["devices"].values()
            assert dev["batches"] == 6
            assert dev["overlap_ms"] > 0.0
            assert dev["completed_ms"] < dev["serial_ms"]


# ---------------------------------------------------------------------------
# Safe points: the rebalancer and supervisor hooks
# ---------------------------------------------------------------------------


class TestSafePoints:
    def test_interval_checkpoints_still_ship(self):
        with CuLiServer(
            devices=[DEVICE] * 2,
            failover=True,
            checkpoint_interval=2,
        ) as server:
            session = server.open_session()
            session.eval("(setq x 1)")
            for i in range(6):
                session.eval(f"(setq x (+ x {i}))")
            assert server.stats.checkpoints_shipped > 0

    def test_rebalancer_still_fires_on_skew(self):
        with CuLiServer(devices=[DEVICE] * 2, rebalance=True, max_batch=8) as server:
            tenants = [server.open_session(f"t{i}") for i in range(8)]
            for r in range(3):
                for i, t in enumerate(tenants):
                    for c in range(4 if i % 2 == 0 else 1):
                        t.submit(f"(+ {r} (* {i} {c}))")
                server.flush()
            assert server.stats.sessions_migrated > 0
            for t in tenants:
                assert all(
                    not s.output.startswith("error:") for s in t.history
                )

    def test_pipeline_survives_device_reset(self):
        """A failover replaces the device object, not virtual time: the
        pipeline clock never rewinds across a loss."""
        from repro.serve import ChaosMonkey

        with CuLiServer(
            devices=[DEVICE] * 2,
            failover=True,
            checkpoint_interval=1,
            chaos=ChaosMonkey(seed=7, kill_rate=0.2),
        ) as server:
            session = server.open_session()
            watermarks = []
            for i in range(12):
                session.eval(f"(+ {i} 1)")
                watermarks.append(server.scheduler.now_ms)
            assert watermarks == sorted(watermarks)


# ---------------------------------------------------------------------------
# The trace generator
# ---------------------------------------------------------------------------


class TestTraceGenerator:
    def test_same_seed_same_trace(self):
        a = generate_trace(seed=42, tenants=8, requests=64)
        b = generate_trace(seed=42, tenants=8, requests=64)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_trace(seed=1) != generate_trace(seed=2)

    def test_sorted_by_arrival(self):
        trace = generate_trace(seed=3, tenants=8, requests=64)
        arrivals = [r.arrival_ms for r in trace]
        assert arrivals == sorted(arrivals)

    def test_mixed_classes_and_slos(self):
        trace = generate_trace(seed=5, tenants=8, requests=64)
        classes = {r.tenant_class for r in trace}
        assert classes == {"interactive", "bulk"}
        for r in trace:
            if r.tenant_class == "interactive":
                assert r.slo_ms is not None and r.slo_ms > 0
            else:
                assert r.slo_ms is None

    def test_skew_concentrates_load_on_hot_tenants(self):
        trace = generate_trace(seed=7, tenants=16, requests=320, skew=4.0)
        per_tenant = {}
        for r in trace:
            per_tenant[r.tenant] = per_tenant.get(r.tenant, 0) + 1
        hot = sum(per_tenant.get(t, 0) for t in range(4))
        cold = sum(per_tenant.get(t, 0) for t in range(4, 16))
        # 4 hot tenants at 4x weight carry ~16/28 of the load: clearly
        # more per tenant than the 12 cold ones.
        assert hot / 4 > 2.0 * (cold / 12)

    def test_heavy_tail_present_in_bulk_only(self):
        trace = generate_trace(seed=9, tenants=8, requests=128, heavy_tail=0.5)
        heavy = [r for r in trace if len(r.text) > 80]
        assert heavy, "a 0.5 heavy-tail rate must draw some heavy forms"
        assert all(r.tenant_class == "bulk" for r in heavy)

    def test_replay_is_deterministic_and_complete(self):
        trace = generate_trace(seed=11, tenants=4, requests=32)
        outputs = []
        for _ in range(2):
            with CuLiServer(devices=[DEVICE] * 2) as server:
                sessions, tickets = replay_trace(server, trace)
                assert len(sessions) == 4
                assert len(tickets) == len(trace)
                server.flush()
                assert all(t.done for t in tickets)
                outputs.append([t.output for t in tickets])
        assert outputs[0] == outputs[1]

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            generate_trace(tenants=0)
        with pytest.raises(ValueError):
            generate_trace(requests=0)


# ---------------------------------------------------------------------------
# Ticket deadline metadata
# ---------------------------------------------------------------------------


class TestTicketDeadlines:
    def test_slo_session_sets_finite_deadline(self):
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session(slo_ms=5.0)
            ticket = session.submit("(+ 1 1)", arrival_ms=10.0)
            assert ticket.deadline_ms == pytest.approx(15.0)
            server.flush()

    def test_bulk_session_deadline_is_inf(self):
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session()
            ticket = session.submit("(+ 1 1)")
            assert math.isinf(ticket.deadline_ms)
            server.flush()

    def test_default_arrival_is_the_virtual_now(self):
        with CuLiServer(devices=[DEVICE]) as server:
            session = server.open_session()
            session.eval("(+ 1 1)")  # advance the pipeline clock
            now = server.scheduler.now_ms
            assert now > 0.0
            ticket = session.submit("(+ 2 2)")
            assert ticket.arrival_ms == pytest.approx(now)
            server.flush()
