"""Bulk collection jobs: host-sharded gpu-map through the serving stack.

Serve-level mechanics — sharding, gathering, admission, coexistence,
fault containment, failover. The builtin itself is covered in
tests/core/builtins/test_parallel_builtin.py and the differential pins
in tests/properties/test_property_bulk.py.
"""

import pytest

from repro.errors import AdmissionError, EvalError
from repro.serve import CuLiServer, ChaosMonkey, split_list_text
from repro.serve.bulk import capability_shares
from repro.serve.traces import generate_trace, replay_trace


# ---------------------------------------------------------------------------
# The paren-aware gather splitter
# ---------------------------------------------------------------------------


class TestSplitListText:
    def test_flat(self):
        assert split_list_text("(1 4 9)") == ["1", "4", "9"]

    def test_nested_lists_stay_whole(self):
        assert split_list_text("((1 2) (3 4) 5)") == ["(1 2)", "(3 4)", "5"]

    def test_deeply_nested(self):
        assert split_list_text("(((a b)) c)") == ["((a b))", "c"]

    def test_empty_forms(self):
        assert split_list_text("nil") == []
        assert split_list_text("()") == []

    def test_whitespace_tolerant(self):
        assert split_list_text("  ( 1   2 )  ") == ["1", "2"]

    def test_non_list_rejected(self):
        with pytest.raises(EvalError, match="expected a list"):
            split_list_text("42")

    def test_unbalanced_rejected(self):
        with pytest.raises(EvalError, match="unbalanced"):
            split_list_text("((1 2)")

    def test_strings_stay_whole(self):
        # Spaces and parentheses inside a string literal split nothing.
        assert split_list_text('("a b" ("c )" d) "" e)') == [
            '"a b"',
            '("c )" d)',
            '""',
            "e",
        ]


# ---------------------------------------------------------------------------
# Capability-weighted sharding
# ---------------------------------------------------------------------------


class TestCapabilityShares:
    def test_shares_sum_exactly(self):
        with CuLiServer(
            devices=["gtx1080", "tesla-m40", "intel-e5-2620"]
        ) as server:
            devices = list(server.pool.devices.values())
            for total in (0, 1, 7, 100, 999):
                shares = capability_shares(devices, total)
                assert sum(shares) == total

    def test_faster_device_gets_more(self):
        # A GTX 1080 outscores a Tesla M40 on the calibrated probe, so
        # it must absorb the larger contiguous range.
        with CuLiServer(devices=["gtx1080", "tesla-m40"]) as server:
            devices = list(server.pool.devices.values())
            fast, slow = (
                (devices[0], devices[1])
                if devices[0].probe_ms < devices[1].probe_ms
                else (devices[1], devices[0])
            )
            shares = dict(
                zip(
                    [d.device_id for d in devices],
                    capability_shares(devices, 1000),
                )
            )
            assert shares[fast.device_id] > shares[slow.device_id]

    def test_equal_devices_split_evenly(self):
        with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
            devices = list(server.pool.devices.values())
            assert capability_shares(devices, 100) == [50, 50]


# ---------------------------------------------------------------------------
# Shard → flush → gather
# ---------------------------------------------------------------------------


class TestBulkJob:
    def test_gather_in_element_order(self):
        with CuLiServer(
            devices=["gtx1080", "tesla-m40", "intel-e5-2620"]
        ) as server:
            out = server.gpu_map(
                "(lambda (x) (* x x))", list(range(1, 41)), chunk_elems=8
            )
            assert out == "(" + " ".join(
                str(x * x) for x in range(1, 41)
            ) + ")"

    def test_matches_single_device_gpu_map(self):
        elems = list(range(30))
        with CuLiServer(devices=["gtx1080"]) as solo:
            body = " ".join(str(e) for e in elems)
            want = solo.open_session().eval(
                f"(gpu-map (lambda (x) (+ (* x x) 1)) ({body}))"
            )
        with CuLiServer(devices=["gtx1080", "gtx1080", "tesla-m40"]) as fleet:
            got = fleet.gpu_map("(lambda (x) (+ (* x x) 1))", elems)
        assert got == want

    def test_string_results_match_unsharded_gpu_map(self):
        with CuLiServer(devices=["gtx1080"]) as solo:
            want = solo.open_session().eval('(gpu-map (lambda (x) "a b") (1 2 3))')
        assert want == '("a b" "a b" "a b")'
        with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
            got = server.gpu_map('(lambda (x) "a b")', [1, 2, 3])
        assert got == want

    def test_nested_list_results_gather_whole(self):
        with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
            out = server.gpu_map("(lambda (x) (list x (* 2 x)))", [1, 2, 3])
            assert out == "((1 2) (2 4) (3 6))"

    def test_empty_elements(self):
        with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
            assert server.gpu_map("+", []) == "nil"

    def test_result_before_flush_raises(self):
        with CuLiServer(devices=["gtx1080"]) as server:
            job = server.submit_bulk("(lambda (x) x)", [1, 2, 3])
            with pytest.raises(RuntimeError, match="flush"):
                job.result()
            server.flush()
            assert job.result() == "(1 2 3)"

    def test_chunk_elems_controls_fanout(self):
        with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
            job = server.submit_bulk(
                "(lambda (x) x)", list(range(100)), chunk_elems=10
            )
            server.flush()
            assert len(job.chunks) == 10  # 50 elements/device, 10 per chunk
            starts = sorted(c.start for c in job.chunks)
            assert starts == list(range(0, 100, 10))

    def test_bulk_sessions_are_reused_across_jobs(self):
        with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
            server.gpu_map("(lambda (x) x)", list(range(10)))
            n_sessions = len(server.sessions)
            server.gpu_map("(lambda (x) (* x x))", list(range(10)))
            assert len(server.sessions) == n_sessions

    def test_admission_headroom_coalesces_chunks(self):
        # Asking for more chunks than the session queue cap holds must
        # coalesce into fewer, bigger chunks — not trip AdmissionError.
        with CuLiServer(
            devices=["gtx1080"], max_session_queue=4
        ) as server:
            job = server.submit_bulk(
                "(lambda (x) x)", list(range(64)), chunk_elems=1
            )
            assert len(job.chunks) == 4
            server.flush()
            assert job.result() == "(" + " ".join(map(str, range(64))) + ")"

    def test_no_headroom_at_all_is_refused(self):
        with CuLiServer(
            devices=["gtx1080"], max_session_queue=2
        ) as server:
            server.submit_bulk("(lambda (x) x)", [1, 2, 3], chunk_elems=1)
            with pytest.raises(AdmissionError, match="headroom"):
                server.submit_bulk("(lambda (x) x)", [4, 5, 6], chunk_elems=1)
            server.flush()  # drained, headroom restored
            assert server.gpu_map("(lambda (x) x)", [7]) == "(7)"

    def test_refused_job_queues_no_chunk(self):
        """A job refused on one device's headroom queues nothing on the
        devices before it: no orphan chunk runs that no job can gather."""
        with CuLiServer(
            devices=["gtx1080", "tesla-v100"], max_session_queue=1
        ) as server:
            # One element goes to the faster V100 and fills its carrier.
            server.submit_bulk("(lambda (x) (* x x))", [1], chunk_elems=1)
            pending = server.pending
            jobs = server.stats.bulk_jobs
            with pytest.raises(AdmissionError, match="headroom"):
                server.submit_bulk(
                    "(lambda (x) (+ x 1))", [10, 20, 30, 40], chunk_elems=1
                )
            assert server.pending == pending == 1
            assert server.stats.bulk_jobs == jobs == 1
            server.flush()
            assert server.stats.requests_completed == 1


# ---------------------------------------------------------------------------
# Stats surface
# ---------------------------------------------------------------------------


class TestBulkStats:
    def test_snapshot_counters(self):
        with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
            job = server.submit_bulk(
                "(lambda (x) x)", list(range(40)), chunk_elems=10
            )
            server.flush()
            job.result()
            bulk = server.stats.snapshot()["bulk"]
            assert bulk["jobs"] == 1
            assert bulk["chunks"] == len(job.chunks) == 4
            assert bulk["elements"] == 40
            assert bulk["jobs_gathered"] == 1
            assert bulk["chunk_errors"] == 0

    def test_chunk_errors_counted_once(self):
        with CuLiServer(devices=["gtx1080"]) as server:
            job = server.submit_bulk("(lambda (x) (car x))", [1, 2])
            server.flush()
            with pytest.raises(EvalError):
                job.result()
            with pytest.raises(EvalError):
                job.result()  # re-reading must not double-count
            bulk = server.stats.snapshot()["bulk"]
            assert bulk["jobs_gathered"] == 1
            assert bulk["chunk_errors"] == 1

    def test_render_has_bulk_line(self):
        with CuLiServer(devices=["gtx1080"]) as server:
            server.gpu_map("(lambda (x) x)", [1, 2, 3])
            assert any(
                line.startswith("bulk:")
                for line in server.stats.render().splitlines()
            )


# ---------------------------------------------------------------------------
# Fault containment (PR 4 rules apply per chunk)
# ---------------------------------------------------------------------------


class TestBulkFaults:
    def test_failed_chunk_raises_with_range_context(self):
        with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
            job = server.submit_bulk(
                "(lambda (x) (car x))", list(range(20)), chunk_elems=10
            )
            server.flush()
            assert not job.ok
            with pytest.raises(EvalError, match=r"chunk \[0:"):
                job.result()

    def test_sibling_chunks_still_complete(self):
        # One poisoned element range must not stop other ranges: mix a
        # fn that faults only on one value.
        with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
            job = server.submit_bulk(
                "(lambda (x) (if (< x 0) (car x) (* x x)))",
                [1, 2, -1, 3],
                chunk_elems=1,
            )
            server.flush()
            good = [c for c in job.chunks if c.ok]
            bad = [c for c in job.chunks if not c.ok]
            assert len(bad) == 1 and bad[0].start == 2
            assert {c.ticket.output for c in good} == {"(1)", "(4)", "(9)"}
            assert len(job.errors) == 1

    def test_other_jobs_unaffected(self):
        with CuLiServer(devices=["gtx1080"]) as server:
            bad = server.submit_bulk("(lambda (x) (car x))", [1])
            good = server.submit_bulk("(lambda (x) (* x 3))", [1, 2, 3])
            server.flush()
            assert good.result() == "(3 6 9)"
            assert not bad.ok


# ---------------------------------------------------------------------------
# Coexistence: interactive SLOs ahead of co-running bulk
# ---------------------------------------------------------------------------


class TestCoexistence:
    def test_interactive_admits_ahead_of_queued_bulk(self):
        # max_batch=1 exposes pure EDF order: bulk chunks queued FIRST
        # (arrival 0, deadline +inf) must still resolve AFTER the
        # interactive request that arrived later with a tight deadline.
        with CuLiServer(devices=["gtx1080"], max_batch=1) as server:
            job = server.submit_bulk(
                "(lambda (x) x)",
                list(range(12)),
                chunk_elems=4,
                arrival_ms=0.0,
            )
            inter = server.open_session(name="fg", slo_ms=2.0)
            ticket = inter.submit("(+ 1 1)", arrival_ms=0.01)
            server.flush()
            assert ticket.ok and job.ok
            last_chunk = max(c.ticket.resolve_ms for c in job.chunks)
            assert ticket.resolve_ms < last_chunk

    def test_bulk_still_completes_under_interactive_load(self):
        # No starvation in the other direction: EDF ties break by
        # arrival, so bulk ages to the front between deadlines.
        with CuLiServer(devices=["gtx1080", "gtx1080"]) as server:
            job = server.submit_bulk(
                "(lambda (x) (* x x))", list(range(32)), chunk_elems=8
            )
            fg = server.open_session(slo_ms=5.0)
            tickets = [
                fg.submit(f"(+ {k} 1)", arrival_ms=float(k)) for k in range(8)
            ]
            server.flush()
            assert all(t.ok for t in tickets)
            assert job.result() == "(" + " ".join(
                str(x * x) for x in range(32)
            ) + ")"

    def test_mixed_trace_replay_with_bulk_forms(self):
        # The seeded mixed mode drives gpu-map texts through ordinary
        # tenant sessions — whole-stack replay, byte-deterministic.
        trace = generate_trace(
            seed=11,
            tenants=6,
            requests=48,
            gpu_map_share=0.5,
            gpu_map_elems=8,
        )
        assert any("(gpu-map" in r.text for r in trace)
        outs = []
        for _ in range(2):
            with CuLiServer(devices=["gtx1080", "tesla-m40"]) as server:
                _, tickets = replay_trace(server, trace)
                server.flush()
                assert all(t.done for t in tickets)
                outs.append([t.output for t in tickets])
        assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Failover: in-flight bulk is replayable suffix work
# ---------------------------------------------------------------------------


class TestBulkFailover:
    def test_bulk_sessions_are_supervised(self):
        with CuLiServer(
            devices=["gtx1080", "gtx1080"], failover=True
        ) as server:
            job = server.submit_bulk("(lambda (x) x)", list(range(8)))
            server.flush()
            assert job.result() == "(" + " ".join(map(str, range(8))) + ")"
            # every bulk carrier session is checkpoint-tracked
            for session in server._bulk_sessions.values():
                assert server.supervisor.store.tracked(session.session_id)

    def test_bulk_survives_device_loss(self):
        # Chaos kills devices mid-drain; chunks ride the checkpoint /
        # replay machinery like any tenant request and the gather still
        # assembles the full, correctly ordered result.
        with CuLiServer(
            devices=["gtx1080", "gtx1080", "tesla-m40"],
            failover=True,
            chaos=ChaosMonkey(seed=5, kill_rate=0.15),
        ) as server:
            job = server.submit_bulk(
                "(lambda (x) (* x x))", list(range(60)), chunk_elems=6
            )
            server.flush()
            assert server.stats.devices_lost > 0  # chaos actually fired
            assert job.result() == "(" + " ".join(
                str(x * x) for x in range(60)
            ) + ")"
