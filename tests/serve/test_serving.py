"""End-to-end serving: tenant isolation, persistence, stats accounting."""

import pytest

from repro import CuLiServer, CuLiSession


@pytest.fixture
def server():
    srv = CuLiServer(devices=["gtx1080"], max_batch=16)
    yield srv
    srv.close()


class TestIsolation:
    def test_defun_isolated_between_tenants(self, server):
        alice = server.open_session()
        bob = server.open_session()
        alice.submit("(defun f (x) (* x x))")
        bob.submit("(defun f (x) (+ x 100))")
        server.flush()
        assert alice.eval("(f 5)") == "25"
        assert bob.eval("(f 5)") == "105"

    def test_setq_isolated_between_tenants(self, server):
        alice = server.open_session()
        bob = server.open_session()
        alice.submit("(setq v 1)")
        bob.submit("(setq v 2)")
        server.flush()
        assert alice.eval("v") == "1"
        assert bob.eval("v") == "2"

    def test_tenant_defines_invisible_to_device_global_env(self, server):
        alice = server.open_session()
        alice.eval("(setq private 7)")
        device = server.pool[alice.device_id].device
        # The device's own (global-env) REPL never saw the symbol.
        assert device.submit("private").output == "private"

    def test_setq_on_builtin_shadows_instead_of_corrupting(self, server):
        """A tenant's setq on a globally-bound symbol (even a builtin)
        shadows it in the session root; other tenants and the device's
        global environment are untouched."""
        alice = server.open_session()
        bob = server.open_session()
        alice.eval("(setq car 42)")
        assert bob.eval("(car (quote (1 2)))") == "1"
        assert alice.eval("car") == "42"
        device = server.pool[alice.device_id].device
        assert device.submit("(car (quote (7 8)))").output == "7"

    def test_macro_isolation(self, server):
        alice = server.open_session()
        bob = server.open_session()
        alice.eval("(defmacro m (e) (list 'progn e e))")
        assert alice.eval("(setq k 0)") == "0"
        alice.eval("(m (setq k (+ k 1)))")
        assert alice.eval("k") == "2"
        # bob never defined m: it stays an unbound head.
        assert "error" not in bob.eval("(setq k 5)")


class TestPersistence:
    def test_environment_persists_across_batches(self, server):
        sess = server.open_session()
        sess.eval("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
        sess.eval("(setq memo 55)")
        # Several flush cycles later the definitions are still there.
        for _ in range(3):
            server.flush()
        assert sess.eval("(fib 10)") == "55"
        assert sess.eval("memo") == "55"

    def test_bindings_survive_garbage_collection(self, server):
        sess = server.open_session()
        sess.eval("(setq keep (list 1 2 3))")
        other = server.open_session()
        # Other tenants' commands trigger end-of-batch collections.
        for i in range(3):
            other.eval(f"(+ {i} {i})")
        assert sess.eval("keep") == "(1 2 3)"

    def test_closed_session_env_is_reclaimed(self, server):
        sess = server.open_session()
        sess.eval("(setq big (list 1 2 3 4 5 6 7 8))")
        device = server.pool[sess.device_id].device
        interp = device.interp
        assert sess.env in interp.extra_roots
        sess.close()
        assert sess.env not in interp.extra_roots
        freed = interp.collect_garbage()
        assert freed > 0  # the tenant's list became garbage

    def test_closed_session_rejects_submissions(self, server):
        sess = server.open_session()
        sess.close()
        with pytest.raises(RuntimeError):
            sess.submit("1")

    def test_close_cancels_queued_tickets(self, server):
        """Tickets still queued when their session closes are resolved
        with an error — never evaluated against the released (and
        possibly collected) environment."""
        sess = server.open_session()
        sess.eval("(defun f (x) (* x x))")
        t1 = sess.submit("(f 4)")
        t2 = sess.submit("(f 5)")
        other = server.open_session()
        t3 = other.submit("(+ 1 1)")
        sess.close()
        server.flush()
        assert t1.done and not t1.ok and "closed" in t1.output
        assert t2.done and not t2.ok
        assert t3.ok and t3.output == "2"  # other tenants unaffected


class TestErrorHandling:
    def test_lisp_error_isolated_to_its_request(self, server):
        good = server.open_session()
        bad = server.open_session()
        t_good = good.submit("(+ 1 2)")
        t_bad = bad.submit("(car 5)")  # type error
        server.flush()
        assert t_good.ok and t_good.output == "3"
        assert not t_bad.ok and t_bad.error is not None
        assert t_bad.output.startswith("error:")

    def test_unbalanced_request_isolated(self, server):
        good = server.open_session()
        bad = server.open_session()
        t_good = good.submit("(* 3 3)")
        t_bad = bad.submit("(broken")
        server.flush()
        assert t_good.output == "9"
        assert not t_bad.ok

    def test_large_commands_split_into_capacity_bounded_batches(self, server):
        """Individually-valid large commands never overflow the shared
        command buffer: the scheduler packs batches within capacity."""
        sessions = [server.open_session() for _ in range(3)]
        big = "(+ " + " ".join(["1"] * 15000) + ")"  # ~30 KiB, fits alone
        tickets = [s.submit(big) for s in sessions]
        server.flush()
        assert [t.output for t in tickets] == ["15000"] * 3
        assert server.stats.batches >= 2  # could not fit in one 64 KiB upload

    def test_over_capacity_command_refused_per_request(self, server):
        """A single command larger than the command buffer is refused as
        that request's error; batchmates are unaffected."""
        big_sess = server.open_session()
        ok_sess = server.open_session()
        huge = "(+ " + " ".join(["1"] * 40000) + ")"  # ~80 KiB > 64 KiB
        t_huge = big_sess.submit(huge)
        t_ok = ok_sess.submit("(+ 2 2)")
        server.flush()
        assert not t_huge.ok and "exceeds command buffer" in t_huge.output
        assert t_ok.output == "4"


class TestSessionSurface:
    def test_feed_line_protocol(self, server):
        sess = server.open_session()
        assert sess.feed_line("(let ((a 2)") is None
        assert sess.pending_input
        ticket = sess.feed_line(" (b 3)) (+ a b))")
        assert ticket is not None
        server.flush()
        assert ticket.output == "5"

    def test_run_program_orders_forms(self, server):
        sess = server.open_session()
        tickets = sess.run_program("(setq x 2)\n(setq x (* x x))\nx")
        server.flush()
        assert [t.output for t in tickets] == ["2", "4", "4"]

    def test_named_sessions_and_duplicates(self, server):
        named = server.open_session("alice")
        assert named.session_id == "alice"
        with pytest.raises(ValueError):
            server.open_session("alice")

    def test_matches_dedicated_session_outputs(self, server):
        """A served tenant sees exactly what a private CuLiSession sees."""
        program = [
            "(defun sq (x) (* x x))",
            "(sq 12)",
            "(append '(a b) '(c))",
            "(||| 4 sq (1 2 3 4))",
        ]
        tenant = server.open_session()
        served = [tenant.eval(form) for form in program]
        with CuLiSession("gtx1080") as solo:
            dedicated = [solo.eval(form) for form in program]
        assert served == dedicated


class TestStatsAccounting:
    def test_request_and_batch_counters(self, server):
        sessions = [server.open_session() for _ in range(4)]
        for s in sessions:
            s.submit("(+ 1 1)")
        server.flush()
        stats = server.stats
        assert stats.requests_enqueued == 4
        assert stats.requests_completed == 4
        assert stats.errors == 0
        assert stats.batches == 1
        assert stats.mean_batch_size == 4
        assert stats.batch_size_max == 4

    def test_phase_totals_accumulate(self, server):
        sess = server.open_session()
        sess.eval("(+ 1 2)")
        t1 = server.stats.phase_totals.total_ms
        sess.eval("(* 3 4)")
        assert server.stats.phase_totals.total_ms > t1
        assert server.stats.phase_totals.parse_ms > 0
        assert server.stats.phase_totals.eval_ms > 0
        assert server.stats.phase_totals.print_ms > 0

    def test_throughput_and_utilization(self, server):
        sessions = [server.open_session() for _ in range(3)]
        for s in sessions:
            s.submit("(* 2 2)")
        server.flush()
        assert server.stats.throughput_rps > 0
        util = server.stats.utilization()
        assert util and all(0.0 <= u <= 1.0 for u in util.values())
        assert max(util.values()) == 1.0  # busiest device defines makespan

    def test_queue_depth_gauge(self, server):
        sess = server.open_session()
        sess.submit("1")
        sess.submit("2")
        depths = server.stats.queue_depths()
        assert sum(depths.values()) == 2
        server.flush()
        assert sum(server.stats.queue_depths().values()) == 0

    def test_error_counted(self, server):
        sess = server.open_session()
        sess.submit("(car 5)")
        server.flush()
        assert server.stats.errors == 1

    def test_snapshot_and_render(self, server):
        sess = server.open_session()
        sess.eval("(+ 1 1)")
        snap = server.stats.snapshot()
        assert snap["requests"]["completed"] == 1
        assert "gtx1080#0" in snap["devices"]
        assert "throughput" in server.stats.render()

    def test_nested_fallbacks_reported_per_device_and_fleet(self):
        """A parallel form that a worker reaches runs in that worker's
        lane; the snapshot counts each such fallback on its device, on
        the GPU and the CPU alike, and sums them for the fleet. A
        request that is the form alone runs in master mode and counts
        none."""
        with CuLiServer(devices=["gtx1080", "intel-e5-2620"]) as server:
            gpu = server.open_session(device_id="gtx1080#0")
            cpu = server.open_session(device_id="intel-e5-2620#1")
            for session in (gpu, cpu):
                session.eval("(defun inner (x) (car (||| 1 + (1) (2))))")
                assert session.eval("(gpu-map (lambda (x) x) (1 2 3))") == "(1 2 3)"
            snap = server.stats.snapshot()
            assert snap["fleet"]["nested_fallbacks"] == 0
            assert gpu.eval("(||| 2 inner (0 1))") == "(3 3)"
            assert cpu.eval("(car (gpu-map inner (0 1 2)))") == "3"
            snap = server.stats.snapshot()
            devices = snap["devices"]
            assert devices["gtx1080#0"]["nested_fallbacks"] == 2
            assert devices["intel-e5-2620#1"]["nested_fallbacks"] == 3
            assert snap["fleet"]["nested_fallbacks"] == 5
            assert "5 nested fallbacks" in server.stats.render()

    def test_equal_rows_each_count_their_fallback(self):
        """Under WARP fidelity rows with equal task signatures share one
        lane evaluation; each such lockstep twin still counts the
        fallback its worker made, on the GPU and the CPU alike."""
        with CuLiServer(devices=["gtx1080", "intel-e5-2620"]) as server:
            for device_id in server.pool.devices:
                session = server.open_session(device_id=device_id)
                session.eval("(defun inner (x) (car (||| 1 + (1) (2))))")
                assert session.eval("(||| 2 inner (0 0))") == "(3 3)"
            devices = server.stats.snapshot()["devices"]
            assert devices["gtx1080#0"]["nested_fallbacks"] == 2
            assert devices["intel-e5-2620#1"]["nested_fallbacks"] == 2


class TestMultiDevice:
    def test_sessions_shard_across_devices(self):
        with CuLiServer(devices=["gtx480", "gtx480", "intel"]) as server:
            sessions = [server.open_session() for _ in range(6)]
            devices_used = {s.device_id for s in sessions}
            assert len(devices_used) == 3
            for i, s in enumerate(sessions):
                s.submit(f"(* {i} {i})")
            server.flush()
            assert [s.history[0].output for s in sessions] == [
                "0", "1", "4", "9", "16", "25",
            ]

    def test_cpu_only_pool_serves(self):
        with CuLiServer(devices=["intel"], max_batch=8) as server:
            tenants = [server.open_session() for _ in range(3)]
            for i, t in enumerate(tenants):
                t.submit(f"(setq me {i})")
            server.flush()
            assert [t.eval("me") for t in tenants] == ["0", "1", "2"]
