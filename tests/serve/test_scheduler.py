"""Scheduler: batch formation, fairness, per-session ordering."""

import pytest

from repro.serve.server import CuLiServer


@pytest.fixture
def server():
    srv = CuLiServer(devices=["gtx480"], max_batch=8)
    yield srv
    srv.close()


class TestBatchFormation:
    def test_one_request_per_session_per_batch(self, server):
        sess = server.open_session()
        for i in range(3):
            sess.submit(f"(+ {i} {i})")
        pdev = server.pool[sess.device_id]
        batch = server.scheduler.form_batch_async(pdev)
        assert len(batch) == 1  # same session: later commands defer
        assert pdev.queue_depth == 2

    def test_distinct_sessions_share_a_batch(self, server):
        sessions = [server.open_session() for _ in range(5)]
        for s in sessions:
            s.submit("(+ 1 1)")
        pdev = server.pool[sessions[0].device_id]
        batch = server.scheduler.form_batch_async(pdev)
        assert len(batch) == 5

    def test_max_batch_respected(self):
        server = CuLiServer(devices=["gtx480"], max_batch=3)
        sessions = [server.open_session() for _ in range(5)]
        for s in sessions:
            s.submit("1")
        pdev = server.pool[sessions[0].device_id]
        assert len(server.scheduler.form_batch_async(pdev)) == 3
        assert pdev.queue_depth == 2
        server.close()

    def test_deferred_requests_keep_fifo_order(self, server):
        a = server.open_session()
        b = server.open_session()
        a.submit("1")
        a.submit("2")
        a.submit("3")
        b.submit("4")
        pdev = server.pool[a.device_id]
        batch = server.scheduler.form_batch_async(pdev)
        assert [t.text for t in batch] == ["1", "4"]
        # a's remaining commands still queued, in submission order
        assert pdev.queue_depth == 2
        assert [t.text for t in pdev.queue.remove_session(a)] == ["2", "3"]

    def test_fairness_flooding_session_gets_one_slot(self, server):
        flooder = server.open_session()
        victim = server.open_session()
        for i in range(10):
            flooder.submit(f"{i}")
        victim.submit("(+ 40 2)")
        pdev = server.pool[flooder.device_id]
        batch = server.scheduler.form_batch_async(pdev)
        by_session = [t.session.session_id for t in batch]
        assert by_session.count(flooder.session_id) == 1
        assert by_session.count(victim.session_id) == 1

    def test_quarantined_ticket_runs_alone(self, server):
        """A quarantined ticket (a batch-fatal survivor) closes the batch
        it would join and then runs in a batch of its own."""
        sessions = [server.open_session() for _ in range(3)]
        first, suspect, last = (s.submit("(+ 1 1)") for s in sessions)
        suspect.quarantined = True
        pdev = server.pool[sessions[0].device_id]
        assert server.scheduler.form_batch_async(pdev) == [first]
        assert server.scheduler.form_batch_async(pdev) == [suspect]
        assert server.scheduler.form_batch_async(pdev) == [last]


class TestOrdering:
    def test_session_commands_execute_in_order(self, server):
        sess = server.open_session()
        sess.submit("(setq acc 1)")
        sess.submit("(setq acc (* acc 10))")
        sess.submit("(setq acc (+ acc 2))")
        server.flush()
        assert sess.eval("acc") == "12"

    def test_drain_runs_one_batch_per_pass(self, server):
        sess = server.open_session()
        for i in range(4):
            sess.submit(f"{i}")
        batches = server.flush()
        assert batches == 4  # one command per batch for a single session
        assert [s.output for s in sess.history] == ["0", "1", "2", "3"]


class TestDispatchAccounting:
    def test_tickets_resolved_and_history_appended(self, server):
        sessions = [server.open_session() for _ in range(3)]
        tickets = [s.submit("(* 2 21)") for s in sessions]
        assert all(not t.done for t in tickets)
        server.flush()
        assert all(t.done and t.ok for t in tickets)
        assert [t.output for t in tickets] == ["42", "42", "42"]
        assert all(len(s.history) == 1 for s in sessions)

    def test_unflushed_ticket_output_raises(self, server):
        sess = server.open_session()
        ticket = sess.submit("1")
        with pytest.raises(RuntimeError):
            _ = ticket.output
        server.flush()
        assert ticket.output == "1"
