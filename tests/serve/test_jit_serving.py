"""The JIT trace tier under the serving layer's failure machinery.

Two interactions the trace executor must not break:

* **Fault containment** — a containable device fault raised *mid-trace*
  (after traced side effects) must roll back the nursery and resolve
  only that tenant's ticket, exactly as it does mid-tree-walk, leaving
  co-tenants and the tenant's retained state byte-identical to a
  jit-off server.
* **Migration** — compiled traces belong to a device's parse cache, not
  to a session: a migrating session's snapshot never carries trace
  state, and its hot texts recompile from scratch on the destination
  while outputs stay byte-identical.
"""

from __future__ import annotations

import json
import os

from repro.core.interpreter import InterpreterOptions
from repro.cpu.device import CPUDeviceConfig
from repro.errors import ArenaExhaustedError
from repro.gpu.device import GPUDeviceConfig
from repro.serve import CuLiServer
from tests.conftest import counters

DEVICE = "gtx1080"

#: Hot text whose trace performs a side effect *before* faulting: the
#: rollback path must undo traced work exactly as it undoes walked work.
FAULTY_HOT = (
    '(progn (setq counter (+ counter 1)) (inject-fault "arena-exhausted"))'
)


def fault_server(jit: bool, **kwargs) -> CuLiServer:
    """A server whose interpreters have inject-fault and a hair-trigger
    JIT promotion threshold (so short tests heat traces)."""
    opts = InterpreterOptions.fast(
        enable_fault_injection=True, jit=jit, jit_threshold=1
    )
    kwargs.setdefault("devices", [DEVICE])
    kwargs.setdefault("max_batch", 16)
    return CuLiServer(
        gpu_config=GPUDeviceConfig(interpreter=opts),
        cpu_config=CPUDeviceConfig(interpreter=opts),
        **kwargs,
    )


def device_jit_stats(server: CuLiServer, device_id: str) -> dict:
    return counters(server.pool[device_id].device.interp.jit_stats)


class TestTierDefault:
    def test_default_tier_follows_the_tier_matrix(self):
        """CI's tier matrix runs ``tests/serve`` with ``REPRO_SERVE_JIT=0``
        (applied by ``tests/serve/conftest.py``): every device of a
        default-built server then tree-walks. An explicit ``jit=`` wins."""
        expected = os.environ.get("REPRO_SERVE_JIT", "1") != "0"
        fleet = ["gtx1080", "intel-e5-2620"]
        for kwargs, jit in (({}, expected), ({"jit": True}, True), ({"jit": False}, False)):
            with CuLiServer(devices=fleet, **kwargs) as server:
                tiers = [p.device.interp.options.jit for p in server.pool.devices.values()]
            assert tiers == [jit, jit], kwargs


class TestJitFaultContainment:
    def _run_faulty_session(self, jit: bool):
        """One tenant repeatedly runs the faulting hot text next to a
        healthy co-tenant; returns the observable transcript."""
        with fault_server(jit) as server:
            victim = server.open_session()
            bystander = server.open_session()
            assert victim.eval("(setq counter 0)") == "0"
            transcript = []
            for round_no in range(5):
                faulty = victim.submit(FAULTY_HOT)
                healthy = bystander.submit(f"(* {round_no} 7)")
                server.flush()
                transcript.append(
                    (
                        type(faulty.error).__name__,
                        healthy.output,
                        victim.eval("counter"),
                    )
                )
            snap = server.stats.snapshot()
            return transcript, snap

    def test_fault_mid_trace_contained_and_rolled_back(self):
        """The traced fault is contained per-tenant with the same
        rollback observables as the tree-walked fault."""
        jit_transcript, jit_snap = self._run_faulty_session(jit=True)
        walk_transcript, walk_snap = self._run_faulty_session(jit=False)
        # Every round: the victim's ticket resolves with the contained
        # error, the co-tenant's output is correct, and the session's
        # retained counter shows the identical rollback behaviour.
        assert jit_transcript == walk_transcript
        for error_name, healthy_out, _counter in jit_transcript:
            assert error_name == "ArenaExhaustedError"
            assert healthy_out is not None
        assert jit_snap["faults"]["contained"] == 5
        assert jit_snap["faults"]["batch_fatal"] == 0
        assert walk_snap["faults"]["contained"] == 5
        # The pin is not vacuous: the faulting text really ran traced
        # (threshold 1: every execution after the first one hits).
        assert jit_snap["jit"]["trace_hits"] >= 1
        assert walk_snap["jit"]["trace_hits"] == 0

    def test_traced_fault_spares_co_tenants_in_same_batch(self):
        """A 8-tenant batch where the hot faulting request runs traced:
        the other seven tickets resolve with correct outputs."""
        with fault_server(jit=True) as server:
            victim = server.open_session()
            others = [server.open_session() for _ in range(7)]
            victim.eval("(setq counter 0)")
            for _ in range(3):  # heat the faulting text itself
                ticket = victim.submit(FAULTY_HOT)
                server.flush()
                assert isinstance(ticket.error, ArenaExhaustedError)
            # The faulting text compiled (trace_hits counts only traces
            # that *complete*; this one faults mid-execution every time,
            # so compilation is the proof it runs on the trace tier).
            assert (
                device_jit_stats(server, victim.device_id)["traces_compiled"] >= 1
            )
            faulty = victim.submit(FAULTY_HOT)
            healthy = [
                session.submit(f"(+ {i} 100)") for i, session in enumerate(others)
            ]
            server.flush()
            assert isinstance(faulty.error, ArenaExhaustedError)
            for i, ticket in enumerate(healthy):
                assert ticket.ok and ticket.output == str(i + 100)
            # The device keeps serving traced work afterwards.
            assert victim.eval("(+ 20 22)") == "42"

    def test_device_survives_traced_fault_with_arena_clean(self):
        """After a traced contained fault the nursery region is closed
        (no region leak through the trace executor's abort path)."""
        with fault_server(jit=True) as server:
            session = server.open_session()
            session.eval("(setq counter 0)")
            for _ in range(4):
                session.submit(FAULTY_HOT)
                server.flush()
            pdev = server.pool[session.device_id]
            assert not pdev.device.interp.arena.region_active
            assert session.eval("(* 6 7)") == "42"


class TestJitMigration:
    HOT_SCRIPT = [
        "(defun step-up (x) (+ x 3))",
        "(setq acc 1)",
        "(setq acc (+ acc (step-up acc) 5))",
        "(setq acc (+ acc (step-up acc) 5))",
        "(setq acc (+ acc (step-up acc) 5))",
        "acc",
    ]

    def test_traces_recompile_on_destination(self):
        """Hot texts re-heat and recompile on the destination device's
        own parse cache; the trace itself never travels."""
        with fault_server(jit=True, devices=[DEVICE, DEVICE]) as server:
            session = server.open_session()
            session.eval("(setq acc 0)")
            hot = "(setq acc (+ acc 1 2 3))"
            for _ in range(3):
                session.eval(hot)
            source_id = session.device_id
            source_stats = device_jit_stats(server, source_id)
            assert source_stats["traces_compiled"] >= 1
            assert source_stats["trace_hits"] >= 1

            session.migrate()
            dest_id = session.device_id
            assert dest_id != source_id
            # The destination has no trace (and no cached parse) for the
            # hot text yet — nothing was serialized across.
            dest_cache = server.pool[dest_id].device.interp.parse_cache
            assert hot not in dest_cache
            before = device_jit_stats(server, dest_id)
            for _ in range(3):
                session.eval(hot)
            after = device_jit_stats(server, dest_id)
            assert after["traces_compiled"] > before["traces_compiled"]
            assert after["trace_hits"] > before["trace_hits"]
            assert session.eval("acc") == "36"

    def test_migrated_outputs_byte_identical_to_solo_run(self):
        """The serving differential across a mid-script migration: the
        migrated session's transcript equals a never-migrated jit server
        *and* a jit-off server."""

        def run(devices, migrate_at=None, jit=True):
            with fault_server(jit=jit, devices=devices) as server:
                session = server.open_session()
                outputs = []
                for i, command in enumerate(self.HOT_SCRIPT):
                    if i == migrate_at:
                        session.migrate()
                    outputs.append(session.eval(command))
                return outputs

        migrated = run([DEVICE, DEVICE], migrate_at=3)
        solo_jit = run([DEVICE])
        solo_walk = run([DEVICE], jit=False)
        assert migrated == solo_jit == solo_walk

    def test_snapshot_payload_carries_no_trace_state(self):
        """The fleet save payload (the same snapshot format migration
        uses) holds node/binding rows only — no trace or template state
        that could leak one device's compiled code onto another."""
        with fault_server(jit=True) as server:
            session = server.open_session()
            session.eval("(setq acc 0)")
            for _ in range(3):
                session.eval("(setq acc (+ acc 1 2 3))")
            assert device_jit_stats(server, session.device_id)["trace_hits"] >= 1
            payload = json.dumps(server.save())
            assert "trace" not in payload
            assert "jit" not in payload

    def test_queued_traced_tickets_execute_on_destination(self):
        """Tickets queued behind a migration run on the destination and
        still produce traced, correct results."""
        with fault_server(jit=True, devices=[DEVICE, DEVICE]) as server:
            session = server.open_session()
            session.eval("(setq acc 0)")
            hot = "(setq acc (+ acc 10))"
            for _ in range(2):
                session.eval(hot)
            queued = [session.submit(hot) for _ in range(3)]
            session.migrate()
            dest_id = session.device_id
            server.flush()
            assert [ticket.output for ticket in queued] == ["30", "40", "50"]
            assert device_jit_stats(server, dest_id)["trace_hits"] >= 1
