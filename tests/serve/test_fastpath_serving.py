"""Serving fast path: tenant isolation must survive indexed session
roots, and the parse cache must never leak state between tenants."""

import pytest

from repro import CuLiServer
from repro.core.interpreter import InterpreterOptions
from repro.gpu.device import GPUDeviceConfig


@pytest.fixture()
def fast_server():
    with CuLiServer(devices=["gtx1080"]) as server:
        yield server


class TestFastPathConfiguration:
    def test_fast_path_is_the_serving_default(self, fast_server):
        pdev = next(iter(fast_server.pool.devices.values()))
        opts = pdev.device.interp.options
        assert opts.intern_symbols and opts.indexed_roots
        assert opts.parse_cache_capacity > 0
        assert pdev.device.interp.parse_cache is not None

    def test_explicit_default_configs_serve_literal_mode(self):
        with CuLiServer(
            devices=["gtx1080"], gpu_config=GPUDeviceConfig()
        ) as server:
            pdev = next(iter(server.pool.devices.values()))
            opts = pdev.device.interp.options
            assert not opts.intern_symbols and not opts.indexed_roots
            assert pdev.device.interp.parse_cache is None

    def test_explicit_config_wins_over_flag(self):
        config = GPUDeviceConfig(
            interpreter=InterpreterOptions(intern_symbols=True)
        )
        with CuLiServer(devices=["gtx1080"], gpu_config=config) as server:
            pdev = next(iter(server.pool.devices.values()))
            opts = pdev.device.interp.options
            assert opts.intern_symbols
            assert not opts.indexed_roots  # the explicit options, verbatim

    def test_session_roots_are_indexed(self, fast_server):
        session = fast_server.open_session()
        assert session.env._index is not None


class TestIsolationWithIndexedRoots:
    def test_defun_isolated_per_tenant(self, fast_server):
        alice = fast_server.open_session()
        bob = fast_server.open_session()
        alice.submit("(defun f (x) (* x x))")
        bob.submit("(defun f (x) (+ x 100))")
        fast_server.flush()
        assert alice.eval("(f 5)") == "25"
        assert bob.eval("(f 5)") == "105"

    def test_setq_shadows_instead_of_mutating_shared_root(self, fast_server):
        alice = fast_server.open_session()
        bob = fast_server.open_session()
        assert alice.eval("(setq shared-counter 1)") == "1"
        # bob never defined it: late binding returns the bare symbol.
        assert bob.eval("shared-counter") == "shared-counter"
        assert alice.eval("shared-counter") == "1"

    def test_many_defines_stay_isolated(self, fast_server):
        """The defun-heavy monotonic-growth pattern the index targets."""
        alice = fast_server.open_session()
        bob = fast_server.open_session()
        for i in range(40):
            alice.submit(f"(defun helper-{i:02d} (x) (+ x {i}))")
            bob.submit(f"(defun helper-{i:02d} (x) (- x {i}))")
        fast_server.flush()
        assert alice.eval("(helper-39 0)") == "39"
        assert bob.eval("(helper-39 0)") == "-39"
        assert len(alice.env) == 40
        assert len(bob.env) == 40

    def test_closed_session_bindings_collected(self, fast_server):
        alice = fast_server.open_session()
        alice.eval("(defun f (x) (* x x))")
        env = alice.env
        alice.close()
        pdev = next(iter(fast_server.pool.devices.values()))
        assert env not in pdev.device.interp.extra_roots


class TestParseCacheAcrossTenants:
    def test_same_text_evaluates_in_each_tenants_env(self, fast_server):
        """A cache hit must materialize into the requesting tenant's
        environment, not replay the first tenant's result."""
        alice = fast_server.open_session()
        bob = fast_server.open_session()
        alice.eval("(setq x 5)")
        bob.eval("(setq x 7)")
        # Identical source text, different tenants, different answers.
        assert alice.eval("(* x x)") == "25"
        assert bob.eval("(* x x)") == "49"

    def test_repeated_submission_is_stable(self, fast_server):
        session = fast_server.open_session()
        outs = [session.eval("'(1 2 3)") for _ in range(4)]
        assert outs == ["(1 2 3)"] * 4

    def test_cache_accumulates_hits_across_tenants(self, fast_server):
        define = "(defun warmup (x) (+ x 1))"
        tenants = [fast_server.open_session() for _ in range(6)]
        for tenant in tenants:
            tenant.submit(define)
        fast_server.flush()
        pdev = next(iter(fast_server.pool.devices.values()))
        stats = pdev.device.interp.parse_cache.stats
        assert stats.hits >= len(tenants) - 1
        for tenant in tenants:
            assert tenant.eval("(warmup 41)") == "42"

    def test_batched_and_fast_outputs_match_literal(self):
        """End-to-end equivalence through the full serving stack."""
        program = [
            "(defun loop-sum (n acc) (if (< n 1) acc (loop-sum (- n 1) (+ acc n))))",
            "(loop-sum 25 0)",
            "(setq total (loop-sum 10 0))",
            "(* total total)",
        ]

        def run(**config):
            with CuLiServer(devices=["gtx1080"], **config) as server:
                session = server.open_session()
                return [session.eval(command) for command in program]

        assert run() == run(gpu_config=GPUDeviceConfig())
