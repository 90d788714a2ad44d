"""Indexed root scopes + interned entry comparison + O(1) len."""

from repro.context import CountingContext, NullContext
from repro.core.environment import Environment
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.ops import Op


def node(interp, value):
    return interp.arena.new_int(value, NullContext())


class TestIndexedEnvironment:
    def test_indexed_lookup_matches_scan(self):
        interp = Interpreter()
        ctx = NullContext()
        plain = Environment(label="plain")
        indexed = Environment(label="indexed").enable_index()
        for i, name in enumerate(("alpha", "beta", "alpha")):  # shadowing
            plain.define(name, node(interp, i), ctx)
            indexed.define(name, node(interp, i), ctx)
        for name in ("alpha", "beta", "missing"):
            a = plain.lookup(name, ctx)
            b = indexed.lookup(name, ctx)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.ival == b.ival
        # newest define shadows in both representations
        assert indexed.lookup("alpha", ctx).ival == 2

    def test_enable_index_on_populated_env(self):
        interp = Interpreter()
        ctx = NullContext()
        env = Environment()
        env.define("alpha", node(interp, 1), ctx)
        env.define("alpha", node(interp, 2), ctx)  # shadows
        env.define("beta", node(interp, 3), ctx)
        env.enable_index()
        assert env.lookup("alpha", ctx).ival == 2
        assert env.lookup("beta", ctx).ival == 3

    def test_indexed_lookup_charges_probe_not_steps(self):
        interp = Interpreter()
        setup = NullContext()
        env = Environment().enable_index()
        for i in range(50):
            env.define(f"binding-{i:02d}", node(interp, i), setup)
        ctx = CountingContext()
        assert env.lookup("binding-00", ctx).ival == 0
        assert ctx.counts.count_of(Op.HASH_PROBE) == 1
        assert ctx.counts.count_of(Op.ENV_STEP) == 0
        assert ctx.counts.count_of(Op.SYM_CHAR_CMP) == 0

    def test_literal_scan_still_charges_strcmp(self):
        interp = Interpreter()
        setup = NullContext()
        env = Environment()
        env.define("alpha", node(interp, 1), setup)
        ctx = CountingContext()
        env.lookup("alpha", ctx)
        assert ctx.counts.count_of(Op.ENV_STEP) == 1
        assert ctx.counts.count_of(Op.SYM_CHAR_CMP) > 0
        assert ctx.counts.count_of(Op.SYM_CMP) == 0

    def test_interned_scan_charges_sym_cmp(self):
        interp = Interpreter()
        setup = NullContext()
        env = Environment()
        env.define("alpha", node(interp, 1), setup, sym_id=7)
        ctx = CountingContext()
        found = env.lookup("alpha", ctx, sym_id=7)
        assert found.ival == 1
        assert ctx.counts.count_of(Op.SYM_CMP) == 1
        assert ctx.counts.count_of(Op.SYM_CHAR_CMP) == 0

    def test_mixed_ids_fall_back_to_strcmp(self):
        """An uninterned query against interned entries (or vice versa)
        still matches by spelling."""
        interp = Interpreter()
        ctx = NullContext()
        env = Environment()
        env.define("alpha", node(interp, 1), ctx, sym_id=7)
        env.define("beta", node(interp, 2), ctx)  # no id
        assert env.lookup("alpha", ctx).ival == 1            # query without id
        assert env.lookup("beta", ctx, sym_id=3).ival == 2   # entry without id

    def test_set_nearest_through_index(self):
        interp = Interpreter()
        ctx = NullContext()
        root = Environment(label="root").enable_index()
        root.define("alpha", node(interp, 1), ctx)
        child = root.child()
        assert child.set_nearest("alpha", node(interp, 9), ctx) is True
        assert root.lookup("alpha", ctx).ival == 9

    def test_session_root_shadowing_with_index(self):
        """setq on a binding above an indexed session root shadows into
        the root instead of mutating the shared global."""
        interp = Interpreter(options=InterpreterOptions(indexed_roots=True))
        ctx = NullContext()
        interp.global_env.define("shared", node(interp, 1), ctx)
        session = interp.create_session_env("tenant")
        assert session._index is not None
        assert session.set_nearest("shared", node(interp, 2), ctx) is False
        assert session.lookup("shared", ctx).ival == 2          # shadowed
        assert interp.global_env.lookup("shared", ctx).ival == 1  # untouched


class TestConstantTimeLen:
    def test_len_tracks_defines(self):
        interp = Interpreter()
        ctx = NullContext()
        env = Environment()
        assert len(env) == 0
        for i in range(10):
            env.define(f"name-{i}", node(interp, i), ctx)
        assert len(env) == 10
        assert len(env) == sum(1 for _ in env.entries())

    def test_len_after_clear(self):
        interp = Interpreter()
        ctx = NullContext()
        env = Environment().enable_index()
        env.define("alpha", node(interp, 1), ctx)
        env.clear()
        assert len(env) == 0
        assert env.lookup("alpha", ctx) is None
        env.define("alpha", node(interp, 2), ctx)
        assert len(env) == 1
        assert env.lookup("alpha", ctx).ival == 2

    def test_global_env_len_counts_builtins(self):
        interp = Interpreter()
        assert len(interp.global_env) == sum(
            1 for _ in interp.global_env.entries()
        )
        assert len(interp.global_env) > 50
