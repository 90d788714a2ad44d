"""HeapSnapshot: serialization format, relocation rules, failure modes."""

from __future__ import annotations

import json

import pytest

from repro.context import NullContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.nodes import REGION_TENURED, NodeType
from repro.errors import ArenaExhaustedError, SnapshotError
from repro.runtime.snapshot import (
    NO_REF,
    HeapSnapshot,
    restore_env,
    snapshot_env,
)


@pytest.fixture
def fast_interp():
    return Interpreter(options=InterpreterOptions.fast())


def session_with(interp, commands, label="tenant"):
    env = interp.create_session_env(label)
    ctx = NullContext(max_depth=4096)
    for command in commands:
        interp.process(command, ctx, env=env)
    return env


class TestRoundTrip:
    def test_values_forms_and_macros(self, fast_interp, ctx):
        env = session_with(
            fast_interp,
            [
                "(setq n 42)",
                '(setq s "hello")',
                "(setq f 3.5)",
                "(defun sq (x) (* x x))",
                "(defmacro twice (e) (list (quote +) e e))",
            ],
        )
        snap = snapshot_env(env, label="tenant")
        dest = Interpreter(options=InterpreterOptions.fast())
        restored = restore_env(snap, dest)
        assert dest.process("n", ctx, env=restored) == "42"
        assert dest.process("s", ctx, env=restored) == '"hello"'
        assert dest.process("f", ctx, env=restored) == "3.5"
        assert dest.process("(sq 9)", ctx, env=restored) == "81"
        assert dest.process("(twice 5)", ctx, env=restored) == "10"

    def test_builtin_reference_re_resolved(self, fast_interp, ctx):
        env = session_with(fast_interp, ["(setq plus +)"])
        dest = Interpreter(options=InterpreterOptions.fast())
        restored = restore_env(snapshot_env(env), dest)
        # The restored N_FUNCTION node points at the *destination's*
        # builtin object, not the source's.
        node = restored.lookup("plus", ctx)
        assert node.fn is dest.registry.get("+")

    def test_structure_sharing_preserved(self, fast_interp, ctx):
        env = session_with(
            fast_interp,
            ["(setq xs (list 1 2 3))", "(setq ys (cons 0 xs))"],
        )
        dest = Interpreter(options=InterpreterOptions.fast())
        restored = restore_env(snapshot_env(env), dest)
        xs = restored.lookup("xs", ctx)
        ys = restored.lookup("ys", ctx)
        # ys = (0 . xs-chain): the tail chain is the SAME nodes, not a copy.
        assert ys.first.nxt is xs.first
        assert ys.last is xs.last
        assert dest.process("(last ys)", ctx, env=restored) == "3"
        assert dest.process("(cdr ys)", ctx, env=restored) == "(1 2 3)"

    def test_shadowing_order_preserved(self, fast_interp, ctx):
        # Literal interpreter so the scope stays an entry walk: the
        # newest define must still shadow after restore.
        interp = Interpreter()
        env = session_with(interp, ["(defun g (x) 1)", "(defun g (x) 2)"])
        dest = Interpreter()
        restored = restore_env(snapshot_env(env), dest)
        assert dest.process("(g 0)", ctx, env=restored) == "2"
        assert [e.symbol for e in restored.entries()] == [
            e.symbol for e in env.entries()
        ]

    def test_json_wire_round_trip(self, fast_interp, ctx):
        env = session_with(fast_interp, ["(defun inc (x) (+ x 1))"])
        snap = snapshot_env(env, label="t")
        wire = json.dumps(snap.to_dict())
        back = HeapSnapshot.from_dict(json.loads(wire))
        assert back.to_dict() == snap.to_dict()
        dest = Interpreter(options=InterpreterOptions.fast())
        restored = restore_env(back, dest)
        assert dest.process("(inc 41)", ctx, env=restored) == "42"

    def test_empty_session_round_trips(self, fast_interp, ctx):
        env = fast_interp.create_session_env("empty")
        snap = snapshot_env(env, label="empty")
        assert snap.node_count == 0 and snap.bindings == []
        dest = Interpreter(options=InterpreterOptions.fast())
        restored = restore_env(snap, dest)
        assert len(restored) == 0
        assert dest.process("(+ 1 1)", ctx, env=restored) == "2"


class TestRelocationRules:
    def test_sym_ids_not_serialized(self, fast_interp):
        env = session_with(fast_interp, ["(setq marker 1)"])
        snap = snapshot_env(env)
        # A wire row is the ten named fields, none of them a sym_id; the
        # binding carries the spelling and the interned bit only.
        rows = HeapSnapshot.from_dict(snap.to_dict()).rows
        assert rows and all(len(row) == 10 for row in rows)
        assert snap.bindings == [("marker", 0, True)]
        # but the interned bit survives, so restore re-interns:
        dest = Interpreter(options=InterpreterOptions.fast())
        restored = restore_env(snap, dest)
        entry = next(iter(restored.entries()))
        assert entry.sym_id == dest.symtab.ids["marker"]

    def test_literal_destination_stays_uninterned(self, fast_interp, ctx):
        env = session_with(fast_interp, ["(setq v 7)"])
        dest = Interpreter()  # literal: no symbol table
        restored = restore_env(snapshot_env(env), dest)
        assert next(iter(restored.entries())).sym_id == -1
        assert dest.process("v", ctx, env=restored) == "7"

    def test_restored_nodes_are_tenured(self, fast_interp, ctx):
        env = session_with(fast_interp, ["(defun keep (x) (list x x))"])
        dest = Interpreter(options=InterpreterOptions.fast())
        before = dest.arena.used
        snap = snapshot_env(env)
        restore_env(snap, dest)
        assert dest.arena.used == before + snap.node_count
        assert dest.arena.tenured_count == dest.arena.used

    def test_truncated_last_restores_as_nil(self, fast_interp, ctx):
        # Hand-build a view whose ``last`` escapes the mark edges: the
        # snapshot must drop the pointer (as the source GC would have),
        # not emit a dangling reference.
        env = fast_interp.create_session_env("t")
        arena = fast_interp.arena
        stray = arena.new_int(99, ctx)
        view = arena.alloc(NodeType.N_LIST, ctx)
        view.first = arena.new_int(1, ctx)
        view.last = stray  # not on the first/nxt chain
        view.seal()
        env.define("view", view, ctx)
        snap = snapshot_env(env)
        row = snap.rows[snap.bindings[0][1]]
        assert row[6] == NO_REF  # the ``last`` field
        dest = Interpreter(options=InterpreterOptions.fast())
        restored = restore_env(snap, dest)
        assert restored.lookup("view", ctx).last is None


class TestFailureModes:
    def test_version_mismatch_rejected(self):
        with pytest.raises(SnapshotError):
            HeapSnapshot.from_dict({"version": 999, "label": "x"})

    def test_dangling_node_reference_rejected(self):
        data = {
            "version": 1,
            "label": "x",
            "nodes": [[int(NodeType.N_INT), 1, 0.0, "", None, -1, -1, 5, -1, 1]],
            "bindings": [["a", 0, False]],
        }
        with pytest.raises(SnapshotError):
            HeapSnapshot.from_dict(data)

    def test_dangling_binding_reference_rejected(self):
        data = {"version": 1, "label": "x", "nodes": [], "bindings": [["a", 0, False]]}
        with pytest.raises(SnapshotError):
            HeapSnapshot.from_dict(data)

    def test_unknown_builtin_rejected(self, fast_interp):
        env = session_with(fast_interp, ["(setq plus +)"])
        snap = snapshot_env(env)
        for row in snap.rows:
            if row[4] is not None:  # the ``fn_name`` field
                row[4] = "no-such-builtin"
        dest = Interpreter(options=InterpreterOptions.fast())
        with pytest.raises(SnapshotError):
            restore_env(snap, dest)

    def test_exhausted_destination_raises_without_root_leak(self, fast_interp):
        env = session_with(
            fast_interp, ["(setq big (list " + "1 " * 64 + "))"]
        )
        snap = snapshot_env(env)
        baseline = Interpreter(options=InterpreterOptions.fast()).arena.used
        # Room for the builtins and half the snapshot: restore runs out
        # of arena partway through materialization.
        dest = Interpreter(
            options=InterpreterOptions.fast(
                arena_capacity=baseline + snap.node_count // 2
            )
        )
        roots_before = len(dest.extra_roots)
        with pytest.raises(ArenaExhaustedError):
            restore_env(snap, dest)
        # No half-installed session root; the orphaned nodes are
        # unreachable and the next major collection reclaims them.
        assert len(dest.extra_roots) == roots_before
        used = dest.arena.used
        dest.collect_major()
        assert dest.arena.used < used
