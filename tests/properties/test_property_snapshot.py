"""Property: heap snapshot -> restore is an identity on tenant state.

On randomized programs (defuns, setqs, lets, structure-shared cons/cdr
chains, repeated commands) a session that is snapshotted mid-history and
restored into a *fresh* interpreter must produce byte-identical outputs
for every subsequent command, under both ``gc_policy`` modes — the
migration layer's core correctness claim. The snapshot itself must also
be stable (snapshot -> restore -> snapshot reproduces the same wire
form) and must land entirely in the destination's tenured generation.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import NullContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.nodes import REGION_TENURED
from repro.errors import LispError
from repro.runtime.snapshot import HeapSnapshot, restore_env, snapshot_env

from tests.conftest import allocated_nodes
from tests.properties.test_property_gc import programs

#: The two reclamation modes a serving device can run; generational
#: uses the full fast path so restore also exercises re-interning and
#: indexed session roots.
POLICIES = {
    "literal": lambda: InterpreterOptions(),
    "generational": lambda: InterpreterOptions.fast(),
}

policy_names = st.sampled_from(sorted(POLICIES))


def wire_round_trip(env, label: str) -> HeapSnapshot:
    """Snapshot through the JSON wire form (what save/restore ships)."""
    data = json.dumps(snapshot_env(env, label=label).to_dict())
    return HeapSnapshot.from_dict(json.loads(data))


def run_session(commands, options_factory, migrate_at=None):
    """Run a tenant session command by command, collecting between
    commands like the serving layer does; optionally snapshot+restore
    onto a fresh interpreter just before command ``migrate_at``."""
    interp = Interpreter(options=options_factory())
    env = interp.create_session_env("tenant")
    ctx = NullContext(max_depth=4096)
    outputs = []
    for i, command in enumerate(commands):
        if migrate_at is not None and i == migrate_at:
            snap = wire_round_trip(env, "tenant")
            interp = Interpreter(options=options_factory())
            env = restore_env(snap, interp)
        try:
            outputs.append(interp.process(command, ctx, env=env))
        except LispError as exc:
            outputs.append(f"error: {exc}")
        interp.collect_garbage()
    return outputs, interp, env


@settings(max_examples=30, deadline=None)
@given(programs(), policy_names, st.integers(min_value=0, max_value=10))
def test_round_trip_outputs_identical(commands, policy, cut):
    """The acceptance property: a migrated session's subsequent outputs
    are byte-identical to the never-migrated session's, at any cut
    point, under every gc_policy."""
    migrate_at = cut % (len(commands) + 1)
    baseline, _, _ = run_session(commands, POLICIES[policy])
    migrated, _, _ = run_session(commands, POLICIES[policy], migrate_at=migrate_at)
    assert migrated == baseline


@settings(max_examples=20, deadline=None)
@given(programs(), policy_names)
def test_snapshot_is_stable_across_restore(commands, policy):
    """snapshot -> restore -> snapshot is the identity on the wire form:
    nothing is lost, reordered, or invented by a migration hop."""
    _, _, env = run_session(commands, POLICIES[policy])
    snap = snapshot_env(env, label="tenant")
    dest = Interpreter(options=POLICIES[policy]())
    restored = restore_env(snap, dest)
    again = snapshot_env(restored, label="tenant")
    assert again.to_dict() == snap.to_dict()


@settings(max_examples=20, deadline=None)
@given(programs(), policy_names)
def test_restored_heap_is_fully_tenured(commands, policy):
    """Restored state is persistent by construction: every materialized
    node lands in the tenured generation, so no later nursery reset on
    the destination can reclaim a migrated binding."""
    _, _, env = run_session(commands, POLICIES[policy])
    snap = snapshot_env(env, label="tenant")
    dest = Interpreter(options=POLICIES[policy]())
    before = dest.arena.used
    restore_env(snap, dest)
    assert dest.arena.used == before + snap.node_count
    assert all(
        node.region == REGION_TENURED for node in allocated_nodes(dest.arena)
    )
