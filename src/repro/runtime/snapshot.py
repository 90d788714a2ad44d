"""Device-agnostic heap snapshots (DESIGN.md deviation #9).

A tenant session's persistent state is a subgraph of one device's node
arena: the session-root scope's bindings and every node reachable from
them (defun'd forms, setq'd values, structure-shared lists). That pins
the session to the device for life — a hot device cannot shed load, a
fault-quarantined device cannot be drained, and a server restart loses
every tenant. PyCUDA-style host orchestration argues the *host* should
own placement and lifetime end to end, so this module gives it the
primitive: a **relocatable snapshot** of the reachable persistent heap
that can be restored into any other device's arena.

Format rules (what makes the snapshot relocatable):

* Node references are indices into the snapshot's own record list, not
  arena slot numbers — sharing (cons'd tails, cdr views) is preserved
  exactly, and the destination arena may place nodes anywhere.
* Interned symbol ids are **not** serialized: ``sym_id`` is a per-device
  intern-table handle, so records carry the spelling plus one
  ``interned`` bit, and restore re-interns spellings into the
  destination's table (or leaves them uninterned on a literal device).
* Builtin function pointers are serialized by *name* and re-resolved
  from the destination interpreter's registry.
* ``last`` pointers are serialized only when the target node is
  reachable through the mark edges (first/nxt/params) — the same edges
  the garbage collector keeps alive. A truncated-chain ``last`` that GC
  would have dangled restores as nil (the ``last`` builtin then answers
  nil rather than reading recycled memory).

Records are the wire rows themselves: one ten-field list per node,
``[ntype, ival, fval, sval, fn_name, first, last, nxt, params, flags]``
(``flags`` packs the sealed, linked and interned bits; the interned
bit says the source carried a sym_id, so restore re-interns). A
checkpoint store keeps one snapshot per session, so no per-node object
is built. :meth:`HeapSnapshot.digest` hashes a binary encoding of the
rows.

Cost accounting (see DESIGN.md deviation #9): serializing and restoring
are *host-side* work and charge no modeled device ops; the serving
layer charges the snapshot's wire size (``HeapSnapshot.nbytes``) as
modeled host<->device transfer time on both ends of a migration.
Restored nodes are allocated straight into the tenured generation —
migrated state is persistent by construction, exactly like the write
barriers would have promoted it.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..context import ExecContext, NullContext
from ..core.environment import Environment
from ..core.nodes import NODE_BYTES, REGION_TENURED, Node, NodeType
from ..errors import SnapshotError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.interpreter import Interpreter

__all__ = ["HeapSnapshot", "snapshot_env", "restore_env"]

#: "No node" reference inside a snapshot (None pointer on restore).
NO_REF = -1

#: Bump when the wire format changes incompatibly.
SNAPSHOT_VERSION = 1

_FLAG_SEALED = 1
_FLAG_LINKED = 2
_FLAG_INTERNED = 4
_FLAG_MASK = _FLAG_SEALED | _FLAG_LINKED | _FLAG_INTERNED

#: The one NaN a digest encodes: JSON prints every NaN as ``NaN``.
_NAN = float("nan")

#: Fields per wire row (module docs).
_ROW_FIELDS = 10


def _checked_row(row: list) -> list:
    """A wire row read from outside, with every field's type fixed."""
    if len(row) != _ROW_FIELDS:
        raise SnapshotError(f"malformed snapshot node record: {row!r}")
    ntype, ival, fval, sval, fn_name, first, last, nxt, params, flags = row
    return [
        int(ntype), int(ival), float(fval), str(sval), fn_name,
        int(first), int(last), int(nxt), int(params), int(flags) & _FLAG_MASK,
    ]


@dataclass
class HeapSnapshot:
    """A tenant's reachable persistent heap in relocatable form."""

    label: str
    #: One wire row per node (module docs); references index this list.
    rows: list[list] = field(default_factory=list)
    #: (spelling, node ref, interned) triples in *definition order* —
    #: replaying ``define`` over this list reproduces the source scope's
    #: entry chain (and shadowing) exactly.
    bindings: list[tuple] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.rows)

    @property
    def nbytes(self) -> int:
        """Wire size of the snapshot: one node struct per record plus
        the symbol spellings and binding names carried out-of-line
        (spellings travel because sym_ids are per-device)."""
        text = sum(len(row[3].encode()) + 1 for row in self.rows if row[3])
        text += sum(len(spelling.encode()) + 1 for spelling, _, _ in self.bindings)
        return len(self.rows) * NODE_BYTES + text

    def digest(self) -> str:
        """A stable content fingerprint of the snapshot.

        Two snapshots of the same reachable heap digest identically
        (the serializer's traversal order is deterministic), so a
        checkpoint store can detect that a session's persistent state
        has not changed since the last checkpoint — e.g. it only ran
        pure reads — and skip shipping (and charging) a byte-identical
        snapshot it already holds. Host-side work, uncharged like
        serialization itself.

        The hash covers a binary encoding of the rows (``marshal``
        version 2: values only, no object sharing, floats as their IEEE
        bits), so two snapshots digest equal exactly when their JSON
        encodings (:meth:`to_dict`) are equal. JSON prints every NaN as
        ``NaN``, so NaNs are hashed as one canonical NaN; ``-0.0``,
        ``0.0`` and the two infinities stay apart in both encodings.
        """
        import hashlib  # on first use: importing it costs a server's set-up ms

        rows = self.rows
        if any(row[2] != row[2] for row in rows):
            rows = [
                row if row[2] == row[2] else [*row[:2], _NAN, *row[3:]]
                for row in rows
            ]
        payload = (self.label, rows, [list(b) for b in self.bindings])
        return hashlib.sha1(marshal.dumps(payload, 2)).hexdigest()

    # -- persistence (CuLiServer.save/restore) -----------------------------------

    def to_dict(self) -> dict:
        """A JSON-able encoding of the snapshot."""
        return {
            "version": SNAPSHOT_VERSION,
            "label": self.label,
            "nodes": [list(row) for row in self.rows],
            "bindings": [list(b) for b in self.bindings],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HeapSnapshot":
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version!r} "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        snap = cls(
            label=str(data.get("label", "")),
            rows=[_checked_row(row) for row in data.get("nodes", [])],
            bindings=[
                (str(s), int(ref), bool(interned))
                for s, ref, interned in data.get("bindings", [])
            ],
        )
        n = len(snap.rows)
        for row in snap.rows:
            for ref in row[5:9]:
                if not (NO_REF <= ref < n):
                    raise SnapshotError(f"dangling node reference {ref} (of {n})")
        for spelling, ref, _ in snap.bindings:
            if not (0 <= ref < n):
                raise SnapshotError(
                    f"binding {spelling!r} references node {ref} (of {n})"
                )
        return snap


def snapshot_env(env: Environment, label: Optional[str] = None) -> HeapSnapshot:
    """Serialize a session scope's bindings and their reachable subgraph.

    Read-only host-side work: the source heap is walked over the same
    edges the GC mark phase follows (first/nxt/params), sharing is
    preserved via the index map, and nothing on the source is mutated —
    a failed migration leaves the source session untouched. The walk
    numbers the nodes; one pass over them then writes the rows.
    """
    # Nodes hash by identity, so the index maps each node to its number.
    index: dict[Node, int] = {}
    order: list[Node] = []
    entries = env.entries_oldest_first()
    for entry in entries:
        stack = [entry.node]
        while stack:
            node = stack.pop()
            if node is None or node in index:
                continue
            index[node] = len(order)
            order.append(node)
            # Push in reverse visit preference so first/nxt/params are
            # discovered in a deterministic order (stable snapshots).
            stack.append(node.params)
            stack.append(node.nxt)
            stack.append(node.first)

    # A missing node (None, or a ``last`` off the mark edges: a
    # truncated chain) is not in the index and restores as nil.
    ref = index.get
    rows = [
        [
            +node.ntype,  # unary plus: the plain int of the NodeType
            node.ival,
            node.fval,
            node.sval,
            node.fn.name if node.fn is not None else None,
            ref(node.first, NO_REF),
            ref(node.last, NO_REF),
            ref(node.nxt, NO_REF),
            ref(node.params, NO_REF),
            node.sealed | node.linked << 1 | (node.sym_id >= 0) << 2,
        ]
        for node in order
    ]
    return HeapSnapshot(
        label=label if label is not None else env.label,
        rows=rows,
        bindings=[
            (entry.symbol, ref(entry.node, NO_REF), entry.sym_id >= 0)
            for entry in entries
        ],
    )


def restore_env(
    snapshot: HeapSnapshot,
    interp: "Interpreter",
    env: Optional[Environment] = None,
    label: Optional[str] = None,
    ctx: Optional[ExecContext] = None,
) -> Environment:
    """Materialize a snapshot into ``interp``'s arena as tenured state.

    Returns the session environment holding the restored bindings — a
    fresh session root (``Interpreter.create_session_env``) unless
    ``env`` is given. Spellings are re-interned into the destination's
    symbol table when it has one; builtin references are re-resolved
    from the destination registry; restored nodes are tagged tenured so
    no later nursery reset can reclaim them.

    Failure atomicity: nodes materialize *before* the environment is
    created or any binding is defined, so an arena-exhausting restore
    raises with no binding half-installed — the orphaned tenured nodes
    are unreachable and the destination's next major collection
    reclaims them.
    """
    if ctx is None:
        ctx = NullContext()
    arena = interp.arena
    symtab = interp.symtab

    materialized: list[Node] = []
    for ntype_id, ival, fval, sval, fn_name, _, _, _, _, flags in snapshot.rows:
        try:
            ntype = NodeType(ntype_id)
        except ValueError as exc:
            raise SnapshotError(f"unknown node type {ntype_id}") from exc
        node = arena.alloc(ntype, ctx)
        node.ival = ival
        node.fval = fval
        node.sval = sval
        if flags & _FLAG_INTERNED and symtab is not None:
            node.sym_id = symtab.intern_host(sval)
        if fn_name is not None:
            try:
                node.fn = interp.registry.get(fn_name)
            except KeyError as exc:
                raise SnapshotError(
                    f"snapshot references unknown builtin {fn_name!r}"
                ) from exc
        # Restored state is persistent by construction: tag it tenured
        # directly (restore normally runs between batch transactions; if
        # a nursery is open this is exactly a write-barrier promotion).
        node.region = REGION_TENURED
        node.linked = bool(flags & _FLAG_LINKED)
        node.sealed = bool(flags & _FLAG_SEALED)
        materialized.append(node)

    # Second pass: wire the graph (sharing restored via the index map).
    for row, node in zip(snapshot.rows, materialized):
        first, last, nxt, params = row[5:9]
        node.first = materialized[first] if first >= 0 else None
        node.last = materialized[last] if last >= 0 else None
        node.nxt = materialized[nxt] if nxt >= 0 else None
        node.params = materialized[params] if params >= 0 else None

    if env is None:
        env = interp.create_session_env(label or snapshot.label or "restored")
    for spelling, ref, interned in snapshot.bindings:
        sym_id = -1
        if interned and symtab is not None:
            sym_id = symtab.intern_host(spelling)
        env.define(spelling, materialized[ref], ctx, sym_id=sym_id)
    return env
