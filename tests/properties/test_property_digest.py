"""Property: a snapshot digest tells snapshots apart exactly as JSON does.

``HeapSnapshot.digest`` decides whether a checkpoint ships: equal digests
mean "this heap is already stored". It hashes a binary encoding of the
wire rows, and the JSON encoding of the same rows is the reference: over
seeded heaps and every pair of row-level variants of them, two snapshots
must digest equal exactly when their JSON encodings are equal. The
variants cover ``0.0`` and ``-0.0``, NaNs of both signs and with a
payload (JSON prints each as ``NaN``), both infinities, bignums,
non-ASCII and look-alike spellings, shared tails and defuns.

The wire form itself is pinned too: a fixed heap's ``to_dict`` equals the
literal recorded before records became rows, and ``to_dict`` ->
``from_dict`` and ``restore_env`` -> ``snapshot_env`` round trips give
back the same wire form.
"""

from __future__ import annotations

import itertools
import json
import random
import struct

from repro.context import NullContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.runtime.snapshot import HeapSnapshot, restore_env, snapshot_env

_NEG_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]
_PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF80000DEADBEEF))[0]

FLOATS = (
    0.0, -0.0, float("nan"), _NEG_NAN, _PAYLOAD_NAN,
    float("inf"), float("-inf"), 2.5, 5e-324,
)
INTS = (0, 1, -1, 2**31, 2**63, -(2**63), 10**40, -(10**40))
SPELLINGS = (
    "", "x", "X", "\u00e9", "e\u0301", "\u65e5\u672c", "\U0001f600", '"q"', "a\\b",
)

PROGRAMS = (
    (
        "(setq a (list 1 2 3))",
        "(setq b (cons 0 (cdr a)))",
        "(setq c (cons 9 (cdr b)))",
    ),
    (
        "(defun f (x) (* x 2))",
        "(defun g (x y) (f (+ x y)))",
        "(setq r (g 1 2))",
    ),
    (
        "(setq inf (* 1.0E+308 10.0))",
        "(setq ninf (- 0.0 inf))",
        "(setq nan (- inf inf))",
        "(setq nz (* -1.0 0.0))",
        "(setq pz 0.0)",
        "(setq fs (list nan nz pz inf ninf))",
    ),
    (
        "(setq big (* 1000000000000 1000000000000 1000000000000))",
        "(setq nbig (- 0 big))",
        '(setq h\u00e9llo "\u65e5\u672c")',
        "(setq plus +)",
    ),
)


def _old_encoding(snap: HeapSnapshot) -> str:
    """The JSON payload the digest hashed before it went binary."""
    data = snap.to_dict()
    payload = [data["label"], data["nodes"], data["bindings"]]
    return json.dumps(payload, separators=(",", ":"))


def _heap(program, seed: int) -> HeapSnapshot:
    interp = Interpreter(options=InterpreterOptions.fast())
    env = interp.create_session_env("t")
    ctx = NullContext(max_depth=4096)
    rng = random.Random(seed)
    for command in program:
        interp.process(command, ctx, env=env)
        if rng.random() < 0.5:
            interp.collect_garbage()
    return snapshot_env(env, label="t")


def _variant(snap: HeapSnapshot, rng: random.Random) -> HeapSnapshot:
    """A copy of ``snap`` with one field of one row (or one binding's
    spelling) replaced by a special value."""
    data = json.loads(json.dumps(snap.to_dict()))
    copy = HeapSnapshot.from_dict(data)
    if not copy.rows:
        return copy
    row = rng.choice(copy.rows)
    field = rng.randrange(4)
    if field == 0:
        row[2] = rng.choice(FLOATS)
    elif field == 1:
        row[1] = rng.choice(INTS)
    elif field == 2:
        row[3] = rng.choice(SPELLINGS)
    else:
        i = rng.randrange(len(copy.bindings))
        _, ref, interned = copy.bindings[i]
        copy.bindings[i] = (rng.choice(SPELLINGS), ref, interned)
    return copy


def _pool(seed: int) -> list[HeapSnapshot]:
    rng = random.Random(seed)
    bases = [_heap(program, seed) for program in PROGRAMS]
    pool = list(bases)
    for base in bases:
        pool.append(_heap(PROGRAMS[bases.index(base)], seed + 1))  # rebuilt: equal
        for _ in range(12):
            pool.append(_variant(base, rng))
    # Two-step variants, so equal pairs arise by different routes.
    for _ in range(16):
        pool.append(_variant(rng.choice(pool), rng))
    return pool


def test_digest_equality_matches_json_equality():
    for seed in range(3):
        pool = _pool(seed)
        digests = [snap.digest() for snap in pool]
        encodings = [_old_encoding(snap) for snap in pool]
        equal_pairs = 0
        for i, j in itertools.combinations(range(len(pool)), 2):
            same_json = encodings[i] == encodings[j]
            assert (digests[i] == digests[j]) == same_json, (encodings[i], encodings[j])
            equal_pairs += same_json
        assert equal_pairs >= len(PROGRAMS)  # the property saw equal pairs too


def test_special_values_digest_as_json_tells_them_apart():
    """Each special value against each other in the same slot."""
    base = _heap(PROGRAMS[2], 0)
    float_row = next(i for i, row in enumerate(base.rows) if row[0] == 3)

    def with_value(index, value):
        snap = HeapSnapshot.from_dict(json.loads(json.dumps(base.to_dict())))
        snap.rows[float_row][index] = value
        return snap

    for index, values in ((2, FLOATS), (1, INTS), (3, SPELLINGS)):
        snaps = [with_value(index, value) for value in values]
        for a, b in itertools.combinations(snaps, 2):
            same_json = _old_encoding(a) == _old_encoding(b)
            assert (a.digest() == b.digest()) == same_json


def test_nans_of_every_sign_and_payload_digest_equal():
    base = _heap(PROGRAMS[2], 0)
    nan_rows = [i for i, row in enumerate(base.rows) if row[2] != row[2]]
    assert nan_rows, "the program must leave a NaN in the heap"
    digests = set()
    for nan in (float("nan"), _NEG_NAN, _PAYLOAD_NAN):
        snap = HeapSnapshot.from_dict(json.loads(json.dumps(base.to_dict())))
        for i in nan_rows:
            snap.rows[i][2] = nan
        digests.add(snap.digest())
    assert digests == {base.digest()}


#: ``to_dict`` of the heap GOLDEN_PROGRAM leaves, recorded before snapshot
#: records became rows.
GOLDEN_PROGRAM = (
    '(setq a (list 1 2.5 "\u00e9"))',
    "(setq b (cons 0 (cdr a)))",
    "(defun f (x) (* x 2))",
    "(setq nz (* -1.0 0.0))",
    "(setq big (* 1000000000000 1000000000000))",
    "(setq plus +)",
)
GOLDEN = {
    "version": 1,
    "label": "golden",
    "nodes": [
        [7, 0, 0.0, "", None, 1, 3, -1, -1, 1],
        [2, 1, 0.0, "", None, -1, -1, 2, -1, 3],
        [3, 0, 2.5, "", None, -1, -1, 3, -1, 3],
        [4, 0, 0.0, "\u00e9", None, -1, -1, -1, -1, 3],
        [7, 0, 0.0, "", None, 5, 3, -1, -1, 1],
        [2, 0, 0.0, "", None, -1, -1, 2, -1, 3],
        [9, 0, 0.0, "f", None, 7, 7, -1, 11, 1],
        [7, 0, 0.0, "", None, 8, 10, -1, -1, 3],
        [5, 0, 0.0, "*", None, -1, -1, 9, -1, 7],
        [5, 0, 0.0, "x", None, -1, -1, 10, -1, 7],
        [2, 2, 0.0, "", None, -1, -1, -1, -1, 3],
        [7, 0, 0.0, "", None, 12, 12, 7, -1, 3],
        [5, 0, 0.0, "x", None, -1, -1, -1, -1, 7],
        [3, 0, -0.0, "", None, -1, -1, -1, -1, 1],
        [2, 10**24, 0.0, "", None, -1, -1, -1, -1, 1],
        [6, 0, 0.0, "+", "+", -1, -1, -1, -1, 5],
    ],
    "bindings": [
        ["a", 0, True], ["b", 4, True], ["f", 6, True],
        ["nz", 13, True], ["big", 14, True], ["plus", 15, True],
    ],
}


def test_wire_form_is_unchanged():
    interp = Interpreter(options=InterpreterOptions.fast())
    env = interp.create_session_env("golden")
    ctx = NullContext(max_depth=4096)
    for command in GOLDEN_PROGRAM:
        interp.process(command, ctx, env=env)
    data = snapshot_env(env, label="golden").to_dict()
    assert json.dumps(data) == json.dumps(GOLDEN)  # -0.0 and key order too


def test_round_trips_keep_the_wire_form():
    for program in (*PROGRAMS, GOLDEN_PROGRAM):
        snap = _heap(program, 0)
        wire = json.dumps(snap.to_dict())
        back = HeapSnapshot.from_dict(json.loads(wire))
        assert json.dumps(back.to_dict()) == wire
        assert back.digest() == snap.digest()
        dest = Interpreter(options=InterpreterOptions.fast())
        again = snapshot_env(restore_env(back, dest), label="t")
        assert json.dumps(again.to_dict()) == wire
