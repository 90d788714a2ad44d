"""Tests for the op/cost model (repro.ops)."""

import numpy as np
import pytest

from repro.ops import N_OPS, N_PHASES, CostTable, Op, OpCounts, Phase


class TestCostTable:
    def test_build_sets_named_costs(self):
        table = CostTable.build(alu=5, node_read=120)
        assert table.cost_of(Op.ALU) == 5
        assert table.cost_of(Op.NODE_READ) == 120

    def test_build_default_fills_unnamed(self):
        table = CostTable.build(default=7.0, alu=1)
        assert table.cost_of(Op.BRANCH) == 7.0
        assert table.cost_of(Op.ALU) == 1

    def test_build_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            CostTable.build(warp_speed=9)

    def test_rejects_negative_costs(self):
        vec = np.ones(N_OPS)
        vec[0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            CostTable(vector=vec)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            CostTable(vector=np.ones(N_OPS + 1))

    def test_cycles_dot_product(self):
        table = CostTable.build(default=0.0, alu=2, branch=3)
        counts = OpCounts()
        counts.add(Phase.EVAL, Op.ALU, 10)
        counts.add(Phase.PARSE, Op.BRANCH, 4)
        assert table.cycles(counts) == 10 * 2 + 4 * 3

    def test_cycles_by_phase(self):
        table = CostTable.build(default=0.0, alu=2)
        counts = OpCounts()
        counts.add(Phase.EVAL, Op.ALU, 5)
        counts.add(Phase.PRINT, Op.ALU, 1)
        by_phase = table.row_cycles(counts.rows)
        assert by_phase[Phase.EVAL] == 10
        assert by_phase[Phase.PRINT] == 2
        assert by_phase[Phase.PARSE] == 0

    def test_scaled(self):
        table = CostTable.build(alu=4)
        double = table.scaled(2.0)
        assert double.cost_of(Op.ALU) == 8

    def test_vector_is_readonly(self):
        table = CostTable.build(alu=4)
        with pytest.raises(ValueError):
            table.vector[0] = 99


class TestOpCounts:
    def test_add_accumulates(self):
        counts = OpCounts()
        counts.add(Phase.EVAL, Op.CALL)
        counts.add(Phase.EVAL, Op.CALL, 2)
        assert counts.count_of(Op.CALL) == 3

    def test_phase_separation(self):
        counts = OpCounts()
        counts.add(Phase.PARSE, Op.CHAR_LOAD, 5)
        counts.add(Phase.PRINT, Op.CHAR_STORE, 7)
        assert counts.count_of(Op.CHAR_LOAD, Phase.PARSE) == 5
        assert counts.count_of(Op.CHAR_LOAD, Phase.PRINT) == 0
        assert sum(counts.rows[Phase.PRINT]) == 7

    def test_merge(self):
        a, b = OpCounts(), OpCounts()
        a.add(Phase.EVAL, Op.ALU, 1)
        b.add(Phase.EVAL, Op.ALU, 2)
        b.add(Phase.PARSE, Op.BRANCH, 4)
        a.merge(b)
        assert a.count_of(Op.ALU) == 3
        assert a.count_of(Op.BRANCH, Phase.PARSE) == 4

    def test_merge_preserves_row_aliases(self):
        """CountingContext caches its current phase row; merge must add
        in place, not rebind rows."""
        a, b = OpCounts(), OpCounts()
        row = a.rows[Phase.EVAL]
        b.add(Phase.EVAL, Op.ALU, 2)
        a.merge(b)
        assert a.rows[Phase.EVAL] is row
        row[Op.ALU] += 1
        assert a.count_of(Op.ALU) == 3

    def test_copy_is_independent(self):
        a = OpCounts()
        a.add(Phase.EVAL, Op.ALU, 1)
        b = a.copy()
        b.add(Phase.EVAL, Op.ALU, 5)
        assert a.count_of(Op.ALU) == 1
        assert b.count_of(Op.ALU) == 6

    def test_reset(self):
        counts = OpCounts()
        counts.add(Phase.EVAL, Op.ALU, 3)
        counts.reset()
        assert counts.total_count() == 0

    def test_matrix_shape(self):
        assert OpCounts().matrix().shape == (N_PHASES, N_OPS)


def test_phase_and_op_enums_are_dense():
    assert [int(op) for op in Op] == list(range(N_OPS))
    assert [int(ph) for ph in Phase] == list(range(N_PHASES))
