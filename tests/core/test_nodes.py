"""Node structure and immutability (paper §III-A)."""

import pytest

from repro.context import NullContext
from repro.core.arena import NodeArena
from repro.core.nodes import NODE_BYTES, Node, NodeType
from repro.errors import ImmutabilityError


def make(ntype=NodeType.N_INT, idx=0):
    return Node(idx, ntype)


def make_int(value, idx=0):
    node = make(NodeType.N_INT, idx)
    node.ival = value
    return node


class TestSealing:
    def test_sealed_node_rejects_value_writes(self):
        node = make(NodeType.N_STRING).set_str("a").seal()
        with pytest.raises(ImmutabilityError):
            node.set_str("b")

    def test_sealed_list_rejects_new_children(self):
        lst = make(NodeType.N_LIST)
        lst.append_child(make(NodeType.N_INT, 1))
        lst.seal()
        with pytest.raises(ImmutabilityError):
            lst.append_child(make(NodeType.N_INT, 2))

    def test_all_setters_guarded(self):
        node = make(NodeType.N_FORM).seal()
        for call in (
            lambda: node.set_str("x"),
            lambda: node.set_params(make(NodeType.N_LIST, 9)),
        ):
            with pytest.raises(ImmutabilityError):
                call()

    def test_unsealed_node_is_mutable(self):
        node = make(NodeType.N_STRING)
        node.set_str("a").set_str("b")
        assert node.sval == "b"


class TestListStructure:
    def test_append_child_builds_chain(self):
        lst = make(NodeType.N_LIST)
        kids = [make_int(i, i + 1) for i in range(3)]
        for kid in kids:
            lst.append_child(kid)
        assert lst.first is kids[0]
        assert lst.last is kids[2]
        assert [c.ival for c in lst.children()] == [0, 1, 2]

    def test_append_marks_child_linked(self):
        lst = make(NodeType.N_LIST)
        kid = make(NodeType.N_INT, 1)
        assert not kid.linked
        lst.append_child(kid)
        assert kid.linked

    def test_child_count(self):
        lst = make(NodeType.N_LIST)
        assert list(lst.children()) == []
        lst.append_child(make(NodeType.N_INT, 1))
        lst.append_child(make(NodeType.N_INT, 2))
        assert len(list(lst.children())) == 2


class TestClassification:
    def test_list_like(self):
        assert make(NodeType.N_LIST).is_list_like
        assert make(NodeType.N_EXPRESSION).is_list_like
        assert not make(NodeType.N_FORM).is_list_like

    def test_truthiness_only_nil_false(self, interp, ctx):
        """``Interpreter.truthy``: only nil, and the empty list that is
        nil, are false; 0 and a non-empty list are true."""
        assert not interp.truthy(make(NodeType.N_NIL), ctx)
        assert not interp.truthy(make(NodeType.N_LIST), ctx)
        assert interp.truthy(make_int(0), ctx)
        lst = make(NodeType.N_LIST)
        lst.append_child(make_int(1, 1))
        assert interp.truthy(lst, ctx)

    def test_callable(self):
        for t in (NodeType.N_FUNCTION, NodeType.N_FORM, NodeType.N_MACRO):
            assert make(t).is_callable
        assert not make(NodeType.N_SYMBOL).is_callable


class TestValues:
    def test_number_property(self):
        assert make_int(42).number == 42
        assert NodeArena(capacity=1).new_float(2.5, NullContext()).number == 2.5
        with pytest.raises(TypeError):
            make(NodeType.N_SYMBOL).number

    def test_addr_derives_from_index(self):
        assert make(idx=3).addr == 3 * NODE_BYTES

    def test_repr_mentions_type(self):
        assert "N_INT" in repr(make_int(7))
