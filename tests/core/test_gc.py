"""Between-command node reclamation (paper: nodes "marked as free")."""

import pytest

from repro.context import NullContext
from repro.core.gc import collect_garbage, mark_epoch
from repro.core.interpreter import Interpreter
from repro.core.reader import Parser


@pytest.fixture
def fresh():
    return Interpreter()


def run(interp, src):
    return interp.process(src, NullContext())


class TestCollection:
    def test_temporaries_are_reclaimed(self, fresh):
        baseline = fresh.arena.used
        run(fresh, "(+ 1 2 (* 3 4))")
        assert fresh.arena.used > baseline
        freed = collect_garbage(fresh)
        assert freed > 0
        assert fresh.arena.used == baseline

    def test_defun_survives_collection(self, fresh):
        run(fresh, "(defun sq (x) (* x x))")
        collect_garbage(fresh)
        assert run(fresh, "(sq 9)") == "81"

    def test_setq_value_survives_collection(self, fresh):
        run(fresh, "(setq stash (list 1 2 3))")
        collect_garbage(fresh)
        assert run(fresh, "stash") == "(1 2 3)"

    def test_singletons_never_freed(self, fresh):
        collect_garbage(fresh)
        assert run(fresh, "nil") == "nil"
        assert run(fresh, "(if nil 1 2)") == "2"

    def test_usage_bounded_over_many_commands(self, fresh):
        run(fresh, "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
        collect_garbage(fresh)
        settled = fresh.arena.used
        for _ in range(20):
            run(fresh, "(fib 8)")
            collect_garbage(fresh)
        assert fresh.arena.used == settled

    def test_collection_is_idempotent(self, fresh):
        run(fresh, "(list 1 2 3)")
        collect_garbage(fresh)
        assert collect_garbage(fresh) == 0


class TestMarkReachable:
    def test_marks_child_chain(self, fresh):
        ctx = NullContext()
        (lst,) = Parser(fresh, ctx).parse("(1 (2 3) 4)")
        epoch = fresh.arena.next_epoch()
        # outer list, its 3 elements (1, inner, 4), inner's 2 elements
        assert mark_epoch([lst], epoch, ctx) == 6
        assert mark_epoch([lst], epoch, ctx) == 0  # already stamped

    def test_marks_form_params_and_body(self, fresh):
        run(fresh, "(defun f (a b) (+ a b))")
        form = fresh.global_env.lookup("f", NullContext())
        epoch = fresh.arena.next_epoch()
        mark_epoch([form], epoch, NullContext())
        assert form.params.gc_epoch == epoch
        assert form.first.gc_epoch == epoch
