"""Workload generators (the paper's §IV test setup)."""

import pytest

from repro.runtime.workloads import (
    FIB_DEFUN,
    THREAD_SWEEP,
    fibonacci_workload,
    parallel_sum_workload,
)


class TestFibWorkload:
    def test_command_shape(self):
        w = fibonacci_workload(3)
        assert w.command == "(||| 3 fib (5 5 5))"
        assert w.preamble == (FIB_DEFUN,)
        assert w.jobs == 3

    def test_paper_size_envelope(self):
        """17..8207 characters per transfer (paper §IV)."""
        sizes = [len(fibonacci_workload(n).command) for n in THREAD_SWEEP]
        assert sizes[0] <= 20
        assert 8000 <= sizes[-1] <= 8400
        assert sizes == sorted(sizes)

    def test_custom_fib_argument(self):
        w = fibonacci_workload(2, fib_n=7)
        assert w.command == "(||| 2 fib (7 7))"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fibonacci_workload(0)


class TestOtherWorkloads:
    def test_parallel_sum(self):
        w = parallel_sum_workload(3)
        assert w.command == "(||| 3 + (1 2 3) (3 2 1))"

    def test_sweep_is_the_papers(self):
        assert THREAD_SWEEP == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class TestWorkloadsExecute:
    def test_fib_runs_on_session(self):
        from repro.runtime.session import CuLiSession

        with CuLiSession("gtx480") as sess:
            w = fibonacci_workload(4)
            for form in w.preamble:
                sess.eval(form)
            assert sess.eval(w.command) == "(5 5 5 5)"

    def test_parallel_sum_runs(self):
        from repro.runtime.session import CuLiSession

        with CuLiSession("intel") as sess:
            w = parallel_sum_workload(5)
            # ascending + descending = n+1 everywhere
            assert sess.eval(w.command) == "(6 6 6 6 6)"
