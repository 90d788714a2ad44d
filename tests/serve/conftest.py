"""The serving suites' tier switch.

CI's tier matrix re-runs ``tests/serve`` with ``REPRO_SERVE_JIT=0``: every
``CuLiServer`` built without an explicit ``jit=`` then serves on the
tree-walker instead of the trace tier. Package scope, so servers that
module-scoped fixtures build are switched too.
"""

from __future__ import annotations

import os

import pytest

from repro.serve import CuLiServer


@pytest.fixture(scope="package", autouse=True)
def serve_jit_from_env():
    if os.environ.get("REPRO_SERVE_JIT", "1") != "0":
        yield
        return
    init = CuLiServer.__init__

    def tree_walk_init(self, *args, jit=False, **kwargs):
        init(self, *args, jit=jit, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CuLiServer, "__init__", tree_walk_init)
        yield
