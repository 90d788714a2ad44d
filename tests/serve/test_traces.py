"""Trace generator: every request text it can emit must evaluate cleanly.

The generated traces feed the serving benches and baselines, which
count an erroring request as served work. A template that always
raises (``(car (cons a b))`` did: a cons tail must be a list) silently
turns a share of every replay into error paths.
"""

from __future__ import annotations

import random

import pytest

from repro.serve import CuLiServer
from repro.serve.traces import _cheap_form, _heavy_form

#: Number of templates ``_cheap_form`` chooses between.
CHEAP_VARIANTS = 5


class _PickVariant(random.Random):
    """A seeded PRNG whose ``choice`` always returns option ``k``, so each
    template of a generator can be forced in turn."""

    def __init__(self, seed: int, k: int) -> None:
        super().__init__(seed)
        self.k = k
        self.options_seen = 0

    def choice(self, options):
        self.options_seen = len(options)
        return options[self.k % len(options)]


def _forms() -> list[str]:
    forms = []
    for k in range(CHEAP_VARIANTS):
        for seed in range(3):
            rng = _PickVariant(seed, k)
            forms.append(_cheap_form(rng))
            assert rng.options_seen == CHEAP_VARIANTS
    for k in range(2):  # the heavy form picks between + and *
        for depth in (8, 16, 24):
            forms.append(_heavy_form(_PickVariant(depth, k), depth=depth))
    rng = random.Random(2018)
    forms.extend(_heavy_form(rng, depth=rng.randint(8, 24)) for _ in range(8))
    return forms


@pytest.fixture(scope="module")
def server():
    with CuLiServer(devices=["gtx1080"]) as srv:
        yield srv


@pytest.mark.parametrize("form", _forms())
def test_every_generated_form_evaluates_without_error(server, form):
    ticket = server.open_session().submit(form)
    server.flush()
    assert ticket.error is None, (form, ticket.output)
    assert not ticket.output.startswith("error")
