"""Seeded multi-tenant arrival traces: bursty, heavy-tailed, mixed-class.

The workload generator behind ``benchmarks/bench_continuous_batching.py``,
``benchmarks/bench_hetero_fleet.py`` (the roadmap's 10k-session replay
harness: ``weighting="zipf"`` over ~10k tenants), and the
solo-oracle property tests. A trace is a list of
:class:`TraceRequest` — (arrival time, tenant, program text) — drawn
from one seeded PRNG, so every consumer replays the *same* workload:

* **bursty arrivals** — tenants submit in bursts (a think pause, then a
  run of closely spaced commands), modeled as an on/off process with
  exponential gaps; a global ``skew`` concentrates load on a hot
  minority of tenants (the 4x-skew shape the rebalance and scheduler
  benches stress).
* **heavy-tailed service demand** — most commands are cheap scalar
  forms; a Pareto-ish tail mixes in deep arithmetic/list work so batch
  durations vary the way real symbolic workloads do.
* **mixed classes** — ``interactive`` tenants (small bursts, tight SLO)
  share the fleet with ``bulk`` tenants (long request streams, no SLO),
  the coexistence of interactive and bulk work one scheduler must serve.

Every request text is a *pure* Lisp form over literals, so replaying a
trace on any scheduler/gc/jit configuration yields byte-identical
per-tenant transcripts — which is exactly what the differential
property tests pin against the solo oracle (:func:`solo_outputs`,
:func:`solo_transcripts`): each tenant's commands alone, in order, on a
fresh single-device server with no co-tenants, batching partners,
migration or failover. Batching, EDF reordering, placement, rebalancing
and device loss may change *when* a command runs, never what it prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .server import CuLiServer

__all__ = [
    "TraceRequest",
    "generate_trace",
    "replay_trace",
    "solo_outputs",
    "solo_transcripts",
]

#: The solo oracle's device when the caller names none.
SOLO_DEVICE = "gtx1080"


@dataclass(frozen=True)
class TraceRequest:
    """One request of a replayable arrival trace."""

    arrival_ms: float   #: simulated arrival time
    tenant: int         #: tenant index (0..tenants-1)
    text: str           #: the Lisp command submitted
    tenant_class: str   #: "interactive" or "bulk"
    slo_ms: Optional[float]  #: the tenant's latency SLO (None = bulk)


def _cheap_form(rng: random.Random) -> str:
    """A small interactive-style command (the common case)."""
    a, b = rng.randint(1, 99), rng.randint(1, 99)
    return rng.choice(
        [
            f"(+ {a} {b})",
            f"(* {a} {b})",
            f"(- {a} {b})",
            f"(if (< {a} {b}) {a} {b})",
            # A cons tail must be a list, so the pair is built on (list b).
            f"(car (cons {a} (list {b})))",
        ]
    )


def _heavy_form(rng: random.Random, depth: int) -> str:
    """A heavy-tailed command: nested arithmetic of ``depth`` levels.

    Depth scales service demand roughly linearly (every level is one
    more eval node), giving the batch-duration spread that lets a fast
    device's pipeline run ahead of a slow one's.
    """
    expr = str(rng.randint(1, 9))
    for _ in range(depth):
        expr = f"({rng.choice(['+', '*'])} {rng.randint(1, 9)} {expr})"
    return expr


def _bulk_map_form(rng: random.Random, elems: int) -> str:
    """A bulk collection command: one ``gpu-map`` over ``elems`` literals.

    The Charon-style workload shape (``l.gpu_map(stirling, carray)``) —
    one function mapped over a whole constant frame — as a single pure
    request text, so mixed bulk+interactive traces stay replayable on
    any scheduler/gc/jit configuration with byte-identical transcripts.
    """
    c = rng.randint(1, 9)
    values = " ".join(str(rng.randint(1, 99)) for _ in range(elems))
    return f"(gpu-map (lambda (x) (+ (* x x) {c})) ({values}))"


def _zipf_counts(
    weights: list[float], target: int, cap: int
) -> list[int]:
    """Apportion exactly ``target`` requests over zipf ``weights``.

    Deterministic largest-remainder water-filling: every tenant gets a
    floor of one request (the long tail is sessions, not silence), no
    tenant exceeds ``cap``, and the counts sum to ``target`` *exactly* —
    the budget accounting the old ``max(1, round(share))`` per-tenant
    rounding drifted off in both directions (a long tail of forced 1s
    above budget, clipped head mass below it, unreported either way).
    """
    tenants = len(weights)
    if tenants * cap < target:
        # The clamp cannot hold the budget (pathological parameters:
        # requests >> tenants * 2%); budget correctness wins over the
        # head clamp, which exists only to keep per-session FIFO from
        # serializing the replay.
        cap = -(-target // tenants)  # ceil
    room = [cap - 1] * tenants
    quota = [0.0] * tenants
    budget = target - tenants
    # Continuous water-fill: grant proportionally, park overflow at the
    # cap, redistribute over the still-open tenants until none is left.
    remaining = float(budget)
    active = list(range(tenants))
    while remaining > 1e-9 and active:
        w_sum = sum(weights[t] for t in active)
        overflow = 0.0
        still_open = []
        for t in active:
            grant = remaining * weights[t] / w_sum
            total = quota[t] + grant
            if total >= room[t]:
                overflow += total - room[t]
                quota[t] = float(room[t])
            else:
                quota[t] = total
                still_open.append(t)
        remaining = overflow
        active = still_open
    # Integerize to hit the budget exactly: floors first, then the
    # shortfall by largest fractional remainder (tenant index breaks
    # ties — total, deterministic order), never past a tenant's room.
    extra = [int(quota[t]) for t in range(tenants)]
    short = budget - sum(extra)
    order = sorted(
        range(tenants), key=lambda t: (-(quota[t] - extra[t]), t)
    )
    for t in order:
        if short <= 0:
            break
        if extra[t] < room[t]:
            extra[t] += 1
            short -= 1
    if short > 0:  # every fractional candidate hit its room: second pass
        for t in range(tenants):
            take = min(short, room[t] - extra[t])
            extra[t] += take
            short -= take
            if short <= 0:
                break
    return [1 + extra[t] for t in range(tenants)]


def generate_trace(
    seed: int = 0,
    tenants: int = 16,
    requests: int = 256,
    duration_ms: float = 50.0,
    skew: float = 4.0,
    burst_len: int = 4,
    heavy_tail: float = 0.15,
    interactive_share: float = 0.5,
    interactive_slo_ms: float = 5.0,
    weighting: str = "step",
    zipf_exponent: float = 1.1,
    gpu_map_share: float = 0.0,
    gpu_map_elems: int = 32,
) -> list[TraceRequest]:
    """Generate a seeded arrival trace (sorted by arrival time).

    Tenant load shares follow ``weighting``:

    * ``"step"`` (default, the original shape) — the first quarter of
      tenants receive ``skew``x the per-tenant request rate of the rest
      (4.0 reproduces the 4x-skewed shape of the rebalance bench).
    * ``"zipf"`` — tenant *t* gets weight ``1 / (t+1)**zipf_exponent``,
      the heavy-tailed population shape of the roadmap's 10k-session
      replay harness: a handful of hot tenants, a vast long tail of
      one-request sessions. Any single tenant's count is clamped to 2%
      of the trace so the head stays heavy without one tenant's strict
      per-session ordering serializing the whole replay, and the
      clipped head mass is redistributed down the tail
      (:func:`_zipf_counts`), so the emitted request count is *exactly*
      ``max(requests, tenants)`` — deterministic, not
      rounding-drifted.

    ``heavy_tail`` is the probability a request draws a heavy nested
    form instead of a cheap one. ``gpu_map_share`` (default off) mixes
    bulk collection work into the non-interactive tenants: each bulk
    request has that probability of being a ``gpu-map`` over
    ``gpu_map_elems`` literal elements instead of a scalar form — the
    mixed bulk+interactive workload the coexistence benches replay.
    The first ``interactive_share`` of tenants are interactive (tight
    ``interactive_slo_ms`` deadline, short bursts); the rest are bulk
    (no SLO, longer bursts). Arrivals are bursty: each tenant
    alternates exponential think pauses with ``burst_len``-sized runs
    of back-to-back submissions.

    At 10k-session scale every tenant still gets at least one request,
    so the budget is ``max(requests, tenants)`` (exact for zipf;
    per-tenant-rounded for step, whose shape predates the exact
    accounting and is pinned by the serve bench baselines).
    """
    if tenants < 1 or requests < 1:
        raise ValueError("tenants and requests must be >= 1")
    if weighting not in ("step", "zipf"):
        raise ValueError(
            f"unknown weighting {weighting!r}: expected 'step' or 'zipf'"
        )
    rng = random.Random(seed)
    n_interactive = max(0, min(tenants, round(tenants * interactive_share)))
    if weighting == "zipf":
        weights = [1.0 / (t + 1) ** zipf_exponent for t in range(tenants)]
        cap = max(1, round(0.02 * requests))
        counts = _zipf_counts(weights, max(requests, tenants), cap)
    else:
        n_hot = max(1, tenants // 4)
        weights = [skew if t < n_hot else 1.0 for t in range(tenants)]
        total_w = sum(weights)
        counts = [
            max(1, round(requests * weights[t] / total_w))
            for t in range(tenants)
        ]
    out: list[TraceRequest] = []
    for tenant in range(tenants):
        interactive = tenant < n_interactive
        n = counts[tenant]
        # Bursty on/off arrivals: mean gap sized so the tenant's bursts
        # spread over the trace duration.
        tenant_burst = burst_len if not interactive else max(1, burst_len // 2)
        bursts = max(1, n // tenant_burst)
        mean_gap = duration_ms / bursts
        t = rng.uniform(0.0, mean_gap)
        emitted = 0
        while emitted < n:
            for _ in range(min(tenant_burst, n - emitted)):
                # The gpu_map_share draw happens ONLY when the mixed
                # mode is on, so the default PRNG stream (and therefore
                # every baseline trace) stays byte-identical.
                bulk_map = (
                    gpu_map_share > 0.0
                    and not interactive
                    and rng.random() < gpu_map_share
                )
                if bulk_map:
                    text = _bulk_map_form(rng, gpu_map_elems)
                else:
                    heavy = rng.random() < heavy_tail and not interactive
                    text = (
                        _heavy_form(rng, depth=rng.randint(8, 24))
                        if heavy
                        else _cheap_form(rng)
                    )
                out.append(
                    TraceRequest(
                        arrival_ms=round(t, 4),
                        tenant=tenant,
                        text=text,
                        tenant_class="interactive" if interactive else "bulk",
                        slo_ms=interactive_slo_ms if interactive else None,
                    )
                )
                t += rng.uniform(0.0, 0.05)  # intra-burst spacing
                emitted += 1
            t += rng.expovariate(1.0 / mean_gap)  # think pause
    out.sort(key=lambda r: (r.arrival_ms, r.tenant))
    return out


def replay_trace(server, trace: list[TraceRequest], prefix: str = "trace"):
    """Open one session per tenant and submit the whole trace in arrival
    order; returns ``(sessions, tickets)``. The caller flushes.

    Sessions are opened with each tenant's class SLO, so deadline-aware
    ordering engages; per-session order is unaffected, which is what
    makes each tenant's transcript comparable with a solo run.
    """
    sessions: dict[int, object] = {}
    for req in trace:
        if req.tenant not in sessions:
            sessions[req.tenant] = server.open_session(
                name=f"{prefix}-{req.tenant}", slo_ms=req.slo_ms
            )
    tickets = [
        sessions[req.tenant].submit(req.text, arrival_ms=req.arrival_ms)
        for req in trace
    ]
    return sessions, tickets


def solo_outputs(commands, **server_kwargs) -> list[str]:
    """The commands run in order on a private single-device server."""
    server_kwargs.setdefault("devices", [SOLO_DEVICE])
    with CuLiServer(**server_kwargs) as server:
        session = server.open_session()
        return [session.eval(command) for command in commands]


def solo_transcripts(trace, tenants=None, **server_kwargs) -> dict[int, list[str]]:
    """Each tenant's solo transcript of ``trace``; ``tenants`` limits it
    to a subset."""
    commands: dict[int, list[str]] = {}
    for req in trace:
        if tenants is None or req.tenant in tenants:
            commands.setdefault(req.tenant, []).append(req.text)
    return {
        tenant: solo_outputs(texts, **server_kwargs)
        for tenant, texts in commands.items()
    }
