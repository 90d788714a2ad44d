"""Seeded serving workloads with their expected outputs.

Every workload is an open loop on the virtual clock: each request carries
the modeled time it is due (``arrival_ms``) and is submitted with that
stamp whatever the server is doing. The generator computes the output
CuLi must print for every request in plain Python, so a run can check
each result without trusting the program under test.

Two random streams build a workload:

* the *shape* -- which tenant sends which kind of command in which
  arrival slot -- comes from a seed fixed per workload;
* the ``seed`` argument draws every literal value in every command and
  where each arrival falls within its slot, so each seed sends different
  texts and expects different outputs.

The shape is fixed because a run's tail latency is set by where a few
heavy commands happen to coincide: re-drawing the schedule per seed moved
hot-repl's p99 by about +-40% between seeds, re-drawing only the values
by about 1%.

The generator lives here, not under ``src/``, so that a change to the
program cannot silently change the workload it is judged by.

``scale`` multiplies the tenant and request counts and ``rate_per_s``
replaces the nominal arrival rate; the SLO-capacity ladder uses both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["Fleet", "Request", "BulkRequest", "Workload", "WORKLOADS", "generate"]

#: Latency limit of every interactive tenant, in modeled ms.
SLO_MS = 5.0


@dataclass(frozen=True)
class Fleet:
    """Device pool and fleet policies a workload runs on."""

    devices: tuple[str, ...]
    rebalance: bool = False
    failover: bool = False
    #: Seeded chaos: probability that a batch submission kills its device
    #: before the batch runs (kill-only, so delivery stays exactly-once).
    kill_rate: float = 0.0
    #: Fixed per workload, like the shape, so every seed draws the same
    #: kill sequence and loses about as many devices.
    chaos_seed: int = 0
    #: Independent servers of ``devices`` each, side by side (one chaos
    #: seed per cell); tenant t lives in cell ``t % cells``.
    cells: int = 1


@dataclass(frozen=True)
class Request:
    arrival_ms: float
    tenant: int
    text: str
    expected: str


@dataclass(frozen=True)
class BulkRequest:
    """One ``gpu-map`` job sharded over the fleet by ``submit_bulk``."""

    arrival_ms: float
    fn_text: str
    elements: tuple[int, ...]
    expected: str


@dataclass
class Workload:
    name: str
    seed: int
    fleet: Fleet
    #: Per-tenant SLO in modeled ms (None: a tenant with no deadline).
    slos: list[Optional[float]]
    #: Tenant requests, sorted by arrival.
    requests: list[Request]
    #: Bulk jobs, sorted by arrival.
    bulk: list[BulkRequest] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Requests a user submits: tenant commands plus bulk jobs."""
        return len(self.requests) + len(self.bulk)


def _shape_rng(name: str) -> random.Random:
    return random.Random(f"perfbench/{name}/shape")


def _arrivals(rng: random.Random, n: int, rate_per_s: float) -> list[float]:
    """``n`` arrival times (ms) at ``rate_per_s``: one in each slot of
    ``1 / rate_per_s``, uniformly placed within its slot, so the offered
    load is the rate exactly and bursts stay short."""
    gap_ms = 1000.0 / rate_per_s
    return [(k + rng.random()) * gap_ms for k in range(n)]


def _owners(shape: random.Random, counts: list[int]) -> list[int]:
    """The tenant of each arrival slot, ``counts[t]`` slots for tenant t;
    a tenant's k-th slot in time carries its k-th command."""
    owners = [t for t, n in enumerate(counts) for _ in range(n)]
    shape.shuffle(owners)
    return owners


# -- forms and their values ----------------------------------------------------


def _cheap(kind: int, rng: random.Random) -> tuple[str, str]:
    """One of five small pure forms; ``kind`` picks it, ``rng`` the values."""
    a, b = rng.randint(1, 99), rng.randint(1, 99)
    if kind == 0:
        return f"(+ {a} {b})", str(a + b)
    if kind == 1:
        return f"(* {a} {b})", str(a * b)
    if kind == 2:
        return f"(- {a} {b})", str(a - b)
    if kind == 3:
        return f"(if (< {a} {b}) {a} {b})", str(a if a < b else b)
    # A cons tail must be a list in CuLi, so the pair is built on (list b).
    return f"(car (cons {a} (list {b})))", str(a)


def _heavy(ops: str, rng: random.Random) -> tuple[str, str]:
    """Nested arithmetic, one level per operator in ``ops`` (8 to 24 deep:
    a heavy-tailed service demand)."""
    value = rng.randint(1, 9)
    text = str(value)
    for op in ops:
        k = rng.randint(1, 9)
        text = f"({op} {k} {text})"
        value = k + value if op == "+" else k * value
    return text, str(value)


def _zipf_counts(tenants: int, requests: int, exponent: float, cap: int) -> list[int]:
    """Every tenant sends one request; the rest go by Zipf weight.

    Largest-remainder apportionment: the counts sum to ``requests``
    exactly and no tenant gets more than ``cap``.
    """
    weights = [1.0 / (t + 1) ** exponent for t in range(tenants)]
    extra = requests - tenants
    counts = [1] * tenants
    while extra > 0:
        open_ = [t for t in range(tenants) if counts[t] < cap]
        w_sum = sum(weights[t] for t in open_)
        ideal = {t: extra * weights[t] / w_sum for t in open_}
        granted = 0
        for t in open_:
            take = min(int(ideal[t]), cap - counts[t])
            counts[t] += take
            granted += take
        if granted == 0:
            for t in sorted(open_, key=lambda t: (-(ideal[t] % 1.0), t))[:extra]:
                counts[t] += 1
                granted += 1
        extra -= granted
    return counts


# -- zipf-fleet ------------------------------------------------------------------


def zipf_fleet(seed: int, scale: float = 1.0, rate_per_s: Optional[float] = None) -> Workload:
    """~10k Zipf(1.1) tenants, one-shot cheap or heavy pure forms, a
    mixed GPU/CPU fleet with cost placement and rebalancing.

    Nominally 12k requests arrive within 5 ms, far faster than the fleet
    serves them, so the queues hold thousands of tickets and the
    scheduler, pool and rebalancer do most of the host work. The texts
    are nearly all distinct, so the parse cache and the JIT barely run.
    """
    shape, rng = _shape_rng("zipf-fleet"), random.Random(seed)
    tenants = max(2, round(10_000 * scale))
    requests = max(tenants, round(12_000 * scale))
    counts = _zipf_counts(tenants, requests, 1.1, cap=max(1, round(0.02 * requests)))
    # Even Zipf ranks are interactive, odd ranks have no deadline: half the
    # tenants, and half the hot head, carry the SLO.
    slos = [SLO_MS if t % 2 == 0 else None for t in range(tenants)]
    rate = rate_per_s if rate_per_s is not None else 2.4e6
    out = []
    arrivals = _arrivals(rng, requests, rate)
    for arrival, tenant in zip(arrivals, _owners(shape, counts)):
        if slos[tenant] is None and shape.random() < 0.15:
            ops = "".join(shape.choice("+*") for _ in range(shape.randint(8, 24)))
            text, value = _heavy(ops, rng)
        else:
            text, value = _cheap(shape.randrange(5), rng)
        out.append(Request(arrival, tenant, text, value))
    fleet = Fleet(("gtx1080", "gtx1080", "tesla-v100", "intel-e5-2620"), rebalance=True)
    return Workload("zipf-fleet", seed, fleet, slos, out)


# -- hot-repl ----------------------------------------------------------------------

_HOT_DEFUNS = (
    ("(defun sq (x) (* x x))", "sq"),
    ("(defun poly (x) (+ (* x x) (* 3 x) 7))", "poly"),
    ("(defun add3 (a b c) (+ a (+ b c)))", "add3"),
)

#: Argument counts of the wide commands: the heavy tail of literal-heavy
#: forms (the last one sums its literals, the others print them back).
_WIDE_LENGTHS = (100, 250, 400)


def _hot_command_set(rng: random.Random) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """The texts every hot-repl tenant repeats: ten small calls of the
    defined functions, and the wide commands."""
    small = []
    for _ in range(4):
        x = rng.randint(2, 60)
        small.append((f"(sq {x})", str(x * x)))
    for _ in range(3):
        x = rng.randint(2, 60)
        small.append((f"(poly {x})", str(x * x + 3 * x + 7)))
    for _ in range(3):
        a, b, c = (rng.randint(1, 500) for _ in range(3))
        small.append((f"(add3 {a} {b} {c})", str(a + b + c)))
    wide = []
    for n in _WIDE_LENGTHS[:-1]:
        body = " ".join(str(rng.randint(1, 999)) for _ in range(n))
        wide.append((f"(list {body})", f"({body})"))
    values = [rng.randint(1, 999) for _ in range(_WIDE_LENGTHS[-1])]
    wide.append((f"(+ {' '.join(map(str, values))})", str(sum(values))))
    return small, wide


def hot_repl(seed: int, scale: float = 1.0, rate_per_s: Optional[float] = None) -> Workload:
    """~32 interactive tenants on two GTX 1080s repeating a small command
    set: cache-hot texts that run on the JIT, a tail of wide commands.

    Each tenant first defines three functions, then sends every small
    command three times, one more small command and every wide command
    once (34 commands, 9% wide) in its own order.
    """
    shape, rng = _shape_rng("hot-repl"), random.Random(seed)
    tenants = max(1, round(32 * scale))
    small, wide = _hot_command_set(rng)
    commands = small + wide
    scripts = []
    for _ in range(tenants):
        body = list(range(len(small))) * 3 + [shape.randrange(len(small))]
        body += range(len(small), len(commands))
        shape.shuffle(body)
        scripts.append(list(_HOT_DEFUNS) + [commands[i] for i in body])
    per_tenant = len(scripts[0])
    rate = rate_per_s if rate_per_s is not None else 60_000.0
    sent = [0] * tenants
    out = []
    arrivals = _arrivals(rng, tenants * per_tenant, rate)
    for arrival, tenant in zip(arrivals, _owners(shape, [per_tenant] * tenants)):
        text, value = scripts[tenant][sent[tenant]]
        sent[tenant] += 1
        out.append(Request(arrival, tenant, text, value))
    return Workload("hot-repl", seed, Fleet(("gtx1080", "gtx1080")), [SLO_MS] * tenants, out)


# -- bulk-mix ----------------------------------------------------------------------

#: Elements per gpu-map job.
BULK_ELEMS = 2048


def bulk_mix(seed: int, scale: float = 1.0, rate_per_s: Optional[float] = None) -> Workload:
    """``gpu-map`` jobs over 2048-element collections sharded across four
    GTX 1080s, while 16 interactive tenants keep submitting under their
    SLO. No rebalancer and no failover.

    ``rate_per_s`` is the interactive arrival rate; the four bulk jobs
    arrive evenly over the same window.
    """
    shape, rng = _shape_rng("bulk-mix"), random.Random(seed)
    tenants = max(1, round(16 * scale))
    per_tenant = 80
    rate = rate_per_s if rate_per_s is not None else 40_000.0
    arrivals = _arrivals(rng, tenants * per_tenant, rate)
    out = []
    for arrival, tenant in zip(arrivals, _owners(shape, [per_tenant] * tenants)):
        text, value = _cheap(shape.randrange(5), rng)
        out.append(Request(arrival, tenant, text, value))
    jobs = []
    n_jobs = max(1, round(4 * scale))
    window = tenants * per_tenant * 1000.0 / rate
    for j in range(n_jobs):
        c = rng.randint(1, 9)
        elements = tuple(rng.randint(1, 99) for _ in range(BULK_ELEMS))
        expected = "(" + " ".join(str(x * x + c) for x in elements) + ")"
        jobs.append(
            BulkRequest(window * j / n_jobs, f"(lambda (x) (+ (* x x) {c}))", elements, expected)
        )
    fleet = Fleet(("gtx1080",) * 4)
    return Workload("bulk-mix", seed, fleet, [SLO_MS] * tenants, out, jobs)


# -- stateful-failover -----------------------------------------------------------------


class _TenantState:
    """A Python model of one tenant's persistent CuLi state."""

    def __init__(self) -> None:
        self.n = 0
        self.acc: list[int] = []
        self.scale = 1

    def command(self, k: int, kind: int, rng: random.Random) -> tuple[str, str]:
        """The tenant's ``k``-th command: four set-up commands, then one
        of eight reads and writes picked by ``kind``."""
        if k == 0:
            return "(setq n 0)", "0"
        if k == 1:
            return "(setq acc nil)", "nil"
        if k == 2:
            return "(defun bump (d) (setq n (+ n d)))", "bump"
        if k == 3:
            return "(defun scaled (x) (* x 1))", "scaled"
        if kind == 0:
            self.n += 1
            return "(setq n (+ n 1))", str(self.n)
        if kind == 1:
            d = rng.randint(1, 9)
            self.n += d
            return f"(bump {d})", str(self.n)
        if kind == 2:
            self.acc.insert(0, rng.randint(1, 99))
            return f"(setq acc (cons {self.acc[0]} acc))", "(" + " ".join(map(str, self.acc)) + ")"
        if kind == 3:
            self.scale = rng.randint(2, 9)
            return f"(defun scaled (x) (* x {self.scale}))", "scaled"
        if kind == 4:
            x = rng.randint(1, 99)
            return f"(scaled {x})", str(x * self.scale)
        if kind == 5:
            return "n", str(self.n)
        if kind == 6:
            return "(length acc)", str(len(self.acc))
        return "(car acc)", str(self.acc[0]) if self.acc else "nil"


def stateful_failover(seed: int, scale: float = 1.0, rate_per_s: Optional[float] = None) -> Workload:
    """~64 interactive tenants writing persistent state (setq counters,
    growing cons lists, redefined functions) beside reads, in four cells
    of three GTX 1080s with failover, checkpointing and rebalancing on,
    and seeded kill-only chaos that loses two devices per run.

    A single cell's p99 is set by where its device losses land; pooling
    four cells with their own chaos seeds, at a kill rate that loses two
    devices rather than three, keeps it steady between seeds.
    """
    shape, rng = _shape_rng("stateful-failover"), random.Random(seed)
    tenants = max(4, round(64 * scale))
    per_tenant = 100
    rate = rate_per_s if rate_per_s is not None else 150_000.0
    states = [_TenantState() for _ in range(tenants)]
    sent = [0] * tenants
    out = []
    arrivals = _arrivals(rng, tenants * per_tenant, rate)
    for arrival, tenant in zip(arrivals, _owners(shape, [per_tenant] * tenants)):
        text, value = states[tenant].command(sent[tenant], shape.randrange(8), rng)
        sent[tenant] += 1
        out.append(Request(arrival, tenant, text, value))
    fleet = Fleet(
        ("gtx1080", "gtx1080", "gtx1080"),
        rebalance=True,
        failover=True,
        kill_rate=0.0005,
        chaos_seed=2018,
        cells=4,
    )
    return Workload("stateful-failover", seed, fleet, [SLO_MS] * tenants, out)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "zipf-fleet": zipf_fleet,
    "hot-repl": hot_repl,
    "bulk-mix": bulk_mix,
    "stateful-failover": stateful_failover,
}


def generate(
    name: str, seed: int, scale: float = 1.0, rate_per_s: Optional[float] = None
) -> Workload:
    return WORKLOADS[name](seed, scale=scale, rate_per_s=rate_per_s)
