"""One function per figure of the paper's evaluation section.

Each returns a :class:`FigureResult` carrying the structured data, the
rendered ASCII table(s), and the outcome of the claims attached to that
figure. The benchmark files under ``benchmarks/`` and the CLI
(``python -m repro.bench``) are thin wrappers over these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .claims import (
    ClaimResult,
    claim_c1,
    claim_c2,
    claim_c3,
    claim_c4,
    claim_c5,
    claim_c6,
    claim_c7,
    claim_c8,
    claim_c9,
    claim_c10,
    claim_c11,
)
from .harness import (
    CPU_NAMES,
    GPU_NAMES,
    PAPER_DEVICE_ORDER,
    SweepPoint,
    run_base_latencies,
    run_sweep,
)
from .report import format_bar_chart, format_table

__all__ = ["FigureResult", "fig14", "fig15", "fig16", "fig17", "fig18"]

Sweep = dict[str, list[SweepPoint]]


def _has(sweep: Sweep, *devices: str) -> bool:
    return all(d in sweep for d in devices)


def _has_both_kinds(sweep: Sweep) -> bool:
    return any(d in sweep for d in GPU_NAMES) and any(d in sweep for d in CPU_NAMES)


@dataclass
class FigureResult:
    figure: str
    title: str
    text: str                       #: rendered ASCII
    data: dict = field(default_factory=dict)
    claims: list[ClaimResult] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"== {self.figure}: {self.title} ==", "", self.text, ""]
        for claim in self.claims:
            status = "PASS" if claim.passed else "FAIL"
            lines.append(f"  [{status}] {claim.claim_id}: {claim.description}")
            lines.append(f"         {claim.detail}")
        return "\n".join(lines)


def _thread_counts(sweep: Sweep) -> list[int]:
    any_points = next(iter(sweep.values()))
    return [p.threads for p in any_points]


# ---------------------------------------------------------------------------


def fig14(base: Optional[dict[str, float]] = None) -> FigureResult:
    """Fig. 14: base latency (start + graceful stop) for all devices."""
    base = base if base is not None else run_base_latencies()
    labels = [d for d in PAPER_DEVICE_ORDER if d in base]
    chart = format_bar_chart(
        labels, [base[d] for d in labels], title="Base latency [ms]", unit=" ms"
    )
    claims = [claim_c1(base, None), claim_c2(base, None), claim_c3(base, None)]
    return FigureResult(
        figure="Fig.14",
        title="Base latency for all devices",
        text=chart,
        data={"base_latency_ms": dict(base)},
        claims=claims,
    )


def fig15(sweep: Optional[Sweep] = None) -> FigureResult:
    """Fig. 15: total runtime vs thread count (log-scale series)."""
    sweep = sweep if sweep is not None else run_sweep()
    counts = _thread_counts(sweep)
    headers = ["device"] + [str(n) for n in counts]
    rows = []
    for device in sweep:
        by_n = {p.threads: p.total_ms for p in sweep[device]}
        rows.append([device] + [by_n[n] for n in counts])
    table = format_table(headers, rows, title="Runtime [ms] vs threads")
    # Attach only the claims whose devices are in this sweep (partial
    # sweeps are common when exploring).
    claims = [claim_c5(None, sweep), claim_c10(None, sweep)]
    if _has(sweep, *GPU_NAMES) and _has_both_kinds(sweep):
        claims.insert(0, claim_c4(None, sweep))
        claims.append(claim_c6(None, sweep))
    return FigureResult(
        figure="Fig.15",
        title="Runtime for all devices (1..4096 threads)",
        text=table,
        data={
            d: {p.threads: p.total_ms for p in pts} for d, pts in sweep.items()
        },
        claims=claims,
    )


def fig16(sweep: Optional[Sweep] = None) -> FigureResult:
    """Fig. 16a-d: execution / parsing / evaluation / printing times."""
    sweep = sweep if sweep is not None else run_sweep()
    counts = _thread_counts(sweep)
    sections = []
    data: dict[str, dict] = {}
    metrics = [
        ("16a execution (kernel) [ms]", lambda t: t.kernel_ms),
        ("16b parsing [ms]", lambda t: t.parse_ms),
        ("16c evaluation [ms]", lambda t: t.eval_ms),
        ("16d printing [ms]", lambda t: t.print_ms),
    ]
    for title, getter in metrics:
        headers = ["device"] + [str(n) for n in counts]
        rows = []
        metric_data = {}
        for device in sweep:
            by_n = {p.threads: getter(p.stats.times) for p in sweep[device]}
            rows.append([device] + [by_n[n] for n in counts])
            metric_data[device] = by_n
        sections.append(format_table(headers, rows, title=title))
        data[title.split()[0]] = metric_data
    claims = []
    if _has(sweep, "tesla-c2075", "gtx480"):
        claims.append(claim_c8(None, sweep))
    if _has(sweep, *GPU_NAMES):
        claims.append(claim_c11(None, sweep))
    return FigureResult(
        figure="Fig.16",
        title="Kernel-phase times across devices and thread counts",
        text="\n\n".join(sections),
        data=data,
        claims=claims,
    )


def fig17(sweep: Optional[Sweep] = None,
          devices: Sequence[str] = ("tesla-m40", "gtx1080", "tesla-c2075", "gtx480"),
          ) -> FigureResult:
    """Fig. 17: proportional kernel runtimes on GPUs.

    The paper shows M40/GTX1080 (parse-dominated, Fig. 17a) against the
    Fermi C2075 (Fig. 17b); we add the GTX 480 for the full Fermi story.
    """
    sweep = sweep if sweep is not None else run_sweep(devices=list(devices))
    counts = _thread_counts(sweep)
    sections = []
    data: dict[str, dict] = {}
    for device in devices:
        if device not in sweep:
            continue
        headers = ["threads"] + [str(n) for n in counts]
        rows = []
        props = {p.threads: p.stats.times.proportions() for p in sweep[device]}
        for phase in ("parse", "eval", "print"):
            rows.append([phase] + [props[n][phase] * 100 for n in counts])
        sections.append(
            format_table(headers, rows, title=f"Proportional runtime {device} [%]",
                         float_fmt="{:.1f}")
        )
        data[device] = props
    claims = []
    if _has(sweep, "tesla-m40", "gtx1080"):
        claims.append(claim_c7(None, sweep))
    if _has(sweep, "tesla-c2075", "gtx480"):
        claims.append(claim_c8(None, sweep))
    return FigureResult(
        figure="Fig.17",
        title="Kernel proportions on GPUs (parse/eval/print)",
        text="\n\n".join(sections),
        data=data,
        claims=claims,
    )


def fig18(sweep: Optional[Sweep] = None) -> FigureResult:
    """Fig. 18: proportional kernel runtime on the AMD 6272 (64 threads)."""
    sweep = sweep if sweep is not None else run_sweep(devices=["amd-6272"])
    counts = _thread_counts(sweep)
    props = {p.threads: p.stats.times.proportions() for p in sweep["amd-6272"]}
    headers = ["threads"] + [str(n) for n in counts]
    rows = []
    for phase in ("parse", "eval", "print"):
        rows.append([phase] + [props[n][phase] * 100 for n in counts])
    table = format_table(
        headers, rows, title="Proportional runtime AMD 6272 [%]", float_fmt="{:.1f}"
    )
    claims = [claim_c9(None, sweep)] if "amd-6272" in sweep else []
    return FigureResult(
        figure="Fig.18",
        title="Kernel proportions on the AMD Opteron 6272",
        text=table,
        data={"amd-6272": props},
        claims=claims,
    )
