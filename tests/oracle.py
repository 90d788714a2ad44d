"""The solo oracle for serving differentials.

Each tenant's commands run alone and in order on a fresh single-device
server: no co-tenants, no batching partners, no migration, no failover.
Batching, EDF reordering across sessions, placement, rebalancing and
device loss may change *when* a command runs, never what it prints, so
every tenant's transcript on a shared fleet must equal its solo one.
"""

from __future__ import annotations

from repro.serve import CuLiServer

SOLO_DEVICE = "gtx1080"


def solo_outputs(commands, **server_kwargs) -> list[str]:
    """The commands run on a private, never-migrated single-device server."""
    server_kwargs.setdefault("devices", [SOLO_DEVICE])
    with CuLiServer(**server_kwargs) as server:
        session = server.open_session()
        return [session.eval(command) for command in commands]


def solo_trace_transcripts(trace, **server_kwargs) -> dict[int, list[str]]:
    """Each tenant's solo transcript of a replay trace."""
    commands: dict[int, list[str]] = {}
    for req in trace:
        commands.setdefault(req.tenant, []).append(req.text)
    return {
        tenant: solo_outputs(texts, **server_kwargs)
        for tenant, texts in commands.items()
    }
