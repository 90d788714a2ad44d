"""ChaosMonkey: seeded, deterministic device-loss injection.

The failover contract ("no request is ever lost") is only worth stating
if something tries to break it. The chaos monkey is that something: a
seeded PRNG that the :class:`~repro.serve.supervisor.DeviceSupervisor`
consults around every batch submission and every idle round, drawing one
of three events per device:

* **kill** — the device is marked lost *before* the batch is submitted:
  the round's work never ran, so a plain retry after recovery is
  exactly-once from the tenant's point of view.
* **hang** — the batch runs to completion on the device, *then* the
  watchdog declares it hung (after a modeled ``hang_detect_ms`` wait)
  and the force-reset wipes the result before it reaches the host. This is the at-least-once corner: the work's
  persistent effects happened and are destroyed with the arena, so
  recovery replays it from the last checkpoint.
* **idle kill** — the device dies *between* rounds with nothing in
  flight, exercising recovery with no batch to re-enqueue.

Everything is driven by one ``random.Random(seed)``: the same seed, the
same fleet, and the same submission sequence reproduce the same kill
schedule exactly, which is what lets the chaos property suite shrink a
failing run and CI pin a seed matrix.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["ChaosMonkey"]


class ChaosMonkey:
    """Seeded per-round device-loss injector (see module docs)."""

    def __init__(
        self,
        seed: int = 0,
        kill_rate: float = 0.0,
        hang_rate: float = 0.0,
        idle_kill_rate: float = 0.0,
    ) -> None:
        for name, rate in (
            ("kill_rate", kill_rate),
            ("hang_rate", hang_rate),
            ("idle_kill_rate", idle_kill_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if kill_rate + hang_rate > 1.0:
            raise ValueError("kill_rate + hang_rate must not exceed 1")
        self.seed = seed
        self.rng = random.Random(seed)
        self.kill_rate = kill_rate
        self.hang_rate = hang_rate
        self.idle_kill_rate = idle_kill_rate
        # What actually fired (the property suite asserts coverage: a
        # chaos run that never killed anything proves nothing).
        self.kills = 0
        self.hangs = 0
        self.idle_kills = 0

    @property
    def events(self) -> int:
        return self.kills + self.hangs + self.idle_kills

    # -- draws (called by the supervisor) ------------------------------------------

    def draw(self, device_id: str) -> Optional[str]:
        """One draw per batch submission: ``"kill"``, ``"hang"``, or None.

        The draw consumes exactly one PRNG sample regardless of outcome,
        so the schedule depends only on the seed and the submission
        sequence — not on which events happened to fire earlier.
        """
        r = self.rng.random()
        if r < self.kill_rate:
            self.kills += 1
            return "kill"
        if r < self.kill_rate + self.hang_rate:
            self.hangs += 1
            return "hang"
        return None

    def draw_idle(self, device_id: str) -> bool:
        """One draw per device per between-rounds pause: idle kill?"""
        if self.rng.random() < self.idle_kill_rate:
            self.idle_kills += 1
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"<ChaosMonkey seed={self.seed} kill={self.kill_rate} "
            f"hang={self.hang_rate} idle={self.idle_kill_rate} "
            f"fired={self.kills}k/{self.hangs}h/{self.idle_kills}i>"
        )
