"""Symbol interning (fast-path ablation, beyond the paper).

The paper's environment lookup strcmps the queried spelling against
every entry it walks (§III-B-a) — the cost the evaluation phase is
dominated by. A classic Lisp fix is to intern spellings once, at parse
time, and compare small integer ids afterwards.

:class:`SymbolTable` is that intern table: one per interpreter, shared
by every scope on the device. ``intern`` is charged as one
``HASH_PROBE`` (hash the spelling that the parser already loaded
char-by-char, probe the table); an id-vs-id comparison during lookup is
one ``SYM_CMP`` register compare instead of a ``SYM_CHAR_CMP`` chain.

Literal mode simply has no table: nodes keep ``sym_id = -1`` and every
comparison takes the paper's strcmp path, so the claims checks and
paper figures are untouched (see DESIGN.md deviations).
"""

from __future__ import annotations

from ..context import ExecContext, NullContext
from ..ops import Op

__all__ = ["SymbolTable"]


class SymbolTable:
    """Interns symbol spellings to dense integer ids."""

    __slots__ = ("ids", "_spellings")

    def __init__(self) -> None:
        #: Spelling -> id of every interned symbol. Callers may read it
        #: (an uncharged peek, as the reader makes before it charges an
        #: intern hit itself); only :meth:`intern` adds to it.
        self.ids: dict[str, int] = {}
        self._spellings: list[str] = []

    def intern(self, spelling: str, ctx: ExecContext) -> int:
        """Return the id for ``spelling``, creating it on first sight.

        One ``HASH_PROBE`` either way; a miss additionally stores the
        spelling (one node-field write for the table slot).
        """
        ctx.charge(Op.HASH_PROBE)
        sym_id = self.ids.get(spelling)
        if sym_id is None:
            sym_id = len(self._spellings)
            self.ids[spelling] = sym_id
            self._spellings.append(spelling)
            ctx.charge(Op.NODE_WRITE)
        return sym_id

    def intern_host(self, spelling: str) -> int:
        """Uncharged host-side interning (snapshot restore).

        Migration restores a heap on the *host* side between batch
        transactions, and sym_ids are per-device handles: the restored
        spellings must enter this device's table, but the work is host
        orchestration — the migration layer charges the snapshot's
        transfer time instead of per-spelling probes.
        """
        return self.intern(spelling, NullContext())

    def __len__(self) -> int:
        return len(self._spellings)

    def __contains__(self, spelling: str) -> bool:
        return spelling in self.ids
