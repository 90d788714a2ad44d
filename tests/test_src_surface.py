"""Guard: ``src/repro`` defines only what the program uses.

Every function, method, property and class defined in ``src/repro`` must
be referred to somewhere other than its own definitions: elsewhere in
``src/``, or in ``benchmarks/``, ``perfbench/`` or ``examples/``. Tests do
not count, so a helper that only tests call fails here; move it into the
tests or delete it. Import lines and ``__all__`` lists are not
references, and neither is a name's own ``def`` or ``class`` line. A
string literal that is a dotted name (``"Scheduler.dispatch"``, a
``getattr`` attribute) refers to each of its parts, and one with a ``*``
(``"record_*"``) to every name it matches. Names in ``repro.__all__`` are
the package's public surface and exempt. Dunder names and names shorter
than four characters are not checked.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
USERS = ("benchmarks", "perfbench", "examples")

_NAMED = re.compile(r"[rRuU]?(['\"])([A-Za-z_][\w.*]*)\1")


def _skipped_lines(tree: ast.AST) -> set[int]:
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    return skipped


def _references(path: Path, refs: Counter, globs: set[str]) -> None:
    text = path.read_text()
    skipped = _skipped_lines(ast.parse(text))
    prev = None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.start[0] not in skipped:
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                refs[tok.string] += 1
            elif tok.type == tokenize.STRING and (m := _NAMED.fullmatch(tok.string)):
                for part in m.group(2).split("."):
                    if "*" in part:
                        globs.add(part)
                    else:
                        refs[part] += 1
        prev = tok.string


def _definitions() -> dict[str, list[str]]:
    defs: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if len(name) >= 4 and not (name.startswith("__") and name.endswith("__")):
                    defs.setdefault(name, []).append(
                        f"{path.relative_to(ROOT)}:{node.lineno}"
                    )
    return defs


def unused_definitions() -> dict[str, list[str]]:
    """Each checked name nothing refers to, with where it is defined."""
    refs: Counter = Counter()
    globs: set[str] = set()
    for path in SRC.rglob("*.py"):
        _references(path, refs, globs)
    for user in USERS:
        for path in (ROOT / user).rglob("*.py"):
            _references(path, refs, globs)
    public = set(repro.__all__)
    return {
        name: where
        for name, where in _definitions().items()
        if not refs[name]
        and name not in public
        and not any(fnmatch.fnmatchcase(name, g) for g in globs)
    }


def test_every_definition_in_src_is_used_outside_tests():
    unused = unused_definitions()
    assert not unused, "defined in src/ but used only by tests (or not at all):\n" + "\n".join(
        f"  {name}: {', '.join(where)}" for name, where in sorted(unused.items())
    )
