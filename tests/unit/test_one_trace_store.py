"""One owner for a launch's trace: ``TraceRecorder``.

The recorder folds every op into one accumulator per op shape as it
records, and the replay reads that store through
``TraceRecorder.flush`` (one ``Step`` per shape) or
``TraceRecorder.plain_records``. A second store -- a list of Steps a
caller appends to, or buffers folded again later -- is what this
replaced. The scan below fails when, anywhere under ``src/repro`` or
``scripts``, code outside ``TraceRecorder``:

* constructs a ``Step``;
* touches the recorder's store, ``_shapes``.
"""

import ast
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parents[2]
SCANNED = (ROOT / "src" / "repro", ROOT / "scripts")
OWNER = ("core/backends/wave.py", "TraceRecorder")


def violations(source: str, rel: str) -> List[Tuple[int, str]]:
    """``(line, what)`` for every Step construction and store access in
    ``source`` (the file ``rel`` under a scanned root) outside the
    owner."""
    found: List[Tuple[int, str]] = []

    def visit(node: ast.AST, scope: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        inside = (rel, scope[:1]) == (OWNER[0], (OWNER[1],))
        where = ".".join(scope) or "<module>"
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name == "Step":
                found.append((node.lineno, f"Step built in {where}"))
        if isinstance(node, ast.Attribute) and node.attr == "_shapes" and not inside:
            found.append((node.lineno, f"trace store touched in {where}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_the_recorder_builds_steps_and_fills_its_store():
    offenders = [
        f"{path.relative_to(ROOT).as_posix()}:{line}: {what}"
        for root in SCANNED
        for path in sorted(root.rglob("*.py"))
        for rel in [path.relative_to(root).as_posix()]
        for line, what in violations(path.read_text(encoding="utf-8"), rel)
    ]
    assert offenders == []


def test_the_guard_sees_a_planted_caller():
    """The scan is not vacuous: a Step appended from a scheduler and a
    write into the store are caught; the recorder's own are not."""
    planted = (
        "def schedule(recorder, lanes, rounds):\n"
        "    recorder.steps.append(wave.Step(9, lanes, rounds, 0))\n"
        "    recorder._shapes.clear()\n"
    )
    assert violations(planted, "core/backends/lockstep.py") == [
        (2, "Step built in schedule"), (3, "trace store touched in schedule"),
    ]
    owner = (
        "class TraceRecorder:\n"
        "    def flush(self):\n"
        "        return [Step(k, *acc) for k, acc in self._shapes.items()]\n"
    )
    assert violations(owner, OWNER[0]) == []
    assert violations(owner, "core/backends/replay.py") == [
        (3, "Step built in TraceRecorder.flush"),
        (3, "trace store touched in TraceRecorder.flush"),
    ]
