"""One owner for undoing a transaction: ``tx_logging.rollback``.

An aborted transaction's effects used to be undone in four places, in
three orders, and two of them cancelled an insert before the delete
of the same row, which brought the row back. ``repro.core.tx_logging``
now owns the undo-record format and the one rollback. The scan below
fails when, anywhere else under ``src/repro``:

* code calls ``cancel_insert`` or ``cancel_delete`` -- only
  ``tx_logging.rollback``, ``tx_logging.apply_redo`` (a redo log's
  cancel records) and ``ClusterStoreAdapter``'s methods of the same
  names (which forward to the owning shard's store) may;
* code spells the sentinel strings ``"__insert__"`` or ``"__delete__"``
  instead of ``tx_logging.INSERT_SENTINEL`` / ``DELETE_SENTINEL``.
"""

import ast
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

CANCELS = frozenset({"cancel_insert", "cancel_delete"})
SENTINEL_STRINGS = frozenset({"__insert__", "__delete__"})
OWNER = "core/tx_logging.py"

#: (file under src/repro, enclosing function) pairs that may cancel.
ALLOWED_CANCELLERS = frozenset({
    (OWNER, "rollback"),
    (OWNER, "apply_redo"),
    ("cluster/coordinator.py", "ClusterStoreAdapter.cancel_insert"),
    ("cluster/coordinator.py", "ClusterStoreAdapter.cancel_delete"),
})


def violations(source: str, rel: str) -> List[Tuple[int, str]]:
    """``(line, what)`` for every cancel call and sentinel literal in
    ``source`` (the file ``rel`` under ``src/repro``) the rule forbids."""
    found: List[Tuple[int, str]] = []

    def visit(node: ast.AST, scope: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in CANCELS
            and (rel, ".".join(scope)) not in ALLOWED_CANCELLERS
        ):
            where = ".".join(scope) or "<module>"
            found.append((node.lineno, f"{node.func.attr} call in {where}"))
        if (
            isinstance(node, ast.Constant)
            and node.value in SENTINEL_STRINGS
            and rel != OWNER
        ):
            found.append((node.lineno, f"sentinel literal {node.value!r}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_tx_logging_undoes_a_transaction():
    offenders = [
        f"src/repro/{rel}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        for rel in [path.relative_to(SRC).as_posix()]
        for line, what in violations(path.read_text(encoding="utf-8"), rel)
    ]
    assert offenders == []


def test_the_guard_sees_a_planted_caller():
    """The scan is not vacuous: a cancel call outside the owner and a
    spelled-out sentinel are caught; the owner's rollback is not."""
    planted = (
        "def undo(adapter, pending):\n"
        "    for table, row in pending:\n"
        "        adapter.cancel_insert(table, row)\n"
        "    return ('__delete__', 't', 0, None)\n"
    )
    assert violations(planted, "cpu/engine.py") == [
        (3, "cancel_insert call in undo"), (4, "sentinel literal '__delete__'"),
    ]
    owner = (
        "INSERT_SENTINEL = '__insert__'\n"
        "def rollback(adapter, entries):\n"
        "    adapter.cancel_delete('t', 0)\n"
    )
    assert violations(owner, OWNER) == []
    assert violations(owner, "core/strategies/part.py") == [
        (1, "sentinel literal '__insert__'"), (3, "cancel_delete call in rollback"),
    ]
