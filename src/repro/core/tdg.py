"""The T-dependency graph (Section 4, Appendix B).

A DAG over the transactions of a pool: vertices are transactions, and
an edge ``t1 -> t2`` exists iff (a) ``t1`` and ``t2`` conflict, (b)
``t1``'s timestamp is smaller, and (c) no transaction with an
intermediate timestamp conflicts with both. Because timestamps strictly
order the edges, the graph is acyclic -- which is what makes the
counter-lock TPL of Section 5.1 deadlock-free.

Construction follows the data-oriented algorithm of Appendix B over
the bulk's :class:`~repro.core.oparray.OpArray`: per data item we keep
the timestamp-ordered list of transactions touching
it; adding a transaction only examines the tails of the lists of the
items it touches:

* adding a **write**: scan back from the tail until the latest writer
  ``tw``; if ``tw`` is the tail, add ``tw -> t``; otherwise add an edge
  from every *reader* after ``tw`` (they all must finish first, and
  none of them conflicts with another reader, satisfying (c));
* adding a **read**: add one edge from the latest writer, wherever it
  sits in the list.

``depths()`` computes each vertex's depth (longest path from a source)
by topological order; ``k_sets()`` buckets vertices by depth -- the
k-sets of Section 4.1 with their two properties (members of one k-set
are pairwise conflict-free; every depth-k vertex has a conflicting
depth-(k-1) predecessor), both asserted by the property-based tests.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.oparray import OpArray
from repro.errors import ExecutionError


class TDependencyGraph:
    """Explicit T-dependency graph over a bulk's operation array."""

    def __init__(self) -> None:
        self.succ: Dict[int, Set[int]] = {}
        self.pred: Dict[int, Set[int]] = {}
        #: item -> list of (txn_id, wrote) in increasing timestamp order.
        self._item_lists: Dict[int, List[Tuple[int, bool]]] = {}
        self._last_ts: Optional[int] = None
        #: txn -> {item: wrote} merged access map (write dominates).
        self._access: Dict[int, Mapping[int, bool]] = {}

    # ------------------------------------------------------------------
    # Construction (Appendix B).
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, ops: OpArray) -> "TDependencyGraph":
        """Build from a bulk's operation array, in timestamp order."""
        graph = cls()
        for txn_id, items, writes in zip(
            ops.txn_ids.tolist(), ops.per_txn(ops.item), ops.per_txn(ops.write)
        ):
            graph.add_transaction(txn_id, dict(zip(items, writes)))
        return graph

    def add_transaction(self, txn_id: int, merged: Mapping[int, bool]) -> None:
        """Insert one transaction's merged ``{item: wrote}`` access
        map; must arrive in timestamp order."""
        if self._last_ts is not None and txn_id <= self._last_ts:
            raise ExecutionError(
                f"transactions must be added in timestamp order "
                f"({txn_id} after {self._last_ts})"
            )
        self._last_ts = txn_id
        self.succ.setdefault(txn_id, set())
        self.pred.setdefault(txn_id, set())

        self._access[txn_id] = merged

        for item, wrote in merged.items():
            entries = self._item_lists.setdefault(item, [])
            if entries:
                if wrote:
                    # Edges from the trailing readers (or the tail writer).
                    added_any = False
                    for prev_id, prev_wrote in reversed(entries):
                        if prev_wrote:
                            if not added_any:
                                self._add_edge(prev_id, txn_id)
                            break
                        self._add_edge(prev_id, txn_id)
                        added_any = True
                else:
                    # One edge from the latest writer, if any.
                    for prev_id, prev_wrote in reversed(entries):
                        if prev_wrote:
                            self._add_edge(prev_id, txn_id)
                            break
            entries.append((txn_id, wrote))

    def _add_edge(self, src: int, dst: int) -> None:
        if src == dst:
            return
        self.succ.setdefault(src, set()).add(dst)
        self.pred.setdefault(dst, set()).add(src)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> List[int]:
        return sorted(self.succ)

    def conflicting(self, t1: int, t2: int) -> bool:
        """True iff the two transactions have conflicting accesses."""
        a1 = self._access.get(t1, {})
        a2 = self._access.get(t2, {})
        if len(a2) < len(a1):
            a1, a2 = a2, a1
        for item, wrote in a1.items():
            other = a2.get(item)
            if other is not None and (wrote or other):
                return True
        return False

    def sources(self) -> List[int]:
        """Vertices with no predecessors -- the 0-set (Section 4.1)."""
        return sorted(v for v in self.succ if not self.pred.get(v))

    def depths(self) -> Dict[int, int]:
        """Longest-path depth of every vertex (sources have depth 0)."""
        indeg = {v: len(self.pred.get(v, ())) for v in self.succ}
        depth = {v: 0 for v in self.succ}
        queue = deque(v for v, d in indeg.items() if d == 0)
        visited = 0
        while queue:
            v = queue.popleft()
            visited += 1
            dv = depth[v]
            for w in self.succ.get(v, ()):
                if depth[w] < dv + 1:
                    depth[w] = dv + 1
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if visited != len(self.succ):  # pragma: no cover - acyclic by design
            raise ExecutionError("T-dependency graph contains a cycle")
        return depth

    def depth(self) -> int:
        """The depth of the graph: maximum vertex depth (Section 4.1)."""
        depths = self.depths()
        return max(depths.values(), default=0)

    def k_sets(self) -> Dict[int, List[int]]:
        """Bucket vertices by depth: k -> sorted transaction ids."""
        out: Dict[int, List[int]] = {}
        for v, d in self.depths().items():
            out.setdefault(d, []).append(v)
        for bucket in out.values():
            bucket.sort()
        return out

    def sub_dag_from(self, root: int) -> Set[int]:
        """All vertices reachable from ``root`` (root included).

        Used by TPL recovery: rolling back an aborted transaction also
        rolls back "the transactions in the sub-DAG of the T-dependency
        graph rooted at the transaction" (Appendix D).
        """
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for w in self.succ.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

