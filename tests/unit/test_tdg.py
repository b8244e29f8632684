"""Unit tests for the T-dependency graph (Section 4, Appendix B)."""

import pytest

from repro.core.oparray import OpArray
from repro.core.procedure import Access
from repro.core.tdg import TDependencyGraph
from repro.errors import ExecutionError


def R(item):
    return Access(ord(item), write=False)


def W(item):
    return Access(ord(item), write=True)


def build(*txns):
    """build((id, [accesses]), ...)"""
    return TDependencyGraph.build(OpArray.from_accesses(txns))


class TestPaperExample:
    """Figure 1: T1: Ra Rb Wa Wb; T2: Ra; T3: Ra Rb; T4: Rc Wc Ra Wa."""

    def graph(self):
        return build(
            (1, [R("a"), R("b"), W("a"), W("b")]),
            (2, [R("a")]),
            (3, [R("a"), R("b")]),
            (4, [R("c"), W("c"), R("a"), W("a")]),
        )

    def test_edges_match_figure_1a(self):
        g = self.graph()
        assert g.succ[1] == {2, 3}
        assert g.succ[2] == {4}
        assert g.succ[3] == {4}
        # T1 and T4 conflict, but condition (c) suppresses the edge.
        assert 4 not in g.succ[1]
        assert g.conflicting(1, 4)

    def test_k_sets_match_figure_1b(self):
        k_sets = self.graph().k_sets()
        assert k_sets == {0: [1], 1: [2, 3], 2: [4]}

    def test_depth(self):
        assert self.graph().depth() == 2

    def test_sources(self):
        assert self.graph().sources() == [1]


class TestConstructionRules:
    def test_write_after_readers_edges_from_all_readers(self):
        g = build(
            (1, [W("x")]),
            (2, [R("x")]),
            (3, [R("x")]),
            (4, [W("x")]),
        )
        assert g.pred[4] == {2, 3}
        assert g.pred[2] == {1}
        assert g.pred[3] == {1}

    def test_write_after_write_single_edge(self):
        g = build((1, [W("x")]), (2, [W("x")]))
        assert g.succ[1] == {2}

    def test_read_after_distant_write(self):
        # Reads link to the latest writer even past intermediate reads.
        g = build((1, [W("x")]), (2, [R("x")]), (3, [R("x")]))
        assert g.pred[3] == {1}

    def test_reads_do_not_conflict(self):
        g = build((1, [R("x")]), (2, [R("x")]))
        assert not g.succ[1]
        assert not g.conflicting(1, 2)

    def test_disjoint_items_no_edges(self):
        g = build((1, [W("x")]), (2, [W("y")]))
        assert not g.succ[1]
        assert g.depth() == 0

    def test_out_of_order_insert_rejected(self):
        g = TDependencyGraph()
        g.add_transaction(5, {0: True})
        with pytest.raises(ExecutionError):
            g.add_transaction(5, {0: True})
        with pytest.raises(ExecutionError):
            g.add_transaction(3, {0: True})

    def test_empty_access_transaction_is_source(self):
        g = build((1, [W("x")]), (2, []))
        assert 2 in g.sources()


class TestProperties:
    """Properties 1 and 2 of Section 4.1 on a hand-built graph."""

    def graph(self):
        return build(
            (1, [W("a")]),
            (2, [W("b")]),
            (3, [R("a"), R("b")]),
            (4, [W("a"), W("c")]),
            (5, [R("c")]),
        )

    def test_property_1_same_kset_conflict_free(self):
        g = self.graph()
        for _depth, members in g.k_sets().items():
            for i, t1 in enumerate(members):
                for t2 in members[i + 1:]:
                    assert not g.conflicting(t1, t2)

    def test_property_2_has_conflicting_predecessor(self):
        g = self.graph()
        k_sets = g.k_sets()
        for depth, members in k_sets.items():
            if depth == 0:
                continue
            for txn in members:
                assert any(
                    g.conflicting(txn, prev) for prev in k_sets[depth - 1]
                )


class TestSubDagAndCrossPartition:
    def test_sub_dag_reaches_transitive_successors(self):
        g = build(
            (1, [W("x")]),
            (2, [R("x"), W("y")]),
            (3, [R("y")]),
            (4, [W("z")]),
        )
        assert g.sub_dag_from(1) == {1, 2, 3}
        assert g.sub_dag_from(4) == {4}
