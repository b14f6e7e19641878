"""Graph utilities: digraph, SCC, Johnson cycle enumeration."""

from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.johnson import simple_cycles
from repro.graph.scc import strongly_connected_components


def graph_from_edges(edges, nodes=()):
    g = DiGraph()
    for n in nodes:
        g.add_node(n)
    for a, b in edges:
        g.add_edge(a, b)
    return g


class TestDiGraph:
    def test_nodes_deduplicated(self):
        g = DiGraph()
        assert g.add_node("a") == g.add_node("a") == 0
        assert g.num_nodes == 1

    def test_edges_deduplicated(self):
        g = graph_from_edges([("a", "b"), ("a", "b")])
        assert g.num_edges == 1

    def test_successors(self):
        g = graph_from_edges([("a", "b"), ("a", "c")])
        assert set(g.successors("a")) == {"b", "c"}
        assert g.has_edge("a", "b") and not g.has_edge("b", "a")

    def test_edges_iteration(self):
        g = graph_from_edges([("a", "b"), ("b", "c")])
        assert set(g.edges()) == {("a", "b"), ("b", "c")}


class TestSCC:
    def test_two_sccs(self):
        g = graph_from_edges([(0, 1), (1, 0), (1, 2)])
        comps = {frozenset(c) for c in strongly_connected_components(g.adjacency())}
        assert comps == {frozenset({0, 1}), frozenset({2})}

    def test_allowed_restriction(self):
        g = graph_from_edges([(0, 1), (1, 0)])
        comps = strongly_connected_components(g.adjacency(), allowed={0})
        assert comps == [[0]]

    def test_long_chain_no_recursion_error(self):
        n = 5000
        g = graph_from_edges([(i, i + 1) for i in range(n)])
        comps = strongly_connected_components(g.adjacency())
        assert len(comps) == n + 1


def cycles_as_sets(g, **kw):
    return sorted(sorted(c) for c in simple_cycles(g, **kw))


class TestJohnson:
    def test_single_two_cycle(self):
        g = graph_from_edges([(0, 1), (1, 0)])
        assert cycles_as_sets(g) == [[0, 1]]

    def test_self_loop(self):
        g = graph_from_edges([(0, 0)])
        assert cycles_as_sets(g) == [[0]]

    def test_no_cycles_in_dag(self):
        g = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        assert cycles_as_sets(g) == []

    def test_complete_graph_k3(self):
        g = graph_from_edges([(a, b) for a in range(3) for b in range(3) if a != b])
        # K3 directed: 3 two-cycles + 2 three-cycles
        cycles = list(simple_cycles(g))
        assert len(cycles) == 5

    def test_complete_graph_k4_count(self):
        g = graph_from_edges([(a, b) for a in range(4) for b in range(4) if a != b])
        # directed K4: 6 + 8 + 6 = 20 elementary circuits
        assert len(list(simple_cycles(g))) == 20

    def test_max_length_prunes(self):
        g = graph_from_edges([(a, b) for a in range(4) for b in range(4) if a != b])
        assert all(len(c) <= 2 for c in simple_cycles(g, max_length=2))
        assert len(list(simple_cycles(g, max_length=2))) == 6

    def test_max_cycles_caps(self):
        g = graph_from_edges([(a, b) for a in range(4) for b in range(4) if a != b])
        assert len(list(simple_cycles(g, max_cycles=3))) == 3

    def test_two_disjoint_cycles(self):
        g = graph_from_edges([(0, 1), (1, 0), (2, 3), (3, 2)])
        assert cycles_as_sets(g) == [[0, 1], [2, 3]]

    def test_figure_eight(self):
        g = graph_from_edges([(0, 1), (1, 0), (1, 2), (2, 1)])
        assert cycles_as_sets(g) == [[0, 1], [1, 2]]

    def test_canonical_start_at_min(self):
        g = graph_from_edges([(2, 1), (1, 2)])
        for cycle in simple_cycles(g):
            assert cycle[0] == min(cycle)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 6),
        edges=st.sets(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=18
        ),
    )
    def test_matches_networkx(self, n, edges):
        """Cross-check cycle enumeration against networkx."""
        import networkx as nx

        g = graph_from_edges([(a, b) for a, b in edges if a != b and a < n and b < n],
                             nodes=range(n))
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from((a, b) for a, b in edges if a != b and a < n and b < n)
        ours = {frozenset(c) if len(set(c)) == len(c) else tuple(c)
                for c in simple_cycles(g)}
        ours_seq = sorted(tuple(c) for c in simple_cycles(g))
        theirs = sorted(
            tuple(c[c.index(min(c)):] + c[: c.index(min(c))])
            for c in nx.simple_cycles(nxg)
        )
        assert ours_seq == theirs


class TestBoundedFastPathRegression:
    """Pin the ``max_length <= 2`` fast path against the general search.

    The fast path (:func:`repro.graph.johnson._short_cycles`) replaces
    the repeated-SCC Johnson search on the SPDOffline ``max_size=2``
    hot path; this differential guards it — list *and order* — before
    the planned unbounded-enumeration rework (ROADMAP) touches the
    general search.
    """

    @staticmethod
    def _random_graph(rng, n, p):
        return graph_from_edges(
            [(a, b) for a in range(n) for b in range(n)
             if a != b and rng.random() < p]
            + [(a, a) for a in range(n) if rng.random() < p / 4],
            nodes=range(n),
        )

    def test_random_digraphs_match_general_search(self):
        import random

        rng = random.Random(2024)
        checked = 0
        for _ in range(150):
            n = rng.randint(2, 10)
            g = self._random_graph(rng, n, rng.choice([0.1, 0.25, 0.4]))
            general = [tuple(c) for c in simple_cycles(g) if len(c) <= 2]
            fast = [tuple(c) for c in simple_cycles(g, max_length=2)]
            assert fast == general
            checked += len(fast)
        assert checked > 50, "vacuous sweep: almost no short cycles generated"

    def test_random_digraphs_max_cycles_prefix(self):
        import random

        rng = random.Random(7)
        for _ in range(40):
            g = self._random_graph(rng, rng.randint(3, 8), 0.4)
            full = [tuple(c) for c in simple_cycles(g, max_length=2)]
            for cap in (1, 2, 5):
                capped = [tuple(c) for c in
                          simple_cycles(g, max_length=2, max_cycles=cap)]
                assert capped == full[:cap]

    def test_random_abstract_lock_graphs(self):
        """Same differential on real ALGs from random traces."""
        from repro.core.alg import _build_alg_edges
        from repro.locks.abstract import collect_abstract_acquire_ids
        from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
        from repro.trace.trace import as_trace

        short_total = 0
        for seed in range(40):
            trace = generate_random_trace(RandomTraceConfig(
                num_threads=2 + seed % 4, num_locks=2 + seed % 5,
                num_events=60 + (seed % 3) * 40, max_nesting=2 + seed % 3,
                acquire_prob=0.4, release_prob=0.25,
                release_any_prob=0.4 if seed % 2 else 0.0, seed=1000 + seed))
            graph = _build_alg_edges(collect_abstract_acquire_ids(as_trace(trace)))
            general = [tuple(c) for c in simple_cycles(graph) if len(c) <= 2]
            fast = [tuple(c) for c in simple_cycles(graph, max_length=2)]
            assert fast == general
            short_total += len(fast)
        assert short_total > 0, "vacuous sweep: no ALG ever had a short cycle"


class TestCycleOrderRegression:
    """Pin the canonical enumeration order.

    The interned sorted-successor arrays (``DiGraph.sorted_adjacency``)
    must preserve the exact order the per-frame ``sorted(adj & allowed)``
    of the textbook search produced: cycles start at their minimum
    node, start nodes ascend, and within a start the search explores
    successors in ascending index order.  Downstream consumers
    (abstract-pattern ids, report ordering, ``max_cycles`` prefixes)
    all depend on this order being stable.
    """

    def test_k4_exact_order(self):
        g = DiGraph()
        for a in range(4):
            for b in range(4):
                if a != b:
                    g.add_edge(a, b)
        assert [tuple(c) for c in simple_cycles(g)] == [
            (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 3), (0, 1, 3, 2),
            (0, 2), (0, 2, 1), (0, 2, 1, 3), (0, 2, 3), (0, 2, 3, 1),
            (0, 3), (0, 3, 1), (0, 3, 1, 2), (0, 3, 2), (0, 3, 2, 1),
            (1, 2), (1, 2, 3), (1, 3), (1, 3, 2),
            (2, 3),
        ]

    def test_figure_eight_order(self):
        # Nodes intern in edge order: 1->0, 0->1, 2->2, 3->3.
        g = graph_from_edges([(1, 0), (0, 1), (0, 2), (2, 0), (3, 0)])
        assert [tuple(c) for c in simple_cycles(g)] == [(0, 1), (1, 2)]

    def test_mutation_invalidates_interned_order(self):
        # Enumerate, then add an edge that creates an earlier cycle:
        # the re-sorted arrays must reflect it (stale interning would
        # either miss the new cycle or break the canonical order).
        g = graph_from_edges([(0, 2), (2, 0)])   # interns 0->0, 2->1
        assert [tuple(c) for c in simple_cycles(g)] == [(0, 1)]
        g.add_edge(0, 1)                          # interns 1->2
        g.add_edge(1, 0)
        assert [tuple(c) for c in simple_cycles(g)] == [(0, 1), (0, 2)]
        assert [tuple(c) for c in simple_cycles(g, max_length=2)] == [
            (0, 1), (0, 2)]

    def test_bounded_and_general_agree_on_order(self):
        g = graph_from_edges(
            [(0, 1), (1, 0), (0, 0), (1, 2), (2, 1), (2, 2), (3, 1),
             (1, 3), (3, 3)])
        general = [tuple(c) for c in simple_cycles(g) if len(c) <= 2]
        fast = [tuple(c) for c in simple_cycles(g, max_length=2)]
        assert fast == general == [
            (0,), (0, 1), (1, 2), (1, 3), (2,), (3,)]
