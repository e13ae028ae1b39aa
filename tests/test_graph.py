import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsum.errors import ConfigError
from privsum.graph import (
    DirectedGraph,
    default_demo_graph,
    is_strongly_connected,
    max_out_degree,
    random_strongly_connected_graph,
)


def ring(n):
    return DirectedGraph.from_edge_list(n, [[(i + 1) % n, i] for i in range(n)])


def test_edge_convention():
    # (receiver, sender): 1 receives from 0
    g = DirectedGraph.from_edge_list(2, [[1, 0]])
    assert g.out_neighbors(0) == (1,)
    assert g.in_neighbors(1) == (0,)
    assert g.out_neighbors(1) == ()
    assert g.in_neighbors(0) == ()


def test_out_in_views_consistent():
    g = default_demo_graph()
    for j in g.nodes():
        for i in g.out_neighbors(j):
            assert j in g.in_neighbors(i)
    for i in g.nodes():
        for j in g.in_neighbors(i):
            assert i in g.out_neighbors(j)


def test_rejects_self_edges_and_bad_indices():
    with pytest.raises(ConfigError):
        DirectedGraph.from_edge_list(3, [[1, 1]])
    with pytest.raises(ConfigError):
        DirectedGraph.from_edge_list(3, [[0, 3]])


def test_strongly_connected_minimal_cases():
    both_ways = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    assert is_strongly_connected(both_ways)
    assert is_strongly_connected(ring(3))
    one_way = DirectedGraph.from_edge_list(2, [[1, 0]])
    assert not is_strongly_connected(one_way)


def test_max_out_degree_cases():
    assert max_out_degree(ring(5)) == 1
    complete3 = DirectedGraph.from_edge_list(
        3, [[i, j] for i in range(3) for j in range(3) if i != j]
    )
    assert max_out_degree(complete3) == 2
    # star: center 0 broadcasts to 4 leaves, each leaf answers back
    star = DirectedGraph.from_edge_list(
        5, [[leaf, 0] for leaf in range(1, 5)] + [[0, leaf] for leaf in range(1, 5)]
    )
    assert max_out_degree(star) == 4


def test_degree_sums_equal_edge_count():
    g = default_demo_graph()
    assert sum(g.out_degree(i) for i in g.nodes()) == g.n_edges
    assert sum(g.in_degree(i) for i in g.nodes()) == g.n_edges


def _oracle_strongly_connected(n, edges):
    """Brute force: repeated BFS over raw send arcs for every ordered pair."""
    succ = {u: [i for (i, j) in edges if j == u] for u in range(n)}
    for a in range(n):
        seen = {a}
        stack = [a]
        while stack:
            u = stack.pop()
            for v in succ[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=8))
def test_strong_connectivity_matches_bfs_oracle(data, n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    mask = data.draw(st.integers(min_value=0, max_value=2 ** len(pairs) - 1))
    edges = {p for bit, p in enumerate(pairs) if mask >> bit & 1}
    g = DirectedGraph(n, frozenset(edges))
    assert is_strongly_connected(g) == _oracle_strongly_connected(n, edges)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n", [3, 5, 8])
def test_random_graph_generator_is_strongly_connected(n, seed):
    g = random_strongly_connected_graph(n, np.random.default_rng(seed))
    assert is_strongly_connected(g)
    assert _oracle_strongly_connected(n, g.edges)


def test_edge_list_roundtrip():
    g = default_demo_graph()
    again = DirectedGraph.from_edge_list(g.n_nodes, g.edge_list())
    assert again.edges == g.edges


def test_demo_graph_structure():
    g = default_demo_graph()
    assert is_strongly_connected(g)
    assert g.in_neighbors(0) == (3,)
    assert g.out_neighbors(0) == (1, 4)
    assert max_out_degree(g) == 2


def test_random_graph_extra_edges_follow_one_draw_per_pair():
    """The extra arcs are the pairs whose uniform, drawn one per ordered
    pair in sender-major order, falls below the probability."""
    for n, seed in ((2, 1), (7, 2), (30, 3)):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected_graph(n, rng, 0.3)
        ref_rng = np.random.default_rng(seed)
        perm = ref_rng.permutation(n)
        expected = {(int(perm[(a + 1) % n]), int(perm[a])) for a in range(n)}
        for sender in range(n):
            for receiver in range(n):
                if sender != receiver and ref_rng.random() < 0.3:
                    expected.add((receiver, sender))
        assert g.edges == frozenset(expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
