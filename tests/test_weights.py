import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsum import consensus as consensus_module
from privsum import weights as weights_module
from privsum.errors import ConfigError, InvalidEpsilon
from privsum.consensus import algorithm1_weights
from privsum.graph import DirectedGraph, random_strongly_connected_graph
from privsum.weights import (
    WeightParams,
    generate_round_weights,
    node_rng,
    phase_b_map,
)
from reference_pushsum import (
    RoundWeights,
    own_block,
    round_weights,
    simplex_sample,
    validate_round_weights,
)


def _own_draw(node, others, params, rng, first_round, n_rounds):
    """A node's ``(s_rows, w_rows)`` for ``n_rounds`` rounds from
    ``first_round`` on, drawn as a class of one into its own block;
    ``others`` are its out-neighbors ascending."""
    block = own_block(node, len(others) + 1, params, rng, first_round, n_rounds)
    return block[:, 0], block[:, 1]


def test_phase_b_map_direct_evaluations():
    np.testing.assert_allclose(phase_b_map([1.0, 0.0], 0.2), [0.8, 0.2], atol=1e-15)
    np.testing.assert_allclose(
        phase_b_map([0.0, 0.0, 1.0], 0.25), [0.25, 0.25, 0.5], atol=1e-15
    )
    third = [1 / 3, 1 / 3, 1 / 3]
    np.testing.assert_allclose(phase_b_map(third, 0.1), third, atol=1e-15)
    # symmetric midpoint with one out-neighbor
    np.testing.assert_allclose(phase_b_map([0.5, 0.5], 0.25), [0.5, 0.5], atol=1e-15)


def test_phase_b_map_rejects_infeasible_epsilon():
    with pytest.raises(InvalidEpsilon):
        phase_b_map([0.5, 0.5], 0.5)
    with pytest.raises(InvalidEpsilon):
        phase_b_map([0.25] * 4, 0.3)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=6),
    eps_frac=st.floats(min_value=0.01, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_phase_b_map_properties(m, eps_frac, seed):
    eps = eps_frac / m
    d = simplex_sample(np.random.default_rng(seed), m)
    out = phase_b_map(d, eps)
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out > eps)
    assert np.all(out < 1.0) or m == 1


def test_masking_round_weights_are_identity_on_w():
    params = WeightParams(big_k=1, epsilon=0.1)
    rng = node_rng(0, 0)
    rw = round_weights(0, 0, [1, 2], params, rng)
    assert rw.w_weights == {0: 1.0, 1: 0.0, 2: 0.0}
    assert sum(rw.s_weights.values()) == pytest.approx(1.0, abs=1e-12)
    validate_round_weights(rw, params)


def test_mixing_round_weights_shared_and_bounded():
    params = WeightParams(big_k=1, epsilon=0.25)
    rng = node_rng(3, 1)
    rw = round_weights(1, 5, [4], params, rng)
    assert rw.s_weights == rw.w_weights
    for v in rw.s_weights.values():
        assert 0.25 < v < 0.75
    assert sum(rw.s_weights.values()) == pytest.approx(1.0, abs=1e-12)
    validate_round_weights(rw, params)


def test_generate_rejects_infeasible_epsilon():
    params = WeightParams(big_k=0, epsilon=0.4)
    with pytest.raises(InvalidEpsilon):
        _own_draw(0, [1, 2], params, node_rng(0, 0), 1, 1)


def test_weight_stream_deterministic_per_seed():
    params = WeightParams(big_k=2, epsilon=0.05)
    a = [
        round_weights(1, k, [0, 2], params, node_rng(9, 1)).s_weights
        for k in range(1)
    ]
    for _ in range(3):
        b = [
            round_weights(1, k, [0, 2], params, node_rng(9, 1)).s_weights
            for k in range(1)
        ]
        assert a == b
    # different node id gives a different stream
    c = round_weights(1, 0, [0, 2], params, node_rng(9, 2)).s_weights
    assert c != a[0]


@settings(max_examples=150, deadline=None)
@given(
    round_k=st.integers(min_value=0, max_value=8),
    big_k=st.integers(min_value=0, max_value=6),
    n_out=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_weights_invariants(round_k, big_k, n_out, seed):
    params = WeightParams(big_k=big_k, epsilon=0.9 / (n_out + 1))
    out = list(range(1, n_out + 1))
    rw = round_weights(0, round_k, out, params, node_rng(seed, 0))
    validate_round_weights(rw, params)
    assert rw.round == round_k
    assert set(rw.s_weights) == set(out) | {0}


def test_column_stochastic_assembly_all_rounds(demo_graph):
    params = WeightParams(big_k=2, epsilon=0.05)
    table = algorithm1_weights(demo_graph, params, 17, 6)
    eye = np.eye(demo_graph.n_nodes)
    for k in range(6):
        p_s = table.matrix(k, "s")
        p_w = table.matrix(k, "w")
        np.testing.assert_allclose(p_s.sum(axis=0), 1.0, atol=1e-12, rtol=0.0)
        np.testing.assert_allclose(p_w.sum(axis=0), 1.0, atol=1e-12, rtol=0.0)
        if k <= params.big_k:
            assert np.array_equal(p_w, eye)
        else:
            assert np.array_equal(p_s, p_w)
            support = p_s != 0.0
            assert np.all((p_s[support] > params.epsilon) & (p_s[support] < 1.0))


def test_params_validation():
    with pytest.raises(ConfigError):
        WeightParams(big_k=-1, epsilon=0.1)
    with pytest.raises(ConfigError):
        WeightParams(big_k=0, epsilon=1.5)
    with pytest.raises(ConfigError):
        WeightParams(big_k=0, epsilon=0.1, phase_a_range=0.0)


def test_round_weights_targets_order():
    rw = RoundWeights(2, 0, {2: 0.5, 0: 0.25, 4: 0.25}, {2: 1.0, 0: 0.0, 4: 0.0})
    assert rw.targets == [0, 4, 2]


def _reference_round(node, round_k, others, params, rng):
    """One round drawn the way the protocol defines it, round by round:
    uniform draws for the masking phase, sorted-uniform simplex gaps for the
    mixing phase, and a self-weight of 1 minus the sequential sum of the
    others."""
    targets = others + [node]
    m = len(targets)
    if params.is_masking_round(round_k):
        b = params.phase_a_range
        vals = rng.uniform(-b, b, size=m)
        vals += (1.0 - vals.sum()) / m
    else:
        vals = phase_b_map(simplex_sample(rng, m), params.epsilon)
    s = dict(zip(targets, vals.tolist()))
    total = 0.0
    for t in others:
        total += s[t]
    s[node] = 1.0 - total
    return [s[t] for t in targets]


@pytest.mark.parametrize("big_k", [0, 1, 3])
@pytest.mark.parametrize("out_degree", [*range(7), 12])
def test_batched_draw_matches_successive_rounds(out_degree, big_k):
    """One batched draw per node equals the node's round-by-round draws bit
    for bit and leaves its generator in the same state, for run lengths
    below, at and past the end of the masking phase (round K + 1)."""
    params = WeightParams(big_k=big_k, epsilon=0.9 / (out_degree + 1), phase_a_range=7.5)
    node = 3
    others = [t for t in range(out_degree + 2) if t != node][:out_degree]
    for n_rounds in sorted({1, max(big_k, 1), big_k + 1, big_k + 2, big_k + 6}):
        seed = 100 * out_degree + 10 * big_k + n_rounds
        batched_rng = node_rng(seed, node)
        rows, w_rows = _own_draw(node, others, params, batched_rng, 0, n_rounds)

        successive_rng = node_rng(seed, node)
        successive = []
        for k in range(n_rounds):
            rw = round_weights(node, k, others, params, successive_rng)
            successive.append([rw.s_weights[t] for t in rw.targets])
        reference_rng = node_rng(seed, node)
        reference = [
            _reference_round(node, k, others, params, reference_rng)
            for k in range(n_rounds)
        ]

        assert rows.shape == (n_rounds, out_degree + 1)
        assert rows.tobytes() == np.array(successive).tobytes()
        assert rows.tobytes() == np.array(reference).tobytes()
        for k, (s_row, w_row) in enumerate(zip(rows, w_rows)):
            if params.is_masking_round(k):
                assert w_row.tolist() == [0.0] * out_degree + [1.0]
            else:
                assert w_row.tobytes() == s_row.tobytes()
        state = batched_rng.bit_generator.state
        assert state == successive_rng.bit_generator.state
        assert state == reference_rng.bit_generator.state


def test_batched_draw_continues_the_stream_mid_run():
    """A class drawn as a head block that ends inside the masking phase and
    a tail block from the next round on fills, bit for bit, the rows one
    whole draw fills, and leaves each node's generator where the whole draw
    leaves it; each node's rows are its own draw as a class of one."""
    params = WeightParams(big_k=3, epsilon=0.1)
    nodes = [2, 5, 7]
    whole_rngs = {i: node_rng(8, i) for i in nodes}
    whole = np.full((9, 3, 4), np.nan)
    generate_round_weights(whole_rngs.items(), params, 0, whole)
    rngs = {i: node_rng(8, i) for i in nodes}
    head, tail = np.full((2, 3, 4), np.nan), np.full((7, 3, 4), np.nan)
    generate_round_weights(rngs.items(), params, 0, head)
    generate_round_weights(rngs.items(), params, 2, tail)

    assert not np.isnan(whole).any()
    assert np.concatenate((head, tail)).tobytes() == whole.tobytes()
    for r, i in enumerate(nodes):
        assert rngs[i].bit_generator.state == whole_rngs[i].bit_generator.state
        own = _own_draw(i, [0, 1, 3], params, node_rng(8, i), 0, 9)
        assert whole[:, r].tobytes() == own[0].tobytes(), i


def _graph_of_out_degrees(degrees, rng):
    """A strongly connected graph on len(degrees) nodes: the ring i -> i + 1
    plus random extra targets, so node i has out-degree degrees[i]."""
    n = len(degrees)
    edges = []
    for i, d in enumerate(degrees):
        ring = (i + 1) % n
        others = [t for t in range(n) if t not in (i, ring)]
        extra = rng.choice(others, size=d - 1, replace=False).tolist()
        edges += [(t, i) for t in [ring, *extra]]
    return DirectedGraph.from_edge_list(n, edges)


def _degree_spread_graph():
    rng = np.random.default_rng(61)
    degrees = rng.permutation(np.resize(np.arange(1, 14), 60))
    return _graph_of_out_degrees(degrees.tolist(), rng)


@pytest.mark.parametrize("big_k", [0, 1, 3])
@pytest.mark.parametrize("graph_name", ["degrees-1-to-13", "single-node"])
def test_table_holds_each_nodes_own_draw(graph_name, big_k, monkeypatch):
    """The table drawn one out-degree class at a time holds, in every
    node's columns, the rows the node draws for itself, bit for bit, and
    leaves every node's generator where that one draw leaves it.  Rows of 8
    or more weights take numpy's unrolled pairwise sums.  The placement
    gathers three rounds at a time, so on 40 rounds with K = 3 one gather
    crosses round boundaries inside the masking rounds, one spans the
    phases' border and the rest cross boundaries inside the mixing rounds."""
    if graph_name == "single-node":
        graph = DirectedGraph.from_edge_list(1, [])
    else:
        graph = _degree_spread_graph()
        assert {graph.out_degree(i) for i in graph.nodes()} == set(range(1, 14))
    params = WeightParams(big_k=big_k, epsilon=0.05, phase_a_range=7.5)
    created = {}

    def recorded_rng(seed, node):
        created[node] = node_rng(seed, node)
        return created[node]

    monkeypatch.setattr(consensus_module, "node_rng", recorded_rng)
    width = graph.n_edges + graph.n_nodes
    monkeypatch.setattr(weights_module, "GATHER_BLOCK", 3 * width)
    for rounds in sorted({1, big_k + 1, big_k + 2, 40}):
        seed = 1000 * big_k + rounds
        created.clear()
        table = algorithm1_weights(graph, params, seed, rounds)
        layout = table.layout
        assert table.table.shape == (rounds, 2, layout.n_edges + graph.n_nodes)
        assert sorted(created) == list(graph.nodes())
        for i in graph.nodes():
            rng = node_rng(seed, i)
            s_rows, w_rows = _own_draw(i, graph.out_neighbors(i), params, rng, 0, rounds)
            cols = layout.columns(i)
            assert table.s[:, cols].tobytes() == s_rows.tobytes(), (i, rounds)
            assert table.w[:, cols].tobytes() == w_rows.tobytes(), (i, rounds)
            assert created[i].bit_generator.state == rng.bit_generator.state


def test_table_draw_names_the_node_with_an_infeasible_epsilon():
    """An epsilon feasible for every node but one high-degree node fails
    in the draw itself, naming that node, also without config validation."""
    degrees = [2] * 20
    degrees[7] = 12
    graph = _graph_of_out_degrees(degrees, np.random.default_rng(62))
    # 1/3 > 0.08 >= 1/13: feasible for 3 weights, not for 13.
    params = WeightParams(big_k=1, epsilon=0.08)
    with pytest.raises(InvalidEpsilon, match="for node 7;"):
        algorithm1_weights(graph, params, 3, 10)


def test_draw_allocates_nothing_table_sized_but_the_table():
    """On a 500-node, 150-round graph the whole draw, the graph's layout
    included, peaks under tracemalloc within 1.25 times the table: the
    classes are drawn into the table's own w half and placed a small block
    at a time, where one more table-sized buffer would pass 1.5 times."""
    graph = random_strongly_connected_graph(500, np.random.default_rng(311), 0.01)
    params = WeightParams(big_k=1, epsilon=0.01)
    tracemalloc.start()
    try:
        table = algorithm1_weights(graph, params, 311, 150).table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes, peak / table.nbytes


def test_layout_and_class_plan_are_built_once_per_graph(demo_graph):
    """Every draw on one graph object shares its layout, its out-degree
    classes and its gather order."""
    params = WeightParams(big_k=1, epsilon=0.05)
    first = algorithm1_weights(demo_graph, params, 1, 4).layout
    second = algorithm1_weights(demo_graph, params, 2, 4).layout
    assert first is second is demo_graph.layout
    assert first.draw_order is second.draw_order
    assert [(nodes.tolist(), m, span) for nodes, m, span in first.draw_classes] == [
        ([0, 2, 3], 3, slice(0, 9)), ([1, 4], 2, slice(9, 13))
    ]
    # Node 0's columns are edges 0 and 1, then self column 8; they come
    # first in the drawn row, node 2's (edges 3, 4, self 10) after them.
    assert first.draw_order.tolist()[:2] == [0, 1]
    assert first.draw_order[8] == 2


def test_a_graph_and_its_layout_need_no_cycle_collector():
    """The layout a graph keeps does not refer back to the graph, so a graph
    whose last run is dropped is freed at once, not left for the cyclic
    garbage collector as attack trials on fresh configs would leave it."""
    graph = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    algorithm1_weights(graph, WeightParams(big_k=1, epsilon=0.05), 1, 4)
    freed = weakref.ref(graph)
    gc.disable()
    try:
        del graph
        assert freed() is None
    finally:
        gc.enable()
