import random
import tracemalloc

import numpy as np
import pytest

from privsum import consensus
from privsum.adversary import build_indistinguishability_witness, replay_with_witness
from privsum.consensus import (
    WeightTable,
    default_pushsum_matrix,
    fold_shares,
    matrix_weights,
    run_algorithm0,
    run_algorithm1,
    run_rounds,
)
from privsum.errors import ConfigError, DivisionByZero, MagnitudeOverflow, NotStronglyConnected
from privsum.graph import DirectedGraph, max_in_degree, random_strongly_connected_graph
from privsum.paillier import FixedPointCodec, decrypt
from privsum.sim import NodeKeys, PaillierChannel, node_keys
from privsum.weights import WeightParams, node_rng
from reference_pushsum import (
    MissingShare,
    RoundWeights,
    RoundMismatch,
    ShareMessage,
    apply_round,
    initial_state,
    outgoing_shares,
    round_weights,
)


def ring(n):
    return DirectedGraph.from_edge_list(n, [[(i + 1) % n, i] for i in range(n)])


def test_outgoing_shares_even_split():
    state = initial_state(0, 2.0)
    weights = RoundWeights(0, 0, {0: 0.5, 1: 0.5}, {0: 1.0, 1: 0.0})
    msgs, retained = outgoing_shares(state, weights)
    assert len(msgs) == 1
    assert msgs[0].s_share == 1.0
    assert retained[0] == 1.0


def test_outgoing_shares_masking_round_w_is_zero():
    state = initial_state(0, 5.0)
    weights = RoundWeights(0, 0, {0: 0.3, 1: 0.7}, {0: 1.0, 1: 0.0})
    msgs, retained = outgoing_shares(state, weights)
    assert msgs[0].w_share == 0.0
    assert retained[1] == 1.0


def test_outgoing_shares_negative_masking_weights():
    state = initial_state(0, 10.0)
    weights = RoundWeights(0, 0, {0: -0.5, 1: 1.5}, {0: 1.0, 1: 0.0})
    msgs, retained = outgoing_shares(state, weights)
    assert msgs[0].s_share == 15.0
    assert retained[0] == -5.0


def test_outgoing_shares_sum_back_to_state():
    state = initial_state(2, 7.25)
    weights = RoundWeights(2, 0, {2: 0.2, 0: 0.5, 4: 0.3}, {2: 1.0, 0: 0.0, 4: 0.0})
    msgs, retained = outgoing_shares(state, weights)
    assert retained[0] + sum(m.s_share for m in msgs) == pytest.approx(7.25, abs=1e-12)
    assert retained[1] + sum(m.w_share for m in msgs) == pytest.approx(1.0, abs=1e-12)


def test_outgoing_shares_round_mismatch():
    state = initial_state(0, 1.0)
    weights = RoundWeights(0, 3, {0: 1.0}, {0: 1.0})
    with pytest.raises(RoundMismatch):
        outgoing_shares(state, weights)
    wrong_node = RoundWeights(1, 0, {1: 1.0}, {1: 1.0})
    with pytest.raises(RoundMismatch):
        outgoing_shares(state, wrong_node)


def test_apply_round_two_node_symmetric_average():
    # complete 2-node graph, all weights 0.5: average reached in one round
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    states = [initial_state(0, 0.0), initial_state(1, 2.0)]
    weights = [
        RoundWeights(0, 0, {0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}),
        RoundWeights(1, 0, {1: 0.5, 0: 0.5}, {1: 0.5, 0: 0.5}),
    ]
    outs = [outgoing_shares(states[i], weights[i]) for i in range(2)]
    new = [
        apply_round(states[i], [outs[1 - i][0][0]], outs[i][1], g.in_neighbors(i))
        for i in range(2)
    ]
    assert [st.s for st in new] == [1.0, 1.0]
    assert [st.w for st in new] == [1.0, 1.0]
    assert [st.pi for st in new] == [1.0, 1.0]
    assert all(st.round == 1 for st in new)


def test_apply_round_missing_and_duplicate_shares():
    state = initial_state(0, 1.0)
    retained = (0.5, 1.0)
    msg = ShareMessage(sender=1, receiver=0, round=0, s_share=0.5, w_share=0.0)
    with pytest.raises(MissingShare):
        apply_round(state, [], retained, in_neighbors=[1])
    with pytest.raises(MissingShare):
        apply_round(state, [msg, msg], retained, in_neighbors=[1])
    stranger = ShareMessage(sender=2, receiver=0, round=0, s_share=0.1, w_share=0.0)
    with pytest.raises(MissingShare):
        apply_round(state, [msg, stranger], retained, in_neighbors=[1])


def test_apply_round_round_mismatch_and_zero_weight():
    state = initial_state(0, 1.0)
    late = ShareMessage(sender=1, receiver=0, round=5, s_share=0.5, w_share=0.5)
    with pytest.raises(RoundMismatch):
        apply_round(state, [late], (0.5, 0.5), in_neighbors=[1])
    killer = ShareMessage(sender=1, receiver=0, round=0, s_share=0.5, w_share=-1.0)
    with pytest.raises(DivisionByZero):
        apply_round(state, [killer], (0.5, 1.0), in_neighbors=[1])


def test_masking_phase_keeps_w_at_one(demo_graph, demo_x0):
    params = WeightParams(big_k=3, epsilon=0.01)
    rec = run_algorithm1(demo_graph, demo_x0, params, seed=2, rounds=12)
    w = rec.trajectory.w
    assert np.all(w[: params.big_k + 2] == 1.0)
    assert not np.all(w[params.big_k + 2] == 1.0)


def test_three_node_ring_converges_to_mean():
    g = ring(3)
    x0 = [3.0, -1.0, 10.0]
    params = WeightParams(big_k=1, epsilon=0.2)
    rec = run_algorithm1(g, x0, params, seed=42, rounds=200)
    target = np.mean(x0)
    np.testing.assert_allclose(rec.final_pi(), target, rtol=0.0, atol=1e-9)


def test_algorithm0_constant_input_is_fixed_point(demo_graph):
    rec = run_algorithm0(demo_graph, [4.2] * 5, rounds=40)
    pi = rec.trajectory.pi
    np.testing.assert_allclose(pi, 4.2, rtol=0.0, atol=1e-12)


def test_algorithm0_converges_to_average(demo_graph, demo_x0):
    rec = run_algorithm0(demo_graph, demo_x0, rounds=200)
    np.testing.assert_allclose(rec.final_pi(), 20.0, rtol=0.0, atol=1e-9)


def test_algorithm0_mass_conservation(demo_graph, demo_x0):
    rec = run_algorithm0(demo_graph, demo_x0, rounds=60)
    totals = rec.trajectory.s.sum(axis=1)
    np.testing.assert_allclose(totals, sum(demo_x0), rtol=1e-9)


def test_algorithm1_mass_conservation(demo_graph, demo_x0):
    params = WeightParams(big_k=4, epsilon=0.01)
    rec = run_algorithm1(demo_graph, demo_x0, params, seed=3, rounds=60)
    totals = rec.trajectory.s.sum(axis=1)
    np.testing.assert_allclose(totals, sum(demo_x0), rtol=1e-9)


def test_algorithm0_refuses_weak_graph():
    g = DirectedGraph.from_edge_list(2, [[1, 0]])
    with pytest.raises(NotStronglyConnected):
        run_algorithm0(g, [1.0, 2.0], rounds=5)


def test_default_matrix_matches_out_degrees(demo_graph):
    p = default_pushsum_matrix(demo_graph)
    for j in demo_graph.nodes():
        expected = 1.0 / (demo_graph.out_degree(j) + 1)
        assert p[j, j] == expected
        for i in demo_graph.out_neighbors(j):
            assert p[i, j] == expected
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12, rtol=0.0)


def test_run_rounds_reports_a_zero_weight_sum():
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    s = np.full((3, 4), 0.5)
    w = np.array([[0.5, 0.5, 0.5, 0.5], [0.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]])
    with pytest.raises(DivisionByZero, match="node 0: weight sum hit zero at round 1"):
        run_rounds(WeightTable(g, np.stack((s, w), axis=1)), [1.0, 3.0])


def _left_fold(stack):
    """Each column of a ``(slots, 2, c)`` stack summed slot by slot in
    Python floats, from the first slot on."""
    out = np.empty(stack.shape[1:])
    for side in range(stack.shape[1]):
        for col in range(stack.shape[2]):
            total = float(stack[0, side, col])
            for value in stack[1:, side, col].tolist():
                total += value
            out[side, col] = total
    return out


def test_fold_shares_is_a_left_fold_that_keeps_zero_signs():
    rng = np.random.default_rng(18)
    # one column of -0.0 terms, as a node whose every share is -0.0 folds it
    stack = np.full((4, 2, 1), -0.0)
    assert fold_shares(stack).tobytes() == _left_fold(stack).tobytes()
    assert np.signbit(fold_shares(stack)).all()
    for _ in range(400):
        slots, cols = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        stack = rng.standard_normal((slots, 2, cols)) * 10.0 ** rng.integers(
            -5, 6, size=(slots, 2, cols)
        )
        zeros = rng.random(stack.shape) < 0.5
        stack[zeros] = np.where(rng.random(stack.shape) < 0.5, 0.0, -0.0)[zeros]
        want = _left_fold(stack).tobytes()
        assert fold_shares(stack).tobytes() == want
        out = np.empty((2, cols))
        assert fold_shares(stack, out=out) is out and out.tobytes() == want


def test_engine_apply_round_folds_the_kept_share_then_the_received_ones():
    """``consensus.apply_round`` is ``fold_shares`` of the kept share and
    then the received shares, bit for bit; -0.0 pad slots change no bit; a
    zero weight sum names the column's node and the round."""
    rng = np.random.default_rng(32)
    for _ in range(200):
        slots, cols = int(rng.integers(0, 6)), int(rng.integers(1, 5))
        stack = rng.standard_normal((slots + 1, 2, cols))
        # signed zeros on the s side only, so no weight sum is 0
        zeros = rng.random((slots + 1, cols)) < 0.5
        stack[:, 0][zeros] = np.where(rng.random(zeros.shape) < 0.5, 0.0, -0.0)[zeros]
        kept, received = stack[0], stack[1:]
        want = fold_shares(stack).tobytes()
        assert consensus.apply_round(kept, received, 3, range(cols)).tobytes() == want
        padded = np.concatenate((received, np.full((2, 2, cols), -0.0)))
        assert consensus.apply_round(kept, padded, 3, range(cols)).tobytes() == want
    # a column of -0.0 s-shares stays -0.0 under the pad
    kept = np.array([[-0.0], [1.0]])
    got = consensus.apply_round(kept, np.full((3, 2, 1), -0.0), 0, [0])
    assert np.signbit(got[0, 0]) and got[1, 0] == 1.0
    kept = np.array([[1.0, 2.0], [0.5, -0.25]])
    received = np.array([[[0.5, 0.5], [0.25, 0.25]]])
    with pytest.raises(DivisionByZero, match="node 7: weight sum hit zero at round 4"):
        consensus.apply_round(kept, received, 4, (6, 7))


def test_apply_round_refuses_a_state_that_is_not_finite():
    kept = np.array([[1e308], [0.5]])
    received = np.array([[[1e308], [0.5]]])
    # the named error alone: no numpy overflow warning comes before it
    with pytest.raises(
        MagnitudeOverflow, match=r"node 3: state \(s, w\) = \(inf, 1\.0\) is not finite at round 5"
    ):
        consensus.apply_round(kept, received, 5, (3,))


def _random_support_matrix(graph, rng):
    """A column-stochastic matrix with random positive weights on the
    graph's edges and diagonal."""
    p = np.zeros((graph.n_nodes, graph.n_nodes))
    for j in graph.nodes():
        targets = list(graph.out_neighbors(j)) + [j]
        p[targets, j] = rng.uniform(0.1, 1.0, size=len(targets))
    return p / p.sum(axis=0)


@pytest.mark.parametrize("graph_index", [0, 1], ids=["demo", "random50"])
def test_weight_table_matrix_scatters_back_the_fixed_matrix(graph_index):
    graph = _parity_graphs()[graph_index][0]
    if graph_index == 0:
        p = default_pushsum_matrix(graph)
    else:
        p = _random_support_matrix(graph, np.random.default_rng(51))
    table = matrix_weights(graph, p, 3)
    for k in range(3):
        for side in ("s", "w"):
            assert table.matrix(k, side).tobytes() == p.tobytes(), (k, side)
    with pytest.raises(ConfigError):
        table.matrix(0, "x")


def _message_passing(graph, x0, weight_source, rounds, channel=None):
    """Reference run built from the message-passing functions of
    ``reference_pushsum``: every node sends through ``outgoing_shares``,
    every node folds its inbox with ``apply_round``; shares travel sender by
    sender, receiver by receiver, in the clear or, with a channel, through
    one-link ``transmit`` calls whose ciphertext values are kept.  Under a
    channel each link delivers its ciphertext decrypted alone and unpacked
    with ``decode_sum`` of one pair, and each receiver folds what one ``receive`` call
    over its in-links returns: their sum in its lowest sender's message,
    -0.0 in the others."""
    states = [initial_state(i, x0[i]) for i in graph.nodes()]
    out = {"states": [states], "weights": [], "retained": [], "delivered": [], "wire": []}
    for k in range(rounds):
        weights = {i: weight_source(i, k) for i in graph.nodes()}
        inboxes = {i: [] for i in graph.nodes()}
        kept, delivered, wire = {}, [], []
        for i in graph.nodes():
            msgs, kept[i] = outgoing_shares(states[i], weights[i])
            for msg in msgs:
                if channel is not None:
                    link = ([msg.sender], [msg.receiver])
                    (sent,) = channel.transmit(*link, k, np.array([[msg.s_share], [msg.w_share]]))
                    wire.append(sent)
                    keypair = channel.keys[msg.receiver].keypair
                    codec = FixedPointCodec(
                        keypair.public.n, channel.fractional_bits, channel.fan_in
                    )
                    pair = codec.decode_sum(decrypt(keypair, sent), 1)
                    msg = ShareMessage(msg.sender, msg.receiver, msg.round, *pair)
                delivered.append(msg)
                inboxes[msg.receiver].append(msg)
        if channel is not None:
            for i, inbox in inboxes.items():
                senders = [m.sender for m in inbox]
                ciphers = [c for c, m in zip(wire, delivered) if m.receiver == i]
                summed = channel.receive(senders, [i] * len(inbox), k, ciphers)
                inboxes[i] = [
                    ShareMessage(m.sender, i, k, s_share, w_share)
                    for m, (s_share, w_share) in zip(inbox, summed.T.tolist())
                ]
            wire = [c.value for c in wire]
        states = [
            apply_round(states[i], inboxes[i], kept[i], graph.in_neighbors(i))
            for i in graph.nodes()
        ]
        for key, value in (("states", states), ("weights", weights), ("retained", kept),
                           ("delivered", delivered), ("wire", wire)):
            out[key].append(value)
    return out


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _assert_same_run(record, ref):
    """The array engine's record equals the reference run bit for bit."""
    nodes = record.graph.nodes()
    layout = record.weights.layout
    links = list(zip(layout.senders.tolist(), layout.receivers.tolist()))
    assert record.n_rounds == len(ref["weights"])
    for name in ("s", "w", "pi"):
        expected = [[getattr(st, name) for st in row] for row in ref["states"]]
        assert getattr(record.trajectory, name).tobytes() == _bits(expected), name
    assert record.trajectory.final() == tuple(ref["states"][-1])
    for i in nodes:
        assert _bits(record.retained()[:, :, i]) == _bits(
            [kept[i] for kept in ref["retained"]]
        )
    for k in range(record.n_rounds):
        want = ref["delivered"][k]
        assert [(m.sender, m.receiver, m.round) for m in want] == [
            (j, i, k) for j, i in links
        ]
        assert _bits(record.shares[k].T) == _bits(
            [(m.s_share, m.w_share) for m in want]
        )
        for i in nodes:
            b = ref["weights"][k][i]
            cols = layout.columns(i)
            assert (b.node_id, b.round, b.targets) == (i, k, layout.targets(i))
            assert _bits(record.weights.s[k, cols]) == _bits(
                [b.s_weights[t] for t in b.targets]
            )
            assert _bits(record.weights.w[k, cols]) == _bits(
                [b.w_weights[t] for t in b.targets]
            )


def _drawn_round_by_round(graph, params, seed):
    rngs = {i: node_rng(seed, i) for i in graph.nodes()}
    return lambda i, k: round_weights(i, k, graph.out_neighbors(i), params, rngs[i])


def _parity_graphs():
    rng = np.random.default_rng(50)
    g50 = random_strongly_connected_graph(50, rng, 0.08)
    return [
        (DirectedGraph.from_edge_list(5, [[1, 0], [4, 0], [2, 1], [3, 2], [4, 2],
                                          [0, 3], [1, 3], [3, 4]]),
         [10.0, 15.0, 20.0, 25.0, 30.0]),
        (g50, rng.uniform(-50.0, 50.0, size=50).tolist()),
    ]


@pytest.mark.parametrize("graph_index", [0, 1], ids=["demo", "random50"])
def test_array_engine_matches_message_passing(graph_index):
    graph, x0 = _parity_graphs()[graph_index]
    eps = min(0.05, 0.5 / (max(graph.out_degree(i) for i in graph.nodes()) + 1))
    params = WeightParams(big_k=2, epsilon=eps)

    # algorithm0: the fixed matrix, column by column
    p = default_pushsum_matrix(graph)
    record = run_algorithm0(graph, x0, rounds=25)

    def matrix_column(i, k):
        col = {t: float(p[t, i]) for t in graph.out_neighbors(i)}
        col[i] = float(p[i, i])
        return RoundWeights(i, k, col, col)

    _assert_same_run(record, _message_passing(graph, x0, matrix_column, 25))

    # algorithm1
    record = run_algorithm1(graph, x0, params, seed=5, rounds=30)
    ref = _message_passing(graph, x0, _drawn_round_by_round(graph, params, 5), 30)
    _assert_same_run(record, ref)
    # in the clear the wire is the applied shares themselves, and the
    # layout's (receiver, sender) pairs are the graph's edges
    assert record.wire is record.shares
    layout = record.weights.layout
    assert sorted(zip(layout.receivers.tolist(), layout.senders.tolist())) == sorted(
        graph.edges
    )

    # witness replay of the run: rewritten round-0 weights
    witness = build_indistinguishability_witness(record, 0, -7.5, graph.out_neighbors(0)[0])

    def rewritten(i, k):
        cols = layout.columns(i)
        s_row = witness.round0_s if k == 0 else record.weights.s[k]
        return RoundWeights(
            i,
            k,
            dict(zip(layout.targets(i), s_row[cols].tolist())),
            dict(zip(layout.targets(i), record.weights.w[k, cols].tolist())),
        )

    replayed = replay_with_witness(record, witness)
    _assert_same_run(
        replayed, _message_passing(graph, list(witness.x0), rewritten, record.n_rounds)
    )


@pytest.mark.parametrize("graph_index", [0, 1], ids=["demo", "random50"])
@pytest.mark.parametrize("zeros", ["all", "half"])
def test_array_engine_keeps_the_sign_of_zero_shares(graph_index, zeros):
    """Zero initial values make zero shares of both signs, since masking
    weights may be negative; every -0.0 the message-passing reference
    computes, the engine computes too."""
    graph, x0 = _parity_graphs()[graph_index]
    x0 = [0.0 if zeros == "all" or i % 2 == 0 else v for i, v in enumerate(x0)]
    eps = min(0.05, 0.5 / (max(graph.out_degree(i) for i in graph.nodes()) + 1))
    params = WeightParams(big_k=3, epsilon=eps)
    record = run_algorithm1(graph, x0, params, seed=7, rounds=12)
    _assert_same_run(
        record, _message_passing(graph, x0, _drawn_round_by_round(graph, params, 7), 12)
    )
    assert np.signbit(record.shares[record.shares == 0.0]).any()
    if zeros == "all":
        # some node's every term is -0.0, so its state is -0.0 only if the
        # fold starts from -0.0
        s = record.trajectory.s
        assert np.signbit(s[s == 0.0]).any()


@pytest.mark.parametrize("graph_index", [0, 1], ids=["demo", "random50"])
def test_array_engine_matches_message_passing_encrypted(graph_index):
    graph, x0 = _parity_graphs()[graph_index]
    eps = 0.5 / (max(graph.out_degree(i) for i in graph.nodes()) + 1)
    params = WeightParams(big_k=1, epsilon=eps)
    # 136-bit keys give the random graph's fan-in-10 layout the range
    # 2^14 that 128-bit keys give a fan-in-1 layout
    keypairs = {i: node_keys(136, 3, i).keypair for i in graph.nodes()}

    def channel():
        # the same keypairs, each sender's blinding stream from its start
        keys = {i: NodeKeys(kp, random.Random(i)) for i, kp in keypairs.items()}
        return PaillierChannel(
            {i: kp.public for i, kp in keypairs.items()}, keys, 48, max_in_degree(graph)
        )

    record = run_algorithm1(graph, x0, params, seed=3, rounds=4, channel=channel())
    ref = _message_passing(
        graph, x0, _drawn_round_by_round(graph, params, 3), 4, channel=channel()
    )
    _assert_same_run(record, ref)
    n_edges = record.weights.layout.n_edges
    # one ciphertext per link-round carries both shares
    assert record.wire.shape == (4, n_edges)
    for k in range(4):
        assert [c.value for c in record.wire[k]] == ref["wire"][k], k


def _products(record):
    """Every edge share as the engine multiplies it: weight times the
    sender's state."""
    layout = record.weights.layout
    sent = record.trajectory.states[: record.n_rounds].take(layout.senders, axis=2)
    return record.weights.table[:, :, : layout.n_edges] * sent


def test_plain_trace_holds_only_the_weight_table_and_the_states():
    """A plain 1000-node, 100-round run keeps no share array: its traced
    peak stays within 1.3 times the table and the states, and the shares
    exist only once read."""
    rng = np.random.default_rng(1000)
    graph = random_strongly_connected_graph(1000, rng, 0.006)
    x0 = rng.uniform(0.0, 50.0, size=1000).tolist()
    eps = 0.5 / (max(graph.out_degree(i) for i in graph.nodes()) + 1)
    params = WeightParams(big_k=1, epsilon=eps)
    tracemalloc.start()
    try:
        record = run_algorithm1(graph, x0, params, seed=4, rounds=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = record.weights.table.nbytes + record.trajectory.states.nbytes
    assert peak <= 1.3 * kept, peak / kept
    assert "shares" not in record.__dict__
    assert record.wire is record.shares
    assert "shares" in record.__dict__


def test_every_record_keeps_its_shares_right(demo_graph, demo_x0):
    params = WeightParams(big_k=2, epsilon=0.05)
    # under a channel the receivers fold the decoded shares, which the
    # record recomputes: they are not the products of weights and states
    keys = {i: node_keys(128, 3, i) for i in demo_graph.nodes()}
    channel = PaillierChannel(
        {i: k.keypair.public for i, k in keys.items()}, keys, 48, max_in_degree(demo_graph)
    )
    encrypted = run_algorithm1(demo_graph, demo_x0, params, seed=9, rounds=6, channel=channel)
    assert encrypted.wire is encrypted.ciphertexts
    assert encrypted.shares.tobytes() != _products(encrypted).tobytes()
    np.testing.assert_allclose(encrypted.shares, _products(encrypted), rtol=0, atol=1e-12)
