"""The synchronous push-sum round engine.

Every node keeps a value sum ``s``, a weight sum ``w`` and the running
estimate ``pi = s / w``.  Each round it splits (s, w) into shares using its
current coupling weights, keeps the self-share, pushes the rest to its
out-neighbors, then folds the received shares in.  Because each node's
outgoing weights sum to 1, the total of ``s`` over the network never
changes, which is what makes the final agreement the exact average.

Every share is computed by one function, ``split_shares`` (weight times
state), and summed by one, ``fold_shares``: a column's retained share
first, then its in-shares by ascending sender, slot by slot from -0.0.
``run_rounds`` splits and folds all n columns of a simulated network once
per round; a networked node (``net.NodeRuntime``) splits its own column
and folds it through ``apply_round``.  Both draw their weights with
``weights.generate_round_weights`` (the simulator per out-degree class, a
node for a class of one) and place them with
``weights.place_round_weights``, so a deployed node and the simulator
agree bit for bit: they run the same draw, placement, split and fold.
``run_rounds`` serves the baseline fixed-weight protocol, the two-phase
random-weight protocol, replays with rewritten weights and (through a
channel) the encrypted transport.

Every per-round array of a run shares one layout: axis 1 is (s, w), the
last axis is the node or edge.  The state is ``(rounds + 1, 2, n)``, the
kept self-shares ``(rounds, 2, n)``, the link shares ``(rounds, 2, E)``;
a colluders' view selects columns of these.  What crossed the links is
the shares themselves in the clear, and under a channel ``(rounds, E)``
ciphertexts, one per link-round holding both shares.  The weight table
is ``(rounds, 2, E + n)``, edge first: the E edge weights in edge order,
then the n self-weights, so the engine reads both blocks as views.
``graph.SenderLayout`` fixes these columns; each graph object builds its
layout once (``DirectedGraph.layout``).  A run keeps the table, the
states and a channel's ciphertexts: the record recomputes the shares with
``split_shares``, only the columns read, on the codec's grid under a
channel.  Under a channel a receiver folds the decrypted sum of its
in-links' pairs.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DivisionByZero, MagnitudeOverflow, NotStronglyConnected
from .graph import DirectedGraph, SenderLayout, is_strongly_connected
from .paillier import to_codec_grid
from .weights import WeightParams, generate_round_weights, node_rng, place_round_weights

if TYPE_CHECKING:
    from .sim import PaillierChannel

@dataclass(frozen=True)
class NodeState:
    """One node's consensus variables at a given round."""

    node_id: int
    s: float
    w: float
    pi: float
    round: int


def fold_shares(stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum a ``(slots, 2, c)`` stack of shares over its slots, one column
    per node, written to ``out`` when given.

    Each column is a left fold in slot order that starts from -0.0, the
    one start that leaves every term's bits alone (-0.0 + x is x, the sign
    of a zero included); numpy's default start, +0.0, turns a column whose
    terms are all -0.0 into +0.0.  The engine and a networked node put a
    column's retained share in slot 0 and its in-shares by ascending sender
    after it, so a column's sum depends neither on arrival order nor on
    which other columns are folded with it.
    """
    return np.add.reduce(stack, axis=0, out=out, initial=-0.0)


def _check_states(states: np.ndarray, first_round: int, nodes: Sequence[int]) -> None:
    """Raise for the first bad state in ``states``, whose row r holds the
    (s, w) states after round ``first_round + r`` and whose column c is
    node ``nodes[c]``: ``DivisionByZero`` for a weight sum of 0,
    ``MagnitudeOverflow`` for an s or w that is not finite."""
    w = states[:, 1]
    if w.all() and np.isfinite(states).all():
        return
    finite = np.isfinite(states).all(axis=1)
    r, c = np.argwhere((w == 0.0) | ~finite)[0]
    node, k = nodes[c], first_round + int(r)
    if not finite[r, c]:
        s_w = tuple(states[r, :, c].tolist())
        raise MagnitudeOverflow(f"node {node}: state (s, w) = {s_w} is not finite at round {k}")
    raise DivisionByZero(f"node {node}: weight sum hit zero at round {k}")


def split_shares(
    weights: np.ndarray, states: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Each weight times its holder's (s, w) state, broadcast, into ``out``
    when given: the one place a share is computed, so the engine, a node
    and the record's recomputed shares agree bit for bit."""
    return np.multiply(weights, states, out=out)


@np.errstate(over="ignore", invalid="ignore")  # ``_check_states`` names an overflow
def apply_round(
    kept: np.ndarray,
    received: np.ndarray,
    round_k: int,
    nodes: Sequence[int],
) -> np.ndarray:
    """The next ``(2, c)`` state of a set of nodes, one column each:
    ``fold_shares`` of the kept shares (rows (s, w), from ``split_shares``)
    then the ``(slots, 2, c)`` received ones, each column's by ascending
    sender, padded with -0.0 shares.  ``nodes[c]`` names column c in the
    error raised when a state after round ``round_k`` has a weight sum of
    0 (``DivisionByZero``) or an s or w that is not finite
    (``MagnitudeOverflow``).
    """
    nxt = fold_shares(np.concatenate((kept[None], received)))
    _check_states(nxt[None], round_k, nodes)
    return nxt


@dataclass(frozen=True)
class Trajectory:
    """Every node's state at rounds 0 .. final: ``states`` is the engine's
    ``(rounds + 1, 2, n)`` array of (s, w); ``s``, ``w`` and ``pi`` are
    ``(rounds + 1, n)``."""

    states: np.ndarray

    @property
    def s(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def w(self) -> np.ndarray:
        return self.states[:, 1]

    @cached_property
    def pi(self) -> np.ndarray:
        return self.s / self.w

    @property
    def n_rounds(self) -> int:
        """Number of executed rounds (snapshots minus the initial one)."""
        return self.states.shape[0] - 1

    def final(self) -> tuple[NodeState, ...]:
        k = self.n_rounds
        rows = zip(self.s[k].tolist(), self.w[k].tolist(), self.pi[k].tolist())
        return tuple(NodeState(i, s, w, pi, k) for i, (s, w, pi) in enumerate(rows))


@dataclass(frozen=True)
class WeightTable:
    """Every node's coupling weights for a run, one row per round.

    ``table`` is a ``(rounds, 2, E + n)`` array: axis 1 is (s, w), and the
    columns are the edges then the self-weights, as in the graph's
    ``layout``.  ``s`` and ``w`` are views of its two sides.  The table may
    be a broadcast view, so it may not be written in place.
    """

    graph: DirectedGraph
    table: np.ndarray

    @property
    def layout(self) -> SenderLayout:
        return self.graph.layout

    @property
    def s(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def w(self) -> np.ndarray:
        return self.table[:, 1]

    @property
    def n_rounds(self) -> int:
        return self.table.shape[0]

    def matrix(self, k: int, side: str) -> np.ndarray:
        """Round k's n x n coupling matrix of the ``"s"`` or ``"w"`` side:
        column j holds node j's weights, zero off the graph support."""
        if side not in ("s", "w"):
            raise ConfigError(f"side must be 's' or 'w', not {side!r}")
        row = self.table[k, "sw".index(side)]
        layout = self.layout
        n = self.graph.n_nodes
        p = np.zeros((n, n))
        p[layout.receivers, layout.senders] = row[: layout.n_edges]
        np.fill_diagonal(p, row[layout.n_edges :])
        return p


@dataclass
class RunRecord:
    """Ground-truth trace of one synchronous run, kept as arrays.

    ``shares`` is the ``(rounds, 2, E)`` array of the share pair each
    link delivered, rows (s, w), one column per edge in ``SenderLayout``
    order, computed on first read with ``split_shares``: in the clear what
    each round folded, under a channel on the codec's grid of
    ``fractional_bits`` (``paillier.to_codec_grid``), what each link's
    ciphertext decrypts to, though the receiver folded the one decrypted
    sum of its in-links.  ``wire`` is what crossed each link: in the clear
    ``shares`` itself, under a channel its ``(rounds, E)`` ``ciphertexts``.
    """

    params: WeightParams | None
    trajectory: Trajectory
    weights: WeightTable
    # Under a channel, its codec's fractional bits and what crossed the
    # links; None in the clear.
    fractional_bits: int | None = None
    ciphertexts: np.ndarray | None = None

    @property
    def graph(self) -> DirectedGraph:
        return self.weights.graph

    @property
    def n_rounds(self) -> int:
        return self.weights.n_rounds

    @cached_property
    def shares(self) -> np.ndarray:
        return self.edge_shares(slice(None))

    def edge_shares(self, edges) -> np.ndarray:
        """``shares[:, :, edges]``, computing only those columns and
        caching nothing."""
        layout = self.weights.layout
        sent = self.trajectory.states[: self.n_rounds].take(layout.senders[edges], axis=2)
        shares = split_shares(self.weights.table[:, :, : layout.n_edges][:, :, edges], sent)
        bits = self.fractional_bits
        return shares if bits is None else to_codec_grid(shares, bits)

    @property
    def wire(self) -> np.ndarray:
        return self.shares if self.ciphertexts is None else self.ciphertexts

    @property
    def x0(self) -> list[float]:
        """The initial values, the s side of the round-0 state."""
        return self.trajectory.s[0].tolist()

    def retained(self, nodes=slice(None)) -> np.ndarray:
        """The kept (s, w) self-share of the given nodes (all by default),
        a ``(rounds, 2, len(nodes))`` array, recomputed with
        ``split_shares`` (self-weight times state), so bit-equal to the
        retained share each round folded."""
        self_weights = self.weights.table[:, :, self.weights.layout.n_edges :]
        states = self.trajectory.states[: self.n_rounds, :, nodes]
        return split_shares(self_weights[:, :, nodes], states)

    def final_pi(self) -> np.ndarray:
        return self.trajectory.pi[-1].copy()


def run_rounds(
    weights: WeightTable,
    x0: Sequence[float],
    params: WeightParams | None = None,
    channel: PaillierChannel | None = None,
) -> RunRecord:
    """Drive all nodes of ``weights.graph`` through one synchronous
    round per row of the weight table.

    Per round, one ``split_shares`` call writes every edge share and every
    retained share into a scratch row laid out as in ``SenderLayout``, and
    one ``fold_shares`` call sums each node's retained share and in-shares
    into its next state.  With a channel, each round's edge shares are
    encrypted in one ``transmit`` call, and one ``receive`` call decrypts
    each receiver's sum into the slot of its lowest sender, -0.0 into its
    other slots, and the receivers fold that.  A weight sum of zero raises
    ``DivisionByZero``, and an s or w that is not finite
    ``MagnitudeOverflow``, naming the first such round and node.
    """
    layout = weights.layout
    n = weights.graph.n_nodes
    if len(x0) != n:
        raise ConfigError(f"x0 has {len(x0)} entries for {n} nodes")
    rounds = weights.n_rounds
    n_edges = layout.n_edges
    nodes = range(n)
    # Axis 1 of every per-round array is (s, w).
    state = np.empty((rounds + 1, 2, n))
    state[0, 0] = [float(v) for v in x0]
    state[0, 1] = 1.0
    every = np.empty(2 * (n_edges + n) + 1)
    every[-1] = -0.0
    products = every[:-1].reshape(2, n_edges + n)
    sent = products[:, :n_edges]
    holders, order = layout.holders, layout.fold_order
    if channel is not None:
        wire = np.empty((rounds, n_edges), dtype=object)
        senders, receivers = layout.senders.tolist(), layout.receivers.tolist()
    per_round = zip(weights.table, state[:-1], state[1:])
    # ``_check_states`` names an overflow; numpy's warning would only precede it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (row, now, nxt) in enumerate(per_round):
            split_shares(row, now.take(holders, axis=1), out=products)
            if channel is not None:
                wire[k] = channel.transmit(senders, receivers, k, sent)
                # Each receiver's decrypted sum sits in its lowest sender's
                # slot, -0.0 in its other slots, so the fold adds the sum alone.
                sent[:] = channel.receive(senders, receivers, k, wire[k])
            fold_shares(every.take(order), out=nxt)
    _check_states(state[1:], 0, nodes)
    return RunRecord(
        params=params,
        trajectory=Trajectory(state),
        weights=weights,
        fractional_bits=None if channel is None else channel.fractional_bits,
        ciphertexts=None if channel is None else wire,
    )


def algorithm1_weights(
    graph: DirectedGraph, params: WeightParams, seed: int, rounds: int
) -> WeightTable:
    """Weights of the two-phase protocol for ``rounds`` rounds, one
    independent seeded generator per node.

    One ``generate_round_weights`` call per out-degree class of the
    graph's layout, with each node on its ``node_rng(seed, node)`` stream
    (made as the draw reaches the node and dropped after it), writes the
    class's value rows into its stretch of the ``(rounds, 2, E + n)``
    table's w half, class after class; ``place_round_weights`` then
    gathers them into the layout's columns and sets the w half.  A
    networked node makes the same two calls for a class of one, so
    simulated and deployed runs agree bit for bit.  Classes go in order of
    their lowest node, so an infeasible epsilon names the lowest infeasible
    node.  Nothing table-sized is allocated but the table.
    """
    layout = graph.layout
    table = np.empty((rounds, 2, layout.n_edges + graph.n_nodes))
    for nodes, m, span in layout.draw_classes:
        rows = table[:, 1, span].reshape(rounds, nodes.size, m)
        streams = ((i, node_rng(seed, i)) for i in nodes.tolist())
        generate_round_weights(streams, params, 0, rows)
    n_mask = params.masking_rounds(0, rounds)
    place_round_weights(table, layout.draw_order, graph.n_nodes, n_mask)
    return WeightTable(graph, table)


def run_algorithm1(
    graph: DirectedGraph,
    x0: Sequence[float],
    params: WeightParams,
    seed: int,
    rounds: int,
    channel: PaillierChannel | None = None,
) -> RunRecord:
    """Run the two-phase random-weight protocol."""
    if not is_strongly_connected(graph):
        raise NotStronglyConnected("the protocol requires a strongly connected graph")
    return run_rounds(
        algorithm1_weights(graph, params, seed, rounds), x0, params=params, channel=channel
    )


def default_pushsum_matrix(graph: DirectedGraph) -> np.ndarray:
    """Fixed column-stochastic weights p_ij = 1 / (out-degree of j + 1) on
    the graph support plus the diagonal."""
    n = graph.n_nodes
    p = np.zeros((n, n))
    for j in graph.nodes():
        share = 1.0 / (graph.out_degree(j) + 1)
        p[j, j] = share
        for i in graph.out_neighbors(j):
            p[i, j] = share
    return p


def matrix_weights(graph: DirectedGraph, p: np.ndarray, rounds: int) -> WeightTable:
    """Constant weights taken from the columns of a fixed matrix; the s and
    w sides coincide as in the baseline protocol."""
    layout = graph.layout
    row = np.concatenate((p[layout.receivers, layout.senders], p.diagonal()))
    return WeightTable(graph, np.broadcast_to(row, (rounds, 2, row.size)))


def run_algorithm0(
    graph: DirectedGraph,
    x0: Sequence[float],
    rounds: int = 100,
) -> RunRecord:
    """Run the baseline push-sum protocol with the fixed weights of
    ``default_pushsum_matrix``.

    Refuses non-strongly-connected graphs, for which the convergence
    guarantee is void.
    """
    if not is_strongly_connected(graph):
        raise NotStronglyConnected(
            "baseline push-sum requires a strongly connected graph"
        )
    return run_rounds(matrix_weights(graph, default_pushsum_matrix(graph), rounds), x0)
