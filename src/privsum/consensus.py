"""Per-node push-sum state machines and the synchronous round engine.

Every node keeps a value sum ``s``, a weight sum ``w`` and the running
estimate ``pi = s / w``.  Each round it splits (s, w) into shares using its
current coupling weights, keeps the self-share, pushes the rest to its
out-neighbors, then folds the received shares in.  Because each node's
outgoing weights sum to 1, the total of ``s`` over the network never
changes, which is what makes the final agreement the exact average.

The engine here is shared by the baseline fixed-weight protocol, the
two-phase random-weight protocol, and (through a pluggable channel) the
encrypted transport.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DivisionByZero,
    MissingShare,
    NotStronglyConnected,
    RoundMismatch,
)
from .graph import DirectedGraph, is_strongly_connected
from .weights import (
    RoundWeights,
    WeightParams,
    generate_round_weights,
    node_rng,
)


@dataclass(frozen=True)
class NodeState:
    """One node's consensus variables at a given round."""

    node_id: int
    s: float
    w: float
    pi: float
    round: int


def initial_state(node_id: int, x0: float) -> NodeState:
    x0 = float(x0)
    return NodeState(node_id=node_id, s=x0, w=1.0, pi=x0, round=0)


@dataclass(frozen=True)
class ShareMessage:
    """One directed share transmission for one round."""

    sender: int
    receiver: int
    round: int
    s_share: float
    w_share: float


def outgoing_shares(
    state: NodeState, weights: RoundWeights
) -> tuple[list[ShareMessage], tuple[float, float]]:
    """Split the node's (s, w) into per-neighbor messages plus the retained
    self-share pair.  The shares (self included) sum back to s and w up to
    float rounding."""
    if weights.node_id != state.node_id:
        raise RoundMismatch(
            f"weights belong to node {weights.node_id}, state to node {state.node_id}"
        )
    if weights.round != state.round:
        raise RoundMismatch(
            f"node {state.node_id}: weights are for round {weights.round}, "
            f"state is at round {state.round}"
        )
    msgs = []
    for target in weights.targets:
        if target == state.node_id:
            continue
        msgs.append(
            ShareMessage(
                sender=state.node_id,
                receiver=target,
                round=state.round,
                s_share=weights.s_weights[target] * state.s,
                w_share=weights.w_weights[target] * state.w,
            )
        )
    retained = (
        weights.s_weights[state.node_id] * state.s,
        weights.w_weights[state.node_id] * state.w,
    )
    return msgs, retained


def apply_round(
    state: NodeState,
    received: Sequence[ShareMessage],
    retained: tuple[float, float],
    in_neighbors: Sequence[int],
) -> NodeState:
    """Fold one synchronous round's shares into the state.

    Requires exactly one message from every in-neighbor, all carrying the
    node's current round.  Messages are summed in sender order so the result
    is independent of arrival order.
    """
    expected = set(in_neighbors)
    seen: set[int] = set()
    for msg in received:
        if msg.receiver != state.node_id or msg.round != state.round:
            raise RoundMismatch(
                f"node {state.node_id} round {state.round} got message "
                f"for node {msg.receiver} round {msg.round}"
            )
        if msg.sender not in expected:
            raise MissingShare(
                f"node {state.node_id}: share from non-in-neighbor {msg.sender}"
            )
        if msg.sender in seen:
            raise MissingShare(
                f"node {state.node_id}: duplicate share from {msg.sender} "
                f"in round {state.round}"
            )
        seen.add(msg.sender)
    if seen != expected:
        missing = sorted(expected - seen)
        raise MissingShare(
            f"node {state.node_id}: round {state.round} shares missing "
            f"from in-neighbors {missing}"
        )

    s_new = retained[0]
    w_new = retained[1]
    for msg in sorted(received, key=lambda m: m.sender):
        s_new += msg.s_share
        w_new += msg.w_share
    if w_new == 0.0:
        raise DivisionByZero(
            f"node {state.node_id}: weight sum hit zero at round {state.round}"
        )
    return NodeState(
        node_id=state.node_id,
        s=s_new,
        w=w_new,
        pi=s_new / w_new,
        round=state.round + 1,
    )


@dataclass
class Trajectory:
    """Per-round snapshots of every node's state (round 0 .. final)."""

    states: list[tuple[NodeState, ...]]

    @property
    def n_nodes(self) -> int:
        return len(self.states[0])

    @property
    def n_rounds(self) -> int:
        """Number of executed rounds (snapshots minus the initial one)."""
        return len(self.states) - 1

    def s_array(self) -> np.ndarray:
        return np.array([[st.s for st in row] for row in self.states])

    def w_array(self) -> np.ndarray:
        return np.array([[st.w for st in row] for row in self.states])

    def pi_array(self) -> np.ndarray:
        return np.array([[st.pi for st in row] for row in self.states])

    def final(self) -> tuple[NodeState, ...]:
        return self.states[-1]


class Channel(Protocol):
    """Transforms messages between the sender and the receiver.

    ``transmit`` produces whatever actually travels on the wire (and is what
    an eavesdropper sees); ``receive`` recovers the plaintext share the
    receiving node applies.
    """

    def transmit(self, msg: ShareMessage): ...

    def receive(self, wire) -> ShareMessage: ...


class PlainChannel:
    """Identity channel: shares travel in the clear."""

    def transmit(self, msg: ShareMessage):
        return msg

    def receive(self, wire) -> ShareMessage:
        return wire


@dataclass
class RunRecord:
    """Full ground-truth trace of one synchronous run."""

    graph: DirectedGraph
    x0: list[float]
    params: WeightParams | None
    mode: str
    trajectory: Trajectory
    weight_log: list[dict[int, RoundWeights]]
    wire_log: list[list]
    delivered_log: list[list[ShareMessage]]

    @property
    def n_rounds(self) -> int:
        return len(self.weight_log)

    def retained(self, round_k: int, node: int) -> tuple[float, float]:
        """The (s, w) self-share the node kept in a round.  Same multiply as
        ``outgoing_shares``, so bit-equal to what the node retained."""
        rw = self.weight_log[round_k][node]
        st = self.trajectory.states[round_k][node]
        return rw.s_weights[node] * st.s, rw.w_weights[node] * st.w

    def final_pi(self) -> np.ndarray:
        return np.array([st.pi for st in self.trajectory.final()])


WeightSource = Callable[[int, int], RoundWeights]


def run_rounds(
    graph: DirectedGraph,
    x0: Sequence[float],
    rounds: int,
    weight_source: WeightSource,
    params: WeightParams | None = None,
    mode: str = "algorithm1",
    channel: Channel | None = None,
    stop_tol: float = 0.0,
    stop_window: int = 10,
) -> RunRecord:
    """Drive all nodes through synchronous rounds.

    Every node sends, then every node applies; the global round counter
    advances in lockstep.  If ``stop_tol`` is positive, the run ends early
    once ``max_i |pi_i(k) - pi_i(k-1)| < stop_tol`` held for ``stop_window``
    consecutive rounds.
    """
    if len(x0) != graph.n_nodes:
        raise ConfigError(f"x0 has {len(x0)} entries for {graph.n_nodes} nodes")
    chan = channel if channel is not None else PlainChannel()
    states = [initial_state(i, x0[i]) for i in graph.nodes()]
    trajectory = Trajectory(states=[tuple(states)])
    weight_log: list[dict[int, RoundWeights]] = []
    wire_log: list[list] = []
    delivered_log: list[list[ShareMessage]] = []
    quiet_rounds = 0

    for k in range(rounds):
        round_weights = {i: weight_source(i, k) for i in graph.nodes()}
        inboxes: dict[int, list[ShareMessage]] = {i: [] for i in graph.nodes()}
        wire_round: list = []
        delivered_round: list[ShareMessage] = []
        retained_round: dict[int, tuple[float, float]] = {}
        for i in graph.nodes():
            msgs, retained = outgoing_shares(states[i], round_weights[i])
            retained_round[i] = retained
            for msg in msgs:
                wire = chan.transmit(msg)
                wire_round.append(wire)
                plain = chan.receive(wire)
                delivered_round.append(plain)
                inboxes[plain.receiver].append(plain)
        prev_pi = [st.pi for st in states]
        states = [
            apply_round(states[i], inboxes[i], retained_round[i], graph.in_neighbors(i))
            for i in graph.nodes()
        ]
        weight_log.append(round_weights)
        wire_log.append(wire_round)
        delivered_log.append(delivered_round)
        trajectory.states.append(tuple(states))

        if stop_tol > 0.0:
            delta = max(abs(states[i].pi - prev_pi[i]) for i in graph.nodes())
            quiet_rounds = quiet_rounds + 1 if delta < stop_tol else 0
            if quiet_rounds >= stop_window:
                break

    return RunRecord(
        graph=graph,
        x0=[float(v) for v in x0],
        params=params,
        mode=mode,
        trajectory=trajectory,
        weight_log=weight_log,
        wire_log=wire_log,
        delivered_log=delivered_log,
    )


def algorithm1_weight_source(
    graph: DirectedGraph, params: WeightParams, seed: int
) -> WeightSource:
    """Weight stream of the two-phase protocol, one independent seeded
    generator per node.  The networked runtime derives the identical stream,
    so simulated and deployed runs agree bit for bit."""
    rngs = {i: node_rng(seed, i) for i in graph.nodes()}

    def source(node_id: int, round_k: int) -> RoundWeights:
        return generate_round_weights(
            node_id, round_k, graph.out_neighbors(node_id), params, rngs[node_id]
        )

    return source


def run_algorithm1(
    graph: DirectedGraph,
    x0: Sequence[float],
    params: WeightParams,
    seed: int,
    rounds: int,
    channel: Channel | None = None,
    stop_tol: float = 0.0,
    mode: str = "algorithm1",
) -> RunRecord:
    """Run the two-phase random-weight protocol."""
    if not is_strongly_connected(graph):
        raise NotStronglyConnected("the protocol requires a strongly connected graph")
    source = algorithm1_weight_source(graph, params, seed)
    return run_rounds(
        graph, x0, rounds, source, params=params, mode=mode, channel=channel,
        stop_tol=stop_tol,
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


def _validate_fixed_matrix(graph: DirectedGraph, p: np.ndarray) -> None:
    n = graph.n_nodes
    if p.shape != (n, n):
        raise ConfigError(f"weight matrix shape {p.shape} does not match {n} nodes")
    col_sums = p.sum(axis=0)
    if not np.allclose(col_sums, 1.0, rtol=0.0, atol=1e-12):
        raise ConfigError("weight matrix columns must sum to 1")
    for i in range(n):
        for j in range(n):
            on_support = i == j or (i, j) in graph.edges
            if on_support:
                if not 0.0 < p[i, j] < 1.0:
                    raise ConfigError(
                        f"supported weight p[{i},{j}]={p[i, j]!r} must lie in (0, 1)"
                    )
            elif p[i, j] != 0.0:
                raise ConfigError(f"weight p[{i},{j}] set outside the graph support")


def matrix_weight_source(graph: DirectedGraph, p: np.ndarray) -> WeightSource:
    """Constant weights taken from the columns of a fixed matrix; the s and
    w sides coincide as in the baseline protocol."""

    def source(node_id: int, round_k: int) -> RoundWeights:
        weights = {node_id: float(p[node_id, node_id])}
        for i in graph.out_neighbors(node_id):
            weights[i] = float(p[i, node_id])
        return RoundWeights(node_id, round_k, weights, weights)

    return source


def run_algorithm0(
    graph: DirectedGraph,
    x0: Sequence[float],
    fixed_weights: np.ndarray | None = None,
    rounds: int = 100,
    stop_tol: float = 0.0,
) -> RunRecord:
    """Run the baseline push-sum protocol with fixed coupling weights.

    Refuses non-strongly-connected graphs, for which the convergence
    guarantee is void.
    """
    if not is_strongly_connected(graph):
        raise NotStronglyConnected(
            "baseline push-sum requires a strongly connected graph"
        )
    p = default_pushsum_matrix(graph) if fixed_weights is None else np.asarray(fixed_weights, dtype=float)
    _validate_fixed_matrix(graph, p)
    return run_rounds(
        graph, x0, rounds, matrix_weight_source(graph, p),
        params=None, mode="algorithm0", stop_tol=stop_tol,
    )
