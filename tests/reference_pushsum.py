"""Message-passing reference implementation of one push-sum round.

An independent second implementation of the round that
``privsum.consensus.apply_round`` computes on arrays: one dict of weights
per node and round, one ``ShareMessage`` per edge, plain Python floats.
The parity tests drive a whole network with it and require the array
engine to match it bit for bit, so it must not call the engine.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from privsum.consensus import NodeState
from privsum.errors import DivisionByZero, PrivsumError
from privsum.weights import WeightParams, generate_round_weights, place_round_weights


class RoundMismatch(PrivsumError):
    """A message or weight set carries a round index the node is not in."""


class MissingShare(PrivsumError):
    """The synchronous protocol was violated: a round's in-neighbor share
    is absent, duplicated, or from an unexpected sender."""


@dataclass
class RoundWeights:
    """One node's outgoing coupling weights for one round.

    Keys of both maps are the node's out-neighbors plus the node itself.
    Where the protocol makes the two sides equal, both attributes reference
    one map, so neither may be mutated in place.
    """

    node_id: int
    round: int
    s_weights: dict[int, float]
    w_weights: dict[int, float]

    @property
    def targets(self) -> list[int]:
        """Out-neighbors in ascending order, then self last."""
        others = sorted(t for t in self.s_weights if t != self.node_id)
        return others + [self.node_id]


def simplex_sample(rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform sample from the unit simplex via sorted-uniform gaps."""
    if m == 1:
        return np.ones(1)
    cuts = np.sort(rng.uniform(0.0, 1.0, size=m - 1))
    return np.diff(cuts, prepend=0.0, append=1.0)


def own_block(
    node_id: int,
    m: int,
    params: WeightParams,
    rng: np.random.Generator,
    first_round: int,
    n_rounds: int,
) -> np.ndarray:
    """A node's ``(n_rounds, 2, m)`` weight block from ``first_round`` on,
    drawn and placed as a networked node does, as a class of one."""
    block = np.empty((n_rounds, 2, m))
    generate_round_weights([(node_id, rng)], params, first_round, block[:, 1, None])
    n_mask = params.masking_rounds(first_round, n_rounds)
    place_round_weights(block, np.arange(m), 1, n_mask)
    return block


def round_weights(
    node_id: int,
    round_k: int,
    out_neighbors: Iterable[int],
    params: WeightParams,
    rng: np.random.Generator,
) -> RoundWeights:
    """One round's weights as maps: the one-round case of
    ``generate_round_weights`` for a class of one, so drawing round by
    round consumes the stream exactly as one batched draw does."""
    targets = sorted(int(t) for t in out_neighbors) + [node_id]
    block = own_block(node_id, len(targets), params, rng, round_k, 1)
    s, w = (dict(zip(targets, side.tolist())) for side in block[0])
    if not params.is_masking_round(round_k):
        return RoundWeights(node_id, round_k, s, s)
    return RoundWeights(node_id, round_k, s, w)


def validate_round_weights(
    rw: RoundWeights,
    params: WeightParams,
    sum_tol: float = 1e-12,
) -> None:
    """Raise ValueError if the weight set violates its invariants."""
    s_sum = sum(rw.s_weights.values())
    w_sum = sum(rw.w_weights.values())
    if abs(s_sum - 1.0) > sum_tol:
        raise ValueError(f"s-weights of node {rw.node_id} sum to {s_sum!r}, not 1")
    if abs(w_sum - 1.0) > sum_tol:
        raise ValueError(f"w-weights of node {rw.node_id} sum to {w_sum!r}, not 1")
    if set(rw.s_weights) != set(rw.w_weights):
        raise ValueError("s and w weight maps must share one key set")
    if params.is_masking_round(rw.round):
        for t, v in rw.w_weights.items():
            expect = 1.0 if t == rw.node_id else 0.0
            if v != expect:
                raise ValueError(
                    f"masking-phase w-weight for target {t} is {v!r}, expected {expect}"
                )
    else:
        eps = params.epsilon
        for t in rw.s_weights:
            if rw.s_weights[t] != rw.w_weights[t]:
                raise ValueError("mixing-phase requires identical s and w weights")
            if not eps < rw.s_weights[t] < 1.0:
                raise ValueError(
                    f"mixing-phase weight {rw.s_weights[t]!r} outside ({eps}, 1)"
                )


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
