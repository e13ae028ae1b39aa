"""Per-round random coupling-weight generation.

Each round, every node draws one set of outgoing weights over its
out-neighbors plus itself.  Two regimes exist:

* masking phase (round <= K): the value-side weights are unconstrained reals
  summing to 1, while the weight-side stays frozen at the identity
  (self-weight 1, all others 0);
* mixing phase (round >= K+1): a single set of weights in (epsilon, 1)
  summing to 1 is drawn and used for both the value and the weight side.

Assembling all nodes' weights for one round into an N x N matrix (column j =
node j's weights) always yields a column-stochastic matrix.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, InvalidEpsilon


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from heterogeneous labels.

    Hash-based so that streams for different purposes ("weights", "keygen",
    ...) and different nodes never overlap, and identical inputs give
    identical streams on every platform.
    """
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def node_rng(global_seed: int, node_id: int) -> np.random.Generator:
    """The per-node weight stream used by both the simulator and the
    networked runtime; must stay in sync between the two."""
    return np.random.default_rng(derive_seed("weights", global_seed, node_id))


@dataclass(frozen=True)
class WeightParams:
    """Protocol-wide weight parameters known to every node.

    big_k: last masking-phase round index K.
    epsilon: open lower bound for mixing-phase weights; must satisfy
        epsilon < 1 / (max out-degree + 1) for the graph in use.
    phase_a_range: half-width B of the uniform distribution used for
        masking-phase draws.
    """

    big_k: int
    epsilon: float
    phase_a_range: float = 10.0

    def __post_init__(self) -> None:
        if self.big_k < 0:
            raise ConfigError("big_k must be a non-negative integer")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0, 1)")
        if self.phase_a_range <= 0.0:
            raise ConfigError("phase_a_range must be positive")

    def is_masking_round(self, round_k: int) -> bool:
        return round_k <= self.big_k


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


def phase_b_map(simplex_point: Iterable[float], epsilon: float) -> np.ndarray:
    """Affine map sending the unit simplex into { x in (epsilon, 1)^m :
    sum x = 1 }: output_j = epsilon + d_j * (1 - m * epsilon).  A 2-D input
    maps each row."""
    if not isinstance(simplex_point, np.ndarray):
        simplex_point = list(simplex_point)
    d = np.asarray(simplex_point, dtype=float)
    m = d.shape[-1]
    if m * epsilon >= 1.0:
        raise InvalidEpsilon(
            f"epsilon={epsilon} is infeasible for {m} weights; need epsilon < 1/{m}"
        )
    return epsilon + d * (1.0 - m * epsilon)


def draw_weight_rows(
    node_id: int,
    out_neighbors: Iterable[int],
    params: WeightParams,
    rng: np.random.Generator,
    first_round: int,
    n_rounds: int,
) -> np.ndarray:
    """One node's value-side weights for ``n_rounds`` rounds from
    ``first_round`` on, one row per round.

    Columns follow ``RoundWeights.targets``: out-neighbors ascending, then
    the node itself.  All rounds come from one ``rng.random`` call that
    consumes the stream exactly as successive one-round draws do: m
    uniforms per masking round, m - 1 per mixing round (m = out-degree + 1).
    A masking row is m uniforms on (-B, B) shifted to sum to 1; a mixing row
    is the sorted-uniform simplex gaps under ``phase_b_map``.  The
    self-weight is then 1 minus the sequential sum of the others, so a row
    sums to 1 exactly in floating point.
    """
    others = sorted(int(t) for t in out_neighbors)
    if node_id in others:
        raise ConfigError("node must not list itself as an out-neighbor")
    m = len(others) + 1
    if params.epsilon >= 1.0 / m:
        raise InvalidEpsilon(
            f"epsilon={params.epsilon} >= 1/{m} for node {node_id}; "
            "mixing-phase weights cannot satisfy the (epsilon, 1) sum-1 constraint"
        )
    n_mask = min(n_rounds, max(0, params.big_k + 1 - first_round))
    n_mix = n_rounds - n_mask
    u = rng.random(n_mask * m + n_mix * (m - 1))
    rows = np.empty((n_rounds, m))

    # 2B*u - B is what rng.uniform(-B, B) computes, bit for bit, and a
    # uniform(0, 1) cut is u itself.
    b = params.phase_a_range
    draws = rows[:n_mask]
    np.multiply(2.0 * b, u[: n_mask * m].reshape(n_mask, m), out=draws)
    draws -= b
    draws += ((1.0 - draws.sum(axis=1)) / m)[:, None]

    cuts = np.zeros((n_mix, m + 1))
    cuts[:, -1] = 1.0
    cuts[:, 1:-1] = np.sort(u[n_mask * m :].reshape(n_mix, m - 1), axis=1)
    rows[n_mask:] = phase_b_map(cuts[:, 1:] - cuts[:, :-1], params.epsilon)

    if m > 1:
        rows[:, -1] = 1.0 - np.cumsum(rows[:, :-1], axis=1)[:, -1]
    else:
        rows[:, -1] = 1.0
    return rows


def generate_round_weights(
    node_id: int,
    round_k: int,
    out_neighbors: Iterable[int],
    params: WeightParams,
    rng: np.random.Generator,
) -> RoundWeights:
    """Draw one round's coupling weights for one node: the one-round case
    of ``draw_weight_rows``, so a node drawing round by round consumes its
    stream exactly as the simulator's batched draw does."""
    others = sorted(int(t) for t in out_neighbors)
    row = draw_weight_rows(node_id, others, params, rng, round_k, 1)[0]
    s = dict(zip(others + [node_id], row.tolist()))
    if not params.is_masking_round(round_k):
        return RoundWeights(node_id, round_k, s, s)
    w = {t: 0.0 for t in others}
    w[node_id] = 1.0
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
