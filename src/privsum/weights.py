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

``generate_round_weights`` is the one draw: the simulator calls it per
out-degree class and a deployed node for a class of one, so both hold the
same bits.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

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
        if not 0.0 < self.phase_a_range < math.inf:
            raise ConfigError("phase_a_range must be positive and finite")

    def is_masking_round(self, round_k: int) -> bool:
        return round_k <= self.big_k

    def masking_rounds(self, first_round: int, n_rounds: int) -> int:
        """How many of the ``n_rounds`` rounds from ``first_round`` on are
        masking rounds; they come first."""
        return min(n_rounds, max(0, self.big_k + 1 - first_round))


def phase_b_map(simplex_point: Iterable[float], epsilon: float) -> np.ndarray:
    """Affine map sending the unit simplex into { x in (epsilon, 1)^m :
    sum x = 1 }: output_j = epsilon + d_j * (1 - m * epsilon).  An input of
    more dimensions maps each point along its last axis."""
    if not isinstance(simplex_point, np.ndarray):
        simplex_point = list(simplex_point)
    d = np.asarray(simplex_point, dtype=float)
    m = d.shape[-1]
    if m * epsilon >= 1.0:
        raise InvalidEpsilon(
            f"epsilon={epsilon} is infeasible for {m} weights; need epsilon < 1/{m}"
        )
    return epsilon + d * (1.0 - m * epsilon)


def generate_round_weights(
    rngs: Mapping[int, np.random.Generator],
    params: WeightParams,
    first_round: int,
    table: np.ndarray,
    columns: np.ndarray,
) -> None:
    """Draw rounds ``first_round`` .. ``first_round + len(table) - 1`` for a
    class of nodes that all have m targets, into the caller's table.

    ``rngs`` maps each node of the class to its own generator; the caller
    keeps it, and a later call with the next ``first_round`` continues the
    stream.  ``table`` is ``(rounds, 2, width)`` with axis 1 (s, w), and
    row r of the ``(g, m)`` index array ``columns`` holds the r-th node's
    columns: its out-neighbors ascending, then itself.  A deployed node is
    a class of one writing its own ``(rounds, 2, m)`` block.

    Each node's uniforms come from one ``random`` call on its stream, m per
    masking round and m - 1 per mixing round, consumed exactly as
    successive one-round draws consume them; one ``_value_rows`` call
    transforms the whole class into the s rows.  The w rows are the
    identity (self 1, others 0) in masking rounds and the s row in mixing
    rounds.  An infeasible epsilon names the class's first node.
    """
    rounds, m = table.shape[0], columns.shape[1]
    _require_feasible(next(iter(rngs)), m, params)
    n_mask = params.masking_rounds(first_round, rounds)
    u = np.empty((len(rngs), _uniform_count(m, n_mask, rounds)))
    for row, rng in zip(u, rngs.values()):
        rng.random(out=row)
    s_rows = _value_rows(u, m, n_mask, rounds, params)
    table[:, 0, columns] = s_rows
    table[n_mask:, 1, columns] = s_rows[n_mask:]
    table[:n_mask, 1, columns[:, :-1]] = 0.0
    table[:n_mask, 1, columns[:, -1]] = 1.0


def _require_feasible(node_id: int, m: int, params: WeightParams) -> None:
    if params.epsilon >= 1.0 / m:
        raise InvalidEpsilon(
            f"epsilon={params.epsilon} >= 1/{m} for node {node_id}; "
            "mixing-phase weights cannot satisfy the (epsilon, 1) sum-1 constraint"
        )


def _uniform_count(m: int, n_mask: int, n_rounds: int) -> int:
    return n_mask * m + (n_rounds - n_mask) * (m - 1)


def _value_rows(
    u: np.ndarray, m: int, n_mask: int, n_rounds: int, params: WeightParams
) -> np.ndarray:
    """Turn a ``(g, count)`` block of uniforms, one stream's draw per row,
    into round-major ``(n_rounds, g, m)`` value-side rows whose first
    ``n_mask`` rounds mask.  The mixing uniforms are sorted in place, so
    ``u`` must be the caller's own buffer.

    A masking row is m uniforms on (-B, B) shifted to sum to 1; a mixing
    row is the sorted-uniform simplex gaps under ``phase_b_map``, written
    straight into the output.  The self-weight is then 1 minus the others
    added left to right, the order of ``cumsum``, so a row sums to 1
    exactly in floating point.  Every reduction runs along the last axis,
    so a row's bits do not depend on g or on the other rows.
    """
    g = u.shape[0]
    if m == 1:
        return np.ones((n_rounds, g, 1))
    n_mix = n_rounds - n_mask
    rows = np.empty((n_rounds, g, m))

    # 2B*u - B is what rng.uniform(-B, B) computes, bit for bit.
    b = params.phase_a_range
    draws = rows[:n_mask]
    uniforms = u[:, : n_mask * m].reshape(g, n_mask, m)
    np.multiply(2.0 * b, uniforms.swapaxes(0, 1), out=draws)
    draws -= b
    draws += ((1.0 - draws.sum(axis=-1)) / m)[..., None]

    # A uniform(0, 1) cut is u itself.  The gaps between the sorted cuts,
    # from 0 up, are the mixing row's first m - 1 weights, mapped as
    # ``phase_b_map`` maps them; the last gap, up to 1, is not needed,
    # since the self-weight is 1 minus the others.
    cuts = u[:, n_mask * m :].reshape(g, n_mix, m - 1)
    cuts.sort(axis=-1)
    cuts = cuts.swapaxes(0, 1)
    gaps = rows[n_mask:, :, :-1]
    gaps[..., 0] = cuts[..., 0]
    np.subtract(cuts[..., 1:], cuts[..., :-1], out=gaps[..., 1:])
    gaps *= 1.0 - m * params.epsilon
    gaps += params.epsilon

    own = rows[..., -1]
    own[...] = rows[..., 0]
    for j in range(1, m - 1):
        own += rows[..., j]
    np.subtract(1.0, own, out=own)
    return rows
