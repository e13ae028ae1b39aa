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
same bits.  It writes a class's value rows, node after node, into a
contiguous stretch of the table's own w half, with no scatter.  Once every
class is drawn, ``place_round_weights`` gathers the rows into the s half's
column order, one ``take`` per block of rounds, and then sets the w half:
the identity in masking rounds, a copy of the s half in mixing rounds.
Nothing table-sized is allocated besides the table.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, InvalidEpsilon

# Entries a gather of ``place_round_weights`` moves at once: a block of
# rounds small enough that the gather's temporaries stay far below the
# table's size.
GATHER_BLOCK = 1 << 15


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
    streams: Iterable[tuple[int, np.random.Generator]],
    params: WeightParams,
    first_round: int,
    rows: np.ndarray,
) -> None:
    """Draw into ``rows`` the value-side weights of rounds ``first_round``
    .. ``first_round + len(rows) - 1`` for a class of g nodes that all have
    m targets.  ``rows`` is a ``(rounds, g, m)`` array, and ``rows[k, r]``
    is the r-th node's weights on its out-neighbors ascending, then itself.

    ``streams`` yields each node's ``(node_id, generator)`` in row order.
    Each generator gives one ``random`` call, m uniforms per masking round
    and m - 1 per mixing round, consumed exactly as successive one-round
    draws consume them, and is not used again: a caller that makes it on
    the way holds one at a time, and a caller that keeps it continues the
    stream with the next ``first_round``.  An infeasible epsilon names the
    class's first node.  ``place_round_weights`` puts the rows of every
    class where the rounds read them.
    """
    rounds, g, m = rows.shape
    n_mask = params.masking_rounds(first_round, rounds)
    u = np.empty((g, _uniform_count(m, n_mask, rounds)))
    for row, (node, rng) in zip(u, streams):
        _require_feasible(node, m, params)
        rng.random(out=row)
    _value_rows(u, n_mask, rows, params)


def place_round_weights(
    table: np.ndarray, order: np.ndarray, n_self: int, n_mask: int
) -> None:
    """Finish a ``(rounds, 2, width)`` table whose w half holds every
    class's rows as ``generate_round_weights`` drew them, class-major.

    One block of rounds at a time, at most ``GATHER_BLOCK`` entries, the s
    half takes the rows in column order, column c from entry ``order[c]``
    of the drawn row, and the block's mixing rounds, those from
    ``n_mask`` on, copy it into their w half.  The w half of the masking
    rounds then becomes the identity: 1 in the last ``n_self`` columns,
    the self-weights, and 0 elsewhere.  Numpy copies an operand that
    shares memory with the output, so working block by block keeps those
    copies block-sized too.
    """
    rounds, _, width = table.shape
    step = max(1, GATHER_BLOCK // width)
    for start in range(0, rounds, step):
        block = table[start : start + step]
        np.take(block[:, 1], order, axis=1, out=block[:, 0])
        mixing = block[max(0, n_mask - start) :]
        mixing[:, 1] = mixing[:, 0]
    identity = table[:n_mask, 1]
    identity[:, : width - n_self] = 0.0
    identity[:, width - n_self :] = 1.0


def _require_feasible(node_id: int, m: int, params: WeightParams) -> None:
    if params.epsilon >= 1.0 / m:
        raise InvalidEpsilon(
            f"epsilon={params.epsilon} >= 1/{m} for node {node_id}; "
            "mixing-phase weights cannot satisfy the (epsilon, 1) sum-1 constraint"
        )


def _uniform_count(m: int, n_mask: int, n_rounds: int) -> int:
    return n_mask * m + (n_rounds - n_mask) * (m - 1)


def _value_rows(
    u: np.ndarray, n_mask: int, rows: np.ndarray, params: WeightParams
) -> None:
    """Turn a ``(g, count)`` block of uniforms, one stream's draw per row,
    into the ``(n_rounds, g, m)`` value-side ``rows``, whose first
    ``n_mask`` rounds mask.  The masking arithmetic and the sort of the
    cuts run in place on ``u``, node by node, so ``u`` must be the
    caller's own buffer; one copy per phase moves the result into
    ``rows``.

    A masking row is m uniforms on (-B, B) shifted to sum to 1; a mixing
    row is the sorted-uniform simplex gaps under ``phase_b_map``.  The
    self-weight is then 1 minus the others added left to right, the order
    of ``cumsum``, so a row sums to 1 exactly in floating point.  Every
    reduction runs along a row's own entries, so a row's bits do not
    depend on g, on the other rows or on the layout of ``rows``.
    """
    n_rounds, g, m = rows.shape
    if m == 1:
        rows[...] = 1.0
        return
    n_mix = n_rounds - n_mask

    # 2B*u - B is what rng.uniform(-B, B) computes, bit for bit.
    b = params.phase_a_range
    draws = u[:, : n_mask * m].reshape(g, n_mask, m)
    draws *= 2.0 * b
    draws -= b
    draws += ((1.0 - draws.sum(axis=-1)) / m)[..., None]
    _own_weight(draws[..., :-1], out=draws[..., -1])
    rows[:n_mask] = draws.swapaxes(0, 1)

    # A uniform(0, 1) cut is u itself.  The gaps between the sorted cuts,
    # from 0 up, are the mixing row's first m - 1 weights, mapped as
    # ``phase_b_map`` maps them; the last gap, up to 1, is not needed,
    # since the self-weight is 1 minus the others.
    cuts = u[:, n_mask * m :]
    cuts.reshape(g, n_mix, m - 1).sort(axis=-1)
    # One subtraction along each node's flat row of cuts, into a fresh
    # buffer: an output overlapping its inputs would make numpy copy them
    # and loop once per round.  Each round's first gap is its first cut.
    gaps = np.empty_like(cuts)
    np.subtract(cuts[:, 1:], cuts[:, :-1], out=gaps[:, 1:])
    gaps[:, :: m - 1] = cuts[:, :: m - 1]
    gaps = gaps.reshape(g, n_mix, m - 1)
    gaps *= 1.0 - m * params.epsilon
    gaps += params.epsilon
    mixing = rows[n_mask:].swapaxes(0, 1)
    mixing[..., :-1] = gaps
    own = np.empty((g, n_mix))
    _own_weight(gaps, out=own)
    mixing[..., -1] = own


def _own_weight(others: np.ndarray, out: np.ndarray) -> None:
    """1 minus the weights on the last axis of ``others``, added left to
    right, into ``out``."""
    out[...] = others[..., 0]
    for j in range(1, others.shape[-1]):
        out += others[..., j]
    np.subtract(1.0, out, out=out)
