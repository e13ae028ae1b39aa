"""The colluders' explicit least-squares system, a reference for the tests.

``privsum.adversary.attack_least_squares`` solves only the block of these
equations that s(0) depends on.  The tests check that reduction against
the full system here: its dimensions, its rank and its exact
minimum-norm solution.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from privsum.adversary import AdversaryView, _observations
from privsum.errors import ConfigError


@dataclass
class LeastSquaresSystem:
    """The colluders' linear system in the target's hidden quantities.

    Unknown layout: s(0..M+1), then the per-round unobserved net s-outflow
    ds(0..M), then w(K+2..M+1), then the unobserved net w-outflow
    dw(K+1..M).  Row count 3M-2K+1, unknown count 4M-2K+3: strictly
    underdetermined, and the estimate is its minimum-norm solution.  These
    are the explicit equations, the reference for the rank audit and the
    tests; ``attack_least_squares`` solves the block of them that s(0)
    depends on.
    """

    matrix: np.ndarray
    rhs: np.ndarray

    @property
    def n_equations(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[1]

    @property
    def s0_index(self) -> int:
        return 0


def build_least_squares_system(
    view: AdversaryView, target: int, m_rounds: int
) -> LeastSquaresSystem:
    """Assemble the colluders' equations over rounds 0..m_rounds.

    Raises as ``attack_least_squares`` does when the view cannot support
    them.  The net w-flow enters only in the mixing rounds K+1..M.
    """
    m = int(m_rounds)
    s_net, w_net, ratio = _observations(view, target, m + 1)
    big_k = view.params.big_k
    if m < big_k + 2:
        raise ConfigError(f"m_rounds={m} must be at least K+2={big_k + 2}")
    w_net = w_net[big_k + 1 :]

    n_s = m + 2          # s(0..M+1)
    n_ds = m + 1         # ds(0..M)
    n_w = m - big_k      # w(K+2..M+1)
    n_dw = m - big_k     # dw(K+1..M)
    n_unknowns = n_s + n_ds + n_w + n_dw

    def s_idx(k: np.ndarray) -> np.ndarray:
        return k

    def ds_idx(k: np.ndarray) -> np.ndarray:
        return n_s + k

    def w_idx(k: np.ndarray) -> np.ndarray:
        return n_s + n_ds + (k - big_k - 2)

    def dw_idx(k: np.ndarray) -> np.ndarray:
        return n_s + n_ds + n_w + (k - big_k - 1)

    weight_rows = m + 1         # first weight-balance row
    ratio_rows = 2 * m - big_k + 1  # first ratio row
    matrix = np.zeros((3 * m - 2 * big_k + 1, n_unknowns))
    rhs = np.zeros(matrix.shape[0])

    # Value balance, every round: s(k+1) - s(k) + ds(k) = observed net flow.
    k = np.arange(m + 1)
    matrix[k, s_idx(k + 1)] = 1.0
    matrix[k, s_idx(k)] = -1.0
    matrix[k, ds_idx(k)] = 1.0
    rhs[k] = s_net

    # Weight balance, mixing phase only; w(K+1) = 1 is public knowledge.
    k = np.arange(big_k + 1, m + 1)
    r = weight_rows + k - big_k - 1
    matrix[r[1:], w_idx(k[1:])] = -1.0
    matrix[r, w_idx(k + 1)] = 1.0
    matrix[r, dw_idx(k)] = 1.0
    rhs[r] = w_net
    rhs[r[0]] += 1.0

    # Ratio constraint: in the mixing phase both shares carry one weight,
    # so the observed share ratio equals s(k)/w(k).
    r = ratio_rows + k - big_k - 1
    matrix[r, s_idx(k)] = 1.0
    rhs[r[0]] = ratio[0]
    matrix[r[1:], w_idx(k[1:])] = -ratio[1:]

    return LeastSquaresSystem(matrix=matrix, rhs=rhs)
