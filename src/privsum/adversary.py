"""Inference tooling for honest-but-curious nodes and wiretapping outsiders.

Everything an attack consumes must be reachable from an
:class:`AdversaryView`: the members' own states, the self-shares they
kept, the shares on every link they touch, the public protocol parameters,
and the topology.  The view is a column selection of the run record's
``(rounds, 2, ·)`` arrays; ``views_match`` compares two views, which is
the whole of a witness check.  Attacks never touch ground-truth node state.
``view.links`` is the one statement of which links the members saw: the
attacks on one target take its net flows and its share ratio from those
links, and consult the graph only for the topology conditions the exact
attacks need.  ``ATTACKS`` names every attack the ``attack`` command runs.

Included capabilities:

* the baseline leak of the fixed-weight protocol (round-0 share ratio),
* exact recovery when a node's entire neighborhood is hostile (single
  sole-neighbor attacker, or a colluding set covering all neighbors),
* the underdetermined least-squares estimator colluders can build when at
  least one neighbor stays honest (expected to fail; its dispersion is the
  experiment's subject),
* the constructive witness showing that, when one neighbor is not
  hostile, any alternative initial value is consistent with everything the
  adversaries saw.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .consensus import RunRecord, WeightTable, run_rounds
from .errors import (
    ConfigError,
    DegenerateDenominator,
    TopologyConditionUnmet,
    TraceIncomplete,
)
from .graph import DirectedGraph
from .weights import WeightParams


@dataclass(frozen=True)
class AdversaryView:
    """The information set of a (possibly colluding) set of protocol nodes.

    Three arrays with axis 1 (s, w), as in the run record: ``states``
    ``(rounds + 1, 2, M)`` holds the members' states, ``retained``
    ``(rounds, 2, M)`` the self-shares they kept, and ``shares``
    ``(rounds, 2, L)`` the shares on every edge with a member at either
    end.  Member columns follow ascending node id; ``links`` names the
    share columns as (sender, receiver) pairs in layout order.  The facts
    that everyone's weight sum is 1 every round and that w_m(k) = 1 for
    k <= K+1 are public knowledge, represented by ``params``.
    """

    members: frozenset[int]
    links: tuple[tuple[int, int], ...]
    graph: DirectedGraph
    params: WeightParams | None
    states: np.ndarray
    retained: np.ndarray
    shares: np.ndarray

    @property
    def n_rounds(self) -> int:
        return self.retained.shape[0]

    def link(self, sender: int, receiver: int) -> tuple[np.ndarray, np.ndarray]:
        """The (s, w) shares that crossed ``sender -> receiver``, per round."""
        try:
            pair = self.shares[:, :, self.links.index((sender, receiver))]
        except ValueError:
            raise TraceIncomplete(
                f"no member saw the shares node {sender} sent to node {receiver}"
            ) from None
        return pair[:, 0], pair[:, 1]


def build_adversary_view(record: RunRecord, members) -> AdversaryView:
    """Project a ground-truth run record onto what the given nodes saw."""
    member_set = frozenset(int(m) for m in members)
    if not member_set <= set(record.graph.nodes()):
        raise ConfigError(f"adversary members {sorted(member_set)} outside the graph")
    columns = sorted(member_set)
    layout = record.weights.layout
    is_member = np.zeros(record.graph.n_nodes, dtype=bool)
    is_member[columns] = True
    touched = np.flatnonzero(is_member[layout.senders] | is_member[layout.receivers])
    return AdversaryView(
        members=member_set,
        links=tuple(
            zip(layout.senders[touched].tolist(), layout.receivers[touched].tolist())
        ),
        graph=record.graph,
        params=record.params,
        states=record.trajectory.states[:, :, columns],
        retained=record.retained(columns),
        shares=record.edge_shares(touched),
    )


def attack_pushsum_baseline(view: AdversaryView) -> dict[int, float]:
    """Recover every in-neighbor's initial value from its first share pair.

    Works against the fixed-weight baseline, where the s and w shares of
    round 0 carry the same coupling weight: their ratio is x_j directly.
    """
    if view.n_rounds == 0:
        raise TraceIncomplete("no round-0 shares recorded")
    recovered: dict[int, float] = {}
    for member in sorted(view.members):
        for sender in view.graph.in_neighbors(member):
            s_sh, w_sh = view.link(sender, member)
            if w_sh[0] == 0.0:
                raise TraceIncomplete(
                    "round-0 w-share is zero; trace is not from the baseline protocol"
                )
            recovered[sender] = float(s_sh[0] / w_sh[0])
    return recovered


def _observations(
    view: AdversaryView, target: int, rounds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the view's links show of the target over rounds 0..rounds-1:
    ``(s_net, w_net, ratio)``, the net (s, w) flow into it each round
    (in-links by ascending sender, then out-links by ascending receiver,
    added one by one), and the share ratio s(k)/w(k) on its lowest observed
    out-link in the mixing rounds K+1..rounds-1, where both shares of a
    link carry the same weight.
    """
    if target in view.members:
        raise TopologyConditionUnmet("target must not belong to the colluding set")
    if view.params is None:
        raise TraceIncomplete("view lacks protocol parameters")
    if view.n_rounds < rounds:
        raise TraceIncomplete(
            f"attack needs at least {rounds} recorded rounds, view has {view.n_rounds}"
        )
    ins = sorted((s, c) for c, (s, r) in enumerate(view.links) if r == target)
    outs = sorted((r, c) for c, (s, r) in enumerate(view.links) if s == target)
    if not outs:
        raise TraceIncomplete(
            f"no observed out-link of node {target}; its share ratio is unseen"
        )
    shares = view.shares[:rounds]
    net = np.zeros(shares.shape[:2])
    for _, column in ins:
        net += shares[:, :, column]
    for _, column in outs:
        net -= shares[:, :, column]
    # The w shares are 0 in the masking rounds: divide only the mixing ones.
    mixing = shares[view.params.big_k + 1 :, :, outs[0][1]]
    return net[:, 0], net[:, 1], mixing[:, 0] / mixing[:, 1]


def _recover_via_telescope(view: AdversaryView, target: int) -> float:
    """Shared core of the exact-recovery attacks, valid once every neighbor
    of the target is a view member.

    The target's state change each round equals observed in-flows minus
    observed out-flows (its outgoing weights sum to 1).  Telescoping from
    w(0) = 1 rebuilds w(k) for all k; in the mixing phase the s/w share
    ratio on any observed out-link then exposes s(k); telescoping back down
    recovers s(0) = x0.
    """
    # Rounds 0..K+1; ``_observations`` refuses a view without parameters.
    probe_round = 0 if view.params is None else view.params.big_k + 1
    s_net, w_net, ratio = _observations(view, target, probe_round + 1)
    w_target = 1.0
    s_flow = 0.0
    # Added round by round: Python's sum() would compensate the round-off.
    for s_k, w_k in zip(s_net[:probe_round].tolist(), w_net[:probe_round].tolist()):
        s_flow += s_k
        w_target += w_k
    return float(ratio[0]) * w_target - s_flow


def attack_sole_neighbor(view: AdversaryView, target: int) -> float:
    """Exact recovery of the target's initial value by a single node that is
    the target's only in- and out-neighbor."""
    if len(view.members) != 1:
        raise TopologyConditionUnmet("this attack is for a single non-colluding node")
    (attacker,) = view.members
    if set(view.graph.out_neighbors(target)) != {attacker} or set(
        view.graph.in_neighbors(target)
    ) != {attacker}:
        raise TopologyConditionUnmet(
            f"node {attacker} is not the sole neighbor of node {target}; "
            "unique recovery is not guaranteed"
        )
    return _recover_via_telescope(view, target)


def attack_colluding_full_neighborhood(view: AdversaryView, target: int) -> float:
    """Exact recovery by a colluding set containing every in- and
    out-neighbor of the target."""
    neighborhood = set(view.graph.out_neighbors(target)) | set(
        view.graph.in_neighbors(target)
    )
    missing = neighborhood - view.members
    if missing:
        raise TopologyConditionUnmet(
            f"colluding set misses neighbors {sorted(missing)} of node {target}"
        )
    return _recover_via_telescope(view, target)


def attack_least_squares(view: AdversaryView, target: int, m_rounds: int) -> float:
    """Minimum-norm least-squares estimate of the target's initial value.

    The minimum-norm solution of the colluders' explicit system (kept as
    a reference in ``tests/reference_least_squares.py``) separates
    (Björck 1996, ch. 1-2).  The ratio row of round K+1 alone fixes
    s(K+1) = ratio_{K+1}; after that, s(0..K) and ds(0..K) appear only in
    value-balance rows 0..K, and no other unknown does.  So s(0) is the
    minimum-norm s(0) of those K+1 rows, A x = b with A = [D | I]:
    -s(k) + s(k+1) + ds(k) = s_net(k) for k < K, and
    -s(K) + ds(K) = s_net(K) - ratio_{K+1}.  That is s(0) = -y(0) for
    A A^T y = b, where A A^T = D D^T + I is tridiagonal (3 on the
    diagonal, 2 in its last entry, -1 beside it) with eigenvalues in
    [1, 5]: one well-conditioned solve at every K.

    The estimate reads only rounds 0..K+1, so it is the same for every
    ``m_rounds`` the view supports, at least K+2 and at most the rounds the
    view recorded minus one.  Always returns a number; how badly it
    scatters is the experiment's subject, not an error condition.
    """
    m = int(m_rounds)
    s_net, _, ratio = _observations(view, target, m + 1)
    big_k = view.params.big_k
    if m < big_k + 2:
        raise ConfigError(f"m_rounds={m} must be at least K+2={big_k + 2}")
    n = big_k + 1
    gram = 3.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    gram[-1, -1] = 2.0
    rhs = s_net[:n].copy()
    rhs[-1] -= ratio[0]
    return float(-np.linalg.solve(gram, rhs)[0])


def _baseline_leak(view: AdversaryView, target: int, _m_rounds: int) -> float:
    recovered = attack_pushsum_baseline(view)
    if target not in recovered:
        raise TraceIncomplete(
            f"node {target} sends to no member of {sorted(view.members)}; "
            "its round-0 shares are unseen"
        )
    return recovered[target]


# The attacks by config name, each as (view, target, m_rounds) -> the
# estimate of the target's initial value.
ATTACKS: dict[str, Callable[[AdversaryView, int, int], float]] = {
    "least_squares": attack_least_squares,
    "sole_neighbor": lambda view, target, _: attack_sole_neighbor(view, target),
    "full_neighborhood": lambda view, target, _: attack_colluding_full_neighborhood(
        view, target
    ),
    "baseline_leak": _baseline_leak,
}


@dataclass(frozen=True)
class Witness:
    """An alternative execution that reproduces the adversary's
    observations: other initial values, and ``round0_s``, the round-0 row of
    the value-side weight table (edge columns, then self columns, as in
    ``SenderLayout``) with the target's and the helper's weights
    rewritten."""

    x0: tuple[float, ...]
    round0_s: np.ndarray
    target: int
    helper: int
    alt_x0: float


def build_indistinguishability_witness(
    record: RunRecord, target: int, alt_x0: float, helper: int
) -> Witness:
    """Construct the coupling-weight rewrite that swaps the target's initial
    value for ``alt_x0`` while moving the difference onto ``helper``.

    ``helper`` must be a neighbor of the target (and, for the construction
    to prove anything, outside the adversary set).  Only round-0 value-side
    weights of the two nodes change, rescaled so every share keeps its
    value; every message an outsider to the pair can see is preserved.
    """
    g = record.graph
    out_nb = set(g.out_neighbors(target))
    if helper not in out_nb | set(g.in_neighbors(target)):
        raise ConfigError(f"node {helper} is not a neighbor of node {target}")
    x_t = record.x0[target]
    x_h = record.x0[helper]
    den_t = float(alt_x0)
    den_h = x_t + x_h - float(alt_x0)
    if den_t == 0.0 or den_h == 0.0:
        raise DegenerateDenominator(
            "alternative initial value makes a weight-rescaling denominator zero"
        )

    new_x0 = list(record.x0)
    new_x0[target] = float(alt_x0)
    new_x0[helper] = den_h

    # The shift rides on the shares both nodes send to one node: the
    # helper's own retained share when it is an out-neighbor of the target,
    # else the target's.
    absorber = helper if helper in out_nb else target
    layout = record.weights.layout
    old = record.weights.s[0]
    row = old.copy()
    shift = float(alt_x0) - x_t
    rescale = ((target, x_t, den_t, shift), (helper, x_h, den_h, -shift))
    for node, x, den, delta in rescale:
        cols = layout.columns(node)
        row[cols] = old[cols] * x / den
        col = layout.column(node, absorber)
        row[col] = (old[col] * x + delta) / den

    return Witness(
        x0=tuple(new_x0),
        round0_s=row,
        target=target,
        helper=helper,
        alt_x0=float(alt_x0),
    )


def replay_with_witness(record: RunRecord, witness: Witness) -> RunRecord:
    """Re-run the recorded protocol under the witness's initial values and
    round-0 value weights, keeping every other weight draw identical."""
    table = record.weights.table.copy()
    table[0, 0] = witness.round0_s
    return run_rounds(
        WeightTable(record.graph, table),
        list(witness.x0),
        params=record.params,
    )


# Largest relative deviation between two views that ``views_match`` calls
# the same view.
VIEW_TOL = 1e-9


def view_deviation(a: AdversaryView, b: AdversaryView) -> float:
    """The largest ``|b - a| / (1 + |a|)`` over the states, retained shares
    and shares of two views of the same members, links and rounds (nan when
    an entry is nan)."""
    pairs = ((a.states, b.states), (a.retained, b.retained), (a.shares, b.shares))
    worst = [np.max(np.abs(x - y) / (1.0 + np.abs(x)), initial=0.0) for x, y in pairs]
    return float(np.max(worst))


def views_match(a: AdversaryView, b: AdversaryView, tol: float = VIEW_TOL) -> bool:
    """True when two views show the same members and links over the same
    rounds, every entry of ``b`` within ``tol * (1 + |a|)`` of ``a``'s."""
    if (a.members, a.links, a.n_rounds) != (b.members, b.links, b.n_rounds):
        return False
    return view_deviation(a, b) <= tol


def export_attack_csv(path, rows: list[dict]) -> None:
    """Write attack trial results as (trial, seed, true_x0, estimate)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "true_x0", "estimate"])
        for row in rows:
            writer.writerow(
                [row["trial"], row["seed"], repr(row["true_x0"]), repr(row["estimate"])]
            )
