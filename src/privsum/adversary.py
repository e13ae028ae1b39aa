"""Inference tooling for honest-but-curious nodes and wiretapping outsiders.

Everything an attack consumes must be reachable from an
:class:`AdversaryView`: the members' own states, the shares they sent (with
the weights they chose), the shares they received, the public protocol
parameters, and the topology.  Attacks never touch ground-truth node state.

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
from dataclasses import dataclass, replace

import numpy as np

from .consensus import RunRecord, ShareMessage, run_rounds
from .errors import (
    ConfigError,
    DegenerateDenominator,
    TopologyConditionUnmet,
    TraceIncomplete,
)
from .graph import DirectedGraph
from .weights import RoundWeights, WeightParams


@dataclass(frozen=True)
class AdversaryView:
    """The information set of a (possibly colluding) set of protocol nodes.

    All per-round logs are keyed by ``(member, round)``.  ``sent_shares``
    maps to ``{target: (s_share, w_share)}`` including the member's retained
    self-share; ``sent_weights`` holds the coupling weights the member chose.
    The facts that everyone's weight sum is 1 every round and that
    w_m(k) = 1 for k <= K+1 are public knowledge, represented by ``params``.
    """

    members: frozenset[int]
    graph: DirectedGraph
    params: WeightParams | None
    n_rounds: int
    state_log: dict[tuple[int, int], tuple[float, float]]
    sent_shares: dict[tuple[int, int], dict[int, tuple[float, float]]]
    sent_weights: dict[tuple[int, int], RoundWeights]
    recv_log: dict[tuple[int, int], list[ShareMessage]]

    def received_from(self, member: int, sender: int, round_k: int) -> ShareMessage:
        for msg in self.recv_log.get((member, round_k), []):
            if msg.sender == sender:
                return msg
        raise TraceIncomplete(
            f"member {member} holds no round-{round_k} share from {sender}"
        )

    def sent_to(self, member: int, target: int, round_k: int) -> tuple[float, float]:
        shares = self.sent_shares.get((member, round_k))
        if shares is None or target not in shares:
            raise TraceIncomplete(
                f"member {member} holds no round-{round_k} share sent to {target}"
            )
        return shares[target]


@dataclass(frozen=True)
class EavesdropperLog:
    """Everything a wiretapper of all links sees: the per-round wire
    messages (ciphertexts under the encrypted transport), the topology, and
    the public parameters.  No private keys, no node-internal state."""

    messages: list[list]
    topology: DirectedGraph
    params: WeightParams | None


def build_adversary_view(record: RunRecord, members) -> AdversaryView:
    """Project a ground-truth run record onto what the given nodes saw."""
    member_set = frozenset(int(m) for m in members)
    if not member_set <= set(record.graph.nodes()):
        raise ConfigError(f"adversary members {sorted(member_set)} outside the graph")
    state_log: dict[tuple[int, int], tuple[float, float]] = {}
    for k, row in enumerate(record.trajectory.states):
        for m in member_set:
            st = row[m]
            state_log[(m, k)] = (st.s, st.w)
    sent_shares: dict[tuple[int, int], dict[int, tuple[float, float]]] = {}
    sent_weights: dict[tuple[int, int], RoundWeights] = {}
    recv_log: dict[tuple[int, int], list[ShareMessage]] = {}
    for k in range(record.n_rounds):
        for m in member_set:
            sent_shares[(m, k)] = {m: record.retained(k, m)}
            sent_weights[(m, k)] = record.weight_log[k][m]
            recv_log[(m, k)] = []
        for msg in record.delivered_log[k]:
            if msg.sender in member_set:
                sent_shares[(msg.sender, k)][msg.receiver] = (msg.s_share, msg.w_share)
            if msg.receiver in member_set:
                recv_log[(msg.receiver, k)].append(msg)
    return AdversaryView(
        members=member_set,
        graph=record.graph,
        params=record.params,
        n_rounds=record.n_rounds,
        state_log=state_log,
        sent_shares=sent_shares,
        sent_weights=sent_weights,
        recv_log=recv_log,
    )


def build_eavesdropper_log(record: RunRecord) -> EavesdropperLog:
    return EavesdropperLog(
        messages=record.wire_log,
        topology=record.graph,
        params=record.params,
    )


def attack_pushsum_baseline(view: AdversaryView) -> dict[int, float]:
    """Recover every in-neighbor's initial value from its first share pair.

    Works against the fixed-weight baseline, where the s and w shares of
    round 0 carry the same coupling weight: their ratio is x_j directly.
    """
    recovered: dict[int, float] = {}
    for member in sorted(view.members):
        msgs = view.recv_log.get((member, 0))
        if msgs is None:
            raise TraceIncomplete(f"no round-0 messages recorded for member {member}")
        for msg in msgs:
            if msg.w_share == 0.0:
                raise TraceIncomplete(
                    "round-0 w-share is zero; trace is not from the baseline protocol"
                )
            recovered[msg.sender] = msg.s_share / msg.w_share
    return recovered


def _net_flow_terms(
    view: AdversaryView, target: int, round_k: int
) -> tuple[float, float]:
    """Observed net (s, w) flow into the target at one round: shares sent by
    hostile in-neighbors minus shares hostile out-neighbors received."""
    s_net = 0.0
    w_net = 0.0
    for n in view.graph.in_neighbors(target):
        if n in view.members:
            s_sh, w_sh = view.sent_to(n, target, round_k)
            s_net += s_sh
            w_net += w_sh
    for m in view.graph.out_neighbors(target):
        if m in view.members:
            msg = view.received_from(m, target, round_k)
            s_net -= msg.s_share
            w_net -= msg.w_share
    return s_net, w_net


def _recover_via_telescope(view: AdversaryView, target: int) -> float:
    """Shared core of the exact-recovery attacks, valid once every neighbor
    of the target is a view member.

    The target's state change each round equals observed in-flows minus
    observed out-flows (its outgoing weights sum to 1).  Telescoping from
    w(0) = 1 rebuilds w(k) for all k; in the mixing phase the s/w share
    ratio then exposes s(k); telescoping back down recovers s(0) = x0.
    """
    if view.params is None:
        raise TraceIncomplete("view lacks protocol parameters")
    big_k = view.params.big_k
    probe_round = big_k + 1
    if view.n_rounds < probe_round + 1:
        raise TraceIncomplete(
            f"attack needs at least {probe_round + 1} recorded rounds, "
            f"view has {view.n_rounds}"
        )
    w_target = 1.0
    s_flow = 0.0
    for k in range(probe_round):
        s_net, w_net = _net_flow_terms(view, target, k)
        s_flow += s_net
        w_target += w_net
    # Any hostile out-neighbor's received pair reveals s(k)/w(k) in the
    # mixing phase, where both shares carry the same weight.
    observer = min(m for m in view.graph.out_neighbors(target) if m in view.members)
    msg = view.received_from(observer, target, probe_round)
    s_target = msg.s_share / msg.w_share * w_target
    return s_target - s_flow


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
    if target in view.members:
        raise TopologyConditionUnmet("target must not belong to the colluding set")
    neighborhood = set(view.graph.out_neighbors(target)) | set(
        view.graph.in_neighbors(target)
    )
    missing = neighborhood - view.members
    if missing:
        raise TopologyConditionUnmet(
            f"colluding set misses neighbors {sorted(missing)} of node {target}"
        )
    return _recover_via_telescope(view, target)


@dataclass
class LeastSquaresSystem:
    """The colluders' linear system in the target's hidden quantities.

    Unknown layout: s(0..M+1), then the per-round unobserved net s-outflow
    ds(0..M), then w(K+2..M+1), then the unobserved net w-outflow
    dw(K+1..M).  Row count 3M-2K+1, unknown count 4M-2K+3: strictly
    underdetermined, so the solve below picks the minimum-norm solution.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    m_rounds: int
    big_k: int

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

    Needs the view to cover m_rounds + 1 exchange rounds and at least one
    hostile out-neighbor of the target (whose received share pair provides
    the mixing-phase estimate ratio).
    """
    if view.params is None:
        raise TraceIncomplete("view lacks protocol parameters")
    big_k = view.params.big_k
    m = int(m_rounds)
    if m < big_k + 2:
        raise ConfigError(f"m_rounds={m} must be at least K+2={big_k + 2}")
    if view.n_rounds < m + 1:
        raise TraceIncomplete(
            f"system over {m + 1} rounds needs {m + 1} recorded rounds, "
            f"view has {view.n_rounds}"
        )
    observed_out = [
        o for o in view.graph.out_neighbors(target) if o in view.members
    ]
    if not observed_out:
        raise TraceIncomplete(
            "no hostile out-neighbor of the target; the ratio equations "
            "cannot be formed"
        )
    observer = min(observed_out)

    n_s = m + 2          # s(0..M+1)
    n_ds = m + 1         # ds(0..M)
    n_w = m - big_k      # w(K+2..M+1)
    n_dw = m - big_k     # dw(K+1..M)
    n_unknowns = n_s + n_ds + n_w + n_dw

    def s_idx(k: int) -> int:
        return k

    def ds_idx(k: int) -> int:
        return n_s + k

    def w_idx(k: int) -> int:
        return n_s + n_ds + (k - big_k - 2)

    def dw_idx(k: int) -> int:
        return n_s + n_ds + n_w + (k - big_k - 1)

    rows: list[np.ndarray] = []
    rhs: list[float] = []

    # Value balance, every round: s(k+1) - s(k) + ds(k) = observed net flow.
    for k in range(m + 1):
        row = np.zeros(n_unknowns)
        row[s_idx(k + 1)] = 1.0
        row[s_idx(k)] = -1.0
        row[ds_idx(k)] = 1.0
        s_net, _ = _net_flow_terms(view, target, k)
        rows.append(row)
        rhs.append(s_net)

    # Weight balance, mixing phase only; w(K+1) = 1 is public knowledge.
    for k in range(big_k + 1, m + 1):
        row = np.zeros(n_unknowns)
        _, w_net = _net_flow_terms(view, target, k)
        b = w_net
        if k == big_k + 1:
            b += 1.0
        else:
            row[w_idx(k)] = -1.0
        row[w_idx(k + 1)] = 1.0
        row[dw_idx(k)] = 1.0
        rows.append(row)
        rhs.append(b)

    # Ratio constraint: in the mixing phase both shares carry one weight,
    # so the observed share ratio equals s(k)/w(k).
    for k in range(big_k + 1, m + 1):
        msg = view.received_from(observer, target, k)
        ratio = msg.s_share / msg.w_share
        row = np.zeros(n_unknowns)
        row[s_idx(k)] = 1.0
        b = 0.0
        if k == big_k + 1:
            b = ratio
        else:
            row[w_idx(k)] = -ratio
        rows.append(row)
        rhs.append(b)

    return LeastSquaresSystem(
        matrix=np.array(rows), rhs=np.array(rhs), m_rounds=m, big_k=big_k
    )


def attack_least_squares(view: AdversaryView, target: int, m_rounds: int) -> float:
    """Minimum-norm least-squares estimate of the target's initial value.

    Always returns a number; how badly it scatters is the experiment's
    subject, not an error condition.
    """
    system = build_least_squares_system(view, target, m_rounds)
    solution, *_ = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)
    return float(solution[system.s0_index])


@dataclass(frozen=True)
class Witness:
    """An alternative execution (initial values plus round-0 value-side
    weights for two nodes) that reproduces the adversary's observations."""

    x0: tuple[float, ...]
    round0_s_weights: dict[int, RoundWeights]
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
    weights of the two nodes change; every message an outsider to the pair
    can see is preserved.
    """
    g = record.graph
    out_nb = set(g.out_neighbors(target))
    in_nb = set(g.in_neighbors(target))
    if helper not in out_nb | in_nb:
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

    w_target = record.weight_log[0][target]
    w_helper = record.weight_log[0][helper]
    shift = float(alt_x0) - x_t

    new_target_s = {}
    for dest, p in w_target.s_weights.items():
        if helper in out_nb and dest == helper:
            new_target_s[dest] = (p * x_t + shift) / den_t
        elif helper not in out_nb and dest == target:
            new_target_s[dest] = (p * x_t + shift) / den_t
        else:
            new_target_s[dest] = p * x_t / den_t

    new_helper_s = {}
    for dest, p in w_helper.s_weights.items():
        if helper in out_nb:
            changed = dest == helper  # helper's own retained share absorbs it
        else:
            changed = dest == target  # helper's share to the target absorbs it
        if changed:
            new_helper_s[dest] = (p * x_h - shift) / den_h
        else:
            new_helper_s[dest] = p * x_h / den_h

    return Witness(
        x0=tuple(new_x0),
        round0_s_weights={
            target: replace(w_target, s_weights=new_target_s),
            helper: replace(w_helper, s_weights=new_helper_s),
        },
        target=target,
        helper=helper,
        alt_x0=float(alt_x0),
    )


def replay_with_witness(record: RunRecord, witness: Witness) -> RunRecord:
    """Re-run the recorded protocol under the witness's initial values and
    round-0 value weights, keeping every other weight draw identical."""

    def source(node_id: int, round_k: int) -> RoundWeights:
        if round_k == 0 and node_id in witness.round0_s_weights:
            return witness.round0_s_weights[node_id]
        return record.weight_log[round_k][node_id]

    return run_rounds(
        record.graph,
        list(witness.x0),
        rounds=record.n_rounds,
        weight_source=source,
        params=record.params,
        mode=record.mode,
    )


def adversary_observables(
    record: RunRecord, members
) -> list[tuple[tuple[int, int, int, int], float, float]]:
    """Flatten everything the member set observes into a comparable list:
    message entries keyed (round, 0, sender, receiver) and member state
    entries keyed (round, 1, member, member)."""
    member_set = frozenset(int(m) for m in members)
    entries: list[tuple[tuple[int, int, int, int], float, float]] = []
    for k in range(record.n_rounds):
        for msg in record.delivered_log[k]:
            if msg.sender in member_set or msg.receiver in member_set:
                entries.append(
                    ((k, 0, msg.sender, msg.receiver), msg.s_share, msg.w_share)
                )
        for m in member_set:
            entries.append(((k, 1, m, m), *record.retained(k, m)))
    for k, row in enumerate(record.trajectory.states):
        for m in member_set:
            entries.append(((k, 2, m, m), row[m].s, row[m].w))
    return sorted(entries, key=lambda item: item[0])


def observables_match(
    a: list[tuple[tuple[int, int, int, int], float, float]],
    b: list[tuple[tuple[int, int, int, int], float, float]],
    tol: float = 1e-9,
) -> bool:
    """Compare two observation lists element-wise within a tolerance."""
    if len(a) != len(b):
        return False
    for (key_a, s_a, w_a), (key_b, s_b, w_b) in zip(a, b):
        if key_a != key_b:
            return False
        if abs(s_a - s_b) > tol * (1.0 + abs(s_a)) or abs(w_a - w_b) > tol * (
            1.0 + abs(w_a)
        ):
            return False
    return True


def export_attack_csv(path, rows: list[dict]) -> None:
    """Write attack trial results as (trial, seed, true_x0, estimate)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "true_x0", "estimate"])
        for row in rows:
            writer.writerow(
                [row["trial"], row["seed"], repr(row["true_x0"]), repr(row["estimate"])]
            )
