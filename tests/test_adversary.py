from dataclasses import replace
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
import yaml

from privsum.adversary import (
    attack_colluding_full_neighborhood,
    attack_least_squares,
    attack_pushsum_baseline,
    attack_sole_neighbor,
    build_adversary_view,
    build_indistinguishability_witness,
    replay_with_witness,
    views_match,
)
from privsum.consensus import run_algorithm0, run_algorithm1
from privsum.errors import (
    DegenerateDenominator,
    TopologyConditionUnmet,
    TraceIncomplete,
)
from privsum.graph import DirectedGraph, default_demo_graph
from privsum.sim import AdversarySpec, ExperimentConfig, run_experiment
from privsum.weights import WeightParams
from reference_least_squares import build_least_squares_system

TWO_NODE = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
PARAMS = WeightParams(big_k=1, epsilon=0.05)


def test_baseline_leak_recovers_in_neighbors(demo_graph, demo_x0):
    rec = run_algorithm0(demo_graph, demo_x0, rounds=5)
    view = build_adversary_view(rec, [3])
    recovered = attack_pushsum_baseline(view)
    # node 3's in-neighbors are 2 and 4
    assert recovered == {2: 20.0, 4: 30.0}


def test_baseline_leak_ratio_cancels_weight():
    rec = run_algorithm0(TWO_NODE, [7.0, 1.0], rounds=3)
    view = build_adversary_view(rec, [1])
    assert attack_pushsum_baseline(view)[0] == 7.0


def test_baseline_leak_rejects_masked_trace(demo_graph, demo_x0):
    rec = run_algorithm1(demo_graph, demo_x0, PARAMS, seed=1, rounds=5)
    view = build_adversary_view(rec, [3])
    with pytest.raises(TraceIncomplete):
        attack_pushsum_baseline(view)


def test_sole_neighbor_recovery_two_nodes():
    rec = run_algorithm1(TWO_NODE, [40.0, 3.0], PARAMS, seed=5, rounds=8)
    view = build_adversary_view(rec, [1])
    assert attack_sole_neighbor(view, 0) == pytest.approx(40.0, abs=1e-9)


def test_sole_neighbor_zero_value():
    rec = run_algorithm1(TWO_NODE, [0.0, 3.0], PARAMS, seed=6, rounds=8)
    view = build_adversary_view(rec, [1])
    assert attack_sole_neighbor(view, 0) == pytest.approx(0.0, abs=1e-9)


def test_sole_neighbor_three_node_chain():
    # 0 <-> 1 <-> 2: node 1 is the sole neighbor of node 0
    g = DirectedGraph.from_edge_list(3, [[0, 1], [1, 0], [1, 2], [2, 1]])
    x0 = [13.5, -2.0, 88.0]
    rec = run_algorithm1(g, x0, PARAMS, seed=7, rounds=10)
    view = build_adversary_view(rec, [1])
    got = attack_sole_neighbor(view, 0)
    assert got == pytest.approx(13.5, abs=1e-9)
    assert abs(got - x0[2]) > 1.0  # nothing about the third node leaks out


def test_sole_neighbor_guard(demo_graph, demo_x0):
    rec = run_algorithm1(demo_graph, demo_x0, PARAMS, seed=8, rounds=8)
    view = build_adversary_view(rec, [1])
    with pytest.raises(TopologyConditionUnmet):
        attack_sole_neighbor(view, 0)  # node 0 also talks to nodes 3 and 4
    view2 = build_adversary_view(rec, [1, 3])
    with pytest.raises(TopologyConditionUnmet):
        attack_sole_neighbor(view2, 0)  # not a single-node view


def test_colluding_recovery(demo_graph):
    x0 = [-7.5, 15.0, 20.0, 25.0, 30.0]
    rec = run_algorithm1(demo_graph, x0, PARAMS, seed=9, rounds=10)
    view = build_adversary_view(rec, [1, 3, 4])  # all neighbors of node 0
    assert attack_colluding_full_neighborhood(view, 0) == pytest.approx(-7.5, abs=1e-9)


def test_colluding_guard_missing_neighbor(demo_graph, demo_x0):
    rec = run_algorithm1(demo_graph, demo_x0, PARAMS, seed=10, rounds=10)
    view = build_adversary_view(rec, [1, 3])  # out-neighbor 4 not hostile
    with pytest.raises(TopologyConditionUnmet):
        attack_colluding_full_neighborhood(view, 0)
    view2 = build_adversary_view(rec, [0, 1, 3, 4])
    with pytest.raises(TopologyConditionUnmet):
        attack_colluding_full_neighborhood(view2, 0)  # target inside the set


def _fig3_style_result(seed, true_x0, m_rounds=100, big_k=1):
    cfg = ExperimentConfig(
        graph=default_demo_graph(),
        x0={"low": 0.0, "high": 50.0},
        big_k=big_k,
        epsilon=0.01,
        max_rounds=m_rounds + 1,
        seed=seed,
        adversary=AdversarySpec(members=(1, 2, 3), target=0),
    )
    return run_experiment(cfg, target_override=true_x0)


def test_least_squares_system_dimensions():
    res = _fig3_style_result(seed=100, true_x0=40.0)
    system = build_least_squares_system(res.adversary_view, 0, 100)
    assert system.n_equations == 3 * 100 - 2 * 1 + 1 == 299
    assert system.n_unknowns == 4 * 100 - 2 * 1 + 3 == 401
    assert np.linalg.matrix_rank(system.matrix) < system.n_unknowns


@pytest.mark.parametrize("m_rounds,big_k", [(60, 3), (30, 0)])
def test_least_squares_dimensions_general(m_rounds, big_k):
    res = _fig3_style_result(seed=101, true_x0=40.0, m_rounds=m_rounds, big_k=big_k)
    system = build_least_squares_system(res.adversary_view, 0, m_rounds)
    assert system.n_equations == 3 * m_rounds - 2 * big_k + 1
    assert system.n_unknowns == 4 * m_rounds - 2 * big_k + 3


def test_least_squares_true_solution_satisfies_system():
    """The assembled equations must hold exactly on the hidden ground truth."""
    res = _fig3_style_result(seed=102, true_x0=40.0, m_rounds=20)
    record = res.record
    system = build_least_squares_system(res.adversary_view, 0, 20)
    m, big_k = 20, 1
    s = record.trajectory.s[:, 0]
    w = record.trajectory.w[:, 0]
    layout = record.weights.layout
    # the link 0 -> 4: node 4 stays honest
    (hidden,) = np.flatnonzero((layout.senders == 0) & (layout.receivers == 4))
    truth = np.zeros(system.n_unknowns)
    truth[0 : m + 2] = s[: m + 2]
    for k in range(m + 1):
        truth[m + 2 + k] = record.shares[k, 0, hidden]
    for k in range(big_k + 2, m + 2):
        truth[2 * m + 3 + (k - big_k - 2)] = w[k]
    for k in range(big_k + 1, m + 1):
        truth[2 * m + 3 + (m - big_k) + (k - big_k - 1)] = record.shares[k, 1, hidden]
    residual = system.matrix @ truth - system.rhs
    assert np.max(np.abs(residual)) < 1e-8


def test_least_squares_estimates_scatter():
    estimates = [
        attack_least_squares(_fig3_style_result(seed=200 + t, true_x0=40.0).adversary_view, 0, 100)
        for t in range(40)
    ]
    arr = np.array(estimates)
    assert arr.std(ddof=1) > 1.0
    assert (arr > 0).any() and (arr < 0).any()


def test_witness_identity_perturbation(demo_graph, demo_x0):
    rec = run_algorithm1(demo_graph, demo_x0, PARAMS, seed=11, rounds=10)
    witness = build_indistinguishability_witness(rec, 0, demo_x0[0], helper=4)
    assert witness.x0 == tuple(demo_x0)
    np.testing.assert_allclose(witness.round0_s, rec.weights.s[0], rtol=1e-12, atol=0.0)


def test_witness_preserves_total(demo_graph, demo_x0):
    rec = run_algorithm1(demo_graph, demo_x0, PARAMS, seed=12, rounds=10)
    witness = build_indistinguishability_witness(rec, 0, -3.25, helper=4)
    assert sum(witness.x0) == pytest.approx(sum(demo_x0), abs=1e-9)
    assert witness.x0[0] == -3.25


@pytest.mark.parametrize("helper,case", [(4, "out-neighbor"), (3, "in-neighbor")])
def test_witness_replay_preserves_adversary_view(demo_graph, demo_x0, helper, case):
    rec = run_algorithm1(demo_graph, demo_x0, PARAMS, seed=13, rounds=25)
    witness = build_indistinguishability_witness(rec, 0, 23.0, helper=helper)
    replayed = replay_with_witness(rec, witness)
    members = [v for v in demo_graph.nodes() if v not in (0, helper)]
    assert views_match(
        build_adversary_view(rec, members),
        build_adversary_view(replayed, members),
        tol=1e-9,
    ), f"view changed for helper as {case}"
    # the witness still reaches agreement on the same average
    np.testing.assert_allclose(
        replayed.trajectory.s.sum(axis=1), sum(demo_x0), rtol=1e-9
    )


@pytest.mark.parametrize("helper", [4, 3])
def test_witness_replay_shows_in_helpers_view(demo_graph, demo_x0, helper):
    """Once the helper colludes too, the rewrite of its weights is in plain
    sight: the witness check must fail."""
    rec = run_algorithm1(demo_graph, demo_x0, PARAMS, seed=13, rounds=25)
    witness = build_indistinguishability_witness(rec, 0, 23.0, helper=helper)
    replayed = replay_with_witness(rec, witness)
    members = [v for v in demo_graph.nodes() if v != 0]
    assert not views_match(
        build_adversary_view(rec, members), build_adversary_view(replayed, members)
    )


def test_witness_handles_zero_valued_target(demo_graph):
    x0 = [0.0, 15.0, 20.0, 25.0, 30.0]
    rec = run_algorithm1(demo_graph, x0, PARAMS, seed=21, rounds=20)
    witness = build_indistinguishability_witness(rec, 0, 55.5, helper=4)
    replayed = replay_with_witness(rec, witness)
    members = [1, 2, 3]
    assert views_match(
        build_adversary_view(rec, members), build_adversary_view(replayed, members)
    )


def test_witness_degenerate_denominators(demo_graph, demo_x0):
    rec = run_algorithm1(demo_graph, demo_x0, PARAMS, seed=14, rounds=8)
    with pytest.raises(DegenerateDenominator):
        build_indistinguishability_witness(rec, 0, 0.0, helper=4)
    collision = demo_x0[0] + demo_x0[4]  # makes the helper's new value zero
    with pytest.raises(DegenerateDenominator):
        build_indistinguishability_witness(rec, 0, collision, helper=4)


def test_view_contains_only_member_data(demo_graph, demo_x0):
    rec = run_algorithm1(demo_graph, demo_x0, PARAMS, seed=15, rounds=6)
    view = build_adversary_view(rec, [2])
    assert view.members == frozenset({2})
    assert view.states.shape[2] == view.retained.shape[2] == 1
    assert all(2 in link for link in view.links)
    with pytest.raises(TraceIncomplete):
        view.link(0, 4)
    # a lone node 2 saw nothing that pins down node 0's start value
    with pytest.raises(TopologyConditionUnmet):
        attack_sole_neighbor(view, 0)
    with pytest.raises(TraceIncomplete, match="no observed out-link of node 0"):
        attack_least_squares(view, 0, 5)


def test_exact_recovery_refuses_a_view_it_cannot_read(demo_graph, demo_x0):
    # the telescope reads rounds 0..K+1: with K = 1, two rounds are too few
    rec = run_algorithm1(TWO_NODE, [40.0, 3.0], PARAMS, seed=5, rounds=2)
    with pytest.raises(TraceIncomplete, match="at least 3 recorded rounds"):
        attack_sole_neighbor(build_adversary_view(rec, [1]), 0)
    # the baseline protocol's record carries no protocol parameters
    rec = run_algorithm0(demo_graph, demo_x0, rounds=5)
    with pytest.raises(TraceIncomplete, match="lacks protocol parameters"):
        attack_colluding_full_neighborhood(build_adversary_view(rec, [1, 3, 4]), 0)


@pytest.mark.parametrize("m_rounds,big_k", [(100, 1), (60, 3), (30, 0)])
def test_least_squares_attack_matches_lstsq_on_the_explicit_system(m_rounds, big_k):
    """The reduced solve returns the s0 entry of the SVD's minimum-norm
    solution: within 1e-9 on fig3's (100, 1), elsewhere within 1e-9
    relative to |s0| (the masking phase makes s0 reach the thousands)."""
    for seed in range(300, 340):
        view = _fig3_style_result(
            seed=seed, true_x0=40.0, m_rounds=m_rounds, big_k=big_k
        ).adversary_view
        system = build_least_squares_system(view, 0, m_rounds)
        solution, *_ = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)
        s0 = solution[system.s0_index]
        tol = 1e-9 if (m_rounds, big_k) == (100, 1) else 1e-9 * max(1.0, abs(s0))
        assert abs(attack_least_squares(view, 0, m_rounds) - s0) <= tol, seed


def _count_lstsq(monkeypatch):
    calls = []
    real = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    return calls


def _exact_min_norm_s0(system):
    """s(0) of the minimum-norm solution A^T y, (A A^T) y = b, in exact
    rational arithmetic on the system's float entries."""
    a = [[Fraction(v) for v in row] for row in system.matrix.tolist()]
    b = [Fraction(v) for v in system.rhs.tolist()]
    n = len(a)
    support = [[j for j, v in enumerate(row) if v] for row in a]
    gram = [[sum((a[i][j] * a[r][j] for j in support[i]), Fraction(0)) for r in range(n)]
            for i in range(n)]
    for p in range(n):
        for r in range(p + 1, n):
            f = gram[r][p] / gram[p][p]
            if f:
                for c in range(p, n):
                    gram[r][c] -= f * gram[p][c]
                b[r] -= f * b[p]
    y = [Fraction(0)] * n
    for p in reversed(range(n)):
        tail = sum((gram[p][c] * y[c] for c in range(p + 1, n)), Fraction(0))
        y[p] = (b[p] - tail) / gram[p][p]
    return float(sum((a[i][0] * y[i] for i in range(n)), Fraction(0)))


def test_least_squares_attack_matches_the_exact_minimum_norm_s0(monkeypatch):
    """At large K the masking phase inflates the share ratios, and with
    them the explicit system's condition number; the attack's (K+1)-unknown
    solve stays within round-off of the exact answer, and never calls
    ``lstsq``."""
    calls = _count_lstsq(monkeypatch)
    for m_rounds, big_k in ((17, 15), (20, 9)):
        for seed in (300, 301, 302):
            view = _fig3_style_result(
                seed=seed, true_x0=40.0, m_rounds=m_rounds, big_k=big_k
            ).adversary_view
            exact = _exact_min_norm_s0(build_least_squares_system(view, 0, m_rounds))
            got = attack_least_squares(view, 0, m_rounds)
            assert abs(got - exact) <= 1e-12 * abs(exact), (m_rounds, big_k, seed)
    attack_least_squares(_fig3_style_result(seed=341, true_x0=-40.0).adversary_view, 0, 100)
    assert calls == []

    # The estimate reads rounds 0..K+1 only: every valid m_rounds agrees.
    view = _fig3_style_result(seed=341, true_x0=-40.0, m_rounds=30, big_k=15).adversary_view
    assert attack_least_squares(view, 0, 17) == attack_least_squares(view, 0, 30)


def test_least_squares_certificate_ignores_the_topology():
    """On fig3 (seed 77) s0 lies outside the row space of the colluders'
    system, both when node 4 stays honest and when the colluders are all
    of node 0's neighbours: the equations never use the topology.  The
    telescope attack, which does, decides the leaking side."""
    text = resources.files("privsum").joinpath("presets/fig3.yaml").read_text()
    fig3 = ExperimentConfig.from_dict(yaml.safe_load(text))
    m_rounds = fig3.max_rounds - 1
    for members in ((1, 2, 3), (1, 3, 4)):
        config = replace(fig3, seed=77, adversary=AdversarySpec(members=members, target=0))
        view = run_experiment(config, target_override=40.0).adversary_view
        system = build_least_squares_system(view, 0, m_rounds)
        e_s0 = np.zeros(system.n_unknowns)
        e_s0[system.s0_index] = 1.0
        assert np.linalg.matrix_rank(system.matrix) == system.n_equations == 299, members
        assert np.linalg.matrix_rank(np.vstack((system.matrix, e_s0))) == 300, members
        if 4 in members:
            assert attack_colluding_full_neighborhood(view, 0) == pytest.approx(40.0, abs=1e-9)
        else:
            with pytest.raises(TopologyConditionUnmet):
                attack_colluding_full_neighborhood(view, 0)


@pytest.mark.parametrize("mode", ["algorithm1", "algorithm2-simulated"])
def test_a_view_computes_only_its_own_columns(demo_graph, demo_x0, mode):
    """A view holds bit for bit the slices of the record's full share and
    retained arrays, and building one leaves a plain record's shares
    uncomputed."""
    config = ExperimentConfig(
        graph=demo_graph, x0=demo_x0, max_rounds=6, seed=4,
        mode=mode, key_bits=128, fractional_bits=32,
    )
    record = run_experiment(config).record
    view = build_adversary_view(record, [3, 1])
    if mode == "algorithm1":
        assert "shares" not in record.__dict__
    layout = record.weights.layout
    touched = [layout.column(s, r) for s, r in view.links]
    assert view.shares.tobytes() == record.shares[:, :, touched].tobytes()
    assert view.retained.tobytes() == record.retained()[:, :, [1, 3]].tobytes()
    assert view.states.tobytes() == record.trajectory.states[:, :, [1, 3]].tobytes()
