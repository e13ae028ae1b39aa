"""What curious participants can and cannot learn.

Four scenes on the same 5-node graph:

1. Against the fixed-weight baseline, a node reads every in-neighbor's
   start value off the very first message (the share ratio cancels the
   weight).
2. If one node is the target's entire neighborhood, it can replay the flow
   balance and recover the target's start value exactly.
3. A colluding set covering every neighbor of the target does the same.
4. But if even one neighbor stays honest, the colluders' equation system is
   underdetermined: their best least-squares guesses scatter wildly, and an
   explicit witness shows their observations are consistent with any
   alternative start value.

Run:  python demos/02_inference_attacks.py
"""
import numpy as np

from privsum import (
    AdversarySpec,
    ExperimentConfig,
    WeightParams,
    attack_colluding_full_neighborhood,
    attack_least_squares,
    attack_pushsum_baseline,
    attack_sole_neighbor,
    build_adversary_view,
    build_indistinguishability_witness,
    default_demo_graph,
    replay_with_witness,
    run_algorithm0,
    run_algorithm1,
    run_experiment,
)
from privsum.adversary import views_match
from privsum.graph import DirectedGraph

graph = default_demo_graph()
x0 = [10.0, 15.0, 20.0, 25.0, 30.0]
params = WeightParams(big_k=1, epsilon=0.01)

print("scene 1: the baseline protocol leaks on contact")
record = run_algorithm0(graph, x0, rounds=3)
view = build_adversary_view(record, members=[3])
print(f"  node 3 recovers its in-neighbors from round 0: {attack_pushsum_baseline(view)}")
print()

print("scene 2: a sole neighbor pins the target down")
pair_graph = DirectedGraph.from_edge_list(3, [[0, 1], [1, 0], [1, 2], [2, 1]])
rec = run_algorithm1(pair_graph, [40.0, 3.0, 8.0], params, seed=5, rounds=10)
sole = attack_sole_neighbor(build_adversary_view(rec, members=[1]), target=0)
print(f"  node 1 (only neighbor of node 0) recovers x0[0] = {sole}")
print()

print("scene 3: a colluding full neighborhood pins the target down")
rec = run_algorithm1(graph, x0, params, seed=9, rounds=10)
full_view = build_adversary_view(rec, members=[1, 3, 4])
got = attack_colluding_full_neighborhood(full_view, target=0)
print(f"  nodes {{1, 3, 4}} (all neighbors of node 0) recover x0[0] = {got}")
print()

print("scene 4: one honest neighbor defeats the colluders")
estimates = []
for trial in range(60):
    config = ExperimentConfig(
        graph=graph,
        x0={"low": 0.0, "high": 50.0},
        big_k=1,
        epsilon=0.01,
        max_rounds=101,
        seed=4000 + trial,
        adversary=AdversarySpec(members=(1, 2, 3), target=0),
    )
    result = run_experiment(config, target_override=40.0)
    estimates.append(attack_least_squares(result.adversary_view, target=0, m_rounds=100))
arr = np.array(estimates)
print(
    f"  colluders {{1, 2, 3}} vs target 0 (true value 40), node 4 honest:\n"
    f"  60 least-squares estimates: mean {arr.mean():8.2f}, "
    f"std {arr.std(ddof=1):8.2f}, range [{arr.min():.1f}, {arr.max():.1f}]"
)

rec = run_algorithm1(graph, x0, params, seed=11, rounds=30)
witness = build_indistinguishability_witness(rec, target=0, alt_x0=-1234.5, helper=4)
replayed = replay_with_witness(rec, witness)
members = [1, 2, 3]
same = views_match(
    build_adversary_view(rec, members), build_adversary_view(replayed, members)
)
print(
    f"  witness: pretend x0[0] = -1234.5 (node 4 absorbs the difference) -> "
    f"colluders' observations identical: {same}"
)
print("  any value is consistent with what they saw; no range can be inferred.")
