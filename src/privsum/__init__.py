"""Privacy-preserving average consensus on directed graphs.

Push-sum consensus where early rounds mask each node's value behind
unconstrained random coupling weights (while the weight side stays frozen),
and later rounds mix with shared weights drawn from (epsilon, 1).  The
network still agrees on the exact average, but an honest-but-curious
observer that misses even one neighbor of a node provably cannot bound that
node's initial value.  An optional Paillier layer hides shares from
link-level eavesdroppers.
"""
from .graph import (
    DirectedGraph,
    default_demo_graph,
    is_strongly_connected,
    max_out_degree,
    random_strongly_connected_graph,
)
from .weights import (
    WeightParams,
    derive_seed,
    generate_round_weights,
    node_rng,
    phase_b_map,
)
from .consensus import (
    NodeState,
    RunRecord,
    Trajectory,
    apply_round,
    default_pushsum_matrix,
    run_algorithm0,
    run_algorithm1,
    split_shares,
)
from .paillier import (
    Ciphertext,
    FixedPointCodec,
    PaillierKeypair,
    PaillierPublicKey,
    decrypt,
    encrypt,
    keygen,
    keypair_from_primes,
    smallest_key_bits,
)
from .adversary import (
    AdversaryView,
    attack_colluding_full_neighborhood,
    attack_least_squares,
    attack_pushsum_baseline,
    attack_sole_neighbor,
    build_adversary_view,
    build_indistinguishability_witness,
    replay_with_witness,
)
from .sim import (
    AdversarySpec,
    ExperimentConfig,
    MetricsSeries,
    error_series,
    run_experiment,
    transition_product,
)

__version__ = "0.1.0"
