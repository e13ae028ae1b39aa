"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here and must not be loosened."""
import random
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest
import yaml

from privsum.adversary import (
    attack_colluding_full_neighborhood,
    attack_least_squares,
    attack_sole_neighbor,
    build_adversary_view,
    build_indistinguishability_witness,
    replay_with_witness,
    views_match,
)
from privsum.consensus import run_algorithm1
from privsum.errors import MalformedCiphertext
from privsum.graph import (
    DirectedGraph,
    default_demo_graph,
    random_strongly_connected_graph,
)
from privsum.net import run_local_cluster
from privsum.paillier import (
    Ciphertext,
    FixedPointCodec,
    add_ciphertexts,
    decrypt,
    encrypt,
    keygen,
    keypair_from_primes,
)
from privsum.sim import (
    MODE_ALGORITHM0,
    MODE_ALGORITHM1,
    MODE_ALGORITHM2,
    AdversarySpec,
    ExperimentConfig,
    fitted_contraction,
    node_keypairs,
    run_experiment,
    theoretical_rate,
)
from privsum.weights import WeightParams
from reference_least_squares import build_least_squares_system

X0 = [10.0, 15.0, 20.0, 25.0, 30.0]


@contextmanager
def report(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}", flush=True)
        raise
    print(f"PASS criterion {number}: {description}", flush=True)


def demo_config(**overrides):
    base = dict(
        graph=default_demo_graph(),
        x0=list(X0),
        big_k=1,
        epsilon=0.01,
        phase_a_range=10.0,
        max_rounds=100,
        seed=1,
        mode=MODE_ALGORITHM1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_01_convergence_to_exact_average():
    with report(1, "five nodes reach the exact average 20 within 1e-6 by round 100"):
        start = time.perf_counter()
        res = run_experiment(demo_config())
        elapsed = time.perf_counter() - start
        assert res.record.n_rounds == 100
        final_pi = res.record.final_pi()
        assert np.all(np.abs(final_pi - 20.0) < 1e-6), final_pi
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def _fig2_configs():
    text = resources.files("privsum").joinpath("presets/fig2.yaml").read_text()
    raw = yaml.safe_load(text)
    ks = raw.pop("big_k")
    return [ExperimentConfig.from_dict({**raw, "big_k": k}) for k in ks]


def test_criterion_02_delayed_convergence_onset():
    with report(2, "K in {1,5,9}: e(200) < 1e-6 and w has exact ones through K+1"):
        start = time.perf_counter()
        for config in _fig2_configs():
            res = run_experiment(config)
            assert res.metrics.e[-1] < 1e-6, (config.big_k, res.metrics.e[-1])
            w = res.record.trajectory.w
            assert np.all(w[: config.big_k + 2] == 1.0), config.big_k
        assert time.perf_counter() - start < 5.0


def test_criterion_03_weight_lower_bound():
    with report(3, "100 seeded runs on N in {3,5,8}: w never drops below eps^N"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        runs = 0
        while runs < 100:
            n = int(rng.choice([3, 5, 8]))
            g = random_strongly_connected_graph(n, rng)
            eps = 0.5 / (max(g.out_degree(i) for i in g.nodes()) + 1)
            big_k = int(rng.integers(0, 4))
            params = WeightParams(big_k=big_k, epsilon=eps)
            rec = run_algorithm1(
                g,
                rng.uniform(-50, 50, size=n).tolist(),
                params,
                seed=int(rng.integers(0, 2**31)),
                rounds=big_k + 2 + 12,
            )
            w = rec.trajectory.w
            assert np.all(w[: big_k + 2] == 1.0)
            assert w[big_k + 2 :].min() >= eps**n, (n, eps, big_k)
            runs += 1
        assert time.perf_counter() - start < 30.0


def test_criterion_04_contraction_rate_bound():
    with report(4, "fitted late-stage contraction of e(k) stays within the bound"):
        gamma = theoretical_rate(5, 0.01)
        assert gamma == pytest.approx((1.0 - 1e-8) ** 0.25, abs=1e-15)
        res = run_experiment(demo_config())
        assert fitted_contraction(res.metrics.e) <= gamma
        for config in _fig2_configs():
            res = run_experiment(config)
            assert fitted_contraction(res.metrics.e) <= gamma, config.big_k


def test_criterion_05_mass_conservation_everywhere():
    with report(5, "sum of s stays at sum of x0 every round in every mode"):
        matrix = [
            demo_config(mode=MODE_ALGORITHM0),
            demo_config(mode=MODE_ALGORITHM1),
            demo_config(mode=MODE_ALGORITHM2, key_bits=256, max_rounds=60),
            demo_config(big_k=5, seed=9, max_rounds=80),
            demo_config(big_k=0, seed=10),
        ]
        rng = np.random.default_rng(505)
        for n in (3, 8):
            g = random_strongly_connected_graph(n, rng)
            matrix.append(
                demo_config(
                    graph=g,
                    x0=rng.uniform(-50, 50, size=n).tolist(),
                    epsilon=0.4 / (max(g.out_degree(i) for i in g.nodes()) + 1),
                    max_rounds=50,
                )
            )
        for config in matrix:
            res = run_experiment(config)
            totals = res.record.trajectory.s.sum(axis=1)
            target = sum(res.record.x0)
            bound = 1e-9 * (1.0 + abs(target))
            assert np.max(np.abs(totals - target)) <= bound, config.mode


def _sole_neighbor_instance(rng):
    """Random graph where node 0's only neighbor is node 1."""
    n_rest = int(rng.integers(2, 7))
    inner = random_strongly_connected_graph(n_rest, rng)
    edges = [[i + 1, j + 1] for i, j in inner.edges]
    edges += [[0, 1], [1, 0]]
    return DirectedGraph.from_edge_list(n_rest + 1, edges)


def test_criterion_06_exact_recovery_attacks():
    with report(6, "sole-neighbor and full-neighborhood attacks recover x0 exactly"):
        rng = np.random.default_rng(606)
        for _ in range(100):
            g = _sole_neighbor_instance(rng)
            x0 = rng.uniform(-50, 50, size=g.n_nodes).tolist()
            big_k = int(rng.integers(0, 3))
            eps = 0.5 / (max(g.out_degree(i) for i in g.nodes()) + 1)
            rec = run_algorithm1(
                g, x0, WeightParams(big_k, eps), seed=int(rng.integers(0, 2**31)),
                rounds=big_k + 4,
            )
            got = attack_sole_neighbor(build_adversary_view(rec, [1]), 0)
            assert abs(got - x0[0]) <= 1e-6 * (1.0 + abs(x0[0]))
        for _ in range(100):
            n = int(rng.integers(4, 9))
            g = random_strongly_connected_graph(n, rng)
            target = int(rng.integers(0, n))
            members = sorted(
                set(g.out_neighbors(target)) | set(g.in_neighbors(target))
            )
            x0 = rng.uniform(-50, 50, size=n).tolist()
            big_k = int(rng.integers(0, 3))
            eps = 0.5 / (max(g.out_degree(i) for i in g.nodes()) + 1)
            rec = run_algorithm1(
                g, x0, WeightParams(big_k, eps), seed=int(rng.integers(0, 2**31)),
                rounds=big_k + 4,
            )
            view = build_adversary_view(rec, members)
            got = attack_colluding_full_neighborhood(view, target)
            assert abs(got - x0[target]) <= 1e-6 * (1.0 + abs(x0[target]))


def _least_squares_estimates(true_x0, trials, m_rounds=100):
    spec = AdversarySpec(members=(1, 2, 3), target=0)
    estimates = []
    for t in range(trials):
        config = demo_config(
            x0={"low": 0.0, "high": 50.0},
            max_rounds=m_rounds + 1,
            seed=70_000 + t,
            adversary=spec,
        )
        res = run_experiment(config, target_override=true_x0)
        estimates.append(attack_least_squares(res.adversary_view, 0, m_rounds))
    return np.array(estimates)


def test_criterion_07_least_squares_attack_fails():
    with report(
        7,
        "system stays underdetermined (3M-2K+1 vs 4M-2K+3) and estimates scatter",
    ):
        start = time.perf_counter()
        for m_rounds, big_k in ((100, 1), (60, 3), (30, 0)):
            config = demo_config(
                big_k=big_k,
                max_rounds=m_rounds + 1,
                adversary=AdversarySpec(members=(1, 2, 3), target=0),
                seed=77,
            )
            res = run_experiment(config, target_override=40.0)
            system = build_least_squares_system(res.adversary_view, 0, m_rounds)
            assert system.n_equations == 3 * m_rounds - 2 * big_k + 1
            assert system.n_unknowns == 4 * m_rounds - 2 * big_k + 3
            assert np.linalg.matrix_rank(system.matrix) < system.n_unknowns
        for true_x0 in (40.0, -40.0):
            estimates = _least_squares_estimates(true_x0, trials=1000)
            assert estimates.std(ddof=1) > 1.0, true_x0
            assert (estimates > 0).any() and (estimates < 0).any(), true_x0
        assert time.perf_counter() - start < 120.0


def test_criterion_08_witness_replay_indistinguishability():
    with report(8, "20 witness replays reproduce the adversary view within 1e-9"):
        g = default_demo_graph()
        params = WeightParams(big_k=1, epsilon=0.01)
        rng = random.Random(808)
        done = 0
        while done < 20:
            seed = rng.randrange(2**31)
            x0 = [rng.uniform(0.0, 50.0) for _ in range(5)]
            rec = run_algorithm1(g, x0, params, seed=seed, rounds=30)
            target = rng.randrange(5)
            neighbors = sorted(
                set(g.out_neighbors(target)) | set(g.in_neighbors(target))
            )
            helper = rng.choice(neighbors)
            alt = x0[target] + rng.choice([-26.0, -13.0, -7.5, 3.3, 11.0, 26.0])
            if alt == 0.0 or x0[target] + x0[helper] - alt == 0.0:
                continue
            witness = build_indistinguishability_witness(rec, target, alt, helper)
            replayed = replay_with_witness(rec, witness)
            members = [v for v in g.nodes() if v not in (target, helper)]
            assert views_match(
                build_adversary_view(rec, members),
                build_adversary_view(replayed, members),
                tol=1e-9,
            ), (target, helper, alt)
            done += 1


def test_criterion_09_paillier_correctness():
    with report(9, "Paillier roundtrip, homomorphism, and the small key vector"):
        toy = keypair_from_primes(5, 7)
        assert (toy.public.n, toy.public.g, toy.lam, toy.mu) == (35, 36, 24, 19)
        rng = random.Random(909)
        kp = keygen(256, rng)
        assert kp.public.n.bit_length() in (255, 256)
        for _ in range(1000):
            m = rng.randrange(kp.public.n)
            assert decrypt(kp, encrypt(kp.public, m, rng)) == m
        for _ in range(1000):
            m1 = rng.randrange(kp.public.n)
            m2 = rng.randrange(kp.public.n)
            total = add_ciphertexts(
                kp.public, encrypt(kp.public, m1, rng), encrypt(kp.public, m2, rng)
            )
            assert decrypt(kp, total) == (m1 + m2) % kp.public.n


def test_criterion_10_encrypted_mode_tracks_plain_mode():
    with report(
        10,
        "encrypted shares match plain shares within 2^-30 and leak nothing legible",
    ):
        plain = run_experiment(demo_config(mode=MODE_ALGORITHM1))
        enc = run_experiment(demo_config(mode=MODE_ALGORITHM2, key_bits=256))
        bound = 2.0**-30
        layout = plain.record.weights.layout
        assert np.array_equal(layout.senders, enc.record.weights.layout.senders)
        assert np.array_equal(layout.receivers, enc.record.weights.layout.receivers)
        assert plain.record.n_rounds == enc.record.n_rounds
        assert np.abs(plain.record.shares - enc.record.shares).max() <= bound

        # the eavesdropper sees only ciphertexts under the recipients' keys
        keypairs = node_keypairs(enc.config.graph, 256, enc.config.seed)
        codecs = {
            i: FixedPointCodec(kp.public.n, enc.config.fractional_bits)
            for i, kp in keypairs.items()
        }
        stranger = keygen(256, random.Random(4242))
        wire_blob = b""
        cipher_values = set()
        wire = enc.record.wire
        # one ciphertext per link-round, holding the packed (s, w) pair
        assert wire.shape == (enc.record.n_rounds, layout.n_edges)
        for c in wire.flat:
            assert isinstance(c, Ciphertext)
            cipher_values.add(c.value)
            wire_blob += c.value.to_bytes((c.value.bit_length() + 7) // 8, "big")
        for c in wire.flat:
            with pytest.raises(MalformedCiphertext):
                decrypt(stranger, c)
        leaked = 0
        receivers = layout.receivers.tolist()
        for s_row, w_row in plain.record.shares.tolist():
            for receiver, s_share, w_share in zip(receivers, s_row, w_row):
                codec = codecs[receiver]
                packed = codec.encode_pair(s_share, w_share)
                for encoded in (codec.encode(s_share), codec.encode(w_share), packed):
                    raw = encoded.to_bytes(
                        (encoded.bit_length() + 7) // 8 or 1, "big"
                    )
                    assert encoded not in cipher_values
                    if len(raw) >= 4 and raw in wire_blob:
                        leaked += 1
        assert leaked == 0


def test_criterion_11_networked_cluster_converges(tmp_path):
    with report(
        11,
        "five local processes with 256-bit keys agree on 20; latency under 100 ms",
    ):
        config = demo_config(mode=MODE_ALGORITHM2, key_bits=256)
        manifests = run_local_cluster(config, out_dir=tmp_path, timeout=240.0)
        assert len(manifests) == 5
        for manifest in manifests:
            assert abs(manifest["final_pi"] - 20.0) < 1e-6
            assert manifest["mean_encrypt_ms"] is not None
            assert manifest["mean_encrypt_ms"] < 100.0
        print(
            "  mean encryption latency per node (ms):",
            [round(m["mean_encrypt_ms"], 3) for m in manifests],
            flush=True,
        )
