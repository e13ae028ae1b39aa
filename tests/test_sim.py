import random
import time
from importlib import resources

import numpy as np
import pytest

from privsum.consensus import Trajectory
from privsum.errors import ConfigError, DecryptFailure, RangeUncovered
from privsum.graph import DirectedGraph, default_demo_graph
from privsum.paillier import Ciphertext, FixedPointCodec, decrypt, encrypt, keygen
from privsum.sim import (
    MODE_ALGORITHM0,
    MODE_ALGORITHM1,
    MODE_ALGORITHM2,
    AdversarySpec,
    ExperimentConfig,
    NodeKeys,
    PaillierChannel,
    config_hash,
    error_series,
    fitted_contraction,
    node_keypairs,
    resolve_x0,
    run_experiment,
    theoretical_rate,
    transition_product,
    write_series_csv,
)

def make_config(**overrides):
    base = dict(
        graph=default_demo_graph(),
        x0=[10.0, 15.0, 20.0, 25.0, 30.0],
        big_k=1,
        epsilon=0.01,
        max_rounds=60,
        seed=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_converges():
    res = run_experiment(make_config(max_rounds=100))
    assert res.metrics.alpha == 20.0
    assert res.metrics.e[-1] < 1e-9
    np.testing.assert_allclose(res.record.final_pi(), 20.0, atol=1e-9)


def test_error_series_direct_values():
    traj = Trajectory(np.array([[[21.0, 19.0], [1.0, 1.0]]]))
    m = error_series(traj, [21.0, 19.0])
    assert m.alpha == 20.0
    assert m.e[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)
    flat = Trajectory(np.array([[[40.0, 10.0], [2.0, 0.5]]]))
    assert error_series(flat, [25.0, 15.0]).e[0] == 0.0


def test_constant_input_modes():
    cfg0 = make_config(x0=[4.0] * 5, mode=MODE_ALGORITHM0, max_rounds=30)
    res0 = run_experiment(cfg0)
    np.testing.assert_allclose(res0.metrics.e, 0.0, atol=1e-12)
    cfg1 = make_config(x0=[4.0] * 5, mode=MODE_ALGORITHM1, max_rounds=30)
    res1 = run_experiment(cfg1)
    assert res1.metrics.e[0] == 0.0  # pi(0) = x0 = alpha


def test_monotone_tail_on_converged_run():
    res = run_experiment(make_config(max_rounds=120))
    e = res.metrics.e
    tail = e[int(len(e) * 0.75) :]
    assert np.all(np.diff(tail) <= 1e-12)


def test_delayed_onset_with_large_k():
    res = run_experiment(make_config(big_k=9, max_rounds=200, phase_a_range=2.0))
    e = res.metrics.e
    assert min(e[:11]) > 1e-3  # nothing contracts during the masking phase
    assert e[-1] < 1e-6


def test_transition_product_oracle_matches_engine():
    cfg = make_config(big_k=2, max_rounds=20)
    res = run_experiment(cfg)
    record = res.record
    table = record.weights
    n = cfg.graph.n_nodes
    k_mask = cfg.big_k

    # single factor
    p0 = transition_product(table, 3, 3, "s")
    np.testing.assert_array_equal(p0, table.matrix(3, "s"))
    # masking phase leaves the weight side untouched
    phi_w_mask = transition_product(table, 0, k_mask, "w")
    np.testing.assert_array_equal(phi_w_mask, np.eye(n))
    # column stochasticity of every prefix product
    for k in range(record.n_rounds):
        phi = transition_product(table, 0, k, "s")
        np.testing.assert_allclose(phi.sum(axis=0), 1.0, atol=1e-11, rtol=0.0)
    # the matrix route reproduces the message-passing trajectory
    s = record.trajectory.s
    w = record.trajectory.w
    np.testing.assert_allclose(
        transition_product(table, 0, k_mask, "s") @ s[0],
        s[k_mask + 1],
        rtol=1e-12,
        atol=1e-12 * np.abs(s).max(),
    )
    for k in range(k_mask + 2, record.n_rounds + 1):
        phi_w = transition_product(table, k_mask + 1, k - 1, "w")
        np.testing.assert_allclose(phi_w @ np.ones(n), w[k], rtol=1e-12, atol=1e-13)


def test_transition_product_range_errors():
    res = run_experiment(make_config(max_rounds=10))
    table = res.record.weights
    with pytest.raises(RangeUncovered):
        transition_product(table, 5, 3, "s")
    with pytest.raises(RangeUncovered):
        transition_product(table, 0, 10, "s")
    with pytest.raises(RangeUncovered):
        transition_product(table, -1, 3, "s")


def test_weight_window_product_floor():
    cfg = make_config(big_k=1, max_rounds=20, epsilon=0.05)
    res = run_experiment(cfg)
    n = cfg.graph.n_nodes
    window = transition_product(res.record.weights, 2, 2 + n - 1, "w")
    assert np.all(window >= cfg.epsilon**n)


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="strongly connected"):
        ExperimentConfig(
            graph=DirectedGraph.from_edge_list(2, [[1, 0]]), x0=[1.0, 2.0]
        ).validate()
    with pytest.raises(ConfigError, match="max out-degree"):
        make_config(epsilon=0.5).validate()
    with pytest.raises(ConfigError, match="K\\+2"):
        make_config(big_k=59).validate()
    with pytest.raises(ConfigError, match="entries"):
        make_config(x0=[1.0, 2.0]).validate()
    with pytest.raises(ConfigError, match="mode"):
        make_config(mode="algorithm9").validate()
    with pytest.raises(ConfigError, match="member"):
        make_config(
            adversary=AdversarySpec(members=(0, 1), target=0)
        ).validate()
    # the adversary section is checked whether or not a command attacks
    with pytest.raises(ConfigError, match="unknown attack 'bogus'"):
        make_config(adversary=AdversarySpec(members=(1,), target=0, attack="bogus")).validate()
    with pytest.raises(ConfigError, match="trials=0 must be at least 1"):
        make_config(adversary=AdversarySpec(members=(1,), target=0, trials=0)).validate()
    # no run stops early, and a negative tolerance is no exception
    for stop_tol in (1e-9, -1.0):
        with pytest.raises(ConfigError, match="cannot stop early; set stop_tol to 0"):
            make_config(stop_tol=stop_tol).validate()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"phase_a_range": float("nan")}, "phase_a_range must be positive and finite"),
        ({"phase_a_range": float("inf")}, "phase_a_range must be positive and finite"),
        ({"x0": [10.0, float("nan"), 20.0, 25.0, 30.0]}, "x0 entries must be finite"),
        ({"x0": [10.0, 15.0, 20.0, 25.0, float("-inf")]}, "x0 entries must be finite"),
        ({"x0": {"low": float("-inf"), "high": 0.0}}, "x0 range .* both finite"),
        ({"x0": {"low": 0.0, "high": float("nan")}}, "x0 range .* both finite"),
        (
            {"adversary": AdversarySpec(members=(1,), target=0, target_x0=(float("inf"),))},
            "target_x0 entries must be finite",
        ),
    ],
)
def test_config_refuses_non_finite_inputs(overrides, message):
    """An inf or nan input would end the run with every estimate nan, or
    overflow in the x0 draw; validation names the key instead."""
    with pytest.raises(ConfigError, match=message):
        make_config(**overrides).validate()


def test_encrypted_config_rejects_a_key_too_small_for_its_fractional_bits():
    # the demo graph's largest in-degree is 2: one bit of headroom per value
    with pytest.raises(
        ConfigError,
        match="key_bits=64 cannot hold fractional_bits=48 at fan-in 2; "
        "the smallest usable key size is 104",
    ):
        make_config(mode=MODE_ALGORITHM2, key_bits=64).validate()
    with pytest.raises(ConfigError, match="smallest usable key size is 72"):
        make_config(mode=MODE_ALGORITHM2, key_bits=71, fractional_bits=32).validate()
    with pytest.raises(ConfigError, match="fractional_bits must be positive"):
        make_config(mode=MODE_ALGORITHM2, fractional_bits=0).validate()
    make_config(key_bits=64).validate()  # unencrypted: the key size is unused
    # 102 bits hold f = 48 at fan-in 1 only
    with pytest.raises(ConfigError, match="smallest usable key size is 104"):
        make_config(mode=MODE_ALGORITHM2, key_bits=102).validate()
    ring = DirectedGraph.from_edge_list(3, [[1, 0], [2, 1], [0, 2]])
    make_config(graph=ring, x0=[1.0, 2.0, 3.0], mode=MODE_ALGORITHM2, key_bits=102).validate()
    config = make_config(mode=MODE_ALGORITHM2, key_bits=104)
    config.validate()
    for kp in node_keypairs(config.graph, config.key_bits, config.seed).values():
        assert FixedPointCodec(kp.public.n, 48, fan_in=2).max_magnitude == 2


def test_run_experiment_checks_strong_connectivity_once(monkeypatch):
    from privsum import graph

    searches = []
    search = graph._reachable
    monkeypatch.setattr(
        graph, "_reachable", lambda *args: searches.append(args[2]) or search(*args)
    )
    fresh = DirectedGraph.from_edge_list(5, default_demo_graph().edge_list())
    run_experiment(make_config(graph=fresh, max_rounds=10))
    assert searches == [True, False]  # one forward and one backward search
    run_experiment(make_config(graph=fresh, mode=MODE_ALGORITHM0, max_rounds=10))
    assert searches == [True, False]


def test_config_k_zero_supported():
    res = run_experiment(make_config(big_k=0, max_rounds=80))
    assert res.metrics.e[-1] < 1e-9


def test_resolve_x0_deterministic_and_override():
    cfg = make_config(
        x0={"low": 0.0, "high": 50.0},
        adversary=AdversarySpec(members=(1, 2, 3), target=0),
    )
    a = resolve_x0(cfg)
    b = resolve_x0(cfg)
    assert a == b
    assert all(0.0 <= v <= 50.0 for v in a)
    c = resolve_x0(cfg, target_override=40.0)
    assert c[0] == 40.0
    assert c[1:] == a[1:]


def test_config_dict_roundtrip():
    cfg = make_config(adversary=AdversarySpec(members=(1, 2, 3), target=0, trials=7))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


@pytest.mark.parametrize(
    "preset,digest", [("fig3", "cbe6bfa499c03dfa"), ("fig7", "dbb1062fc40a70a8")]
)
def test_preset_config_hash_is_stable(preset, digest):
    # through the reader the CLI uses, libyaml's parser where PyYAML has it
    path = resources.files("privsum").joinpath(f"presets/{preset}.yaml")
    assert config_hash(ExperimentConfig.from_yaml(path)) == digest


def test_csv_outputs_byte_identical(tmp_path):
    for name in ("a.csv", "b.csv"):
        res = run_experiment(make_config(max_rounds=30))
        write_series_csv(tmp_path / name, res)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_seed_changes_trajectory():
    r1 = run_experiment(make_config(seed=1, max_rounds=20))
    r2 = run_experiment(make_config(seed=2, max_rounds=20))
    assert not np.array_equal(r1.record.trajectory.pi, r2.record.trajectory.pi)


def test_fitted_contraction_bounds():
    res = run_experiment(make_config(max_rounds=100))
    rate = fitted_contraction(res.metrics.e)
    assert 0.0 <= rate < 1.0
    gamma = theoretical_rate(5, 0.01)
    assert rate <= gamma
    # direct formula evaluation
    assert gamma == pytest.approx((1.0 - 1e-8) ** 0.25, abs=1e-15)
    flat = np.full(50, 1e-16)
    assert fitted_contraction(flat) == 0.0


def test_encrypted_mode_close_to_plain():
    plain = run_experiment(make_config(max_rounds=40, mode=MODE_ALGORITHM1))
    enc = run_experiment(
        make_config(max_rounds=40, mode=MODE_ALGORITHM2, key_bits=128)
    )
    assert enc.mean_encrypt_seconds is not None
    np.testing.assert_allclose(
        enc.record.trajectory.pi,
        plain.record.trajectory.pi,
        atol=1e-8,
    )


def test_2048_bit_run_matches_256_bit_bitwise():
    # The codec rounds to 2^-48 whatever the modulus, so the key size must
    # not move a single bit of the trajectory.
    def run(key_bits):
        return run_experiment(
            ExperimentConfig(
                graph=DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]]),
                x0=[10.0, 30.0],
                max_rounds=3,
                seed=1,
                mode=MODE_ALGORITHM2,
                key_bits=key_bits,
            )
        ).record.trajectory

    small = run(256)
    start = time.perf_counter()
    large = run(2048)
    elapsed = time.perf_counter() - start
    assert np.array_equal(large.s, small.s)
    assert np.array_equal(large.w, small.w)
    assert elapsed < 10.0, f"2048-bit run took {elapsed:.1f} s"


def _three_key_channel(in_degrees):
    keypairs = {i: keygen(64, random.Random(i)) for i in range(3)}
    keys = {i: NodeKeys(kp, random.Random(i)) for i, kp in keypairs.items()}
    public = {i: kp.public for i, kp in keypairs.items()}
    return PaillierChannel(public, keys, 16, in_degrees), keypairs


def test_channel_times_each_receiver_table_apart_from_the_encryptions():
    channel, keypairs = _three_key_channel({0: 1, 1: 1, 2: 2})
    senders, receivers = [0, 1, 2, 0], [1, 2, 0, 2]
    shares = np.array([[1.0, -2.0, 3.5, 4.0], [0.5, 0.25, 0.125, 1.0]])
    # node 2's two shares come back as one sum, in the column of its lowest
    # sender, 0; its other column holds -0.0
    folded = np.array([[1.0, -0.0, 3.5, 2.0], [0.5, -0.0, 0.125, 1.25]])
    for round_k in range(2):
        wire = channel.transmit(senders, receivers, shares)
        got = channel.receive(senders, receivers, round_k, wire)
        assert got.tobytes() == folded.tobytes()
    # one encryption per link-round, one decryption per receiver-round
    assert len(channel.encrypt_seconds) == 2 * len(senders)
    assert len(channel.decrypt_seconds) == 2 * len(set(receivers))
    # one build per receiver key, in its first round, kept by the key object
    assert len(channel.table_build_seconds) == 3
    assert all("blinding_table" in vars(kp.public) for kp in keypairs.values())


def test_channel_refuses_more_ciphertexts_than_the_receiver_fan_in():
    """Two links into a fan-in-1 layout would carry one slot into the
    other (s = -2 + 4 came back as 2.00001526, w as -32767.5); the receive
    names the receiver, the round and both senders instead."""
    channel, _ = _three_key_channel({1: 1})
    senders, receivers = [0, 2], [1, 1]
    wire = channel.transmit(senders, receivers, np.array([[-2.0, 4.0], [0.5, 0.25]]))
    with pytest.raises(
        DecryptFailure,
        match="node 1: round-3 shares from 0, 2: a sum of 2 pairs is outside the "
        "pair layout of fan-in 1",
    ):
        channel.receive(senders, receivers, 3, wire)


def test_channel_names_every_sender_of_a_sum_outside_the_layout():
    channel, keypairs = _three_key_channel({1: 2})
    public = keypairs[1].public
    # each plaintext alone is a residue, not a packed pair: their sum's
    # digits are no sum of two pairs
    wire = [encrypt(public, public.n - 1, random.Random(k)) for k in range(2)]
    with pytest.raises(
        DecryptFailure, match="node 1: round-0 shares from 0, 2: .*outside the pair layout"
    ):
        channel.receive([0, 2], [1, 1], 0, wire)
    # a malformed ciphertext is named by its own sender, before any decryption
    wire[1] = Ciphertext(0, public.key_id)
    with pytest.raises(DecryptFailure, match="node 1: round-0 share from 2: "):
        channel.receive([0, 2], [1, 1], 0, wire)
    assert len(channel.decrypt_seconds) == 1


def test_channel_checks_a_sum_not_its_terms():
    """At fan-in 2, a valid ciphertext of n - 1, no packed pair, next to an
    honest pair leaves a sum inside the layout: it decodes, shifted by the
    missing pair's slot offsets and the -1, and no sender is named."""
    channel, keypairs = _three_key_channel({1: 2})
    public = keypairs[1].public
    honest = channel.transmit([0], [1], np.array([[-2.0], [0.25]]))[0]
    wire = [honest, encrypt(public, public.n - 1, random.Random(0))]
    got = channel.receive([0, 2], [1, 1], 0, wire)
    bound = FixedPointCodec(public.n, 16, 2).max_magnitude
    assert got[:, 0].tolist() == [-2.0 - bound, 0.25 - bound - 2.0**-16]
    assert got[:, 1].tobytes() == np.array([-0.0, -0.0]).tobytes()


def test_record_shares_are_what_each_ciphertext_decrypts_to_alone():
    """The record's shares are, per link-round, the pair its ciphertext
    decrypts to, though each receiver decrypts only the sum of its links."""
    config = make_config(mode=MODE_ALGORITHM2, key_bits=128, max_rounds=6)
    record = run_experiment(config).record
    keypairs = node_keypairs(config.graph, config.key_bits, config.seed)
    layout = record.weights.layout
    assert config.graph.in_degree(4) == 2
    decrypted = np.empty_like(record.shares)
    for e, receiver in enumerate(layout.receivers.tolist()):
        kp = keypairs[receiver]
        codec = FixedPointCodec(kp.public.n, 48, config.graph.in_degree(receiver))
        for k in range(record.n_rounds):
            decrypted[k, :, e] = codec.decode_sum(decrypt(kp, record.wire[k, e]), 1)
    assert decrypted.tobytes() == record.shares.tobytes()
