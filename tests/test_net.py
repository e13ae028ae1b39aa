import collections
import contextlib
import csv
import itertools
import json
import selectors
import socket
import struct
import threading
import time
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsum.consensus import run_algorithm1
from privsum.errors import (
    ConfigError, DecryptFailure, FaultyShare, PeerDisconnected, ProtocolError, Timeout,
)
from privsum.graph import DirectedGraph, default_demo_graph
from privsum.net import (
    MODE_ENCRYPTED,
    MODE_PLAIN,
    MSG_KEY_ANNOUNCE,
    MSG_SHARE_ENC,
    MSG_SHARE_PLAIN,
    NodeRuntime,
    WireFrame,
    allocate_ports,
    encode_frame,
    pack_key_announce,
    max_payload,
    pack_plain_shares,
    read_frame,
    share_frame,
    unpack_cipher_share,
    unpack_key_announce,
    unpack_plain_shares,
)
from privsum import net
from privsum.paillier import FixedPointCodec, PaillierPublicKey, encrypt, keygen, pack_uint
from privsum.sim import (
    ExperimentConfig,
    MODE_ALGORITHM1,
    MODE_ALGORITHM2,
    PaillierChannel,
    run_experiment,
)
from privsum.weights import WeightParams

import random
import re


def make_config(**overrides):
    base = dict(
        graph=default_demo_graph(),
        x0=[10.0, 15.0, 20.0, 25.0, 30.0],
        big_k=1,
        epsilon=0.01,
        max_rounds=12,
        seed=7,
    )
    base.update(overrides)
    config = ExperimentConfig(**base)
    if "key_bits" in overrides:
        return config
    # Without a key size, the smallest the run plan allows, which keeps key
    # generation fast whichever transport the config runs on.  A config the
    # validator refuses keeps the default, for its test to see the refusal.
    try:
        plan = replace(config, mode=MODE_ALGORITHM1).validate()
    except ConfigError:
        return config
    return replace(config, key_bits=plan.key_bits)


# A node takes its transport from the config's mode.
CONFIG_MODE = {MODE_PLAIN: MODE_ALGORITHM1, MODE_ENCRYPTED: MODE_ALGORITHM2}


def run_cluster_in_threads(config, mode=None, out_dir=None):
    """One thread per node, over the transport ``mode`` names or, with
    ``mode=None``, over the config's own.  With ``out_dir`` each node keeps
    the frames it sends."""
    if mode is not None:
        config = replace(config, mode=CONFIG_MODE[mode])
    n = config.graph.n_nodes
    ports = allocate_ports(n)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(n)}
    results = {}
    errors = {}

    def worker(i):
        try:
            rt = NodeRuntime(i, peers[i], peers, config, out_dir=out_dir)
            rt.round_timeout = 30.0
            state, manifest = rt.run()
            results[i] = (state, manifest, rt)
        except Exception as exc:  # noqa: BLE001
            errors[i] = exc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=90)
    assert not errors, f"cluster failures: {errors}"
    assert len(results) == n
    return results


# -- frame codec -------------------------------------------------------------


def decode_frame(data: bytes) -> WireFrame:
    """Parse a byte string that must hold exactly one complete frame."""
    buffer = bytearray(data)
    frame = read_frame(buffer, len(data))
    if frame is None or buffer:
        raise ProtocolError(f"{len(data)} bytes are not exactly one frame")
    return frame


@settings(max_examples=200, deadline=None)
@given(
    msg_type=st.sampled_from([MSG_KEY_ANNOUNCE, MSG_SHARE_PLAIN, MSG_SHARE_ENC]),
    sender=st.integers(min_value=0, max_value=2**32 - 1),
    round_k=st.integers(min_value=0, max_value=2**32 - 1),
    payload=st.binary(max_size=256),
)
def test_frame_roundtrip(msg_type, sender, round_k, payload):
    frame = WireFrame(msg_type, sender, round_k, payload)
    assert decode_frame(encode_frame(frame)) == frame


def test_frame_rejects_garbage():
    with pytest.raises(ProtocolError):
        decode_frame(b"nope")
    good = encode_frame(WireFrame(MSG_SHARE_PLAIN, 1, 2, pack_plain_shares(1.0, 0.5)))
    with pytest.raises(ProtocolError):
        decode_frame(b"XXXX" + good[4:])
    with pytest.raises(ProtocolError):
        decode_frame(good + b"extra")


def test_plain_share_payload_is_exact():
    for s, w in [(1.0, 0.0), (-5.25, 1e-300), (3.141592653589793, 2**-52)]:
        assert unpack_plain_shares(pack_plain_shares(s, w)) == (s, w)
    with pytest.raises(ProtocolError):
        unpack_plain_shares(b"\x00" * 15)


def test_cipher_share_payload_roundtrip():
    big = 2**511 + 12345
    assert unpack_cipher_share(pack_uint(big)) == big
    for bad in (pack_uint(1) + b"!", pack_uint(big)[:-1]):
        with pytest.raises(ProtocolError):
            unpack_cipher_share(bad)


def test_key_announce_roundtrip():
    kp = keygen(64, random.Random(3))
    origin, parsed = unpack_key_announce(pack_key_announce(9, kp.public))
    assert origin == 9
    assert parsed.n == kp.public.n


def test_truncated_key_in_a_key_announcement_is_a_protocol_error():
    payload = pack_key_announce(9, keygen(64, random.Random(3)).public)
    with pytest.raises(ProtocolError, match="truncated big integer"):
        unpack_key_announce(payload[:-1])


@pytest.mark.parametrize("key_bits", [35, 64, 256, 2048])
def test_payload_bound_is_the_largest_legal_payload(key_bits):
    n = (1 << key_bits) - 1  # the largest modulus a key of this size has
    key = pack_key_announce(2**32 - 1, PaillierPublicKey(n=n, g=n + 1))
    cipher = pack_uint(n * n - 1)
    assert max_payload(MODE_ENCRYPTED, key_bits) == max(len(key), len(cipher))
    assert max_payload(MODE_PLAIN, key_bits) == len(pack_plain_shares(1.0, 2.0))


def _oversized_header(msg_type, length):
    return net._HEADER.pack(net.MAGIC, net.VERSION, msg_type, 1, 0, length)


def test_read_frame_rejects_an_oversized_length_before_its_payload():
    buffer = bytearray(_oversized_header(MSG_SHARE_ENC, 2**31))
    with pytest.raises(ProtocolError, match="2147483648-byte payload"):
        read_frame(buffer, max_payload(MODE_ENCRYPTED, 2048))


def test_read_frame_takes_exactly_one_complete_frame_off_its_buffer():
    first = encode_frame(WireFrame(MSG_SHARE_PLAIN, 1, 0, pack_plain_shares(1.0, 0.5)))
    second = encode_frame(WireFrame(MSG_SHARE_PLAIN, 1, 1, pack_plain_shares(2.0, 0.25)))
    for partial in (first[:5], first[:-1]):  # a partial header, a partial payload
        buffer = bytearray(partial)
        assert read_frame(buffer, 16) is None
        assert buffer == partial
    buffer = bytearray(first + second[:3])
    assert read_frame(buffer, 16) == decode_frame(first)
    assert buffer == second[:3]
    buffer += second[3:]
    assert read_frame(buffer, 16) == decode_frame(second)
    assert buffer == b""


@contextlib.contextmanager
def _serving(rt):
    """Open ``rt``'s listener; yields ``connect(data)``, which opens a new
    connection to it and sends ``data`` (frames or raw bytes).  The
    connections stay open until the block ends."""
    conns = []

    def connect(data):
        if not isinstance(data, bytes):
            data = b"".join(encode_frame(f) for f in data)
        conns.append(socket.create_connection(rt.listen))
        conns[-1].sendall(data)

    rt._serve()
    try:
        yield connect
    finally:
        for conn in conns:
            conn.close()
        rt._shutdown()


@pytest.mark.parametrize(
    "mode, msg_type", [(MODE_PLAIN, MSG_SHARE_PLAIN), (MODE_ENCRYPTED, MSG_SHARE_ENC)]
)
def test_receive_loop_rejects_a_payload_one_byte_over_its_transport_bound(mode, msg_type):
    rt = _two_node_runtime(mode)
    bound = max_payload(mode, rt.config.key_bits)
    with _serving(rt) as connect:
        connect(_oversized_header(msg_type, bound + 1))
        with pytest.raises(ProtocolError, match=f"node 0: .*{bound}-byte limit"):
            rt._receive_round(0)


# -- live clusters ------------------------------------------------------------


def test_plain_cluster_matches_simulator_bitwise():
    config = make_config()
    results = run_cluster_in_threads(config, MODE_PLAIN)
    rec = run_algorithm1(
        config.graph,
        [10.0, 15.0, 20.0, 25.0, 30.0],
        WeightParams(1, 0.01),
        seed=7,
        rounds=12,
    )
    final = rec.trajectory.final()
    for i in range(5):
        assert results[i][0].s == final[i].s
        assert results[i][0].w == final[i].w
        assert results[i][0].pi == final[i].pi


def test_encrypted_cluster_matches_simulated_encrypted_mode():
    config = make_config()
    results = run_cluster_in_threads(config, MODE_ENCRYPTED)
    sim = run_experiment(make_config(mode=MODE_ALGORITHM2))
    final = sim.record.trajectory.final()
    for i in range(5):
        assert results[i][0].s == final[i].s
    assert all(results[i][1]["mean_encrypt_ms"] is not None for i in range(5))


@pytest.mark.parametrize("mode", [MODE_PLAIN, MODE_ENCRYPTED])
def test_every_node_csv_row_matches_the_simulator_trajectory_bitwise(mode, tmp_path):
    config = make_config()
    run_cluster_in_threads(config, mode, out_dir=tmp_path)
    if mode == MODE_PLAIN:
        trajectory = run_algorithm1(
            config.graph, config.x0, config.params, seed=config.seed, rounds=config.max_rounds
        ).trajectory
    else:
        trajectory = run_experiment(
            make_config(mode=MODE_ALGORITHM2)
        ).record.trajectory
    for i in range(5):
        with open(tmp_path / f"node{i}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["round"]) for row in rows] == list(range(config.max_rounds + 1))
        for name in ("s", "w", "pi"):
            written = np.array([float(row[name]) for row in rows])
            assert written.tobytes() == getattr(trajectory, name)[:, i].tobytes(), (i, name)


def test_node_draws_its_weights_once_then_applies_once_per_round(monkeypatch):
    """The stamp points of the benchmark's pair workload: one call to
    ``net.generate_round_weights`` before the first ``net.apply_round``,
    then one ``apply_round`` per round."""
    calls = []
    draw, apply = net.generate_round_weights, net.apply_round

    def counted_draw(*args, **kwargs):
        calls.append((threading.get_ident(), "draw"))
        return draw(*args, **kwargs)

    def counted_apply(*args, **kwargs):
        calls.append((threading.get_ident(), "apply"))
        return apply(*args, **kwargs)

    monkeypatch.setattr(net, "generate_round_weights", counted_draw)
    monkeypatch.setattr(net, "apply_round", counted_apply)
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    config = make_config(graph=g, x0=[1.0, 2.0])
    run_cluster_in_threads(config, MODE_PLAIN)
    per_node = {}
    for thread, kind in calls:
        per_node.setdefault(thread, []).append(kind)
    assert len(per_node) == 2
    for kinds in per_node.values():
        assert kinds == ["draw"] + ["apply"] * config.max_rounds


def test_encrypted_wire_carries_no_plaintext_encodings(tmp_path):
    config = make_config(max_rounds=6)
    results = run_cluster_in_threads(config, MODE_ENCRYPTED, out_dir=tmp_path)
    # ground truth shares from the bit-identical plaintext run
    rec = run_algorithm1(
        config.graph,
        [10.0, 15.0, 20.0, 25.0, 30.0],
        WeightParams(1, 0.01),
        seed=7,
        rounds=6,
    )
    share_frames = b""
    for i in range(5):
        for data in results[i][2]._sent_frames:
            if decode_frame(data).msg_type == MSG_SHARE_ENC:
                share_frames += data
    assert share_frames
    keys = {i: results[i][2].keypair.public for i in range(5)}
    checked = 0
    receivers = rec.weights.layout.receivers.tolist()
    for s_row, w_row in rec.shares.tolist():
        for receiver, s_share, w_share in zip(receivers, s_row, w_row):
            codec = FixedPointCodec(keys[receiver].n, config.fractional_bits)
            packed = codec.encode_pair(s_share, w_share)
            for encoded in (codec.encode(s_share), codec.encode(w_share), packed):
                raw = encoded.to_bytes((encoded.bit_length() + 7) // 8 or 1, "big")
                if len(raw) < 4:
                    continue  # zero shares encode to one byte; matching is noise
                assert raw not in share_frames
                checked += 1
    assert checked > 50


def test_encrypted_cluster_sends_the_same_bytes_in_every_run(tmp_path):
    config = make_config(max_rounds=3)
    runs = {
        run: run_cluster_in_threads(config, MODE_ENCRYPTED, out_dir=tmp_path / run)
        for run in ("a", "b")
    }
    for i in range(5):
        # every out-link carries each of the n keys once
        sent = [decode_frame(data).msg_type for data in runs["a"][i][2]._sent_frames]
        assert sent.count(MSG_KEY_ANNOUNCE) == 5 * config.graph.out_degree(i)
        first = (tmp_path / "a" / f"node{i}.frames").read_bytes()
        assert (tmp_path / "b" / f"node{i}.frames").read_bytes() == first, i


def test_a_node_sends_only_key_and_share_frames(tmp_path):
    """Rounds are the only synchronization: on each out-link a node sends
    the n keys, then one share per round, and nothing else."""
    config = make_config(max_rounds=4)
    results = run_cluster_in_threads(config, MODE_ENCRYPTED, out_dir=tmp_path)
    n = config.graph.n_nodes
    for i in range(n):
        d_out = config.graph.out_degree(i)
        sent = collections.Counter(
            decode_frame(data).msg_type for data in results[i][2]._sent_frames
        )
        expected = {MSG_KEY_ANNOUNCE: n * d_out, MSG_SHARE_ENC: config.max_rounds * d_out}
        assert sent == expected, i


def test_an_algorithm2_config_alone_puts_only_ciphertexts_on_the_wire(tmp_path):
    """No transport argument: the config's mode picks encryption."""
    config = make_config(max_rounds=4, mode=MODE_ALGORITHM2)
    results = run_cluster_in_threads(config, out_dir=tmp_path)
    for i in range(5):
        _, manifest, rt = results[i]
        sent = {decode_frame(data).msg_type for data in rt._sent_frames}
        assert sent & {MSG_SHARE_PLAIN, MSG_SHARE_ENC} == {MSG_SHARE_ENC}, i
        assert manifest["mode"] == MODE_ENCRYPTED
        assert manifest["mean_encrypt_ms"] is not None


def test_run_networked_encrypted_keyword_runs_an_algorithm1_config_encrypted():
    """The benchmark's pair workload enters here, with an algorithm1 config."""
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    config = make_config(graph=g, x0=[1.0, 2.0], key_bits=128, max_rounds=6)
    ports = allocate_ports(2)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(2)}
    results, errors = {}, {}

    def worker(i):
        try:
            results[i] = net.run_networked(i, peers[i], peers, config, mode=MODE_ENCRYPTED)
        except Exception as exc:  # noqa: BLE001
            errors[i] = exc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert not errors, errors
    final = run_experiment(replace(config, mode=MODE_ALGORITHM2)).record.trajectory.final()
    for i in range(2):
        state, manifest = results[i]
        assert state.s == final[i].s
        assert manifest["mean_encrypt_ms"] is not None


def test_run_networked_refuses_to_run_an_encrypted_config_in_the_clear():
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    config = make_config(graph=g, x0=[1.0, 2.0], key_bits=128, mode=MODE_ALGORITHM2)
    ports = allocate_ports(2)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(2)}
    with pytest.raises(ConfigError, match="mode must be None or 'encrypted', not 'plain'"):
        net.run_networked(0, peers[0], peers, config, mode=MODE_PLAIN)
    # raised before any socket opened: the listen port is still free
    socket.create_server(peers[0]).close()


def test_unreachable_peer_raises_peer_disconnected():
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    config = make_config(graph=g, x0=[1.0, 2.0])
    ports = allocate_ports(2)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(2)}
    rt = NodeRuntime(0, peers[0], peers, config)
    rt.connect_deadline = 0.6
    with pytest.raises(PeerDisconnected):
        rt.run()


def test_refused_connect_retries_after_a_growing_delay(monkeypatch):
    """A refused peer is tried again after 1 ms, then 2, 4, ... ms, capped
    at 50 ms; the connect succeeds once its listener is up."""
    rt = _two_node_runtime(MODE_PLAIN)
    delays = []
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)

    def recorded_sleep(seconds):
        delays.append(seconds)
        if len(delays) == 8:
            listener.bind(rt.peers[1])
            listener.listen(1)

    monkeypatch.setattr(net.time, "sleep", recorded_sleep)
    try:
        rt._connect_out()
    finally:
        listener.close()
        rt._shutdown()
    assert delays == [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.05, 0.05]
    assert set(rt._out_socks) == {1}


def test_refused_connect_still_ends_at_the_deadline(monkeypatch):
    rt = _two_node_runtime(MODE_PLAIN)
    rt.connect_deadline = 0.2
    delays = []
    sleep = time.sleep

    def recorded_sleep(seconds):
        delays.append(seconds)
        sleep(seconds)

    monkeypatch.setattr(net.time, "sleep", recorded_sleep)
    start = time.monotonic()
    with pytest.raises(PeerDisconnected, match="could not reach peer 1 .* within 0.2s"):
        rt._connect_out()
    assert 0.2 <= time.monotonic() - start < 2.0
    assert max(delays) == 0.05


def test_key_flood_timeout_names_missing_node():
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    config = make_config(graph=g, x0=[1.0, 2.0], mode=MODE_ALGORITHM2)
    ports = allocate_ports(2)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(2)}
    # peer 1 accepts the connection but never announces a key
    silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    silent.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    silent.bind(peers[1])
    silent.listen(1)
    rt = NodeRuntime(0, peers[0], peers, config)
    rt.round_timeout = 1.0
    try:
        with pytest.raises(Timeout, match="missing keys for nodes \\[1\\]"):
            rt.run()
    finally:
        silent.close()


def test_key_directory_idempotent_under_redelivery():
    config = make_config(mode=MODE_ALGORITHM2)
    ports = allocate_ports(5)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(5)}
    rt = NodeRuntime(1, peers[1], peers, config)
    other = keygen(config.key_bits, random.Random(1))
    payload = pack_key_announce(3, other.public)
    frame = WireFrame(MSG_KEY_ANNOUNCE, 0, 0, payload)
    rt._dispatch(frame)
    assert rt._key_directory[3].n == other.public.n
    rt._dispatch(frame)  # re-delivery changes nothing
    assert len(rt._key_directory) == 2  # own key + node 3


@pytest.mark.parametrize(
    "mode, origin, announced_bits, reason",
    [
        (MODE_ALGORITHM2, 99, 138, "not a node of the 5-node graph"),
        (MODE_ALGORITHM1, 3, 138, "the plain transport carries no keys"),
        (MODE_ALGORITHM1, 99, 138, "the plain transport carries no keys"),
        # a node of 138-bit keys would use a larger key without a word
        (MODE_ALGORITHM2, 3, 160, "a 160-bit modulus, not one of 137 or 138 bits"),
    ],
    ids=["encrypted-outside-graph", "plain-in-graph", "plain-outside-graph", "wrong-size"],
)
def test_key_announcement_a_node_cannot_use_is_a_protocol_error(
    mode, origin, announced_bits, reason
):
    config = make_config(mode=mode)
    ports = allocate_ports(5)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(5)}
    rt = NodeRuntime(1, peers[1], peers, config)
    known = dict(rt._key_directory)
    payload = pack_key_announce(origin, keygen(announced_bits, random.Random(1)).public)
    with pytest.raises(
        ProtocolError, match=f"from node 0 for origin {origin}: {reason}"
    ):
        rt._dispatch(WireFrame(MSG_KEY_ANNOUNCE, 0, 0, payload))
    assert rt._key_directory == known


def _two_node_runtime(mode):
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    config = make_config(graph=g, x0=[1.0, 2.0], mode=CONFIG_MODE[mode])
    ports = allocate_ports(2)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(2)}
    rt = NodeRuntime(0, peers[0], peers, config)
    rt.round_timeout = 1.0
    return rt


def test_malformed_share_ciphertext_raises_decrypt_failure():
    rt = _two_node_runtime(MODE_ENCRYPTED)
    assert isinstance(rt.channel, PaillierChannel)
    with pytest.raises(DecryptFailure, match="node 0: round-0 share from 1: "):
        rt._dispatch(WireFrame(MSG_SHARE_ENC, 1, 0, pack_uint(0)))
    assert not rt._shares
    # a valid ciphertext of a plaintext above the pair layout is refused,
    # not decoded into garbage shares
    public = rt.keypair.public
    cipher = encrypt(public, public.n - 1, random.Random(1))
    rt._dispatch(WireFrame(MSG_SHARE_ENC, 1, 1, pack_uint(cipher.value)))
    with pytest.raises(DecryptFailure, match="round-1 share from 1: .*pair layout"):
        rt._receive_round(1)


@pytest.mark.parametrize(
    "mode, msg_type, payload",
    [
        (MODE_PLAIN, MSG_SHARE_ENC, pack_uint(3)),
        (MODE_ENCRYPTED, MSG_SHARE_PLAIN, pack_plain_shares(1.0, 0.5)),
    ],
)
def test_share_frame_of_the_other_transport_is_rejected(mode, msg_type, payload):
    rt = _two_node_runtime(mode)
    with pytest.raises(ProtocolError, match="transport"):
        rt._dispatch(WireFrame(msg_type, 1, 0, payload))


def test_duplicate_pending_share_frame_is_rejected():
    rt = _two_node_runtime(MODE_PLAIN)
    rt._dispatch(WireFrame(MSG_SHARE_PLAIN, 1, 0, pack_plain_shares(1.0, 0.5)))
    with pytest.raises(ProtocolError, match="duplicate round-0 share from node 1"):
        rt._dispatch(WireFrame(MSG_SHARE_PLAIN, 1, 0, pack_plain_shares(9.0, 0.5)))
    assert rt._shares[(0, 1)][0] == 1.0


def test_stale_share_frame_is_rejected():
    rt = _two_node_runtime(MODE_PLAIN)
    rt._dispatch(WireFrame(MSG_SHARE_PLAIN, 1, 0, pack_plain_shares(1.0, 0.5)))
    assert [s for s, _ in rt._receive_round(0)] == [1.0]
    with pytest.raises(ProtocolError, match="stale round-0 share from node 1"):
        rt._dispatch(WireFrame(MSG_SHARE_PLAIN, 1, 0, pack_plain_shares(9.0, 0.5)))
    assert rt._shares == {}


def test_receive_loop_protocol_error_reaches_the_driver_as_protocol_error():
    rt = _two_node_runtime(MODE_PLAIN)
    frame = WireFrame(MSG_SHARE_PLAIN, 1, 0, pack_plain_shares(1.0, 0.5))
    with _serving(rt) as connect:
        # both frames arrive in one read, so the duplicate fails the round-0 wait
        connect([frame, frame])
        with pytest.raises(ProtocolError, match="node 0: duplicate round-0 share from node 1"):
            rt._receive_round(0)


def test_receive_loop_socket_error_reaches_the_driver_as_peer_disconnected():
    rt = _two_node_runtime(MODE_PLAIN)
    with _serving(rt):
        peer = socket.create_connection(rt.listen)
        # closing with a zero linger time resets the connection
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        peer.close()
        with pytest.raises(PeerDisconnected, match="node 0: receive loop failed"):
            rt._receive_round(0)


def _demo_runtime(node=0, **overrides):
    config = make_config(**overrides)
    ports = allocate_ports(5)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(5)}
    rt = NodeRuntime(node, peers[node], peers, config)
    rt.round_timeout = 1.0
    return rt


def test_connection_from_a_non_in_neighbor_is_rejected():
    rt = _demo_runtime()
    assert 2 not in rt.in_ids
    with _serving(rt) as connect:
        connect([WireFrame(MSG_SHARE_PLAIN, 2, 0, pack_plain_shares(1.0, 0.5))])
        with pytest.raises(
            ProtocolError, match="node 0: connection from node 2, not an in-neighbor"
        ):
            rt._receive_round(0)
    assert rt._shares == {}


def test_second_connection_for_one_sender_is_rejected():
    rt = _two_node_runtime(MODE_PLAIN)
    with _serving(rt) as connect:
        connect([WireFrame(MSG_SHARE_PLAIN, 1, 0, pack_plain_shares(1.0, 0.5))])
        # the first connection's share is applied before the second is read
        assert [s for s, _ in rt._receive_round(0)] == [1.0]
        connect([WireFrame(MSG_SHARE_PLAIN, 1, 1, pack_plain_shares(2.0, 0.5))])
        with pytest.raises(ProtocolError, match="node 0: second connection from node 1"):
            rt._receive_round(1)
    assert rt._shares == {}


def test_frame_under_another_sender_id_on_a_bound_connection_is_rejected():
    rt = _demo_runtime(node=1)
    first, other = rt.in_ids
    with _serving(rt) as connect:
        connect(
            [
                WireFrame(MSG_SHARE_PLAIN, first, 0, pack_plain_shares(1.0, 0.5)),
                WireFrame(MSG_SHARE_PLAIN, other, 0, pack_plain_shares(2.0, 0.5)),
            ]
        )
        with pytest.raises(
            ProtocolError,
            match=f"node 1: frame from node {other} on the connection of node {first}",
        ):
            rt._receive_round(0)
    assert rt._shares == {(0, first): (1.0, 0.5)}


def test_share_frame_more_than_n_minus_1_rounds_ahead_is_rejected():
    rt = _demo_runtime()
    sender = rt.in_ids[0]
    rt._dispatch(WireFrame(MSG_SHARE_PLAIN, sender, 4, pack_plain_shares(1.0, 0.5)))
    with pytest.raises(ProtocolError, match="5 rounds ahead of node 0, more than n - 1 = 4"):
        rt._dispatch(WireFrame(MSG_SHARE_PLAIN, sender, 5, pack_plain_shares(1.0, 0.5)))
    assert list(rt._shares) == [(4, sender)]


def test_share_frame_past_the_last_round_is_rejected():
    rt = _demo_runtime(max_rounds=3)
    sender = rt.in_ids[0]
    rt._dispatch(WireFrame(MSG_SHARE_PLAIN, sender, 2, pack_plain_shares(1.0, 0.5)))
    with pytest.raises(ProtocolError, match="round-3 share from node .*: the run has 3 rounds"):
        rt._dispatch(WireFrame(MSG_SHARE_PLAIN, sender, 3, pack_plain_shares(1.0, 0.5)))
    assert list(rt._shares) == [(2, sender)]


def test_encrypted_node_rejects_keys_too_small_for_its_fractional_bits():
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    config = make_config(graph=g, x0=[1.0, 2.0], key_bits=64, fractional_bits=48)
    ports = allocate_ports(2)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(2)}
    NodeRuntime(0, peers[0], peers, config)  # algorithm1, plain: keys unused
    with pytest.raises(ConfigError, match="key_bits=64 cannot carry .*; it needs 122 bits"):
        NodeRuntime(0, peers[0], peers, replace(config, mode=MODE_ALGORITHM2))
    # raised before any socket opened: the listen port is still free
    socket.create_server(peers[0]).close()


def test_encrypted_node_rejects_keys_too_small_for_its_graph_fan_in():
    # 136 bits hold this run's values for one in-link; the demo graph sums two
    config = make_config(key_bits=136, fractional_bits=48, mode=MODE_ALGORITHM2)
    ports = allocate_ports(5)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(5)}
    with pytest.raises(ConfigError, match="and fan-in 2; it needs 138 bits"):
        NodeRuntime(0, peers[0], peers, config)
    # raised before any socket opened: the listen port is still free
    socket.create_server(peers[0]).close()
    NodeRuntime(0, peers[0], peers, replace(config, key_bits=138))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"stop_tol": 1e-12}, "cannot stop early; set stop_tol to 0"),
        ({"mode": "algorithm0"}, "mode 'algorithm0' runs only in the simulator"),
    ],
)
def test_node_refuses_a_config_it_would_run_differently_from_the_simulator(
    overrides, message
):
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    config = make_config(graph=g, x0=[1.0, 2.0], **overrides)
    ports = allocate_ports(2)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(2)}
    with pytest.raises(ConfigError, match=message):
        NodeRuntime(0, peers[0], peers, config)
    # raised before any socket opened: the listen port is still free
    socket.create_server(peers[0]).close()


@pytest.mark.parametrize(
    "overrides, timeout, failure, last_line",
    [
        # a node refuses an algorithm0 config and exits 2, the CLI's code for
        # a ConfigError, after printing the error
        (
            {"mode": "algorithm0"}, 120.0, "exit code 2",
            "error: mode 'algorithm0' runs only in the simulator; "
            "a node runs the two-phase protocol",
        ),
        # 5000 rounds outlast the 0.3 s deadline, before a node prints anything
        ({"max_rounds": 5000}, 0.3, "hung", "no output"),
    ],
    ids=["exit-code", "hung"],
)
def test_a_failed_local_cluster_names_each_node_and_leaves_no_child_running(
    tmp_path, overrides, timeout, failure, last_line
):
    config = make_config(**overrides)
    nodes = "; ".join(
        re.escape(f"node {i} {failure} ({tmp_path / f'node{i}.log'}: {last_line})")
        for i in range(5)
    )
    with pytest.raises(PeerDisconnected, match=f"^cluster nodes failed: {nodes}$"):
        net.run_local_cluster(config, out_dir=tmp_path, timeout=timeout)
    # a node still running would still hold its listen port
    for address in json.loads((tmp_path / "peers.json").read_text()).values():
        host, _, port = address.rpartition(":")
        socket.create_server((host, int(port))).close()


def test_a_local_cluster_runs_the_config_it_was_given(tmp_path):
    """The nodes read back the config file the launcher writes, so floats
    that JSON would spell 1e-05, which YAML reads as text, arrive unchanged."""
    config = make_config(x0={"low": 1e-5, "high": 2e-5}, epsilon=1e-3, max_rounds=4)
    manifests = net.run_local_cluster(config, out_dir=tmp_path, timeout=120.0)
    assert ExperimentConfig.from_yaml(tmp_path / "config.yaml") == config
    final = run_experiment(config).record.trajectory.final()
    assert [m["final_s"] for m in manifests] == [final[i].s for i in range(5)]


def test_local_cluster_frames_are_the_simulators_wire(tmp_path):
    """Each node's ``node<i>.frames`` holds, after its n * d_out key frames
    when encrypted, one share frame per round and out-link, in sending
    order, each payload what the simulator's run puts on that link, bit for
    bit: the (s, w) pair on fig3's plain transport, the ciphertext of the
    packed pair on fig7's encrypted one, so a node and the simulator use
    the same pair layout and the same blinding order."""
    for preset, rounds in (("fig3", 20), ("fig7", 6)):
        path = resources.files("privsum") / "presets" / f"{preset}.yaml"
        config = replace(ExperimentConfig.from_yaml(path), max_rounds=rounds)
        out_dir = tmp_path / preset
        manifests = net.run_local_cluster(config, out_dir=out_dir, timeout=120.0)
        record = run_experiment(config).record
        encrypted = config.mode == MODE_ALGORITHM2
        limit = max_payload(MODE_ENCRYPTED if encrypted else MODE_PLAIN, config.key_bits)
        edge_start = config.graph.layout.edge_start
        for i, manifest in enumerate(manifests):
            path = out_dir / f"node{i}.frames"
            assert str(path) in manifest["outputs"]
            buffer = bytearray(path.read_bytes())
            frames = list(iter(lambda: read_frame(buffer, limit), None))
            assert not buffer
            d_out = config.graph.out_degree(i)
            n_keys = config.graph.n_nodes * d_out if encrypted else 0
            assert len(frames) == n_keys + config.max_rounds * d_out
            assert {frame.msg_type for frame in frames[:n_keys]} <= {MSG_KEY_ANNOUNCE}
            edges = range(edge_start[i], edge_start[i + 1])
            sends = itertools.product(range(config.max_rounds), edges)
            for frame, (k, edge) in zip(frames[n_keys:], sends):
                if encrypted:
                    want = (MSG_SHARE_ENC, pack_uint(record.ciphertexts[k, edge].value))
                else:
                    want = (MSG_SHARE_PLAIN, pack_plain_shares(*record.wire[k, :, edge].tolist()))
                assert (frame.sender_id, frame.round) == (i, k)
                assert (frame.msg_type, frame.payload) == want, (preset, i, k, edge)


# -- live fault injection ------------------------------------------------------


def _run_against_a_hand_rolled_peer(data, close=False, big_k=1):
    """Run node 0 of a two-node cycle (round_timeout 10 s, K = ``big_k``)
    against a test peer playing node 1: it accepts node 0's connection,
    sends ``data`` on its own connection to node 0 and, with ``close``,
    then closes that connection.  Returns the error ``run()`` raised and
    its seconds."""
    g = DirectedGraph.from_edge_list(2, [[0, 1], [1, 0]])
    config = make_config(graph=g, x0=[1.0, 2.0], big_k=big_k)
    ports = allocate_ports(2)
    peers = {i: ("127.0.0.1", ports[i]) for i in range(2)}
    rt = NodeRuntime(0, peers[0], peers, config)
    rt.round_timeout = 10.0
    socks = [socket.create_server(peers[1])]

    def node_1():
        socks.append(socks[0].accept()[0])
        socks.append(socket.create_connection(peers[0]))
        socks[-1].sendall(data)
        if close:
            socks[-1].close()

    peer = threading.Thread(target=node_1)
    peer.start()
    start = time.monotonic()
    try:
        with pytest.raises(Exception) as raised:
            rt.run()
        return raised.value, time.monotonic() - start
    finally:
        peer.join(timeout=10)
        assert not peer.is_alive()
        for sock in socks:
            sock.close()


def _frames(*frames):
    return b"".join(encode_frame(f) for f in frames)


def _share(round_k, sender=1, pair=None):
    """A plain share frame, by default an honest pair for K = 1: w is 0.0
    in the masking rounds 0 and 1."""
    if pair is None:
        pair = (1.0, 0.0 if round_k <= 1 else 0.5)
    return WireFrame(MSG_SHARE_PLAIN, sender, round_k, pack_plain_shares(*pair))


@pytest.mark.parametrize(
    "data, message",
    [
        (b"JUNK" + _frames(_share(0))[4:], "node 0: bad magic b'JUNK'"),
        (b"PSUM\x01" + _frames(_share(0))[5:], "node 0: unsupported version 1"),
        (_oversized_header(MSG_SHARE_PLAIN, 1 << 20), "node 0: .*1048576-byte payload"),
        (_frames(_share(0, sender=7)), "node 0: connection from node 7"),
        (_frames(_share(2)), "node 0: round-2 share from node 1 is 2 rounds ahead"),
    ],
    ids=["garbage-header", "old-version", "oversized-length", "impostor-sender", "too-far-ahead"],
)
def test_live_node_fails_fast_with_protocol_error_on_a_faulty_peer(data, message):
    error, seconds = _run_against_a_hand_rolled_peer(data)
    assert isinstance(error, ProtocolError), error
    assert re.search(message, str(error)), error
    assert seconds < 2.0


@pytest.mark.parametrize(
    "pair, fault",
    [
        ((float("nan"), 0.5), r"\(nan, 0\.5\) is not finite"),
        ((float("inf"), 0.5), r"\(inf, 0\.5\) is not finite"),
        ((1.0, -0.75), r"\(1\.0, -0\.75\) has w != 0 in a masking round"),
        ((1e308, 1e-300), r"\(1e\+308, 1e-300\) has w != 0 in a masking round"),
    ],
    ids=["nan", "inf", "negative-w", "huge-s"],
)
def test_live_node_fails_fast_with_faulty_share_on_a_share_no_honest_peer_sends(pair, fault):
    error, seconds = _run_against_a_hand_rolled_peer(_frames(_share(0, pair=pair)))
    assert isinstance(error, FaultyShare), error
    assert re.search(f"node 0: round-0 share from 1: .*{fault}", str(error)), error
    assert seconds < 2.0


def test_live_node_refuses_a_mixing_share_of_negative_w():
    # at K = 0 round 1 mixes; on the two-node cycle node 1 may run one round ahead
    data = _frames(_share(0), _share(1, pair=(1.0, -0.75)))
    error, seconds = _run_against_a_hand_rolled_peer(data, big_k=0)
    assert isinstance(error, FaultyShare), error
    assert "node 0: round-1 share from 1: (s, w) = (1.0, -0.75) has w <= 0" in str(error)
    assert seconds < 2.0


def test_encrypted_node_checks_the_decrypted_sum_and_names_its_senders():
    rt = _demo_runtime(node=4, mode=MODE_ALGORITHM2)
    assert rt.in_ids == [0, 2]
    public = rt.keypair.public
    codec = FixedPointCodec(public.n, rt.config.fractional_bits, 2)
    # node 0's masking share is honest, node 2's is not: their sum is checked
    for j, pair in zip(rt.in_ids, [(1.0, 0.0), (1.0, 0.5)]):
        cipher = encrypt(public, codec.encode_pair(*pair), random.Random(j))
        rt._dispatch(WireFrame(MSG_SHARE_ENC, j, 0, pack_uint(cipher.value)))
    received = rt._receive_round(0)
    assert received.tolist() == [[2.0, 0.5], [-0.0, -0.0]]
    with pytest.raises(
        FaultyShare,
        match=r"node 4: round-0 shares from 0, 2: \(s, w\) = \(2\.0, 0\.5\) has w != 0",
    ):
        rt._check_shares(0, received)


def test_live_node_fails_fast_when_a_peer_dies_mid_round():
    error, seconds = _run_against_a_hand_rolled_peer(_frames(_share(0)), close=True)
    assert isinstance(error, PeerDisconnected), error
    assert "node 0: node 1 closed its connection" in str(error)
    assert seconds < 2.0


def test_send_never_blocks_and_a_wait_delivers_the_queued_bytes_in_order():
    rt = _two_node_runtime(MODE_PLAIN)
    far_end = socket.socket()
    # small buffers at both ends, so the frames below cannot all fit in them
    far_end.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
    far_end.bind(rt.peers[1])
    far_end.listen()
    frames = [share_frame(0, k, (float(k), 0.5)) for k in range(1 << 17)]  # 4.5 MB
    expected = _frames(*frames)
    received = bytearray()
    socks = [far_end]
    try:
        rt._serve()
        rt._connect_out()
        rt._out_socks[1].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)
        socks.append(far_end.accept()[0])
        # the far end reads nothing yet, so a blocking send would never return
        sender = threading.Thread(target=lambda: [rt._send(1, f) for f in frames], daemon=True)
        sender.start()
        sender.join(timeout=20)
        assert not sender.is_alive()
        assert len(rt._outboxes[1]) > len(expected) // 2

        def read():
            while len(received) < len(expected) and (chunk := socks[1].recv(1 << 16)):
                received.extend(chunk)

        reader = threading.Thread(target=read)
        reader.start()
        rt._drain()
        reader.join(timeout=20)
        assert not reader.is_alive()
        assert received == expected
    finally:
        rt._shutdown()
        for sock in socks:
            sock.close()


def test_an_out_socket_is_registered_for_writing_only_while_bytes_wait():
    rt = _two_node_runtime(MODE_PLAIN)
    far_end = socket.socket()
    far_end.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
    far_end.bind(rt.peers[1])
    far_end.listen()
    socks = [far_end]

    def registered(sock):
        key = rt._selector.get_map().get(sock)
        return key is not None and key.events == selectors.EVENT_WRITE

    try:
        rt._serve()
        rt._connect_out()
        out = rt._out_socks[1]
        out.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)
        socks.append(far_end.accept()[0])
        # a frame the socket takes whole leaves nothing to write later
        rt._send(1, share_frame(0, 0, (1.0, 0.5)))
        assert not rt._outboxes[1] and not registered(out)
        # the far end reads nothing, so the buffers fill and a send is partial
        k = 0
        while not rt._outboxes[1]:
            k += 1
            rt._send(1, share_frame(0, k, (float(k), 0.5)))
        assert registered(out)
        expected = (k + 1) * len(encode_frame(share_frame(0, 0, (1.0, 0.5))))
        received = bytearray()

        def read():
            while len(received) < expected and (chunk := socks[1].recv(1 << 16)):
                received.extend(chunk)

        reader = threading.Thread(target=read)
        reader.start()
        rt._drain()
        reader.join(timeout=20)
        assert not reader.is_alive()
        assert len(received) == expected
        assert not rt._outboxes[1] and not registered(out)
    finally:
        rt._shutdown()
        for sock in socks:
            sock.close()


def test_fig7_manifests_count_the_frames_and_bytes_each_node_sent(tmp_path):
    """On each out-link a node sends the n keys, then one share frame per
    round; the counts match its ``node<i>.frames``, and an encrypted share
    frame at 256-bit keys is at most 18 + 68 bytes: one ciphertext below n^2."""
    preset = resources.files("privsum") / "presets" / "fig7.yaml"
    config = ExperimentConfig.from_yaml(preset)
    manifests = net.run_local_cluster(config, out_dir=tmp_path, timeout=120.0)
    n, bound = config.graph.n_nodes, max_payload(MODE_ENCRYPTED, config.key_bits)
    assert manifests[0]["frames_sent"] == 2 * (5 + 100)
    for i, manifest in enumerate(manifests):
        data = (tmp_path / f"node{i}.frames").read_bytes()
        assert manifest["bytes_sent"] == len(data)
        buffer = bytearray(data)
        frames = list(iter(lambda: read_frame(buffer, bound), None))
        assert not buffer
        d_out = config.graph.out_degree(i)
        assert manifest["frames_sent"] == len(frames) == d_out * (n + config.max_rounds)
        shares = [f for f in frames if f.msg_type == MSG_SHARE_ENC]
        assert len(shares) == d_out * config.max_rounds
        # one decryption per round, of the sum of its in-links' ciphertexts
        assert manifest["decrypts"] == config.max_rounds
        assert max(len(encode_frame(f)) for f in shares) <= 18 + 68
