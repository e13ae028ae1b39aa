"""Networked deployment: one TCP process per node.

Frames are length-prefixed and big-endian throughout.  Each node connects
to its out-neighbors and accepts connections from its in-neighbors, so
traffic follows the directed topology exactly.  Public keys reach everyone
by flooding along graph edges before round 0, each node forwarding them in
ascending origin order, so two runs of one config send the same bytes.
The only synchronization is the data dependency of synchronous push-sum:
a node applies round k once it holds all round-k shares from its
in-neighbors, and never sends round k+1 before that.

Share payloads are either two raw float64s (plain transport, an
``algorithm1`` config) or one length-prefixed Paillier ciphertext under
the receiver's public key, of the (s, w) pair packed into one plaintext
(encrypted transport, an ``algorithm2-simulated`` config).  The packing
leaves headroom for the receiver's in-degree: a receiver multiplies a
round's ciphertexts and decrypts their sum once.  A node draws and folds
with the simulator's own functions (see ``NodeRuntime``), so with
identical seeds the plain-transport trajectory is bit-for-bit the
simulator's, and the encrypted one the encrypted simulation's.

A node runs one ``selectors`` loop on the thread that calls ``run``, and
only while the driver waits.  The loop accepts connections, reads each into a buffer that
``read_frame`` takes whole frames off, and writes the per-peer outboxes
that sends queue into, so a send never blocks.  A bad frame raises
``ProtocolError`` where it is parsed, a socket error ``PeerDisconnected``.
Each inbound connection is bound to the sender id of its first frame, and
a share frame may not run more than n - 1 rounds ahead of the receiver
(the most an honest peer can, on a strongly connected graph of n nodes).
A connection that ends inside a frame is a ``ProtocolError``; one that
ends while the driver still waits on its sender, a ``PeerDisconnected``.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import selectors
import socket
import struct
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .consensus import NodeState, Trajectory, apply_round, split_shares
from .errors import ConfigError, FaultyShare, PeerDisconnected, ProtocolError, Timeout
from .paillier import (
    Ciphertext,
    PaillierKeypair,
    pack_uint,
    public_key_from_bytes,
    public_key_to_bytes,
    unpack_uint,
)
from .sim import (
    MODE_ALGORITHM0, MODE_ALGORITHM1, MODE_ALGORITHM2, ExperimentConfig, PaillierChannel,
    node_keys, resolve_x0,
)
from .weights import generate_round_weights, node_rng, place_round_weights

MAGIC = b"PSUM"
# 4: a receiver of more than one in-link decodes its links' pairs as one
# sum, in a layout with headroom for its in-degree.
VERSION = 4
# Seconds between refused connection attempts: peers start at about the
# same time, so most listeners are up within milliseconds of the first try.
CONNECT_RETRY_FIRST = 0.001
CONNECT_RETRY_MAX = 0.05
# Seconds to reach the out-neighbors, and for each key flood, round and drain.
CONNECT_DEADLINE = 20.0
ROUND_TIMEOUT = 60.0

MSG_KEY_ANNOUNCE = 1
MSG_SHARE_PLAIN = 2
MSG_SHARE_ENC = 3

_HEADER = struct.Struct(">4sBBIII")

MODE_PLAIN = "plain"
MODE_ENCRYPTED = "encrypted"


@dataclass(frozen=True)
class WireFrame:
    msg_type: int
    sender_id: int
    round: int
    payload: bytes


def encode_frame(frame: WireFrame) -> bytes:
    fields = (frame.msg_type, frame.sender_id, frame.round, len(frame.payload))
    return _HEADER.pack(MAGIC, VERSION, *fields) + frame.payload


def max_payload(mode: str, key_bits: int) -> int:
    """The longest legal frame payload on a transport: two float64s in the
    clear; under encryption with ``key_bits``-bit keys, the longer of a key
    announcement (origin, length, n) and one length-prefixed ciphertext
    below n^2."""
    if mode == MODE_PLAIN:
        return 16
    key_announce = 8 + -(-key_bits // 8)
    cipher = 4 + -(-2 * key_bits // 8)
    return max(key_announce, cipher)


def read_frame(buffer: bytearray, max_length: int) -> WireFrame | None:
    """Take the next complete frame off the front of a receive buffer; None
    while it is incomplete.  A bad header, or one declaring a payload longer
    than ``max_length`` bytes, is rejected as soon as the header is in,
    before any of its declared payload arrives."""
    if len(buffer) < _HEADER.size:
        return None
    magic, version, msg_type, sender, round_k, length = _HEADER.unpack_from(buffer)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    if length > max_length:
        raise ProtocolError(
            f"frame declares a {length}-byte payload, over the {max_length}-byte limit"
        )
    end = _HEADER.size + length
    if len(buffer) < end:
        return None
    payload = bytes(buffer[_HEADER.size : end])
    del buffer[:end]
    return WireFrame(msg_type=msg_type, sender_id=sender, round=round_k, payload=payload)


def pack_plain_shares(s_share: float, w_share: float) -> bytes:
    return struct.pack(">dd", s_share, w_share)


def unpack_plain_shares(payload: bytes) -> tuple[float, float]:
    if len(payload) != 16:
        raise ProtocolError("plain share payload must be 16 bytes")
    return struct.unpack(">dd", payload)


def unpack_cipher_share(payload: bytes) -> int:
    value, end = unpack_uint(payload, 0, ProtocolError)
    if end != len(payload):
        raise ProtocolError("trailing bytes after the share ciphertext")
    return value


def share_frame(
    sender: int, round_k: int, share: tuple[float, float] | np.ndarray | Ciphertext
) -> WireFrame:
    """The frame carrying one share pair: its two floats (s, w) in the
    clear, or the one ciphertext of the packed pair."""
    if isinstance(share, Ciphertext):
        return WireFrame(MSG_SHARE_ENC, sender, round_k, pack_uint(share.value))
    return WireFrame(MSG_SHARE_PLAIN, sender, round_k, pack_plain_shares(*share))


def pack_key_announce(origin: int, public_key) -> bytes:
    return origin.to_bytes(4, "big") + public_key_to_bytes(public_key)


def unpack_key_announce(payload: bytes):
    if len(payload) < 4:
        raise ProtocolError("truncated key announcement")
    origin = int.from_bytes(payload[:4], "big")
    key, rest = public_key_from_bytes(payload[4:], ProtocolError)
    if rest:
        raise ProtocolError("trailing bytes after key announcement")
    return origin, key


@dataclass(eq=False)
class _Inbound:
    """An accepted connection, its unframed bytes and its bound sender."""

    sock: socket.socket
    buffer: bytearray = field(default_factory=bytearray)
    sender: int | None = None


class NodeRuntime:
    """One protocol node bound to a listening TCP socket.

    Runs its own column of the simulator's round engine with the engine's
    functions: one ``generate_round_weights`` call draws every round's
    value rows into the w half of its ``(rounds, 2, targets)`` block, from
    its weight stream, and ``place_round_weights`` finishes the block.
    One block of ``__init__`` makes what the node derives from the config:
    its ``sim.node_keys`` (keypair and blinding stream), weight stream and
    value.  Each round one ``consensus.split_shares`` call gives the
    out-shares and the retained share, and ``apply_round`` folds the
    retained share and the received ones, by ascending sender.  The states
    sit in the engine's ``(rounds + 1, 2, 1)`` layout; the CSV rows and the
    final state are read off their ``Trajectory``.  Under encryption the
    out-shares pass through one ``PaillierChannel.transmit`` call, and one
    ``receive`` call multiplies the in-links' ciphertexts and decrypts
    their sum once, which the fold adds in the lowest sender's slot, -0.0
    in the others.  A round is applied only when every in-neighbor's share
    for it has arrived, and is refused with ``FaultyShare`` if one holds
    values no honest peer sends (``_check_shares``); there is no other
    synchronization, at startup or at the end.  ``channel`` is None
    exactly on the plain transport.

    Its one selector covers the listener, every accepted connection and
    every out-socket with queued bytes; ``_wait`` runs it until what the
    driver waits for is in, a node it waits on has closed its connection,
    or the deadline passes.  The run empties every outbox before closing.
    The manifest counts every frame sent and its bytes.  An ``out_dir``
    gets ``node<i>.csv``, the trajectory, ``node<i>.frames``, every frame
    sent, and ``node<i>.manifest.json``, which lists both.
    """

    def __init__(
        self,
        node_id: int,
        listen: tuple[str, int],
        peers: dict[int, tuple[str, int]],
        config: ExperimentConfig,
        out_dir: str | Path | None = None,
    ) -> None:
        config.validate()
        # A node runs the two-phase protocol; a config asking for the
        # baseline is refused rather than run differently from the simulator.
        if config.mode == MODE_ALGORITHM0:
            raise ConfigError(
                f"mode {MODE_ALGORITHM0!r} runs only in the simulator; a node "
                f"runs the two-phase protocol"
            )
        n = config.graph.n_nodes
        if not 0 <= node_id < n:
            raise ConfigError(f"node id {node_id} is not a node of the {n}-node graph")
        if missing := [j for j in config.graph.out_neighbors(node_id) if j not in peers]:
            raise ConfigError(
                f"peers give no address for out-neighbor(s) {missing} of node {node_id}"
            )
        self.node_id = node_id
        self.listen = listen
        self.peers = peers
        self.config = config
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.connect_deadline = CONNECT_DEADLINE
        self.round_timeout = ROUND_TIMEOUT

        self.graph = config.graph
        self.out_ids = list(self.graph.out_neighbors(node_id))
        self.in_ids = list(self.graph.in_neighbors(node_id))

        # (round, sender) -> the (s, w) pair or its ciphertext as it came
        # off the wire.
        self._shares: dict[tuple[int, int], tuple[float, float] | Ciphertext] = {}
        self._key_directory: dict[int, object] = {}
        # In-neighbors whose connection has announced itself, and those
        # whose connection has since ended.
        self._claimed: set[int] = set()
        self._ended: set[int] = set()
        # The round whose shares the driver applies next; a share frame for
        # an earlier round is stale.
        self._round = 0
        self._selector: selectors.BaseSelector | None = None
        # Every socket opened, for ``_shutdown`` to close.
        self._sockets: list[socket.socket] = []
        self._out_socks: dict[int, socket.socket] = {}
        self._outboxes = {peer: bytearray() for peer in self.out_ids}
        # Out-sockets registered with the selector for writing.
        self._writing: set[socket.socket] = set()
        self._sent_frames: list[bytes] = []
        self._frames_sent = self._bytes_sent = 0
        self._wait_seconds: list[float] = []

        # What this node derives from the config: its keys, its weight
        # stream and its value.
        self.keypair: PaillierKeypair | None = None
        self.channel: PaillierChannel | None = None
        if config.mode == MODE_ALGORITHM2:
            keys = node_keys(config.key_bits, config.seed, node_id)
            self.keypair = keys.keypair
            self._key_directory[node_id] = self.keypair.public
            # Reads the live directory: every key is in it before round 0.
            in_degrees = {j: self.graph.in_degree(j) for j in self.graph.nodes()}
            self.channel = PaillierChannel(
                self._key_directory, {node_id: keys}, config.fractional_bits, in_degrees
            )
        self._weight_stream = node_rng(config.seed, node_id)
        self._x0 = resolve_x0(config)[node_id]
        self.mode = MODE_PLAIN if self.channel is None else MODE_ENCRYPTED
        self._max_payload = max_payload(self.mode, config.key_bits)

    # -- wiring -----------------------------------------------------------

    def _serve(self) -> None:
        self._selector = selectors.DefaultSelector()
        try:
            listener = socket.create_server(self.listen, backlog=len(self.in_ids) + 4)
        except OSError as exc:
            host, port = self.listen
            raise ConfigError(
                f"node {self.node_id} cannot listen on {host}:{port}: {exc}"
            ) from exc
        self._sockets.append(listener)
        listener.setblocking(False)
        self._selector.register(
            listener, selectors.EVENT_READ, lambda: self._accept(listener)
        )

    def _accept(self, listener: socket.socket) -> None:
        try:
            conn, _ = listener.accept()
        except (BlockingIOError, ConnectionAbortedError):
            return
        self._sockets.append(conn)
        conn.setblocking(False)
        link = _Inbound(conn)
        self._selector.register(conn, selectors.EVENT_READ, lambda: self._receive(link))

    def _connect_out(self) -> None:
        """Connect to every out-neighbor, retrying a refused peer after
        ``CONNECT_RETRY_FIRST`` seconds, twice as long after each further
        refusal, up to ``CONNECT_RETRY_MAX``, until ``connect_deadline``."""
        deadline = time.monotonic() + self.connect_deadline
        for peer in self.out_ids:
            host, port = self.peers[peer]
            delay = CONNECT_RETRY_FIRST
            while True:
                try:
                    sock = socket.create_connection((host, port), timeout=2.0)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise PeerDisconnected(
                            f"node {self.node_id} could not reach peer {peer} "
                            f"at {host}:{port} within {self.connect_deadline}s"
                        )
                    time.sleep(delay)
                    delay = min(2 * delay, CONNECT_RETRY_MAX)
            self._sockets.append(sock)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self._out_socks[peer] = sock

    def _receive(self, link: _Inbound) -> None:
        """Read what an inbound connection holds and dispatch each complete
        frame in it."""
        try:
            chunk = link.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError as exc:
            raise PeerDisconnected(
                f"node {self.node_id}: receive loop failed: {exc}"
            ) from exc
        try:
            if not chunk:
                self._selector.unregister(link.sock)
                link.sock.close()
                if link.buffer:
                    raise ProtocolError("stream ended inside a frame")
                if link.sender is not None:
                    self._ended.add(link.sender)
                return
            link.buffer += chunk
            while (frame := read_frame(link.buffer, self._max_payload)) is not None:
                if link.sender is None:
                    link.sender = self._claim(frame.sender_id)
                elif frame.sender_id != link.sender:
                    raise ProtocolError(
                        f"frame from node {frame.sender_id} on the connection "
                        f"of node {link.sender}"
                    )
                self._dispatch(frame)
        except ProtocolError as exc:
            raise ProtocolError(f"node {self.node_id}: {exc}") from exc

    def _claim(self, sender: int) -> int:
        """Bind a new inbound connection to the sender of its first frame."""
        if sender not in self.in_ids:
            raise ProtocolError(
                f"connection from node {sender}, "
                f"not an in-neighbor of node {self.node_id}"
            )
        if sender in self._claimed:
            raise ProtocolError(f"second connection from node {sender}")
        self._claimed.add(sender)
        return sender

    def _dispatch(self, frame: WireFrame) -> None:
        """Take in one frame; ``_receive`` has checked that its sender is
        the in-neighbor its connection is bound to."""
        if frame.msg_type == MSG_KEY_ANNOUNCE:
            origin, key = unpack_key_announce(frame.payload)
            # keygen(k) makes a modulus of 2 * (k // 2) bits or one fewer.
            size, bits = key.n.bit_length(), 2 * (self.config.key_bits // 2)
            if self.channel is None:
                fault = "the plain transport carries no keys"
            elif not 0 <= origin < self.graph.n_nodes:
                fault = f"not a node of the {self.graph.n_nodes}-node graph"
            elif size not in (bits - 1, bits):
                fault = f"a {size}-bit modulus, not one of {bits - 1} or {bits} bits"
            else:
                fault = None
            if fault is not None:
                raise ProtocolError(
                    f"key announcement from node {frame.sender_id} for origin {origin}: {fault}"
                )
            self._key_directory.setdefault(origin, key)
        elif frame.msg_type in (MSG_SHARE_PLAIN, MSG_SHARE_ENC):
            wire = self._wire_share(frame)
            key = (frame.round, frame.sender_id)
            if frame.round < self._round:
                raise ProtocolError(
                    f"stale round-{frame.round} share from node {frame.sender_id}: "
                    f"node {self.node_id} is at round {self._round}"
                )
            if frame.round >= self.config.max_rounds:
                raise ProtocolError(
                    f"round-{frame.round} share from node {frame.sender_id}: "
                    f"the run has {self.config.max_rounds} rounds"
                )
            ahead = frame.round - self._round
            if ahead >= self.graph.n_nodes:
                raise ProtocolError(
                    f"round-{frame.round} share from node {frame.sender_id} is "
                    f"{ahead} rounds ahead of node {self.node_id}, more than "
                    f"n - 1 = {self.graph.n_nodes - 1}"
                )
            if key in self._shares:
                raise ProtocolError(
                    f"duplicate round-{frame.round} share from node {frame.sender_id}"
                )
            self._shares[key] = wire
        else:
            raise ProtocolError(f"unknown message type {frame.msg_type}")

    def _wire_share(self, frame: WireFrame) -> tuple[float, float] | Ciphertext:
        """Inverse of ``share_frame`` for a share addressed to this node."""
        expected = MSG_SHARE_PLAIN if self.channel is None else MSG_SHARE_ENC
        if frame.msg_type != expected:
            raise ProtocolError(
                f"share frame of type {frame.msg_type} on a {self.mode} transport"
            )
        if self.channel is None:
            return unpack_plain_shares(frame.payload)
        return Ciphertext(unpack_cipher_share(frame.payload), self.keypair.public.key_id)

    def _send(self, peer: int, frame: WireFrame) -> None:
        """Queue a frame behind the peer's unsent bytes and write what the
        socket takes now; never blocks."""
        data = encode_frame(frame)
        self._frames_sent += 1
        self._bytes_sent += len(data)
        if self.out_dir is not None:
            self._sent_frames.append(data)
        self._outboxes[peer] += data
        self._flush(peer)

    def _flush(self, peer: int) -> None:
        """Write what the socket takes of the peer's outbox; the socket is
        registered for writing exactly while bytes are left."""
        outbox, sock = self._outboxes[peer], self._out_socks[peer]
        try:
            del outbox[: sock.send(outbox)]
        except BlockingIOError:
            pass
        except OSError as exc:
            raise PeerDisconnected(
                f"node {self.node_id} lost its link to peer {peer}: {exc}"
            ) from exc
        if not outbox and sock in self._writing:
            self._writing.remove(sock)
            self._selector.unregister(sock)
        elif outbox and sock not in self._writing:
            self._writing.add(sock)
            self._selector.register(
                sock, selectors.EVENT_WRITE, lambda: self._flush(peer)
            )

    # -- protocol phases ---------------------------------------------------

    def flood_public_keys(self) -> None:
        """Forward every node's public key to each out-neighbor once, in
        ascending origin order, the local key at its turn.

        Key o is forwarded only after every key below it, so each link
        carries the same n frames in the same order in every run.  This
        cannot deadlock on a strongly connected graph: key 0 waits on
        nothing and so reaches every node, and by induction so does each
        key after it.  The directory is write-once per origin, so a
        re-delivered announcement is dropped.
        """
        deadline = time.monotonic() + self.round_timeout

        def missing(origin: int) -> list[int]:
            if origin in self._key_directory:
                return []
            return sorted(set(self.graph.nodes()) - set(self._key_directory))

        for origin in self.graph.nodes():
            self._wait(
                lambda: missing(origin),
                deadline,
                lambda left: Timeout(
                    f"node {self.node_id}: key directory incomplete, "
                    f"missing keys for nodes {left}"
                ),
            )
            payload = pack_key_announce(origin, self._key_directory[origin])
            for peer in self.out_ids:
                self._send(peer, WireFrame(MSG_KEY_ANNOUNCE, self.node_id, 0, payload))

    def _drain(self) -> None:
        """Run the loop until every outbox is empty."""
        self._wait(
            lambda: [peer for peer in self.out_ids if self._outboxes[peer]],
            time.monotonic() + self.round_timeout,
            lambda left: PeerDisconnected(
                f"node {self.node_id}: frames to {left} still unsent after "
                f"{self.round_timeout}s"
            ),
        )

    def _wait(
        self,
        waiting: Callable[[], list[int]],
        deadline: float,
        fail: Callable[[list[int]], Exception],
    ) -> None:
        """Run the event loop until ``waiting()`` names no node left to
        wait for.  A named node whose inbound connection has ended raises
        ``PeerDisconnected`` at once; past ``deadline`` the error that
        ``fail`` builds from what is still missing is raised."""
        while left := waiting():
            if ended := [j for j in left if j in self._ended]:
                raise PeerDisconnected(
                    f"node {self.node_id}: node {ended[0]} closed its connection "
                    f"while its frames were still awaited"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise fail(left)
            for key, _ in self._selector.select(remaining):
                key.data()  # accept, read or write

    def _receive_round(self, round_k: int) -> np.ndarray:
        """Wait for every in-neighbor's round-k share, then return the
        (s, w) pairs by ascending sender as an ``(in-degree, 2)`` array.
        Under the encrypted transport one channel call decrypts their sum,
        which fills the first row, and the other rows are -0.0.  The time
        spent waiting is recorded per round."""
        start = time.perf_counter()
        self._wait(
            lambda: [j for j in self.in_ids if (round_k, j) not in self._shares],
            time.monotonic() + self.round_timeout,
            lambda left: PeerDisconnected(
                f"node {self.node_id}: round {round_k} shares never "
                f"arrived from {left}"
            ),
        )
        self._wait_seconds.append(time.perf_counter() - start)
        wire = [self._shares.pop((round_k, j)) for j in self.in_ids]
        self._round = round_k + 1
        if self.channel is None:
            return np.array(wire)
        receivers = [self.node_id] * len(self.in_ids)
        return self.channel.receive(self.in_ids, receivers, round_k, wire).T

    def _check_shares(self, round_k: int, received: np.ndarray) -> None:
        """Raise ``FaultyShare`` unless what ``_receive_round`` returned
        could come from honest peers: each sender's (s, w) pair in the
        clear, under encryption the decrypted sum, named by every sender in
        it (the -0.0 pad rows are no shares).  s and w must be finite, and
        w exactly 0.0 in a masking round, where the w side is the identity,
        and above 0 in a mixing round, a weight in (epsilon, 1) times a
        positive w."""
        masking = round_k <= self.config.big_k
        if self.channel is None:
            pairs = zip(([j] for j in self.in_ids), received.tolist())
        else:
            pairs = zip([self.in_ids], received[:1].tolist())
        for senders, (s, w) in pairs:
            if not (math.isfinite(s) and math.isfinite(w)):
                fault = "is not finite"
            elif masking and w != 0.0:
                fault = "has w != 0 in a masking round"
            elif not masking and not w > 0.0:
                fault = "has w <= 0 in a mixing round"
            else:
                continue
            raise FaultyShare(
                f"node {self.node_id}: round-{round_k} share{'s' * (len(senders) > 1)} "
                f"from {', '.join(map(str, senders))}: (s, w) = ({s!r}, {w!r}) {fault}"
            )

    # -- main driver -------------------------------------------------------

    def run(self) -> tuple[NodeState, dict]:
        """Execute the configured number of rounds; returns the final node
        state (Python floats) and a manifest of summary statistics."""
        try:
            self._serve()
            self._connect_out()
            if self.channel is not None:
                self.flood_public_keys()

            rounds = self.config.max_rounds
            m = len(self.out_ids) + 1
            # Per round a (2, targets) row: (s, w) weights, self last.
            weights = np.empty((rounds, 2, m))
            params = self.config.params
            stream = [(self.node_id, self._weight_stream)]
            generate_round_weights(stream, params, 0, weights[:, 1, None])
            place_round_weights(weights, np.arange(m), 1, params.masking_rounds(0, rounds))
            states = np.empty((rounds + 1, 2, 1))
            states[0] = [[self._x0], [1.0]]
            senders = [self.node_id] * len(self.out_ids)

            for k, row in enumerate(weights):
                shares = split_shares(row, states[k])
                outgoing = shares[:, :-1]
                if self.channel is None:
                    wire = outgoing.T
                else:
                    wire = self.channel.transmit(senders, self.out_ids, outgoing)
                for peer, share in zip(self.out_ids, wire):
                    self._send(peer, share_frame(self.node_id, k, share))
                received = self._receive_round(k).reshape(-1, 2, 1)
                self._check_shares(k, received[..., 0])
                states[k + 1] = apply_round(shares[:, -1:], received, k, (self.node_id,))

            # No end-of-run handshake is needed.  The last round took every
            # in-neighbor's last share, and on each link their keys and
            # earlier shares came before it, so every frame sent to this
            # node is read and closing leaves no unread byte to reset the
            # connection.  Once the outboxes are empty the kernel holds
            # every frame this node sends, so no peer is left waiting.
            self._drain()
            trajectory = Trajectory(states)
            final = replace(trajectory.final()[0], node_id=self.node_id)
            return final, self._finish(final, trajectory)
        finally:
            self._shutdown()

    def _finish(self, state: NodeState, trajectory: Trajectory) -> dict:
        enc = dec = tables = []
        if (channel := self.channel) is not None:
            enc, dec = channel.encrypt_seconds, channel.decrypt_seconds
            tables = channel.table_build_seconds
        manifest = {
            "node_id": self.node_id,
            "mode": self.mode,
            "rounds": self.config.max_rounds,
            "final_s": state.s,
            "final_w": state.w,
            "final_pi": state.pi,
            "mean_encrypt_ms": float(np.mean(enc)) * 1e3 if enc else None,
            "max_encrypt_ms": float(np.max(enc)) * 1e3 if enc else None,
            "blinding_table_ms": sum(tables) * 1e3 if tables else None,
            "mean_decrypt_ms": float(np.mean(dec)) * 1e3 if dec else None,
            "max_decrypt_ms": float(np.max(dec)) * 1e3 if dec else None,
            "decrypts": len(dec),
            "mean_wait_ms": float(np.mean(self._wait_seconds)) * 1e3,
            "max_wait_ms": float(np.max(self._wait_seconds)) * 1e3,
            "frames_sent": self._frames_sent,
            "bytes_sent": self._bytes_sent,
            "outputs": [],
        }
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            csv_path = self.out_dir / f"node{self.node_id}.csv"
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["round", "s", "w", "pi"])
                columns = (trajectory.s, trajectory.w, trajectory.pi)
                for k, values in enumerate(zip(*(c[:, 0].tolist() for c in columns))):
                    writer.writerow([k, *map(repr, values)])
            frames_path = self.out_dir / f"node{self.node_id}.frames"
            frames_path.write_bytes(b"".join(self._sent_frames))
            manifest["outputs"] += [str(csv_path), str(frames_path)]
            manifest_path = self.out_dir / f"node{self.node_id}.manifest.json"
            manifest_path.write_text(json.dumps(manifest, indent=2))
        return manifest

    def _shutdown(self) -> None:
        for sock in self._sockets:
            sock.close()
        if self._selector is not None:
            self._selector.close()


def run_networked(
    node_id: int,
    listen: tuple[str, int],
    peers: dict[int, tuple[str, int]],
    config: ExperimentConfig,
    mode: str | None = None,
) -> tuple[NodeState, dict]:
    """Run one networked node, with no outputs, to completion on the
    transport the config's mode names.  ``mode=MODE_ENCRYPTED`` runs an
    ``algorithm1`` config as its ``algorithm2-simulated`` twin, which is what
    the benchmark's pair node needs; no other ``mode`` is accepted, so no
    caller can run a config in the clear that names encryption."""
    if mode not in (None, MODE_ENCRYPTED):
        raise ConfigError(f"mode must be None or {MODE_ENCRYPTED!r}, not {mode!r}")
    if mode is not None and config.mode == MODE_ALGORITHM1:
        config = replace(config, mode=MODE_ALGORITHM2)
    return NodeRuntime(node_id, listen, peers, config).run()


def allocate_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    """Grab ephemeral ports by binding and releasing them."""
    with contextlib.ExitStack() as stack:
        socks = [stack.enter_context(socket.socket()) for _ in range(count)]
        for s in socks:
            s.bind((host, 0))
        return [s.getsockname()[1] for s in socks]


def run_local_cluster(
    config: ExperimentConfig,
    out_dir: str | Path = ".",
    host: str = "127.0.0.1",
    timeout: float = 300.0,
) -> list[dict]:
    """Run each node as a ``python -m privsum node`` process of this copy of
    privsum, wait, and return the per-node manifests read back from disk.
    ``out_dir`` gets the nodes' ``config.yaml`` and ``peers.json`` and each
    node's output, its stdout and stderr in ``node<i>.log``.  A node still
    running at ``timeout`` is killed, so no child survives the call; any
    failed node raises ``PeerDisconnected`` naming each one with its exit
    code or "hung" and its log's path and last line."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = config.graph.n_nodes
    peers = {str(i): f"{host}:{port}" for i, port in enumerate(allocate_ports(n, host))}
    # YAML, which reads back every float it writes; PyYAML reads JSON's 1e-05 as text.
    (out_dir / "config.yaml").write_text(yaml.safe_dump(config.to_dict()))
    (out_dir / "peers.json").write_text(json.dumps(peers))
    package_root = str(Path(__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    logs = [out_dir / f"node{i}.log" for i in range(n)]
    procs = []
    try:
        for i, log in enumerate(logs):
            # A file, not a pipe, which a chatty node could fill and block on.
            with open(log, "wb") as fh:
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "privsum", "node", "--node-id", str(i),
                     "--listen", peers[str(i)], "--peers", str(out_dir / "peers.json"),
                     "--config", str(out_dir / "config.yaml"), "--out-dir", str(out_dir)],
                    env={**os.environ, "PYTHONPATH": path}, stdout=fh, stderr=subprocess.STDOUT,
                ))
        deadline = time.monotonic() + timeout
        for p in procs:
            with contextlib.suppress(subprocess.TimeoutExpired):
                p.wait(max(0.0, deadline - time.monotonic()))
        codes = [p.poll() for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    failed = [
        f"node {i} {'hung' if code is None else f'exit code {code}'} ({log}: "
        f"{(log.read_text(errors='replace').splitlines() or ['no output'])[-1]})"
        for i, (code, log) in enumerate(zip(codes, logs))
        if code != 0
    ]
    if failed:
        raise PeerDisconnected(f"cluster nodes failed: {'; '.join(failed)}")
    return [json.loads((out_dir / f"node{i}.manifest.json").read_text()) for i in range(n)]
