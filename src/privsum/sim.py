"""Deterministic in-process experiment harness.

Wires graph + weights + consensus (and optionally the Paillier layer)
together from a declarative config, records full traces, computes the
error series against the true average, and exposes the transition-matrix
product oracle that the invariant suites check the round engine against.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from functools import partial, reduce
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import yaml

from .adversary import ATTACKS, AdversaryView, build_adversary_view
from .consensus import (
    RunRecord,
    Trajectory,
    WeightTable,
    run_algorithm0,
    run_algorithm1,
)
from .errors import ConfigError, DecryptFailure, MagnitudeOverflow, RangeUncovered
from .graph import DirectedGraph, is_strongly_connected, max_in_degree, max_out_degree
from .paillier import (
    Ciphertext,
    FixedPointCodec,
    PaillierKeypair,
    PaillierPublicKey,
    add_ciphertexts,
    decrypt,
    encrypt,
    keygen,
    smallest_key_bits,
)
from .weights import WeightParams, derive_seed

MODE_ALGORITHM0 = "algorithm0"
MODE_ALGORITHM1 = "algorithm1"
MODE_ALGORITHM2 = "algorithm2-simulated"
MODES = (MODE_ALGORITHM0, MODE_ALGORITHM1, MODE_ALGORITHM2)

DEFAULT_FRACTIONAL_BITS = 48


@dataclass(frozen=True)
class RunPlan:
    """The numbers a run is sized by, decided once by
    ``ExperimentConfig.validate`` for the simulator, a node and ``verify``.

    ``fan_in`` is the most share pairs one receiver sums in a round: the
    graph's largest in-degree, and at least 1, the least fan-in a codec
    takes.  Every |s|, |w| and |share| of the run is at most
    2^``peak_bits``.  ``key_bits`` is the smallest key whose codec carries
    that bound at the config's fractional bits and ``fan_in``.
    """

    fan_in: int
    peak_bits: int
    key_bits: int


@dataclass(frozen=True)
class AdversarySpec:
    """Which nodes collude, whom they attack, and how."""

    members: tuple[int, ...]
    target: int
    attack: str = "least_squares"
    trials: int = 1
    target_x0: tuple[float, ...] = ()


@dataclass
class ExperimentConfig:
    """Declarative description of one run.

    ``x0`` is either an explicit per-node list or ``{"low": a, "high": b}``,
    in which case initial values are drawn uniformly per seed.
    """

    graph: DirectedGraph
    x0: object
    big_k: int = 1
    epsilon: float = 0.01
    phase_a_range: float = 10.0
    max_rounds: int = 100
    # Kept only because the benchmark's workloads still pass stop_tol=0.0;
    # 0 is the only value ``validate`` accepts.
    stop_tol: float = 0.0
    seed: int = 1
    mode: str = MODE_ALGORITHM1
    adversary: AdversarySpec | None = None
    key_bits: int = 256
    fractional_bits: int = DEFAULT_FRACTIONAL_BITS

    @property
    def params(self) -> WeightParams:
        return WeightParams(
            big_k=self.big_k,
            epsilon=self.epsilon,
            phase_a_range=self.phase_a_range,
        )

    def validate(self) -> RunPlan:
        """Check the config and return its ``RunPlan``; a config no run can
        carry out is a ``ConfigError``."""
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not is_strongly_connected(self.graph):
            raise ConfigError("graph must be strongly connected")
        fan_out = max_out_degree(self.graph) + 1  # a node's targets, itself included
        if not 0.0 < self.epsilon < 1.0 / fan_out:
            raise ConfigError(
                f"epsilon={self.epsilon} must lie in (0, {1.0 / fan_out}) "
                f"(1 / (max out-degree + 1)) for this graph"
            )
        if self.max_rounds < self.big_k + 2:
            raise ConfigError(
                f"max_rounds={self.max_rounds} must be at least K+2={self.big_k + 2}"
            )
        if self.stop_tol != 0.0:
            raise ConfigError(
                f"stop_tol={self.stop_tol}: a run lasts all max_rounds={self.max_rounds} "
                f"rounds and cannot stop early; set stop_tol to 0"
            )
        self.params  # triggers WeightParams validation
        if self.mode == MODE_ALGORITHM2 and self.fractional_bits <= 0:
            raise ConfigError("fractional_bits must be positive")
        if isinstance(self.x0, dict):
            if set(self.x0) != {"low", "high"} or not _finite(self.x0.values()):
                raise ConfigError("x0 range must be {'low': a, 'high': b}, both finite")
            if not self.x0["low"] < self.x0["high"]:
                raise ConfigError("x0 range must be {'low': a, 'high': b} with a < b")
        elif len(list(self.x0)) != self.graph.n_nodes:
            raise ConfigError(
                f"x0 has {len(list(self.x0))} entries for {self.graph.n_nodes} nodes"
            )
        elif not _finite(self.x0):
            raise ConfigError("x0 entries must be finite numbers")
        if self.adversary is not None:
            members = set(self.adversary.members)
            nodes = set(self.graph.nodes())
            if not members <= nodes or self.adversary.target not in nodes:
                raise ConfigError("adversary spec references nodes outside the graph")
            if self.adversary.target in members:
                raise ConfigError("adversary target cannot be a member")
            if self.adversary.attack not in ATTACKS:
                raise ConfigError(
                    f"unknown attack {self.adversary.attack!r}; "
                    f"choose from {tuple(ATTACKS)}"
                )
            if self.adversary.trials < 1:
                raise ConfigError(
                    f"adversary trials={self.adversary.trials} must be at least 1"
                )
            if not _finite(self.adversary.target_x0):
                raise ConfigError("adversary target_x0 entries must be finite numbers")
        plan = _run_plan(self, fan_out)
        if self.mode == MODE_ALGORITHM2 and self.key_bits < plan.key_bits:
            raise ConfigError(
                f"key_bits={self.key_bits} cannot carry this run's values, up to "
                f"2^{plan.peak_bits} at fractional_bits={self.fractional_bits} and "
                f"fan-in {plan.fan_in}; it needs {plan.key_bits} bits"
            )
        return plan

    def to_dict(self) -> dict:
        d: dict = {
            "graph": {"n_nodes": self.graph.n_nodes, "edges": self.graph.edge_list()},
            "x0": _float_x0(self.x0),
            **{key: getattr(self, key) for key in _CONFIG_KEYS},
        }
        if self.adversary is not None:
            # Tuple fields are written as lists, the way a config spells them.
            keys = ("members", "target", *_ADVERSARY_KEYS)
            fields = {key: getattr(self.adversary, key) for key in keys}
            d["adversary"] = {
                key: list(v) if isinstance(v, tuple) else v for key, v in fields.items()
            }
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_keys(raw, {"graph", "x0", "adversary", *_CONFIG_KEYS}, "config")
        section = _read(raw, "graph", dict)
        graph = DirectedGraph.from_edge_list(
            _read(section, "n_nodes", _int),
            _read(section, "edges", lambda pairs: [(_int(i), _int(j)) for i, j in pairs]),
        )
        adversary = None
        if raw.get("adversary"):
            a = _read(raw, "adversary", dict)
            _check_keys(a, {"members", "target", *_ADVERSARY_KEYS}, "adversary")
            adversary = AdversarySpec(
                members=_read(a, "members", lambda ms: tuple(_int(m) for m in ms)),
                target=_read(a, "target", _int),
                **_present(a, _ADVERSARY_KEYS),
            )
        cfg = cls(
            graph=graph,
            x0=_read(raw, "x0", _float_x0),
            adversary=adversary,
            **_present(raw, _CONFIG_KEYS),
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config_file(path))


# libyaml's parser where PyYAML was built with it, PyYAML's own otherwise.
# Both feed the same Python constructor and resolver, so a file maps to the
# same dict either way; libyaml reads the fig3 preset 4-5 times faster.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def read_config_file(path) -> dict:
    """The mapping a YAML config file holds, parsed by libyaml when the
    installed PyYAML has it.  A file that cannot be read or is not UTF-8,
    a YAML syntax error and a document that is not a mapping are each a
    one-line ``ConfigError`` naming the file."""
    try:
        # Bytes, not text: the parser then reports a bad encoding as a
        # YAMLError instead of the file object raising UnicodeDecodeError.
        with open(path, "rb") as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        detail = " ".join(str(exc).split())  # a YAML error spans lines
        raise ConfigError(f"cannot read config file {path}: {detail}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} does not contain a mapping")
    return raw


def _run_plan(config: ExperimentConfig, fan_out: int) -> RunPlan:
    """The ``RunPlan`` of a config whose every other field is checked;
    ``fan_out`` is m_max, the most targets a node has, itself included.

    A masking column is m uniforms on (-B, B), each less their mean, plus
    1/m, so its l1 norm is at most 1 + 2B(m - 1); a mixing column's is 1.
    So no ||s(k)||_1, and no share, exceeds
    ||x0||_1 (1 + 2B(m_max - 1))^(K+1), and w, 1 through round K+1 and
    then positive with sum n, never exceeds n.  The bound is taken in
    log2, so a huge B or K cannot overflow it.
    """
    b = config.phase_a_range
    # 2B * fan_out bounds every intermediate of a masking draw (``weights._value_rows``).
    if not math.isfinite(2.0 * b * fan_out):
        raise ConfigError(f"phase_a_range={b}: 2 * B * (max out-degree + 1) overflows")
    peak_bits = config.graph.n_nodes.bit_length()
    x0_bits = _log2_x0_norm(config)
    if x0_bits > -math.inf:
        growth = (config.big_k + 1) * math.log2(1.0 + 2.0 * b * (fan_out - 1))
        peak_bits = max(peak_bits, math.ceil(x0_bits + growth))
    # A receiver sums its in-links' pairs, so the graph's largest
    # in-degree sets the layout's headroom.
    fan_in = max(1, max_in_degree(config.graph))
    key_bits = smallest_key_bits(config.fractional_bits, fan_in, peak_bits)
    return RunPlan(fan_in=fan_in, peak_bits=peak_bits, key_bits=key_bits)


def _log2_x0_norm(config: ExperimentConfig) -> float:
    """log2 of a bound on ||x0||_1 over every value the config gives a
    node: sum |x| for a list, n * max(|low|, |high|) for a range, and the
    target's term widened to the adversary's ``target_x0``.  -inf when
    every value is 0."""
    if isinstance(config.x0, dict):
        bounds = [max(abs(config.x0["low"]), abs(config.x0["high"]))] * config.graph.n_nodes
    else:
        bounds = [abs(float(v)) for v in config.x0]
    if config.adversary is not None:
        target = config.adversary.target
        bounds[target] = max([bounds[target], *map(abs, config.adversary.target_x0)])
    top = max(bounds)
    if top == 0.0:
        return -math.inf
    # Scaled by the largest term, so a sum of huge values cannot overflow.
    return math.log2(top) + math.log2(math.fsum(v / top for v in bounds))


def _int(value) -> int:
    """An integer, refusing the bools and fractional floats int() truncates."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _float_x0(x0) -> dict | list:
    """``x0`` with float values: YAML reads 1e-5 as text."""
    if isinstance(x0, dict):
        return {key: float(v) for key, v in x0.items()}
    return [float(v) for v in x0]


# Optional config keys and how each is read; an absent key keeps the
# dataclass default.
_CONFIG_KEYS = dict(
    big_k=_int, epsilon=float, phase_a_range=float, max_rounds=_int, stop_tol=float,
    seed=_int, mode=str, key_bits=_int, fractional_bits=_int,
)
_ADVERSARY_KEYS = dict(
    attack=str, trials=_int, target_x0=lambda values: tuple(float(v) for v in values)
)


def _read(raw: dict, key: str, read):
    """``read(raw[key])``; a missing key or an unusable value is a
    ``ConfigError`` naming the key."""
    if key not in raw:
        raise ConfigError(f"config is missing key {key!r}")
    try:
        return read(raw[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r} has unusable value {raw[key]!r}") from exc


def _finite(values) -> bool:
    """Whether every value is a finite number: an inf or nan input turns
    every estimate into nan."""
    try:
        return all(math.isfinite(float(v)) for v in values)
    except (TypeError, ValueError):
        return False


def _check_keys(raw: dict, known: set, section: str) -> None:
    """A key outside ``known`` is a ``ConfigError``: a misspelt key would
    otherwise leave its default in force without a word."""
    unknown = sorted(str(key) for key in raw if key not in known)
    if unknown:
        raise ConfigError(
            f"unknown {section} key(s) {unknown}; known keys are {sorted(known)}"
        )


def _present(raw: dict, converters: dict) -> dict:
    return {key: _read(raw, key, read) for key, read in converters.items() if key in raw}


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def resolve_x0(config: ExperimentConfig, target_override: float | None = None) -> list[float]:
    """Materialize the initial-value vector for this seed."""
    if isinstance(config.x0, dict):
        rng = np.random.default_rng(derive_seed("x0", config.seed))
        vals = rng.uniform(
            config.x0["low"], config.x0["high"], size=config.graph.n_nodes
        ).tolist()
    else:
        vals = [float(v) for v in config.x0]
    if target_override is not None:
        if config.adversary is None:
            raise ConfigError("target override requires an adversary spec")
        vals[config.adversary.target] = float(target_override)
    return vals


@dataclass
class MetricsSeries:
    """Per-round distance ``e`` of the estimate vector from the true
    average ``alpha``."""

    e: np.ndarray
    alpha: float


# Below this largest deviation a row's sum of squares stays finite (for
# fewer than 1e8 nodes), so the row takes the plain norm.
_PLAIN_NORM_LIMIT = 1e150


def error_series(trajectory: Trajectory, x0: Sequence[float]) -> MetricsSeries:
    """The 2-norm of each round's deviation pi - alpha.  A row whose largest
    finite deviation reaches ``_PLAIN_NORM_LIMIT``, whose squares could
    overflow, is divided by that deviation before the norm and the norm
    multiplied by it; every other row takes the plain norm, bit for bit."""
    alpha = float(np.mean(np.asarray(x0, dtype=float)))
    deviation = trajectory.pi - alpha
    if -_PLAIN_NORM_LIMIT < deviation.min() and deviation.max() < _PLAIN_NORM_LIMIT:
        return MetricsSeries(e=np.linalg.norm(deviation, axis=1), alpha=alpha)
    peak = np.abs(deviation).max(axis=1, keepdims=True)
    scale = np.where(np.isfinite(peak) & (peak >= _PLAIN_NORM_LIMIT), peak, 1.0)
    e = scale[:, 0] * np.linalg.norm(deviation / scale, axis=1)
    return MetricsSeries(e=e, alpha=alpha)


class NodeKeys(NamedTuple):
    """A node's Paillier keypair and its encryptions' blinding stream."""

    keypair: PaillierKeypair
    blinding: random.Random


def node_keys(key_bits: int, seed: int, node_id: int) -> NodeKeys:
    """A node's keys, derived from the run seed so the simulator and the
    networked runtime agree."""
    return NodeKeys(
        keygen(key_bits, random.Random(derive_seed("keygen", seed, node_id))),
        random.Random(derive_seed("encrypt", seed, node_id)),
    )


class PaillierChannel:
    """Encrypts each link's share pair under the receiver's public key in
    transit, and decrypts each receiver's in-links of a round as one sum.

    The one share-crypto path for both runs of the protocol, which only
    encrypts and decrypts.  ``keys`` holds the ``NodeKeys`` it acts for,
    every node's in the simulator, a networked node's own next to the
    public keys it learned.  Each receiver's fixed-point codec, built once
    per key at the run's ``fan_in`` (``RunPlan.fan_in``), packs a link's
    (s, w) pair into one plaintext (``encode_pair``), which is encrypted as
    one ciphertext.  A receiver multiplies its round's ciphertexts mod n^2
    (``add_ciphertexts``), decrypts the product once with the CRT
    ``decrypt``, which checks it, and unpacks the exact sum of its in-links'
    pairs (``decode_sum``): per round one encryption per link and two
    half-size exponentiations per receiver.  A networked node checks each
    ciphertext it receives as it parses the frame.
    Wall-clock latencies are collected per ciphertext in ``encrypt_seconds``
    and per receiver-round in ``decrypt_seconds``.  A receiver key's
    blinding table is built on its first use and timed on its own, in
    ``table_build_seconds``, so that ``encrypt_seconds`` holds single
    encryptions only; ``crypto_report`` reduces the three for a manifest.
    """

    def __init__(
        self,
        public_keys: Mapping[int, PaillierPublicKey],
        keys: Mapping[int, NodeKeys],
        fractional_bits: int,
        fan_in: int,
    ) -> None:
        self.public_keys = public_keys
        self.keys = keys
        self.fractional_bits = fractional_bits
        self.fan_in = fan_in
        self._codecs: dict[int, FixedPointCodec] = {}
        self.encrypt_seconds: list[float] = []
        self.decrypt_seconds: list[float] = []
        self.table_build_seconds: list[float] = []
        self._tabled: set[int] = set()

    def _codec(self, node: int) -> FixedPointCodec:
        if node not in self._codecs:
            self._codecs[node] = FixedPointCodec(
                self.public_keys[node].n, self.fractional_bits, self.fan_in
            )
        return self._codecs[node]

    def _encrypt(self, sender: int, receiver: int, plain: int) -> Ciphertext:
        public = self.public_keys[receiver]
        if receiver not in self._tabled:
            start = time.perf_counter()
            public.blinding_table
            self.table_build_seconds.append(time.perf_counter() - start)
            self._tabled.add(receiver)
        start = time.perf_counter()
        cipher = encrypt(public, plain, self.keys[sender].blinding)
        self.encrypt_seconds.append(time.perf_counter() - start)
        return cipher

    def transmit(
        self,
        senders: Sequence[int],
        receivers: Sequence[int],
        round_k: int,
        shares: np.ndarray,
    ) -> np.ndarray:
        """Encrypt round ``round_k``'s shares for the wire.

        ``shares`` is a ``(2, m)`` array with rows (s, w); column i crosses
        the link ``senders[i] -> receivers[i]``.  Returns the ``(m,)``
        object array of ciphertexts, one per link, each the link's packed
        pair, encrypted in link order, so each sender's blinding stream is
        consumed in link order.  A share outside the codec range raises
        ``MagnitudeOverflow`` naming its sender, receiver and round.
        """
        wire = np.empty(len(senders), dtype=object)
        links = zip(senders, receivers, *shares.tolist())
        for i, (sender, receiver, s, w) in enumerate(links):
            try:
                plain = self._codec(receiver).encode_pair(s, w)
            except MagnitudeOverflow as exc:
                raise MagnitudeOverflow(
                    f"node {sender}: round-{round_k} share to {receiver}: {exc}"
                ) from exc
            wire[i] = self._encrypt(sender, receiver, plain)
        return wire

    def receive(
        self,
        senders: Sequence[int],
        receivers: Sequence[int],
        round_k: int,
        wire: Sequence[Ciphertext],
    ) -> np.ndarray:
        """Decrypt one round's ciphertexts, laid out as in ``transmit``,
        into the ``(2, m)`` shares the receivers fold: each receiver's
        ciphertexts are summed with ``add_ciphertexts`` and decrypted once,
        and the sum of their pairs fills the column of its lowest sender,
        -0.0 its other columns, so the fold adds the sum alone.  A sum that
        is no sum of that many packed pairs, or more ciphertexts than the
        fan-in, raises ``DecryptFailure`` naming every sender in the sum."""
        shares = np.full((2, len(wire)), -0.0)
        columns: dict[int, list[int]] = {}
        for i, receiver in enumerate(receivers):
            columns.setdefault(receiver, []).append(i)
        for receiver, cols in columns.items():
            keypair = self.keys[receiver].keypair
            total = reduce(partial(add_ciphertexts, keypair.public), [wire[i] for i in cols])
            start = time.perf_counter()
            plain = decrypt(keypair, total)
            self.decrypt_seconds.append(time.perf_counter() - start)
            try:
                pair = self._codec(receiver).decode_sum(plain, len(cols))
            except MagnitudeOverflow as exc:
                names = ", ".join(str(senders[i]) for i in cols)
                raise DecryptFailure(
                    f"node {receiver}: round-{round_k} share{'s' * (len(cols) > 1)} "
                    f"from {names}: {exc}"
                ) from exc
            shares[:, min(cols, key=senders.__getitem__)] = pair
        return shares


def crypto_report(channel: PaillierChannel | None) -> dict:
    """A run's crypto work as both manifests report it: mean and max
    latency in ms of one encryption and of one receiver-round's decryption,
    the blinding-table build time, which the encryptions leave out, and the
    decryptions made; every field None without a channel."""

    def ms(stat, timings: str) -> float | None:
        seconds = getattr(channel, timings, None)
        return float(stat(seconds)) * 1e3 if seconds else None

    return {
        "mean_encrypt_ms": ms(np.mean, "encrypt_seconds"),
        "max_encrypt_ms": ms(np.max, "encrypt_seconds"),
        "blinding_table_ms": ms(sum, "table_build_seconds"),
        "mean_decrypt_ms": ms(np.mean, "decrypt_seconds"),
        "max_decrypt_ms": ms(np.max, "decrypt_seconds"),
        "decrypts": None if channel is None else len(channel.decrypt_seconds),
    }


def node_keypairs(
    graph: DirectedGraph, key_bits: int, seed: int
) -> dict[int, PaillierKeypair]:
    return {i: node_keys(key_bits, seed, i).keypair for i in graph.nodes()}


@dataclass
class ExperimentResult:
    """One run: its record (``record.x0`` holds the initial values and
    ``record.wire`` what a wiretapper of every link saw), its error series,
    the adversary view when the config names colluders, and its ``crypto_report``."""

    config: ExperimentConfig
    record: RunRecord
    metrics: MetricsSeries
    adversary_view: AdversaryView | None
    crypto: dict


def run_experiment(
    config: ExperimentConfig, target_override: float | None = None
) -> ExperimentResult:
    """Full synchronous execution of the configured protocol.

    Deterministic per seed; the adversary view is populated when the config
    carries an adversary spec.
    """
    plan = config.validate()
    x0 = resolve_x0(config, target_override)
    channel = None
    if config.mode == MODE_ALGORITHM2:
        keys = {i: node_keys(config.key_bits, config.seed, i) for i in config.graph.nodes()}
        public = {i: k.keypair.public for i, k in keys.items()}
        channel = PaillierChannel(public, keys, config.fractional_bits, plan.fan_in)
    if config.mode == MODE_ALGORITHM0:
        record = run_algorithm0(config.graph, x0, rounds=config.max_rounds)
    else:
        record = run_algorithm1(
            config.graph, x0, config.params, config.seed, config.max_rounds, channel=channel
        )
    metrics = error_series(record.trajectory, x0)
    view = None
    if config.adversary is not None:
        view = build_adversary_view(record, config.adversary.members)
    return ExperimentResult(
        config=config,
        record=record,
        metrics=metrics,
        adversary_view=view,
        crypto=crypto_report(channel),
    )


def transition_product(
    table: WeightTable, from_round: int, to_round: int, side: str
) -> np.ndarray:
    """Product P(k) ... P(t) of the ``side`` coupling matrices over rounds
    t..k inclusive.  This is the matrix-side oracle for the round engine,
    which never materializes it."""
    if from_round > to_round:
        raise RangeUncovered(f"from_round {from_round} exceeds to_round {to_round}")
    if from_round < 0 or to_round >= table.n_rounds:
        raise RangeUncovered(
            f"rounds [{from_round}, {to_round}] not covered by a weight table "
            f"of {table.n_rounds} rounds"
        )
    product = table.matrix(from_round, side)
    for k in range(from_round + 1, to_round + 1):
        product = table.matrix(k, side) @ product
    return product


def fitted_contraction(e: np.ndarray, start: int | None = None, floor: float = 1e-14) -> float:
    """Empirical late-stage per-round contraction factor of an error series.

    Log-linear least-squares fit over the decaying part of the tail (second
    half by default).  Once a run converges, the series flattens out on a
    round-off noise floor; those samples say nothing about the contraction,
    so everything within 50x of the tail minimum is excluded.  Returns 0.0
    when the tail sits entirely on the floor (contraction unmeasurably
    fast).
    """
    e = np.asarray(e, dtype=float)
    if start is None:
        start = len(e) // 2
    tail = e[start:]
    rounds = np.arange(start, len(e))
    positive = tail[tail > 0.0]
    if positive.size == 0:
        return 0.0
    cutoff = max(floor, 50.0 * float(positive.min()))
    mask = tail > cutoff
    if mask.sum() < 2:
        return 0.0
    slope = np.polyfit(rounds[mask], np.log(tail[mask]), 1)[0]
    return float(np.exp(slope))


def theoretical_rate(n_nodes: int, epsilon: float) -> float:
    """Guaranteed worst-case per-round contraction factor of the two-phase
    protocol on a strongly connected graph of n nodes."""
    return (1.0 - epsilon ** (n_nodes - 1)) ** (1.0 / (n_nodes - 1))


def write_series_csv(path, result: ExperimentResult) -> None:
    """CSV with columns round, e, pi_0..pi_{N-1}; byte-stable per config."""
    pi, e = result.record.trajectory.pi, result.metrics.e
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "e"] + [f"pi_{i}" for i in range(pi.shape[1])])
        for k in range(pi.shape[0]):
            writer.writerow([k, repr(float(e[k]))] + [repr(float(v)) for v in pi[k]])
