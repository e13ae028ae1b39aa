"""Executable invariant suites behind the ``verify`` command.

Each suite re-derives a protocol guarantee through an independent route
(matrix products, direct sums, replays, crypto roundtrips) and checks the
round engine against it.  ``check_column_stochastic`` takes a weight
table directly, so tests can show it rejects a corrupted one.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .adversary import (
    VIEW_TOL,
    build_adversary_view,
    build_indistinguishability_witness,
    replay_with_witness,
    view_deviation,
    views_match,
)
from .consensus import WeightTable, algorithm1_weights
from .errors import PrivsumError
from .paillier import (
    FixedPointCodec,
    add_ciphertexts,
    decrypt,
    encrypt,
    keygen,
    keypair_from_primes,
)
from .sim import (
    ExperimentConfig,
    MODE_ALGORITHM0,
    MODE_ALGORITHM1,
    MODE_ALGORITHM2,
    NodeKeys,
    PaillierChannel,
    graph_fan_in,
    run_experiment,
    transition_product,
)
from .weights import WeightParams, derive_seed


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str = ""


# Largest relative drift of sum_i s_i(k) that mass conservation tolerates.
MASS_DRIFT_TOL = 1e-9


def suite_mass_conservation(config: ExperimentConfig) -> SuiteResult:
    """sum_i s_i(k) stays at sum_i x_i for every round of every mode."""
    worst = 0.0
    for mode in (MODE_ALGORITHM0, MODE_ALGORITHM1, MODE_ALGORITHM2):
        cfg = replace(config, mode=mode, max_rounds=min(config.max_rounds, 40))
        res = run_experiment(cfg)
        s = res.record.trajectory.s
        total0 = sum(res.record.x0)
        drift = np.max(np.abs(s.sum(axis=1) - total0)) / (1.0 + abs(total0))
        worst = max(worst, float(drift))
    return SuiteResult(
        "mass-conservation",
        worst <= MASS_DRIFT_TOL,
        f"worst relative drift {worst:.3e} (tolerance {MASS_DRIFT_TOL:g})",
    )


def suite_weight_floor(config: ExperimentConfig) -> SuiteResult:
    """w_i(k) = 1 exactly through round K+1, then never below epsilon^N."""
    cfg = replace(config, mode=MODE_ALGORITHM1)
    res = run_experiment(cfg)
    w = res.record.trajectory.w
    big_k = config.big_k
    head_ok = bool(np.all(w[: big_k + 2] == 1.0))
    floor = config.epsilon**config.graph.n_nodes
    tail_min = float(w[big_k + 2 :].min()) if w.shape[0] > big_k + 2 else 1.0
    ok = head_ok and tail_min >= floor
    return SuiteResult(
        "weight-floor",
        ok,
        f"ones through round K+1: {head_ok}, min tail weight {tail_min:.3e} "
        f"vs floor {floor:.3e}",
    )


# Largest deviation of a weight matrix's column sum from 1 that the
# column-stochastic check tolerates.
COLUMN_SUM_TOL = 1e-12


def check_column_stochastic(table: WeightTable, params: WeightParams) -> SuiteResult:
    """Every round's s and w matrices have unit column sums, the
    w matrix is the identity through round K, and both matrices coincide
    with entries in (epsilon, 1) afterwards."""
    n = table.graph.n_nodes
    eps = params.epsilon
    worst = 0.0
    for k in range(table.n_rounds):
        ps = table.matrix(k, "s")
        pw = table.matrix(k, "w")
        sums = np.concatenate((ps.sum(axis=0), pw.sum(axis=0)))
        deviation = float(np.abs(sums - 1.0).max())
        worst = max(worst, deviation)
        if not deviation <= COLUMN_SUM_TOL:
            return SuiteResult(
                "column-stochastic",
                False,
                f"column sums broken at round {k}: deviation {deviation:.3e} "
                f"(tolerance {COLUMN_SUM_TOL:g})",
            )
        if k <= params.big_k:
            if not np.array_equal(pw, np.eye(n)):
                return SuiteResult(
                    "column-stochastic", False, f"w matrix not identity at round {k}"
                )
        else:
            if not np.array_equal(ps, pw):
                return SuiteResult(
                    "column-stochastic", False, f"s and w matrices differ at round {k}"
                )
            support = ps != 0.0
            vals = ps[support]
            if not np.all((vals > eps) & (vals < 1.0)):
                return SuiteResult(
                    "column-stochastic",
                    False,
                    f"mixing-phase weights outside ({eps}, 1) at round {k}",
                )
    return SuiteResult(
        "column-stochastic",
        True,
        f"{table.n_rounds} rounds checked, worst column-sum deviation {worst:.3e} "
        f"(tolerance {COLUMN_SUM_TOL:g})",
    )


def suite_column_stochastic(config: ExperimentConfig) -> SuiteResult:
    """The two-phase weight table the config draws passes
    ``check_column_stochastic``, whatever mode the config runs."""
    rounds = min(config.max_rounds, 40)
    table = algorithm1_weights(config.graph, config.params, config.seed, rounds)
    return check_column_stochastic(table, config.params)


# Largest relative deviation of s(K+1), and of the total mass, from the
# value-side matrix product that the transition-products suite tolerates.
PRODUCT_S_TOL = 1e-9
# Largest deviation of w(k) from the weight-side matrix product, relative
# to 1 + |w(k)|, that the transition-products suite tolerates.
PRODUCT_W_TOL = 1e-12


def suite_transition_products(config: ExperimentConfig) -> SuiteResult:
    """Matrix-product oracle agrees with the round engine's trajectory:
    s(K+1) = Phi_s(K:0) s(0), w(k) = Phi_w(k-1:K+1) 1, total mass fixed,
    and every entry of Phi_w over a window of N rounds is >= epsilon^N."""
    big_k = config.big_k
    n = config.graph.n_nodes
    rounds = max(big_k + n + 4, 12)
    cfg = replace(config, mode=MODE_ALGORITHM1, max_rounds=rounds)
    res = run_experiment(cfg)
    record = res.record
    s = record.trajectory.s
    w = record.trajectory.w

    lhs = transition_product(record.weights, 0, big_k, "s") @ s[0]
    scale = 1.0 + np.abs(s).max()
    s_dev = float(np.max(np.abs(lhs - s[big_k + 1]) / (scale + np.abs(s[big_k + 1]))))
    mass_dev = abs(lhs.sum() - s[0].sum()) / (1.0 + abs(s[0].sum()))
    w_devs = []
    for k in range(big_k + 2, rounds + 1):
        phi_w = transition_product(record.weights, big_k + 1, k - 1, "w")
        w_devs.append(np.max(np.abs(phi_w @ np.ones(n) - w[k]) / (1.0 + np.abs(w[k]))))
    # np.argmax, unlike max(), stops at a nan deviation
    w_worst = int(np.argmax(w_devs))
    w_dev = float(w_devs[w_worst])
    margins = (
        f"worst s(K+1) deviation {s_dev:.3e}, mass drift {mass_dev:.3e} "
        f"(tolerance {PRODUCT_S_TOL:g}), worst w deviation {w_dev:.3e} "
        f"(tolerance {PRODUCT_W_TOL:g})"
    )
    if not s_dev <= PRODUCT_S_TOL:
        return SuiteResult("transition-products", False, f"s(K+1) mismatch: {margins}")
    if not mass_dev <= PRODUCT_S_TOL:
        return SuiteResult(
            "transition-products", False, f"mass not conserved by Phi_s: {margins}"
        )
    if not w_dev <= PRODUCT_W_TOL:
        return SuiteResult(
            "transition-products", False, f"w({big_k + 2 + w_worst}) mismatch: {margins}"
        )
    window = transition_product(record.weights, big_k + 1, big_k + n, "w")
    if not np.all(window >= config.epsilon**n):
        return SuiteResult(
            "transition-products", False, "window product entries below epsilon^N"
        )
    return SuiteResult("transition-products", True, f"{rounds} rounds checked, {margins}")


def suite_witness_replay(config: ExperimentConfig) -> SuiteResult:
    """Alternative initial values replay to identical adversary views."""
    cfg = replace(config, mode=MODE_ALGORITHM1, max_rounds=min(config.max_rounds, 30))
    res = run_experiment(cfg)
    record = res.record
    g = config.graph
    rng = random.Random(derive_seed("verify-witness", config.seed))
    checked = 0
    worst = 0.0
    for _ in range(5):
        target = rng.randrange(g.n_nodes)
        neighbors = sorted(set(g.out_neighbors(target)) | set(g.in_neighbors(target)))
        helper = rng.choice(neighbors)
        alt = record.x0[target] + rng.choice([-17.0, -5.0, 3.0, 13.0])
        if alt == 0.0 or record.x0[target] + record.x0[helper] - alt == 0.0:
            continue
        witness = build_indistinguishability_witness(record, target, alt, helper)
        repl = replay_with_witness(record, witness)
        members = [v for v in g.nodes() if v not in (target, helper)]
        seen = build_adversary_view(record, members)
        replayed = build_adversary_view(repl, members)
        # Same members over the same rounds, so the two views align.
        deviation = view_deviation(seen, replayed)
        if not views_match(seen, replayed, tol=VIEW_TOL):
            return SuiteResult(
                "witness-replay",
                False,
                f"view changed for target {target}, helper {helper}, alt {alt}: "
                f"deviation {deviation:.3e} (tolerance {VIEW_TOL:g})",
            )
        worst = max(worst, deviation)
        checked += 1
    return SuiteResult(
        "witness-replay",
        checked > 0,
        f"{checked} witnesses replayed, worst view deviation {worst:.3e} "
        f"(tolerance {VIEW_TOL:g})",
    )


def suite_crypto_roundtrip(config: ExperimentConfig) -> SuiteResult:
    """Key generation, encrypt/decrypt identity, homomorphic addition, the
    small reference key vector, codec roundtrips, and pairs of the edges
    of the codec range sent through a ``PaillierChannel``, the packed
    share path that runs use."""
    toy = keypair_from_primes(5, 7)
    if (toy.public.n, toy.public.g, toy.lam, toy.mu) != (35, 36, 24, 19):
        return SuiteResult("crypto-roundtrip", False, "reference key vector mismatch")
    rng = random.Random(derive_seed("verify-crypto", config.seed))
    kp = keygen(config.key_bits, rng)
    for _ in range(64):
        m = rng.randrange(kp.public.n)
        if decrypt(kp, encrypt(kp.public, m, rng)) != m:
            return SuiteResult("crypto-roundtrip", False, f"roundtrip failed for {m}")
    for _ in range(32):
        m1 = rng.randrange(kp.public.n)
        m2 = rng.randrange(kp.public.n)
        c = encrypt(kp.public, m1, rng)
        d = encrypt(kp.public, m2, rng)
        if decrypt(kp, add_ciphertexts(kp.public, c, d)) != (m1 + m2) % kp.public.n:
            return SuiteResult("crypto-roundtrip", False, "homomorphic add failed")
    codec = FixedPointCodec(kp.public.n, config.fractional_bits)
    # Encoding rounds to the nearest multiple of 2^-f, an error of at most
    # half of it; decoding's division adds at most half an ulp of v.
    # Values span six decades, so most of them lose bits below 2^-f.
    tol = 2.0 ** (-config.fractional_bits - 1)
    values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-3, 4) for _ in range(200)]
    errors = [abs(codec.decode(codec.encode(v)) - v) / (1.0 + abs(v)) for v in values]
    # np.argmax, unlike max(), stops at a nan error
    worst_at = int(np.argmax(errors))
    worst = errors[worst_at]
    margin = f"worst codec roundtrip error {worst:.3e} x (1 + |v|) (tolerance {tol:g})"
    if not worst <= tol:
        return SuiteResult(
            "crypto-roundtrip", False, f"codec roundtrip failed for {values[worst_at]}: {margin}"
        )
    bound = float(codec.max_magnitude)
    top = math.nextafter(bound, 0.0)
    tiny = 2.0**-config.fractional_bits
    edges = [bound, top, top / 2, tiny, 0.0, -tiny, -top / 2, -top, -bound]
    # As the (s, w) pairs of self-links of a one-node channel, one link a
    # round, the share path a run ships; w runs the edges backwards, so the
    # pairs mix signs and a slot mix-up shows.
    keys = {0: NodeKeys(kp, rng)}
    channel = PaillierChannel({0: kp.public}, keys, config.fractional_bits, {0: 1})
    links = [0] * len(edges)
    sent = np.array([edges, edges[::-1]])
    wire = channel.transmit(links, links, sent)
    back = np.hstack([channel.receive([0], [0], k, wire[k : k + 1]) for k in range(len(wire))])
    for v, got in zip(sent.ravel().tolist(), back.ravel().tolist()):
        if got != codec.decode(codec.encode(v)):
            return SuiteResult("crypto-roundtrip", False, f"share path failed for {v!r}")
    # Then as the sums a receiver of the graph's largest in-degree
    # decrypts, the edges scaled by a power of two into its layout.  Each
    # decoded value is exact, so fsum rounds their sum once, as the exact
    # sum of the encodings divided by 2^f is rounded.
    fan_in = graph_fan_in(config.graph)
    wide = FixedPointCodec(kp.public.n, config.fractional_bits, fan_in)
    scaled = sent * (wide.max_magnitude / codec.max_magnitude)
    summing = PaillierChannel({0: kp.public}, keys, config.fractional_bits, {0: fan_in})
    for start in range(0, len(edges), fan_in):
        pairs = scaled[:, start : start + fan_in]
        links = [0] * pairs.shape[1]
        wire = summing.transmit(links, links, pairs)
        got = summing.receive(links, links, start, wire)[:, 0].tolist()
        want = [math.fsum(wide.decode(wide.encode(v)) for v in row) for row in pairs.tolist()]
        if got != want:
            return SuiteResult(
                "crypto-roundtrip", False, f"share path failed for the sum of {pairs.tolist()}"
            )
    return SuiteResult(
        "crypto-roundtrip",
        True,
        f"keygen, roundtrip, homomorphism; {len(edges)} codec-edge pairs "
        f"through the packed share path, alone and summed {fan_in} at a time; "
        f"{len(values)} codec values, {margin}",
    )


def run_all(config: ExperimentConfig) -> list[SuiteResult]:
    """Run every invariant suite against one configuration."""
    suites = [
        ("mass-conservation", suite_mass_conservation),
        ("weight-floor", suite_weight_floor),
        ("column-stochastic", suite_column_stochastic),
        ("transition-products", suite_transition_products),
        ("witness-replay", suite_witness_replay),
        ("crypto-roundtrip", suite_crypto_roundtrip),
    ]
    results = []
    for name, fn in suites:
        try:
            results.append(fn(config))
        except PrivsumError as exc:
            results.append(SuiteResult(name, False, str(exc)))
    return results
