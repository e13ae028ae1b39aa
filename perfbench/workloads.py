"""The four benchmark workloads.

Each runs closed loop, one caller at a time, for a given number of seconds
and returns an :class:`Outcome`.  Inputs come from the workload seed only.
Correctness checks run outside the timed region and count into ``failed``.
Every call into privsum goes through a module attribute (``sim.run_experiment``,
not a name imported at load time), so the traced run's wrappers see it.

Import only after ``setup_env.prepare()``.
"""
from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from privsum import adversary, graph, net, paillier, sim, weights

from setup_env import ROOT, SRC
from tracing import SpanStats, Tracer, install_layers

PRESETS = SRC / "privsum" / "presets"
HERE = Path(__file__).resolve().parent

# Every final estimate must sit this close to the exact average of x0.
PI_TOLERANCE = 1e-9

SIM_NODES = 500
SIM_EDGE_PROB = 0.01
SIM_ROUNDS = 150

PAIR_ROUNDS = 1000
CHILD_TIMEOUT_S = 90.0

PROBE_KEY_BITS = 2048
PROBE_REPEATS = 3


@dataclass
class Outcome:
    setup_s: list[float]
    op_s: list[float]           # one entry per closed-loop operation
    attempted: int
    failed: int
    named: dict                 # figures under the workload's own names
    n_layer_ops: int = 0        # denominator of per-operation layer counts
    layers: dict[str, SpanStats] | None = None
    layer_extras: dict[str, float] = field(default_factory=dict)
    child_rss_kb: int = 0
    probe: dict | None = None


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def pi_error(final_pi, x0) -> float:
    alpha = math.fsum(x0) / len(x0)
    return max(abs(float(p) - alpha) for p in final_pi)


def start_tracer(trace: bool) -> Tracer | None:
    if not trace:
        return None
    tracer = Tracer()
    install_layers(tracer)
    return tracer


def _timed(build, times: list[float]):
    """Call ``build``, append its wall time to ``times``, return its result."""
    start = time.perf_counter()
    result = build()
    times.append(time.perf_counter() - start)
    return result


def _run_for(seconds: float, min_ops: int, step) -> list[float]:
    """Call ``step`` (which returns its own timed duration) until the next
    call would end after ``seconds``."""
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(durations) < min_ops or time.perf_counter() + durations[-1] <= deadline:
        durations.append(step())
    return durations


def _report_failure(what: str) -> None:
    print(f"{what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def attack_fig3(seed: int, seconds: float, trace: bool) -> Outcome:
    tracer = start_tracer(trace)
    setup: list[float] = []

    def load():
        return sim.ExperimentConfig.from_yaml(PRESETS / "fig3.yaml")

    config = _timed(load, setup)
    spec = config.adversary
    m_rounds = config.max_rounds - 1
    trial_seeds = random.Random(seed)
    estimates: dict[float, list[float]] = {x: [] for x in spec.target_x0}
    failed = 0
    trials = 0

    def trial() -> float:
        nonlocal failed, trials
        true_x0 = spec.target_x0[trials % len(spec.target_x0)]
        # Each trial loads its own config, so that set-up is sampled across
        # the whole run and sees the same host as the trials do.
        cfg = replace(_timed(load, setup), seed=trial_seeds.randrange(2**31))
        trials += 1
        start = time.perf_counter()
        try:
            result = sim.run_experiment(cfg, target_override=true_x0)
            estimate = adversary.attack_least_squares(
                result.adversary_view, spec.target, m_rounds
            )
        except Exception:  # noqa: BLE001 - counted and reported
            _report_failure(f"attack trial {trials}")
            failed += 1
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        estimates[true_x0].append(estimate)
        return elapsed

    op_s = _run_for(seconds, 2 * len(spec.target_x0), trial)
    layers = tracer.snapshot() if tracer else None

    # Criterion 07's gate: the estimates scatter, with both signs present.
    spread = {}
    for true_x0, values in estimates.items():
        arr = np.array(values)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        spread[str(true_x0)] = std
        if not (std > 1.0 and (arr > 0).any() and (arr < 0).any()):
            print(f"scatter gate failed at x0={true_x0}: std={std}", file=sys.stderr)
            failed += arr.size
    return Outcome(
        setup_s=setup,
        op_s=op_s,
        attempted=trials,
        failed=failed,
        named={
            "attack_trials_per_s": len(op_s) / sum(op_s),
            "attack_trial_ms_p50": statistics.median(op_s) * 1e3,
            "attack_trial_ms_p90": _percentile(op_s, 90) * 1e3,
            "trials": trials,
            "estimate_std": spread,
        },
        n_layer_ops=len(op_s),
        layers=layers,
    )


def sim_n500_config(seed: int):
    rng = np.random.default_rng(seed)
    g = graph.random_strongly_connected_graph(SIM_NODES, rng, SIM_EDGE_PROB)
    config = sim.ExperimentConfig(
        graph=g,
        x0=rng.uniform(0.0, 50.0, size=SIM_NODES).tolist(),
        big_k=1,
        epsilon=0.01,
        max_rounds=SIM_ROUNDS,
        stop_tol=0.0,
        seed=seed,
    )
    config.validate()
    return config


def _merge_spans(into: dict[str, SpanStats], reported: dict[str, dict]) -> None:
    for name, st in reported.items():
        into.setdefault(name, SpanStats()).merge(SpanStats(**st))


def sim_n500(seed: int, seconds: float, trace: bool) -> Outcome:
    setup: list[float] = []
    spans: dict[str, SpanStats] = {}
    work = failed = runs = rss_kb = 0
    worst = 0.0
    cmd = [str(HERE / "sim_once.py"), "--seed", str(seed), "--trace", str(int(trace))]

    def run() -> float:
        nonlocal work, failed, runs, rss_kb, worst
        runs += 1
        start = time.perf_counter()
        try:
            [report] = _run_children([cmd])
        except Exception:  # noqa: BLE001 - counted and reported
            _report_failure(f"sim-n500 run {runs}")
            failed += 1
            return time.perf_counter() - start
        setup.append(report["setup_s"])
        work += report["work"]
        rss_kb = max(rss_kb, report["maxrss_kb"])
        _merge_spans(spans, report["spans"])
        worst = max(worst, report["pi_error"])
        if not report["pi_error"] <= PI_TOLERANCE:
            print(f"final pi is {report['pi_error']!r} from the average", file=sys.stderr)
            failed += 1
        return report["run_s"]

    op_s = _run_for(seconds, 2, run)
    if not setup:
        raise RuntimeError("no sim-n500 run completed")
    return Outcome(
        setup_s=setup,
        op_s=op_s,
        attempted=runs,
        failed=failed,
        named={
            "edge_rounds_per_s": work / sum(op_s),
            "us_per_edge_round": sum(op_s) / work * 1e6,
            "runs": runs,
            "max_pi_error": worst,
        },
        n_layer_ops=len(op_s),
        layers=spans if trace else None,
        child_rss_kb=rss_kb,
    )


def probe_2048(seed: int, fractional_bits: int):
    """One share round trip through the codec under a seeded 2048-bit key.
    Returns the keypair and the outcome; the error text names any failure."""
    rng = random.Random(weights.derive_seed("perfbench-probe", seed))
    keypair = paillier.keygen(PROBE_KEY_BITS, rng)
    value = rng.uniform(-40.0, 40.0)
    try:
        codec = paillier.FixedPointCodec(keypair.public.n, fractional_bits)
        cipher = paillier.encrypt(keypair.public, codec.encode(value), rng)
        back = codec.decode(paillier.decrypt(keypair, cipher))
    except Exception as exc:  # noqa: BLE001 - the failure is the finding
        return keypair, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    ok = abs(back - value) <= 2.0 ** -(fractional_bits + 1)
    return keypair, {"ok": ok, "error": None if ok else f"decoded {back!r} for {value!r}"}


def _raw_2048_timings(keypair, seed: int) -> dict[str, float]:
    """Mean encrypt and decrypt time of raw plaintexts under the probe key."""
    rng = random.Random(weights.derive_seed("perfbench-raw", seed))
    enc, dec = [], []
    for _ in range(PROBE_REPEATS):
        plain = rng.randrange(keypair.public.n)
        start = time.perf_counter()
        cipher = paillier.encrypt(keypair.public, plain, rng)
        enc.append(time.perf_counter() - start)
        start = time.perf_counter()
        back = paillier.decrypt(keypair, cipher)
        dec.append(time.perf_counter() - start)
        if back != plain:
            raise RuntimeError("2048-bit raw round trip returned a wrong plaintext")
    return {
        "paillier.encrypt_2048_ms": statistics.mean(enc) * 1e3,
        "paillier.decrypt_2048_ms": statistics.mean(dec) * 1e3,
    }


def fig7_encrypted(seed: int, seconds: float, trace: bool) -> Outcome:
    tracer = start_tracer(trace)
    setup: list[float] = []
    failed = 0
    worst = 0.0

    def build():
        config = replace(sim.ExperimentConfig.from_yaml(PRESETS / "fig7.yaml"), seed=seed)
        sim.node_keypairs(config.graph, config.key_bits, config.seed)
        return config

    config = _timed(build, setup)

    def run() -> float:
        # Set-up is sampled before every run, across the whole window.
        # run_experiment derives the same keys again inside the run, so
        # keygen is part of each operation as well as of set-up.
        nonlocal failed, worst
        cfg = _timed(build, setup)
        start = time.perf_counter()
        try:
            result = sim.run_experiment(cfg)
        except Exception:  # noqa: BLE001 - counted and reported
            _report_failure("run_experiment")
            failed += 1
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        error = pi_error(result.record.final_pi(), config.x0)
        worst = max(worst, error)
        if not error <= PI_TOLERANCE:
            print(f"final pi is {error!r} from the average", file=sys.stderr)
            failed += 1
        return elapsed

    op_s = _run_for(seconds, 2, run)
    layers = tracer.snapshot() if tracer else None

    keypair, probe = probe_2048(seed, config.fractional_bits)
    extras = _raw_2048_timings(keypair, seed) if trace else {}
    return Outcome(
        setup_s=setup,
        op_s=op_s,
        attempted=len(op_s),
        failed=failed,
        named={
            "encrypted_run_s": statistics.median(op_s),
            "runs": len(op_s),
            "max_pi_error": worst,
        },
        n_layer_ops=len(op_s),
        layers=layers,
        layer_extras=extras,
        probe=probe,
    )


def pair_config(seed: int):
    """Two nodes that send to each other; the transport is chosen at
    run_networked, so the protocol mode stays algorithm1 as in `privsum node`."""
    rng = random.Random(seed)
    return sim.ExperimentConfig(
        graph=graph.DirectedGraph.from_edge_list(2, [[1, 0], [0, 1]]),
        x0=[rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)],
        big_k=1,
        epsilon=0.01,
        max_rounds=PAIR_ROUNDS,
        stop_tol=0.0,
        seed=seed,
        key_bits=256,
        fractional_bits=48,
    )


def _run_children(cmds: list[list[str]]) -> list[dict]:
    """Run the commands as concurrent fresh processes and return the JSON
    object each prints last.  Every process is ended before returning."""
    procs = []
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        for cmd in cmds:
            procs.append(subprocess.Popen(
                [sys.executable, *cmd], stdout=subprocess.PIPE, text=True, cwd=ROOT
            ))
        outputs = [
            p.communicate(timeout=max(0.0, deadline - time.monotonic()))[0]
            for p in procs
        ]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    codes = [p.returncode for p in procs]
    if any(codes):
        raise RuntimeError(f"child processes exited with codes {codes}")
    return [json.loads(out.strip().splitlines()[-1]) for out in outputs]


def _pair_session(seed: int, trace: bool) -> tuple[float, list[dict]]:
    """Run both nodes as fresh processes; returns the spawn time and each
    node's report."""
    ports = net.allocate_ports(2)
    spawned = time.monotonic()
    reports = _run_children([
        [
            str(HERE / "pair_node.py"),
            "--node-id", str(node_id),
            "--ports", f"{ports[0]},{ports[1]}",
            "--seed", str(seed),
            "--trace", str(int(trace)),
        ]
        for node_id in (0, 1)
    ])
    return spawned, reports


def pair_encrypted(seed: int, seconds: float, trace: bool) -> Outcome:
    config = pair_config(seed)
    reference = sim.run_experiment(replace(config, mode=sim.MODE_ALGORITHM2))
    expected_s = [st.s for st in reference.record.trajectory.final()]

    setup: list[float] = []
    intervals: list[float] = []
    rounds_done = 0
    failed = 0
    sessions = 0
    rss_kb = 0
    worst = 0.0
    spans: dict[str, SpanStats] = {}
    startup: list[float] = []

    def session() -> float:
        nonlocal rounds_done, failed, sessions, rss_kb, worst
        sessions += 1
        start = time.perf_counter()
        try:
            spawned, reports = _pair_session(seed, trace)
        except Exception:  # noqa: BLE001 - counted and reported
            _report_failure(f"pair session {sessions}")
            failed += 1
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        setup.append(max(r["first_draw"] for r in reports) - spawned)
        rounds_done += PAIR_ROUNDS
        for r in reports:
            ends = r["round_ends"]
            intervals.extend(b - a for a, b in zip(ends, ends[1:]))
            rss_kb = max(rss_kb, r["maxrss_kb"])
            _merge_spans(spans, r["spans"])
            if r["spans"]:
                keygen_s = r["spans"].get("paillier.keygen", {}).get("total_s", 0.0)
                startup.append(r["first_draw"] - r["entry"] - keygen_s)
        error = pi_error([r["final_pi"] for r in reports], config.x0)
        worst = max(worst, error)
        finals = [r["final_s"] for r in reports]
        if not error <= PI_TOLERANCE or finals != expected_s:
            print(
                f"pair session {sessions}: pi error {error!r}, final s {finals} "
                f"vs simulated {expected_s}",
                file=sys.stderr,
            )
            failed += 1
        return elapsed

    _run_for(seconds, 1, session)
    if not intervals:
        raise RuntimeError("no pair session completed")

    node_rounds = 2 * rounds_done
    extras: dict[str, float] = {}
    if trace:
        def per_round_ms(*names: str) -> float:
            return sum(spans.get(n, SpanStats()).total_s for n in names) / node_rounds * 1e3

        send, recv = spans.get("net.send", SpanStats()), spans.get("net.recv", SpanStats())
        compute_ms = per_round_ms("weights.draw", "consensus.shares", "consensus.apply")
        crypto_ms = per_round_ms("paillier.encrypt", "paillier.decrypt", "paillier.codec")
        extras = {
            "net.startup_s": statistics.median(startup),
            "net.frames_sent": send.counted / node_rounds,
            "net.bytes_sent": send.units / node_rounds,
            "net.frames_recv": recv.counted / node_rounds,
            "net.bytes_recv": recv.units / node_rounds,
            "net.compute_ms": compute_ms,
            "net.crypto_ms": crypto_ms,
            "net.wait_ms": statistics.mean(intervals) * 1e3 - compute_ms - crypto_ms,
        }
    return Outcome(
        setup_s=setup,
        op_s=intervals,
        attempted=sessions,
        failed=failed,
        named={
            "round_ms_p50": statistics.median(intervals) * 1e3,
            "round_ms_p99": _percentile(intervals, 99) * 1e3,
            "round_intervals": len(intervals),
            "sessions": sessions,
            "max_pi_error": worst,
        },
        n_layer_ops=node_rounds,
        layers=spans if trace else None,
        layer_extras=extras,
        child_rss_kb=rss_kb,
    )


WORKLOADS = {
    "attack-fig3": attack_fig3,
    "sim-n500": sim_n500,
    "fig7-encrypted": fig7_encrypted,
    "pair-encrypted": pair_encrypted,
}
