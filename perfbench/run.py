"""privsum benchmark entry point.

One workload, one fresh process:

    python3 perfbench/run.py --workload sim-n500 --seed 1 --seconds 20 --trace 0

prints a ``{"detail": ...}`` line (provenance, the figures under the
workload's own names, the 2048-bit probe) and, as the last line, the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.

All four workloads, untraced then traced, as one table:

    python3 perfbench/run.py --all --seed 1
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import setup_env
from tracing import SpanStats

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("attack-fig3", "sim-n500", "fig7-encrypted", "pair-encrypted")


def load_spec() -> dict:
    with open(setup_env.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def end_to_end(outcome) -> dict[str, float]:
    # sim-n500 and pair-encrypted work in child processes; report their peak.
    rss_kb = outcome.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "op_ms_p50": statistics.median(outcome.op_s) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(outcome, e2e: dict[str, float]) -> dict[str, float]:
    spans = outcome.layers or {}
    ops = max(outcome.n_layer_ops, 1)

    def st(name: str) -> SpanStats:
        return spans.get(name, SpanStats())

    def mean(name: str, scale: float, self_time: bool = False) -> float:
        s = st(name)
        if not s.calls:
            return 0.0
        return (s.self_s if self_time else s.total_s) / s.calls * scale

    metrics = {
        "graph.build_ms": mean("graph.build", 1e3),
        "weights.draws": st("weights.draw").calls / ops,
        "weights.draw_us": mean("weights.draw", 1e6),
        "consensus.messages": st("consensus.shares").units / ops,
        "consensus.shares_us": mean("consensus.shares", 1e6),
        "consensus.apply_us": mean("consensus.apply", 1e6),
        "consensus.engine_self_s": st("consensus.engine").self_s / ops,
        "sim.run_s": mean("sim.run", 1.0),
        "sim.channel_s": st("sim.channel").self_s / ops,
        "sim.error_series_ms": mean("sim.error_series", 1e3),
        "sim.eavesdropper_ms": mean("sim.eavesdropper", 1e3),
        "adversary.view_ms": mean("adversary.view", 1e3),
        "adversary.system_ms": mean("adversary.system", 1e3),
        "adversary.solve_ms": mean("adversary.attack", 1e3, self_time=True),
        "paillier.keygen_s": mean("paillier.keygen", 1.0),
        "paillier.encrypts": st("paillier.encrypt").calls / ops,
        "paillier.encrypt_ms": mean("paillier.encrypt", 1e3),
        "paillier.decrypts": st("paillier.decrypt").calls / ops,
        "paillier.decrypt_ms": mean("paillier.decrypt", 1e3),
        "paillier.codec_us": mean("paillier.codec", 1e6),
    }
    for name in (
        "paillier.encrypt_2048_ms", "paillier.decrypt_2048_ms",
        "net.startup_s", "net.frames_sent", "net.bytes_sent", "net.frames_recv",
        "net.bytes_recv", "net.compute_ms", "net.crypto_ms", "net.wait_ms",
    ):
        metrics[name] = outcome.layer_extras.get(name, 0.0)
    metrics.update({f"traced.{k}": v for k, v in e2e.items()})
    return metrics


def run_one(args) -> int:
    spec = load_spec()
    setup_env.prepare()
    from workloads import WORKLOADS

    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    e2e = end_to_end(outcome)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": setup_env.provenance(args.seed),
        "named": {
            "setup_s": e2e["setup_s"],
            **outcome.named,
            "peak_rss_mb": e2e["peak_rss_mb"],
            "failed_ratio": outcome.failed / outcome.attempted,
        },
        "probe_2048": outcome.probe,
    }
    print(json.dumps({"detail": detail}))

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer(outcome, e2e) if args.trace else e2e
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        raise SystemExit(
            f"metrics computed {sorted(set(values) ^ set(units))} disagree with "
            f"BENCHMARK.json {section}"
        )
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    return lines[-2]["detail"], lines[-1]


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced; prints the
    figures under their workload names, the 2048-bit probe, each workload's
    per-layer metrics and the tracing overhead."""
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    named_units = {
        "setup_s": "s", "attack_trials_per_s": "1/s", "attack_trial_ms_p50": "ms",
        "attack_trial_ms_p90": "ms", "edge_rounds_per_s": "1/s",
        "us_per_edge_round": "us", "encrypted_run_s": "s", "round_ms_p50": "ms",
        "round_ms_p99": "ms", "peak_rss_mb": "MB", "failed_ratio": "ratio",
    }
    provenance = None
    probe = None
    failed = attempted = 0
    rows = []
    for workload in WORKLOAD_NAMES:
        detail, plain = _child(workload, args.seed, seconds, 0)
        _, traced = _child(workload, args.seed, seconds, 1)
        provenance = detail["provenance"]
        probe = detail["probe_2048"] or probe
        attempted += plain["attempted"]
        failed += plain["failed"]
        for name, value in detail["named"].items():
            if name in named_units:
                rows.append((workload, name, value, named_units[name]))
        base = plain["metrics"]["op_ms_p50"]["value"]
        slowed = traced["metrics"]["traced.op_ms_p50"]["value"]
        rows.append((workload, "trace_overhead", (slowed / base - 1.0) * 100.0, "%"))
        for name, m in traced["metrics"].items():
            if not name.startswith("traced.") and m["value"]:
                rows.append((workload, name, m["value"], units[name]))
    if probe is not None:
        attempted += 1
        failed += 0 if probe["ok"] else 1
        rows.append(("probe-2048", "failed_ratio", 0.0 if probe["ok"] else 1.0, "ratio"))
    rows.append(("all", "failed_ratio", failed / attempted, "ratio"))

    print(json.dumps(provenance))
    for workload, name, value, unit in rows:
        print(f"{workload:16s} {name:28s} {value:14.6g} {unit}")
    if probe is not None and not probe["ok"]:
        print(f"probe-2048 failed: {probe['error']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="privsum benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
