"""One node of the pair-encrypted workload, run as its own process.

Prints one JSON line: monotonic-clock times of the run_networked call, the
first weight draw and every apply_round return, the final state, the peak
RSS and, when traced, the span totals.
"""
from __future__ import annotations

import argparse
import json
import resource
import time
from dataclasses import asdict

import setup_env


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--node-id", type=int, required=True)
    parser.add_argument("--ports", required=True, help="two comma-separated ports")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    setup_env.prepare()
    from privsum import net

    from workloads import pair_config, start_tracer

    tracer = start_tracer(bool(args.trace))

    first_draw: list[float] = []
    round_ends: list[float] = []
    draw, apply = net.generate_round_weights, net.apply_round

    def stamped_draw(*a, **kw):
        if not first_draw:
            first_draw.append(time.monotonic())
        return draw(*a, **kw)

    def stamped_apply(*a, **kw):
        state = apply(*a, **kw)
        round_ends.append(time.monotonic())
        return state

    net.generate_round_weights, net.apply_round = stamped_draw, stamped_apply

    config = pair_config(args.seed)
    ports = [int(p) for p in args.ports.split(",")]
    peers = {i: ("127.0.0.1", port) for i, port in enumerate(ports)}
    entry = time.monotonic()
    state, _ = net.run_networked(
        args.node_id, peers[args.node_id], peers, config, mode=net.MODE_ENCRYPTED
    )
    print(json.dumps({
        "entry": entry,
        "first_draw": first_draw[0],
        "round_ends": round_ends,
        "final_s": state.s,
        "final_pi": state.pi,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": {k: asdict(v) for k, v in tracer.snapshot().items()} if tracer else {},
    }))


if __name__ == "__main__":
    main()
