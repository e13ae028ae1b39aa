"""One sim-n500 operation in a fresh process.

Each ``run_experiment`` of the 500-node workload allocates about 240 MB of
small objects; a second run in the same process inherits the first one's
fragmented heap and runs 10-35% slower, more so with each further run.
A fresh process per run measures every run from the same start, as a
`privsum simulate` call would.  Prints one JSON line: set-up and run time,
edge-rounds done, the final distance from the average, the peak RSS and,
when traced, the span totals.
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
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    setup_env.prepare()
    import workloads
    from privsum import sim

    tracer = workloads.start_tracer(bool(args.trace))
    start = time.perf_counter()
    config = workloads.sim_n500_config(args.seed)
    setup_s = time.perf_counter() - start
    start = time.perf_counter()
    result = sim.run_experiment(config)
    run_s = time.perf_counter() - start
    print(json.dumps({
        "setup_s": setup_s,
        "run_s": run_s,
        "work": config.graph.n_edges * result.record.n_rounds,
        "pi_error": workloads.pi_error(result.record.final_pi(), config.x0),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": {k: asdict(v) for k, v in tracer.snapshot().items()} if tracer else {},
    }))


if __name__ == "__main__":
    main()
