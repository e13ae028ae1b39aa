"""Command-line entry point.

Subcommands:

* ``simulate`` - run the configured protocol, write the error-series CSV(s)
  and a run manifest.
* ``attack`` - run the adversary trials from the config's adversary section
  and write (trial, seed, true_x0, estimate) rows.
* ``node`` - run one networked protocol node to completion.
* ``verify`` - execute the invariant suites; exit code 0 iff all pass.

A config whose ``big_k`` is a list runs once per value: ``simulate``
writes one CSV per value, ``verify`` runs every suite per value.

Configs are YAML files; ``--preset`` loads one of the packaged presets
(fig2, fig3, fig7) instead.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .adversary import ATTACKS, export_attack_csv
from .errors import ConfigError, PrivsumError
from .net import NodeRuntime
from .sim import (
    ExperimentConfig,
    MODES,
    config_hash,
    read_config_file,
    run_experiment,
    write_series_csv,
)
from .verify import run_all

PRESETS = ("fig2", "fig3", "fig7")


def load_raw_config(args) -> dict:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; choose from {PRESETS}")
        preset = resources.files("privsum") / "presets" / f"{args.preset}.yaml"
        raw = read_config_file(preset)
    else:
        raw = read_config_file(args.config)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        raw["mode"] = args.mode
    return raw


def _expand_big_k(raw: dict) -> list[tuple[str, ExperimentConfig]]:
    """A list-valued big_k fans out into one labelled config per value."""
    ks = raw.get("big_k")
    if not isinstance(ks, (list, tuple)):
        return [("", ExperimentConfig.from_dict(raw))]
    if not ks:
        raise ConfigError("big_k=[]: an empty list gives no run")
    out = []
    for k in ks:
        one = dict(raw)
        one["big_k"] = k
        out.append((f"_K{k}", ExperimentConfig.from_dict(one)))
    return out


def cmd_simulate(args) -> int:
    configs = _expand_big_k(load_raw_config(args))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    summaries = []
    for suffix, config in configs:
        start = time.perf_counter()
        result = run_experiment(config)
        run_s = time.perf_counter() - start
        csv_path = out_dir / f"series{suffix or ''}.csv"
        write_series_csv(csv_path, result)
        outputs.append(str(csv_path))
        summary = {
            "big_k": config.big_k,
            "rounds_run": result.record.n_rounds,
            "run_s": run_s,
            "alpha": result.metrics.alpha,
            "final_e": float(result.metrics.e[-1]),
            "final_pi": result.record.final_pi().tolist(),
            **result.crypto,
        }
        summaries.append(summary)
        print(
            f"simulate big_k={config.big_k}: rounds={summary['rounds_run']} "
            f"final_e={summary['final_e']:.3e} -> {csv_path}"
        )
    _, first = configs[0]
    manifest = {
        "command": "simulate",
        "config_hash": config_hash(first),
        "seed": first.seed,
        "mode": first.mode,
        "outputs": outputs,
        "runs": summaries,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    print(f"manifest -> {path}")
    return 0


def cmd_attack(args) -> int:
    raw = load_raw_config(args)
    config = ExperimentConfig.from_dict(raw)
    if config.adversary is None:
        raise ConfigError("attack command needs an adversary section in the config")
    spec = config.adversary
    attack = ATTACKS[spec.attack]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # No attack reads past round K+1, so a trial of K+3 rounds gives the
    # estimate a run of the config's max_rounds gives.
    rounds = config.big_k + 3
    m_rounds = rounds - 1
    rows = []
    targets = spec.target_x0 or (None,)
    trial_no = 0
    for true_x0 in targets:
        for t in range(spec.trials):
            seed = config.seed + t
            cfg = replace(config, seed=seed, max_rounds=rounds)
            result = run_experiment(cfg, target_override=true_x0)
            estimate = attack(result.adversary_view, spec.target, m_rounds)
            rows.append(
                {
                    "trial": trial_no,
                    "seed": seed,
                    "true_x0": result.record.x0[spec.target],
                    "estimate": estimate,
                }
            )
            trial_no += 1
    csv_path = out_dir / "attack.csv"
    export_attack_csv(csv_path, rows)
    estimates = np.array([r["estimate"] for r in rows])
    manifest = {
        "command": "attack",
        "config_hash": config_hash(config),
        "seed": config.seed,
        "mode": config.mode,
        "outputs": [str(csv_path)],
        "trials": len(rows),
        "rounds_per_trial": rounds,
        "estimate_mean": float(estimates.mean()),
        "estimate_std": float(estimates.std(ddof=1)) if len(rows) > 1 else 0.0,
        "estimate_min": float(estimates.min()),
        "estimate_max": float(estimates.max()),
    }
    path = out_dir / "attack_manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    print(
        f"attack: {len(rows)} trials, estimate std={manifest['estimate_std']:.3f} "
        f"-> {csv_path}\nmanifest -> {path}"
    )
    return 0


def _address(text, what: str) -> tuple[str, int]:
    """Parse a ``host:port`` given on the command line or in a peers file."""
    host, _, port = str(text).rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ConfigError(f"{what} is {text!r}, not host:port")
    return host, int(port)


def cmd_node(args) -> int:
    config = ExperimentConfig.from_dict(load_raw_config(args))
    listen = _address(args.listen, "--listen")
    try:
        with open(args.peers) as fh:
            peer_raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read peers file {args.peers}: {exc}") from exc
    if not isinstance(peer_raw, dict):
        raise ConfigError(f"peers file {args.peers} must map node ids to host:port")
    peers = {}
    for key, addr in peer_raw.items():
        if not key.isdecimal():
            raise ConfigError(f"peers key {key!r} is not a node id")
        peers[int(key)] = _address(addr, f"peers entry {key!r}")
    state, manifest = NodeRuntime(args.node_id, listen, peers, config, args.out_dir).run()
    line = f"node {args.node_id}: final pi={state.pi!r}"
    if manifest["mean_encrypt_ms"] is not None:
        line += (
            f", mean encrypt {manifest['mean_encrypt_ms']:.2f} ms"
            f", mean decrypt {manifest['mean_decrypt_ms']:.2f} ms"
            f", max decrypt {manifest['max_decrypt_ms']:.2f} ms"
        )
    print(line)
    return 0


def cmd_verify(args) -> int:
    failed = 0
    for _, config in _expand_big_k(load_raw_config(args)):
        for res in run_all(config):
            tag = "PASS" if res.passed else "FAIL"
            print(f"{tag} K={config.big_k} {res.name}: {res.detail}")
            failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} suite(s) failed")
        return 1
    print("all suites passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsum",
        description="Privacy-preserving average consensus on directed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_mode=True):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--preset", help=f"packaged preset: {', '.join(PRESETS)}")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default=".", help="directory for outputs")
        if with_mode:
            p.add_argument("--mode", choices=MODES, default=None, help="override the mode")

    p_sim = sub.add_parser("simulate", help="run the protocol in-process")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_att = sub.add_parser("attack", help="run adversary trials from the config")
    add_common(p_att)
    p_att.set_defaults(func=cmd_attack)

    p_node = sub.add_parser("node", help="run one networked protocol node")
    add_common(p_node)
    p_node.add_argument("--node-id", type=int, required=True)
    p_node.add_argument("--listen", required=True, help="host:port to bind")
    p_node.add_argument("--peers", required=True, help="JSON file: node id -> host:port")
    p_node.set_defaults(func=cmd_node)

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    add_common(p_ver, with_mode=False)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrivsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
