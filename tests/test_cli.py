import csv
import hashlib
import json
import os
import re
import socket
import statistics
import subprocess
import sys
import threading
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
import yaml

import privsum
from privsum.adversary import attack_least_squares
from privsum.cli import PRESETS, main
from privsum.errors import ConfigError
from privsum.graph import default_demo_graph
from privsum.net import allocate_ports, run_local_cluster
from privsum.consensus import WeightTable, algorithm1_weights
from privsum.paillier import FixedPointCodec, decrypt
from privsum.sim import ExperimentConfig
from privsum import sim, verify
from privsum.verify import check_column_stochastic


def write_config(path, **overrides):
    raw = {
        "graph": {
            "n_nodes": 5,
            "edges": default_demo_graph().edge_list(),
        },
        "x0": [10.0, 15.0, 20.0, 25.0, 30.0],
        "big_k": 1,
        "epsilon": 0.01,
        "phase_a_range": 10.0,
        "max_rounds": 60,
        "seed": 3,
        "mode": "algorithm1",
    }
    raw.update(overrides)
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    return path


# 0 <-> 1 <-> 2: node 1 is the sole neighbor of node 0.
CHAIN = {"n_nodes": 3, "edges": [[0, 1], [1, 0], [1, 2], [2, 1]]}


def test_simulate_with_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml")
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["runs"][0]["final_e"] < 1e-6
    for out in manifest["outputs"]:
        assert (tmp_path / "out" / "series.csv").exists()
    with open(manifest["outputs"][0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["round", "e"]
    assert len(rows) == 62  # header + rounds 0..60


def test_simulate_manifest_records_the_seed_and_mode_it_ran(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", max_rounds=5)
    raw = yaml.safe_load(cfg.read_text())
    del raw["seed"], raw["mode"]
    cfg.write_text(yaml.safe_dump(raw))
    runs = (([], 1, "algorithm1"), (["--seed", "5", "--mode", "algorithm0"], 5, "algorithm0"))
    for flags, seed, mode in runs:
        out = tmp_path / mode
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["seed"], manifest["mode"]) == (seed, mode)


def test_simulate_preset_fig2(tmp_path):
    rc = main(["simulate", "--preset", "fig2", "--out-dir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["runs"]) == 3
    for run, k in zip(manifest["runs"], (1, 5, 9)):
        assert run["big_k"] == k
        assert run["final_e"] < 1e-6
        # each run's own run_experiment wall time, next to its round count
        assert run["rounds_run"] > 0 and run["run_s"] > 0.0
        assert (tmp_path / f"series_K{k}.csv").exists()


# SHA-256 of every preset's simulate CSV.  A change to the engine, the
# weight draw or the CSV writer that moves a single bit shows here; a
# change that moves them by intent updates these digests and says why.
PRESET_CSV_SHA256 = {
    ("fig2", "series_K1.csv"): "9a5d889881d45f351bb646c3995b368afacea7a28eb567b50d9086ef19636dbe",
    ("fig2", "series_K5.csv"): "89d065330f59b582093390dd586de97aaad28872b5beb4961e111fbb50604e44",
    ("fig2", "series_K9.csv"): "3d02520b30005e2cc8657b32591a1771214917492f9f7d1a1021b42efe9d779b",
    ("fig3", "series.csv"): "4dc2d14469882ad49fa6ec6175bf335615406b2999a7d667c7ab26ad66a99620",
    ("fig7", "series.csv"): "5e23f3d6274023c292141ddd4d37b2fbc423d1dc4b4994600cc53d74931919b1",
}


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig7"])
def test_preset_csvs_match_their_pinned_digests(tmp_path, preset):
    assert main(["simulate", "--preset", preset, "--out-dir", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    pinned = sorted(name for key, name in PRESET_CSV_SHA256 if key == preset)
    assert written == pinned
    for name in written:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == PRESET_CSV_SHA256[preset, name], name


def test_simulate_manifest_counts_one_decryption_per_receiver_round(tmp_path):
    assert main(["simulate", "--preset", "fig7", "--out-dir", str(tmp_path / "fig7")]) == 0
    [run] = json.loads((tmp_path / "fig7" / "manifest.json").read_text())["runs"]
    # 5 receivers, 100 rounds; 8 links encrypt 800 times
    assert run["decrypts"] == 500
    assert main(["simulate", "--preset", "fig3", "--out-dir", str(tmp_path / "fig3")]) == 0
    [run] = json.loads((tmp_path / "fig3" / "manifest.json").read_text())["runs"]
    assert run["decrypts"] is None


def test_simulate_rejects_bad_epsilon(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.yaml", epsilon=0.5)
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "0.3333" in err  # names the 1/(max out-degree + 1) bound


def test_unreadable_config_value_names_its_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.yaml", epsilon="abc")
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error: config key 'epsilon'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config file .*c.yaml: .*No such file or directory"),
        (b"graph: [unclosed\nx0: 1\n", "cannot read config file .*c.yaml: while parsing"),
        (b"- not\n- a mapping\n", "config file .*c.yaml does not contain a mapping"),
        # a Latin-1 e-acute in a comment; libyaml and PyYAML name different
        # offending bytes, but both call them unacceptable
        (
            b"graph: 1\n# caf\xe9\nx0: 1\n",
            "cannot read config file .*c.yaml: unacceptable character",
        ),
    ],
    ids=["missing-file", "yaml-syntax-error", "not-a-mapping", "not-utf-8"],
)
def test_unusable_config_file_exits_2_with_one_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "c.yaml"
    if text is not None:
        path.write_bytes(text)
    rc = main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.match(f"error: {message}", err), err
    assert err.count("\n") == 1, err
    # the library entry point reads the file through the same reader
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_yaml(path)


PRESET_FILES = [resources.files("privsum") / "presets" / f"{p}.yaml" for p in PRESETS]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_libyaml_and_pure_python_parsers_read_every_config_alike(tmp_path, monkeypatch):
    # libyaml is the default; its error text differs from PyYAML's own
    bad = tmp_path / "bad.yaml"
    bad.write_text("graph: [unclosed\nx0: 1\n")
    with pytest.raises(ConfigError, match="did not find expected ',' or ']'"):
        sim.read_config_file(bad)
    exponent = write_config(tmp_path / "exp.yaml", x0="X0")
    exponent.write_text(exponent.read_text().replace("x0: X0", "x0: {low: 1e-5, high: 2e-5}"))
    paths = [
        *PRESET_FILES,
        exponent,
        write_config(tmp_path / "run.yaml"),
        write_config(tmp_path / "enc.yaml", mode="algorithm2-simulated", key_bits=128),
        write_config(
            tmp_path / "atk.yaml",
            graph=CHAIN,
            x0={"low": 0.0, "high": 50.0},
            adversary={"members": [1], "target": 0, "trials": 3},
        ),
    ]
    read = {}
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(sim, "_YAML_LOADER", loader)
        read[loader] = {path.name: sim.read_config_file(path) for path in paths}
    assert read[yaml.CSafeLoader] == read[yaml.SafeLoader]
    # both resolvers leave an exponent float without a dot as text
    assert read[yaml.SafeLoader]["exp.yaml"]["x0"] == {"low": "1e-5", "high": "2e-5"}


def test_configs_read_without_libyaml(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sim, "_YAML_LOADER", yaml.SafeLoader)
    for path in PRESET_FILES:
        assert "graph" in sim.read_config_file(path)
    path = tmp_path / "c.yaml"
    path.write_text("graph: [unclosed\nx0: 1\n")
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.match("error: cannot read config file .*c.yaml: while parsing", err), err
    assert "expected ',' or ']', but got ':'" in err  # PyYAML's wording, not libyaml's
    assert err.count("\n") == 1, err


def test_a_config_that_asks_for_an_early_stop_exits_2_with_one_error_line(tmp_path, capsys):
    cfg = write_config(tmp_path / "stop.yaml", stop_tol=1e-9)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert re.match("error: stop_tol=1e-09: .*cannot stop early; set stop_tol to 0", err), err
    assert err.count("\n") == 1, err


def test_a_run_whose_state_overflows_exits_2_with_one_error_line(tmp_path, capsys):
    """The validator accepts an x0 near the float maximum, whose masking
    shares are not finite; the run fails with the named error alone, no
    numpy warning before it, instead of writing a CSV of nan."""
    cfg = write_config(tmp_path / "huge.yaml", x0=[1.7e308] * 5, max_rounds=20)
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.match(r"error: node \d: state \(s, w\) = .* is not finite at round 0", err), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_phase_a_range_whose_weights_overflow_exits_2_with_one_error_line(
    tmp_path, capsys, command
):
    """B = 1e308 is finite, but 2B, the masking draw's scale, is not: the
    validator refuses it before a weight is drawn."""
    cfg = write_config(tmp_path / "huge.yaml", phase_a_range=1.0e308)
    rc = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert re.fullmatch(r"error: phase_a_range=1e\+308: .* overflows\n", err), err
    assert out == ""


def test_non_finite_x0_range_exits_2_naming_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.yaml", x0={"low": float("-inf"), "high": 0.0})
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error: x0 range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("graph", "n_nodes", "abc", "config key 'n_nodes' has unusable value 'abc'"),
        ("adversary", "target", "x", "config key 'target' has unusable value 'x'"),
        ("adversary", "members", None, "config is missing key 'members'"),
        (None, "big_k", ["a", 1], "config key 'big_k' has unusable value 'a'"),
        # an integer key refuses what int() would truncate
        (None, "big_k", 1.9, "config key 'big_k' has unusable value 1.9"),
        (None, "max_rounds", 40.7, "config key 'max_rounds' has unusable value 40.7"),
        (None, "seed", 2.5, "config key 'seed' has unusable value 2.5"),
        (None, "seed", True, "config key 'seed' has unusable value True"),
        ("graph", "n_nodes", 5.5, "config key 'n_nodes' has unusable value 5.5"),
        ("graph", "edges", [[0, 1.5]], "config key 'edges' has unusable value [[0, 1.5]]"),
        ("adversary", "members", [1.5], "config key 'members' has unusable value [1.5]"),
        ("adversary", "target", False, "config key 'target' has unusable value False"),
        ("adversary", "trials", 2.5, "config key 'trials' has unusable value 2.5"),
        (None, "x0", ["a", 1, 2, 3, 4], "config key 'x0' has unusable value ['a', 1, 2, 3, 4]"),
        (None, "x0", {"high": 1, "low": "a"}, "config key 'x0' has unusable value {'high': 1,"),
        # a misspelt key would otherwise leave its default in force
        (None, "stop_tolerance", 0.0, "unknown config key(s) ['stop_tolerance']"),
        ("adversary", "trial", 3, "unknown adversary key(s) ['trial']"),
    ],
)
def test_unreadable_nested_config_key_exits_2(tmp_path, capsys, section, key, value, message):
    cfg = write_config(tmp_path / "bad.yaml", adversary={"members": [1], "target": 0})
    raw = yaml.safe_load(cfg.read_text())
    keys = raw[section] if section else raw
    if value is None:
        del keys[key]
    else:
        keys[key] = value
    cfg.write_text(yaml.safe_dump(raw))
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, x0",
    [
        ("{low: 1e-5, high: 2e-5}", {"low": 1e-5, "high": 2e-5}),
        ("[1e-5, 2e-5, 3e-5, 4e-5, 5e-5]", [1e-5, 2e-5, 3e-5, 4e-5, 5e-5]),
    ],
    ids=["range", "list"],
)
def test_exponent_floats_in_x0_run_as_the_same_config_built_in_python(tmp_path, text, x0):
    """YAML reads 1e-5, which has no dot, as text; x0 reads it as a float."""
    cfg = write_config(tmp_path / "run.yaml", x0="X0", max_rounds=10)
    cfg.write_text(cfg.read_text().replace("x0: X0", f"x0: {text}"))
    raw_x0 = yaml.safe_load(cfg.read_text())["x0"]
    assert (raw_x0["low"] if isinstance(raw_x0, dict) else raw_x0[0]) == "1e-5"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "yaml")]) == 0
    config = ExperimentConfig(
        graph=default_demo_graph(), x0=x0, big_k=1, epsilon=0.01, phase_a_range=10.0,
        max_rounds=10, seed=3, mode="algorithm1",
    )
    sim.write_series_csv(tmp_path / "python.csv", sim.run_experiment(config))
    written = (tmp_path / "yaml" / "series.csv").read_bytes()
    assert written == (tmp_path / "python.csv").read_bytes()
    manifest = json.loads((tmp_path / "yaml" / "manifest.json").read_text())
    assert manifest["config_hash"] == sim.config_hash(config)


def test_simulate_manifest_records_crypto_latency(tmp_path):
    for mode in ("algorithm1", "algorithm2-simulated"):
        cfg = write_config(tmp_path / f"{mode}.yaml", mode=mode, max_rounds=5, key_bits=128)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / mode)]) == 0
        run = json.loads((tmp_path / mode / "manifest.json").read_text())["runs"][0]
        for key in ("mean_encrypt_ms", "mean_decrypt_ms"):
            if mode == "algorithm1":
                assert run[key] is None
            else:
                assert run[key] > 0.0


@pytest.mark.parametrize("mode", ["plain", "encrypted"])
def test_node_manifest_and_summary_record_decrypt_latency(tmp_path, capsys, mode):
    """Two in-process `privsum node` commands on a two-node cycle."""
    # the config's mode picks the transport
    cfg = write_config(
        tmp_path / "pair.yaml",
        graph={"n_nodes": 2, "edges": [[0, 1], [1, 0]]},
        x0=[10.0, 30.0],
        max_rounds=4,
        key_bits=128,
        mode={"plain": "algorithm1", "encrypted": "algorithm2-simulated"}[mode],
    )
    ports = allocate_ports(2)
    peers_path = tmp_path / "peers.json"
    peers_path.write_text(json.dumps({str(i): f"127.0.0.1:{ports[i]}" for i in range(2)}))
    codes = {}

    def node(i):
        codes[i] = main(
            [
                "node", "--node-id", str(i), "--listen", f"127.0.0.1:{ports[i]}",
                "--peers", str(peers_path), "--config", str(cfg),
                "--out-dir", str(tmp_path / "out"),
            ]
        )

    threads = [threading.Thread(target=node, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert codes == {0: 0, 1: 0}
    lines = capsys.readouterr().out.splitlines()
    for i in range(2):
        manifest = json.loads((tmp_path / "out" / f"node{i}.manifest.json").read_text())
        fields = [manifest[k] for k in ("mean_decrypt_ms", "max_decrypt_ms")]
        summary = next(line for line in lines if line.startswith(f"node {i}:"))
        assert 0.0 <= manifest["mean_wait_ms"] <= manifest["max_wait_ms"]
        if mode == "plain":
            assert fields == [None, None]
            assert manifest["blinding_table_ms"] is None
            assert "decrypt" not in summary
        else:
            assert 0.0 < fields[0] <= fields[1]
            # the one out-neighbor key's table build, timed apart from the encryptions
            assert manifest["blinding_table_ms"] > 0.0
            assert 0.0 < manifest["mean_encrypt_ms"] <= manifest["max_encrypt_ms"]
            assert f"mean decrypt {fields[0]:.2f} ms" in summary
            assert f"max decrypt {fields[1]:.2f} ms" in summary


def test_verify_fans_out_a_list_valued_big_k(capsys):
    # the fig2 preset sweeps big_k: [1, 5, 9]; every suite runs once per value
    assert main(["verify", "--preset", "fig2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for k in (1, 5, 9):
        assert sum(line.startswith(f"PASS K={k} ") for line in lines) == 6, k
    assert not any(line.startswith("FAIL") for line in lines)


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_an_empty_big_k_list_exits_2_with_one_error_line(tmp_path, capsys, command):
    # an empty list used to pass verify without running a suite, and crash
    # simulate after it had made its output directory
    cfg = write_config(tmp_path / "empty.yaml", big_k=[])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err == "error: big_k=[]: an empty list gives no run\n", captured.err
    assert "passed" not in captured.out


@pytest.mark.parametrize("preset", ["fig3", "fig7"])
def test_verify_passes_every_suite_on_a_preset(capsys, preset):
    assert main(["verify", "--preset", preset]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS K=") for line in lines) == 6
    assert not any(line.startswith("FAIL") for line in lines)


def test_fig3_attack_estimates_scatter_with_both_signs(tmp_path):
    """Per true x0, the fig3 colluders' 1000 minimum-norm estimates are
    spread out and take both signs: node 0's value is not recovered."""
    assert main(["attack", "--preset", "fig3", "--out-dir", str(tmp_path)]) == 0
    estimates = {}
    with open(tmp_path / "attack.csv") as fh:
        for row in csv.DictReader(fh):
            estimates.setdefault(float(row["true_x0"]), []).append(float(row["estimate"]))
    assert sorted(estimates) == [-40.0, 40.0]
    for true_x0, values in estimates.items():
        assert len(values) == 1000, true_x0
        assert statistics.stdev(values) > 1, true_x0
        assert min(values) < 0 < max(values), true_x0


@pytest.mark.parametrize(
    "adversary, message",
    [
        ({"attack": "bogus"}, "unknown attack 'bogus'"),
        ({"trials": 0}, "adversary trials=0 must be at least 1"),
    ],
)
def test_attack_with_an_unusable_adversary_section_exits_2(
    tmp_path, capsys, monkeypatch, adversary, message
):
    from privsum import cli

    runs = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: runs.append(a))
    cfg = write_config(
        tmp_path / "atk.yaml", adversary={"members": [1, 2, 3], "target": 0, **adversary}
    )
    assert main(["attack", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert runs == []  # refused before any experiment ran


def test_node_refuses_a_baseline_mode_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "a0.yaml", mode="algorithm0", max_rounds=4)
    peers_path = tmp_path / "peers.json"
    peers_path.write_text(json.dumps({str(i): f"127.0.0.1:{i + 1}" for i in range(5)}))
    rc = main(
        [
            "node", "--node-id", "0", "--listen", "127.0.0.1:0",
            "--peers", str(peers_path), "--config", str(cfg),
        ]
    )
    assert rc == 2
    assert "mode 'algorithm0' runs only in the simulator" in capsys.readouterr().err


@pytest.mark.parametrize(
    "node_id, listen, peers, message",
    [
        ("0", "127.0.0.1", None, "--listen is '127.0.0.1', not host:port"),
        ("0", None, {"0": "127.0.0.1"}, "peers entry '0' is '127.0.0.1', not host:port"),
        ("0", None, {"x": "127.0.0.1:1"}, "peers key 'x' is not a node id"),
        ("0", None, "{", "cannot read peers file .*peers.json"),
        ("0", None, [], "peers file .*peers.json must map node ids to host:port"),
        ("0", None, {"0": "127.0.0.1:1"}, r"no address for out-neighbor\(s\) \[1, 4\] of node 0"),
        ("9", None, None, "node id 9 is not a node of the 5-node graph"),
    ],
    ids=[
        "listen-without-port", "peer-without-port", "peer-key", "peers-not-json",
        "peers-not-a-mapping", "peer-missing", "node-id",
    ],
)
def test_node_with_bad_outside_input_exits_2_before_opening_a_socket(
    tmp_path, capsys, node_id, listen, peers, message
):
    port = allocate_ports(1)[0]
    if peers is None:
        peers = {str(i): f"127.0.0.1:{port + 1 + i}" for i in range(5)}
    peers_path = tmp_path / "peers.json"
    peers_path.write_text(peers if isinstance(peers, str) else json.dumps(peers))
    rc = main(
        [
            "node", "--node-id", node_id, "--listen", listen or f"127.0.0.1:{port}",
            "--peers", str(peers_path), "--preset", "fig7",
        ]
    )
    assert rc == 2
    assert re.search(f"^error: .*{message}", capsys.readouterr().err)
    # refused before any socket opened: the listen port is still free
    socket.create_server(("127.0.0.1", port)).close()


def test_node_on_a_busy_listen_port_exits_2(tmp_path, capsys):
    port = allocate_ports(1)[0]
    peers_path = tmp_path / "peers.json"
    peers_path.write_text(json.dumps({str(i): f"127.0.0.1:{port + 1 + i}" for i in range(5)}))
    with socket.create_server(("127.0.0.1", port)):
        rc = main(
            [
                "node", "--node-id", "0", "--listen", f"127.0.0.1:{port}",
                "--peers", str(peers_path), "--preset", "fig3",
            ]
        )
    assert rc == 2
    err = capsys.readouterr().err
    assert re.match(f"error: node 0 cannot listen on 127.0.0.1:{port}: ", err), err
    assert err.count("\n") == 1, err


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path / "run.yaml")
    for sub in ("one", "two"):
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / sub)]) == 0
    a = (tmp_path / "one" / "series.csv").read_bytes()
    b = (tmp_path / "two" / "series.csv").read_bytes()
    assert a == b


def test_attack_command_writes_trials(tmp_path):
    cfg = write_config(
        tmp_path / "atk.yaml",
        max_rounds=31,
        adversary={
            "members": [1, 2, 3],
            "target": 0,
            "attack": "least_squares",
            "trials": 3,
            "target_x0": [40.0, -40.0],
        },
        x0={"low": 0.0, "high": 50.0},
    )
    rc = main(["attack", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "attack.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    trues = {float(r["true_x0"]) for r in rows}
    assert trues == {40.0, -40.0}
    manifest = json.loads((tmp_path / "attack_manifest.json").read_text())
    assert manifest["trials"] == 6
    # Each trial runs K+3 rounds, and gives the estimate of a full-length run.
    assert manifest["rounds_per_trial"] == 4
    config = ExperimentConfig.from_yaml(cfg)
    for row in rows:
        full = sim.run_experiment(
            replace(config, seed=int(row["seed"])), target_override=float(row["true_x0"])
        )
        estimate = attack_least_squares(full.adversary_view, 0, config.max_rounds - 1)
        assert repr(estimate) == row["estimate"]


def test_attack_command_exact_recovery_variants(tmp_path):
    # colluders {1, 3, 4} cover node 0's whole neighborhood: recovery is exact
    cfg = write_config(
        tmp_path / "full.yaml",
        max_rounds=12,
        adversary={
            "members": [1, 3, 4],
            "target": 0,
            "attack": "full_neighborhood",
            "trials": 2,
            "target_x0": [40.0],
        },
    )
    assert main(["attack", "--config", str(cfg), "--out-dir", str(tmp_path / "f")]) == 0
    with open(tmp_path / "f" / "attack.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(abs(float(r["estimate"]) - 40.0) < 1e-6 for r in rows)

    # on the chain 0 <-> 1 <-> 2, node 1 alone is node 0's sole neighbor
    cfg = write_config(
        tmp_path / "sole.yaml",
        graph=CHAIN,
        x0=[13.5, -2.0, 88.0],
        max_rounds=12,
        adversary={
            "members": [1],
            "target": 0,
            "attack": "sole_neighbor",
            "trials": 2,
            "target_x0": [40.0],
        },
    )
    assert main(["attack", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == 0
    with open(tmp_path / "s" / "attack.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(abs(float(r["estimate"]) - 40.0) < 1e-6 for r in rows)

    # in baseline mode, in-neighbor 1 reads node 0's value off round 0
    cfg = write_config(
        tmp_path / "leak.yaml",
        mode="algorithm0",
        max_rounds=5,
        adversary={
            "members": [1],
            "target": 0,
            "attack": "baseline_leak",
            "trials": 1,
            "target_x0": [40.0],
        },
    )
    assert main(["attack", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
    with open(tmp_path / "b" / "attack.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["estimate"]) == 40.0


def test_baseline_leak_of_an_unseen_target_exits_2(tmp_path, capsys):
    # node 0 does not send to node 2, so member 2 sees none of its shares
    assert 2 not in default_demo_graph().out_neighbors(0)
    cfg = write_config(
        tmp_path / "leak.yaml",
        mode="algorithm0",
        max_rounds=5,
        adversary={"members": [2], "target": 0, "attack": "baseline_leak", "trials": 1},
    )
    assert main(["attack", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "node 0 sends to no member of [2]" in capsys.readouterr().err


# SHA-256 of the ``attack`` CSV of every attack that uses only elementwise
# arithmetic.  least_squares is not pinned: its solve goes through LAPACK,
# whose last bits may differ between machines.
ATTACK_CSV_SHA256 = {
    "full_neighborhood": "2a2c6ff9f61d449ffc6a7fb623b5acebf67509a105485d4ea35c65bb28475cb1",
    "sole_neighbor": "fbc62ab93df2c66bc9f917fdcefff07c3bece958a3774f22ec16c9cbf405913b",
    "baseline_leak": "342bd1fbd983422abe2251b74e7cb4345a5f62fe7dcb6fefbbd79eb692a5736c",
}


@pytest.mark.parametrize(
    "attack, members, overrides",
    [
        ("full_neighborhood", [1, 3, 4], {}),
        ("sole_neighbor", [1], {"graph": CHAIN}),
        ("baseline_leak", [1], {"mode": "algorithm0"}),
    ],
)
def test_attack_csvs_match_their_pinned_digests(tmp_path, attack, members, overrides):
    cfg = write_config(
        tmp_path / "a.yaml",
        x0={"low": -50.0, "high": 50.0},
        max_rounds=12,
        adversary={"members": members, "target": 0, "attack": attack, "trials": 4},
        **overrides,
    )
    assert main(["attack", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "attack.csv").read_bytes()).hexdigest()
    assert digest == ATTACK_CSV_SHA256[attack]


def test_manifest_outputs_exist_and_are_nonempty(tmp_path):
    cfg = write_config(tmp_path / "m.yaml")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    for out in manifest["outputs"]:
        p = Path(out)
        assert p.exists() and p.stat().st_size > 0


def test_verify_command_passes(tmp_path, capsys):
    cfg = write_config(tmp_path / "v.yaml", max_rounds=40, key_bits=128)
    rc = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_crypto_roundtrip_suite_sends_the_codec_edges_through_the_share_path(
    tmp_path, monkeypatch
):
    unpack = FixedPointCodec.decode_sum
    config = ExperimentConfig.from_yaml(write_config(tmp_path / "c.yaml", key_bits=128))
    result = verify.suite_crypto_roundtrip(config)
    assert result.passed
    assert "9 codec-edge pairs through the packed share path" in result.detail
    # a pair unpacked with its slots swapped breaks every mixed-sign pair
    with monkeypatch.context() as patch:
        patch.setattr(
            FixedPointCodec, "decode_sum", lambda self, m, count: unpack(self, m, count)[::-1]
        )
        result = verify.suite_crypto_roundtrip(config)
    assert not result.passed and "share path failed" in result.detail
    # a sum decoded one unit of 2^-f off fails, though single pairs pass
    with monkeypatch.context() as patch:
        patch.setattr(
            FixedPointCodec,
            "decode_sum",
            lambda self, m, count: unpack(self, m - (count > 1), count),
        )
        result = verify.suite_crypto_roundtrip(config)
    assert not result.passed and "share path failed for the sum of" in result.detail
    # and the channel's own decryption is the one checked: off by one fails
    monkeypatch.setattr(sim, "decrypt", lambda kp, c: decrypt(kp, c) + 1)
    result = verify.suite_crypto_roundtrip(config)
    assert not result.passed and "share path failed" in result.detail


def test_crypto_roundtrip_reports_the_tolerance_it_checks(tmp_path, monkeypatch):
    config = ExperimentConfig.from_yaml(write_config(tmp_path / "c.yaml", key_bits=128))
    result = verify.suite_crypto_roundtrip(config)
    assert result.passed and result.detail.endswith("(tolerance 1.77636e-15)")
    worst = float(re.search(r"worst codec roundtrip error (\S+)", result.detail)[1])
    assert 0.0 < worst <= 2.0**-49

    # a decode that errs by one part in 1e9 fails the bound, and says so
    class SkewedCodec(verify.FixedPointCodec):
        def decode(self, e):
            return super().decode(e) * (1.0 + 1e-9)

    monkeypatch.setattr(verify, "FixedPointCodec", SkewedCodec)
    result = verify.suite_crypto_roundtrip(config)
    assert not result.passed and result.detail.endswith("(tolerance 1.77636e-15)")
    assert result.detail.startswith("codec roundtrip failed for ")


def test_mass_conservation_reports_the_tolerance_it_checks(tmp_path, monkeypatch):
    config = ExperimentConfig.from_yaml(write_config(tmp_path / "m.yaml", max_rounds=40))
    result = verify.suite_mass_conservation(config)
    assert result.passed and result.detail.endswith("(tolerance 1e-09)")
    # a nonzero round-off drift fails a zero tolerance, and says so
    monkeypatch.setattr(verify, "MASS_DRIFT_TOL", 0.0)
    result = verify.suite_mass_conservation(config)
    assert not result.passed and result.detail.endswith("(tolerance 0)")


def test_column_stochastic_reports_the_tolerance_it_checks(tmp_path, monkeypatch):
    config = ExperimentConfig.from_yaml(write_config(tmp_path / "c.yaml", max_rounds=40))
    result = verify.suite_column_stochastic(config)
    assert result.passed and result.detail.endswith("(tolerance 1e-12)")
    # a nonzero round-off deviation fails a zero tolerance, and says so
    monkeypatch.setattr(verify, "COLUMN_SUM_TOL", 0.0)
    result = verify.suite_column_stochastic(config)
    assert not result.passed and result.detail.endswith("(tolerance 0)")
    assert result.detail.startswith("column sums broken at round")


def test_transition_products_report_the_tolerances_they_check(tmp_path, monkeypatch):
    config = ExperimentConfig.from_yaml(write_config(tmp_path / "t.yaml", max_rounds=40))
    result = verify.suite_transition_products(config)
    assert result.passed
    assert "(tolerance 1e-09), worst w deviation" in result.detail
    assert result.detail.endswith("(tolerance 1e-12)")
    # each side's nonzero round-off deviation fails a zero tolerance, and says so
    sides = (
        ("PRODUCT_S_TOL", r"s\(K\+1\) mismatch: "),
        ("PRODUCT_W_TOL", r"w\(\d+\) mismatch: "),
    )
    for name, failure in sides:
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, 0.0)
            result = verify.suite_transition_products(config)
        assert not result.passed and re.match(failure, result.detail)
        assert "(tolerance 0)" in result.detail


def test_witness_replay_reports_the_tolerance_it_checks(tmp_path, monkeypatch):
    # at seed 3 every replayed view is bit-equal to the original; seed 7's
    # differ by round-off, which a zero tolerance must catch
    config = ExperimentConfig.from_yaml(
        write_config(tmp_path / "w.yaml", max_rounds=40, seed=7)
    )
    result = verify.suite_witness_replay(config)
    assert result.passed and result.detail.endswith("(tolerance 1e-09)")
    # a nonzero round-off deviation fails a zero tolerance, and says so
    monkeypatch.setattr(verify, "VIEW_TOL", 0.0)
    result = verify.suite_witness_replay(config)
    assert not result.passed and result.detail.endswith("(tolerance 0)")
    assert result.detail.startswith("view changed for target")


def test_verify_passes_on_a_baseline_mode_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "a0.yaml", mode="algorithm0", max_rounds=40, key_bits=128)
    assert main(["verify", "--config", str(cfg)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def _corrupted(weights: WeightTable) -> WeightTable:
    """Distort one value-side weight per node per round, that of its
    lowest-numbered target, without fixing the self-weight: column
    stochasticity breaks."""
    layout = weights.layout
    table = weights.table.copy()
    for j in weights.graph.nodes():
        table[:, 0, layout.column(j, min(layout.targets(j)))] += 0.05
    return WeightTable(weights.graph, table)


def test_verify_detects_corrupted_weights(tmp_path):
    cfg_path = write_config(tmp_path / "v.yaml", max_rounds=40, key_bits=128)
    config = ExperimentConfig.from_yaml(cfg_path)
    weights = algorithm1_weights(config.graph, config.params, config.seed, 40)
    assert not check_column_stochastic(_corrupted(weights), config.params).passed


def test_verify_k_zero(tmp_path, capsys):
    cfg = write_config(tmp_path / "k0.yaml", big_k=0, max_rounds=40, key_bits=128)
    assert main(["verify", "--config", str(cfg)]) == 0


def test_requires_exactly_one_source(tmp_path, capsys):
    rc = main(["simulate", "--out-dir", str(tmp_path)])
    assert rc == 2
    cfg = write_config(tmp_path / "c.yaml")
    rc = main(
        ["simulate", "--config", str(cfg), "--preset", "fig2", "--out-dir", str(tmp_path)]
    )
    assert rc == 2


def _child_env():
    """The environment for a `python -m privsum` child process, with this
    package first on its path."""
    env = dict(os.environ)
    package_root = str(Path(privsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_privsum_runs_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "privsum", "--help"],
        cwd=tmp_path,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: privsum ")


def test_local_cluster_runs_from_a_script_piped_to_python(tmp_path):
    """The nodes are `privsum node` processes, so they do not re-run the
    caller's `__main__`, here `<stdin>`."""
    script = """
import sys
from importlib import resources
from privsum.net import run_local_cluster
from privsum.sim import ExperimentConfig
config = ExperimentConfig.from_yaml(resources.files("privsum") / "presets" / "fig3.yaml")
print(len(run_local_cluster(config, out_dir=sys.argv[1], timeout=120)))
"""
    proc = subprocess.run(
        [sys.executable, "-", str(tmp_path)],
        input=script,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5\n"


CRYPTO_KEYS = (
    "mean_encrypt_ms", "max_encrypt_ms", "blinding_table_ms",
    "mean_decrypt_ms", "max_decrypt_ms", "decrypts",
)


@pytest.mark.parametrize("preset", ["fig7", "fig3"])
def test_simulate_and_node_manifests_report_the_same_crypto_fields(tmp_path, preset):
    """A simulate run entry and each node manifest carry the same six crypto
    fields and no other: all positive under encryption, with one decryption
    per receiver-round, and all None in the clear."""
    assert main(["simulate", "--preset", preset, "--out-dir", str(tmp_path / "sim")]) == 0
    [run] = json.loads((tmp_path / "sim" / "manifest.json").read_text())["runs"]
    path = resources.files("privsum") / "presets" / f"{preset}.yaml"
    nodes = run_local_cluster(ExperimentConfig.from_yaml(path), tmp_path / "nodes", timeout=120)
    # fig7: 5 receivers and 100 rounds
    for manifest, decrypts in [(run, 500), *((node, 100) for node in nodes)]:
        crypto = {k for k in manifest if "crypt" in k or "blinding" in k}
        assert crypto == set(CRYPTO_KEYS)
        values = [manifest[k] for k in CRYPTO_KEYS]
        if preset == "fig3":
            assert values == [None] * 6
        else:
            assert all(v > 0 for v in values) and manifest["decrypts"] == decrypts
            assert manifest["mean_encrypt_ms"] <= manifest["max_encrypt_ms"]
            assert manifest["mean_decrypt_ms"] <= manifest["max_decrypt_ms"]


@pytest.mark.parametrize("case", ["fig7", "fig3", "config-file"])
def test_node_subprocesses_run_cluster(tmp_path, case):
    """Five `python -m privsum node` processes run a config end to end.  The
    encrypted fig7 nodes report their encryption time and reach the average;
    a plain node's pi column is the simulator's, string for string."""
    if case == "config-file":
        path = write_config(tmp_path / "run.yaml", max_rounds=100, seed=1)
        source, max_rounds = ["--config", str(path)], 100
    else:
        # fig3 runs 101 rounds; fig7 is checked by its manifests instead
        path = resources.files("privsum") / "presets" / f"{case}.yaml"
        source, max_rounds = ["--preset", case], 101
    nodes = tmp_path / "nodes"
    run_local_cluster(ExperimentConfig.from_yaml(path), out_dir=nodes, timeout=120)
    if case == "fig7":
        for i in range(5):
            manifest = json.loads((nodes / f"node{i}.manifest.json").read_text())
            assert manifest["mean_encrypt_ms"] is not None
            assert abs(manifest["final_pi"] - 20.0) <= 1e-6
            frames = nodes / f"node{i}.frames"
            assert str(frames) in manifest["outputs"] and frames.stat().st_size > 0
        return
    assert main(["simulate", *source, "--out-dir", str(tmp_path / "sim")]) == 0
    with open(tmp_path / "sim" / "series.csv", newline="") as fh:
        series = list(csv.DictReader(fh))
    assert len(series) == max_rounds + 1
    for i in range(5):
        with open(nodes / f"node{i}.csv", newline="") as fh:
            assert [row["pi"] for row in csv.DictReader(fh)] == [
                row[f"pi_{i}"] for row in series
            ]
