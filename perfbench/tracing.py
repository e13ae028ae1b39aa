"""Aggregated spans around calls into privsum's public functions.

The traced run wraps each layer's entry points from outside the package:
every privsum module that holds a reference to the function gets the
wrapper, so calls made through ``from .x import f`` imports are caught too.
Per span the tracer keeps the call count, total time, the time covered by
nested spans on the same thread (so self time = total - child) and an
optional size total, e.g. bytes per frame.  A function a later commit
removes is skipped; its metrics then read 0.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    counted: int = 0
    units: int = 0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def merge(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.child_s += other.child_s
        self.counted += other.counted
        self.units += other.units


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, span: str, fn, units=None):
        """``units(result)`` returns a size to add, or None for a call that
        produced nothing countable (it then is not counted)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
            size = units(result) if units is not None else 0
            with self._lock:
                st = self.spans.setdefault(span, SpanStats())
                st.calls += 1
                st.total_s += elapsed
                st.child_s += frame[0]
                if size is not None:
                    st.counted += 1
                    st.units += size
            return result

        return traced

    def patch(self, span: str, owner, attr: str, units=None) -> None:
        """Replace ``owner.attr`` and every privsum module-level alias of it."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapped = self.wrap(span, original, units)
        if isinstance(raw, classmethod):
            setattr(owner, attr, staticmethod(wrapped))
            return
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            return
        for name, module in list(sys.modules.items()):
            if (name == "privsum" or name.startswith("privsum.")) and getattr(
                module, attr, None
            ) is original:
                setattr(module, attr, wrapped)

    def snapshot(self) -> dict[str, SpanStats]:
        with self._lock:
            return {k: SpanStats(**vars(v)) for k, v in self.spans.items()}


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every privsum layer."""
    from privsum import adversary, consensus, graph, net, paillier, sim, weights

    header_bytes = len(net.encode_frame(net.WireFrame(0, 0, 0, b"")))
    layers = [
        ("graph.build", graph, "random_strongly_connected_graph", None),
        ("graph.build", graph.DirectedGraph, "from_edge_list", None),
        ("weights.draw", weights, "generate_round_weights", None),
        ("consensus.shares", consensus, "outgoing_shares", lambda r: len(r[0])),
        ("consensus.apply", consensus, "apply_round", None),
        ("consensus.engine", consensus, "run_rounds", None),
        ("sim.run", sim, "run_experiment", None),
        ("sim.channel", sim.PaillierChannel, "transmit", None),
        ("sim.channel", sim.PaillierChannel, "receive", None),
        ("sim.error_series", sim, "error_series", None),
        ("sim.eavesdropper", adversary, "build_eavesdropper_log", None),
        ("adversary.view", adversary, "build_adversary_view", None),
        ("adversary.system", adversary, "build_least_squares_system", None),
        ("adversary.attack", adversary, "attack_least_squares", None),
        ("paillier.keygen", paillier, "keygen", None),
        ("paillier.encrypt", paillier, "encrypt", None),
        ("paillier.decrypt", paillier, "decrypt", None),
        ("paillier.codec", paillier.FixedPointCodec, "encode", None),
        ("paillier.codec", paillier.FixedPointCodec, "decode", None),
        ("net.send", net, "encode_frame", len),
        (
            "net.recv",
            net,
            "read_frame",
            lambda f: None if f is None else header_bytes + len(f.payload),
        ),
    ]
    for span, owner, attr, units in layers:
        tracer.patch(span, owner, attr, units)
