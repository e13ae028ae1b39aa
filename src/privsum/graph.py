"""Directed-graph model with explicit send-direction bookkeeping.

Edge convention (important): an edge ``(i, j)`` records that node ``j`` can
send messages to node ``i``, i.e. information flows ``j -> i``.  This is the
transpose of the adjacency convention used by many graph libraries.  Every
other module accesses the topology exclusively through
:meth:`DirectedGraph.out_neighbors` and :meth:`DirectedGraph.in_neighbors`,
so the raw pair order never leaks past this file.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class DirectedGraph:
    """Static directed communication topology over nodes ``0 .. n_nodes-1``.

    Immutable after construction; safe to share across threads.
    """

    n_nodes: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ConfigError("graph needs at least one node")
        norm = frozenset((int(i), int(j)) for i, j in self.edges)
        object.__setattr__(self, "edges", norm)
        out: list[list[int]] = [[] for _ in range(self.n_nodes)]
        inn: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for i, j in norm:
            if i == j:
                raise ConfigError(f"self-edge ({i}, {j}) is not allowed")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ConfigError(f"edge ({i}, {j}) references a node outside [0, {self.n_nodes})")
            out[j].append(i)  # j sends to i
            inn[i].append(j)  # i receives from j
        object.__setattr__(self, "_out", tuple(tuple(sorted(v)) for v in out))
        object.__setattr__(self, "_in", tuple(tuple(sorted(v)) for v in inn))

    @classmethod
    def from_edge_list(cls, n_nodes: int, pairs: Iterable[Sequence[int]]) -> "DirectedGraph":
        """Build from config-style pairs ``[i, j]`` meaning "j sends to i"."""
        return cls(n_nodes, frozenset((int(p[0]), int(p[1])) for p in pairs))

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        """Nodes that receive messages from ``i``."""
        return self._out[i]

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Nodes that send messages to ``i``."""
        return self._in[i]

    def out_degree(self, i: int) -> int:
        return len(self._out[i])

    def in_degree(self, i: int) -> int:
        return len(self._in[i])

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def nodes(self) -> range:
        return range(self.n_nodes)

    def edge_list(self) -> list[list[int]]:
        """Config-serializable sorted edge list (receiver, sender pairs)."""
        return [list(e) for e in sorted(self.edges)]

    @functools.cached_property
    def strongly_connected(self) -> bool:
        """True iff every ordered node pair is joined by a directed path.

        Searched once per graph object: a run's config validation and its
        protocol entry point both ask, and the topology cannot change.
        """
        if self.n_nodes == 1:
            return True
        full = set(self.nodes())
        return _reachable(self, 0, True) == full and _reachable(self, 0, False) == full


def _reachable(g: DirectedGraph, start: int, forward: bool) -> set[int]:
    step = g.out_neighbors if forward else g.in_neighbors
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in step(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every ordered node pair is joined by a directed path."""
    return g.strongly_connected


def max_out_degree(g: DirectedGraph) -> int:
    return max(g.out_degree(i) for i in g.nodes())


def random_strongly_connected_graph(
    n_nodes: int,
    rng: np.random.Generator,
    extra_edge_prob: float = 0.3,
) -> DirectedGraph:
    """Random strongly connected digraph: a directed Hamiltonian cycle over a
    random node permutation, plus independent extra arcs."""
    perm = rng.permutation(n_nodes)
    edges = set()
    for a in range(n_nodes):
        sender = int(perm[a])
        receiver = int(perm[(a + 1) % n_nodes])
        edges.add((receiver, sender))
    # One uniform per ordered pair, sender-major, receivers ascending with
    # the sender skipped: the stream of one rng.random() call per pair.
    extra = rng.random((n_nodes, n_nodes - 1)) < extra_edge_prob
    senders, slots = np.nonzero(extra)
    receivers = slots + (slots >= senders)
    edges.update(zip(receivers.tolist(), senders.tolist()))
    return DirectedGraph(n_nodes, frozenset(edges))


def default_demo_graph() -> DirectedGraph:
    """The package's reference 5-node strongly connected graph.

    Arcs (sender -> receiver): 0->1, 0->4, 1->2, 2->3, 2->4, 3->0, 3->1,
    4->3.  Node 0 has in-neighbors {3} and out-neighbors {1, 4}, which is the
    topology shape used throughout the attack demos: colluders {1, 2, 3}
    observe every in-flow to node 0 but miss the share it sends to node 4.
    """
    return DirectedGraph.from_edge_list(
        5,
        [[1, 0], [4, 0], [2, 1], [3, 2], [4, 2], [0, 3], [1, 3], [3, 4]],
    )
