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
from itertools import chain
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

    @functools.cached_property
    def layout(self) -> "SenderLayout":
        """Where each node's weights and shares sit in a run's arrays.

        Built once per graph object, like ``strongly_connected``: every run
        and every attack trial on one graph shares it.
        """
        return SenderLayout(self)


class SenderLayout:
    """Where each node's weights and shares sit in a run's arrays.

    The edges are ordered sender ascending, then receiver ascending.  That
    is the order of the share arrays, of a run's wire, of the channel calls
    and of the first E columns of a weight table, whose last n columns are
    the nodes' self-weights.  Node j owns the columns ``columns(j)``, an
    index array in the order of ``targets(j)``: its edge block (its
    out-neighbors ascending), then its self column E + j.

    The engine writes one round's shares to a flat scratch row of
    2 (E + n) + 1 entries: the s side's E edge shares and n retained
    shares, the w side's alike, then one -0.0 pad.  ``holders`` names the
    node whose state each of a side's E + n columns multiplies: the
    senders, then 0 .. n - 1.  ``fold_order`` is the ``(1 + max_in, 2, n)``
    index into that row that ``fold_shares`` sums over: node i's retained
    share, then its in-shares by ascending sender, then the pad until every
    node has 1 + max_in slots.  The pad is -0.0 because x + (-0.0) is x bit
    for bit.

    The weight draw writes a round class-major, into a row of E + n
    entries: ``draw_classes`` groups the nodes by their number of targets
    m, as ``(nodes, m, span)`` triples in order of each class's lowest
    node, nodes ascending, and a class's rows fill the row's entries
    ``span``, node after node, each node's m weights in ``targets`` order.
    Column c of the table takes entry ``draw_order[c]`` of that row.
    """

    def __init__(self, graph: DirectedGraph) -> None:
        # No reference to the graph itself: the graph keeps its layout, and
        # a cycle between the two would outlive every run on the graph
        # until the cyclic garbage collector found it.
        n = self.n_nodes = graph.n_nodes
        self.out_neighbors = tuple(graph.out_neighbors(j) for j in graph.nodes())
        degrees = np.array([graph.out_degree(j) for j in graph.nodes()], dtype=np.intp)
        # Node j's edges are edge_start[j] .. edge_start[j + 1] - 1.
        self.edge_start = np.concatenate(([0], np.cumsum(degrees)))
        self.senders = np.repeat(np.arange(n), degrees)
        self.receivers = np.fromiter(
            chain.from_iterable(graph.out_neighbors(j) for j in graph.nodes()),
            dtype=np.intp,
            count=int(self.edge_start[-1]),
        )
        self.n_edges = self.senders.size

        by_receiver = np.lexsort((self.senders, self.receivers))
        grouped = self.receivers[by_receiver]
        depth = np.arange(self.n_edges) - np.searchsorted(grouped, grouped)
        max_in = max((graph.in_degree(i) for i in graph.nodes()), default=0)
        width = self.n_edges + n
        slots = np.full((1 + max_in, n), -1)
        slots[0] = self.n_edges + np.arange(n)
        slots[1 + depth, grouped] = by_receiver
        flat = slots[:, None, :] + np.array([[0], [width]])
        self.fold_order = np.where(slots[:, None, :] < 0, 2 * width, flat)
        self.holders = np.concatenate((self.senders, np.arange(n)))

    @functools.cached_property
    def draw_classes(self) -> list[tuple[np.ndarray, int, slice]]:
        groups: dict[int, list[int]] = {}
        for i, targets in enumerate(self.out_neighbors):
            groups.setdefault(len(targets) + 1, []).append(i)
        classes, start = [], 0
        for m, nodes in groups.items():
            classes.append((np.array(nodes), m, slice(start, start + len(nodes) * m)))
            start += len(nodes) * m
        return classes

    @functools.cached_property
    def draw_order(self) -> np.ndarray:
        order = np.empty(self.n_edges + self.n_nodes, dtype=np.intp)
        for nodes, m, span in self.draw_classes:
            order[self.class_columns(nodes, m).ravel()] = np.arange(span.start, span.stop)
        return order

    def targets(self, node: int) -> list[int]:
        return [*self.out_neighbors[node], node]

    def columns(self, node: int) -> np.ndarray:
        return self.class_columns(np.array([node]), len(self.out_neighbors[node]) + 1)[0]

    def class_columns(self, nodes: np.ndarray, m: int) -> np.ndarray:
        """``columns`` of nodes that all have m targets, one row each."""
        cols = np.empty((nodes.size, m), dtype=np.intp)
        cols[:, :-1] = self.edge_start[nodes, None] + np.arange(m - 1)
        cols[:, -1] = self.n_edges + nodes
        return cols

    def column(self, node: int, target: int) -> int:
        """The column of the node's weight on ``target``."""
        return int(self.columns(node)[self.targets(node).index(target)])


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


def max_in_degree(g: DirectedGraph) -> int:
    return max(g.in_degree(i) for i in g.nodes())


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
