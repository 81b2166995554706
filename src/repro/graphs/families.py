"""Graph families and generators used throughout tests, examples and benches.

Provides properly edge-coloured EC versions of standard families (paths,
cycles, stars, complete graphs, caterpillars, random bounded-degree graphs),
the loopy one-node graphs that seed the lower-bound construction, and random
trees-with-loops matching the shape invariants (P2)/(P3) of Section 4.
"""

from __future__ import annotations

import random
from itertools import count
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from .multigraph import ECGraph

Node = Hashable

__all__ = [
    "greedy_edge_coloring",
    "ec_from_simple_edges",
    "single_node_with_loops",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "caterpillar",
    "random_bounded_degree_graph",
    "random_regular_graph",
    "random_loopy_tree",
    "nx_to_simple_edges",
]


def greedy_edge_coloring(edges: Sequence[Tuple[Node, Node]]) -> Dict[Tuple[Node, Node], int]:
    """Properly colour the edges of a simple graph with at most ``2*Delta - 1`` colours.

    Greedy: process edges in the given order, assign the smallest colour
    (1-based) unused at either endpoint.  Deterministic for a fixed order.
    """
    used: Dict[Node, set] = {}
    coloring: Dict[Tuple[Node, Node], int] = {}
    for (u, v) in edges:
        taken = used.setdefault(u, set()) | used.setdefault(v, set())
        color = next(c for c in count(1) if c not in taken)
        coloring[(u, v)] = color
        used[u].add(color)
        used[v].add(color)
    return coloring


def ec_from_simple_edges(edges: Sequence[Tuple[Node, Node]], nodes: Optional[Iterable[Node]] = None) -> ECGraph:
    """Build an EC-graph from simple-graph edges via greedy proper colouring."""
    g = ECGraph()
    if nodes is not None:
        for v in nodes:
            g.add_node(v)
    coloring = greedy_edge_coloring(edges)
    for (u, v), c in coloring.items():
        g.add_edge(u, v, c)
    return g


def single_node_with_loops(num_loops: int, node: Node = 0, first_color: int = 1) -> ECGraph:
    """The graph ``G_0`` of the base case (Section 4.2): one node, ``num_loops``
    differently coloured loops, degree ``num_loops``."""
    g = ECGraph()
    g.add_node(node)
    for c in range(first_color, first_color + num_loops):
        g.add_edge(node, node, c)
    return g


def path_graph(n: int) -> ECGraph:
    """Properly 2-edge-coloured path on nodes ``0 .. n-1``."""
    if n < 1:
        raise ValueError("need at least one node")
    g = ECGraph()
    for v in range(n):
        g.add_node(v)
    for i in range(n - 1):
        g.add_edge(i, i + 1, 1 + (i % 2))
    return g


def cycle_graph(n: int) -> ECGraph:
    """Properly edge-coloured cycle on ``n >= 3`` nodes (2 colours if ``n`` even, 3 if odd)."""
    if n < 3:
        raise ValueError("cycles need at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return ec_from_simple_edges(edges)


def star_graph(k: int) -> ECGraph:
    """Star ``K_{1,k}``: centre ``0`` joined to leaves ``1 .. k``; colour = leaf index."""
    if k < 1:
        raise ValueError(f"a star needs at least 1 leaf, got {k}")
    g = ECGraph()
    g.add_node(0)
    for i in range(1, k + 1):
        g.add_edge(0, i, i)
    return g


def complete_graph(n: int) -> ECGraph:
    """Complete graph ``K_n`` with a proper edge colouring (round-robin, n-1 or n colours)."""
    if n < 1:
        raise ValueError(f"a complete graph needs at least 1 node, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return ec_from_simple_edges(edges, nodes=range(n))


def caterpillar(spine: int, legs: int) -> ECGraph:
    """A caterpillar: a ``spine``-node path, each spine node with ``legs`` leaves.

    Maximum degree is ``legs + 2`` for interior spine nodes.  Spine nodes are
    ``("s", i)`` and leaves ``("l", i, j)``.
    """
    if spine < 1:
        raise ValueError(f"a caterpillar needs at least 1 spine node, got {spine}")
    if legs < 0:
        raise ValueError(f"a caterpillar needs legs >= 0, got {legs}")
    edges: List[Tuple[Node, Node]] = []
    for i in range(spine - 1):
        edges.append((("s", i), ("s", i + 1)))
    for i in range(spine):
        for j in range(legs):
            edges.append((("s", i), ("l", i, j)))
    # the spine is listed in the order its edges add it: a lone leg-less
    # spine node still exists, and no other node moves
    return ec_from_simple_edges(edges, nodes=[("s", i) for i in range(spine)])


def random_bounded_degree_graph(n: int, max_degree: int, seed: int) -> ECGraph:
    """Random simple graph with maximum degree at most ``max_degree``, properly coloured.

    Edges are sampled by repeatedly joining two random nodes whose degrees
    are still below the bound; density targets roughly ``n * max_degree / 4``
    edges, so instances are neither trees nor near-regular.
    """
    if n < 2:
        raise ValueError(f"random graphs need at least 2 nodes, got {n}")
    if max_degree < 1:
        raise ValueError(f"random graphs need max_degree >= 1, got {max_degree}")
    rng = random.Random(seed)
    degree = {v: 0 for v in range(n)}
    chosen = set()
    target = max(1, (n * max_degree) // 4)
    attempts = 0
    while len(chosen) < target and attempts < 50 * target:
        attempts += 1
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if key in chosen or degree[u] >= max_degree or degree[v] >= max_degree:
            continue
        chosen.add(key)
        degree[u] += 1
        degree[v] += 1
    return ec_from_simple_edges(sorted(chosen), nodes=range(n))


def random_regular_graph(n: int, d: int, seed: int) -> ECGraph:
    """Random ``d``-regular simple graph (via networkx), properly edge-coloured."""
    if not 1 <= d < n:
        raise ValueError(f"a random d-regular graph needs 1 <= d < n, got d={d}, n={n}")
    nxg = nx.random_regular_graph(d, n, seed=seed)
    return ec_from_simple_edges(sorted(nxg.edges()), nodes=range(n))


def random_loopy_tree(
    n: int,
    loops_per_node: int,
    seed: int,
    tree_colors_offset: int = 100,
) -> ECGraph:
    """A random tree with ``loops_per_node`` loops on every node.

    Matches the structural invariants of the Section 4 construction: ignoring
    loops the graph is a tree (P3), and every node has at least
    ``loops_per_node`` loops, hence the graph is ``loops_per_node``-loopy
    (P2).  Loop colours ``1 .. loops_per_node`` are shared by all nodes; tree
    edges use colours ``>= tree_colors_offset`` so they never clash.
    """
    if n < 1:
        raise ValueError(f"a loopy tree needs at least 1 node, got {n}")
    if loops_per_node < 0:
        raise ValueError(f"a loopy tree needs loops_per_node >= 0, got {loops_per_node}")
    rng = random.Random(seed)
    edges: List[Tuple[Node, Node]] = []
    for v in range(1, n):
        parent = rng.randrange(v)
        edges.append((parent, v))
    coloring = greedy_edge_coloring(edges)
    g = ECGraph()
    for v in range(n):
        g.add_node(v)
    for (u, v), c in coloring.items():
        g.add_edge(u, v, c + tree_colors_offset - 1)
    for v in range(n):
        for c in range(1, loops_per_node + 1):
            g.add_edge(v, v, c)
    return g


def nx_to_simple_edges(nxg: "nx.Graph") -> List[Tuple[Node, Node]]:
    """Sorted edge list of a networkx graph (helper for colouring pipelines)."""
    return sorted(tuple(sorted(e)) for e in nxg.edges())
