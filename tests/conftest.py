"""Shared fixtures for the test-suite."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.graphs.families import (
    caterpillar,
    complete_graph,
    cycle_graph,
    path_graph,
    random_bounded_degree_graph,
    random_loopy_tree,
    single_node_with_loops,
    star_graph,
)


@pytest.fixture
def rng():
    """A deterministic RNG for randomised constructions."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def race():
    """Run ``target(index)`` on ``threads`` threads at once, switching
    between them every microsecond so unlocked compound updates interleave
    as often as the interpreter allows."""

    def run(target, threads=8):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=target, args=(n,)) for n in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)

    return run


@pytest.fixture
def small_graphs():
    """A spread of small EC-graphs without loops."""
    return {
        "path4": path_graph(4),
        "cycle6": cycle_graph(6),
        "star5": star_graph(5),
        "k4": complete_graph(4),
        "caterpillar": caterpillar(3, 2),
        "random": random_bounded_degree_graph(14, 4, seed=3),
    }


@pytest.fixture
def loopy_graphs():
    """Loopy EC-graphs (trees with loops), the adversary's habitat."""
    return {
        "one_node_3_loops": single_node_with_loops(3),
        "loopy_tree_small": random_loopy_tree(4, 2, seed=1),
        "loopy_tree_larger": random_loopy_tree(7, 1, seed=2),
    }
