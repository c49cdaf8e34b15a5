"""Dataset stand-ins for the paper's evaluation graphs (Section 7).

Each factory produces a seeded synthetic graph with the structural property
that drives the corresponding experiment:

* :func:`traffic_like` — US road network: huge diameter, degree ~2-4,
  weighted, no labels (the paper notes traffic "does not carry labels").
* :func:`social_like` — liveJournal: power-law degrees, small diameter,
  100 labels, many components (the paper's liveJournal has 18293).
* :func:`knowledge_like` — DBpedia: power-law, label-rich (200 types).
* :func:`ratings_like` — movieLens: bipartite users x items with planted
  low-rank structure.

Sizes default to laptop scale (the paper's graphs are 10^7-10^8 edges; the
``scale`` parameter grows them when more fidelity is wanted).
"""

from __future__ import annotations

import random
from typing import Tuple

import numpy as np

from repro.graph.generators import (assign_labels, bipartite_ratings_graph,
                                    grid_road_graph,
                                    preferential_attachment)
from repro.graph.graph import Graph

__all__ = ["traffic_like", "social_like", "knowledge_like", "ratings_like",
           "DATASETS", "load_dataset"]


def traffic_like(scale: float = 1.0, seed: int = 7) -> Graph:
    """Road-network stand-in: grid with diagonals, two-way weighted roads.

    Default ~3.6k nodes / ~14k directed edges; diameter grows with
    ``sqrt(scale)`` like a real road mesh.
    """
    side = max(4, int(60 * scale ** 0.5))
    return grid_road_graph(side, side, shortcut_prob=0.05, seed=seed)


def social_like(scale: float = 1.0, seed: int = 11,
                num_labels: int = 100) -> Graph:
    """Social-network stand-in: preferential attachment + labels + a few
    disconnected satellite components (liveJournal has thousands)."""
    n = max(50, int(4000 * scale))
    g = preferential_attachment(n, edges_per_node=5, seed=seed)
    # Satellite components: small cliques detached from the giant one.
    rng = random.Random(seed + 1)
    next_id = n
    for _ in range(max(2, int(12 * scale))):
        size = rng.randint(2, 5)
        members = list(range(next_id, next_id + size))
        next_id += size
        for i, u in enumerate(members):
            g.add_node(u)
            for v in members[i + 1:]:
                g.add_edge(u, v, weight=rng.uniform(0.1, 1.0))
                g.add_edge(v, u, weight=rng.uniform(0.1, 1.0))
    assign_labels(g, [f"l{i}" for i in range(num_labels)], seed=seed + 2)
    return g


def knowledge_like(scale: float = 1.0, seed: int = 13,
                   num_labels: int = 200) -> Graph:
    """Knowledge-base stand-in: power-law with a wide label alphabet."""
    n = max(60, int(3000 * scale))
    g = preferential_attachment(n, edges_per_node=4, seed=seed)
    assign_labels(g, [f"t{i}" for i in range(num_labels)], seed=seed + 1)
    return g


def ratings_like(scale: float = 1.0, seed: int = 17,
                 num_factors: int = 8) -> Tuple[Graph, np.ndarray, np.ndarray]:
    """movieLens stand-in: bipartite ratings with planted latent factors.

    Default ~400 users x 120 items x ~6000 ratings (the 71567 x 10681 x
    10M shape of movieLens, scaled down).
    """
    num_users = max(20, int(400 * scale))
    num_items = max(10, int(120 * scale))
    num_ratings = max(100, int(6000 * scale))
    return bipartite_ratings_graph(num_users, num_items, num_ratings,
                                   num_factors=num_factors, seed=seed)


DATASETS = {
    "traffic": traffic_like,
    "livejournal": social_like,
    "dbpedia": knowledge_like,
}


def load_dataset(name: str, scale: float = 1.0, seed: int | None = None) -> Graph:
    """Load a named dataset stand-in ("traffic", "livejournal", "dbpedia")."""
    try:
        factory = DATASETS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; "
                         f"available: {sorted(DATASETS)}") from None
    if seed is None:
        return factory(scale=scale)
    return factory(scale=scale, seed=seed)
