"""Differential check: a WAL-tailing replica is indistinguishable from
its primary.

After N mixed insert/delete/reweight batches — primary applies, replica
tails — SSSP, CC and PageRank answers served by the replica must be
**bitwise-equal** (plain ``==``, no tolerance) to the primary's, and the
replica's standing watches must equal both the primary's watches and the
sequential oracles.  Swept over the serial, thread and process backends:
replication sits above the executor, so the backend must be invisible.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import EngineConfig
from repro.graph.delta import GraphDelta
from repro.graph.generators import uniform_random_graph
from repro.pie_programs import PageRankQuery
from repro.replication import ReplicaService
from repro.sequential import connected_components, sssp_distances
from repro.service import GrapeService

from .harness import BACKENDS, normalize


def cc_oracle(g):
    buckets = {}
    for v, c in connected_components(g).items():
        buckets.setdefault(c, set()).add(v)
    return buckets


def mixed_batch(g, rng, i):
    """One replication batch: an insertion (sometimes attaching a new
    node), plus a deletion or a reweight of a live edge."""
    target = 1000 + i if i % 2 else rng.randrange(60)
    delta = GraphDelta().insert(rng.randrange(60), target,
                                round(rng.uniform(0.1, 1.0), 3))
    edges = sorted(g.edges())
    u, v, w = edges[rng.randrange(len(edges))]
    if i % 3 == 0:
        delta.delete(u, v)
    else:
        delta.set_weight(u, v, round(w * rng.uniform(0.25, 4.0), 3))
    return delta


@pytest.mark.parametrize("backend", BACKENDS)
def test_replica_answers_equal_primary_after_mixed_churn(backend, tmp_path):
    g = uniform_random_graph(60, 200, directed=False, seed=31)
    rng = random.Random(47)
    engine = EngineConfig(backend=backend)
    with GrapeService(engine=engine, store_dir=tmp_path / "store",
                      node_id="primary") as primary:
        primary.load_graph("soc", g)
        replica = ReplicaService(tmp_path / "store", engine=engine,
                                 replica_id="r1")
        try:
            watch_p = primary.watch("sssp", 0, graph="soc")
            watch_r = replica.watch("sssp", 0, graph="soc")
            for i in range(10):
                primary.update("soc", mixed_batch(g, rng, i))
                applied = replica.sync()
                assert applied == 1
                # Watches track batch by batch, equal to the primary's
                # watch AND the from-scratch sequential oracle.
                assert watch_r.answer == watch_p.answer
                assert watch_r.answer == pytest.approx(
                    sssp_distances(g, 0))
            assert replica.applied_seq("soc") == 10

            for program, query in [("sssp", 0), ("cc", None),
                                   ("pagerank",
                                    PageRankQuery(max_iterations=8))]:
                want = primary.play(program, query, graph="soc").answer
                got = replica.play(program, query, graph="soc").answer
                assert normalize(got) == normalize(want), program
            # ...and the independent oracles agree with both.
            assert (replica.play("sssp", 0, graph="soc").answer
                    == pytest.approx(sssp_distances(g, 0)))
            assert (normalize(replica.play("cc", graph="soc").answer)
                    == normalize(cc_oracle(g)))
        finally:
            replica.close()
