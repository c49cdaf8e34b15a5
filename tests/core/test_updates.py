"""Continuous queries under general updates (the transaction-controller
extension of paper Section 6): monotone insertions maintained
incrementally, deletions and weight increases served by the bounded
affected-region path, with the in-session recompute fallback reserved
for programs without the maintenance hooks."""

import pytest

from repro.core.engine import GrapeEngine
from repro.core.updates import (ContinuousQuerySession, apply_delta,
                                apply_insertions)
from repro.graph.delta import GraphDelta
from repro.graph.generators import grid_road_graph, uniform_random_graph
from repro.graph.graph import Graph
from repro.partition import RangePartition
from repro.pie_programs import CCProgram, SimProgram, SSSPProgram
from repro.sequential import connected_components, sssp_distances


def cc_oracle(g):
    buckets = {}
    for v, c in connected_components(g).items():
        buckets.setdefault(c, set()).add(v)
    return buckets


class TestApplyInsertions:
    def test_edge_lands_at_owner(self, small_road):
        engine = GrapeEngine(4)
        frag = engine.make_fragmentation(small_road)
        owner = frag.gp.owner(0)
        apply_insertions(frag, [(0, 35, 0.5)])
        assert frag[owner].graph.has_edge(0, 35)
        assert small_road.has_edge(0, 35)

    def test_cross_fragment_updates_borders(self, small_road):
        engine = GrapeEngine(4)
        frag = engine.make_fragmentation(small_road)
        u = 0
        fu = frag.gp.owner(u)
        v = next(x for x in sorted(small_road.nodes(), key=repr)
                 if frag.gp.owner(x) != fu
                 and not small_road.has_edge(u, x))
        fv = frag.gp.owner(v)
        apply_insertions(frag, [(u, v, 0.5)])
        assert v in frag[fu].outer
        assert v in frag[fv].inner
        assert fu in frag.gp.holders(v)

    def test_new_nodes_created(self, small_road):
        engine = GrapeEngine(4)
        frag = engine.make_fragmentation(small_road)
        apply_insertions(frag, [("brand-new", 0, 1.0)])
        assert "brand-new" in frag.gp
        owner = frag.gp.owner("brand-new")
        assert "brand-new" in frag[owner].owned

    def test_fragmentation_still_valid(self, small_road):
        engine = GrapeEngine(4)
        frag = engine.make_fragmentation(small_road)
        apply_insertions(frag, [(0, 35, 0.5), (10, 30, 1.0)])
        frag.validate()

    def test_undirected_stored_both_sides(self):
        g = uniform_random_graph(30, 40, directed=False, seed=3)
        engine = GrapeEngine(3)
        frag = engine.make_fragmentation(g)
        u = 0
        v = next(x for x in g.nodes()
                 if x != u and not g.has_edge(u, x))
        apply_insertions(frag, [(u, v, 1.0)])
        fu, fv = frag.gp.owner(u), frag.gp.owner(v)
        assert frag[fu].graph.has_edge(u, v)
        assert frag[fv].graph.has_edge(v, u)


class TestContinuousSSSP:
    def test_initial_answer_correct(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        assert session.answer == pytest.approx(
            sssp_distances(small_road, 0))

    def test_shortcut_insertion_maintained(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        far = max(session.answer,
                  key=lambda v: session.answer[v]
                  if session.answer[v] != float("inf") else -1)
        answer = session.insert_edges([(0, far, 0.25)])
        assert answer[far] == pytest.approx(0.25)
        assert answer == pytest.approx(sssp_distances(small_road, 0))

    def test_batched_insertions(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        answer = session.insert_edges([(0, 20, 0.1), (20, 33, 0.1),
                                       (33, 35, 0.1)])
        assert answer == pytest.approx(sssp_distances(small_road, 0))

    def test_sequential_batches(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        session.insert_edges([(0, 18, 0.3)])
        answer = session.insert_edges([(18, 35, 0.3)])
        assert answer == pytest.approx(sssp_distances(small_road, 0))

    def test_non_improving_insertion_cheap(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        before = session.metrics.supersteps
        answer = session.insert_edges([(0, 14, 1e9)])  # useless detour
        assert answer == pytest.approx(sssp_distances(small_road, 0))
        # One local fold, no message rounds needed.
        assert session.metrics.supersteps <= before + 1

    def test_weight_increase_served_by_bounded_path(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        existing = next(iter(small_road.edges()))
        u, v, w = existing
        answer = session.insert_edges([(u, v, w + 100.0)])
        assert small_road.edge_weight(u, v) == pytest.approx(w + 100.0)
        assert answer == pytest.approx(sssp_distances(small_road, 0))
        assert session.metrics.fallback_reruns == 0
        assert session.metrics.incremental_maintained == 1
        assert session.metrics.partial_resets == 1

    def test_deletion_served_by_bounded_path(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        u, v, _w = max(small_road.edges(),
                       key=lambda e: session.answer.get(e[1], 0.0)
                       if session.answer.get(e[1]) != float("inf") else 0.0)
        answer = session.delete_edges([(u, v)])
        assert not small_road.has_edge(u, v)
        assert answer == pytest.approx(sssp_distances(small_road, 0))
        assert session.metrics.fallback_reruns == 0
        assert session.metrics.partial_resets == 1
        # The reset is bounded: only part of the graph was touched.
        assert 0 < session.metrics.affected_vertices \
            <= small_road.num_nodes
        session.fragmentation.validate()

    def test_undirected_intra_fragment_decrease_relaxes_both_ways(self):
        """Regression: an undirected weight decrease whose edge lives in
        one fragment must seed *both* orientations of the relaxation —
        recording only (u, v) left dist(u) stale via the v -> u path."""
        from repro.graph.graph import Graph
        g = Graph(directed=False)
        g.add_edge("s", "a", weight=1.0)
        g.add_edge("a", "u", weight=20.0)
        g.add_edge("s", "u", weight=30.0)
        session = ContinuousQuerySession(GrapeEngine(1), SSSPProgram(),
                                         "s", g)
        assert session.answer["u"] == pytest.approx(21.0)
        answer = session.set_weights([("u", "a", 2.0)])
        assert session.metrics.incremental_maintained == 1
        assert answer["u"] == pytest.approx(3.0)
        assert answer == pytest.approx(sssp_distances(g, "s"))

    def test_monotone_batches_keep_the_fast_path(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        session.insert_edges([(0, 35, 0.5)])
        u, v, w = next(iter(small_road.edges()))
        session.set_weights([(u, v, w * 0.5)])  # decrease: maintainable
        assert session.metrics.incremental_maintained == 2
        assert session.metrics.fallback_reruns == 0
        assert session.answer == pytest.approx(
            sssp_distances(small_road, 0))

    def test_new_node_attached(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        answer = session.insert_edges([(0, "annex", 2.0)])
        assert answer["annex"] == pytest.approx(2.0)

    @staticmethod
    def _local_tight_edges(session, graph):
        """Intra-fragment edges on a shortest path: their heads are the
        direct hits of a reweight, whatever its direction."""
        dist, frag = session.answer, session.fragmentation
        return [(u, v, w) for u, v, w in graph.edges()
                if u != 0 and frag.gp.owner(u) == frag.gp.owner(v)
                and dist[v] == dist[u] + w]

    def test_monotone_batch_is_an_empty_region(self, small_road):
        """A monotone batch takes the bounded path with nothing reset,
        even though the per-fragment test would hit the decreased edge's
        head: the session does not seed a monotone batch."""
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        program, frags = session.program, session.fragmentation.fragments
        u, v, w = self._local_tight_edges(session, small_road)[0]
        touched = apply_delta(session.fragmentation,
                              GraphDelta.from_weight_changes([(u, v, w / 2)]))
        assert all(d.monotone for d in touched.values())
        assert any(program.affected_seeds(0, frags[fid], session.states[fid],
                                          d) for fid, d in touched.items())
        session.apply_update(touched)
        m = session.metrics
        assert (m.incremental_maintained, m.fallback_reruns) == (1, 0)
        assert (m.partial_resets, m.affected_vertices) == (0, 0)
        assert session.answer == pytest.approx(sssp_distances(small_road, 0))

    def test_nonmonotone_batch_seeds_its_decreases(self, small_road):
        """The gate is per batch: once a deletion makes the batch
        non-monotone, a fragment whose own delta only decreases a weight
        still seeds that reweight's head."""
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        program, frag = session.program, session.fragmentation
        tight = self._local_tight_edges(session, small_road)
        u, v, w = tight[0]
        x, y, _ = next(e for e in tight
                       if frag.gp.owner(e[0]) != frag.gp.owner(u))
        touched = apply_delta(frag, GraphDelta.from_weight_changes(
            [(u, v, w / 2)]) + GraphDelta.from_deletions([(x, y)]))
        mono = [fid for fid, d in touched.items() if d.monotone]
        assert mono and not all(d.monotone for d in touched.values())
        seeds = program.affected_seeds_global(0, frag.fragments,
                                              session.states, touched)
        for fid in mono:
            assert v in seeds[fid]
        session.apply_update(touched)
        assert session.metrics.partial_resets == 1
        assert session.answer == pytest.approx(sssp_distances(small_road, 0))


class TestContinuousCC:
    def test_component_merge_maintained(self):
        g = uniform_random_graph(60, 45, directed=False, seed=9)
        session = ContinuousQuerySession(GrapeEngine(3), CCProgram(), None,
                                         g)
        assert session.answer == cc_oracle(g)
        # Bridge two different components.
        cids = connected_components(g)
        by_comp = {}
        for v, c in cids.items():
            by_comp.setdefault(c, []).append(v)
        comps = sorted(by_comp)
        if len(comps) < 2:
            pytest.skip("graph ended up connected")
        u = by_comp[comps[0]][0]
        v = by_comp[comps[1]][0]
        answer = session.insert_edges([(u, v, 1.0)])
        assert answer == cc_oracle(g)

    def test_many_merges(self):
        g = uniform_random_graph(50, 30, directed=False, seed=11)
        session = ContinuousQuerySession(GrapeEngine(4), CCProgram(), None,
                                         g)
        edges = [(i, i + 25, 1.0) for i in range(0, 20, 5)]
        answer = session.insert_edges(edges)
        assert answer == cc_oracle(g)


class TestSessionBorderMaintenance:
    """Direct coverage of border-set / G_P upkeep when insertions flow
    through a live session (previously only exercised via benchmarks)."""

    @staticmethod
    def _cross_fragment_pair(session):
        gp = session.fragmentation.gp
        graph = session.fragmentation.graph
        nodes = sorted(graph.nodes(), key=repr)
        for u in nodes:
            for v in nodes:
                if u != v and gp.owner(u) != gp.owner(v) \
                        and not graph.has_edge(u, v):
                    return u, v
        pytest.skip("no cross-fragment non-edge available")

    def test_cross_fragment_insert_updates_borders(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        frag = session.fragmentation
        u, v = self._cross_fragment_pair(session)
        fu, fv = frag.gp.owner(u), frag.gp.owner(v)
        session.insert_edges([(u, v, 0.5)])
        # u's owner stores the edge and gains v as an out-border copy.
        assert frag[fu].graph.has_edge(u, v)
        assert v in frag[fu].outer
        # v becomes an in-border node of its own fragment.
        assert v in frag[fv].inner
        # G_P knows every holder of v, so future messages route there.
        assert fu in frag.gp.holders(v)
        assert frag.gp.owner(v) == fv
        frag.validate()
        assert session.answer == pytest.approx(
            sssp_distances(small_road, 0))

    def test_new_node_joins_gp_and_answer(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        frag = session.fragmentation
        session.insert_edges([(0, "annex", 2.0), ("annex", "outpost", 1.0)])
        for fresh in ("annex", "outpost"):
            assert fresh in frag.gp
            owner = frag.gp.owner(fresh)
            assert fresh in frag[owner].owned
        frag.validate()
        assert session.answer["outpost"] == pytest.approx(3.0)
        assert session.answer == pytest.approx(
            sssp_distances(small_road, 0))

    def test_repeated_batches_keep_fragmentation_valid(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        for batch in ([(0, 21, 0.4)], [(21, 35, 0.4)], [(35, 3, 0.4)]):
            session.insert_edges(batch)
            session.fragmentation.validate()
        assert session.answer == pytest.approx(
            sssp_distances(small_road, 0))


class TestSharedFragmentation:
    """Sessions over an owner-managed fragmentation (the service path)."""

    def test_two_sessions_one_fragmentation(self, small_road):
        engine = GrapeEngine(4)
        frag = engine.make_fragmentation(small_road)
        s1 = ContinuousQuerySession(engine, SSSPProgram(), 0,
                                    fragmentation=frag)
        s2 = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 14,
                                    fragmentation=frag)
        assert s1.fragmentation is s2.fragmentation
        # The owner applies the batch once; each session folds the deltas.
        touched = apply_insertions(frag, [(0, 35, 0.25), (14, 30, 0.25)])
        s1.apply_update(touched)
        s2.apply_update(touched)
        frag.validate()
        assert s1.answer == pytest.approx(sssp_distances(small_road, 0))
        assert s2.answer == pytest.approx(sssp_distances(small_road, 14))

    def test_constructor_requires_exactly_one_source(self, small_road):
        engine = GrapeEngine(2)
        frag = engine.make_fragmentation(small_road)
        with pytest.raises(ValueError, match="exactly one"):
            ContinuousQuerySession(engine, SSSPProgram(), 0, small_road,
                                   fragmentation=frag)
        with pytest.raises(ValueError, match="exactly one"):
            ContinuousQuerySession(engine, SSSPProgram(), 0)


class TestDeletions:
    """apply_delta border/G_P maintenance under ΔG⁻ (deletions)."""

    @staticmethod
    def _sole_cross_edge(frag):
        """A cross-fragment edge (u, v) where the storing fragment holds
        v only because of this edge (mirror refcount 1)."""
        gp = frag.gp
        for u, v, _w in frag.graph.edges():
            fu, fv = gp.owner(u), gp.owner(v)
            if fu != fv and frag[fu].graph.degree(v) == 1:
                return u, v, fu, fv
        return None

    def test_mirror_retired_when_last_edge_deleted(self, small_road):
        frag = GrapeEngine(4).make_fragmentation(small_road)
        found = self._sole_cross_edge(frag)
        if found is None:
            pytest.skip("no refcount-1 cross edge in this partition")
        u, v, fu, fv = found
        touched = apply_delta(frag, GraphDelta().delete(u, v))
        assert not small_road.has_edge(u, v)
        assert not frag[fu].graph.has_node(v)     # mirror retired
        assert v not in frag[fu].outer
        assert fu not in frag.gp.holders(v)
        assert fu in touched and v in touched[fu].retired_nodes
        frag.validate()

    def test_inner_membership_follows_holders(self, small_road):
        frag = GrapeEngine(4).make_fragmentation(small_road)
        gp = frag.gp
        # Pick an inner node and delete every cross edge reaching it.
        target = next((x for f in frag for x in f.inner), None)
        assert target is not None
        owner = gp.owner(target)
        cross = [(u, target) for f in frag for u, v, _w in f.graph.edges()
                 if v == target and gp.owner(u) != owner]
        apply_delta(frag, GraphDelta.from_deletions(cross))
        assert len(gp.holders(target)) == 1
        assert target not in frag[owner].inner
        frag.validate()

    def test_deletions_keep_fragmentation_valid(self):
        g = uniform_random_graph(40, 120, seed=7)
        frag = GrapeEngine(4).make_fragmentation(g)
        edges = list(g.edges())[::3]
        apply_delta(frag, GraphDelta.from_deletions(
            [(u, v) for u, v, _w in edges]))
        for u, v, _w in edges:
            assert not g.has_edge(u, v)
        frag.validate()

    def test_undirected_deletion_removes_both_sides(self):
        g = uniform_random_graph(30, 60, directed=False, seed=3)
        frag = GrapeEngine(3).make_fragmentation(g)
        gp = frag.gp
        u, v, _w = next((u, v, w) for u, v, w in g.edges()
                        if gp.owner(u) != gp.owner(v))
        apply_delta(frag, GraphDelta().delete(v, u))  # either orientation
        assert not g.has_edge(u, v) and not g.has_edge(v, u)
        assert not frag[gp.owner(u)].graph.has_edge(u, v)
        assert not frag[gp.owner(v)].graph.has_edge(v, u)
        frag.validate()


class TestBorderRetraction:
    """Regression (two fragments): a deletion that *worsens* a border
    node's value must retract the stale parameter from the peer
    fragment's aggregator table.  The min aggregator alone can only
    lower values — without the bounded path's rebaseline (full re-read
    of each touched fragment's params, absent keys becoming tombstones)
    the peer would keep serving the old, smaller value forever."""

    @staticmethod
    def _session(graph, program, query):
        engine = GrapeEngine(2, partition=RangePartition())
        return ContinuousQuerySession(engine, program, query, graph)

    def test_sssp_border_distance_raised_after_delete(self):
        g = Graph(directed=True)
        g.add_edge(0, 3, weight=0.1)   # cheap cross-fragment edge
        g.add_edge(0, 1, weight=1.0)   # detour inside fragment A...
        g.add_edge(1, 3, weight=9.0)   # ...reaching 3 at cost 10.0
        g.add_edge(3, 4, weight=1.0)   # downstream chain in fragment B
        session = self._session(g, SSSPProgram(), 0)
        frag = session.fragmentation
        assert frag.gp.owner(0) != frag.gp.owner(3)
        assert session.answer[3] == pytest.approx(0.1)

        session.update(GraphDelta().delete(0, 3))
        # The stale 0.1 must be gone everywhere: the maintained answer
        # re-converges to the detour, downstream chain included.
        assert session.answer[3] == pytest.approx(10.0)
        assert session.answer[4] == pytest.approx(11.0)
        assert session.answer == pytest.approx(sssp_distances(g, 0))
        m = session.metrics
        assert m.fallback_reruns == 0
        assert m.partial_resets == 1

    def test_cc_border_cid_raised_after_split(self):
        g = Graph(directed=False)
        for u, v in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)):
            g.add_edge(u, v, weight=1.0)
        session = self._session(g, CCProgram(), None)
        frag = session.fragmentation
        assert frag.gp.owner(2) != frag.gp.owner(3)
        assert {k: set(v) for k, v in session.answer.items()} \
            == {0: {0, 1, 2, 3, 4, 5}}

        session.update(GraphDelta().delete(2, 3))
        # Fragment B's nodes lose the global minimum 0: the cid 0 border
        # param must be retracted so the split-off half re-derives its
        # own minimum (3), exactly like a from-scratch run.
        assert {k: set(v) for k, v in session.answer.items()} \
            == {0: {0, 1, 2}, 3: {3, 4, 5}}
        assert session.answer == cc_oracle(g)
        m = session.metrics
        assert m.fallback_reruns == 0
        assert m.partial_resets == 1


class TestNoOpBatches:
    """An empty or duplicate-only batch must be a true no-op: no cache
    token movement, no CSR epoch movement (the PR-4 bugfix)."""

    def test_duplicate_insert_is_noop(self, small_road):
        frag = GrapeEngine(4).make_fragmentation(small_road)
        u, v, w = next(iter(small_road.edges()))
        token = frag.cache_token
        epochs = [f.csr_epoch for f in frag]
        touched = apply_insertions(frag, [(u, v, w)])
        assert touched == {}
        assert frag.cache_token == token
        assert [f.csr_epoch for f in frag] == epochs

    def test_absent_delete_and_same_weight_are_noops(self, small_road):
        frag = GrapeEngine(4).make_fragmentation(small_road)
        u, v, w = next(iter(small_road.edges()))
        absent = next(x for x in small_road.nodes()
                      if not small_road.has_edge(u, x) and x != u)
        token = frag.cache_token
        epochs = [f.csr_epoch for f in frag]
        touched = apply_delta(frag, GraphDelta()
                              .delete(u, absent)
                              .set_weight(u, v, w)
                              .insert(u, v, w))
        assert touched == {}
        assert frag.cache_token == token
        assert [f.csr_epoch for f in frag] == epochs

    def test_empty_batch_session_refresh_is_free(self, small_road):
        session = ContinuousQuerySession(GrapeEngine(4), SSSPProgram(), 0,
                                         small_road)
        before = session.metrics.supersteps
        answer = session.update(GraphDelta())
        assert answer == session.answer
        assert session.metrics.supersteps == before
        assert session.metrics.deltas_applied == 0


class TestCCUnderDeltas:
    def test_component_split_served_by_bounded_path(self):
        """Deleting a bridge condemns and relabels the severed side."""
        g = uniform_random_graph(50, 60, directed=False, seed=13)
        # Graft a pendant chain onto the graph: its first edge is a
        # bridge whose deletion provably splits a component.
        anchor = next(iter(g.nodes()))
        g.add_edge(anchor, 900, 1.0)
        g.add_edge(900, 901, 1.0)
        session = ContinuousQuerySession(GrapeEngine(3), CCProgram(), None,
                                         g)
        answer = session.delete_edges([(anchor, 900)])
        assert answer == cc_oracle(g)
        assert answer[900] == {900, 901}
        assert session.metrics.fallback_reruns == 0
        assert session.metrics.partial_resets == 1
        assert session.metrics.affected_vertices > 0
        session.fragmentation.validate()

    def test_redundant_deletion_affects_nothing(self):
        """Split detection is exact: deleting an edge whose endpoints
        stay connected (checked across fragments on the driver) resets
        no vertex at all — the old cids remain valid."""
        g = uniform_random_graph(50, 60, directed=False, seed=13)
        # A triangle glued onto the graph: deleting one of its edges
        # leaves the other two as the reconnecting path.
        anchor = next(iter(g.nodes()))
        g.add_edge(anchor, 900, 1.0)
        g.add_edge(900, 901, 1.0)
        g.add_edge(901, anchor, 1.0)
        session = ContinuousQuerySession(GrapeEngine(3), CCProgram(), None,
                                         g)
        before = session.answer
        answer = session.delete_edges([(900, 901)])
        assert answer == before == cc_oracle(g)
        assert session.metrics.affected_vertices == 0
        assert session.metrics.fallback_reruns == 0
        assert session.metrics.partial_resets == 1

    def test_reweight_stays_incremental_for_cc(self):
        g = uniform_random_graph(50, 60, directed=False, seed=13)
        session = ContinuousQuerySession(GrapeEngine(3), CCProgram(), None,
                                         g)
        u, v, w = next(iter(g.edges()))
        answer = session.set_weights([(u, v, w + 100.0)])  # CC: weights moot
        assert answer == cc_oracle(g)
        assert session.metrics.incremental_maintained == 1
        assert session.metrics.fallback_reruns == 0


class TestSessionErrors:
    def test_program_without_hook_recomputes(self, small_labeled,
                                             tiny_pattern):
        """Programs without the Maintenance hooks serve standing queries
        by recomputing every batch instead of being rejected."""
        session = ContinuousQuerySession(GrapeEngine(2), SimProgram(),
                                         tiny_pattern, small_labeled)
        u = next(iter(small_labeled.nodes()))
        v = next(x for x in small_labeled.nodes()
                 if x != u and not small_labeled.has_edge(u, x))
        answer = session.insert_edges([(u, v, 1.0)])
        assert session.metrics.fallback_reruns == 1
        assert answer == session.answer
