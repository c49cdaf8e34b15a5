"""The process-backend pickle contract, audited.

Everything that crosses the worker pipe must round-trip through pickle:
every registered PIE program, fragments, fragmentations and engine
configs.  And a program that *cannot* cross must fail fast with an error
that tells the user what to fix.
"""

import pickle

import pytest

from repro.core.api import default_registry
from repro.core.engine import EngineConfig, GrapeEngine
from repro.core.pie import PIEProgram
from repro.graph.generators import uniform_random_graph
from repro.partition.strategies import HashPartition, RangePartition
from repro.pie_programs import SSSPProgram
from repro.resilience.faults import FaultPlane
from repro.runtime.executors import UnpicklableProgramError


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj,
                                     protocol=pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(default_registry().names(),
                                        key=str.lower))
def test_every_registered_program_roundtrips(name):
    program = default_registry().create(name)
    clone = roundtrip(program)
    assert type(clone) is type(program)
    assert clone.name == program.name
    assert vars(clone) == vars(program)


@pytest.mark.parametrize("name", ["sssp", "bfs", "cc", "pagerank"])
def test_unpickled_program_runs_identically(name):
    from repro.pie_programs import PageRankQuery
    graph = uniform_random_graph(80, 300, seed=4, directed=(name != "cc"))
    query = {"cc": None,
             "pagerank": PageRankQuery(max_iterations=5)}.get(name, 0)
    original = GrapeEngine(3).run(default_registry().create(name), query,
                                  graph=graph)
    clone = GrapeEngine(3).run(roundtrip(default_registry().create(name)),
                               query, graph=graph)
    assert clone.answer == original.answer
    assert clone.supersteps == original.supersteps
    assert clone.metrics.comm_bytes == original.metrics.comm_bytes


# ---------------------------------------------------------------------------
# fragments and fragmentations
# ---------------------------------------------------------------------------
def make_fragmentation():
    g = uniform_random_graph(50, 180, seed=9)
    return GrapeEngine(3).make_fragmentation(g)


def test_fragment_roundtrip_drops_csr_and_lock():
    frag = make_fragmentation()[0]
    frag.csr()          # populate the snapshot + epoch machinery
    frag.invalidate_csr()
    frag.csr()
    clone = roundtrip(frag)
    assert clone.fid == frag.fid
    assert clone.owned == frag.owned
    assert clone.inner == frag.inner
    assert clone.outer == frag.outer
    assert set(clone.graph.nodes()) == set(frag.graph.nodes())
    assert sorted(clone.graph.edges()) == sorted(frag.graph.edges())
    # the snapshot machinery restarts fresh on the receiving side
    assert clone.csr_epoch == 0
    assert clone.csr_builds == 0
    assert clone.csr().n == frag.csr().n


def test_fragmentation_roundtrip_preserves_gp():
    fragmentation = make_fragmentation()
    clone = roundtrip(fragmentation)
    clone.validate()
    assert clone.num_fragments == fragmentation.num_fragments
    for v in fragmentation.graph.nodes():
        assert clone.gp.owner(v) == fragmentation.gp.owner(v)
        assert clone.gp.holders(v) == fragmentation.gp.holders(v)


# ---------------------------------------------------------------------------
# engine configs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", [
    EngineConfig(),
    EngineConfig(num_workers=2, num_fragments=8, backend="process"),
    EngineConfig(partition=RangePartition(), incremental=False),
    EngineConfig(partition=HashPartition(),
                 fault_plane=FaultPlane().plan("exec.step", "crash",
                                               key=0, at=2)),
], ids=["default", "process", "range-ni", "hash-ft"])
def test_engine_config_roundtrips(config):
    clone = roundtrip(config)
    assert clone.num_workers == config.num_workers
    assert clone.effective_fragments == config.effective_fragments
    assert clone.backend == config.backend
    assert clone.incremental == config.incremental
    assert type(clone.partition) is type(config.partition)
    if config.fault_plane is not None:
        assert clone.fault_plane.may_fire("exec.")
        assert clone.fault_plane.check("exec.step", key=0) is None
        assert clone.fault_plane.check("exec.step", key=0).kind == "crash"


# ---------------------------------------------------------------------------
# the failure mode: a clear error for unpicklable programs
# ---------------------------------------------------------------------------
def test_unpicklable_program_fails_fast_with_clear_error():
    class LocalProgram(SSSPProgram):
        """Function-local classes cannot be pickled by reference."""

    engine = GrapeEngine(2, backend="process")
    graph = uniform_random_graph(20, 40, seed=1)
    with pytest.raises(UnpicklableProgramError) as excinfo:
        engine.run(LocalProgram(), 0, graph=graph)
    message = str(excinfo.value)
    assert "picklable" in message
    assert "process" in message
    assert "module level" in message


def test_unpicklable_query_fails_fast_too():
    engine = GrapeEngine(2, backend="process")
    graph = uniform_random_graph(20, 40, seed=1)
    unpicklable_query = lambda: 0  # noqa: E731
    with pytest.raises(UnpicklableProgramError):
        engine.run(SSSPProgram(), unpicklable_query, graph=graph)


def test_abstract_program_documents_the_contract():
    assert "Pickle contract" in PIEProgram.__doc__


def test_mapped_fragment_pickles_to_independent_copy():
    """A fragment serving zero-copy shared-memory CSR views must pickle
    without carrying segment handles: the clone is a plain deep copy
    that stays valid after the segment is unlinked."""
    from repro.runtime import shm

    if not shm.shm_available():
        pytest.skip("no shared-memory provider here")
    frag = make_fragmentation()[0]
    prov = shm.provider()
    seg, desc = shm.publish_fragment(prov, 7, 0, 0, frag, frag.csr())
    mapped, _seg = shm.attach_fragment(desc)
    assert mapped.csr_shared
    blob = pickle.dumps(mapped, protocol=pickle.HIGHEST_PROTOCOL)
    # the pickled form dropped the mapped views along with the rest of
    # the snapshot machinery (it must never capture the segment buffer)
    clone = pickle.loads(blob)
    assert not clone.csr_shared
    assert clone.csr_builds == 0
    prov.unlink(desc.name)
    del mapped, seg, _seg  # drop the mappings before touching the clone
    assert clone.owned == frag.owned
    assert sorted(clone.graph.edges()) == sorted(frag.graph.edges())
    # the clone rebuilds its own CSR from its own dict graph
    snap = clone.csr()
    assert clone.csr_builds == 1
    assert snap.n == frag.csr().n
