"""The paper's evaluation claims, checked in exact counts.

Fan et al. (SIGMOD 2017) claim that GRAPE ships a few percent of the
bytes Giraph and GraphLab ship (Fig. 8), needs far fewer supersteps
(Table 1), stays ahead as |G| grows (Fig. 9), that IncEval and the
sequential optimisations it inherits cut work (Fig. 7), and that a
locality-aware choice from its partition menu ships less (Section 6).
GRAPE and the Pregel, GAS and Blogel engines count supersteps, bytes and
messages under one rule (:class:`repro.runtime.metrics.RunMetrics`), so
each claim is a ratio of counts.  Each entry of :data:`ROWS` names a
claim, the paper's number and how the ledger reads it; its measure
drives the engines directly and checks every answer against
:mod:`repro.sequential`.  A row's ``shape`` (GRAPE ahead at all) is
asserted by tier-1 at ``smoke`` size; the paper's number is judged at
``full`` size, where a claim about parallel GRAPE holds only when its
largest fragment is at most 2/n of |V|.  Wall time is reported, never
judged: the Fig. 6 speedups and Fig. 9 scale-out timings need more than
the 2 cores the committed run had (ROADMAP item D(iv)).

    python benchmarks/paper_claims.py --size smoke  # half a second
    python benchmarks/paper_claims.py               # 15 min, 0.7 GB

The full-size run rewrites ``results/PAPER_CLAIMS.json``.  Every engine
places vertices by ``stable_hash``, so no count depends on
``PYTHONHASHSEED``.
"""

import argparse
import json
import math
import pathlib
import resource
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines import (BlogelEngine, CCBlockProgram, CCGASProgram,
                             CCVertexProgram, CFGASProgram, CFVertexProgram,
                             GASEngine, PregelEngine, SimGASProgram,
                             SimVertexProgram, SSSPBlockProgram,
                             SSSPGASProgram, SSSPVertexProgram,
                             SubIsoVertexProgram, run_subiso_on_gas,
                             run_vcompute)
from repro.core.engine import GrapeEngine
from repro.graph.generators import grid_road_graph, labeled_graph
from repro.optim.indexing import IndexedSimCandidates, NeighborhoodIndex
from repro.partition.base import cut_edges
from repro.partition.strategies import (HashPartition, MetisLikePartition,
                                        RangePartition, StreamingPartition)
from repro.pie_programs import (CCProgram, CFProgram, CFQuery, SimProgram,
                                SSSPProgram, SubIsoProgram)
from repro.sequential import (FactorModel, canonical_match,
                              connected_components, extract_ratings,
                              maximum_simulation, rmse, sssp_distances,
                              vf2_all_matches)
from repro.workloads import (generate_patterns, knowledge_like, ratings_like,
                             sample_sources, social_like)

RESULTS = pathlib.Path(__file__).parent / "results" / "PAPER_CLAIMS.json"

# The one size switch.  At "full" the road grid and the power-law graph
# have >= 50k nodes, the knowledge graph 37.5k and the Fig. 9 graphs 10k
# to 50k; CF runs on the largest ratings graph (16.6k nodes) whose four
# runs fit in two minutes on a 2-core host.
SIZES = {
    "smoke": dict(road_side=12, powerlaw_scale=0.05, ratings_scale=0.05,
                  growth_nodes=(50, 100), workers=4, table1_workers=8,
                  sources=2, patterns=1),
    "full": dict(road_side=224, powerlaw_scale=12.5, ratings_scale=32.0,
                 growth_nodes=(10_000, 20_000, 30_000, 40_000, 50_000),
                 workers=8, table1_workers=24, sources=2, patterns=3),
}
SYSTEMS = ("grape", "pregel", "gas", "blogel")
BASES = ("pregel", "gas")            # the systems the paper's ratios divide by
PATTERNS = {"sim": (4, 6), "subiso": (4, 5)}   # pattern (|V_Q|, |E_Q|)
CF_QUERY = CFQuery(num_factors=6, max_epochs=4, learning_rate=0.05, seed=1)
# picks the SSSP sources and the Sim / SubIso patterns; fixed, so no
# source is re-picked to improve a ratio
SEED = 1

# per query class: GRAPE's PIE program, then Pregel's, GAS's and Blogel's
PROGRAMS = {
    "sssp": (SSSPProgram, SSSPVertexProgram, SSSPGASProgram,
             SSSPBlockProgram),
    "cc": (CCProgram, CCVertexProgram, CCGASProgram, CCBlockProgram),
    "sim": (SimProgram, SimVertexProgram, SimGASProgram, SimVertexProgram),
    "subiso": (SubIsoProgram, SubIsoVertexProgram, None,
               SubIsoVertexProgram),
    "cf": (CFProgram, CFVertexProgram, CFGASProgram, CFVertexProgram),
}


@dataclass
class Counts:
    """One system's cost over a query batch."""

    supersteps: int = 0
    comm_bytes: int = 0
    comm_messages: int = 0
    wall_s: float = 0.0
    #: GRAPE: the largest fragment's share of |V|
    largest_fragment: Optional[float] = None

    def add(self, metrics, wall_s: float) -> None:
        self.supersteps += metrics.supersteps
        self.comm_bytes += metrics.comm_bytes
        self.comm_messages += metrics.comm_messages
        self.wall_s += wall_s


#: Section 6's partition menu less the retired 2-D grid; the others
#: are read against hash
STRATEGIES = (HashPartition, RangePartition, StreamingPartition,
              MetisLikePartition)


def grape_engine(workers: int, partition=None, **fields) -> GrapeEngine:
    # Serial: the counts do not depend on the backend, and the baselines
    # run in-process too, so the reported wall times compare.
    return GrapeEngine(workers, partition=partition or MetisLikePartition(),
                       backend="serial", **fields)


def _largest(fragmentation, graph) -> float:
    return round(max(len(f.owned) for f in fragmentation)
                 / graph.num_nodes, 4)


def _balanced(grape: Counts, workers: int) -> bool:
    # GRAPE's counts speak for a parallel run only when no fragment holds
    # more than twice the balanced share 1/n of |V|
    return grape.largest_fragment <= 2 / workers


def _batch(run: Callable[[Any], Any], queries) -> Tuple[Counts, List[Any]]:
    counts, answers = Counts(), []
    for query in queries:
        start = time.perf_counter()
        result = run(query)
        counts.add(result.metrics, time.perf_counter() - start)
        answers.append(result.answer)
    return counts, answers


def grape_batch(engine: GrapeEngine, program: Callable[[], Any], graph,
                queries) -> Tuple[Counts, List[Any], Any]:
    """GRAPE over a batch on one fragmentation, partitioned once."""
    fragmentation = engine.make_fragmentation(graph)
    counts, answers = _batch(lambda q: engine.run(
        program(), q, fragmentation=fragmentation), queries)
    counts.largest_fragment = _largest(fragmentation, graph)
    return counts, answers, fragmentation


def run_system(system: str, qclass: str, graph, queries,
               workers: int) -> Tuple[Counts, List[Any]]:
    """Run a query batch of one class on one system, partitioned once."""
    grape, pregel, gas, blogel = PROGRAMS[qclass]
    if system == "grape":
        return grape_batch(grape_engine(workers), grape, graph, queries)[:2]
    if system == "pregel":
        engine = PregelEngine(workers)
        return _batch(lambda q: engine.run(pregel(), graph, query=q), queries)
    if system == "gas":
        if gas is None:  # GAS cannot expand partial matches
            return _batch(lambda q: run_subiso_on_gas(graph, q, workers),
                          queries)
        engine = GASEngine(workers)
        return _batch(lambda q: engine.run(gas(), graph, query=q), queries)
    if qclass in ("sssp", "cc"):
        # Blogel's CC partition aligns blocks with components at load
        # time, uncharged, as in the paper.
        engine = BlogelEngine(workers, precompute_cc=qclass == "cc")
        fragmentation = engine.make_fragmentation(graph)
        return _batch(lambda q: engine.run(blogel(), graph, query=q,
                                           fragmentation=fragmentation),
                      queries)
    return _batch(lambda q: run_vcompute(blogel(), graph, q, workers), queries)


def _finite(dist) -> Dict[Any, float]:
    return {v: d for v, d in dist.items() if d != math.inf}


def oracle(qclass: str, graph, query):
    """The sequential answer, in the form :func:`check_answer` takes."""
    if qclass == "sssp":
        return _finite(sssp_distances(graph, query))
    if qclass == "cc":
        blocks: Dict[Any, set] = {}
        for v, cid in connected_components(graph).items():
            blocks.setdefault(cid, set()).add(v)
        return set(map(frozenset, blocks.values()))
    if qclass == "sim":
        return maximum_simulation(query, graph)
    if qclass == "subiso":
        return {canonical_match(m) for m in vf2_all_matches(query, graph)}
    # CF has no unique answer: a model must cover every rated node and fit
    # the ratings better than the untrained one
    ratings = extract_ratings(graph)
    return ratings, rmse(ratings, FactorModel(query.num_factors,
                                              seed=query.seed))


def check_answer(qclass: str, answer, truth) -> None:
    """Raise AssertionError unless ``answer`` is the sequential one."""
    if qclass == "sssp":
        got = _finite(answer)
        assert got.keys() == truth.keys(), "SSSP reached other nodes"
        assert all(math.isclose(got[v], d, rel_tol=1e-9)
                   for v, d in truth.items()), "SSSP distances differ"
    elif qclass == "cc":
        assert set(map(frozenset, answer.values())) == truth, \
            "CC components differ"
    elif qclass == "subiso":
        assert {canonical_match(m) for m in answer} == truth, \
            "SubIso matches differ"
    elif qclass == "sim":
        assert answer == truth, "Sim differs"
    else:
        ratings, untrained = truth
        model = FactorModel()
        model.factors = dict(answer)
        assert {v for r in ratings for v in r[:2]} <= model.factors.keys(), \
            "CF lost rated nodes"
        assert rmse(ratings, model) < untrained, "CF did not fit"


class Inputs:
    """The graphs and queries of one ledger run, each graph built once."""

    def __init__(self, size: str):
        self.p = SIZES[size]
        self._graphs: Dict[str, Any] = {}

    def graph(self, name: str):
        if name not in self._graphs:
            side, scale = self.p["road_side"], self.p["powerlaw_scale"]
            self._graphs[name] = {
                "road": lambda: grid_road_graph(side, side, seed=7),
                "powerlaw": lambda: social_like(scale=scale),   # labelled
                "knowledge": lambda: knowledge_like(scale=scale),
                "ratings": lambda: ratings_like(
                    scale=self.p["ratings_scale"])[0],
            }[name]()
        return self._graphs[name]

    def queries(self, qclass: str, graph) -> list:
        if qclass == "sssp":
            return sample_sources(graph, self.p["sources"], seed=SEED)
        if qclass in PATTERNS:
            return generate_patterns(graph, self.p["patterns"],
                                     *PATTERNS[qclass], seed=SEED)
        return [None] if qclass == "cc" else [CF_QUERY]


def _ratio(a: float, b: float) -> float:
    return round(a / b, 6) if b else math.inf


def _row(graph, queries, workers: int, **fields) -> Dict[str, Any]:
    return dict(inputs={"nodes": graph.num_nodes, "edges": graph.num_edges,
                        "workers": workers, "queries": len(queries)},
                **fields)


def versus(qclass: str, graph, queries, workers: int) -> Dict[str, Any]:
    """All four systems on one batch, every answer checked.  An SSSP row
    records its reach: the share of |V| at a finite distance from each
    source, the region its ratio covers."""
    row = _row(graph, queries, workers, systems={})
    truths = [oracle(qclass, graph, query) for query in queries]
    for system in SYSTEMS:
        counts, answers = run_system(system, qclass, graph, queries, workers)
        for answer, truth in zip(answers, truths):
            check_answer(qclass, answer, truth)
        row["systems"][system] = counts
    row["balanced"] = _balanced(row["systems"]["grape"], workers)
    if qclass == "sssp":
        row["reach"] = [round(len(t) / graph.num_nodes, 4) for t in truths]
    return row


def share(inputs: Inputs, qclass: str, graph_name: str, metric: str,
          bound: float, workers: str = "workers"):
    """GRAPE's ``metric`` over Pregel's and over GAS's; the claim holds
    when both are at most ``bound``."""
    graph = inputs.graph(graph_name)
    row = versus(qclass, graph, inputs.queries(qclass, graph),
                 inputs.p[workers])
    grape = getattr(row["systems"]["grape"], metric)
    row["value"] = {b: _ratio(grape, getattr(row["systems"][b], metric))
                    for b in BASES}
    worst = max(row["value"].values())
    return dict(row, shape=worst < 1,
                holds=row["balanced"] and worst <= bound)


def growth(inputs: Inputs, qclass: str):
    """Fig. 9: every system's comm and supersteps as |G| grows."""
    steps = []
    for i, nodes in enumerate(inputs.p["growth_nodes"]):
        graph = labeled_graph(nodes, 4 * nodes, num_labels=50, seed=40 + i)
        step = versus(qclass, graph, [0] if qclass == "sssp" else [None],
                      inputs.p["workers"])
        grape = step["systems"]["grape"]
        step["ahead"] = all(
            grape.comm_bytes < step["systems"][b].comm_bytes
            and grape.supersteps <= step["systems"][b].supersteps
            for b in BASES)
        steps.append(step)
    ahead = all(step["ahead"] for step in steps)
    return {"steps": steps, "shape": ahead,
            "holds": ahead and all(step["balanced"] for step in steps),
            "value": [_ratio(s["systems"]["grape"].comm_bytes,
                             s["systems"]["pregel"].comm_bytes)
                      for s in steps]}


class CountedSim(SimProgram):
    """Sim counting the (query node, data node) pairs it visits: every
    candidate a PEval starts from, and every pair an IncEval removes."""

    visited = 0

    def _initial_candidates(self, query, fragment, state):
        candidates = super()._initial_candidates(query, fragment, state)
        self.visited += sum(map(len, candidates.values()))
        return candidates

    def inceval(self, query, fragment, state, message):
        before = sum(map(len, state.sim.values()))
        super().inceval(query, fragment, state, message)
        self.visited += before - sum(map(len, state.sim.values()))


def counted_sim(graph, patterns, truths, engine, **program) -> Dict[str, Any]:
    """GRAPE Sim over a batch, with the pairs :class:`CountedSim` visits."""
    sim = CountedSim(**program)
    counts, answers, _ = grape_batch(engine, lambda: sim, graph, patterns)
    for answer, truth in zip(answers, truths):
        check_answer("sim", answer, truth)
    return {"counts": counts, "pairs_visited": sim.visited}


def inceval_work(inputs: Inputs):
    """Fig. 7(a): pairs GRAPE-NI visits over GRAPE's, on Sim."""
    graph, workers = inputs.graph("powerlaw"), inputs.p["workers"]
    patterns = inputs.queries("sim", graph)
    truths = [oracle("sim", graph, p) for p in patterns]
    grape = counted_sim(graph, patterns, truths, grape_engine(workers))
    ni = counted_sim(graph, patterns, truths,
                     grape_engine(workers, incremental=False))
    value = _ratio(ni["pairs_visited"], grape["pairs_visited"])
    balanced = _balanced(grape["counts"], workers)
    return _row(graph, patterns, workers, value=value, balanced=balanced,
                systems={"grape": grape, "grape-ni": ni},
                shape=value > 1, holds=balanced and value >= 2.1)


def index_gain(inputs: Inputs):
    """Fig. 7(b): Sim candidates without the neighbourhood index over
    with it, sequentially and summed over GRAPE's PEvals."""
    graph, workers = inputs.graph("powerlaw"), inputs.p["workers"]
    patterns = inputs.queries("sim", graph)
    labels = [graph.node_label(v) for v in graph.nodes()]
    index = NeighborhoodIndex(graph)
    plain = sum(labels.count(p.node_label(u))
                for p in patterns for u in p.nodes())
    indexed = sum(len(c) for p in patterns
                  for c in index.candidates(p).values())
    truths = [oracle("sim", graph, p) for p in patterns]
    engine = grape_engine(workers)
    grape = counted_sim(graph, patterns, truths, engine)
    grape_indexed = counted_sim(graph, patterns, truths, engine,
                                candidate_index=IndexedSimCandidates())
    value = {"sequential": _ratio(plain, indexed),
             "grape": _ratio(grape["pairs_visited"],
                             grape_indexed["pairs_visited"])}
    balanced = _balanced(grape["counts"], workers)
    return _row(graph, patterns, workers, value=value, balanced=balanced,
                sequential={"plain": plain, "indexed": indexed},
                systems={"grape": grape, "grape-indexed": grape_indexed},
                shape=min(value.values()) > 1,
                holds=balanced and value["grape"] >= value["sequential"] / 2)


def partition_menu(inputs: Inputs):
    """Section 6: per strategy, the cut edges, GRAPE's SSSP bytes and the
    largest fragment, on the road grid and the power-law graph; value:
    each strategy's bytes over hash's."""
    workers, graphs, menus = inputs.p["workers"], {}, {}
    for name in ("road", "powerlaw"):
        graph = inputs.graph(name)
        sources = inputs.queries("sssp", graph)
        truths = [oracle("sssp", graph, s) for s in sources]
        menus[name] = menu = {}
        for strategy in STRATEGIES:
            counts, answers, fragmentation = grape_batch(
                grape_engine(workers, strategy()), SSSPProgram, graph,
                sources)
            for answer, truth in zip(answers, truths):
                check_answer("sssp", answer, truth)
            owner = fragmentation.gp.owner
            menu[strategy.name] = dict(
                cut_edges=cut_edges(graph, {v: owner(v)
                                            for v in graph.nodes()}),
                grape=counts, balanced=_balanced(counts, workers))
        graphs[name] = _row(graph, sources, workers, strategies=menu)
    ahead = {name: menu["metis"]["cut_edges"] < menu["hash"]["cut_edges"]
             and menu["streaming"]["cut_edges"] < menu["hash"]["cut_edges"]
             and menu["metis"]["grape"].comm_bytes
             < menu["hash"]["grape"].comm_bytes
             for name, menu in menus.items()}
    balanced = all(menu[s]["balanced"] for menu in menus.values()
                   for s in ("hash", "streaming", "metis"))
    value = {name: {s: _ratio(menu[s]["grape"].comm_bytes,
                              menu["hash"]["grape"].comm_bytes)
                    for s in menu} for name, menu in menus.items()}
    return dict(graphs=graphs, value=value, balanced=balanced,
                shape=ahead["road"], holds=balanced and all(ahead.values()))


@dataclass(frozen=True)
class Row:
    id: str
    figure: str
    paper: str      # the paper's claim and number
    reading: str    # what the ledger counts, and when the claim holds
    measure: Callable[[Inputs], Dict[str, Any]]


_GROWTH = ("|G| grows from (10M, 40M) to (50M, 200M), 50 labels: GRAPE "
           "stays ahead of Giraph and GraphLab")
ROWS = tuple(
    Row(f"fig8-{qclass}-{graph}", "Fig. 8",
        "GRAPE ships a few percent of the data Giraph and GraphLab ship",
        "GRAPE's comm bytes over Pregel's and over GAS's; holds when both "
        "are <= 5%", partial(share, qclass=qclass, graph_name=graph,
                             metric="comm_bytes", bound=0.05))
    for qclass, graph in (("sssp", "road"), ("sssp", "powerlaw"),
                          ("cc", "road"), ("cc", "powerlaw"),
                          ("sim", "powerlaw"), ("sim", "knowledge"),
                          ("subiso", "powerlaw"), ("subiso", "knowledge"),
                          ("cf", "ratings"))
) + (
    Row("table1-sssp-road", "Table 1",
        "SSSP on the US road network, 24 workers: GRAPE ahead of Giraph "
        "and GraphLab by orders of magnitude",
        "GRAPE's supersteps over Pregel's and over GAS's; holds when both "
        "are <= 0.1", partial(share, qclass="sssp", graph_name="road",
                              metric="supersteps", bound=0.1,
                              workers="table1_workers")),
    Row("fig9-sssp", "Fig. 9", _GROWTH,
        "at every size GRAPE ships fewer bytes than Pregel and GAS and "
        "needs no more supersteps; value: GRAPE's bytes over Pregel's "
        "per size", partial(growth, qclass="sssp")),
    Row("fig9-cc", "Fig. 9", _GROWTH, "as fig9-sssp, for CC",
        partial(growth, qclass="cc")),
    Row("fig7a-sim-inceval", "Fig. 7(a)",
        "GRAPE is 2.1-3.4x faster than GRAPE-NI, which re-runs PEval each "
        "round", "(query node, data node) pairs GRAPE-NI visits over "
        "GRAPE's: PEval candidates plus pairs IncEval removes; holds when "
        ">= 2.1", inceval_work),
    Row("fig7b-sim-index", "Fig. 7(b)",
        "the neighbourhood index makes sequential Sim 2.7x faster, and "
        "GRAPE keeps a similar gain",
        "Sim candidates without the index over with it, sequentially and "
        "summed over GRAPE's PEvals; holds when GRAPE keeps >= half the "
        "sequential gain", index_gain),
    Row("sec6-partition", "Section 6",
        "GRAPE takes any partition strategy from a menu (hash, 1-D range, "
        "2-D grid, streaming, METIS); a better cut means fewer border "
        "updates cross fragments",
        "per strategy: cut edges, GRAPE's SSSP comm bytes and largest "
        "fragment on the road grid and the power-law graph; holds when "
        "on both Metis and streaming cut fewer edges than hash, Metis "
        "ships fewer bytes, and all three are balanced", partition_menu),
)


VERDICTS = {True: "holds", False: "does not hold at this size"}


def run(size: str = "full") -> List[Dict[str, Any]]:
    """Measure every row; raises AssertionError on a wrong answer."""
    inputs, out = Inputs(size), []
    for row in ROWS:
        start = time.perf_counter()
        measured = row.measure(inputs)
        holds = measured.pop("holds")
        out.append(dict(id=row.id, figure=row.figure, paper=row.paper,
                        reading=row.reading, verdict=VERDICTS[holds],
                        **measured,
                        wall_s=round(time.perf_counter() - start, 3)))
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    rows = run(args.size)
    for row in rows:
        print(f"{row['id']:<22} {row['verdict']:<27} "
              f"{json.dumps(row['value'])}  {row['wall_s']:.1f} s")
    if args.size == "full":
        sys.path.insert(0, str(pathlib.Path(__file__).parent / "e2e"))
        from hostclock import host_fingerprint
        RESULTS.write_text(json.dumps({
            "size": args.size, "seed": SEED, "sizes": SIZES["full"],
            "host": host_fingerprint(),
            "wall_s": round(time.perf_counter() - start, 1),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss // 1024,
            "rows": rows}, indent=1, default=asdict) + "\n",
            encoding="utf-8")
        print(f"wrote {RESULTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
