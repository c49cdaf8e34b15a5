"""Baseline systems: vertex-centric (Giraph), GAS (GraphLab), block-centric
(Blogel) — the paper's comparison targets, recording their supersteps under
the same BSP cost rule as GRAPE so their metrics are directly comparable."""

from repro.baselines.block_centric import (BlogelEngine, BlogelResult,
                                           BlockProgram, CCBlockProgram,
                                           SSSPBlockProgram, run_vcompute)
from repro.baselines.gas import (GASEngine, GASProgram, GASResult,
                                 run_subiso_on_gas)
from repro.baselines.gas_programs import (CCGASProgram, CFGASProgram,
                                          SimGASProgram, SSSPGASProgram)
from repro.baselines.vertex_centric import (PregelEngine, PregelResult,
                                            VertexContext, VertexProgram)
from repro.baselines.vertex_programs import (CCVertexProgram,
                                             CFVertexProgram,
                                             SimVertexProgram,
                                             SSSPVertexProgram,
                                             SubIsoVertexProgram)

__all__ = [
    "PregelEngine", "PregelResult", "VertexProgram", "VertexContext",
    "SSSPVertexProgram", "CCVertexProgram", "SimVertexProgram",
    "SubIsoVertexProgram", "CFVertexProgram",
    "GASEngine", "GASProgram", "GASResult", "run_subiso_on_gas",
    "SSSPGASProgram", "CCGASProgram", "SimGASProgram", "CFGASProgram",
    "BlogelEngine", "BlogelResult", "BlockProgram", "SSSPBlockProgram",
    "CCBlockProgram", "run_vcompute",
]
