"""Exact service-rate-region analysis of linear storage codes.

The pipeline: a generator matrix over GF(q) yields the recovery sets of
size at most two, those become an edge-colored graph, and demand questions
become exact rational LPs or matching problems on that graph.
"""

from .batchpir import (
    BatchReport,
    BatchVerdict,
    PirReport,
    algorithm1,
    batch_t_max,
    demand_vectors,
    is_batch_t,
    pir_t,
)
from .codes import (
    GeneratorMatrix,
    RecoverySet,
    RecoverySetCatalog,
    enumerate_recovery_sets,
    parse_generator_matrix,
    simplex_code,
)
from .errors import GuardError
from .graphrep import (
    Bipartition,
    Edge,
    ServiceGraph,
    Vertex,
    build_graph,
    export_dot,
    is_bipartite,
)
from .lp import EQ, LE, LinearProgram, LPOutcome, feasible, solve_max
from .matching import (
    FractionalMatching,
    Matching,
    VertexCover,
    allocation_program,
    fractional_matching_number,
    fractional_matching_oracle,
    max_matching,
    min_vertex_cover,
)
from .region import (
    Allocation,
    HalfSpace,
    RegionHRep,
    capacity,
    integral_membership,
    membership,
    project_region,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GuardError",
    "GeneratorMatrix",
    "RecoverySet",
    "RecoverySetCatalog",
    "parse_generator_matrix",
    "enumerate_recovery_sets",
    "simplex_code",
    "Vertex",
    "Edge",
    "ServiceGraph",
    "Bipartition",
    "build_graph",
    "is_bipartite",
    "export_dot",
    "LinearProgram",
    "LPOutcome",
    "LE",
    "EQ",
    "solve_max",
    "feasible",
    "Matching",
    "FractionalMatching",
    "VertexCover",
    "allocation_program",
    "max_matching",
    "fractional_matching_number",
    "fractional_matching_oracle",
    "min_vertex_cover",
    "Allocation",
    "HalfSpace",
    "RegionHRep",
    "membership",
    "capacity",
    "integral_membership",
    "project_region",
    "BatchVerdict",
    "BatchReport",
    "PirReport",
    "demand_vectors",
    "is_batch_t",
    "batch_t_max",
    "pir_t",
    "algorithm1",
]
