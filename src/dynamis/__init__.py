"""dynamis: dynamic graph algorithms with metered work and replayable streams.

Maximal independent set maintenance (simple, incremental, two-level,
implicit), unit-capacity s-t max flow, and maximum matching, all under
update streams, with static oracles (checked in turn by the brute-force
references in ``tests/reference.py``), worst-case stream generators and a
benchmark CLI.
"""

from .errors import (
    DynamisError,
    DuplicateNeighborError,
    GeneratorParameterError,
    GraphError,
    IncompatibleStreamError,
    MissingEdgeError,
    NotFreeError,
    NotIncrementalError,
    ParallelEdgeError,
    SelfLoopError,
    StreamParseError,
    UnknownVertexError,
    VerificationFailedError,
    VertexUpdateUnsupportedError,
)
from .flow import FlowDelta, FlowNetwork, IncrementalFlow
from .generators import (
    GenSpec,
    gen_arbitrary_removal,
    gen_degree_biased,
    gen_random_edges,
    gen_random_flow,
)
from .graph import DynGraph
from .matching import DynamicMatching, IncrementalMatching, MatchDelta
from .meter import AdjustmentLog, CostMeter
from .mis import ImplicitMis, IncrementalMis, SimpleMis, TwoLevelMis
from .stream import (
    DeleteEdge,
    DeleteVertex,
    InsertEdge,
    InsertVertex,
    QueryInMis,
    UpdateEvent,
    UpdateStream,
    parse_stream,
    serialize_stream,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustmentLog",
    "CostMeter",
    "DeleteEdge",
    "DeleteVertex",
    "DuplicateNeighborError",
    "DynGraph",
    "DynamicMatching",
    "DynamisError",
    "FlowDelta",
    "FlowNetwork",
    "GenSpec",
    "GeneratorParameterError",
    "GraphError",
    "ImplicitMis",
    "IncompatibleStreamError",
    "IncrementalFlow",
    "IncrementalMatching",
    "IncrementalMis",
    "InsertEdge",
    "InsertVertex",
    "MatchDelta",
    "MissingEdgeError",
    "NotFreeError",
    "NotIncrementalError",
    "ParallelEdgeError",
    "QueryInMis",
    "SelfLoopError",
    "SimpleMis",
    "StreamParseError",
    "TwoLevelMis",
    "UnknownVertexError",
    "UpdateEvent",
    "UpdateStream",
    "VerificationFailedError",
    "VertexUpdateUnsupportedError",
    "gen_arbitrary_removal",
    "gen_degree_biased",
    "gen_random_edges",
    "gen_random_flow",
    "parse_stream",
    "serialize_stream",
]
