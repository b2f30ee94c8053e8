"""Structure-preserving retrieval over standards documents.

The package compiles intermediate document JSON into a typed graph,
indexes the graph by two-level structural entropy minimization, and
answers queries through routed retrieval that returns provenance-backed
evidence records. All model access goes through pluggable clients with
deterministic offline fallbacks, so every result is reproducible without
network access.
"""

from .doc_model import load_document
from .errors import SemragError
from .pipeline import PipelineConfig, build_bundle, load_bundle, make_engine
from .query_engine import QueryEngine, Route

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "QueryEngine",
    "Route",
    "SemragError",
    "build_bundle",
    "load_bundle",
    "load_document",
    "make_engine",
]
