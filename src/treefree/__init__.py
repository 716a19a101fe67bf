"""Verification toolkit for forbidden-tree characterizations of girth-5 graphs."""

from .core import (
    Graph,
    GraphStats,
    build,
    contract_edge,
    diameter,
    distance,
    induced,
    is_c3c4_free,
    stats,
)
from .embed import find_induced, is_free, is_isomorphic
from .graphio import Report, emit_dot, emit_graph6, parse_graph6, stream_corpus

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphStats",
    "Report",
    "build",
    "contract_edge",
    "diameter",
    "distance",
    "emit_dot",
    "emit_graph6",
    "find_induced",
    "induced",
    "is_c3c4_free",
    "is_free",
    "is_isomorphic",
    "parse_graph6",
    "stats",
    "stream_corpus",
    "__version__",
]
