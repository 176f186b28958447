"""Census engine for codimension-1 gradient flows on the 2-sphere.

Spherical graphs are encoded as combinatorial maps; their marked variants
enumerate the saddle-node and saddle-connection bifurcation structures, and
each class realizes to a separatrix diagram.
"""

from .combmap import CanonicalCode, CombinatorialMap, InvalidMarkError
from .generate import (EdgeCountOutOfRangeError, GenerationConfig,
                       generate_maps)
from .marks import (MarkedMap, NotReversibleError, SaddleConnectionCensus,
                    SaddleCountOutOfRangeError, SaddleNodeCensus, SinkMark,
                    SourceMark, TMark, enumerate_sink_marks,
                    enumerate_source_marks, enumerate_t_marks, flow_classes,
                    marked_map_from_code, reverse, saddle_connection_census,
                    saddle_node_census, t_connection_category)
from .realize import Separatrix, SeparatrixDiagram, SingularPoint, realize

__version__ = "0.1.0"

__all__ = [
    "CanonicalCode", "CombinatorialMap", "InvalidMarkError",
    "EdgeCountOutOfRangeError", "GenerationConfig", "generate_maps",
    "MarkedMap", "NotReversibleError", "SaddleConnectionCensus",
    "SaddleCountOutOfRangeError", "SaddleNodeCensus", "SinkMark",
    "SourceMark", "TMark", "enumerate_sink_marks", "enumerate_source_marks",
    "enumerate_t_marks", "flow_classes", "marked_map_from_code", "reverse",
    "saddle_connection_census", "saddle_node_census", "t_connection_category",
    "Separatrix", "SeparatrixDiagram", "SingularPoint", "realize",
    "__version__",
]
