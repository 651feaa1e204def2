"""Maximum matching in graphs given as downward paths in a rooted tree.

The represented graph's edges are never materialized: adjacency between a
later and an earlier vertex reduces to an orthogonal ray-shooting query
against the segments of free vertices, which a find over the host tree
answers, so a maximum matching costs O(|T| + n log |T|) on a plain
instance with host tree T.
"""

from .core import (
    HostTree,
    InvalidInstanceError,
    Matching,
    RdvInstance,
    VertexPath,
    VertexSubtree,
    adjacency_oracle,
    bottom_up_order,
    compress_tree,
    oracle_adjacency,
    validate_instance,
)
from .geometry import (
    HSegment,
    NodeCoords,
    RayQuery,
    assign_coordinates,
    build_ray,
    build_segment,
    segment_intersects,
    segment_top_bound,
)
from .io import (
    InstanceFormatError,
    load_instance,
    parse_instance,
    save_instance,
    write_instance,
)
from .matching import (
    delayed_greedy,
    delayed_greedy_delta,
    greedy_reference,
    is_simple_vertex,
    maximum_matching_oracle,
    rayshoot_greedy,
)
from .rayshoot import DEFAULT_BACKEND, RayShootIndex, available_backends

__version__ = "0.1.0"

__all__ = [
    "HostTree",
    "InvalidInstanceError",
    "Matching",
    "RdvInstance",
    "VertexPath",
    "VertexSubtree",
    "adjacency_oracle",
    "bottom_up_order",
    "compress_tree",
    "oracle_adjacency",
    "validate_instance",
    "HSegment",
    "NodeCoords",
    "RayQuery",
    "assign_coordinates",
    "build_ray",
    "build_segment",
    "segment_intersects",
    "segment_top_bound",
    "InstanceFormatError",
    "load_instance",
    "parse_instance",
    "save_instance",
    "write_instance",
    "delayed_greedy",
    "delayed_greedy_delta",
    "greedy_reference",
    "is_simple_vertex",
    "maximum_matching_oracle",
    "rayshoot_greedy",
    "DEFAULT_BACKEND",
    "RayShootIndex",
    "available_backends",
    "__version__",
]
