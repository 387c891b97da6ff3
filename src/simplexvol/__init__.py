"""Exact-arithmetic enumeration of extremal simplices in finite point sets:
all minimum-nonzero-volume tetrahedra and triangles, brute-force oracles for
k-simplices in d dimensions, target-volume and distinct-volume statistics,
and generators for the extremal constructions that realize the counts."""

from .bruteforce import (
    CountReport,
    DistinctVolumeReport,
    MinSimplexResult,
    RichLineReport,
    count_simplices_with_volume,
    distinct_volumes,
    min_volume_simplices,
    rich_lines,
    spanned_planes,
)
from .charging import (
    ChargeRecord,
    ChargingBoundExceeded,
    ChargingCheck,
    charge_tetrahedron,
    verify_charging,
)
from .constructions import (
    ConstructionOutput,
    gen_distinct_volume_lines,
    gen_lattice2d,
    gen_lattice_slab3d,
    gen_min_ksimplex_lines,
    gen_min_tetra_prism,
    gen_random_rational,
)
from .distinct import (
    CommonFaceResult,
    DistinctAreaResult,
    ProjectedSet,
    best_common_face,
    check_projection_volume_identity,
    distinct_areas_from_point,
    project_orthogonal,
)
from .duality import DualPlane, plane_to_point, point_to_plane
from .exact import (
    AllDegenerate,
    DegenerateInput,
    DimensionMismatch,
    ExactScalar,
    GeometryError,
    HyperplaneKey,
    LineKey,
    PointSet,
    hyperplane_key,
    line_key,
    plane_key,
    signed_volume,
    squared_distance_point_plane,
    squared_volume,
)
from .pointfile import (
    content_digest,
    load_point_file,
    parse_point_file,
    serialize_point_set,
    write_point_file,
)
from .reporter import (
    MinAreaReport,
    MinVolumeReport,
    PlaneSummary,
    SlabRecord,
    WitnessLimitExceeded,
    min_area_triangles,
    min_volume_tetrahedra,
)

__version__ = "0.1.0"
