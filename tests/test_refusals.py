"""Library refusals: each public routine refuses input outside its domain
with its documented exception and a message that names the fault."""

import pytest

from simplexvol import (AllDegenerate, DegenerateInput, DimensionMismatch, HyperplaneKey,
                        LineKey, PointSet, best_common_face,
                        check_projection_volume_identity, distinct_areas_from_point,
                        gen_distinct_volume_lines, gen_min_tetra_prism, gen_random_rational,
                        hyperplane_key, min_area_triangles, min_volume_simplices,
                        min_volume_tetrahedra, parse_point_file, plane_key, rich_lines,
                        spanned_planes, squared_volume)
from simplexvol.duality import DualPlane
from simplexvol.exact import integer_hyperplane_key

SQUARE = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
TETRA = PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


# (callable, arguments, exception type, a fragment of its message)
REFUSALS = [
    (min_volume_tetrahedra, (SQUARE,), DimensionMismatch, "need a 3D point set, got dim 2"),
    (min_area_triangles, (TETRA,), DimensionMismatch, "need a 2D point set, got dim 3"),
    (min_volume_simplices, (TETRA, 0), ValueError, "k must be in 1..3, got 0"),
    (rich_lines, (PointSet([(0, 0)]), 2), ValueError, "at least two points"),
    (spanned_planes, (SQUARE,), ValueError, "needs a 3D point set, got dim 2"),
    (gen_min_tetra_prism, (8, 0), ValueError, "epsilon must be positive, got 0"),
    (gen_distinct_volume_lines, (5, 0), ValueError, "dimension must be positive, got 0"),
    (gen_random_rational, (5, 2, 0, 0), ValueError, "bound must be at least 1, got 0"),
    (distinct_areas_from_point, (TETRA, 0), DimensionMismatch, "runs in the plane"),
    (distinct_areas_from_point, (SQUARE, 4), ValueError, "index 4 out of range"),
    (distinct_areas_from_point, (PointSet([(0, 0), (1, 0)]), 0), ValueError,
     "at least three points"),
    (best_common_face, (PointSet([(0, 0, 0), (1, 0, 0), (0, 1, 0)]),), AllDegenerate,
     "need at least 4 points in R^3"),
    (best_common_face, (PointSet([(0,), (1,)]), "heuristic"), DimensionMismatch,
     "needs ambient dimension >= 2"),
    (check_projection_volume_identity, (SQUARE, 0, 1, 2, 3), DimensionMismatch,
     "tetrahedra in 3-space"),
    (DualPlane.from_hyperplane, (HyperplaneKey((1, 0), 0),), DimensionMismatch,
     "planes in 3-space"),
    (PointSet, ([], 0), ValueError, "dimension must be positive, got 0"),
    (setattr, (TETRA, "dim", 2), AttributeError, "PointSet is immutable"),
    (LineKey((1, 0, 0), (0, 0, 0)).side_of, ((0, 1, 0),), DimensionMismatch,
     "lines in the plane"),
    (squared_volume, (TETRA, [0]), DimensionMismatch, "needs 2..4 vertices, got 1"),
    (integer_hyperplane_key, ((0, 0, 0), 0), DegenerateInput, "zero normal"),
    (hyperplane_key, (TETRA, [0, 1]), DimensionMismatch, "spanned by 3 points, got 2"),
    (plane_key, (SQUARE, [0, 1]), DimensionMismatch, "needs a 3D point set, got dim 2"),
    (parse_point_file, ("# no header\n",), ValueError, "missing 'dim <d>' header line"),
]


@pytest.mark.parametrize("call, args, error, fragment", REFUSALS,
                         ids=[f"{row[0].__qualname__}: {row[3]}" for row in REFUSALS])
def test_refusals_name_the_fault(call, args, error, fragment):
    with pytest.raises(error) as caught:
        call(*args)
    assert fragment in str(caught.value)
