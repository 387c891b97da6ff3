"""Point/plane duality in 3-space.

A point p = (a, b, c) maps to the nonvertical plane z = a*x + b*y - c and
back.  The map is an exact involution, preserves point-plane incidences and
vertical distances, and swaps the above/below relation between the two roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import DegenerateInput, DimensionMismatch, HyperplaneKey, Point, _scalar

__all__ = ["DualPlane", "point_to_plane", "plane_to_point"]


@dataclass(frozen=True)
class DualPlane:
    """The nonvertical plane z = a*x + b*y - c."""

    a: Fraction
    b: Fraction
    c: Fraction

    def z_at(self, x, y) -> Fraction:
        return self.a * _scalar(x) + self.b * _scalar(y) - self.c

    def contains(self, point: Sequence) -> bool:
        x, y, z = (_scalar(v) for v in point)
        return z == self.z_at(x, y)

    def vertical_offset(self, point: Sequence) -> Fraction:
        """Signed vertical distance from the plane up to the point."""
        x, y, z = (_scalar(v) for v in point)
        return z - self.z_at(x, y)

    @classmethod
    def from_hyperplane(cls, key: HyperplaneKey) -> "DualPlane":
        """Rewrite a canonical plane key as z = a*x + b*y - c; vertical planes
        (normal z-component zero) have no such form."""
        if len(key.normal) != 3:
            raise DimensionMismatch("duality is defined for planes in 3-space")
        nx, ny, nz = key.normal
        if nz == 0:
            raise DegenerateInput("vertical plane has no dual point")
        # nx*x + ny*y + nz*z = offset  <=>  z = -(nx/nz) x - (ny/nz) y + offset/nz
        return cls(a=Fraction(-nx, nz), b=Fraction(-ny, nz), c=Fraction(-key.offset, nz))


def point_to_plane(point: Sequence) -> DualPlane:
    """Dual of a point (a, b, c): the plane z = a*x + b*y - c."""
    if len(point) != 3:
        raise DimensionMismatch("duality is defined for points in 3-space")
    a, b, c = (_scalar(v) for v in point)
    return DualPlane(a=a, b=b, c=c)


def plane_to_point(plane: DualPlane) -> Point:
    """Dual of the plane z = a*x + b*y - c: the point (a, b, c)."""
    return (plane.a, plane.b, plane.c)
