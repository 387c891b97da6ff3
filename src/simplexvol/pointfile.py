"""Flat-file format for exact point sets.

A point file is plain text: a header line ``dim <d>``, then one point per
line as d whitespace-separated rationals, each written ``int``,
``int/int`` or a plain decimal; a decimal exponent such as ``1e3`` is
refused.  Lines starting with ``#`` are comments and blank lines are
ignored.  Parse followed by serialize is the identity up to whitespace
normalization, and values are never rounded.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable

from .exact import PointSet, _scalar

__all__ = [
    "parse_point_file",
    "serialize_point_set",
    "load_point_file",
    "write_point_file",
    "content_digest",
]


def parse_point_file(text: str, allow_duplicates: bool = False) -> PointSet:
    dim = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise ValueError(f"line {lineno}: expected header 'dim <d>', got {line!r}")
            try:
                dim = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: dimension {parts[1]!r} is not an integer")
            if dim < 1:
                raise ValueError(f"line {lineno}: dimension must be positive, got {dim}")
            continue
        parts = line.split()
        if len(parts) != dim:
            raise ValueError(
                f"line {lineno}: expected {dim} coordinates, got {len(parts)}")
        try:
            rows.append(tuple(map(_scalar, parts)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad rational value ({exc})")
    if dim is None:
        raise ValueError("missing 'dim <d>' header line")
    return PointSet(rows, dim=dim, allow_duplicates=allow_duplicates)


def serialize_point_set(ps: PointSet, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"dim {ps.dim}")
    for pt in ps.points:
        lines.append(" ".join(map(str, pt)))  # "p/q", or "p" when the denominator is 1
    return "\n".join(lines) + "\n"


def load_point_file(path: str | Path, allow_duplicates: bool = False) -> PointSet:
    return parse_point_file(Path(path).read_text(), allow_duplicates=allow_duplicates)


def write_point_file(path: str | Path, ps: PointSet, comments: Iterable[str] = ()) -> None:
    Path(path).write_text(serialize_point_set(ps, comments))


def content_digest(ps: PointSet) -> str:
    """SHA-256 of the canonical (comment-free) serialization; identifies the
    exact content independently of formatting."""
    canonical = serialize_point_set(ps)
    return hashlib.sha256(canonical.encode()).hexdigest()
