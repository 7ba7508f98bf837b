"""Box catalog and axis-aligned orientation handling.

Boxes are rigid cuboids identified by a single letter.  All dimensions are
integer millimetres.  An orientation is one of the six axis permutations,
written as a three-letter string: the i-th letter names the world axis that
receives the box's i-th dimension, so ("yxz", dims=(610, 483, 229)) stands
the box with 483 mm along x, 610 mm along y and 229 mm along z.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

# canonical orientation order, used everywhere a deterministic sweep is needed
ORIENTATIONS = ("zyx", "zxy", "yzx", "xzy", "yxz", "xyz")

# orientation -> the box dimension that lies along world x, y and z
_DIM_ALONG_AXIS = {name: tuple(name.index(axis) for axis in "xyz")
                   for name in ORIENTATIONS}

# a box id names region and log files, so it must be a plain file-name part
_BOX_ID = re.compile(r"[A-Za-z0-9_-]+")


def _whole_number(value, box_id, field: str) -> int:
    """An int that is not a bool, or a float with no fractional part; any
    other value is an error naming the box and the field."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"box {box_id!r}: {field} value {value!r} is not "
                         f"a whole number")
    return int(value)


@dataclass(frozen=True)
class BoxType:
    """One catalog entry: a cuboid type with a per-pattern count limit."""

    id: str
    dims_mm: tuple
    max_count: int

    def volume_mm3(self) -> int:
        a, b, c = self.dims_mm
        return a * b * c

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "dims_mm": list(self.dims_mm),
            "max_count": self.max_count,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "BoxType":
        """A box from its catalog object; keys other than id, dims_mm and
        max_count are ignored."""
        box_id = obj["id"]
        if not (isinstance(box_id, str) and _BOX_ID.fullmatch(box_id)):
            raise ValueError(f"box id {box_id!r} must be a string of "
                             f"letters, digits, '_' or '-'")
        dims = tuple(_whole_number(v, box_id, "dims_mm")
                     for v in obj["dims_mm"])
        if len(dims) != 3 or any(v <= 0 for v in dims):
            raise ValueError(f"box {box_id!r}: dims_mm must be 3 positive ints")
        max_count = _whole_number(obj["max_count"], box_id, "max_count")
        if max_count < 0:
            raise ValueError(f"box {box_id!r}: max_count must be >= 0")
        return cls(id=box_id, dims_mm=dims, max_count=max_count)


# the luggage set: six everyday cases, packed by default ...
_EVERYDAY = (
    BoxType("A", (610, 483, 229), 4),
    BoxType("B", (457, 330, 165), 4),
    BoxType("C", (660, 406, 229), 2),
    BoxType("D", (533, 457, 216), 2),
    BoxType("E", (381, 229, 203), 2),
    BoxType("F", (533, 356, 178), 2),
)
# ... and a golf bag and a small parts box
FULL_CATALOG = _EVERYDAY + (
    BoxType("G", (1143, 204, 204), 2),
    BoxType("H", (325, 152, 114), 20),
)


def default_catalog() -> list:
    """The boxes packed by default: the everyday cases A through F."""
    return list(_EVERYDAY)


def load_catalog(path: str) -> list:
    """Read a catalog override: a JSON array of box objects
    ({id, dims_mm, max_count})."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError("catalog file must be a non-empty JSON array")
    boxes = [BoxType.from_dict(obj) for obj in data]
    ids = [b.id for b in boxes]
    if len(set(ids)) != len(ids):
        raise ValueError("catalog ids must be unique")
    return boxes


def save_catalog(boxes: Iterable[BoxType], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([b.as_dict() for b in boxes], fh, indent=2, sort_keys=True)
        fh.write("\n")


def oriented_extents(dims: Sequence, orientation: str) -> tuple:
    """Extent along each world axis after applying the orientation."""
    try:
        i, j, k = _DIM_ALONG_AXIS[orientation]
    except KeyError:
        raise ValueError(f"bad orientation {orientation!r}") from None
    return (dims[i], dims[j], dims[k])


def distinct_orientations(box: BoxType, allowed: Optional[Sequence[str]] = None) -> list:
    """Orientations of the box with pairwise distinct world extents.

    Equal box dimensions make some of the six permutations geometrically
    identical; only the first representative in canonical order is kept.
    """
    names = ORIENTATIONS if allowed is None else [o for o in ORIENTATIONS if o in allowed]
    seen = set()
    out = []
    for name in names:
        ext = oriented_extents(box.dims_mm, name)
        if ext not in seen:
            seen.add(ext)
            out.append(name)
    return out


def half_extents(box: BoxType, orientation: str) -> tuple:
    """Half of each oriented extent, exact."""
    return tuple(Fraction(e, 2) for e in oriented_extents(box.dims_mm, orientation))
