"""Catalog and orientation tests. Box dimensions and the derived volumes are
pinned as literal oracles; orientation semantics are exercised against
hand-expanded cases."""

import json
from fractions import Fraction

import pytest

from trunkpack.catalog import (
    FULL_CATALOG,
    ORIENTATIONS,
    BoxType,
    default_catalog,
    distinct_orientations,
    half_extents,
    load_catalog,
    oriented_extents,
    save_catalog,
)


def by_id(cid):
    return next(b for b in FULL_CATALOG if b.id == cid)


def test_catalog_dimensions_and_counts():
    expected = {
        "A": ((610, 483, 229), 4),
        "B": ((457, 330, 165), 4),
        "C": ((660, 406, 229), 2),
        "D": ((533, 457, 216), 2),
        "E": ((381, 229, 203), 2),
        "F": ((533, 356, 178), 2),
        "G": ((1143, 204, 204), 2),
        "H": ((325, 152, 114), 20),
    }
    assert [b.id for b in FULL_CATALOG] == list(expected)
    for cid, (dims, count) in expected.items():
        box = by_id(cid)
        assert box.dims_mm == dims
        assert box.max_count == count


def test_catalog_volumes_exact():
    assert by_id("A").volume_mm3() == 67470270
    assert by_id("B").volume_mm3() == 24883650
    assert by_id("C").volume_mm3() == 61362840
    assert by_id("D").volume_mm3() == 52613496
    assert by_id("E").volume_mm3() == 17711547
    assert by_id("F").volume_mm3() == 33775144


def test_default_catalog_is_boxes_a_to_f():
    boxes = default_catalog()
    assert boxes == list(FULL_CATALOG[:6])
    assert [b.id for b in boxes] == ["A", "B", "C", "D", "E", "F"]
    # everything-placed bound for the default set
    assert sum(b.max_count * b.volume_mm3() for b in boxes) == 700341734
    boxes.pop()  # callers get their own list
    assert len(default_catalog()) == 6


def test_orientation_assigns_dims_to_named_axes():
    dims = (610, 483, 229)
    assert oriented_extents(dims, "xyz") == (610, 483, 229)
    assert oriented_extents(dims, "yxz") == (483, 610, 229)
    assert oriented_extents(dims, "zyx") == (229, 483, 610)
    assert oriented_extents(dims, "zxy") == (483, 229, 610)
    assert oriented_extents(dims, "yzx") == (229, 610, 483)
    assert oriented_extents(dims, "xzy") == (610, 229, 483)


def test_orientation_order_is_canonical():
    assert ORIENTATIONS == ("zyx", "zxy", "yzx", "xzy", "yxz", "xyz")


def test_orientation_rejects_bad_names():
    with pytest.raises(ValueError):
        oriented_extents((1, 2, 3), "xxy")
    with pytest.raises(ValueError):
        oriented_extents((1, 2, 3), "xy")


def test_distinct_orientations_collapse_equal_dims():
    assert len(distinct_orientations(by_id("A"))) == 6
    golf = distinct_orientations(by_id("G"))
    assert len(golf) == 3
    exts = {oriented_extents(by_id("G").dims_mm, o) for o in golf}
    assert exts == {(204, 204, 1143), (204, 1143, 204), (1143, 204, 204)}
    cube = BoxType("Q", (100, 100, 100), 1)
    assert distinct_orientations(cube) == ["zyx"]


def test_distinct_orientations_respects_allowed_subset():
    subset = distinct_orientations(by_id("A"), allowed=["xyz", "zyx"])
    assert subset == ["zyx", "xyz"]


def test_half_extents_exact():
    assert half_extents(by_id("A"), "xyz") == (305, Fraction(483, 2), Fraction(229, 2))


def test_catalog_file_round_trip(tmp_path):
    path = tmp_path / "boxes.json"
    save_catalog(FULL_CATALOG, str(path))
    loaded = load_catalog(str(path))
    assert loaded == list(FULL_CATALOG)
    raw = json.loads(path.read_text())
    assert raw[0].keys() == {"id", "dims_mm", "max_count"}
    # a phase key, once written with every box, is ignored like any other
    raw[0]["phase"] = "golf"
    path.write_text(json.dumps(raw))
    assert load_catalog(str(path)) == list(FULL_CATALOG)


@pytest.mark.parametrize("box_id", ["", "a/b", "../A", "A B", "A.json",
                                    "Ä", None, 7, True])
def test_box_ids_must_be_file_name_parts(box_id):
    # a box id names every region and log file of the box; a JSON null,
    # number or boolean is no id, not the id "None", "7" or "True"
    with pytest.raises(ValueError, match="box id"):
        BoxType.from_dict({"id": box_id, "dims_mm": [1, 2, 3],
                           "max_count": 1})


def test_box_ids_of_letters_digits_dash_and_underscore_load():
    box = BoxType.from_dict({"id": "golf_bag-2", "dims_mm": [1, 2, 3],
                             "max_count": 1})
    assert box.id == "golf_bag-2"


def test_catalog_file_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"id": "X", "dims_mm": [1, 2], "max_count": 1}]))
    with pytest.raises(ValueError):
        load_catalog(str(bad))
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps([
        {"id": "X", "dims_mm": [1, 2, 3], "max_count": 1},
        {"id": "X", "dims_mm": [4, 5, 6], "max_count": 1},
    ]))
    with pytest.raises(ValueError):
        load_catalog(str(dup))
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps(
        [{"id": "X", "dims_mm": [1, 2, 3], "max_count": -1}]))
    with pytest.raises(ValueError, match="max_count"):
        load_catalog(str(negative))


@pytest.mark.parametrize("obj, field", [
    ({"id": "X", "dims_mm": [610.7, 483, 229.9], "max_count": 2}, "dims_mm"),
    ({"id": "X", "dims_mm": [610, 483, 229], "max_count": 2.9}, "max_count"),
    ({"id": "X", "dims_mm": [True, 483, 229], "max_count": 2}, "dims_mm"),
    ({"id": "X", "dims_mm": [610, 483, 229], "max_count": False}, "max_count"),
    ({"id": "X", "dims_mm": ["610", 483, 229], "max_count": 2}, "dims_mm")])
def test_box_from_dict_rejects_non_whole_numbers(obj, field):
    # a fractional catalog must not pack boxes smaller than it states
    with pytest.raises(ValueError, match=rf"'X'.*{field}"):
        BoxType.from_dict(obj)


def test_box_from_dict_accepts_whole_floats():
    box = BoxType.from_dict({"id": "X", "dims_mm": [610.0, 483, 229],
                             "max_count": 2.0})
    assert box.dims_mm == (610, 483, 229) and box.max_count == 2
    assert all(type(v) is int for v in box.dims_mm + (box.max_count,))
