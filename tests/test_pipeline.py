"""End-to-end pipeline tests.

Oracles fixed up front:

* A cube trunk of edge 700 mm admits exactly one the 610 x 483 x 458 test box T:
  every orientation fits once, but two would need 916 mm along some axis.  Best packing volume = 458*483*610 = 134,940,540 mm^3 = 134.94 dm^3.
* The 12-triangle mesh cube produces 12 wall obstacles per region.  Same-face
  triangle pairs merge with growth exactly 0 (their union is the convex face
  slab), and only margin-plane facets drop (growth <= 0), so simplification
  never changes the represented free space: volume ratio is exactly 100%.
* A 50 mm cube cannot hold box T in any orientation: every region is empty.
"""

import json
import os
import shutil

import pytest

from trunkpack.catalog import ORIENTATIONS
from trunkpack.pipeline import (EXIT_EMPTY, EXIT_MALFORMED, EXIT_OK,
                                EXIT_TIMEOUT, EXIT_UNREADABLE, RunConfig,
                                RunPaths, STAGES, detect_trunk_format,
                                export_packing_obj, main, run)
from trunkpack.simplify import read_log

TEST_BOX_VOLUME_MM3 = 458 * 483 * 610


def cube_mesh_obj(edge):
    verts = [(x, y, z) for z in (0, edge) for y in (0, edge) for x in (0, edge)]
    quads = [
        (0, 2, 3, 1), (4, 5, 7, 6),            # z = 0, z = edge
        (0, 1, 5, 4), (2, 6, 7, 3),            # y = 0, y = edge
        (0, 4, 6, 2), (1, 3, 7, 5),            # x = 0, x = edge
    ]
    tris = []
    for q in quads:
        tris.append([verts[q[0]], verts[q[1]], verts[q[2]]])
        tris.append([verts[q[0]], verts[q[2]], verts[q[3]]])
    return {"triangles": tris, "seed": [edge / 2] * 3}


def convex_cube_obj(edge, cavities=()):
    obj = {"shell": {"halfspaces": [
        {"n": [-1, 0, 0], "d": 0}, {"n": [1, 0, 0], "d": edge},
        {"n": [0, -1, 0], "d": 0}, {"n": [0, 1, 0], "d": edge},
        {"n": [0, 0, -1], "d": 0}, {"n": [0, 0, 1], "d": edge}]}}
    if cavities:
        obj["cavities"] = [{"vertices": list(c)} for c in cavities]
    return obj


def box_corners(lo, hi):
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    return [(x, y, z) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)]


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def make_box_t_catalog(tmp_path):
    return write_json(tmp_path / "catalog.json",
                      [{"id": "T", "dims_mm": [610, 483, 458],
                        "max_count": 4, "phase": 1}])


def load_packing(out_dir, drop_wall_time=True):
    with open(os.path.join(out_dir, "packing.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    if drop_wall_time:
        payload["stats"].pop("wall_time_s", None)
    return payload


def artifact_map(out_dir):
    """relative path -> file bytes for everything under the run directory."""
    found = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            with open(path, "rb") as fh:
                found[rel] = fh.read()
    return found


def test_full_pipeline_mesh_cube_one_box(tmp_path):
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    out = tmp_path / "out"
    rc = run(RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                       out_dir=str(out), mc_samples=1500))
    assert rc == EXIT_OK

    paths = RunPaths(out)
    for orient in ORIENTATIONS:
        assert paths.raw("T", orient).exists()
        assert paths.feasible("T", orient).exists()
        assert paths.simplified("T", orient).exists()
        # no file is an empty marker: the box fits in every orientation
        for picker in (paths.raw, paths.feasible, paths.simplified):
            obj = json.loads(picker("T", orient).read_text())
            assert not obj.get("empty")
        # wall obstacles never bite into the free space: merges have growth
        # exactly 0 and drops at most 0
        for entry in read_log(paths.merge_log("T", orient)):
            assert entry["growth_mm3"] == 0.0
        for entry in read_log(paths.drop_log("T", orient)):
            assert entry["status"] == "dropped"
            assert entry["growth_mm"] <= 0.0

    # simplification is a set-level no-op: every volume ratio is 100.0
    csv_lines = paths.simplify_report_csv.read_text().strip().splitlines()
    data = [l.split(",") for l in csv_lines[1:]]
    region_rows = [r for r in data if r[0] == "T"]
    assert len(region_rows) == 6
    assert all(r[2] == "100.0" for r in region_rows)
    assert paths.region_report_txt.read_text().startswith("box T")

    payload = load_packing(out)
    assert len(payload["placements"]) == 1
    assert payload["placements"][0]["box"] == "T"
    assert payload["volume_mm3"] == TEST_BOX_VOLUME_MM3
    assert abs(payload["volume_dm3"] - 134.94054) < 1e-6
    assert payload["validation"]["valid"]
    assert not payload["timed_out"]


def test_enumerate_only_reproduces_full_run(tmp_path):
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    catalog = make_box_t_catalog(tmp_path)
    full_out = tmp_path / "full"
    assert run(RunConfig(trunk=trunk, catalog_path=catalog,
                         out_dir=str(full_out), mc_samples=800)) == EXIT_OK

    solo_out = tmp_path / "solo"
    shutil.copytree(full_out / "regions", solo_out / "regions")
    rc = run(RunConfig(trunk=None, catalog_path=catalog,
                       out_dir=str(solo_out), stages=("enumerate",)))
    assert rc == EXIT_OK
    assert load_packing(full_out) == load_packing(solo_out)


def test_resume_recomputes_only_deleted_stage(tmp_path):
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    out = tmp_path / "out"
    cfg = RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                    out_dir=str(out), mc_samples=800)
    assert run(cfg) == EXIT_OK
    first = load_packing(out)
    mtimes = {rel: os.stat(os.path.join(out, rel)).st_mtime_ns
              for rel in artifact_map(out)}

    os.remove(out / "packing.json")
    assert run(cfg) == EXIT_OK
    assert load_packing(out) == first
    for rel in artifact_map(out):
        if rel != "packing.json":
            assert os.stat(os.path.join(out, rel)).st_mtime_ns == mtimes[rel], \
                f"{rel} was recomputed"

    # a fully cached rerun rewrites nothing at all
    mtimes = {rel: os.stat(os.path.join(out, rel)).st_mtime_ns
              for rel in artifact_map(out)}
    assert run(cfg) == EXIT_OK
    for rel, stamp in mtimes.items():
        assert os.stat(os.path.join(out, rel)).st_mtime_ns == stamp


def test_worker_counts_yield_identical_artifacts(tmp_path):
    cavity = box_corners((0, 0, 0), (80, 80, 80))
    trunk = write_json(tmp_path / "cube.json",
                       convex_cube_obj(700, cavities=[cavity]))
    catalog = make_box_t_catalog(tmp_path)
    serial, pooled = tmp_path / "w1", tmp_path / "w3"
    assert run(RunConfig(trunk=trunk, catalog_path=catalog,
                         out_dir=str(serial), mc_samples=800,
                         workers=1)) == EXIT_OK
    assert run(RunConfig(trunk=trunk, catalog_path=catalog,
                         out_dir=str(pooled), mc_samples=800,
                         workers=3)) == EXIT_OK

    a, b = artifact_map(serial), artifact_map(pooled)
    assert set(a) == set(b)
    for rel in a:
        if rel == "packing.json":
            continue
        assert a[rel] == b[rel], f"{rel} differs between worker counts"
    assert load_packing(serial) == load_packing(pooled)


def test_exit_code_unreadable_input(tmp_path):
    rc = run(RunConfig(trunk=str(tmp_path / "missing.json"),
                       out_dir=str(tmp_path / "out")))
    assert rc == EXIT_UNREADABLE
    rc = run(RunConfig(trunk=write_json(tmp_path / "c.json",
                                        convex_cube_obj(700)),
                       catalog_path=str(tmp_path / "no-catalog.json"),
                       out_dir=str(tmp_path / "out2")))
    assert rc == EXIT_UNREADABLE


def test_exit_code_malformed_trunk(tmp_path):
    unbounded = write_json(tmp_path / "open.json",
                           {"shell": {"halfspaces": [
                               {"n": [1, 0, 0], "d": 10}]}})
    assert run(RunConfig(trunk=unbounded, trunk_format="convex-json",
                         out_dir=str(tmp_path / "o1"))) == EXIT_MALFORMED

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json {", encoding="utf-8")
    assert run(RunConfig(trunk=str(garbage), trunk_format="convex-json",
                         out_dir=str(tmp_path / "o2"))) == EXIT_MALFORMED


def test_exit_code_unbounded_region_file(tmp_path, capsys):
    # valid JSON, but the stored hull is a single halfspace: decoding it
    # fails the boundedness check, which is an unreadable region file
    regions = tmp_path / "out" / "regions"
    regions.mkdir(parents=True)
    write_json(regions / "simplified_T_xyz.json",
               {"box": "T", "orientation": "xyz", "fattened": False,
                "hull": {"halfspaces": [{"n": [1, 0, 0], "d": 10}]},
                "obstacles": []})
    rc = main(["--catalog", make_box_t_catalog(tmp_path),
               "--orientations", "xyz", "--stages", "enumerate",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_UNREADABLE
    err = capsys.readouterr().err
    assert "unbounded" in err and "Traceback" not in err


def test_exit_code_curved_hull_lattice_overflow(tmp_path, capsys):
    # an eroded curved hull has rational vertices too fine for the int64
    # sampling lattice; describe reports it as exit 11, not a traceback
    trunk = os.path.join(os.path.dirname(__file__), "data",
                         "curved_hull_trunk.json")
    catalog = write_json(tmp_path / "catalog.json",
                         [{"id": "E", "dims_mm": [381, 229, 203],
                           "max_count": 4}])
    rc = main(["--trunk", trunk, "--trunk-format", "convex-json",
               "--catalog", catalog, "--orientations", "xyz",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflow int64" in err


def test_exit_code_empty_free_space(tmp_path):
    trunk = write_json(tmp_path / "tiny.json", convex_cube_obj(50))
    out = tmp_path / "out"
    cfg = RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                    out_dir=str(out), mc_samples=300)
    assert run(cfg) == EXIT_EMPTY
    paths = RunPaths(out)
    for orient in ORIENTATIONS:
        assert json.loads(paths.feasible("T", orient).read_text())["empty"]
    assert not paths.packing.exists()
    # idempotent: the cached rerun reports the same condition
    assert run(cfg) == EXIT_EMPTY


def test_exit_code_timeout_writes_empty_packing(tmp_path):
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    out = tmp_path / "out"
    cfg = RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                    out_dir=str(out), mc_samples=300, time_limit_s=1e-9)
    assert run(cfg) == EXIT_TIMEOUT
    payload = load_packing(out)
    assert payload["placements"] == []
    assert payload["timed_out"]

    # the timed-out empty packing is not treated as a cache hit: a rerun
    # without the limit retries the search and succeeds
    cfg2 = RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                     out_dir=str(out), mc_samples=300)
    assert run(cfg2) == EXIT_OK
    assert load_packing(out)["volume_mm3"] == TEST_BOX_VOLUME_MM3


def test_obj_export_lists_trunk_and_boxes(tmp_path):
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    out = tmp_path / "out"
    obj_path = tmp_path / "scene.obj"
    rc = run(RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                       out_dir=str(out), mc_samples=300,
                       export_obj=str(obj_path)))
    assert rc == EXIT_OK
    lines = obj_path.read_text().splitlines()
    groups = [l for l in lines if l.startswith("g ")]
    assert groups[0] == "g trunk"
    assert len(groups) == 2 and groups[1].startswith("g box_0_T_")
    assert sum(1 for l in lines if l.startswith("v ")) == 16   # 8 hull + 8 box
    assert sum(1 for l in lines if l.startswith("f ")) == 18   # 12 tris + 6 quads


def test_cli_flags_drive_a_full_run(tmp_path):
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    out = tmp_path / "out"
    rc = main(["--trunk", trunk, "--catalog", make_box_t_catalog(tmp_path),
               "--out", str(out), "--mc-samples", "300",
               "--orientations", "zyx,xyz", "--workers", "2",
               "--merge-rel", "10", "--merge-abs", "10000",
               "--drop-growth", "1", "--rng-seed", "7",
               "--stages", "freespace,describe,simplify,enumerate",
               "--trunk-format", "convex-json"])
    assert rc == EXIT_OK
    payload = load_packing(out)
    assert payload["volume_mm3"] == TEST_BOX_VOLUME_MM3
    # the orientation filter restricted the region files
    names = os.listdir(out / "regions")
    assert sorted(names) == ["feasible_T_xyz.json", "feasible_T_zyx.json",
                             "raw_T_xyz.json", "raw_T_zyx.json",
                             "simplified_T_xyz.json", "simplified_T_zyx.json"]


def test_cli_rejects_bad_usage(tmp_path):
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    assert main(["--trunk", trunk, "--stages", "freespace,enumerate",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["--trunk", trunk, "--stages", "nonsense",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["--trunk", trunk, "--workers", "0",
                 "--out", str(tmp_path / "o")]) == 2


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(stages=("describe", "freespace"))
    with pytest.raises(ValueError):
        RunConfig(stages=("freespace", "simplify"))
    with pytest.raises(ValueError):
        RunConfig(stages=())
    with pytest.raises(ValueError):
        RunConfig(workers=0)
    with pytest.raises(ValueError):
        RunConfig(orientations=("zyx", "abc"))
    with pytest.raises(ValueError):
        RunConfig(trunk_format="step")
    with pytest.raises(ValueError):
        RunConfig(mc_samples=0)
    assert RunConfig(stages=("describe", "simplify")).stages == \
        ("describe", "simplify")
    assert RunConfig().stages == STAGES


def test_detect_trunk_format(tmp_path):
    stl = tmp_path / "model.stl"
    stl.write_text("solid cube\nendsolid", encoding="utf-8")
    assert detect_trunk_format(str(stl)) == "stl"

    renamed = tmp_path / "model.txt"
    renamed.write_text("solid cube\nendsolid", encoding="utf-8")
    assert detect_trunk_format(str(renamed)) == "stl"

    convex = tmp_path / "convex.json"
    write_json(convex, convex_cube_obj(10))
    assert detect_trunk_format(str(convex)) == "convex-json"

    mesh = tmp_path / "mesh.json"
    write_json(mesh, cube_mesh_obj(10))
    assert detect_trunk_format(str(mesh)) == "mesh-json"


def test_export_obj_without_trunk(tmp_path):
    path = tmp_path / "empty.obj"
    export_packing_obj(str(path), [], trunk=None)
    assert path.read_text().startswith("# packing export")
