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

import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from trunkpack import freespace, pipeline, simplify
from trunkpack.catalog import ORIENTATIONS, load_catalog
from trunkpack.geometry import GeometryError, Halfspace, _polytope_from_rows
from trunkpack.pipeline import (EXIT_EMPTY, EXIT_MALFORMED, EXIT_OK,
                                EXIT_TIMEOUT, EXIT_UNREADABLE, RunConfig,
                                RunPaths, STAGES, detect_trunk_format,
                                export_packing_obj, main, run)
from trunkpack.lp import NumericalFailure
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


def subdivided_cube_mesh_obj(edge, cells):
    """cube_mesh_obj with every face cut into cells x cells squares, so the
    mesh has corners inside the faces of its hull."""
    step = edge // cells
    tris = []
    for axis in range(3):
        u, v = [k for k in range(3) if k != axis]
        for side in (0, edge):
            def at(i, j):
                p = [0, 0, 0]
                p[axis], p[u], p[v] = side, i * step, j * step
                return p
            for i in range(cells):
                for j in range(cells):
                    tris.append([at(i, j), at(i + 1, j), at(i + 1, j + 1)])
                    tris.append([at(i, j), at(i + 1, j + 1), at(i, j + 1)])
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


def artifact_digest(out_dir):
    """SHA-256 over the sorted (path, bytes) of every region file, log and
    report, plus packing.json without its wall time."""
    found = artifact_map(out_dir)
    found["packing.json"] = json.dumps(load_packing(out_dir),
                                       sort_keys=True).encode()
    digest = hashlib.sha256()
    for rel in sorted(found):
        data = found[rel]
        digest.update(f"{rel.replace(os.sep, '/')}\0{len(data)}\0".encode()
                      + data)
    return digest.hexdigest()


def test_full_pipeline_mesh_cube_one_box(tmp_path):
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    out = tmp_path / "out"
    rc = run(RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                       out_dir=str(out), mc_samples=1500))
    assert rc == EXIT_OK

    paths = RunPaths(out)
    for orient in ORIENTATIONS:
        for kind in ("raw", "feasible", "simplified"):
            path = paths.region(kind, "T", orient)
            assert path.exists()
            # no file is an empty marker: the box fits in every orientation
            assert not json.loads(path.read_text()).get("empty")
        # wall obstacles never bite into the free space: merges have growth
        # exactly 0 and drops at most 0
        for entry in read_log(paths.log("merge", "T", orient)):
            assert entry["growth_mm3"] == 0.0
        for entry in read_log(paths.log("drop", "T", orient)):
            assert entry["status"] == "dropped"
            assert entry["growth_mm"] <= 0.0

    # simplification is a set-level no-op: every volume ratio is 100.0
    csv_lines = paths.report("simplify", "csv").read_text().strip().splitlines()
    data = [l.split(",") for l in csv_lines[1:]]
    region_rows = [r for r in data if r[0] == "T"]
    assert len(region_rows) == 6
    assert all(r[2] == "100.0" for r in region_rows)
    assert paths.report("regions", "txt").read_text().startswith("box T")

    payload = load_packing(out)
    assert len(payload["placements"]) == 1
    assert payload["placements"][0]["box"] == "T"
    assert payload["volume_mm3"] == TEST_BOX_VOLUME_MM3
    assert abs(payload["volume_dm3"] - 134.94054) < 1e-6
    assert payload["validation"]["valid"]
    assert not payload["timed_out"]

    # every region file, log and report byte for byte (paths included), as
    # written before points were stored as integer quadruples only; the
    # packing's search statistics are the ``SearchStats`` fields, dual
    # simplex pivots (none here: every node's rows are axis-aligned, so no
    # node builds an LP) and the proven bound included
    assert payload["stats"]["lp_calls"] == 0
    assert payload["stats"]["bound_mm3"] == TEST_BOX_VOLUME_MM3
    assert artifact_digest(out) == \
        "d22355509f3bdc0c6cc2e8a45d8d266a3468170825f8a0629937acc51131542e"


class _TornFile:
    """A text file that takes the first half of what is written to it and
    then fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, "injected: no space left on device")


@pytest.mark.parametrize("target", ["feasible_T_yxz.json", "regions.txt",
                                    "merge_T_xyz.jsonl", "simplify.csv",
                                    "scene.obj", "packing.json"])
def test_failed_write_leaves_no_partial_artifact(tmp_path, monkeypatch,
                                                 target):
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    catalog = make_box_t_catalog(tmp_path)

    def config(out):
        return RunConfig(trunk=trunk, catalog_path=catalog, out_dir=str(out),
                         mc_samples=500, orientations=("xyz", "yxz"),
                         export_obj=str(out / "scene.obj"))

    real_open = open

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and target in os.path.basename(file):
            return _TornFile(fh)
        return fh

    out = tmp_path / "out"
    monkeypatch.setattr(pipeline, "open", torn_open, raising=False)
    with pytest.raises(OSError, match="injected"):
        run(config(out))
    monkeypatch.undo()
    written = [p.name for p in out.rglob("*") if p.is_file()]
    assert target not in written
    assert not [name for name in written if name.endswith(".tmp")]
    assert written  # the stages before the failing write kept their files

    assert run(config(out)) == EXIT_OK
    assert run(config(tmp_path / "clean")) == EXIT_OK
    rerun, clean = artifact_map(out), artifact_map(tmp_path / "clean")
    assert target in {os.path.basename(rel) for rel in rerun}
    del rerun["packing.json"], clean["packing.json"]
    assert rerun == clean
    assert load_packing(out) == load_packing(tmp_path / "clean")


def test_simplify_report_counts_only_dropped_facets(tmp_path, monkeypatch):
    real = simplify.maximize_direction
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalFailure("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(simplify, "maximize_direction", fail_once)
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    out = tmp_path / "out"
    rc = run(RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                       out_dir=str(out), mc_samples=500,
                       orientations=("xyz",), workers=1))
    assert rc == EXIT_OK

    paths = RunPaths(out)
    statuses = [e["status"] for e in read_log(paths.log("drop", "T", "xyz"))]
    assert statuses.count("lp_failure") == 1
    assert statuses.count("dropped") > 0
    row = paths.report("simplify", "csv").read_text().splitlines()[1].split(",")
    assert row[:2] == ["T", "xyz"]
    assert int(row[-1]) == statuses.count("dropped")
    txt = paths.report("simplify", "txt").read_text().splitlines()[2].split()
    assert int(txt[-1]) == statuses.count("dropped")


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


def test_pipeline_import_leaves_the_process_pool_out():
    # the pool module is imported by a run with more than one worker only
    src = Path(pipeline.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, trunkpack.pipeline; "
         "print('concurrent.futures.process' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("workers,orientations", [(1, "xyz"),
                                                   (2, "xyz,yxz")],
                         ids=["one-worker", "two-workers"])
def test_cli_run_is_clean_under_dev_mode(tmp_path, workers, orientations):
    # the command line, run whole on a 2-cell mesh cube with box T, with
    # every warning an error: an unclosed file, a ResourceWarning or a
    # deprecation on the CLI path fails it
    src = Path(pipeline.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    trunk = write_json(tmp_path / "cube.json", subdivided_cube_mesh_obj(700, 2))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m",
         "trunkpack.pipeline", "--trunk", trunk,
         "--catalog", make_box_t_catalog(tmp_path),
         "--out", str(tmp_path / "out"), "--orientations", orientations,
         "--workers", str(workers), "--mc-samples", "400"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert load_packing(tmp_path / "out")["volume_mm3"] \
        == TEST_BOX_VOLUME_MM3


# ---------------------------------------------------------------------------
# regions handed from stage to stage in memory


def l_prism_mesh_obj():
    """20-triangle prism over the L-shaped polygon (0,0) (600,0) (600,300)
    (300,300) (300,600) (0,600), 300 mm tall, wound outward."""
    poly = [(0, 0), (600, 0), (600, 300), (300, 300), (300, 600), (0, 600)]
    lo = [[x, y, 0] for x, y in poly]
    hi = [[x, y, 300] for x, y in poly]
    tris = []
    for a, b, c in ((0, 1, 2), (0, 2, 3), (0, 3, 5), (3, 4, 5)):
        tris += [[lo[a], lo[c], lo[b]], [hi[a], hi[b], hi[c]]]
    for i in range(6):
        j = (i + 1) % 6
        tris += [[lo[i], lo[j], hi[j]], [lo[i], hi[j], hi[i]]]
    return {"triangles": tris, "seed": [100, 100, 100]}


def _record_written_regions(monkeypatch):
    """(box id, orientation) -> [(file text, Region or None)] of every
    region file the run writes for it, in the order written (raw, feasible,
    simplified for a run of all region stages)."""
    recorded = {}

    def recording(region, box_id, orientation, _real=pipeline.region_json):
        text = _real(region, box_id, orientation)
        recorded.setdefault((box_id, orientation), []).append((text, region))
        return text

    monkeypatch.setattr(pipeline, "region_json", recording)
    return recorded


def _count_decodes(monkeypatch):
    """The Regions (or None) each ``region_from_dict`` call of the pipeline
    returns, in call order."""
    decoded = []

    def counted(obj, _real=freespace.region_from_dict):
        decoded.append(_real(obj))
        return decoded[-1]

    monkeypatch.setattr(pipeline, "region_from_dict", counted)
    return decoded


def _region_fields(region):
    if region is None:
        return None
    return (region.box_id, region.orientation, region.fattened,
            region.volume_mm3, region.volume_stderr_mm3, region.samples,
            region.seed,
            [(p.id, [h.key() for h in p.halfspaces],
              [v._h for v in p.vertices])
             for p in (region.hull, *region.obstacles)])


@pytest.mark.parametrize("trunk_obj,dims,orientations", [
    # merged m<k> hulls in the simplified regions
    (subdivided_cube_mesh_obj(700, 2), [610, 483, 458], "xyz,yxz,zxy"),
    # describe discards obstacles, so the kept ones have gaps in their ids;
    # zxy does not fit and is an empty marker
    (l_prism_mesh_obj(), [500, 250, 250], "xyz,yxz,zxy"),
], ids=["mesh-cube", "l-prism"])
def test_handed_off_regions_equal_their_decoded_files(tmp_path, monkeypatch,
                                                      trunk_obj, dims,
                                                      orientations):
    # each Region a stage writes, and hands on to the next stage, is the
    # one its file decodes to
    recorded = _record_written_regions(monkeypatch)
    trunk = write_json(tmp_path / "trunk.json", trunk_obj)
    catalog = write_json(tmp_path / "catalog.json",
                         [{"id": "T", "dims_mm": dims, "max_count": 2}])
    out = tmp_path / "out"
    assert main(["--trunk", trunk, "--catalog", catalog, "--out", str(out),
                 "--orientations", orientations,
                 "--mc-samples", "400"]) == EXIT_OK
    files = sorted((out / "regions").iterdir())
    assert len(files) == 9
    assert sorted(recorded) == [("T", o) for o in sorted(orientations.split(","))]
    for (box_id, orient), written in recorded.items():
        assert len(written) == 3
        for kind, (text, region) in zip(("raw", "feasible", "simplified"),
                                        written):
            data = (out / "regions" / f"{kind}_{box_id}_{orient}.json"
                    ).read_bytes()
            assert data == text.encode("utf-8")
            assert _region_fields(region) == _region_fields(
                freespace.region_from_dict(json.loads(data)))
    regions = {p.name: json.loads(p.read_bytes()) for p in files}
    if trunk_obj["seed"] == [100, 100, 100]:
        assert regions["raw_T_zxy.json"].get("empty")
        assert (len(regions["feasible_T_xyz.json"]["obstacles"])
                < len(regions["raw_T_xyz.json"]["obstacles"]))
    else:
        assert any(read_log(out / "logs" / f"merge_T_{o}.jsonl")
                   for o in orientations.split(","))


def test_flat_polytope_in_a_written_region_is_exit_10(tmp_path, monkeypatch,
                                                      capsys):
    # a region holding a flat obstacle is written as before, but not handed
    # on: its reader decodes the file and refuses it
    real = pipeline.describe_region

    def with_flat_obstacle(raw, **kw):
        region = real(raw, **kw)
        flat = _polytope_from_rows(
            [Halfspace(h["n"], h["d"]) for h in _FLAT_CUBE["halfspaces"]])
        assert flat.degenerate
        region.obstacles.append(flat)
        return region

    monkeypatch.setattr(pipeline, "describe_region", with_flat_obstacle)
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    rc = main(["--trunk", trunk, "--catalog", make_box_t_catalog(tmp_path),
               "--out", str(tmp_path / "out"), "--orientations", "xyz",
               "--mc-samples", "400"])
    assert rc == EXIT_UNREADABLE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "feasible_T_xyz.json" in err
    regions = tmp_path / "out" / "regions"
    assert (regions / "feasible_T_xyz.json").exists()
    assert not (regions / "simplified_T_xyz.json").exists()


def test_describe_holds_no_other_pairs_raw_region(tmp_path, monkeypatch):
    # a run with one worker takes each (box, orientation) through its
    # region stages before the next, and drops each Region once the next
    # stage has it: while describe works on one pair, the raw Region of
    # every other pair is gone
    made = []
    real_raw, real_describe = (pipeline.raw_feasible_region,
                               pipeline.describe_region)

    def recorded_raw(*args):
        region = real_raw(*args)
        made.append(weakref.ref(region))
        return region

    alive_others = []

    def checked_describe(raw, **kw):
        alive_others.append(sum(ref() is not None and ref() is not raw
                                for ref in made))
        return real_describe(raw, **kw)

    monkeypatch.setattr(pipeline, "raw_feasible_region", recorded_raw)
    monkeypatch.setattr(pipeline, "describe_region", checked_describe)
    trunk = write_json(tmp_path / "cube.json", subdivided_cube_mesh_obj(700, 2))
    assert main(["--trunk", trunk, "--catalog", make_box_t_catalog(tmp_path),
                 "--out", str(tmp_path / "out"),
                 "--orientations", "xyz,yxz,zxy", "--mc-samples", "400",
                 "--workers", "1"]) == EXIT_OK
    assert len(made) == 3 and alive_others == [0, 0, 0]


@pytest.mark.parametrize("key,value", [
    ("seed", -1), ("samples", 0), ("samples", -1), ("samples", 1.5),
    ("seed", 1.5), ("samples", True), ("seed", "7"),
    ("volume_mm3", "nan"), ("volume_mm3", "1e400"), ("volume_mm3", -5.0),
    ("volume_mm3", True), ("volume_mm3", float("nan")),
    ("volume_mm3", float("inf")), ("volume_mm3", 10 ** 400),
    ("volume_stderr_mm3", -1.0), ("volume_stderr_mm3", "0"),
    ("volume_stderr_mm3", None),
], ids=["seed-negative", "samples-zero", "samples-negative",
        "samples-fraction", "seed-fraction", "samples-bool", "seed-string",
        "volume-nan-string", "volume-huge-string", "volume-negative",
        "volume-bool", "volume-nan", "volume-infinity", "volume-huge-int",
        "stderr-negative", "stderr-string", "stderr-null"])
def test_hand_edited_sample_fields_are_exit_10(tmp_path, capsys, key, value):
    # the stored sample count must be an int >= 1, the seed an int >= 0,
    # and the volume and its standard error finite numbers >= 0; the
    # simplify stage re-samples with the first two and reports its volume
    # ratio against the stored volume
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    argv = ["--trunk", trunk, "--catalog", make_box_t_catalog(tmp_path),
            "--out", str(tmp_path / "out"), "--orientations", "xyz",
            "--mc-samples", "400"]
    assert main(argv + ["--stages", "freespace,describe"]) == EXIT_OK
    target = tmp_path / "out" / "regions" / "feasible_T_xyz.json"
    write_json(target, dict(json.loads(target.read_text()), **{key: value}))
    capsys.readouterr()
    assert main(argv + ["--stages", "simplify"]) == EXIT_UNREADABLE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "cannot read region file" in err and f"stored {key}" in err


@pytest.mark.parametrize("value", ["false", 1], ids=["string", "int"])
def test_hand_edited_fattened_flag_is_exit_10(tmp_path, capsys, value):
    # a stored fattened flag must be a JSON bool: "false" is not read as
    # true, nor 1 as true; the simplify stage refuses the file and writes
    # no simplified region
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    argv = ["--trunk", trunk, "--catalog", make_box_t_catalog(tmp_path),
            "--out", str(tmp_path / "out"), "--orientations", "xyz",
            "--mc-samples", "400"]
    assert main(argv + ["--stages", "freespace,describe"]) == EXIT_OK
    regions = tmp_path / "out" / "regions"
    target = regions / "feasible_T_xyz.json"
    stored = json.loads(target.read_text())
    assert stored["fattened"] is False
    write_json(target, dict(stored, fattened=value))
    capsys.readouterr()
    assert main(argv + ["--stages", "simplify"]) == EXIT_UNREADABLE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "cannot read region file" in err and "stored fattened" in err
    assert not (regions / "simplified_T_xyz.json").exists()


@pytest.mark.parametrize("source,target", [("xyz", "yxz"), ("yxz", "xyz")],
                         ids=["region-over-empty", "empty-over-region"])
def test_region_file_of_another_orientation_is_exit_10(tmp_path, capsys,
                                                       source, target):
    # box T is 600 mm long and the shell only 250 mm deep in y, so its yxz
    # region files are empty markers; a region file copied over another
    # (box, orientation)'s, an empty marker included, is refused
    rows = [{"n": [sign * int(i == axis) for i in range(3)], "d": d}
            for axis, size in enumerate((700, 250, 300))
            for sign, d in ((-1, 0), (1, size))]
    trunk = write_json(tmp_path / "shell.json", {"shell": {"halfspaces": rows}})
    catalog = write_json(tmp_path / "catalog.json",
                         [{"id": "T", "dims_mm": [600, 200, 100],
                           "max_count": 1}])
    argv = ["--trunk", trunk, "--catalog", catalog, "--out",
            str(tmp_path / "out"), "--mc-samples", "400"]
    assert main(argv + ["--orientations", "xyz,yxz", "--stages",
                        "freespace,describe,simplify"]) == EXIT_OK
    regions = tmp_path / "out" / "regions"
    assert json.loads((regions / "simplified_T_yxz.json").read_text()) == {
        "box": "T", "orientation": "yxz", "empty": True}
    shutil.copyfile(regions / f"simplified_T_{source}.json",
                    regions / f"simplified_T_{target}.json")
    capsys.readouterr()
    assert main(argv + ["--orientations", target,
                        "--stages", "enumerate"]) == EXIT_UNREADABLE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"simplified_T_{target}.json" in err
    assert f"not an object labelled ('T', '{target}')" in err
    assert not (tmp_path / "out" / "packing.json").exists()


def test_smallest_stored_sample_fields_are_read(tmp_path):
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    argv = ["--trunk", trunk, "--catalog", make_box_t_catalog(tmp_path),
            "--out", str(tmp_path / "out"), "--orientations", "xyz",
            "--mc-samples", "400"]
    assert main(argv + ["--stages", "freespace,describe"]) == EXIT_OK
    target = tmp_path / "out" / "regions" / "feasible_T_xyz.json"
    write_json(target, dict(json.loads(target.read_text()), samples=1,
                            seed=0))
    assert main(argv + ["--stages", "simplify"]) == EXIT_OK


def test_full_run_decodes_only_the_files_the_enumeration_reads(tmp_path,
                                                               monkeypatch):
    decoded = _count_decodes(monkeypatch)
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    catalog = make_box_t_catalog(tmp_path)
    out = tmp_path / "out"
    assert main(["--trunk", trunk, "--catalog", catalog, "--out", str(out),
                 "--mc-samples", "400"]) == EXIT_OK
    assert [_region_fields(r) for r in decoded] == [
        _region_fields(freespace.region_from_dict(json.loads(
            (out / "regions" / f"simplified_T_{o}.json").read_bytes())))
        for o in ORIENTATIONS]
    # a later run has nothing in memory: it decodes what it reads, once
    del decoded[:]
    for path in (out / "regions").glob("simplified_*.json"):
        path.unlink()
    assert main(["--trunk", trunk, "--catalog", catalog, "--out", str(out),
                 "--stages", "simplify"]) == EXIT_OK
    assert len(decoded) == len(ORIENTATIONS)


def test_inline_and_pooled_runs_decode_the_same_files_in_the_parent(
        tmp_path, monkeypatch):
    # pool workers are separate processes, so the parent sees only its own
    # decodes: the enumeration's, the same with and without a pool
    decoded = _count_decodes(monkeypatch)
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    catalog = make_box_t_catalog(tmp_path)
    fields = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["--trunk", trunk, "--catalog", catalog,
                     "--out", str(out), "--orientations", "xyz,yxz",
                     "--mc-samples", "400", "--workers", workers]) == EXIT_OK
        fields[workers] = [_region_fields(r) for r in decoded]
        del decoded[:]
        assert len(list((out / "regions").iterdir())) == 6
    assert len(fields["1"]) == 2 and fields["1"] == fields["2"]
    assert artifact_digest(tmp_path / "w1") == artifact_digest(tmp_path / "w2")


def test_resume_decodes_the_kept_input_of_a_stage_that_runs(tmp_path,
                                                             monkeypatch):
    # with the raw and simplified files deleted and the feasible ones kept,
    # a rerun runs freespace and simplify but not describe: simplify decodes
    # each kept feasible file once, and every rewritten file is the one a
    # clean run writes
    trunk = write_json(tmp_path / "cube.json", cube_mesh_obj(700))
    catalog = make_box_t_catalog(tmp_path)

    def argv(out):
        return ["--trunk", trunk, "--catalog", catalog, "--out", str(out),
                "--orientations", "xyz,yxz", "--mc-samples", "400"]

    out, clean = tmp_path / "out", tmp_path / "clean"
    assert main(argv(out)) == EXIT_OK
    assert main(argv(clean)) == EXIT_OK
    regions = out / "regions"
    kept = {p: p.stat().st_mtime_ns for p in regions.glob("feasible_*.json")}
    for pattern in ("raw_*.json", "simplified_*.json"):
        for path in regions.glob(pattern):
            path.unlink()
    decoded = _count_decodes(monkeypatch)
    assert main(argv(out)) == EXIT_OK
    assert {p: p.stat().st_mtime_ns for p in kept} == kept
    rerun, fresh = artifact_map(out), artifact_map(clean)
    del rerun["packing.json"], fresh["packing.json"]
    assert rerun == fresh
    assert [_region_fields(r) for r in decoded] == [
        _region_fields(freespace.region_from_dict(json.loads(
            (regions / f"feasible_T_{o}.json").read_bytes())))
        for o in ORIENTATIONS if o in ("xyz", "yxz")]


def test_exit_code_unreadable_input(tmp_path):
    rc = run(RunConfig(trunk=str(tmp_path / "missing.json"),
                       out_dir=str(tmp_path / "out")))
    assert rc == EXIT_UNREADABLE
    rc = run(RunConfig(trunk=write_json(tmp_path / "c.json",
                                        convex_cube_obj(700)),
                       catalog_path=str(tmp_path / "no-catalog.json"),
                       out_dir=str(tmp_path / "out2")))
    assert rc == EXIT_UNREADABLE
    negative = write_json(tmp_path / "negative.json",
                          [{"id": "T", "dims_mm": [610, 483, 458],
                            "max_count": -1}])
    rc = run(RunConfig(trunk=write_json(tmp_path / "c.json",
                                        convex_cube_obj(700)),
                       catalog_path=negative, out_dir=str(tmp_path / "out3")))
    assert rc == EXIT_UNREADABLE


@pytest.mark.parametrize("box", [
    {"id": "T", "dims_mm": [610.7, 483, 229.9], "max_count": 2},
    {"id": "T", "dims_mm": [610, 483, 458], "max_count": 2.9},
    {"id": "T", "dims_mm": [True, 483, 458], "max_count": 2}])
def test_exit_code_catalog_with_fractional_numbers(tmp_path, capsys, box):
    # integer millimetres only: a fraction or a bool is never truncated
    trunk = write_json(tmp_path / "c.json", convex_cube_obj(700))
    catalog = write_json(tmp_path / "catalog.json", [box])
    rc = main(["--trunk", trunk, "--catalog", catalog,
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_UNREADABLE
    err = capsys.readouterr().err
    assert "cannot read catalog" in err and "'T'" in err


@pytest.mark.parametrize("box_id", ["a/b", ""])
def test_exit_code_catalog_id_that_is_no_file_name(tmp_path, capsys, box_id):
    # the id names every region and log file of the box: a path separator
    # or an empty id is refused before any file is written
    trunk = write_json(tmp_path / "c.json", convex_cube_obj(700))
    catalog = write_json(tmp_path / "catalog.json",
                         [{"id": box_id, "dims_mm": [610, 483, 458],
                           "max_count": 2}])
    out = tmp_path / "out"
    rc = main(["--trunk", trunk, "--catalog", catalog, "--out", str(out)])
    assert rc == EXIT_UNREADABLE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "cannot read catalog" in err and f"box id {box_id!r}" in err
    assert not any((out / "regions").iterdir())


def test_exit_code_malformed_trunk(tmp_path, capsys):
    unbounded = write_json(tmp_path / "open.json",
                           {"shell": {"halfspaces": [
                               {"n": [1, 0, 0], "d": 10}]}})
    assert run(RunConfig(trunk=unbounded, trunk_format="convex-json",
                         out_dir=str(tmp_path / "o1"))) == EXIT_MALFORMED

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json {", encoding="utf-8")
    assert run(RunConfig(trunk=str(garbage), trunk_format="convex-json",
                         out_dir=str(tmp_path / "o2"))) == EXIT_MALFORMED

    # coordinates past the exact sampling lattice's range (about 2^30 mm):
    # describe reports it in one line, not a traceback
    huge = write_json(tmp_path / "huge.json", convex_cube_obj(2 ** 42))
    capsys.readouterr()
    assert run(RunConfig(trunk=huge, catalog_path=make_box_t_catalog(tmp_path),
                         out_dir=str(tmp_path / "o3"),
                         mc_samples=300)) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflow int64" in err

    # numbers that are not finite rationals: one line, not a traceback
    cube = convex_cube_obj(700)
    bad_offset = dict(cube, shell={"halfspaces": [
        dict(h, d="abc") for h in cube["shell"]["halfspaces"]]})
    bad_seed = dict(cube_mesh_obj(700), seed=["1/0", 350, 350])
    infinite_seed = dict(cube_mesh_obj(700), seed=[float("inf"), 350, 350])
    null_corner = cube_mesh_obj(700)
    null_corner["triangles"][0][0] = [0, 0, None]
    cavity_of_lists = convex_cube_obj(700, [[[[1], 2, 3]]])
    # and every other malformed-trunk branch of the readers
    mesh = cube_mesh_obj(700)
    short_triangle = dict(mesh, triangles=[mesh["triangles"][0][:2]])
    no_seed = {"triangles": mesh["triangles"]}
    three_triangles = dict(mesh, triangles=mesh["triangles"][:3])
    # four triangles on z = 0, the seed above them
    flat_mesh = {"triangles": [[[0, 0, 0], [700, 0, 0], [700, 700, 0]],
                               [[0, 0, 0], [700, 700, 0], [0, 700, 0]],
                               [[0, 0, 0], [0, 700, 0], [-700, 0, 0]],
                               [[0, 0, 0], [-700, 0, 0], [0, -700, 0]]],
                 "seed": [0, 0, 5]}
    facet = "facet normal 0 0 1\nouter loop\n{}endloop\nendfacet\n"
    two_vertices = facet.format("vertex 0 0 0\nvertex 1 0 0\n")
    no_d = {"shell": {"halfspaces": [{"n": [1, 0, 0]}]}}
    flat_shell = {"shell": _FLAT_CUBE}
    no_vertices = dict(convex_cube_obj(700), cavities=[{"faces": []}])
    catalog = make_box_t_catalog(tmp_path)
    for name, obj, fmt, message in [
            ("offset", bad_offset, "convex-json", "not a finite rational"),
            ("seed", bad_seed, "mesh-json", "not a finite rational"),
            ("inf", infinite_seed, "mesh-json", "not a finite rational"),
            ("null", null_corner, "mesh-json", "cannot interpret None"),
            ("lists", cavity_of_lists, "convex-json", "cannot interpret [1]"),
            ("no-triangles", {"seed": [1, 2, 3]}, "mesh-json",
             "needs a 'triangles' array"),
            ("short", short_triangle, "mesh-json", "exactly 3 vertices"),
            ("no-seed", no_seed, "mesh-json", "needs a seed point"),
            ("binary", "\x00\x01binary", "stl", "only ASCII STL"),
            ("vertex", "solid t\nvertex 0 0\n", "stl", "bad vertex line"),
            ("two", "solid t\n" + two_vertices, "stl",
             "facet without exactly 3 vertices"),
            ("dangling", "solid t\nvertex 0 0 0\n", "stl",
             "dangling vertices"),
            ("no-d", no_d, "convex-json", "bad shell description"),
            ("flat-shell", flat_shell, "convex-json",
             "empty or not full-dimensional"),
            ("no-vertices", no_vertices, "convex-json",
             "cavity 0 needs a 'vertices' array"),
            ("three", three_triangles, "mesh-json", "at least 4"),
            ("coplanar", flat_mesh, "mesh-json", "coplanar")]:
        if isinstance(obj, str):
            (tmp_path / f"{name}.stl").write_text(obj, encoding="utf-8")
            trunk = str(tmp_path / f"{name}.stl")
        else:
            trunk = write_json(tmp_path / f"{name}.json", obj)
        assert run(RunConfig(trunk=trunk, trunk_format=fmt,
                             catalog_path=catalog,
                             out_dir=str(tmp_path / name))) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, name


_UNBOUNDED_REGION = {"box": "T", "fattened": False,
                     "hull": {"halfspaces": [{"n": [1, 0, 0], "d": 10}]},
                     "obstacles": [], "volume_mm3": 1.0, "samples": 10,
                     "seed": 1}


_CUBE_ROWS = convex_cube_obj(700)["shell"]
_HALF_SPACE = {"halfspaces": [{"n": [1, 0, 0], "d": 10}]}
_FLAT_CUBE = {"halfspaces": [dict(h, d=0) if h["n"] == [1, 0, 0] else h
                             for h in _CUBE_ROWS["halfspaces"]]}
_BAD_NUMBER_CUBE = {"halfspaces": [dict(h, d="abc") if h["n"] == [1, 0, 0]
                                   else h for h in _CUBE_ROWS["halfspaces"]]}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("stage,prefix", [("describe", "raw"),
                                          ("simplify", "feasible"),
                                          ("enumerate", "simplified")])
@pytest.mark.parametrize("content,message", [
    # valid JSON, but the stored hull is a single halfspace: decoding it
    # fails the boundedness check
    (_UNBOUNDED_REGION, "unbounded"),
    ([], "not an object"),
    # a bounded hull and a repeated unbounded obstacle: still reported at
    # its first index, though the repeat is decoded from memory
    (dict(_UNBOUNDED_REGION, hull=_CUBE_ROWS,
          obstacles=[_CUBE_ROWS, _HALF_SPACE, _CUBE_ROWS, _HALF_SPACE]),
     "'o1' is unbounded"),
    # a flat cube after a good one with the same normals: refused at its
    # own index, though its boundedness is read from memory
    (dict(_UNBOUNDED_REGION, hull=_CUBE_ROWS,
          obstacles=[_CUBE_ROWS, _FLAT_CUBE]), "'o1' is empty or flat"),
    # an offset that is not a number
    (dict(_UNBOUNDED_REGION, hull=_BAD_NUMBER_CUBE),
     "'abc' is not a finite rational"),
], ids=["unbounded", "list", "repeated", "flat", "bad-number"])
def test_exit_code_unbounded_region_file(tmp_path, capsys, stage, prefix,
                                         workers, content, message):
    # an undecodable region file is an unreadable input in every stage that
    # reads one.  Two orientations give the pool two tasks, so with two
    # workers the error comes back from a worker process.
    regions = tmp_path / "out" / "regions"
    regions.mkdir(parents=True)
    for orient in ("xyz", "yxz"):
        obj = (dict(content, orientation=orient) if isinstance(content, dict)
               else content)
        write_json(regions / f"{prefix}_T_{orient}.json", obj)
    rc = main(["--catalog", make_box_t_catalog(tmp_path),
               "--orientations", "xyz,yxz", "--stages", stage,
               "--workers", str(workers), "--out", str(tmp_path / "out")])
    assert rc == EXIT_UNREADABLE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert message in err and "Traceback" not in err


def test_enumerate_only_over_empty_regions(tmp_path):
    # every region file is an empty marker: exit 12 with an empty, valid
    # packing file
    regions = tmp_path / "out" / "regions"
    regions.mkdir(parents=True)
    for orient in ("xyz", "yxz"):
        write_json(regions / f"simplified_T_{orient}.json",
                   {"box": "T", "orientation": orient, "empty": True})
    rc = main(["--catalog", make_box_t_catalog(tmp_path),
               "--orientations", "xyz,yxz", "--stages", "enumerate",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_EMPTY
    payload = load_packing(tmp_path / "out")
    assert payload["placements"] == [] and payload["volume_mm3"] == 0
    assert payload["validation"] == {"valid": True, "mode": "exact",
                                     "violations": []}


def test_curved_hull_runs_end_to_end(tmp_path):
    # an eroded curved hull has rational vertices with huge denominators;
    # its sample box is rounded out to the dyadic grid, so describe samples
    # it exactly and the run packs
    trunk = os.path.join(os.path.dirname(__file__), "data",
                         "curved_hull_trunk.json")
    catalog = write_json(tmp_path / "catalog.json",
                         [{"id": "E", "dims_mm": [381, 229, 203],
                           "max_count": 4}])
    out = tmp_path / "out"
    rc = main(["--trunk", trunk, "--trunk-format", "convex-json",
               "--catalog", catalog, "--orientations", "xyz",
               "--out", str(out)])
    assert rc == EXIT_OK
    payload = load_packing(out)
    assert payload["validation"]["valid"]
    assert len(payload["placements"]) == 3
    assert payload["volume_mm3"] == 3 * 381 * 229 * 203


@pytest.mark.parametrize("workers", [1, 2])
def test_geometry_error_in_simplify_is_exit_11(tmp_path, monkeypatch, capsys,
                                              workers):
    # every region stage reports a geometric failure as a malformed trunk
    # in one line; two orientations give the pool two tasks
    def fail(*args, **kwargs):
        raise GeometryError("injected")

    monkeypatch.setattr(pipeline, "merge_obstacles", fail)
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    rc = main(["--trunk", trunk, "--catalog", make_box_t_catalog(tmp_path),
               "--orientations", "xyz,yxz", "--mc-samples", "300",
               "--workers", str(workers), "--out", str(tmp_path / "out")])
    assert rc == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "injected" in err and "Traceback" not in err


def test_discard_filter_disagreement_is_exit_11(tmp_path, monkeypatch,
                                                capsys):
    # a touch test that calls every clipped obstacle clear of the hull and
    # every unclipped one touching it: discarding would change the region,
    # which the describe stage reports as a geometric failure (also under
    # python -O)
    clipped = []
    real_clip = freespace.clip_obstacle

    def recorded_clip(*args, **kwargs):
        clipped.append(real_clip(*args, **kwargs))
        return clipped[-1]

    monkeypatch.setattr(freespace, "clip_obstacle", recorded_clip)
    monkeypatch.setattr(freespace, "polytopes_touch",
                        lambda a, b: not any(a is c for c in clipped))
    trunk_obj = cube_mesh_obj(700)
    box = load_catalog(make_box_t_catalog(tmp_path))[0]
    raw = freespace.raw_feasible_region(freespace.parse_mesh_json(trunk_obj),
                                        box, "xyz")
    assert raw.obstacles
    with pytest.raises(GeometryError, match="discard filter"):
        freespace.describe_region(raw, samples=300)
    rc = main(["--trunk", write_json(tmp_path / "cube.json", trunk_obj),
               "--catalog", make_box_t_catalog(tmp_path),
               "--orientations", "xyz", "--mc-samples", "300",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert "discard filter" in err and "Traceback" not in err


@pytest.mark.parametrize("trunk_obj,code", [(cube_mesh_obj(700), EXIT_OK),
                                            (convex_cube_obj(50), EXIT_EMPTY)],
                         ids=["mesh-cube", "empty-cube"])
def test_written_files_are_the_promised_files(tmp_path, trunk_obj, code):
    # the empty cube exits 12 once the region stages have run: its
    # simplify stage writes empty regions, empty logs and reports without
    # rows
    catalog = make_box_t_catalog(tmp_path)
    argv = ["--trunk", write_json(tmp_path / "trunk.json", trunk_obj),
            "--catalog", catalog, "--orientations", "xyz,yxz",
            "--mc-samples", "300", "--out", str(tmp_path / "out")]
    assert main(argv) == code

    config = pipeline.config_from_args(pipeline.build_arg_parser()
                                       .parse_args(argv))
    combos = pipeline._combos(config, load_catalog(catalog))
    paths = RunPaths(tmp_path / "out")
    promised = {path for stage in ("freespace", "describe", "simplify")
                for path in pipeline.stage_outputs(stage, paths, combos)}
    written = {path for d in (paths.regions, paths.logs, paths.reports)
               for path in d.iterdir()}
    assert written == promised


def test_exit_code_empty_free_space(tmp_path):
    trunk = write_json(tmp_path / "tiny.json", convex_cube_obj(50))
    out = tmp_path / "out"
    cfg = RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                    out_dir=str(out), mc_samples=300)
    assert run(cfg) == EXIT_EMPTY
    paths = RunPaths(out)
    for orient in ORIENTATIONS:
        feasible = paths.region("feasible", "T", orient)
        assert json.loads(feasible.read_text())["empty"]
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


def test_rerun_with_export_obj_writes_the_scene(tmp_path):
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    catalog = make_box_t_catalog(tmp_path)
    out = tmp_path / "out"
    obj_path = tmp_path / "scene.obj"
    assert run(RunConfig(trunk=trunk, catalog_path=catalog, out_dir=str(out),
                         mc_samples=300)) == EXIT_OK
    first = load_packing(out)
    assert not obj_path.exists()
    # the cached packing does not stand in for the OBJ the rerun asks for
    assert run(RunConfig(trunk=trunk, catalog_path=catalog, out_dir=str(out),
                         mc_samples=300,
                         export_obj=str(obj_path))) == EXIT_OK
    assert "g trunk" in obj_path.read_text().splitlines()
    assert load_packing(out) == first


def test_obj_export_of_a_subdivided_mesh_trunk(tmp_path):
    # the hull of this mesh has 8 vertices, but its triangles use all 26
    # grid points on the surface
    trunk = write_json(tmp_path / "cube.json", subdivided_cube_mesh_obj(700, 2))
    obj_path = tmp_path / "scene.obj"
    rc = main(["--trunk", trunk, "--catalog", make_box_t_catalog(tmp_path),
               "--out", str(tmp_path / "out"), "--mc-samples", "300",
               "--orientations", "xyz", "--export-obj", str(obj_path)])
    assert rc == EXIT_OK
    lines = obj_path.read_text().splitlines()
    vertices = sum(1 for l in lines if l.startswith("v "))
    faces = [l.split()[1:] for l in lines if l.startswith("f ")]
    assert vertices == 26 + 8
    assert len(faces) == 48 + 6
    assert all(1 <= int(i) <= vertices for face in faces for i in face)


def test_obj_only_rerun_exports_the_stored_packing(tmp_path, monkeypatch):
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    catalog = make_box_t_catalog(tmp_path)

    def config(out, obj=None, catalog_path=catalog):
        return RunConfig(trunk=trunk, catalog_path=catalog_path,
                         out_dir=str(out), mc_samples=300,
                         orientations=("xyz",), export_obj=obj)

    one_shot = tmp_path / "one_shot.obj"
    assert run(config(tmp_path / "one_shot", str(one_shot))) == EXIT_OK
    out = tmp_path / "out"
    assert run(config(out)) == EXIT_OK
    first = load_packing(out)

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran again")

    monkeypatch.setattr(pipeline, "enumerate_patterns", no_search)
    obj_path = tmp_path / "scene.obj"
    assert run(config(out, str(obj_path))) == EXIT_OK
    assert obj_path.read_bytes() == one_shot.read_bytes()
    assert load_packing(out) == first

    # a stored box id the run's catalog lacks makes the packing a miss
    other = write_json(tmp_path / "other.json",
                       [{"id": "U", "dims_mm": [610, 483, 458],
                         "max_count": 4, "phase": 1}])
    obj_path.unlink()
    with pytest.raises(AssertionError, match="the search ran again"):
        run(config(out, str(obj_path), catalog_path=other))


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


def test_cli_rejects_bad_usage(tmp_path, capsys):
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    assert main(["--trunk", trunk, "--stages", "freespace,enumerate",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["--trunk", trunk, "--stages", "nonsense",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["--trunk", trunk, "--workers", "0",
                 "--out", str(tmp_path / "o")]) == 2
    # bad numeric flag values, and an --out that names a file, are refused
    # before any stage runs
    catalog = make_box_t_catalog(tmp_path)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    capsys.readouterr()
    for args, out in ([([flag, value], tmp_path / "bad") for flag, value in [
            ("--time-limit", "0"), ("--time-limit", "-5"),
            ("--time-limit", "nan"), ("--merge-rel", "-1"),
            ("--merge-abs", "-1"), ("--drop-growth", "-1"),
            ("--merge-rel", "nan"), ("--merge-abs", "inf"),
            ("--drop-growth", "nan"), ("--drop-growth", "inf"),
            ("--orientations", ""), ("--orientations", " , ")]]
                      + [([], a_file)]):
        assert main(["--trunk", trunk, "--catalog", catalog, *args,
                     "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (out / "regions").exists()


def test_cli_rejects_a_seed_point_that_is_not_numbers(tmp_path, capsys):
    trunk = write_json(tmp_path / "mesh.json", cube_mesh_obj(700))
    for text in ("1,2,x", "1,2", "1,2,", "1/0,2,3", "inf,2,3"):
        with pytest.raises(SystemExit) as exc:
            main(["--trunk", trunk, "--seed-point", text,
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "seed point" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_packing_file_that_is_not_an_object_is_a_cache_miss(tmp_path):
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    cfg = RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                    out_dir=str(tmp_path / "out"), mc_samples=300,
                    orientations=("xyz",))
    assert run(cfg) == EXIT_OK
    first = load_packing(tmp_path / "out")
    (tmp_path / "out" / "packing.json").write_text("[]", encoding="utf-8")
    assert run(cfg) == EXIT_OK
    assert load_packing(tmp_path / "out") == first


@pytest.mark.parametrize("stored", [
    {}, {"placements": [], "volume_mm3": 0},
    {"placements": [], "volume_mm3": True, "validation": {}},
    {"placements": None, "volume_mm3": 0, "validation": {}}])
def test_packing_object_without_its_fields_is_a_cache_miss(tmp_path, stored):
    # only a finished packing (placements, integer volume, validation) is
    # reused; anything less is searched again and overwritten
    trunk = write_json(tmp_path / "cube.json", convex_cube_obj(700))
    cfg = RunConfig(trunk=trunk, catalog_path=make_box_t_catalog(tmp_path),
                    out_dir=str(tmp_path / "out"), mc_samples=300,
                    orientations=("xyz",))
    assert run(cfg) == EXIT_OK
    first = load_packing(tmp_path / "out")
    write_json(tmp_path / "out" / "packing.json", stored)
    assert run(cfg) == EXIT_OK
    rerun = load_packing(tmp_path / "out")
    assert len(rerun["placements"]) == 1
    assert rerun["volume_mm3"] == TEST_BOX_VOLUME_MM3
    assert rerun["validation"]["valid"]
    assert rerun == first


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
        RunConfig(orientations=())
    with pytest.raises(ValueError):
        RunConfig(trunk_format="step")
    with pytest.raises(ValueError):
        RunConfig(mc_samples=0)
    for name in ("merge_rel_pct", "merge_abs_mm3", "drop_growth_mm"):
        for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                RunConfig(**{name: bad})
        assert getattr(RunConfig(**{name: 0.0}), name) == 0.0
    for bad in (0.0, -5.0, float("nan")):
        with pytest.raises(ValueError):
            RunConfig(time_limit_s=bad)
    assert RunConfig(time_limit_s=0.5).time_limit_s == 0.5
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

    # sorted keys put "shell" after 500 cavities, past the first 64 KiB
    cavities = [box_corners((10 * i, 10, 10), (10 * i + 1, 11, 11))
                for i in range(500)]
    late = tmp_path / "late_shell.json"
    late.write_text(json.dumps(convex_cube_obj(10000, cavities),
                               sort_keys=True), encoding="utf-8")
    text = late.read_text(encoding="utf-8")
    assert len(text) > 1 << 16 and '"shell"' not in text[:1 << 16]
    assert detect_trunk_format(str(late)) == "convex-json"

    # a JSON file that is not an object is left to the mesh loader
    listed = tmp_path / "list.json"
    write_json(listed, [{"shell": []}])
    assert detect_trunk_format(str(listed)) == "mesh-json"


@pytest.mark.parametrize("target", ["missing/scene.obj", "folder"])
def test_exit_code_unwritable_export_obj(tmp_path, capsys, target):
    # an OBJ path under a missing directory, or one that is a directory, is
    # refused before any stage runs: the search result is never lost
    (tmp_path / "folder").mkdir()
    trunk = write_json(tmp_path / "c.json", convex_cube_obj(700))
    out = tmp_path / "out"
    rc = main(["--trunk", trunk, "--catalog", make_box_t_catalog(tmp_path),
               "--out", str(out), "--export-obj", str(tmp_path / target)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--export-obj" in err
    assert not any(out.rglob("*.*"))


def test_export_obj_without_trunk(tmp_path):
    path = tmp_path / "empty.obj"
    export_packing_obj(str(path), [], trunk=None)
    assert path.read_text().startswith("# packing export")
