"""The four-stage pipeline end to end, through the command line interface.

Stages: freespace (erode the trunk per box/orientation), describe (clip
obstacles, estimate volumes, write region reports), simplify (merge
obstacles and drop facets under logged bounds), enumerate (exhaustive
search, packing.json).  Every stage persists its outputs, so reruns are
incremental: this demo runs the whole pipeline on a triangle-mesh cube
trunk, shows the artifacts, then deletes the packing and reruns only the
final stage from the cached region files.  It works in a temporary
directory that is removed at the end.

Run:  python3 demos/04_full_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from trunkpack.pipeline import main as pipeline_main


def cube_mesh(edge):
    corners = [(x, y, z) for x in (0, edge) for y in (0, edge)
               for z in (0, edge)]
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
             (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    triangles = []
    for (a, b, c, d) in quads:
        triangles.append([list(corners[a]), list(corners[b]), list(corners[c])])
        triangles.append([list(corners[a]), list(corners[c]), list(corners[d])])
    return {"triangles": triangles, "seed": [edge / 2] * 3}


def run_cli(argv):
    print(f"$ trunkpack {' '.join(argv)}")
    code = pipeline_main(argv)
    print(f"(exit code {code})\n")
    return code


def demo(workdir):
    trunk_path = workdir / "trunk.json"
    catalog_path = workdir / "catalog.json"
    out_dir = workdir / "out"

    trunk_path.write_text(json.dumps(cube_mesh(700)))
    catalog_path.write_text(json.dumps([
        {"id": "T", "dims_mm": [610, 483, 458], "max_count": 4},
    ]))

    run_cli(["--trunk", str(trunk_path), "--trunk-format", "mesh-json",
             "--catalog", str(catalog_path), "--out", str(out_dir),
             "--merge-rel", "10", "--merge-abs", "10000",
             "--drop-growth", "1.0", "--workers", "2",
             "--rng-seed", "12345", "--mc-samples", "50000"])

    print("artifacts:")
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(out_dir)}")

    packing = json.loads((out_dir / "packing.json").read_text())
    print(f"\npacking: {len(packing['placements'])} box(es), "
          f"{packing['volume_dm3']:.2f} dm3, "
          f"valid={packing['validation']['valid']}")

    print("\nsimplification report:")
    print((out_dir / "reports" / "simplify.txt").read_text())

    # Resumability: drop the final artifact and rerun just the last stage.
    # Everything in packing.json is deterministic except the wall-clock
    # entry in the search statistics.
    def comparable(payload):
        payload["stats"].pop("wall_time_s")
        return payload

    before = comparable(packing)
    (out_dir / "packing.json").unlink()
    run_cli(["--trunk", str(trunk_path), "--trunk-format", "mesh-json",
             "--catalog", str(catalog_path), "--out", str(out_dir),
             "--stages", "enumerate", "--workers", "2",
             "--rng-seed", "12345", "--mc-samples", "50000"])
    after = comparable(json.loads((out_dir / "packing.json").read_text()))
    print(f"rerun of the enumerate stage reproduced the packing "
          f"(up to wall-clock timing): {before == after}")


def main():
    with tempfile.TemporaryDirectory(prefix="trunkpack_demo_") as workdir:
        demo(Path(workdir))


if __name__ == "__main__":
    main()
