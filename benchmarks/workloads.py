"""Seeded input generators for the trunkpack benchmark.

Every generator is a pure function of (seed, size): the same arguments give
byte-identical files.  Inputs are written as the files a user would hand the
``trunkpack`` command line, so the program under test sees only those.

A seed selects one of ``VARIANTS`` pinned variants of each workload
(``seed % VARIANTS``), so that every input the benchmark can generate has
its expected output stored in ``reference.json``.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np

WORKLOADS = ("search-churn", "mesh-trunk", "curved-hull")
SIZES = ("full", "tiny")
VARIANTS = 4


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{variant_of(seed)}")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _box_trunk(dims, cavities=()) -> dict:
    """convex-json trunk: an axis-aligned shell, optionally with cavities."""
    obj = {"shell": {"halfspaces": [
        {"n": [-1, 0, 0], "d": 0}, {"n": [1, 0, 0], "d": dims[0]},
        {"n": [0, -1, 0], "d": 0}, {"n": [0, 1, 0], "d": dims[1]},
        {"n": [0, 0, -1], "d": 0}, {"n": [0, 0, 1], "d": dims[2]}]}}
    if cavities:
        obj["cavities"] = [{"vertices": [list(v) for v in c]}
                           for c in cavities]
    return obj


# ---------------------------------------------------------------------------
# search-churn: the three acceptance-criterion-09 searches


def _l_trunk(shell, cavity_lo) -> dict:
    corners = [(x, y, z)
               for x in (cavity_lo[0], shell[0])
               for y in (cavity_lo[1], shell[1])
               for z in (cavity_lo[2], shell[2])]
    return _box_trunk(shell, cavities=[corners])


def search_cases(size: str) -> list:
    """(name, trunk dict, box dict, region samples, region seed, prune)."""
    full = [
        ("J-cube", _box_trunk((200, 200, 200)),
         {"id": "J", "dims_mm": [88, 88, 88], "max_count": 5}, 2000, 5, False),
        ("K-cube", _box_trunk((210, 210, 210)),
         {"id": "K", "dims_mm": [95, 87, 80], "max_count": 3}, 2000, 5, False),
        ("L-trunk", _l_trunk((800, 230, 1000), (210, 0, 210)),
         {"id": "E", "dims_mm": [381, 229, 203], "max_count": 4},
         10000, 4242, True),
    ]
    if size == "full":
        return full
    # tiny: the same three search shapes with fewer boxes
    return [
        ("J-cube", full[0][1],
         {"id": "J", "dims_mm": [88, 88, 88], "max_count": 2}, 500, 5, False),
        ("K-cube", full[1][1],
         {"id": "K", "dims_mm": [95, 87, 80], "max_count": 2}, 500, 5, False),
        ("L-trunk", full[2][1],
         {"id": "E", "dims_mm": [381, 229, 203], "max_count": 2},
         2000, 4242, True),
    ]


def search_order(seed: int) -> list:
    """The seed permutes the order in which one operation runs the searches;
    the instances themselves are pinned by criterion 09."""
    order = [0, 1, 2]
    random.Random(f"search-churn:{seed}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# mesh-trunk: a subdivided 700 mm mesh cube


def mesh_offset(seed: int) -> tuple:
    """Integer translation of the cube; the work is translation-invariant."""
    if variant_of(seed) == 0:
        return (0, 0, 0)
    rng = _rng("mesh-trunk", seed)
    return tuple(10 * rng.randrange(0, 50) for _ in range(3))


def mesh_cube(edge: int, cells: int, offset=(0, 0, 0)) -> dict:
    """A cube with every face split into cells x cells squares of two
    triangles each, all wound outward; seed point at the centre."""
    ox, oy, oz = offset

    def at(k):  # grid coordinate; halves are exact in JSON and binary
        v = k * edge / cells
        return int(v) if v == int(v) else v

    tris = []
    for axis in range(3):
        u_ax, v_ax = [a for a in range(3) if a != axis]
        for side in (0, edge):
            for i in range(cells):
                for j in range(cells):
                    quad = []
                    for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        p = [0, 0, 0]
                        p[axis] = side
                        p[u_ax] = at(i + du)
                        p[v_ax] = at(j + dv)
                        quad.append([p[0] + ox, p[1] + oy, p[2] + oz])
                    # (u, v, axis) is right-handed for axis 0 and 2 only
                    outward = (side == edge) == (axis != 1)
                    if not outward:
                        quad.reverse()
                    tris.append([quad[0], quad[1], quad[2]])
                    tris.append([quad[0], quad[2], quad[3]])
    half = edge // 2
    return {"triangles": tris, "seed": [ox + half, oy + half, oz + half]}


MESH_BOX = {"id": "T", "dims_mm": [610, 483, 458], "max_count": 2}


def mesh_params(size: str) -> dict:
    if size == "full":
        return {"edge": 700, "cells": 8, "orientations": "xyz",
                "box": MESH_BOX}
    return {"edge": 700, "cells": 2, "orientations": "xyz", "box": MESH_BOX}


# ---------------------------------------------------------------------------
# curved-hull: convex hull of seeded points on a sphere shell


def _hull_planes(points) -> list:
    """Facet planes (n, d) with n . p <= d of the convex hull of integer
    points, by testing every point triple (exact in int64 for coordinates
    below 10^4)."""
    pts = np.array(points, dtype=np.int64)
    tri = np.array(list(combinations(range(len(pts)), 3)), dtype=np.int64)
    p, q, r = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    n = np.cross(q - p, r - p)
    d = np.einsum("ij,ij->i", n, p)
    side = pts @ n.T - d                       # points x triples
    below, above = (side < 0).any(axis=0), (side > 0).any(axis=0)
    keep = (n != 0).any(axis=1) & (below != above)
    n = np.where(above[:, None], -n, n)[keep]
    d = np.where(above, -d, d)[keep]
    planes = set()
    for row, off in zip(n.tolist(), d.tolist()):
        g = math.gcd(math.gcd(abs(row[0]), abs(row[1])),
                     math.gcd(abs(row[2]), abs(off)))
        planes.add((tuple(x // g for x in row), off // g))
    return sorted(planes)


def curved_params(size: str) -> dict:
    if size == "full":
        return {"points": 40, "radius": 620, "orientations": "xyz,yxz,zxy"}
    return {"points": 12, "radius": 620, "orientations": "xyz"}


CURVED_BOX = {"id": "E", "dims_mm": [381, 229, 203], "max_count": 4}


def curved_hull(seed: int, points: int, radius: int) -> dict:
    rng = _rng("curved-hull", seed)
    pts = set()
    while len(pts) < points:
        # uniform direction, radius in the outer twentieth of the sphere
        z = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        s = math.sqrt(1.0 - z * z)
        r = radius * rng.uniform(0.95, 1.0)
        pts.add((round(r * s * math.cos(phi)), round(r * s * math.sin(phi)),
                 round(r * z)))
    planes = _hull_planes(sorted(pts))
    # two small tetrahedral cavities, pulled toward the centre until they
    # lie inside the shell
    cavities = []
    for direction in ((0, 0, -1), (1, 0, 0)):
        e = 40 + rng.randrange(0, 20)
        offset = radius // 2
        while True:
            cx, cy, cz = (offset * d for d in direction)
            tet = [[cx + e, cy + e, cz + e], [cx + e, cy - e, cz - e],
                   [cx - e, cy + e, cz - e], [cx - e, cy - e, cz + e]]
            if all(sum(n[k] * v[k] for k in range(3)) < d
                   for n, d in planes for v in tet):
                break
            offset -= 10
        cavities.append(tet)
    return {"shell": {"halfspaces": [{"n": list(n), "d": d}
                                     for n, d in planes]},
            "cavities": [{"vertices": c} for c in cavities]}


# ---------------------------------------------------------------------------
# writing the inputs


def write_inputs(workload: str, seed: int, size: str, dest: Path) -> dict:
    """Write the workload's input files under dest; returns a description
    of the operation (file paths are relative to dest)."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "search-churn":
        cases = search_cases(size)
        spec = {"kind": "search", "cases": []}
        for name, trunk, box, samples, rseed, prune in cases:
            (dest / f"{name}.trunk.json").write_text(_dump(trunk))
            spec["cases"].append({"name": name, "trunk": f"{name}.trunk.json",
                                  "box": box, "samples": samples,
                                  "region_seed": rseed, "prune": prune})
        spec["order"] = search_order(seed)
        return spec
    if workload == "mesh-trunk":
        p = mesh_params(size)
        trunk = mesh_cube(p["edge"], p["cells"], mesh_offset(seed))
        box = p["box"]
        orientations = p["orientations"]
        fmt = "mesh-json"
    elif workload == "curved-hull":
        p = curved_params(size)
        trunk = curved_hull(seed, p["points"], p["radius"])
        box = CURVED_BOX
        orientations = p["orientations"]
        fmt = "convex-json"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (dest / "trunk.json").write_text(_dump(trunk))
    (dest / "catalog.json").write_text(_dump([box]))
    return {"kind": "cli", "argv": [
        "--trunk", "trunk.json", "--trunk-format", fmt,
        "--catalog", "catalog.json", "--orientations", orientations,
        "--workers", "1", "--out", "out"]}
