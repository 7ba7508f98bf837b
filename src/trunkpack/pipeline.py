"""End-to-end packing pipeline with cached, resumable stages.

The pipeline turns a trunk model plus a box catalog into a best packing in
four stages, each persisting its results under the run directory:

  freespace   per (box, orientation): erode the trunk hull and build the
              obstacle polytopes            -> regions/raw_<box>_<orient>.json
  describe    clip obstacles against the margin hull, probe emptiness and
              estimate the free volume      -> regions/feasible_*.json
                                               reports/regions.{txt,csv}
  simplify    merge obstacles and drop facets under the growth bounds
                                            -> regions/simplified_*.json
                                               logs/{merge,drop}_*.jsonl
                                               reports/simplify.{txt,csv}
  enumerate   exhaustive branch-and-bound over all regions
                                            -> packing.json (+ optional OBJ)

A stage is skipped when every one of its output files already exists, so a
run is resumable: deleting any suffix of the artifacts and re-running
recomputes only the missing stages.  Region files are canonical JSON and
byte-identical across runs and worker counts.  Stages one to three fan the
(box, orientation) pairs out over a process pool; the enumeration stage is
one sequential search.

Exit codes: 0 success, 10 unreadable input file, 11 malformed trunk model
(or one whose regions the describe stage cannot sample exactly),
12 no feasible placement for any (box, orientation) pair, 13 timed out
before finding any packing (an empty packing.json is still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .catalog import (BoxType, ORIENTATIONS, default_catalog,
                      distinct_orientations, half_extents, load_catalog)
from .freespace import (DEFAULT_MC_SAMPLES, DEFAULT_SEED, ConvexTrunk,
                        DegenerateTrunk, MeshTrunk, TrunkFormatError,
                        classify_feasible, describe_region, load_trunk,
                        raw_feasible_region, region_from_dict, region_json,
                        region_report_csv, region_report_rows, region_seed,
                        format_region_report, sample_lattice_points)
from .geometry import GeometryError, convex_hull
from .simplify import (DEFAULT_ABS_MM3, DEFAULT_DROP_MM, DEFAULT_REL_PCT,
                       MergeParams, drop_facets, facet_count,
                       merge_obstacles, write_log)
from .search import (PackingResult, SearchConfig, SearchStats,
                     enumerate_patterns, validate_packing)

EXIT_OK = 0
EXIT_UNREADABLE = 10
EXIT_MALFORMED = 11
EXIT_EMPTY = 12
EXIT_TIMEOUT = 13

STAGES = ("freespace", "describe", "simplify", "enumerate")

_TRUNK_FORMATS = ("stl", "mesh-json", "convex-json")


class PipelineError(Exception):
    """Run failure carrying the process exit code."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Everything a pipeline run needs; mirrors the command line flags."""

    trunk: Optional[str] = None
    trunk_format: str = "auto"
    seed_point: Optional[Tuple[str, str, str]] = None
    catalog_path: Optional[str] = None
    orientations: Optional[Tuple[str, ...]] = None
    merge_rel_pct: float = DEFAULT_REL_PCT
    merge_abs_mm3: float = DEFAULT_ABS_MM3
    drop_growth_mm: float = DEFAULT_DROP_MM
    time_limit_s: Optional[float] = None
    workers: int = 1
    out_dir: str = "out"
    stages: Tuple[str, ...] = STAGES
    export_obj: Optional[str] = None
    rng_seed: int = DEFAULT_SEED
    mc_samples: int = DEFAULT_MC_SAMPLES

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")
        if self.trunk_format not in _TRUNK_FORMATS + ("auto",):
            raise ValueError(f"unknown trunk format {self.trunk_format!r}")
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("at least one stage must be selected")
        try:
            idx = [STAGES.index(s) for s in stages]
        except ValueError:
            bad = [s for s in stages if s not in STAGES]
            raise ValueError(f"unknown stage names {bad}; choose from {STAGES}")
        if idx != sorted(idx) or idx != list(range(idx[0], idx[-1] + 1)):
            raise ValueError("stages must be a contiguous run in the order "
                             f"{STAGES}")
        self.stages = stages
        if self.orientations is not None:
            bad = [o for o in self.orientations if o not in ORIENTATIONS]
            if bad:
                raise ValueError(f"unknown orientations {bad}")
            self.orientations = tuple(self.orientations)


@dataclass(frozen=True)
class RunPaths:
    """Artifact layout beneath the run output directory."""

    root: Path

    @property
    def regions(self) -> Path:
        return self.root / "regions"

    @property
    def logs(self) -> Path:
        return self.root / "logs"

    @property
    def reports(self) -> Path:
        return self.root / "reports"

    def raw(self, box_id: str, orientation: str) -> Path:
        return self.regions / f"raw_{box_id}_{orientation}.json"

    def feasible(self, box_id: str, orientation: str) -> Path:
        return self.regions / f"feasible_{box_id}_{orientation}.json"

    def simplified(self, box_id: str, orientation: str) -> Path:
        return self.regions / f"simplified_{box_id}_{orientation}.json"

    def merge_log(self, box_id: str, orientation: str) -> Path:
        return self.logs / f"merge_{box_id}_{orientation}.jsonl"

    def drop_log(self, box_id: str, orientation: str) -> Path:
        return self.logs / f"drop_{box_id}_{orientation}.jsonl"

    @property
    def region_report_txt(self) -> Path:
        return self.reports / "regions.txt"

    @property
    def region_report_csv(self) -> Path:
        return self.reports / "regions.csv"

    @property
    def simplify_report_txt(self) -> Path:
        return self.reports / "simplify.txt"

    @property
    def simplify_report_csv(self) -> Path:
        return self.reports / "simplify.csv"

    @property
    def packing(self) -> Path:
        return self.root / "packing.json"

    def ensure_dirs(self) -> None:
        for d in (self.root, self.regions, self.logs, self.reports):
            d.mkdir(parents=True, exist_ok=True)


def stage_outputs(stage: str, paths: RunPaths,
                  combos: Sequence[Tuple[BoxType, str]]) -> list:
    """All files the stage promises to write; a stage with every output
    already present is skipped on re-runs."""
    if stage == "freespace":
        return [paths.raw(b.id, o) for b, o in combos]
    if stage == "describe":
        return ([paths.feasible(b.id, o) for b, o in combos]
                + [paths.region_report_txt, paths.region_report_csv])
    if stage == "simplify":
        return ([paths.simplified(b.id, o) for b, o in combos]
                + [paths.merge_log(b.id, o) for b, o in combos]
                + [paths.drop_log(b.id, o) for b, o in combos]
                + [paths.simplify_report_txt, paths.simplify_report_csv])
    if stage == "enumerate":
        return [paths.packing]
    raise ValueError(f"unknown stage {stage!r}")


# ---------------------------------------------------------------------------
# inputs


def detect_trunk_format(path: str) -> str:
    """Pick a trunk format from the file name and a JSON content sniff."""
    name = path.lower()
    if name.endswith(".stl"):
        return "stl"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(1 << 16)
    except OSError:
        return "mesh-json"  # let the loader raise a readable error
    stripped = head.lstrip()
    if stripped.startswith("solid"):
        return "stl"
    if '"shell"' in head:
        return "convex-json"
    return "mesh-json"


def _load_trunk_checked(config: RunConfig):
    if config.trunk is None:
        raise PipelineError(EXIT_UNREADABLE, "no trunk file given")
    fmt = config.trunk_format
    if fmt == "auto":
        fmt = detect_trunk_format(config.trunk)
    try:
        return load_trunk(config.trunk, fmt, seed_point=config.seed_point)
    except (OSError, UnicodeDecodeError) as exc:
        raise PipelineError(EXIT_UNREADABLE,
                            f"cannot read trunk file {config.trunk}: {exc}")
    except (json.JSONDecodeError, TrunkFormatError, DegenerateTrunk,
            GeometryError, ValueError) as exc:
        raise PipelineError(EXIT_MALFORMED,
                            f"malformed trunk {config.trunk}: {exc}")


def _load_catalog_checked(config: RunConfig) -> list:
    if config.catalog_path is None:
        return default_catalog()
    try:
        return load_catalog(config.catalog_path)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise PipelineError(EXIT_UNREADABLE,
                            f"cannot read catalog {config.catalog_path}: {exc}")


# ---------------------------------------------------------------------------
# per-region worker tasks (module level so a process pool can import them)

_WORKER_TRUNK = None


def _set_worker_trunk(trunk) -> None:
    global _WORKER_TRUNK
    _WORKER_TRUNK = trunk


def _freespace_task(args):
    """(box dict, orientation) -> (box id, orientation, region file text)."""
    box_dict, orientation = args
    box = BoxType.from_dict(box_dict)
    raw = raw_feasible_region(_WORKER_TRUNK, box, orientation)
    return box.id, orientation, region_json(raw, box.id, orientation)


def _describe_task(args):
    """(raw dict, samples, seed) -> (box, orient, file text, report row)."""
    raw_dict, samples, seed = args
    box_id, orientation = raw_dict["box"], raw_dict["orientation"]
    raw = region_from_dict(raw_dict)
    region = None
    if raw is not None:
        region = describe_region(raw, samples=samples, seed=seed)
    text = region_json(region, box_id, orientation)
    row = region_report_rows([region])[0] if region is not None else None
    return box_id, orientation, text, row


def _simplify_task(args):
    """(feasible dict, merge params tuple, drop bound) ->
    (box, orient, file text, merge log, drop log, report row)."""
    region_dict, rel_pct, abs_mm3, merge_seed, drop_mm = args
    box_id, orientation = region_dict["box"], region_dict["orientation"]
    region = region_from_dict(region_dict)
    if region is None:
        return box_id, orientation, region_json(None, box_id, orientation), \
            [], [], None
    params = MergeParams(rel_bound_pct=rel_pct, abs_bound_mm3=abs_mm3,
                         rng_seed=merge_seed)
    merged, merge_entries = merge_obstacles(region, params)
    final, drop_entries = drop_facets(merged, max_growth_mm=drop_mm)

    # Refresh the stored volume estimate from the same sample set the
    # describe stage used, so before/after numbers are paired.
    pts = sample_lattice_points(region.hull.bbox(), region.samples,
                                region.seed)
    mask = classify_feasible(pts, final.hull, final.obstacles)
    lo, hi = region.hull.bbox()
    bbox_vol = float((hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]))
    p = int(mask.sum()) / region.samples
    vol_after = bbox_vol * p
    stderr = bbox_vol * (p * (1.0 - p) / region.samples) ** 0.5
    final = dataclasses.replace(final, volume_mm3=vol_after,
                                volume_stderr_mm3=stderr)

    fc_before = facet_count(region)
    fc_after = facet_count(final)
    vol_before = region.volume_mm3
    row = {
        "box": box_id,
        "orientation": orientation,
        "volume_before_mm3": vol_before,
        "volume_after_mm3": vol_after,
        "volume_ratio_pct": 100.0 * vol_after / vol_before if vol_before else 0.0,
        "facets_before": fc_before,
        "facets_after": fc_after,
        "facet_ratio_pct": 100.0 * fc_after / fc_before if fc_before else 0.0,
        "merges": len(merge_entries),
        "drops": len(drop_entries),
    }
    return box_id, orientation, region_json(final), merge_entries, \
        drop_entries, row


def _run_tasks(task_fn, task_args, workers: int, trunk=None):
    """Run the per-region tasks inline or on a process pool; results come
    back in task order either way, so downstream files are identical."""
    if workers <= 1 or len(task_args) <= 1:
        _set_worker_trunk(trunk)
        try:
            return [task_fn(a) for a in task_args]
        finally:
            _set_worker_trunk(None)
    with ProcessPoolExecutor(max_workers=min(workers, len(task_args)),
                             initializer=_set_worker_trunk,
                             initargs=(trunk,)) as pool:
        return list(pool.map(task_fn, task_args))


# ---------------------------------------------------------------------------
# simplification report


def format_simplify_report(rows: Sequence[dict]) -> str:
    """Per-region volume and facet retention after simplification, with an
    average row; percentages to one decimal."""
    header = (f"{'box':<4} {'orient':<7} {'volume %':>9} {'facets %':>9} "
              f"{'facets':>13} {'merges':>7} {'drops':>6}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['box']:<4} {r['orientation']:<7} "
            f"{r['volume_ratio_pct']:>9.1f} {r['facet_ratio_pct']:>9.1f} "
            f"{r['facets_before']:>6} -> {r['facets_after']:<4} "
            f"{r['merges']:>6} {r['drops']:>6}")
    if rows:
        n = len(rows)
        avg_vol = sum(r["volume_ratio_pct"] for r in rows) / n
        avg_fac = sum(r["facet_ratio_pct"] for r in rows) / n
        lines.append("-" * len(header))
        lines.append(f"{'avg':<4} {'':<7} {avg_vol:>9.1f} {avg_fac:>9.1f}")
    return "\n".join(lines) + "\n"


def simplify_report_csv(rows: Sequence[dict]) -> str:
    out = ["box,orientation,volume_ratio_pct,facet_ratio_pct,"
           "facets_before,facets_after,merges,drops"]
    for r in rows:
        out.append(f"{r['box']},{r['orientation']},"
                   f"{r['volume_ratio_pct']:.1f},{r['facet_ratio_pct']:.1f},"
                   f"{r['facets_before']},{r['facets_after']},"
                   f"{r['merges']},{r['drops']}")
    if rows:
        n = len(rows)
        avg_vol = sum(r["volume_ratio_pct"] for r in rows) / n
        avg_fac = sum(r["facet_ratio_pct"] for r in rows) / n
        out.append(f"average,,{avg_vol:.1f},{avg_fac:.1f},,,,")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# OBJ export


def _obj_polytope(lines: list, name: str, vertices, triangles,
                  offset: int) -> int:
    lines.append(f"g {name}")
    index = {}
    for v in vertices:
        index[v] = offset + len(index)
        lines.append(f"v {float(v.x):.6f} {float(v.y):.6f} {float(v.z):.6f}")
    for tri in triangles:
        a, b, c = (index[p] for p in tri)
        lines.append(f"f {a} {b} {c}")
    return offset + len(index)


def export_packing_obj(path, placements, trunk=None) -> None:
    """Wavefront OBJ scene: the trunk hull (when available) plus one group
    per placed box."""
    lines = ["# packing export"]
    offset = 1
    if trunk is not None:
        if isinstance(trunk, ConvexTrunk):
            hull = trunk.shell
        elif isinstance(trunk, MeshTrunk):
            hull = convex_hull([p for t in trunk.triangles
                                for p in t.vertices()], id="trunk")
        else:
            raise TypeError(f"not a trunk model: {trunk!r}")
        tris = [t for group in hull.facet_triangles().values() for t in group]
        offset = _obj_polytope(lines, "trunk", hull.vertices, tris, offset)
    for i, pl in enumerate(placements):
        hx, hy, hz = (float(h) for h in half_extents(pl.box, pl.orientation))
        cx, cy, cz = (float(c) for c in pl.center_mm)
        corners = [(cx + sx * hx, cy + sy * hy, cz + sz * hz)
                   for sz in (-1, 1) for sy in (-1, 1) for sx in (-1, 1)]
        lines.append(f"g box_{i}_{pl.box.id}_{pl.orientation}")
        base = offset
        for x, y, z in corners:
            lines.append(f"v {x:.6f} {y:.6f} {z:.6f}")
        quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
                 (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
        for quad in quads:
            lines.append("f " + " ".join(str(base + q) for q in quad))
        offset += 8
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# stages


def _combos(config: RunConfig, catalog: Sequence[BoxType]) -> list:
    return [(box, orient) for box in catalog
            for orient in distinct_orientations(box, config.orientations)]


def _stage_freespace(config: RunConfig, paths: RunPaths, combos) -> None:
    trunk = _load_trunk_checked(config)
    tasks = [(box.as_dict(), orient) for box, orient in combos]
    try:
        results = _run_tasks(_freespace_task, tasks, config.workers,
                             trunk=trunk)
    except GeometryError as exc:
        raise PipelineError(EXIT_MALFORMED,
                            f"malformed trunk {config.trunk}: {exc}")
    for box_id, orient, text in results:
        paths.raw(box_id, orient).write_text(text, encoding="utf-8")


def _stage_describe(config: RunConfig, paths: RunPaths, combos) -> None:
    tasks = []
    for box, orient in combos:
        raw_dict = _read_region_json(paths.raw(box.id, orient))
        tasks.append((raw_dict, config.mc_samples,
                      region_seed(config.rng_seed, box.id, orient)))
    try:
        results = _run_tasks(_describe_task, tasks, config.workers)
    except GeometryError as exc:
        raise PipelineError(EXIT_MALFORMED,
                            f"cannot describe the feasible regions: {exc}")
    rows = []
    for box_id, orient, text, row in results:
        paths.feasible(box_id, orient).write_text(text, encoding="utf-8")
        if row is not None:
            rows.append(row)
    paths.region_report_txt.write_text(
        format_region_report(rows, ORIENTATIONS), encoding="utf-8")
    paths.region_report_csv.write_text(region_report_csv(rows),
                                       encoding="utf-8")


def _stage_simplify(config: RunConfig, paths: RunPaths, combos) -> None:
    tasks = []
    for box, orient in combos:
        region_dict = _read_region_json(paths.feasible(box.id, orient))
        tasks.append((region_dict, config.merge_rel_pct, config.merge_abs_mm3,
                      region_seed(config.rng_seed, box.id, orient),
                      config.drop_growth_mm))
    rows = []
    results = _run_tasks(_simplify_task, tasks, config.workers)
    for box_id, orient, text, merge_entries, drop_entries, row in results:
        paths.simplified(box_id, orient).write_text(text, encoding="utf-8")
        write_log(paths.merge_log(box_id, orient), merge_entries)
        write_log(paths.drop_log(box_id, orient), drop_entries)
        if row is not None:
            rows.append(row)
    paths.simplify_report_txt.write_text(format_simplify_report(rows),
                                         encoding="utf-8")
    paths.simplify_report_csv.write_text(simplify_report_csv(rows),
                                         encoding="utf-8")


def _read_region_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise PipelineError(EXIT_UNREADABLE,
                            f"missing stage input {path} (run the earlier "
                            "stages first)")
    except (OSError, json.JSONDecodeError) as exc:
        raise PipelineError(EXIT_UNREADABLE,
                            f"cannot read region file {path}: {exc}")


def _pick_region_files(paths: RunPaths, combos) -> list:
    """The freshest complete set of region files the enumeration can use."""
    for picker in (paths.simplified, paths.feasible, paths.raw):
        files = [picker(box.id, orient) for box, orient in combos]
        if all(f.exists() for f in files):
            return files
    raise PipelineError(EXIT_UNREADABLE,
                        "no complete set of region files found; run the "
                        "earlier stages first")


def _stage_enumerate(config: RunConfig, paths: RunPaths, catalog,
                     combos) -> int:
    regions = {}
    for (box, orient), path in zip(combos, _pick_region_files(paths, combos)):
        try:
            region = region_from_dict(_read_region_json(path))
        except (KeyError, ValueError, GeometryError) as exc:
            raise PipelineError(EXIT_UNREADABLE,
                                f"cannot read region file {path}: {exc}")
        if region is not None:
            regions[(box.id, orient)] = region

    if not regions:
        result = PackingResult([], 0, SearchStats())
        payload = result.as_dict()
        payload["validation"] = {"valid": True, "mode": "exact",
                                 "violations": []}
        _write_packing(paths.packing, payload)
        return EXIT_EMPTY

    search_config = SearchConfig(time_limit_s=config.time_limit_s)
    result = enumerate_patterns(regions, catalog, config=search_config)
    payload = result.as_dict()
    payload["validation"] = validate_packing(result.placements, regions)
    _write_packing(paths.packing, payload)
    if config.export_obj:
        trunk = None
        if config.trunk is not None:
            try:
                trunk = _load_trunk_checked(config)
            except PipelineError:
                trunk = None
        export_packing_obj(config.export_obj, result.placements, trunk)
    if result.timed_out and not result.placements:
        return EXIT_TIMEOUT
    return EXIT_OK


def _write_packing(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _enumerate_cached(paths: RunPaths) -> bool:
    """A packing file counts as a cache hit unless it records a timeout
    with no placements, so a rerun with a larger time limit retries."""
    if not paths.packing.exists():
        return False
    try:
        with open(paths.packing, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return False
    return bool(payload.get("placements")) or not payload.get("timed_out")


def _all_feasible_empty(paths: RunPaths, combos) -> bool:
    for box, orient in combos:
        obj = _read_region_json(paths.feasible(box.id, orient))
        if not obj.get("empty"):
            return False
    return True


# ---------------------------------------------------------------------------
# driver


def run(config: RunConfig) -> int:
    """Execute the selected stages; returns the process exit code."""
    paths = RunPaths(Path(config.out_dir))
    paths.ensure_dirs()
    try:
        catalog = _load_catalog_checked(config)
        combos = _combos(config, catalog)
        for stage in STAGES:
            if stage not in config.stages:
                continue
            outputs = stage_outputs(stage, paths, combos)
            if stage == "enumerate":
                cached = _enumerate_cached(paths)
            else:
                cached = all(f.exists() for f in outputs)
            if not cached:
                if stage == "freespace":
                    _stage_freespace(config, paths, combos)
                elif stage == "describe":
                    _stage_describe(config, paths, combos)
                elif stage == "simplify":
                    _stage_simplify(config, paths, combos)
                elif stage == "enumerate":
                    code = _stage_enumerate(config, paths, catalog, combos)
                    if code != EXIT_OK:
                        return code
            if stage == "describe" and _all_feasible_empty(paths, combos):
                print("no feasible placements for any (box, orientation) "
                      "pair", file=sys.stderr)
                return EXIT_EMPTY
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code
    return EXIT_OK


# ---------------------------------------------------------------------------
# command line


def _parse_seed_point(text: str) -> Tuple[str, str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3 or not all(parts):
        raise argparse.ArgumentTypeError(
            "seed point must be three comma-separated coordinates, "
            "e.g. 100,200,300")
    return tuple(parts)


def _parse_csv_list(text: str) -> Tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trunkpack",
        description="Pack boxes into a trunk model: compute feasible "
                    "center regions, simplify them, and search for the "
                    "best packing.")
    p.add_argument("--trunk", help="trunk model file")
    p.add_argument("--trunk-format", default="auto",
                   choices=_TRUNK_FORMATS + ("auto",),
                   help="trunk file format (default: detect from the file)")
    p.add_argument("--seed-point", type=_parse_seed_point, default=None,
                   metavar="X,Y,Z",
                   help="interior point of the trunk (required for STL)")
    p.add_argument("--catalog", default=None,
                   help="JSON box catalog (default: built-in boxes A-F)")
    p.add_argument("--orientations", type=_parse_csv_list, default=None,
                   metavar="LIST",
                   help="comma-separated subset of " + ",".join(ORIENTATIONS))
    p.add_argument("--merge-rel", type=float, default=DEFAULT_REL_PCT,
                   metavar="PCT",
                   help="relative merge growth bound in percent "
                        f"(default {DEFAULT_REL_PCT:g})")
    p.add_argument("--merge-abs", type=float, default=DEFAULT_ABS_MM3,
                   metavar="MM3",
                   help="absolute merge growth bound in mm^3 "
                        f"(default {DEFAULT_ABS_MM3:g})")
    p.add_argument("--drop-growth", type=float, default=DEFAULT_DROP_MM,
                   metavar="MM",
                   help="facet drop growth bound in mm "
                        f"(default {DEFAULT_DROP_MM:g})")
    p.add_argument("--time-limit", type=float, default=None, metavar="S",
                   help="search time limit in seconds (default: none)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers for the freespace, describe and "
                        "simplify stages (default 1)")
    p.add_argument("--out", default="out", metavar="DIR",
                   help="output directory (default ./out)")
    p.add_argument("--stages", type=_parse_csv_list, default=STAGES,
                   metavar="LIST",
                   help="contiguous stage subset of " + ",".join(STAGES)
                        + " (default: all)")
    p.add_argument("--export-obj", default=None, metavar="PATH",
                   help="also write the packing as a Wavefront OBJ scene")
    p.add_argument("--rng-seed", type=int, default=DEFAULT_SEED,
                   help=f"global random seed (default {DEFAULT_SEED})")
    p.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES,
                   help="volume estimate sample count "
                        f"(default {DEFAULT_MC_SAMPLES})")
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        trunk=args.trunk,
        trunk_format=args.trunk_format,
        seed_point=args.seed_point,
        catalog_path=args.catalog,
        orientations=args.orientations,
        merge_rel_pct=args.merge_rel,
        merge_abs_mm3=args.merge_abs,
        drop_growth_mm=args.drop_growth,
        time_limit_s=args.time_limit,
        workers=args.workers,
        out_dir=args.out,
        stages=tuple(args.stages),
        export_obj=args.export_obj,
        rng_seed=args.rng_seed,
        mc_samples=args.mc_samples,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
