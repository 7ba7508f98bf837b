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

Each of the first three stages is one entry of ``_REGION_STAGES``: the
region kind it reads (none: the trunk), the kind it writes, its per-region
logs, its report and the formatter of each report file, the message a
geometric failure in it is reported under (exit 11), and its work per
(box, orientation).  ``stage_outputs`` and the enumeration's choice of
region files are derived from the same entries, so what a stage writes is
declared once.

A stage is skipped when every one of its output files already exists, so a
run is resumable: deleting any suffix of the artifacts and re-running
recomputes only the missing stages; a rerun that only adds an OBJ export
writes it from the placements stored in packing.json.  No stage writes
another stage's files, so a run lists the region stages it needs before
any runs.  One task per (box, orientation) (``_region_task``) runs them in
order, inline or on a process pool, writing each stage's region file and
logs; each stage's Region, the one ``region_from_dict`` decodes from its
file, is handed to the next stage in memory and dropped once that stage
has it.  A stage whose input stage did not run in the task decodes the
input file.  One runner (``_stage_regions``) then writes each stage's
report from the tasks' rows, in task order, so region files and reports
are byte-identical across runs and worker counts.  The enumeration stage
decodes the region files it reads and runs one sequential search.

Exit codes: 0 success, 10 unreadable input file (a trunk, a catalog, or a
region file that is missing, does not decode or is labelled with another
(box, orientation) than the run reads it for), 11 malformed trunk model (or
one too large for the describe stage's exact sampling lattice, which holds
coordinates up to about 2^30 mm, or any geometric failure in a region
stage), 12 no feasible placement for any (box, orientation) pair (decided
once the region stages have run, from the feasible files), 13 timed out
before finding any packing (an empty packing.json is still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .catalog import (BoxType, ORIENTATIONS, default_catalog,
                      distinct_orientations, half_extents, load_catalog)
from .freespace import (DEFAULT_MC_SAMPLES, DEFAULT_SEED, ConvexTrunk,
                        DegenerateTrunk, MeshTrunk, TrunkFormatError,
                        describe_region, estimate_volume, load_trunk,
                        raw_feasible_region, region_from_dict, region_json,
                        region_report_csv, region_report_rows, region_seed,
                        format_region_report)
from .geometry import GeometryError, to_fraction
from .simplify import (DEFAULT_ABS_MM3, DEFAULT_DROP_MM, DEFAULT_REL_PCT,
                       MergeParams, drop_facets, format_log, merge_obstacles)
from .search import (PackingResult, Placement, SearchConfig, SearchStats,
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
        # both in args, so the error survives the trip back from a pool worker
        super().__init__(exit_code, message)
        self.exit_code = exit_code

    def __str__(self) -> str:
        return self.args[1]


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
        for name in ("merge_rel_pct", "merge_abs_mm3", "drop_growth_mm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.time_limit_s is not None and not self.time_limit_s > 0:
            raise ValueError(f"time_limit_s must be positive, got {self.time_limit_s}")
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
            if not self.orientations:
                raise ValueError("at least one orientation must be selected")
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

    def region(self, kind: str, box_id: str, orientation: str) -> Path:
        """A region file: ``kind`` is raw, feasible or simplified."""
        return self.regions / f"{kind}_{box_id}_{orientation}.json"

    def log(self, kind: str, box_id: str, orientation: str) -> Path:
        """A per-region log: ``kind`` is merge or drop."""
        return self.logs / f"{kind}_{box_id}_{orientation}.jsonl"

    def report(self, name: str, ext: str) -> Path:
        return self.reports / f"{name}.{ext}"

    @property
    def packing(self) -> Path:
        return self.root / "packing.json"

    def ensure_dirs(self) -> None:
        for d in (self.root, self.regions, self.logs, self.reports):
            d.mkdir(parents=True, exist_ok=True)


def _write_atomic(path: Path, text: str) -> None:
    """Write an artifact through a temporary file in the same directory and
    ``os.replace``, so a run that fails while writing leaves the old file
    or none at ``path``, never a partial one for a later run to take as
    cached."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# inputs


def detect_trunk_format(path: str) -> str:
    """Pick a trunk format: STL by file name or a leading ``solid``, else
    convex-json when the file is a JSON object with a top-level ``shell``
    key, else mesh-json (whose loader reports anything unreadable)."""
    if path.lower().endswith(".stl"):
        return "stl"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("solid"):
            return "stl"
        obj = json.loads(text)
    except (OSError, ValueError):
        return "mesh-json"
    if isinstance(obj, dict) and "shell" in obj:
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
            GeometryError, ValueError, TypeError) as exc:
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
# per-region work (module level so a process pool can import it)

def _freespace(trunk, box: BoxType, orientation: str, config: RunConfig):
    return raw_feasible_region(trunk, box, orientation), (), None


def _describe(raw, box: BoxType, orientation: str, config: RunConfig):
    region = describe_region(raw, samples=config.mc_samples,
                             seed=region_seed(config.rng_seed, box.id,
                                              orientation))
    row = region_report_rows([region])[0] if region is not None else None
    return region, (), row


def _simplify(region, box: BoxType, orientation: str, config: RunConfig):
    params = MergeParams(rel_bound_pct=config.merge_rel_pct,
                         abs_bound_mm3=config.merge_abs_mm3,
                         rng_seed=region_seed(config.rng_seed, box.id,
                                              orientation))
    merged, merge_entries = merge_obstacles(region, params)
    final, drop_entries = drop_facets(merged,
                                      max_growth_mm=config.drop_growth_mm)

    # Refresh the stored volume estimate from the same sample set the
    # describe stage used (simplification keeps the hull), so before/after
    # numbers are paired; name the obstacles o<i> once drop has logged them.
    vol_after, stderr = estimate_volume(final.hull, final.obstacles,
                                        region.samples, region.seed)
    final = dataclasses.replace(
        final, obstacles=[o.with_id(f"o{i}")
                          for i, o in enumerate(final.obstacles)],
        volume_mm3=vol_after, volume_stderr_mm3=stderr)

    fc_before = region.facet_count()
    fc_after = final.facet_count()
    vol_before = region.volume_mm3
    row = {
        "box": box.id,
        "orientation": orientation,
        "volume_before_mm3": vol_before,
        "volume_after_mm3": vol_after,
        "volume_ratio_pct": 100.0 * vol_after / vol_before if vol_before else 0.0,
        "facets_before": fc_before,
        "facets_after": fc_after,
        "facet_ratio_pct": 100.0 * fc_after / fc_before if fc_before else 0.0,
        "merges": len(merge_entries),
        "drops": sum(e["status"] == "dropped" for e in drop_entries),
    }
    return final, (merge_entries, drop_entries), row


def _region_task(args):
    """(stage names, box, orientation, run paths, run config) -> one report
    row (or None) per stage.  Runs the named region stages in order for one
    (box, orientation), each writing its region file and logs.  The stage
    that reads no region file loads the trunk, which is dropped once that
    stage has run.  A stage takes the Region the stage before it made here,
    the one ``region_from_dict`` decodes from its file (obstacles ``o<i>``
    in order), and decodes its input file when that stage did not run
    here.  A region holding a flat polytope is not handed on, so its reader
    decodes the file and refuses it.  An empty input region gives an empty
    one, empty logs and no row; a GeometryError is exit 11."""
    names, box, orientation, paths, config = args
    labels = (box.id, orientation)
    rows = []
    made = None  # (kind, Region or None) of the last region handed on
    for name in names:
        stage = _REGION_STAGES[name]
        if stage.reads is None:
            source = _load_trunk_checked(config)
        elif made is not None and made[0] == stage.reads:
            source = made[1]
        else:
            source = _read_region(paths.region(stage.reads, *labels), labels)
        made = None  # so the input is dropped once the stage has run
        try:
            if source is None:
                region, logs, row = None, [() for _ in stage.logs], None
            else:
                region, logs, row = stage.work(source, box, orientation,
                                               config)
        except GeometryError as exc:
            raise PipelineError(EXIT_MALFORMED, stage.failure.format(
                trunk=config.trunk) + f": {exc}")
        del source
        _write_atomic(paths.region(stage.writes, *labels),
                      region_json(region, *labels))
        for kind, entries in zip(stage.logs, logs):
            _write_atomic(paths.log(kind, *labels), format_log(entries))
        rows.append(row)
        if region is None or not any(
                p.degenerate for p in (region.hull, *region.obstacles)):
            made = (stage.writes, region)
        del region
    return rows


# ---------------------------------------------------------------------------
# simplification report


def _simplify_averages(rows: Sequence[dict]) -> Tuple[float, float]:
    """Mean volume and facet retention in percent over non-empty rows."""
    return (sum(r["volume_ratio_pct"] for r in rows) / len(rows),
            sum(r["facet_ratio_pct"] for r in rows) / len(rows))


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
        avg_vol, avg_fac = _simplify_averages(rows)
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
        avg_vol, avg_fac = _simplify_averages(rows)
        out.append(f"average,,{avg_vol:.1f},{avg_fac:.1f},,,,")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# OBJ export


def _obj_triangles(lines: list, name: str, triangles, offset: int) -> int:
    """One group: a ``v`` line per distinct triangle corner, in order of
    first use, then an ``f`` line per triangle.  Returns the next index."""
    lines.append(f"g {name}")
    index = {}
    for tri in triangles:
        for p in tri:
            if p not in index:
                index[p] = offset + len(index)
                lines.append(f"v {float(p.x):.6f} {float(p.y):.6f} "
                             f"{float(p.z):.6f}")
    for tri in triangles:
        lines.append("f " + " ".join(str(index[p]) for p in tri))
    return offset + len(index)


def export_packing_obj(path, placements, trunk=None) -> None:
    """Wavefront OBJ scene: the trunk surface (when available: a mesh's own
    triangles, a convex trunk's shell) plus one group per placed box."""
    lines = ["# packing export"]
    offset = 1
    if trunk is not None:
        if isinstance(trunk, ConvexTrunk):
            tris = [t for group in trunk.shell.facet_triangles().values()
                    for t in group]
        elif isinstance(trunk, MeshTrunk):
            tris = [t.vertices() for t in trunk.triangles]
        else:
            raise TypeError(f"not a trunk model: {trunk!r}")
        offset = _obj_triangles(lines, "trunk", tris, offset)
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
    _write_atomic(Path(path), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# stages


class _RegionStage(NamedTuple):
    """One region stage: the region kind it reads (None: the trunk) and
    the kind it writes, its per-region log kinds, its report name and the
    formatter of each report file extension, the message a GeometryError
    in it is reported under, and its work per (box, orientation):
    (source, box, orientation, config) -> (region or None, one list of
    entries per log kind, report row or None)."""

    reads: Optional[str]
    writes: str
    logs: Tuple[str, ...]
    report: Optional[str]
    formats: dict
    failure: str
    work: Callable


_REGION_STAGES = {
    "freespace": _RegionStage(None, "raw", (), None, {},
                              "malformed trunk {trunk}", _freespace),
    "describe": _RegionStage(
        "raw", "feasible", (), "regions",
        {"txt": functools.partial(format_region_report,
                                  orientation_order=ORIENTATIONS),
         "csv": region_report_csv},
        "cannot describe the feasible regions", _describe),
    "simplify": _RegionStage(
        "feasible", "simplified", ("merge", "drop"), "simplify",
        {"txt": format_simplify_report, "csv": simplify_report_csv},
        "cannot simplify the feasible regions", _simplify),
}


def stage_outputs(stage: str, paths: RunPaths,
                  combos: Sequence[Tuple[BoxType, str]]) -> list:
    """All files the stage promises to write; a stage with every output
    already present is skipped on re-runs."""
    if stage == "enumerate":
        return [paths.packing]
    entry = _REGION_STAGES[stage]
    return ([paths.region(entry.writes, b.id, o) for b, o in combos]
            + [paths.log(kind, b.id, o) for kind in entry.logs
               for b, o in combos]
            + [paths.report(entry.report, ext) for ext in entry.formats])


def _combos(config: RunConfig, catalog: Sequence[BoxType]) -> list:
    return [(box, orient) for box in catalog
            for orient in distinct_orientations(box, config.orientations)]


def _stage_regions(names: Sequence[str], config: RunConfig, paths: RunPaths,
                   combos) -> None:
    """Run the named region stages, one ``_region_task`` per (box,
    orientation), inline or on a process pool, then write each stage's
    report from the tasks' rows.  Rows come in task order either way, so
    the files are identical."""
    tasks = ((names, box, orient, paths, config) for box, orient in combos)
    workers = min(config.workers, len(combos))
    if workers > 1:
        # imported here, so that a run with one worker does not pay for
        # importing the pool module
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_region_task, tasks))
    else:
        results = list(map(_region_task, tasks))
    for i, name in enumerate(names):
        stage = _REGION_STAGES[name]
        rows = [r[i] for r in results if r[i] is not None]
        for ext, format_rows in stage.formats.items():
            _write_atomic(paths.report(stage.report, ext), format_rows(rows))


def _read_region(path: Path, labels: tuple):
    """Decode the region file of ``labels`` (box id, orientation): a Region,
    or None for an empty marker.  Any failure is exit 10."""
    try:
        return region_from_dict(
            _region_object(path, _read_region_bytes(path), labels))
    except (KeyError, TypeError, ValueError, GeometryError) as exc:
        raise PipelineError(EXIT_UNREADABLE,
                            f"cannot read region file {path}: {exc}")


def _read_region_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise PipelineError(EXIT_UNREADABLE,
                            f"missing stage input {path} (run the earlier "
                            "stages first)")
    except OSError as exc:
        raise PipelineError(EXIT_UNREADABLE,
                            f"cannot read region file {path}: {exc}")


def _region_object(path: Path, data: bytes, labels: tuple) -> dict:
    try:
        obj = json.loads(data.decode("utf-8"))
        if not (isinstance(obj, dict)
                and (obj.get("box"), obj.get("orientation")) == labels):
            raise ValueError(f"not an object labelled {labels}")
    except ValueError as exc:
        raise PipelineError(EXIT_UNREADABLE,
                            f"cannot read region file {path}: {exc}")
    return obj


def _pick_region_files(paths: RunPaths, combos) -> list:
    """The freshest complete set of region files the enumeration can use."""
    for stage in reversed(_REGION_STAGES.values()):
        files = [paths.region(stage.writes, box.id, orient)
                 for box, orient in combos]
        if all(f.exists() for f in files):
            return files
    raise PipelineError(EXIT_UNREADABLE,
                        "no complete set of region files found; run the "
                        "earlier stages first")


def _stage_enumerate(config: RunConfig, paths: RunPaths, catalog,
                     combos) -> int:
    regions = {}
    for (box, orient), path in zip(combos, _pick_region_files(paths, combos)):
        region = _read_region(path, (box.id, orient))
        if region is not None:
            regions[(box.id, orient)] = region

    if not regions:
        result = PackingResult([], 0, SearchStats())
        payload = result.as_dict()
        payload["validation"] = validate_packing([], regions)
        _write_packing(paths.packing, payload)
        return EXIT_EMPTY

    search_config = SearchConfig(time_limit_s=config.time_limit_s)
    result = enumerate_patterns(regions, catalog, config=search_config)
    payload = result.as_dict()
    payload["validation"] = validate_packing(result.placements, regions)
    if config.export_obj:
        _export_obj(config, result.placements)
    # written last: a packing file marks the stage done for later runs
    _write_packing(paths.packing, payload)
    if result.timed_out and not result.placements:
        return EXIT_TIMEOUT
    return EXIT_OK


def _write_packing(path: Path, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _export_obj(config: RunConfig, placements) -> None:
    """The OBJ scene the run asks for; without a readable trunk it holds
    the boxes alone."""
    try:
        trunk = _load_trunk_checked(config)
    except PipelineError:
        trunk = None
    export_packing_obj(config.export_obj, placements, trunk)


def _enumerate_cached(config: RunConfig, paths: RunPaths, catalog) -> bool:
    """A packing file counts as a cache hit when it is a JSON object with a
    placements list, an integer volume_mm3 and a validation object, and does
    not record a timeout with no placements, so a rerun with a larger time
    limit retries.  On a hit, a missing OBJ scene the run asks for is
    written from the stored placements; a placed box id the catalog lacks
    makes it a miss."""
    try:
        with open(paths.packing, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return False
    if not (isinstance(payload, dict)
            and isinstance(payload.get("placements"), list)
            and isinstance(payload.get("volume_mm3"), int)
            and not isinstance(payload["volume_mm3"], bool)
            and isinstance(payload.get("validation"), dict)):
        return False
    if not payload["placements"] and payload.get("timed_out"):
        return False
    if config.export_obj and not Path(config.export_obj).exists():
        boxes = {box.id: box for box in catalog}
        try:
            placements = [Placement(boxes[p["box"]], p["orientation"],
                                    tuple(p["center_mm"]))
                          for p in payload["placements"]]
        except (KeyError, TypeError):  # an unknown box id or a bad entry
            return False
        _export_obj(config, placements)
    return True


def _all_feasible_empty(paths: RunPaths, combos) -> bool:
    # reads the empty marker only: decoding a region to learn that it is
    # not empty would rebuild every obstacle polytope
    files = [paths.region("feasible", box.id, orient) for box, orient in combos]
    return all(_region_object(f, _read_region_bytes(f), (box.id, orient))
               .get("empty") for f, (box, orient) in zip(files, combos))


# ---------------------------------------------------------------------------
# driver


def run(config: RunConfig) -> int:
    """Execute the selected stages; returns the process exit code."""
    paths = RunPaths(Path(config.out_dir))
    try:
        paths.ensure_dirs()
    except OSError as exc:
        print(f"cannot create the output directory: {exc}", file=sys.stderr)
        return 2
    obj = Path(config.export_obj) if config.export_obj else None
    if obj and (obj.is_dir() or not os.access(obj.parent, os.W_OK)):
        print(f"cannot write --export-obj {obj}", file=sys.stderr)
        return 2
    try:
        catalog = _load_catalog_checked(config)
        combos = _combos(config, catalog)
        # no stage writes another stage's files, so which ones run can be
        # decided before any does
        needed = [name for name in config.stages if name in _REGION_STAGES
                  and not all(f.exists()
                              for f in stage_outputs(name, paths, combos))]
        if needed:
            _stage_regions(needed, config, paths, combos)
        if "describe" in config.stages and _all_feasible_empty(paths, combos):
            print("no feasible placements for any (box, orientation) pair",
                  file=sys.stderr)
            return EXIT_EMPTY
        if "enumerate" in config.stages:
            if _enumerate_cached(config, paths, catalog):
                return EXIT_OK
            return _stage_enumerate(config, paths, catalog, combos)
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code
    return EXIT_OK


# ---------------------------------------------------------------------------
# command line


def _parse_seed_point(text: str) -> Tuple[str, str, str]:
    parts = tuple(p.strip() for p in text.split(","))
    try:
        numbers = [to_fraction(p) for p in parts]
    except ValueError:
        numbers = []
    if len(numbers) != 3:
        raise argparse.ArgumentTypeError(
            "seed point must be three comma-separated numbers, "
            "e.g. 100,200,300")
    return parts


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
    p.add_argument("--catalog", dest="catalog_path", default=None,
                   metavar="CATALOG",
                   help="JSON box catalog (default: built-in boxes A-F)")
    p.add_argument("--orientations", type=_parse_csv_list, default=None,
                   metavar="LIST",
                   help="comma-separated subset of " + ",".join(ORIENTATIONS))
    p.add_argument("--merge-rel", dest="merge_rel_pct", type=float,
                   default=DEFAULT_REL_PCT, metavar="PCT",
                   help="relative merge growth bound in percent "
                        f"(default {DEFAULT_REL_PCT:g})")
    p.add_argument("--merge-abs", dest="merge_abs_mm3", type=float,
                   default=DEFAULT_ABS_MM3, metavar="MM3",
                   help="absolute merge growth bound in mm^3 "
                        f"(default {DEFAULT_ABS_MM3:g})")
    p.add_argument("--drop-growth", dest="drop_growth_mm", type=float,
                   default=DEFAULT_DROP_MM, metavar="MM",
                   help="facet drop growth bound in mm "
                        f"(default {DEFAULT_DROP_MM:g})")
    p.add_argument("--time-limit", dest="time_limit_s", type=float,
                   default=None, metavar="S",
                   help="search time limit in seconds (default: none)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers for the freespace, describe and "
                        "simplify stages (default 1)")
    p.add_argument("--out", dest="out_dir", default="out", metavar="DIR",
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
    return RunConfig(**vars(args))


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
