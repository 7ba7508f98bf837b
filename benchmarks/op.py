"""One benchmark operation, run in a process of its own.

    python3 op.py --workload W --seed N --size full --dir DIR \
        --spawned T --result FILE [--trace] [--setup-only]

Set-up (import, input generation, file writing and, for search-churn, the
region build) is timed from ``--spawned``, the parent's ``time.monotonic()``
just before it started this process, so interpreter start-up counts too.
The operation is then timed on its own and its outputs are summarised in
``--result`` for the parent to check, also when it fails.  A failing
operation behaves like the ``trunkpack`` command line: a non-zero exit
code, and for an uncaught exception a traceback on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _build_regions(spec: dict, dest: Path) -> list:
    from trunkpack import freespace
    from trunkpack.catalog import BoxType, distinct_orientations

    built = []
    for case in spec["cases"]:
        trunk = freespace.load_trunk(str(dest / case["trunk"]), "convex-json")
        box = BoxType.from_dict(case["box"])
        regions = {}
        for orient in distinct_orientations(box):
            region = freespace.compute_feasible_region(
                trunk, box, orient, samples=case["samples"],
                seed=case["region_seed"])
            if region is not None:
                regions[(box.id, orient)] = region
        built.append((case, box, regions))
    return built


def _run_searches(spec: dict, built: list) -> dict:
    from trunkpack import search

    cases = {}
    for idx in spec["order"]:
        case, box, regions = built[idx]
        config = search.SearchConfig(prune_enabled=case["prune"],
                                     root_parallelism=1)
        result = search.enumerate_patterns(regions, [box], config=config)
        validation = search.validate_packing(result.placements, regions)
        cases[case["name"]] = {
            "volume_mm3": result.volume_mm3,
            "placements": len(result.placements),
            "valid": validation["valid"],
            "mode": validation["mode"],
            "timed_out": result.timed_out,
            "stats": {k: v for k, v in result.stats.as_dict().items()
                      if k != "wall_time_s"},
        }
    return cases


def _run_cli(spec: dict, traced: bool, stage_s: dict) -> int:
    """Untraced: one ``trunkpack`` command-line run.  Traced: the same run
    made by calling ``pipeline.run`` once per stage, timing each into
    ``stage_s`` (a failing stage included)."""
    from trunkpack import pipeline

    if not traced:
        return pipeline.main(spec["argv"])
    config = pipeline.config_from_args(
        pipeline.build_arg_parser().parse_args(spec["argv"]))
    for stage in pipeline.STAGES:
        t0 = time.perf_counter()
        try:
            code = pipeline.run(dataclasses.replace(config, stages=(stage,)))
        finally:
            stage_s[stage] = time.perf_counter() - t0
        if code != 0:
            return code
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=workloads.SIZES)
    p.add_argument("--dir", required=True, type=Path)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import trunkpack.pipeline  # noqa: F401  (imports every layer)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    spec = workloads.write_inputs(args.workload, args.seed, args.size,
                                  args.dir)
    built = None
    if spec["kind"] == "search":
        built = _build_regions(spec, args.dir)
    out = {"setup_s": time.monotonic() - args.spawned}
    if args.setup_only:
        args.result.write_text(json.dumps(out))
        return 0

    os.chdir(args.dir)
    t0 = time.perf_counter()
    try:
        if spec["kind"] == "search":
            out["cases"] = _run_searches(spec, built)
            out["exit_code"] = 0
        else:
            out["stage_s"] = {}
            out["exit_code"] = _run_cli(spec, args.trace, out["stage_s"])
    finally:
        # written even when the operation raises, so a traced failure still
        # shows where its time went
        out["elapsed_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.snapshot()
        args.result.write_text(json.dumps(out))
    return out["exit_code"]

if __name__ == "__main__":
    sys.exit(main())
