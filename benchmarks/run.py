"""trunkpack benchmark: one workload, timed end to end or traced per layer.

    python3 benchmarks/run.py --workload search-churn --seed 1 \
        --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50

Run from the repository root.  Every operation runs in a fresh process
(``op.py``) on inputs generated from the seed; its outputs are checked
against ``reference.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).
The line before it holds the details: every failure, the exact work
counters, the validation modes and the source line count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_work"
NO_REFERENCE = "no reference for this variant"
# set-up-only processes run before the first operation and after each one,
# so the set-up samples of a run are spread over its whole time
SETUP_BATCH = 5
# what reference.json keeps per search, and what a check also reads
REF_KEYS = ("volume_mm3", "placements", "mode")
CASE_KEYS = REF_KEYS + ("valid", "timed_out")


# ---------------------------------------------------------------------------
# operations


def _spawn_op(args, index: int, traced: bool, setup_only: bool,
              run_dir: Path) -> dict:
    """Run op.py once; returns its summary, exit status and peak RSS."""
    op_dir = run_dir / f"op{index}"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    result_file = op_dir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "op.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--dir", str(op_dir / "in"), "--result", str(result_file)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    with open(op_dir / "stdout", "wb") as out, \
            open(op_dir / "stderr", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(started)],
                                stdout=out, stderr=err, cwd=str(ROOT),
                                env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"op": index, "traced": traced, "exit_code": proc.returncode,
           "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "dir": op_dir}
    if result_file.exists():
        rec.update(json.loads(result_file.read_text()))
    if proc.returncode != 0:
        stderr = (op_dir / "stderr").read_text(errors="replace")
        rec["failure"] = _describe_exit(proc.returncode, stderr)
    return rec


def _describe_exit(code: int, stderr: str) -> dict:
    """Exception class, innermost frame and last stderr line of a failed
    process."""
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    last = lines[-1].strip() if lines else ""
    failure = {"exit_code": code, "stderr_last": last}
    frames = [ln.strip() for ln in lines if ln.strip().startswith('File "')]
    if frames and "Traceback" in stderr:
        failure["error"] = last.split(":", 1)[0]
        where = frames[-1]
        path = where.split('"')[1]
        rest = where.split('"', 2)[2].strip(", ")
        failure["where"] = f"{Path(path).name} {rest}"
    return failure


# ---------------------------------------------------------------------------
# checking outputs


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_outputs(out_dir: Path) -> dict:
    """Digests of every artifact, and packing.json without its search
    statistics and float LP centers."""
    files = [p for p in sorted(out_dir.rglob("*")) if p.is_file()]
    digests = {p.relative_to(out_dir).as_posix(): _digest(p.read_bytes())
               for p in files if p.name != "packing.json"}
    summary = {"digests": digests,
               "artifact_bytes": sum(p.stat().st_size for p in files)}
    packing_file = out_dir / "packing.json"
    if packing_file.exists():
        packing = json.loads(packing_file.read_text())
        kept = {"placements": [[p["box"], p["orientation"]]
                               for p in packing["placements"]],
                "volume_mm3": packing["volume_mm3"],
                "timed_out": packing["timed_out"],
                "validation": {k: packing["validation"][k]
                               for k in ("valid", "mode")}}
        digests["packing.json"] = _digest(
            json.dumps(kept, sort_keys=True).encode())
        summary["packing"] = {"volume_mm3": packing["volume_mm3"],
                              "placements": len(packing["placements"]),
                              "valid": packing["validation"]["valid"],
                              "mode": packing["validation"]["mode"],
                              "timed_out": packing["timed_out"],
                              "stats": {k: v for k, v
                                        in packing["stats"].items()
                                        if k != "wall_time_s"}}
    return summary


def observed(rec: dict) -> dict:
    """What an operation produced, in the shape reference.json stores."""
    if "cases" in rec:
        return {"cases": {name: {k: c[k] for k in CASE_KEYS}
                          for name, c in rec["cases"].items()},
                "counters": {name: c["stats"]
                             for name, c in rec["cases"].items()}}
    out_dir = rec["dir"] / "in" / "out"
    summary = cli_outputs(out_dir)
    packing = summary.get("packing", {})
    logs = {kind: [json.loads(ln)
                   for path in sorted(out_dir.glob(f"logs/{kind}_*.jsonl"))
                   for ln in path.read_text().splitlines() if ln.strip()]
            for kind in ("merge", "drop")}
    simplify = {"merges": len(logs["merge"]),
                "drops": sum(1 for e in logs["drop"]
                             if e.get("status") == "dropped")}
    cases = {"packing": {k: packing[k] for k in CASE_KEYS}} if packing else {}
    return {"cases": cases,
            "digests": summary["digests"],
            "counters": {"packing": packing.get("stats", {}),
                         "simplify": simplify},
            "artifact_bytes": summary["artifact_bytes"]}


def check(rec: dict, ref) -> list:
    """Problems with one operation's outputs; empty when it is correct."""
    if rec["exit_code"] != 0:
        return ["exit code %d" % rec["exit_code"]]
    if "elapsed_s" not in rec:
        return ["no result written"]
    got = observed(rec)
    if not got["cases"]:
        return ["no packing.json written"]
    problems = []
    for name, case in got["cases"].items():
        if not case["valid"]:
            problems.append(f"{name}: validate_packing rejected it")
        if case["timed_out"]:
            problems.append(f"{name}: search timed out")
    if ref is None:
        return problems + [NO_REFERENCE]
    for name, want in ref["cases"].items():
        have = got["cases"].get(name)
        if have is None:
            problems.append(f"{name}: missing")
            continue
        for key in ("volume_mm3", "placements"):
            if have[key] != want[key]:
                problems.append(
                    f"{name}: {key} {have[key]} != reference {want[key]}")
    expected, produced = ref.get("digests", {}), got.get("digests", {})
    for rel in sorted(set(expected) | set(produced)):
        if produced.get(rel) != expected.get(rel):
            problems.append(f"{rel}: digest differs from reference")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def reference_for(refs: dict, workload: str, size: str, seed: int):
    variant = str(workloads.variant_of(seed))
    return refs.get(workload, {}).get(size, {}).get(variant)


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(ops: list, setups: list) -> dict:
    ok = [r for r in ops if r["ok"]]
    rss = [r["peak_rss_mb"] for r in (ok or ops)]
    return {
        "solve_s": {"value": _median([r["elapsed_s"] for r in ok]),
                    "unit": "s"},
        "setup_s": {"value": _median(setups), "unit": "s"},
        "peak_rss_mb": {"value": _median(rss), "unit": "MB"},
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(rec: dict, overhead_s) -> dict:
    """Per-layer metrics from one traced operation."""
    snap = rec.get("trace", {})
    calls, total = snap.get("calls", {}), snap.get("total_s", {})
    self_s, counts = snap.get("self_s", {}), snap.get("counts", {})
    edges = snap.get("edges", {})
    stage_s = rec.get("stage_s", {})
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def timed(fn, with_calls=True):
        if with_calls:
            put(f"{fn}.calls", calls.get(fn, 0), "count")
        put(f"{fn}.s", total.get(fn, 0.0), "s")

    for stage in ("freespace", "describe", "simplify", "enumerate"):
        put(f"pipeline.{stage}_s", stage_s.get(stage, 0.0), "s")
    artifact = 0
    if "stage_s" in rec:
        artifact = cli_outputs(rec["dir"] / "in" / "out")["artifact_bytes"]
    put("pipeline.artifact_bytes", artifact, "bytes")

    timed("freespace.load_trunk", with_calls=False)
    timed("freespace.region_from_dict")
    for fn in ("raw_feasible_region", "erode_hull", "describe_region"):
        timed(f"freespace.{fn}", with_calls=False)
    timed("freespace.clip_obstacle")
    timed("freespace.classify_feasible", with_calls=False)
    put("freespace.classify_feasible.points",
        counts.get("freespace.classify_feasible.points", 0), "count")
    put("freespace.obstacles_kept_ratio",
        _ratio(counts.get("freespace.obstacles_kept", 0),
               counts.get("freespace.obstacles_clipped", 0)), "ratio")

    timed("geometry.polytopes_touch")
    put("geometry.polytopes_touch.true_ratio",
        _ratio(counts.get("geometry.polytopes_touch.true", 0),
               calls.get("geometry.polytopes_touch", 0)), "ratio")
    for fn in ("convex_hull", "fm_feasible", "intersect_halfspaces",
               "minkowski_sum_convex"):
        timed(f"geometry.{fn}")
    put("geometry.intersect_halfspaces.rows_mean",
        _ratio(counts.get("geometry.intersect_halfspaces.rows", 0),
               counts.get("geometry.intersect_halfspaces.sized", 0)), "rows")

    merges = counts.get("simplify.merges", 0)
    drops = counts.get("simplify.drops", 0)
    timed("simplify.merge_obstacles", with_calls=False)
    put("simplify.merges", merges, "count")
    put("simplify.merge_yield", _ratio(
        merges,
        edges.get("simplify.merge_obstacles > geometry.convex_hull", 0)),
        "ratio")
    timed("simplify.drop_facets", with_calls=False)
    put("simplify.drops", drops, "count")
    put("simplify.drop_yield", _ratio(
        drops, edges.get("simplify.drop_facets > lp.maximize_direction", 0)),
        "ratio")
    for key in ("obstacles_in", "obstacles_out", "facets_in", "facets_out"):
        put(f"simplify.{key}", counts.get(f"simplify.{key}", 0), "count")

    timed("lp.solve")
    put("lp.solve.rows_mean", _ratio(counts.get("lp.solve.rows", 0),
                                     calls.get("lp.solve", 0)), "rows")
    put("lp.solve.cols_mean", _ratio(counts.get("lp.solve.cols", 0),
                                     calls.get("lp.solve", 0)), "cols")
    timed("lp.build_lp")
    put("lp.failures", counts.get("lp.failures", 0), "count")
    timed("lp.maximize_direction")

    for key in ("nodes", "lp_calls", "pruned", "bb_branches", "bo_branches",
                "lp_failures", "improvements"):
        put(f"search.{key}", counts.get(f"search.stats.{key}", 0), "count")
    put("search.nodes_per_s",
        _ratio(counts.get("search.stats.nodes", 0),
               total.get("search.enumerate_patterns", 0.0)), "1/s")
    put("search.lp_yield", _ratio(counts.get("search.lp_feasible", 0),
                                  counts.get("search.lp_solves", 0)), "ratio")
    timed("search.detect_intersections", with_calls=False)
    put("search.self_s", self_s.get("search.enumerate_patterns", 0.0), "s")
    timed("search.validate_packing", with_calls=False)

    put("trace.overhead_s", overhead_s if overhead_s is not None else 0.0, "s")
    return m


def source_lines() -> dict:
    lines = {path.stem: len(path.read_text().splitlines())
             for path in sorted((ROOT / "src" / "trunkpack").glob("*.py"))}
    lines["total"] = sum(lines.values())
    return lines


# ---------------------------------------------------------------------------
# one measured run


def measure(args) -> tuple:
    """Set up, run operations for about ``args.seconds``, check them.
    Returns (result line, detail)."""
    refs = load_reference()
    ref = reference_for(refs, args.workload, args.size, args.seed)
    run_dir = WORK / f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    traced_mode = bool(args.trace)

    setups = []

    def sample_setup() -> float:
        """Time one set-up-only process; returns its wall time."""
        rec = _spawn_op(args, len(setups), False, True, run_dir / "setup")
        if rec["exit_code"] != 0 or "setup_s" not in rec:
            raise SystemExit(f"set-up failed: {rec.get('failure')}")
        setups.append(rec["setup_s"])
        return rec["wall_s"]

    def sample_setups():
        for _ in range(0 if traced_mode else SETUP_BATCH):
            sample_setup()

    ops = []
    started = time.monotonic()
    deadline = started + args.seconds
    sample_setups()
    while True:
        step_started = time.monotonic()
        traced = traced_mode and len(ops) % 2 == 1
        rec = _spawn_op(args, len(ops), traced, False, run_dir)
        problems = check(rec, ref)
        if args.record_reference and problems == [NO_REFERENCE]:
            ref = _record(refs, args, rec)
            problems = check(rec, ref)
        rec["ok"] = not problems
        if problems and "failure" not in rec:
            rec["failure"] = {"check": problems}
        if "setup_s" in rec and not traced:
            setups.append(rec["setup_s"])
        ops.append(rec)
        sample_setups()
        now = time.monotonic()
        kinds = {r["traced"] for r in ops}
        want_pair = traced_mode and len(kinds) < 2
        if not want_pair and now + (now - step_started) > deadline:
            break
    # the time left, too short for another operation, goes to more set-up
    # samples, so that they span more of the machine's drift
    last = 0.0
    while not traced_mode and time.monotonic() + last < deadline:
        last = sample_setup()

    untraced = [r for r in ops if not r["traced"]]
    failed = [r for r in untraced if not r["ok"]]
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "variant": workloads.variant_of(args.seed),
        "operations": len(untraced), "failed": len(failed),
        "failed_frac": len(failed) / len(untraced),
        "failures": [dict(r["failure"], op=r["op"])
                     for r in ops if not r["ok"]],
        "solve_s": sorted(r["elapsed_s"] for r in untraced if r["ok"]),
        "setup_s": sorted(setups),
        "peak_rss_mb": sorted(r["peak_rss_mb"] for r in untraced),
        "source_lines": source_lines(),
    }
    ok = [r for r in ops if r["ok"]]
    if ok:
        got = observed(ok[0])
        detail["validation_modes"] = {n: c["mode"]
                                      for n, c in got["cases"].items()}
        detail["counters"] = got["counters"]
        if ref is not None:
            detail["counters_match_reference"] = (
                got["counters"] == ref.get("counters"))
    if "known_defect" in refs.get(args.workload, {}):
        detail["known_defect"] = refs[args.workload]["known_defect"]

    if traced_mode:
        traced_ops = [r for r in ops if r["traced"]]
        t_solve = [r["elapsed_s"] for r in traced_ops if "elapsed_s" in r]
        u_solve = [r["elapsed_s"] for r in untraced if "elapsed_s" in r]
        overhead = (_median(t_solve) - _median(u_solve)
                    if t_solve and u_solve else None)
        detail["traced_solve_s"] = t_solve
        detail["untraced_solve_s"] = u_solve
        detail["trace"] = traced_ops[0].get("trace", {})
        metrics = per_layer(traced_ops[0], overhead)
        attempted, n_failed = len(ops), sum(1 for r in ops if not r["ok"])
    else:
        metrics = end_to_end(untraced, setups)
        attempted, n_failed = len(untraced), len(failed)
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it
        pass
    line = {"correct": n_failed == 0, "attempted": attempted,
            "failed": n_failed, "metrics": metrics}
    return line, detail


def _record(refs: dict, args, rec: dict) -> dict:
    """Store this operation's outputs as the reference for its variant."""
    got = observed(rec)
    entry = {"cases": {name: {k: c[k] for k in REF_KEYS}
                       for name, c in got["cases"].items()},
             "counters": got["counters"]}
    if "digests" in got:
        entry["digests"] = got["digests"]
    refs.setdefault(args.workload, {}).setdefault(args.size, {})[
        str(workloads.variant_of(args.seed))] = entry
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="start operations until this much time is used")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full", choices=workloads.SIZES)
    p.add_argument("--record-reference", action="store_true",
                   help="store outputs as the reference where none exists")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "trunkpack" / "pipeline.py").is_file():
        print(f"trunkpack sources not found under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    if args.workload != "all":
        line, detail = measure(args)
        print(json.dumps({"detail": detail}))
        print(json.dumps(line))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        line, detail = measure(
            argparse.Namespace(**dict(vars(args), workload=workload)))
        print(json.dumps({"detail": detail}))
        print(f"# {workload}: {detail['operations']} operations, "
              f"{detail['failed']} failed")
        metrics = dict(line["metrics"])
        if not args.trace:
            metrics["failed_frac"] = {"value": detail["failed_frac"],
                                      "unit": "ratio"}
        for name, m in metrics.items():
            print(f"#   {name:<40} {m['value']!s:>14} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
