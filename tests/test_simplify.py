"""Tests for obstacle merging and facet dropping.

Oracles stated up front (all volumes exact):

* flush unit cubes [0,1]^3 and [1,2]x[0,1]^2: union volume 2, hull
  [0,2]x[0,1]^2 volume 2 -> growth 0, merged even at zero budgets, and the
  facet count falls from 12 to 6.
* overlapping cubes [0,1]^3 and [1/2,3/2]x[0,1]^2: inclusion-exclusion base
  1 + 1 - 1/2 = 3/2, hull volume 3/2 -> growth 0.
* edge-touching L (unit cube plus [1,2]x[1,2]x[0,1]): base 2, hull is the
  prism over the hexagon (0,0),(1,0),(2,1),(2,2),(1,2),(0,1) with area 3,
  so growth 1 mm^3 exactly.
* dropping the x<=1 facet of a unit-cube obstacle inside hull [0,10]^3
  lets the forbidden set reach the hull wall x=10: growth 9 mm, rejected at
  a 1 mm budget; facets made redundant by the hull itself (the minus sides
  here) cost growth 0 and are always dropped.
* a hand-added non-tight halfspace has facet area 0, is visited first, and
  is dropped at growth <= 0 for any budget.
* the merge loop that tested every pair in every sweep and computed every
  candidate's overlap volume, kept verbatim below, gives the same log and
  the same obstacles as ``merge_obstacles`` on seeded obstacle sets.
"""

import dataclasses
import json
import random
from array import array
from fractions import Fraction
from typing import List

import numpy as np
import pytest

from trunkpack.catalog import BoxType
from trunkpack.freespace import (DEFAULT_SEED, Region, classify_feasible,
                                 clip_obstacle, describe_region,
                                 enlarged_hull, estimate_volume,
                                 parse_mesh_json, raw_feasible_region,
                                 region_from_dict, region_json, region_seed,
                                 sample_lattice_points)
from trunkpack import simplify
from trunkpack.geometry import (ConvexPolytope, Halfspace, axis_aligned_box,
                                convex_hull, polytopes_touch, to_fraction)
from trunkpack.simplify import (MergedObstacle, MergeParams,
                                _pairwise_intersection_volume,
                                contractiveness_violations, drop_facets,
                                format_log, merge_obstacles, read_log,
                                shared_sample_volumes)

F = Fraction


def region(hull, obstacles):
    return Region("A", "zyx", hull, list(obstacles))


def hull10():
    return axis_aligned_box((0, 0, 0), (10, 10, 10), id="hull")


def box(lo, hi, id=None):
    return axis_aligned_box(lo, hi, id=id)


# ---------------------------------------------------------------------------
# merging


def test_flush_cubes_merge_at_zero_budget():
    r = region(hull10(), [box((0, 0, 0), (1, 1, 1), "o0"),
                          box((1, 0, 0), (2, 1, 1), "o1")])
    out, log = merge_obstacles(r, MergeParams(0.0, 0.0, rng_seed=1))
    assert len(out.obstacles) == 1
    merged = out.obstacles[0]
    assert merged.volume() == 2
    assert len(merged.halfspaces) == 6
    assert merged.id == "m0"
    (entry,) = log
    assert entry["merged"] == ["o0", "o1"]
    assert entry["members"] == ["o0", "o1"]
    assert entry["base_exact"] == "2"
    assert entry["growth_exact"] == "0"
    assert entry["facets_before"] == 12 and entry["facets_after"] == 6
    assert entry["base_approximate"] is False
    assert out.facet_count() < r.facet_count()


def test_non_touching_pair_never_merged():
    r = region(hull10(), [box((0, 0, 0), (1, 1, 1), "o0"),
                          box((3, 0, 0), (4, 1, 1), "o1")])
    out, log = merge_obstacles(r, MergeParams(1e9, 1e9, rng_seed=1))
    assert len(out.obstacles) == 2
    assert log == []


def test_overlapping_cubes_inclusion_exclusion_base():
    r = region(hull10(), [box((0, 0, 0), (1, 1, 1), "o0"),
                          box((F(1, 2), 0, 0), (F(3, 2), 1, 1), "o1")])
    out, log = merge_obstacles(r, MergeParams(0.0, 0.0, rng_seed=5))
    assert len(out.obstacles) == 1
    assert out.obstacles[0].volume() == F(3, 2)
    (entry,) = log
    assert entry["base_exact"] == "3/2"
    assert entry["growth_exact"] == "0"
    assert entry["base_approximate"] is False


def test_edge_touching_l_growth_one():
    obstacles = [box((0, 0, 0), (1, 1, 1), "o0"),
                 box((1, 1, 0), (2, 2, 1), "o1")]
    # growth 1 > abs 0.5 and 100*1 > 10*2 -> rejected
    out, log = merge_obstacles(region(hull10(), obstacles),
                               MergeParams(10.0, 0.5, rng_seed=2))
    assert len(out.obstacles) == 2 and log == []
    # abs budget 1 admits it
    out, log = merge_obstacles(region(hull10(), obstacles),
                               MergeParams(0.0, 1.0, rng_seed=2))
    assert len(out.obstacles) == 1
    assert log[0]["growth_exact"] == "1"
    assert out.obstacles[0].volume() == 3
    # relative budget exactly at the boundary (100*growth == 50*base) admits
    out, log = merge_obstacles(region(hull10(), obstacles),
                               MergeParams(50.0, 0.0, rng_seed=2))
    assert len(out.obstacles) == 1


def test_merge_requires_strict_facet_decrease():
    # two tetrahedra touching at a single vertex, in general position: the
    # hull of their 8 corners has at least 8 facets, so merging would not
    # shrink the description and must be refused no matter the volume budget
    t1 = convex_hull([(0, 0, 0), (4, 0, 1), (0, 4, 1), (1, 1, 5)], id="o0")
    t2 = convex_hull([(1, 1, 5), (5, 2, 6), (1, 6, 7), (3, 2, 10)], id="o1")
    hull = convex_hull(list(t1.vertices) + list(t2.vertices))
    assert len(hull.halfspaces) >= len(t1.halfspaces) + len(t2.halfspaces)
    big = axis_aligned_box((-20, -20, -20), (20, 20, 20), id="hull")
    out, log = merge_obstacles(region(big, [t1, t2]),
                               MergeParams(1e9, 1e9, rng_seed=3))
    assert len(out.obstacles) == 2 and log == []


def test_chain_merge_flags_approximate_base():
    obstacles = [box((0, 0, 0), (1, 1, 1), "o0"),
                 box((F(1, 2), 0, 0), (F(3, 2), 1, 1), "o1"),
                 box((F(6, 5), 0, 0), (F(11, 5), 1, 1), "o2")]
    out, log = merge_obstacles(region(hull10(), obstacles),
                               MergeParams(0.0, 10.0, rng_seed=7))
    assert len(out.obstacles) == 1
    assert out.obstacles[0].volume() == F(11, 5)
    assert len(log) == 2
    assert log[0]["base_approximate"] is False
    assert log[1]["base_approximate"] is True
    assert log[1]["members"] == ["o0", "o1", "o2"]


def test_merge_is_deterministic_for_a_seed():
    obstacles = [box((i, 0, 0), (i + 1, 1, 1), f"o{i}") for i in range(5)]
    first = merge_obstacles(region(hull10(), obstacles),
                            MergeParams(5.0, 100.0, rng_seed=11))
    second = merge_obstacles(region(hull10(), obstacles),
                             MergeParams(5.0, 100.0, rng_seed=11))
    assert json.dumps(first[1], sort_keys=True) == json.dumps(second[1],
                                                              sort_keys=True)
    assert [o.id for o in first[0].obstacles] == [o.id for o in second[0].obstacles]


def test_merge_budget_validation():
    with pytest.raises(ValueError):
        MergeParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        MergeParams(0.0, -0.5)


# ---------------------------------------------------------------------------
# merging against the loop that decides everything afresh in every sweep


def oracle_merge_obstacles(region, params: MergeParams):
    """Greedy randomized merging of touching obstacle pairs.

    Returns ``(region_with_merged_obstacles, log_entries)``.  Sweeps visit
    all currently-touching pairs in seeded random order, merging any pair
    whose hull passes both the volume-growth budget and a strict facet-count
    decrease; sweeps repeat until none merges.  Only geometrically touching
    pairs are ever considered.  The union volume of chains that overlapped
    before merging is tracked approximately (inclusion-exclusion on the
    recorded pair only) and flagged ``base_approximate``.
    """
    rel = to_fraction(params.rel_bound_pct)
    abs_bound = to_fraction(params.abs_bound_mm3)
    rng = random.Random(params.rng_seed)
    state = [MergedObstacle(o, o.volume(), (o.id or f"o{i}",))
             for i, o in enumerate(region.obstacles)]
    log: List[dict] = []
    next_id = 0
    while True:
        pairs = [(i, j)
                 for i in range(len(state))
                 for j in range(i + 1, len(state))
                 if polytopes_touch(state[i].polytope, state[j].polytope)]
        rng.shuffle(pairs)
        consumed = set()
        fresh: List[MergedObstacle] = []
        for (i, j) in pairs:
            if i in consumed or j in consumed:
                continue
            first, second = state[i], state[j]
            hull = convex_hull(
                list(first.polytope.vertices) + list(second.polytope.vertices),
                id=f"m{next_id}")
            if len(hull.halfspaces) >= (len(first.polytope.halfspaces)
                                        + len(second.polytope.halfspaces)):
                continue
            overlap = _pairwise_intersection_volume(first.polytope, second.polytope)
            base = first.base_volume_mm3 + second.base_volume_mm3 - overlap
            growth = hull.volume() - base
            if not (growth <= abs_bound or growth * 100 <= rel * base):
                continue
            approximate = (first.base_approximate or second.base_approximate
                           or (overlap > 0 and (len(first.member_ids) > 1
                                                or len(second.member_ids) > 1)))
            members = tuple(sorted(first.member_ids + second.member_ids))
            log.append({
                "id": hull.id,
                "merged": sorted([first.polytope.id or first.member_ids[0],
                                  second.polytope.id or second.member_ids[0]]),
                "members": list(members),
                "base_mm3": float(base),
                "base_exact": str(base),
                "hull_mm3": float(hull.volume()),
                "hull_exact": str(hull.volume()),
                "growth_mm3": float(growth),
                "growth_exact": str(growth),
                "facets_before": len(first.polytope.halfspaces)
                                 + len(second.polytope.halfspaces),
                "facets_after": len(hull.halfspaces),
                "base_approximate": approximate,
            })
            fresh.append(MergedObstacle(hull, base, members, approximate))
            consumed.update((i, j))
            next_id += 1
        if not fresh:
            break
        state = [s for k, s in enumerate(state) if k not in consumed] + fresh
    obstacles = [s.polytope for s in state]
    return dataclasses.replace(region, obstacles=obstacles), log


# (rel %, abs mm^3): zero budgets, abs only, rel only, both, unlimited
ORACLE_BUDGETS = [(0.0, 0.0), (0.0, 1.0), (25.0, 0.0), (10.0, 0.5),
                  (50.0, 2.0), (1e9, 1e9)]


def _oracle_case(seed):
    """A seeded obstacle set on a grid of thirds, halves or integers: boxes
    each flush against an earlier one at a face, an edge or a vertex,
    overlapping it or apart from it, a pair of tetrahedra whose bounding
    boxes overlap while the bodies do not touch, and a box that touches
    only the hull of two others."""
    rng = random.Random(seed)
    unit = (F(1, 3), F(1, 2), F(1))[seed % 3]
    grid = []
    for _ in range(rng.randint(7, 10)):
        size = [rng.randint(1, 3) for _ in range(3)]
        if not grid:
            lo = [0, 0, 0]
        else:
            lo0, hi0 = rng.choice(grid)
            lo = [rng.randint(lo0[a], hi0[a] - 1) for a in range(3)]
            kind = rng.choice(("face", "edge", "vertex", "overlap", "apart"))
            axes = rng.sample(range(3), {"face": 1, "edge": 2, "vertex": 3,
                                         "overlap": 0, "apart": 1}[kind])
            for a in axes:
                lo[a] = hi0[a] + (kind == "apart")
        grid.append((lo, [lo[a] + size[a] for a in range(3)]))
    obstacles = [box([c * unit for c in lo], [c * unit for c in hi], f"o{k}")
                 for k, (lo, hi) in enumerate(grid)]
    shift = [rng.randint(-4, 4) for _ in range(3)]

    def at(p):
        return tuple((c + t) * unit for c, t in zip(p, shift))

    obstacles.append(convex_hull([at(p) for p in ((0, 0, 0), (2, 0, 0),
                                                  (0, 2, 0), (0, 0, 2))],
                                 id=f"o{len(obstacles)}"))
    obstacles.append(convex_hull([at(p) for p in ((2, 2, 2), (1, 2, 2),
                                                  (2, 1, 2), (2, 2, 1))],
                                 id=f"o{len(obstacles)}"))
    # an edge-touching L and a box that touches neither of its boxes but
    # meets their hull on its diagonal facet x - y = 2 at (3, 1)
    shift = [rng.randint(-4, 4) for _ in range(3)]
    for lo, hi in (((0, 0, 0), (2, 2, 2)), ((2, 2, 0), (4, 4, 2)),
                   ((3, -2, 0), (5, 1, 2))):
        obstacles.append(box(at(lo), at(hi), f"o{len(obstacles)}"))
    rel, abs_mm3 = ORACLE_BUDGETS[seed % len(ORACLE_BUDGETS)]
    hull = axis_aligned_box((-60, -60, -60), (60, 60, 60), id="hull")
    return region(hull, obstacles), MergeParams(rel, abs_mm3, rng_seed=seed)


def _shapes(obstacles):
    return [(o.id, [h.key() for h in o.halfspaces], [v._h for v in o.vertices])
            for o in obstacles]


def _counting(monkeypatch, namespace, counts, prefix):
    """Wrap the touch test and the overlap volume seen by ``namespace``."""
    for name, fn in (("polytopes_touch", polytopes_touch),
                     ("_pairwise_intersection_volume",
                      _pairwise_intersection_volume)):
        def counted(*args, _fn=fn, _key=prefix + name):
            counts[_key] = counts.get(_key, 0) + 1
            return _fn(*args)
        if isinstance(namespace, dict):
            monkeypatch.setitem(namespace, name, counted)
        else:
            monkeypatch.setattr(namespace, name, counted)


def test_merge_matches_the_oracle_loop(monkeypatch):
    counts = {}
    _counting(monkeypatch, simplify, counts, "new.")
    _counting(monkeypatch, globals(), counts, "oracle.")
    merges = 0
    for seed in range(36):
        r, params = _oracle_case(seed)
        expect_region, expect_log = oracle_merge_obstacles(r, params)
        got_region, got_log = merge_obstacles(r, params)
        assert got_log == expect_log, seed
        assert _shapes(got_region.obstacles) == _shapes(expect_region.obstacles), seed
        merges += len(got_log)
    assert merges > 36
    # memoised verdicts and the zero-overlap rejection both ran
    assert counts["new.polytopes_touch"] < counts["oracle.polytopes_touch"]
    assert (counts["new._pairwise_intersection_volume"]
            < counts["oracle._pairwise_intersection_volume"])


def _content(poly):
    return tuple(v._h for v in poly.vertices)


def _duplicate_case(seed):
    """The seeded obstacle set of ``_oracle_case`` with each obstacle
    rebuilt 1-4 times under fresh ids, in shuffled order, plus two flush
    boxes, each twice, whose hull is a third box in the set."""
    r, params = _oracle_case(seed)
    rng = random.Random(1000 + seed)
    shapes = [o.vertices for o in r.obstacles
              for _ in range(rng.randint(1, 4))]
    for lo, hi in (((40, 0, 0), (41, 1, 1)), ((41, 0, 0), (42, 1, 1))):
        shapes += [box(lo, hi).vertices] * 2
    shapes.append(box((40, 0, 0), (42, 1, 1)).vertices)
    rng.shuffle(shapes)
    obstacles = [convex_hull(v, id=f"o{k}") for k, v in enumerate(shapes)]
    return region(r.hull, obstacles), params


def _content_keys(monkeypatch, namespace, keys, prefix):
    """Record the content of the arguments of each touch test, candidate
    hull and overlap volume seen by ``namespace``: unordered pairs for the
    symmetric questions, the point list for a hull."""
    for name, fn, key in (
            ("polytopes_touch", polytopes_touch,
             lambda p, q: tuple(sorted((_content(p), _content(q))))),
            ("convex_hull", convex_hull,
             lambda points, **kw: tuple(p._h for p in points)),
            ("_pairwise_intersection_volume", _pairwise_intersection_volume,
             lambda p, q: tuple(sorted((_content(p), _content(q)))))):
        seen = keys.setdefault(prefix + name, [])

        def recorded(*args, _fn=fn, _key=key, _seen=seen, **kw):
            _seen.append(_key(*args, **kw))
            return _fn(*args, **kw)
        if isinstance(namespace, dict):
            monkeypatch.setitem(namespace, name, recorded)
        else:
            monkeypatch.setattr(namespace, name, recorded)


def test_repeated_obstacles_decide_each_content_pair_once(monkeypatch):
    cases = [_duplicate_case(seed) for seed in range(12)]
    keys = {}
    _content_keys(monkeypatch, simplify, keys, "new.")
    _content_keys(monkeypatch, globals(), keys, "oracle.")
    repeated = set()
    for seed, (r, params) in enumerate(cases):
        for seen in keys.values():
            seen.clear()
        expect_region, expect_log = oracle_merge_obstacles(r, params)
        got_region, got_log = merge_obstacles(r, params)
        assert got_log == expect_log, seed
        assert (_shapes(got_region.obstacles)
                == _shapes(expect_region.obstacles)), seed
        # a remembered hull was built from the same point list, so it has
        # the same boundary triangulation
        assert ([[[p._h for p in t] for t in o._triangles]
                 for o in got_region.obstacles]
                == [[[p._h for p in t] for t in o._triangles]
                    for o in expect_region.obstacles]), seed
        # the flush pair merged into the third box's shape at least once
        assert any(e["hull_exact"] == "2" and e["growth_exact"] == "0"
                   for e in expect_log), seed
        for name in ("polytopes_touch", "convex_hull",
                     "_pairwise_intersection_volume"):
            new, oracle = keys["new." + name], keys["oracle." + name]
            # the memoised merge asks each question once per call, and only
            # questions the oracle asked too
            assert len(new) == len(set(new)), (seed, name)
            assert set(new) <= set(oracle), (seed, name)
            if len(set(oracle)) < len(oracle):
                repeated.add(name)
        assert set(keys["new.convex_hull"]) == set(keys["oracle.convex_hull"])
    # the cases make the oracle repeat every kind of question
    assert repeated == {"polytopes_touch", "convex_hull",
                        "_pairwise_intersection_volume"}


def test_chain_of_three_sweeps_matches_the_oracle():
    # eight flush cubes in a row merge into one at zero growth; each sweep
    # merges an obstacle at most once, so that takes at least three sweeps
    obstacles = [box((i * F(1, 3), 0, 0), ((i + 1) * F(1, 3), F(1, 2), 1),
                     f"o{i}") for i in range(8)]
    r = region(hull10(), obstacles)
    for seed in range(3):
        params = MergeParams(0.0, 0.0, rng_seed=seed)
        expect_region, expect_log = oracle_merge_obstacles(r, params)
        got_region, got_log = merge_obstacles(r, params)
        assert len(got_region.obstacles) == 1 and len(got_log) == 7
        assert got_log == expect_log
        assert _shapes(got_region.obstacles) == _shapes(expect_region.obstacles)


def _mesh_cube_raw_region(edge, cells):
    """The raw region of box T (610 x 483 x 458, orientation xyz) in a mesh
    cube whose faces are cut into cells x cells squares of two triangles
    each."""
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
    trunk = parse_mesh_json({"triangles": tris, "seed": [edge // 2] * 3})
    return raw_feasible_region(trunk, BoxType("T", (610, 483, 458), 1), "xyz")


def _mesh_cube_feasible_region(edge, cells):
    """The described region of ``_mesh_cube_raw_region(edge, cells)``."""
    return describe_region(_mesh_cube_raw_region(edge, cells), samples=100,
                           seed=1)


def _describe_unshared(raw, samples, seed):
    """``describe_region`` as it was before it shared the lists of
    obstacles with the same clipped shape: every kept obstacle is its own
    clip."""
    margin = enlarged_hull(raw.hull)
    kept = []
    for obs in raw.obstacles:
        clipped = clip_obstacle(obs.halfspaces, margin, id=f"o{len(kept)}")
        if clipped is not None and not clipped.degenerate and \
                polytopes_touch(clipped, raw.hull):
            kept.append(clipped)
    vol, stderr = estimate_volume(raw.hull, kept, samples, seed)
    return Region(raw.box_id, raw.orientation, raw.hull, kept, raw.fattened,
                  vol, stderr, samples, seed)


def _sharing(obstacles):
    """Per obstacle, the index of the first obstacle whose vertex and
    halfspace lists it holds."""
    first = {}
    out = []
    for i, o in enumerate(obstacles):
        k = first.setdefault(id(o.vertices), i)
        assert o.halfspaces is obstacles[k].halfspaces
        out.append(k)
    return out


def test_describe_shares_lists_per_clipped_shape():
    raw = _mesh_cube_raw_region(700, 4)
    got = describe_region(raw, samples=100, seed=1)
    unshared = _describe_unshared(raw, 100, 1)
    text = region_json(got)
    assert text == region_json(unshared)
    assert [o.id for o in got.obstacles] == \
        [f"o{i}" for i in range(len(got.obstacles))]
    # one list per distinct shape, shared by exactly that shape's obstacles
    first = {}
    expect = [first.setdefault(_content(o), i)
              for i, o in enumerate(unshared.obstacles)]
    assert _sharing(got.obstacles) == expect
    assert len(got.obstacles) == 192 and len(first) < len(got.obstacles)
    # a decoded file shares the same way
    assert _sharing(region_from_dict(json.loads(text)).obstacles) == expect


def _old_touching_pairs(verdicts, contents):
    """The sweep's touching pairs as the merge built them before: the
    int64 ``np.nonzero`` of the upper triangle of the live x live matrix."""
    return np.nonzero(np.triu(
        verdicts[np.ix_(contents, contents)] == simplify._TOUCH, 1))


def _old_shuffled_pairs(rng, left, right):
    """``_shuffled_pairs`` as it was over int64 index arrays."""
    order = array("q", range(len(left)))
    rng.shuffle(order)
    order = np.frombuffer(order, dtype=np.int64)
    return list(zip(left[order].tolist(), right[order].tolist()))


def test_int32_pair_lists_keep_the_pair_order():
    rng = np.random.default_rng(5)
    lengths = set()
    for trial in range(60):
        shapes = int(rng.integers(1, 30))
        # a symmetric verdict matrix with room to grow, as the merge keeps
        # it, and live obstacles that repeat shapes
        verdicts = rng.integers(0, 3, size=(2 * shapes,) * 2).astype(np.int8)
        verdicts = np.triu(verdicts) + np.triu(verdicts, 1).T
        contents = rng.integers(0, shapes, size=int(rng.integers(0, 200)))
        left, right = simplify._touching_pairs(verdicts, contents)
        old_left, old_right = _old_touching_pairs(verdicts, contents)
        assert left.dtype == right.dtype == np.int32
        assert (left == old_left).all() and (right == old_right).all()
        alive = bytearray(b"\x01") * len(contents)
        got = list(simplify._shuffled_pairs(random.Random(trial), left, right,
                                            alive))
        assert got == _old_shuffled_pairs(random.Random(trial), old_left,
                                          old_right)
        lengths.add(len(got) > simplify._CHUNK)
    assert lengths == {False, True}


def test_inlined_shuffle_is_random_shuffle():
    for seed in (0, 1, 29, 12345, 2 ** 40 + 3):
        for n in range(301):
            expect, got = random.Random(seed), random.Random(seed)
            items = list(range(n))
            expect.shuffle(items)
            order = array("i", range(n))
            simplify._shuffle(got, order)
            assert list(order) == items, (seed, n)
            assert got.getstate() == expect.getstate(), (seed, n)


def test_alive_filter_accepts_the_pairs_of_the_set_walk():
    rng = np.random.default_rng(29)
    sizes = set()
    for trial in range(40):
        shapes = int(rng.integers(1, 30))
        verdicts = rng.integers(0, 3, size=(2 * shapes,) * 2).astype(np.int8)
        verdicts = np.triu(verdicts) + np.triu(verdicts, 1).T
        contents = rng.integers(0, shapes, size=int(rng.integers(0, 200)))
        left, right = simplify._touching_pairs(verdicts, contents)
        # a pair is accepted by a fixed seeded verdict of its own
        accept = rng.random((len(contents),) * 2) < 0.3

        alive = bytearray(b"\x01") * len(contents)
        got = []
        for i, j in simplify._shuffled_pairs(random.Random(trial), left,
                                             right, alive):
            if alive[i] and alive[j] and accept[i, j]:
                got.append((i, j))
                alive[i] = alive[j] = 0
        consumed = set()
        expect = []
        for i, j in _old_shuffled_pairs(random.Random(trial), left, right):
            if i in consumed or j in consumed or not accept[i, j]:
                continue
            expect.append((i, j))
            consumed.update((i, j))
        assert got == expect, trial
        sizes.add(len(left) > simplify._CHUNK)
    assert sizes == {False, True}


def test_mesh_cube_merge_matches_the_oracle(monkeypatch):
    # the 4 x 4 mesh cube: one obstacle per triangle, many of one shape,
    # merged with the command line's seed over several sweeps
    r = _mesh_cube_feasible_region(700, 4)
    params = MergeParams(rng_seed=region_seed(DEFAULT_SEED, "T", "xyz"))
    sweeps = []

    def counted(*args, _real=simplify._shuffled_pairs):
        sweeps.append(len(args[1]))
        return _real(*args)

    monkeypatch.setattr(simplify, "_shuffled_pairs", counted)
    expect_region, expect_log = oracle_merge_obstacles(r, params)
    got_region, got_log = merge_obstacles(r, params)
    assert len(r.obstacles) == 192 and len(got_log) == 185
    assert len(sweeps) == 6 and sweeps[-1] > 0
    assert got_log == expect_log
    assert _shapes(got_region.obstacles) == _shapes(expect_region.obstacles)


@pytest.mark.parametrize("rel, abs_mm3", [
    (0.0, 1.0),    # growth 1 at overlap 0 equals the absolute bound
    (50.0, 0.5),   # past the absolute bound; 100 * 1 == 50 * 2 exactly
])
def test_zero_overlap_rejection_spares_budget_boundaries(monkeypatch, rel,
                                                         abs_mm3):
    obstacles = [box((0, 0, 0), (1, 1, 1), "o0"),
                 box((1, 1, 0), (2, 2, 1), "o1")]
    params = MergeParams(rel, abs_mm3, rng_seed=2)
    counts = {}
    _counting(monkeypatch, simplify, counts, "new.")
    got_region, got_log = merge_obstacles(region(hull10(), obstacles), params)
    # the overlap was computed: the pair was not rejected at overlap 0
    assert counts["new._pairwise_intersection_volume"] == 1
    expect_region, expect_log = oracle_merge_obstacles(
        region(hull10(), obstacles), params)
    assert len(got_log) == 1 and got_log == expect_log
    assert _shapes(got_region.obstacles) == _shapes(expect_region.obstacles)


def test_overlap_can_still_reject_after_passing_at_zero(monkeypatch):
    # [0,2]^2 x [0,1] and [1,3]^2 x [0,1]: bases sum 8 = hull volume, so the
    # growth is 0 at overlap 0; the true overlap 1 makes base 7, growth 1
    obstacles = [box((0, 0, 0), (2, 2, 1), "o0"),
                 box((1, 1, 0), (3, 3, 1), "o1")]
    params = MergeParams(10.0, 0.5, rng_seed=1)
    counts = {}
    _counting(monkeypatch, simplify, counts, "new.")
    _, got_log = merge_obstacles(region(hull10(), obstacles), params)
    _, expect_log = oracle_merge_obstacles(region(hull10(), obstacles), params)
    assert counts["new._pairwise_intersection_volume"] == 1
    assert got_log == expect_log == []


# ---------------------------------------------------------------------------
# facet dropping


def test_drop_rejects_growth_to_the_far_wall():
    r = region(hull10(), [box((0, 0, 0), (1, 1, 1), "o0")])
    out, log = drop_facets(r, max_growth_mm=1.0)
    # the three plus-side facets (growth 9) stay; the three minus-side
    # facets are redundant given the hull rows and drop at growth 0
    dropped = [e for e in log if e["status"] == "dropped"]
    assert len(dropped) == 3
    for e in dropped:
        assert e["growth_mm"] <= 0.0
        assert sum(e["facet"]["n"]) == -1
    kept_normals = {tuple(h.normal) for h in out.obstacles[0].halfspaces}
    assert (1, 0, 0) in kept_normals and (0, 1, 0) in kept_normals \
        and (0, 0, 1) in kept_normals
    # forbidden set within the hull is unchanged: same free samples
    pts = sample_lattice_points(r.hull.bbox(), 4000, 99)
    before = classify_feasible(pts, r.hull, r.obstacles)
    after = classify_feasible(pts, out.hull, out.obstacles)
    assert np.array_equal(before, after)


def test_drop_budget_ten_swallows_the_toy_obstacle():
    r = region(hull10(), [box((0, 0, 0), (1, 1, 1), "o0")])
    out, log = drop_facets(r, max_growth_mm=10.0)
    assert len([e for e in log if e["status"] == "dropped"]) == 6
    pts = sample_lattice_points(r.hull.bbox(), 500, 3)
    after = classify_feasible(pts, out.hull, out.obstacles)
    assert int(after.sum()) == 0  # nothing inside the hull stays free
    before = classify_feasible(pts, r.hull, r.obstacles)
    assert not np.any(after & ~before)


def test_redundant_halfspace_drops_first_at_any_budget():
    cube = box((2, 2, 2), (3, 3, 3), "o0")
    padded = ConvexPolytope(list(cube.halfspaces) + [Halfspace((1, 0, 0), 5)],
                            cube.vertices, triangles=cube._triangles, id="o0")
    r = region(hull10(), [padded])
    out, log = drop_facets(r, max_growth_mm=0.0)
    (entry,) = log
    assert entry["status"] == "dropped"
    assert entry["facet"] == {"n": [1, 0, 0], "d": 5}
    assert entry["growth_mm"] == -2.0
    assert out.obstacles[0].volume() == 1
    assert len(out.obstacles[0].halfspaces) == 6
    assert out.facet_count() == r.facet_count() - 1


def test_interior_obstacle_keeps_all_facets_at_small_budget():
    r = region(hull10(), [box((4, 4, 4), (6, 6, 6), "o0")])
    out, log = drop_facets(r, max_growth_mm=1.0)
    assert log == []
    assert out.obstacles[0] is r.obstacles[0]


def test_drop_log_growth_reverifies_exactly():
    r = region(hull10(), [box((0, 0, 0), (1, 1, 1), "o0")])
    out, log = drop_facets(r, max_growth_mm=10.0)
    for e in log:
        if e["status"] != "dropped":
            continue
        num = Fraction(e["growth_exact"]["num"])
        nsq = e["growth_exact"]["norm_sq"]
        assert num * num <= Fraction(10) ** 2 * nsq or num <= 0
        assert e["bound_mm"] == 10.0


def test_drop_negative_budget_rejected():
    with pytest.raises(ValueError):
        drop_facets(region(hull10(), []), max_growth_mm=-1)


# ---------------------------------------------------------------------------
# reports and contractiveness


def _cluttered_region():
    hull = axis_aligned_box((0, 0, 0), (100, 100, 100), id="hull")
    obstacles = [
        box((20, 20, 20), (34, 33, 35), "o0"),
        box((34, 20, 20), (47, 34, 33), "o1"),
        box((60, 60, 20), (75, 74, 36), "o2"),
        box((60, 74, 20), (74, 88, 34), "o3"),
        box((20, 60, 60), (35, 75, 74), "o4"),
    ]
    return region(hull, obstacles)


def test_simplify_is_contractive_and_reported():
    r = _cluttered_region()
    merged, mlog = merge_obstacles(r, MergeParams(10.0, 2000.0, rng_seed=4))
    final, dlog = drop_facets(merged, max_growth_mm=2.0)
    assert mlog  # the flush pairs actually merge
    check = contractiveness_violations(r, final, samples=20000, seed=17)
    assert check["checked"] == 20000
    assert check["violations"] == 0
    # both volumes are estimated over one sample box, so their ratio is the
    # ratio of the free sample counts
    _, free_before, free_after, _ = shared_sample_volumes(
        r, final, samples=20000, seed=17)
    volume_ratio_pct = 100.0 * free_after.sum() / free_before.sum()
    assert volume_ratio_pct <= 100.0
    assert volume_ratio_pct >= 90.0
    assert final.facet_count() <= r.facet_count()
    assert len(free_before) == 20000
    if mlog or dlog:
        assert final.facet_count() < r.facet_count()


def test_shared_samples_are_actually_shared():
    r = _cluttered_region()
    pts1, mb, ma, _ = shared_sample_volumes(r, r, samples=500, seed=23)
    assert np.array_equal(mb, ma)
    pts2 = sample_lattice_points(r.hull.bbox(), 500, 23)
    assert np.array_equal(pts1.num, pts2.num)


def test_log_round_trip(tmp_path):
    entries = [{"obstacle": "o0", "status": "dropped", "growth_mm": 0.25},
               {"id": "m0", "merged": ["o1", "o2"], "growth_exact": "1/3"}]
    path = tmp_path / "log.jsonl"
    path.write_text(format_log(entries), encoding="utf-8")
    assert read_log(str(path)) == entries
    text = path.read_text()
    assert len(text.strip().splitlines()) == 2
