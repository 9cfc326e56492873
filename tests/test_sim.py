import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornergraph.extended import NodeMismatch
from cornergraph.frames import build_scene_graph
from cornergraph.graphs import ADVERSARY_CATEGORIES, ActorCategory
from cornergraph.scenarios import ScenarioTemplate, generate, ground_truth_graph
from cornergraph.sim import (
    BASIC_EMERGENCY_GAP,
    BODY_SIZES,
    COLLISION_IOU,
    EGO_ACCEL,
    EGO_CORRIDOR_HALF,
    NEAR_MISS_CLEARANCE,
    STANDSTILL_GAP,
    AdversaryPlan,
    ControllerProfile,
    EpisodeResult,
    ExecutableScenario,
    Outcome,
    PROFILES,
    _box_ious,
    _plan_poses,
    _plan_table,
    box_corners,
    box_iou,
    format_scr_table,
    polygon_clearance,
    realize,
    run_episode,
    scr_report,
    simulate_batch,
)


# --- geometry --------------------------------------------------------------


def test_box_corners_axis_aligned():
    poly = box_corners(0.0, 0.0, 0.0, 4.0, 2.0)
    xs = sorted(p[0] for p in poly)
    ys = sorted(p[1] for p in poly)
    # heading 0 points along +y, so length spans y and width spans x
    assert xs == pytest.approx([-1.0, -1.0, 1.0, 1.0])
    assert ys == pytest.approx([-2.0, -2.0, 2.0, 2.0])
    assert _reference_area(poly) == pytest.approx(8.0)


def test_box_corners_rotation():
    poly = box_corners(0.0, 0.0, math.pi / 2, 4.0, 2.0)
    xs = sorted(p[0] for p in poly)
    ys = sorted(p[1] for p in poly)
    assert xs == pytest.approx([-2.0, -2.0, 2.0, 2.0])
    assert ys == pytest.approx([-1.0, -1.0, 1.0, 1.0])
    assert _reference_area(poly) == pytest.approx(8.0)


def test_iou_identity_and_disjoint():
    a = box_corners(0.0, 0.0, 0.3, 4.5, 2.0)
    assert box_iou(a, a) == pytest.approx(1.0)
    b = box_corners(50.0, 0.0, 0.0, 4.5, 2.0)
    assert box_iou(a, b) == 0.0


def test_iou_analytic_overlap():
    # intersection 1x4, union 8+8-4: exactly one third
    a = box_corners(0.0, 0.0, 0.0, 4.0, 2.0)
    b = box_corners(1.0, 0.0, 0.0, 4.0, 2.0)
    assert box_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # quarter area overlap: inter 1x2, union 16-2
    c = box_corners(1.0, 2.0, 0.0, 4.0, 2.0)
    assert box_iou(a, c) == pytest.approx(2.0 / 14.0, abs=1e-12)


boxes = st.tuples(
    st.floats(-20, 20), st.floats(-20, 20), st.floats(-math.pi, math.pi),
    st.floats(0.5, 6.0), st.floats(0.5, 3.0),
)


@settings(max_examples=80, deadline=None)
@given(boxes, boxes)
def test_iou_symmetric_and_bounded(pa, pb):
    a = box_corners(*pa)
    b = box_corners(*pb)
    iou = box_iou(a, b)
    assert 0.0 <= iou <= 1.0 + 1e-12
    assert iou == pytest.approx(box_iou(b, a), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(boxes, boxes, st.floats(-math.pi, math.pi), st.floats(-30, 30), st.floats(-30, 30))
def test_iou_invariant_under_rigid_motion(pa, pb, rot, tx, ty):
    iou0 = box_iou(box_corners(*pa), box_corners(*pb))

    def moved(params):
        cx, cy, heading, length, width = params
        c, s = math.cos(rot), math.sin(rot)
        nx = c * cx - s * cy + tx
        ny = s * cx + c * cy + ty
        # the pose angle is measured clockwise from +y, so a CCW rotation of
        # the plane subtracts from it
        return box_corners(nx, ny, heading - rot, length, width)

    iou1 = box_iou(moved(pa), moved(pb))
    assert iou1 == pytest.approx(iou0, abs=1e-9)


def test_clearance_cases():
    a = box_corners(0.0, 0.0, 0.0, 1.0, 1.0)
    b = box_corners(3.0, 0.0, 0.0, 1.0, 1.0)
    assert polygon_clearance(a, b) == pytest.approx(2.0)
    overlapping = box_corners(0.5, 0.0, 0.0, 1.0, 1.0)
    assert polygon_clearance(a, overlapping) == 0.0
    inner = box_corners(0.0, 0.0, 0.0, 0.2, 0.2)
    assert polygon_clearance(a, inner) == 0.0
    diagonal = box_corners(2.0, 2.0, 0.0, 1.0, 1.0)
    # nearest corners at (0.5, 0.5) and (1.5, 1.5)
    assert polygon_clearance(a, diagonal) == pytest.approx(math.sqrt(2.0))


# --- plans -----------------------------------------------------------------


def test_plan_sampling_linear_and_park():
    plan = AdversaryPlan(
        category=ActorCategory.CAR,
        heading0=0.0,
        waypoints=((0.0, 0.0, 0.0), (2.0, 0.0, 10.0), (4.0, 2.0, 10.0)),
        post_mode="park",
    )
    x, y, vx, vy, heading = plan.sample(1.0)
    assert (x, y) == pytest.approx((0.0, 5.0))
    assert (vx, vy) == pytest.approx((0.0, 5.0))
    assert heading == pytest.approx(0.0)

    x, y, vx, vy, heading = plan.sample(3.0)
    assert (x, y) == pytest.approx((1.0, 10.0))
    assert (vx, vy) == pytest.approx((1.0, 0.0))
    assert heading == pytest.approx(math.pi / 2)

    x, y, vx, vy, _ = plan.sample(10.0)
    assert (x, y) == pytest.approx((2.0, 10.0))
    assert (vx, vy) == (0.0, 0.0)


def test_plan_cruise_continues_and_heading_falls_back():
    plan = AdversaryPlan(
        category=ActorCategory.CAR,
        heading0=1.0,
        waypoints=((0.0, 5.0, 5.0),),
        post_mode="cruise",
        post_velocity=(0.0, 8.0),
    )
    x, y, vx, vy, heading = plan.sample(2.0)
    assert (x, y) == pytest.approx((5.0, 21.0))
    assert (vx, vy) == (0.0, 8.0)
    assert heading == pytest.approx(0.0)

    parked = AdversaryPlan(
        category=ActorCategory.CAR,
        heading0=1.0,
        waypoints=((0.0, 5.0, 5.0),),
        post_mode="park",
    )
    assert parked.sample(3.0)[4] == pytest.approx(1.0)


# --- realization -----------------------------------------------------------


def test_identity_prediction_continues_current_motion():
    scn = generate(ScenarioTemplate.ONCOMING_CYCLIST_CUT_IN, 1, 1)[0]
    g = build_scene_graph(scn.frames[0])
    ex = realize(g, g, scn.layout, scenario_id=scn.id)
    assert ex.scenario_id == scn.id
    assert ex.source_frame == 0
    assert ex.ego_from_rest is False
    assert ex.infeasible is False
    assert ex.fidelity == (0, 0)
    assert len(ex.plans) == 1
    plan = ex.plans[0]
    assert plan.perturbed is False
    assert plan.post_mode == "cruise"
    state = scn.frames[0].actors[1].state
    x, y, vx, vy, _ = plan.sample(1.0)
    assert (vx, vy) == pytest.approx(state.velocity)
    assert x == pytest.approx(state.location[0] + state.velocity[0])


def test_corner_prediction_builds_cut_plan():
    scn = generate(ScenarioTemplate.ONCOMING_CYCLIST_CUT_IN, 1, 1)[0]
    g = build_scene_graph(scn.frames[0])
    ex = realize(g, ground_truth_graph(scn), scn.layout, scenario_id=scn.id)
    plan = ex.plans[0]
    assert plan.perturbed is True
    assert plan.post_mode == "park"
    assert len(plan.waypoints) == 3
    # the prescribed relations must replay exactly
    assert ex.fidelity == (3, 3)
    # terminal lateral position sits in the ego lane
    assert abs(plan.waypoints[-1][1] - (-1.75)) <= 1.75


def test_motorway_realization_sets_from_rest():
    scn = generate(ScenarioTemplate.MOTORWAY_MERGE, 2, 1)[0]
    g = build_scene_graph(scn.frames[0])
    ex = realize(g, ground_truth_graph(scn), scn.layout)
    assert ex.ego_from_rest is True


def test_traffic_light_gets_no_plan():
    scn = generate(ScenarioTemplate.RED_LIGHT_RUNNER, 2, 1)[0]
    g = build_scene_graph(scn.frames[0])
    assert any(n.category is ActorCategory.TRAFFIC_LIGHT for n in g.nodes)
    ex = realize(g, g, scn.layout)
    # the runner is a moving car, so exactly one adversary plan
    assert [plan.category for plan in ex.plans] == [ActorCategory.CAR]


def test_realize_rejects_mismatched_nodes():
    a = generate(ScenarioTemplate.ONCOMING_CYCLIST_CUT_IN, 1, 1)[0]
    b = generate(ScenarioTemplate.MOTORWAY_MERGE, 1, 1)[0]
    with pytest.raises(NodeMismatch):
        realize(
            build_scene_graph(a.frames[0]),
            build_scene_graph(b.frames[0]),
            a.layout,
        )


# --- episodes --------------------------------------------------------------


def executable(plans, ego_speed=10.0, from_rest=False):
    return ExecutableScenario(
        scenario_id="unit",
        source_frame=0,
        ego_start=(-1.75, 0.0),
        ego_target_speed=ego_speed,
        ego_from_rest=from_rest,
        plans=tuple(plans),
        infeasible=False,
        fidelity=(0, 0),
    )


def parked_car(x, y):
    return AdversaryPlan(
        category=ActorCategory.CAR,
        heading0=0.0,
        waypoints=((0.0, x, y),),
        post_mode="park",
    )


def test_basic_driver_collides_with_parked_car_ahead():
    scn = executable([parked_car(-1.75, 40.0)])
    result = run_episode(scn, PROFILES["Basic"])
    assert result.outcome is Outcome.COLLISION
    assert result.min_clearance == 0.0
    assert result.t_final < 10.0


def test_reactive_driver_stops_short():
    scn = executable([parked_car(-1.75, 40.0)])
    for name in ("Normal", "Cautious"):
        result = run_episode(scn, PROFILES[name])
        assert result.outcome is Outcome.NO_COLLISION, name
        assert result.min_clearance > NEAR_MISS_CLEARANCE


def test_close_lateral_pass_is_a_near_miss():
    # surface gap 3.3 - 1.0 - 1.0 = 1.3, under the near-miss clearance but
    # outside the reaction corridor
    scn = executable([parked_car(-1.75 + 3.3, 40.0)])
    result = run_episode(scn, PROFILES["Normal"])
    assert result.outcome is Outcome.NEAR_MISS
    assert 0.0 < result.min_clearance < NEAR_MISS_CLEARANCE


def test_wide_lateral_pass_is_clean():
    scn = executable([parked_car(-1.75 + 4.0, 40.0)])
    result = run_episode(scn, PROFILES["Normal"])
    assert result.outcome is Outcome.NO_COLLISION
    assert result.min_clearance > NEAR_MISS_CLEARANCE


def test_gated_start_reports_unsafe_maneuver():
    scn = executable([parked_car(-1.75, 20.0)], from_rest=True)
    cautious = run_episode(scn, PROFILES["Cautious"])
    assert cautious.gated_start is True
    assert cautious.outcome is Outcome.UNSAFE_MANEUVER
    assert cautious.max_ego_speed < 0.5

    # the hazard sits beyond the aggressive profile's perception range, so
    # that driver pulls away and tailgates to a stop instead of freezing
    aggressive = run_episode(scn, PROFILES["Aggressive"])
    assert aggressive.gated_start is False
    assert aggressive.outcome in (Outcome.NO_COLLISION, Outcome.NEAR_MISS)
    assert aggressive.max_ego_speed > 0.5


def test_collision_takes_precedence_over_near_miss():
    # the impact run also passes through the near-miss band on approach
    scn = executable([parked_car(-1.75, 40.0)])
    result = run_episode(scn, PROFILES["Basic"])
    assert result.outcome is Outcome.COLLISION


def test_episode_determinism_and_trace():
    scn = executable([parked_car(-1.75, 40.0)])
    a = run_episode(scn, PROFILES["Normal"], record=True)
    b = run_episode(scn, PROFILES["Normal"], record=True)
    assert a == b
    assert len(a.trace) > 0


def test_batch_report_and_table():
    scn = executable([parked_car(-1.75, 40.0)])
    results = simulate_batch([scn, scn], profiles=[PROFILES["Basic"], PROFILES["Normal"]])
    report = scr_report(results)
    assert set(report) == {"Basic", "Normal"}
    for row in report.values():
        assert sum(row.values()) == pytest.approx(100.0)
    assert report["Basic"][Outcome.COLLISION.value] == pytest.approx(100.0)
    assert report["Normal"][Outcome.NO_COLLISION.value] == pytest.approx(100.0)

    table = format_scr_table(report)
    assert "Basic" in table and "Normal" in table
    assert Outcome.COLLISION.value in table.split("\n")[0]

    with pytest.raises(ValueError):
        scr_report({"Empty": []})


def test_profile_table_is_complete():
    assert set(PROFILES) == {"Basic", "Normal", "Cautious", "Aggressive"}
    assert PROFILES["Basic"].reactive is False
    for profile in PROFILES.values():
        assert profile.brake_rate > 0


# --- lockstep batches ------------------------------------------------------


def _reference_clearance(poly_a, poly_b):
    """Surface distance as a scalar loop: first vertices inside, proper edge
    crossings, then the nearest vertex-edge distance."""

    def inside(p, poly):
        return all(
            (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= -1e-12
            for a, b in zip(poly, poly[1:] + poly[:1])
        )

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 1 if v > 1e-12 else -1 if v < -1e-12 else 0

    def seg_dist(p, a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = min(1.0, max(0.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)))
        return math.hypot(p[0] - (a[0] + t * dx), p[1] - (a[1] + t * dy))

    poly_a, poly_b = list(poly_a), list(poly_b)
    if inside(poly_a[0], poly_b) or inside(poly_b[0], poly_a):
        return 0.0
    best = math.inf
    for a1, a2 in zip(poly_a, poly_a[1:] + poly_a[:1]):
        for b1, b2 in zip(poly_b, poly_b[1:] + poly_b[:1]):
            o = (orient(a1, a2, b1), orient(a1, a2, b2), orient(b1, b2, a1), orient(b1, b2, a2))
            if o[0] != o[1] and o[2] != o[3] and 0 not in o:
                return 0.0
            best = min(best, seg_dist(a1, b1, b2), seg_dist(b1, a1, a2))
    return best


@settings(max_examples=200, deadline=None)
@given(boxes, boxes)
def test_clearance_matches_scalar_reference(pa, pb):
    a, b = box_corners(*pa), box_corners(*pb)
    want = _reference_clearance(a, b)
    assert polygon_clearance(a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)


def _reference_area(poly):
    """Shoelace area, its terms summed in vertex order from 0.0."""
    total = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2.0


def _reference_clip(subject, a, b):
    """The part of ``subject`` on the left of a->b, one vertex at a time."""
    out = []
    n = len(subject)
    ax, ay = a
    bx, by = b
    ex, ey = bx - ax, by - ay

    def side(p):
        return ex * (p[1] - ay) - ey * (p[0] - ax)

    for i in range(n):
        cur = subject[i]
        nxt = subject[(i + 1) % n]
        s_cur = side(cur)
        s_nxt = side(nxt)
        if s_cur >= 0.0:
            out.append(cur)
        if (s_cur > 0.0 and s_nxt < 0.0) or (s_cur < 0.0 and s_nxt > 0.0):
            t = s_cur / (s_cur - s_nxt)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def _reference_iou(poly_a, poly_b):
    """IoU as a scalar Sutherland–Hodgman clip of ``poly_a`` by each edge of
    the counter-clockwise ``poly_b``."""
    poly_a = [tuple(map(float, p)) for p in poly_a]
    poly_b = [tuple(map(float, p)) for p in poly_b]
    clipped = poly_a
    for i in range(len(poly_b)):
        clipped = _reference_clip(clipped, poly_b[i], poly_b[(i + 1) % len(poly_b)])
    inter = _reference_area(clipped)
    union = _reference_area(poly_a) + _reference_area(poly_b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _reference_episode(scn, profile, dt=0.05, horizon=30.0, record=False):
    """One episode as a scalar loop, one step at a time, from the rules in
    README and the plans' ``sample``.

    An ego from rest is gated when an adversary starts inside its hazard
    range, and starts at the first step nothing is.  Each step the
    controller reads the poses at the step's start: the nearest adversary
    ahead in its corridor, by surface gap, sets accelerate, brake or hold.
    Overlap is tested at the step's end, on the pairs within reach of a
    near miss; the first pair with IoU above the bar is a collision.
    """
    ego_len, ego_wid = BODY_SIZES[ActorCategory.EGO]
    ex, ey = map(float, scn.ego_start)
    grid = [0.0]
    for _ in range(int(round(horizon / dt))):
        grid.append(grid[-1] + dt)
    # each plan's (x, y, vx, vy, heading) at each time of the grid
    poses = [list(zip(*(p.tolist() for p in plan.sample(np.array(grid))))) for plan in scn.plans]
    sizes = [BODY_SIZES[plan.category] for plan in scn.plans]
    v = 0.0 if scn.ego_from_rest else scn.ego_target_speed
    started = not scn.ego_from_rest
    gated = scn.ego_from_rest and any(
        np.hypot(p[0][0] - ex, p[0][1] - ey) < profile.hazard_range for p in poses
    )
    max_speed, min_clear, near_miss, rows = v, math.inf, False, []

    def result(outcome, t):
        return EpisodeResult(
            outcome, t, max_speed, min_clear, gated, tuple(rows) if record else ()
        )

    for k in range(len(grid) - 1):
        if not started:
            started = all(
                np.hypot(p[k][0] - ex, p[k][1] - ey) >= profile.hazard_range for p in poses
            )
        hazard = math.inf
        for p, (a_len, _) in zip(poses, sizes):
            dy = p[k][1] - ey
            if abs(p[k][0] - ex) <= EGO_CORRIDOR_HALF and dy > 0.0:
                hazard = min(hazard, dy - (ego_len + a_len) / 2.0)
        target_gap = max(STANDSTILL_GAP, v * profile.time_gap)
        if profile.reactive:
            accel = hazard > 1.5 * target_gap
            brake = not accel and hazard < target_gap
        else:
            accel = hazard >= BASIC_EMERGENCY_GAP
            brake = not accel
        if started and accel:
            v = min(v + EGO_ACCEL * dt, scn.ego_target_speed)
        elif started and brake:
            v = max(v - profile.brake_rate * dt, 0.0)
        ey = ey + v * dt
        t = grid[k + 1]
        max_speed = max(max_speed, v)

        ego = box_corners(ex, ey, 0.0, ego_len, ego_wid)
        rows.append(("ego", t, ex, ey, 0.0, v))
        hit = False
        for a, (p, (a_len, a_wid)) in enumerate(zip(poses, sizes)):
            x, y, vx, vy, heading = p[k + 1]
            rows.append((f"adv{a}", t, x, y, heading, math.hypot(vx, vy)))
            reach = (math.hypot(ego_len, ego_wid) + math.hypot(a_len, a_wid)) / 2.0
            if np.hypot(x - ex, y - ey) - reach > NEAR_MISS_CLEARANCE:
                continue
            adv = box_corners(x, y, heading, a_len, a_wid)
            clear = polygon_clearance(ego, adv)
            min_clear = min(min_clear, clear)
            near_miss = near_miss or clear <= NEAR_MISS_CLEARANCE
            hit = hit or box_iou(ego, adv) > COLLISION_IOU
        if hit:
            return result(Outcome.COLLISION, t)
    if near_miss:
        return result(Outcome.NEAR_MISS, grid[-1])
    if gated and max_speed < 0.5:
        return result(Outcome.UNSAFE_MANEUVER, grid[-1])
    return result(Outcome.NO_COLLISION, grid[-1])


# headings and centers that put edges on one line, besides arbitrary ones
exact_boxes = st.tuples(
    st.one_of(st.floats(-6, 6), st.integers(-12, 12).map(lambda k: k / 2.0)),
    st.one_of(st.floats(-6, 6), st.integers(-12, 12).map(lambda k: k / 2.0)),
    st.one_of(
        st.floats(-math.pi, math.pi),
        st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4]),
    ),
    st.sampled_from([4.5, 1.8, 0.6, 2.0]) | st.floats(0.5, 6.0),
    st.sampled_from([2.0, 0.6]) | st.floats(0.5, 3.0),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(exact_boxes, exact_boxes), min_size=1, max_size=12))
def test_batched_iou_is_the_scalar_clip_bit_for_bit(pairs):
    poly_a = np.array([box_corners(*pa) for pa, _ in pairs], dtype=float)
    poly_b = np.array([box_corners(*pb) for _, pb in pairs], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _box_ious(poly_a, poly_b)
    want = [_reference_iou(a, b) for a, b in zip(poly_a, poly_b)]
    assert got.tolist() == want


_EGO = box_corners(-1.75, 10.0, 0.0, *BODY_SIZES[ActorCategory.EGO])


@pytest.mark.parametrize(
    "other",
    [
        pytest.param(_EGO, id="identical"),
        pytest.param(box_corners(0.25, 10.0, 0.0, 4.5, 2.0), id="shared-edge"),
        pytest.param(
            box_corners(-1.5, 10.5, 0.3, *BODY_SIZES[ActorCategory.PEDESTRIAN]),
            id="pedestrian-inside",
        ),
        pytest.param(
            box_corners(-0.9, 11.6, 0.7, *BODY_SIZES[ActorCategory.BICYCLE]),
            id="rotated-bicycle",
        ),
    ],
)
def test_box_iou_pinned_cases_match_the_scalar_clip(other):
    want = _reference_iou(_EGO, other)
    assert box_iou(_EGO, other) == want
    assert _box_ious(np.array([_EGO]), np.array([other]))[0] == want


def test_box_iou_pinned_values():
    ego_area = 4.5 * 2.0
    assert box_iou(_EGO, _EGO) == pytest.approx(1.0)
    assert box_iou(_EGO, box_corners(0.25, 10.0, 0.0, 4.5, 2.0)) == 0.0
    # a pedestrian wholly inside the ego box scores at most 0.36 / 9
    inside = box_corners(-1.5, 10.5, 0.3, *BODY_SIZES[ActorCategory.PEDESTRIAN])
    assert box_iou(_EGO, inside) == pytest.approx(0.36 / ego_area)
    assert box_iou(_EGO, inside) < COLLISION_IOU
    bicycle = box_corners(-0.9, 11.6, 0.7, *BODY_SIZES[ActorCategory.BICYCLE])
    assert 0.0 < box_iou(_EGO, bicycle) < 1.8 * 0.6 / ego_area


def test_array_sampling_matches_scalar_sampling():
    plans = [
        AdversaryPlan(
            category=ActorCategory.BICYCLE,
            heading0=0.4,
            waypoints=((0.0, 1.75, 30.0), (2.2, 1.75, 20.0), (3.0, -1.2, 18.5)),
            post_mode=mode,
            post_velocity=(0.0, 9.0),
        )
        for mode in ("park", "cruise")
    ] + [parked_car(3.0, 4.0)]
    times = np.cumsum(np.full(80, 0.05)) - 0.05
    for plan in plans:
        arrays = plan.sample(times)
        for k, t in enumerate(times.tolist()):
            assert tuple(float(col[k]) for col in arrays) == plan.sample(t)


def _reference_sample(plan, t):
    """A plan's pose at time t as a scalar: the first leg whose end t does
    not pass, interpolated, or else the park or cruise after the last
    waypoint."""
    wps = plan.waypoints
    for i in range(len(wps) - 1):
        (t0, x0, y0), (t1, x1, y1) = wps[i], wps[i + 1]
        if t <= t1:
            span = t1 - t0
            frac = (t - t0) / span
            vx, vy = (x1 - x0) / span, (y1 - y0) / span
            return (
                x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac, vx, vy, plan._heading(vx, vy, i)
            )
    t_last, x_last, y_last = wps[-1]
    if plan.post_mode == "park":
        return x_last, y_last, 0.0, 0.0, plan._heading(0.0, 0.0, len(wps) - 2)
    pvx, pvy = plan.post_velocity
    elapsed = t - t_last
    return (
        x_last + pvx * elapsed, y_last + pvy * elapsed, pvx, pvy,
        plan._heading(pvx, pvy, len(wps) - 2),
    )


@st.composite
def plans(draw):
    """Plans of every adversary category with 1 to 3 waypoints, the first
    at time 0, parking or cruising after the last."""
    t, waypoints = 0.0, []
    for i in range(draw(st.integers(1, 3))):
        if i:
            t += draw(st.floats(0.2, 3.0))
        waypoints.append((t, draw(st.floats(-8.0, 6.0)), draw(st.floats(-10.0, 60.0))))
    mode = draw(st.sampled_from(["park", "cruise"]))
    velocity = (0.0, 0.0)
    if mode == "cruise":
        velocity = (draw(st.floats(-8.0, 8.0)), draw(st.floats(-12.0, 12.0)))
    return AdversaryPlan(
        category=draw(st.sampled_from(sorted(ADVERSARY_CATEGORIES, key=lambda c: c.value))),
        heading0=draw(st.floats(-math.pi, math.pi)),
        waypoints=tuple(waypoints),
        post_mode=mode,
        post_velocity=velocity,
    )


@st.composite
def executables(draw):
    return ExecutableScenario(
        scenario_id="drawn",
        source_frame=0,
        ego_start=(draw(st.floats(-3.5, 0.0)), draw(st.floats(-5.0, 5.0))),
        ego_target_speed=draw(st.floats(0.0, 20.0)),
        ego_from_rest=draw(st.booleans()),
        plans=tuple(draw(st.lists(plans(), max_size=4))),
        infeasible=False,
        fidelity=(0, 0),
    )


_GRID = np.cumsum(np.full(170, 0.05)) - 0.05


@settings(max_examples=150, deadline=None)
@given(plans())
def test_sampling_equals_the_scalar_rules(plan):
    for t in _GRID[::7].tolist() + [0.0, *(w[0] for w in plan.waypoints)]:
        assert plan.sample(t) == _reference_sample(plan, t)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(plans(), max_size=4), min_size=1, max_size=5), st.data())
def test_window_poses_equal_per_plan_sampling(plan_lists, data):
    """The pose kernel over a table of many scenarios' plans: each live
    row's slots equal that plan's own ``sample``, and the slots past a
    scenario's last plan sit still at infinity."""
    table = _plan_table(plan_lists)
    rows = np.array(
        data.draw(st.lists(st.sampled_from(range(len(plan_lists))), min_size=1, max_size=5))
    )
    times = _GRID[data.draw(st.integers(0, 100)) :][:51]
    width = max(map(len, plan_lists))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, y, heading, vx, vy = _plan_poses(table, times, rows, True)
    assert x.shape == (len(times), len(rows), width)
    for i, s in enumerate(rows.tolist()):
        for a in range(width):
            got = [tuple(float(p[k, i, a]) for p in (x, y, vx, vy, heading)) for k in range(len(times))]
            if a < len(plan_lists[s]):
                assert got == [plan_lists[s][a].sample(t) for t in times.tolist()]
            else:
                assert got == [(math.inf, math.inf, 0.0, 0.0, 0.0)] * len(times)


def moving(category, waypoints, post_mode="park", post_velocity=(0.0, 0.0)):
    return AdversaryPlan(
        category=category,
        heading0=0.0,
        waypoints=waypoints,
        post_mode=post_mode,
        post_velocity=post_velocity,
    )


def test_batch_episodes_equal_single_episodes():
    scns = [
        # no adversary: an ungated start from rest
        executable([], from_rest=True),
        # one parked car inside the reactive ranges: a gated start from rest
        executable([parked_car(-1.75, 20.0)], from_rest=True),
        # overlapping from the start: a collision in the first step
        executable([parked_car(-1.75, 2.0)]),
        # three adversaries: a pedestrian grazing the ego's side (touching,
        # IoU under the bar) ahead of a car that collides in the same step
        executable([
            AdversaryPlan(ActorCategory.PEDESTRIAN, 0.0, ((0.0, -0.55, 0.5),), "park"),
            parked_car(-1.75, 2.0),
            parked_car(30.0, 200.0),
        ]),
        # three moving adversaries: a cut-in, a crossing cyclist, a cruiser
        executable([
            moving(ActorCategory.CAR, ((0.0, 1.75, 60.0), (3.0, 1.75, 45.0), (4.5, -1.5, 42.0))),
            moving(ActorCategory.BICYCLE, ((0.0, 8.0, 35.0),), "cruise", (-2.5, 0.0)),
            moving(ActorCategory.CAR, ((0.0, -1.75, 15.0), (2.0, -1.75, 30.0)), "cruise", (0.0, 7.5)),
        ], ego_speed=12.0),
    ]
    batch = simulate_batch(scns)
    assert list(batch) == list(PROFILES)
    for name, profile in PROFILES.items():
        assert len(batch[name]) == len(scns)
        for scn, got in zip(scns, batch[name]):
            assert got == run_episode(scn, profile), name
            assert got == _reference_episode(scn, profile), name

    free, gated, first_step, touching, _ = (
        [batch[name][i] for name in PROFILES] for i in range(len(scns))
    )
    for result in free:
        assert result.gated_start is False
        assert result.outcome is Outcome.NO_COLLISION
        assert result.min_clearance == math.inf
        assert result.max_ego_speed == 10.0
    # the car sits 20 m ahead: inside the Normal and Cautious ranges only
    assert {name: r.gated_start for name, r in zip(PROFILES, gated)} == {
        "Basic": False, "Normal": True, "Cautious": True, "Aggressive": False,
    }
    for result in first_step + touching:
        assert result.outcome is Outcome.COLLISION
        assert result.t_final == 0.05
        assert result.min_clearance == 0.0
        assert result.max_ego_speed == 10.0


def _crossing_car(meet):
    # crosses the ego's lane at 10 m/s, centred on the ego at time ``meet``
    return moving(
        ActorCategory.CAR, ((0.0, -1.75 - 10.0 * meet, 10.0 * meet),), "cruise", (10.0, 0.0)
    )


def test_first_collision_in_a_window_is_the_earliest_step():
    late, early = _crossing_car(4.0), _crossing_car(3.0)
    # the later collider holds the first adversary slot
    both = executable([late, early])
    alone = [executable([late]), executable([early])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = simulate_batch([both, *alone])
        for name, profile in PROFILES.items():
            got_both, got_late, got_early = batch[name]
            for scn, got in zip([both, *alone], batch[name]):
                assert got == run_episode(scn, profile), name
            for got in batch[name]:
                assert got.outcome is Outcome.COLLISION
            steps = [round(r.t_final / 0.05) for r in (got_late, got_early)]
            # both collide inside the second window, at different steps
            assert steps[1] < steps[0]
            assert {(k - 1) // 50 for k in steps} == {1}
            assert got_both.t_final == got_early.t_final
            assert got_both.max_ego_speed == got_early.max_ego_speed


def test_grazing_contact_is_not_a_collision():
    graze = executable(
        [AdversaryPlan(ActorCategory.PEDESTRIAN, 0.0, ((0.0, -0.55, 0.5),), "park")]
    )
    result = run_episode(graze, PROFILES["Basic"], horizon=0.05)
    assert result.outcome is Outcome.NEAR_MISS
    assert result.min_clearance == 0.0


def test_overlap_compares_ego_and_adversaries_at_the_same_instant():
    # a car crossing at 10 m/s reaches the ego's lane exactly at the horizon
    # (step 60, the second window): its box then overlaps the ego's by 1 m
    # (IoU 2/16), one step earlier by 0.5 m (IoU 1/17, under the bar)
    crossing = moving(ActorCategory.CAR, ((0.0, -34.0, 30.0),), "cruise", (10.0, 0.0))
    scn = executable([crossing])
    result = run_episode(scn, PROFILES["Basic"], horizon=3.0, record=True)
    assert result.outcome is Outcome.COLLISION
    assert result.t_final == pytest.approx(3.0)

    rows = result.trace
    assert len(rows) == 2 * 60
    for ego, adv in zip(rows[::2], rows[1::2]):
        assert ego[0] == "ego" and adv[0] == "adv0"
        t = ego[1]
        assert adv[1] == t
        assert ego[3] == pytest.approx(10.0 * t)
        x, y, vx, vy, heading = crossing.sample(t)
        assert (adv[2], adv[3], adv[4]) == (x, y, heading)
        assert adv[5] == math.hypot(vx, vy)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(executables(), min_size=1, max_size=4),
    st.sampled_from([0.05, 2.5, 2.55, 5.0, 7.5]),
)
def test_rollout_equals_the_scalar_oracle(scns, horizon):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = simulate_batch(scns, horizon=horizon)
        traced = run_episode(scns[0], PROFILES["Normal"], horizon=horizon, record=True)
    for name, profile in PROFILES.items():
        for scn, got in zip(scns, batch[name]):
            assert got == _reference_episode(scn, profile, horizon=horizon), name
    assert traced == _reference_episode(scns[0], PROFILES["Normal"], horizon=horizon, record=True)


def _first_moving_step(result):
    speeds = [row[5] for row in result.trace if row[0] == "ego"]
    return next((k for k, v in enumerate(speeds) if v > 0.0), None)


def test_start_gates_open_at_their_step():
    # a car beside the ego drives away at 8.1 m/s: 5 + 8.1 t m from it, so
    # each gate opens at the first step whose start lies beyond its range
    leaving = moving(ActorCategory.CAR, ((0.0, 3.25, 0.0),), "cruise", (8.1, 0.0))
    scn = executable([leaving], from_rest=True)
    # Basic has no range; Aggressive's 12 m opens mid-window, Normal's 25 m
    # at the first step of the second window, and Cautious's 35 m mid-way
    # through the second window
    opens = {"Basic": 0, "Aggressive": 18, "Normal": 50, "Cautious": 75}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = simulate_batch([scn], horizon=5.0)
        for name, profile in PROFILES.items():
            traced = run_episode(scn, profile, horizon=5.0, record=True)
            assert traced == _reference_episode(scn, profile, horizon=5.0, record=True)
            assert batch[name][0] == _reference_episode(scn, profile, horizon=5.0)
            assert _first_moving_step(traced) == opens[name], name
            assert traced.gated_start is (name != "Basic")
            assert traced.outcome is Outcome.NO_COLLISION


def test_an_episode_that_never_starts():
    scn = executable([parked_car(-1.75, 20.0)], from_rest=True)
    traced = run_episode(scn, PROFILES["Cautious"], record=True)
    assert traced == _reference_episode(scn, PROFILES["Cautious"], record=True)
    assert traced.outcome is Outcome.UNSAFE_MANEUVER
    assert _first_moving_step(traced) is None
    assert {row[3] for row in traced.trace if row[0] == "ego"} == {0.0}
