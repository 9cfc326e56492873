"""Kinematic episode simulator and scenario realization.

``realize`` turns a (current graph, predicted graph) pair into an executable
episode: adversaries whose predicted relations differ from their current ones
get a two-leg waypoint plan that holds their travel line and then cuts toward
the prescribed position late, while unchanged adversaries simply continue at
their current velocity.  ``simulate_batch`` then rolls every episode forward
under each of four ego driver profiles, all of them together as numpy arrays,
and classifies the outcomes; ``run_episode`` is the same rollout on one
episode.

Outcome precedence is fixed: Collision > NearMiss > UnsafeManeuver >
NoCollision.  Collision means oriented-box IoU above 0.1, near miss means
surface clearance at or below 1.5 m, and an unsafe maneuver means the ego
never got moving (top speed below 0.5 m/s) after being held back by a hazard
already inside its caution range at the start.

Simulation is closed-form per agent (waypoint interpolation, explicit Euler
for the ego), uses no randomness, and is therefore bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .extended import NodeMismatch
from .frames import RoadLayout
from .graphs import (
    ADVERSARY_CATEGORIES,
    CONTAINMENT_CATEGORIES,
    DISTANCE_RELATIONS,
    QUADRANT_RELATIONS,
    ActorCategory,
    AgentState,
    RelationCategory,
    SceneGraph,
)
from .relations import (
    discretize_distance,
    discretize_relative_position,
    relative_angle,
    stopping_distance,
)

SIM_STEP = 0.05
HORIZON = 30.0
COLLISION_IOU = 0.1
NEAR_MISS_CLEARANCE = 1.5

#: oriented footprint (length along heading, width across), meters
BODY_SIZES = {
    ActorCategory.EGO: (4.5, 2.0),
    ActorCategory.CAR: (4.5, 2.0),
    ActorCategory.BICYCLE: (1.8, 0.6),
    ActorCategory.PEDESTRIAN: (0.6, 0.6),
}

SPEED_LIMITS = {
    ActorCategory.CAR: 30.0,
    ActorCategory.BICYCLE: 15.0,
    ActorCategory.PEDESTRIAN: 15.0,
}

#: lateral half-width of the strip of road the ego treats as its own
EGO_CORRIDOR_HALF = 2.0
#: surface gap kept when stopped behind something, meters
STANDSTILL_GAP = 2.5
EGO_ACCEL = 3.0
#: surface gap below which the non-reactive profile slams the brakes
BASIC_EMERGENCY_GAP = 5.0

class Outcome(str, Enum):
    COLLISION = "Collision"
    NEAR_MISS = "NearMiss"
    UNSAFE_MANEUVER = "UnsafeManeuver"
    NO_COLLISION = "NoCollision"


@dataclass(frozen=True)
class ControllerProfile:
    """Longitudinal ego behavior.

    Reactive profiles keep a time-gap to the nearest hazard ahead in their
    corridor and refuse to pull away while anything sits inside
    ``hazard_range``.  The non-reactive profile drives at its target speed and
    only slams the brakes at very short range.
    """

    name: str
    reactive: bool
    time_gap: float
    brake_rate: float
    hazard_range: float


PROFILES = {
    "Basic": ControllerProfile("Basic", False, 0.0, 8.0, 0.0),
    "Normal": ControllerProfile("Normal", True, 1.5, 5.0, 25.0),
    "Cautious": ControllerProfile("Cautious", True, 2.5, 6.0, 35.0),
    "Aggressive": ControllerProfile("Aggressive", True, 0.8, 4.5, 12.0),
}


# --- oriented boxes --------------------------------------------------------


def box_corners(cx, cy, heading, length, width):
    """Counter-clockwise corners of an oriented box; heading 0 points +y.

    Takes scalars, or arrays that broadcast together; each corner is an
    ``(x, y)`` pair of the same kind.
    """
    s, c = np.sin(heading), np.cos(heading)
    fx, fy = s, c
    rx, ry = c, -s
    hl, hw = length / 2.0, width / 2.0
    return (
        (cx + fx * hl + rx * hw, cy + fy * hl + ry * hw),
        (cx + fx * hl - rx * hw, cy + fy * hl - ry * hw),
        (cx - fx * hl - rx * hw, cy - fy * hl - ry * hw),
        (cx - fx * hl + rx * hw, cy - fy * hl + ry * hw),
    )


def _box_polygons(cx, cy, heading, length, width):
    """``box_corners`` over arrays of boxes, as one ``(boxes, 4, 2)`` array."""
    return np.array(box_corners(cx, cy, heading, length, width)).transpose(2, 0, 1)


def _closed(poly):
    """``(polygons, n, 2)`` polygons with each first vertex repeated after
    the last, so that the successor of every vertex is the next slot."""
    return np.concatenate((poly, poly[:, :1]), axis=1)


def _areas(closed):
    """Shoelace area of each closed polygon, its terms summed in vertex
    order from 0.0.  The zero slots after a polygon's closing vertex add
    terms of 0, which change no sum, while the vertices are finite."""
    cur, nxt = closed[:, :-1], closed[:, 1:]
    terms = cur[..., 0] * nxt[..., 1] - nxt[..., 0] * cur[..., 1]
    total = np.zeros(len(closed))
    for column in terms.T:
        total += column
    return np.abs(total) / 2.0


def _clip(closed, counts, a, b):
    """One Sutherland–Hodgman step: the part of each closed polygon, of
    ``counts[i]`` vertices, on the left of ``a[i] -> b[i]`` (the clip
    polygon is counter-clockwise), as new ``(closed, counts)``.

    Vertex i emits itself when on the line or left of it, then the point
    where the edge to its successor crosses the line when that edge changes
    side.  The emitted points are packed to the front in that order, the
    first of them is repeated after the last, and the rest of the width is
    zero."""
    cur, nxt = closed[:, :-1], closed[:, 1:]
    used = np.arange(cur.shape[1]) < counts[:, None]
    ax, ay = a[:, None, 0], a[:, None, 1]
    ex, ey = b[:, None, 0] - ax, b[:, None, 1] - ay
    side = ex * (closed[..., 1] - ay) - ey * (closed[..., 0] - ax)
    s_cur, s_nxt = side[:, :-1], side[:, 1:]
    keep = used & (s_cur >= 0.0)
    cross = used & (((s_cur > 0.0) & (s_nxt < 0.0)) | ((s_cur < 0.0) & (s_nxt > 0.0)))
    t = np.divide(s_cur, s_cur - s_nxt, out=np.zeros_like(s_cur), where=cross)
    point = cur + t[..., None] * (nxt - cur)

    pairs, width = s_cur.shape
    emit = np.stack((keep, cross), axis=2).reshape(pairs, 2 * width)
    points = np.stack((cur, point), axis=2).reshape(pairs, 2 * width, 2)
    counts = np.count_nonzero(emit, axis=1)
    out = np.zeros((pairs, counts.max(initial=0) + 1, 2))
    out[np.nonzero(emit)[0], (np.cumsum(emit, axis=1) - 1)[emit]] = points[emit]
    out[np.arange(pairs), counts] = out[:, 0]
    return out, counts


def _box_ious(poly_a, poly_b):
    """Intersection over union of convex counter-clockwise polygons, for
    each pair of ``poly_a[i]`` and ``poly_b[i]``, 0 where the union has no
    area.

    ``poly_a`` is ``(pairs, n, 2)`` and ``poly_b`` is ``(pairs, m, 2)``,
    both finite.  ``poly_a`` is clipped by each edge of ``poly_b`` in turn,
    with the float operations of a scalar Sutherland–Hodgman clip in the
    same order, so each IoU is bit-for-bit the scalar one.
    """
    m = poly_b.shape[1]
    closed_a = closed = _closed(poly_a)
    counts = np.full(len(poly_a), poly_a.shape[1])
    for i in range(m):
        closed, counts = _clip(closed, counts, poly_b[:, i], poly_b[:, (i + 1) % m])
    inter = _areas(closed)
    union = _areas(closed_a) + _areas(_closed(poly_b)) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=~(union <= 0.0))


def box_iou(poly_a, poly_b):
    """Intersection over union of two convex counter-clockwise polygons."""
    pair = _box_ious(
        np.asarray(poly_a, dtype=float)[None], np.asarray(poly_b, dtype=float)[None]
    )
    return float(pair[0])


def _orient(p, q, r):
    """Side of r relative to p->q: 1 left, -1 right, 0 within 1e-12."""
    v = (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
    v -= (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])
    return (v > 1e-12).view(np.int8) - (v < -1e-12).view(np.int8)


def _point_seg_dist(p, a, b):
    dx = b[..., 0] - a[..., 0]
    dy = b[..., 1] - a[..., 1]
    denom = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (p[..., 0] - a[..., 0]) * dx
        t += (p[..., 1] - a[..., 1]) * dy
        t /= denom
        np.clip(t, 0.0, 1.0, out=t)
        dist = np.hypot(p[..., 0] - (a[..., 0] + t * dx), p[..., 1] - (a[..., 1] + t * dy))
    if np.any(denom <= 0.0):
        degenerate = np.hypot(p[..., 0] - a[..., 0], p[..., 1] - a[..., 1])
        dist = np.where(denom <= 0.0, degenerate, dist)
    return dist


def _clearance(poly_a, poly_b):
    """Minimum surface distance between convex counter-clockwise polygons,
    0 on overlap, for each pair of ``poly_a[i]`` and ``poly_b[i]``.

    ``poly_a`` is ``(pairs, n, 2)`` and ``poly_b`` is ``(pairs, m, 2)``.  A
    pair overlaps when a first vertex lies inside the other polygon (1e-12
    slack) or two edges cross properly; otherwise the distance is the
    smallest from a vertex of one to an edge of the other.
    """
    next_a = np.roll(poly_a, -1, axis=-2)
    next_b = np.roll(poly_b, -1, axis=-2)

    def contains(poly, nxt, p):
        return np.all(_orient(poly, nxt, p[..., None, :]) >= 0, axis=-1)

    inside = contains(poly_b, next_b, poly_a[..., 0, :]) | contains(
        poly_a, next_a, poly_b[..., 0, :]
    )
    a1, a2 = poly_a[..., :, None, :], next_a[..., :, None, :]
    b1, b2 = poly_b[..., None, :, :], next_b[..., None, :, :]
    o1, o2 = _orient(a1, a2, b1), _orient(a1, a2, b2)
    o3, o4 = _orient(b1, b2, a1), _orient(b1, b2, a2)
    cross = (o1 != o2) & (o3 != o4) & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0)
    dist = np.minimum(
        _point_seg_dist(a1, b1, b2).min(axis=(-2, -1)),
        _point_seg_dist(b1, a1, a2).min(axis=(-2, -1)),
    )
    return np.where(inside | cross.any(axis=(-2, -1)), 0.0, dist)


def polygon_clearance(poly_a, poly_b):
    """Minimum surface distance between two convex polygons, 0 on overlap."""
    pair = _clearance(
        np.asarray(poly_a, dtype=float)[None], np.asarray(poly_b, dtype=float)[None]
    )
    return float(pair[0])


# --- adversary plans -------------------------------------------------------

#: the columns of a leg row: the leg's start time, start position, position
#: change over the leg and span, and its constant heading and velocity
_T0, _X0, _Y0, _DX, _DY, _SPAN, _HEADING, _VX, _VY = range(9)
#: the leg row of a slot no plan fills: it sits still at infinity
_PAD_LEG = (0.0, math.inf, math.inf, -0.0, -0.0, 1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class AdversaryPlan:
    """Piecewise-linear waypoint schedule with a terminal behavior.

    ``post_mode`` is "park" (hold the last waypoint) or "cruise" (carry on
    with ``post_velocity``).
    """

    category: ActorCategory
    heading0: float
    waypoints: tuple
    post_mode: str
    post_velocity: tuple = (0.0, 0.0)
    perturbed: bool = False
    infeasible: bool = False

    def sample(self, t):
        """Position, velocity and box heading at time t >= 0.

        ``t`` is a scalar, giving five floats, or an array, giving five
        arrays of its shape.  This is ``_plan_poses`` on a table of this
        one plan.
        """
        times = np.asarray(t, dtype=float)
        x, y, heading, vx, vy = (
            pose[:, 0, 0].reshape(times.shape)
            for pose in _plan_poses(
                _plan_table([(self,)]), times.reshape(-1), np.zeros(1, np.intp), True
            )
        )
        if times.ndim == 0:
            return tuple(float(v) for v in (x, y, vx, vy, heading))
        return x, y, vx, vy, heading

    def _legs(self):
        """(end times, rows): the end time of each leg between waypoints,
        and a leg row for each of those legs and then one for the time
        after the last waypoint.  Velocity and heading are
        constant per leg and are computed once per leg with ``math``."""
        wps = self.waypoints
        last = len(wps) - 1
        ends, rows = [], []
        for i in range(last):
            t0, x0, y0 = wps[i]
            t1, x1, y1 = wps[i + 1]
            span = t1 - t0
            vx, vy = (x1 - x0) / span, (y1 - y0) / span
            ends.append(t1)
            rows.append((t0, x0, y0, x1 - x0, y1 - y0, span, self._heading(vx, vy, i), vx, vy))
        t_last, x_last, y_last = wps[-1]
        # a span of 1.0 makes the fraction the elapsed time exactly; a park
        # moves by -0.0, which leaves every position as it is, -0.0 included
        if self.post_mode == "park":
            pvx, pvy, dx, dy = 0.0, 0.0, -0.0, -0.0
        else:
            pvx, pvy = dx, dy = self.post_velocity
        rows.append(
            (t_last, x_last, y_last, dx, dy, 1.0, self._heading(pvx, pvy, last - 1), pvx, pvy)
        )
        return ends, rows

    def _heading(self, vx, vy, leg):
        if math.hypot(vx, vy) > 0.05:
            return math.atan2(vx, vy)
        # fall back to the previous moving leg, then the initial pose
        wps = self.waypoints
        for i in range(leg, -1, -1):
            if i < 0 or i + 1 >= len(wps):
                break
            t0, x0, y0 = wps[i]
            t1, x1, y1 = wps[i + 1]
            lvx, lvy = (x1 - x0) / (t1 - t0), (y1 - y0) / (t1 - t0)
            if math.hypot(lvx, lvy) > 0.05:
                return math.atan2(lvx, lvy)
        return self.heading0


def _plan_table(plan_lists):
    """The legs of every plan of each scenario's ``plan_lists`` entry, as
    ``(ends, columns)``.

    ``ends`` is a ``(scenarios, slots, legs)`` array of leg end times, -inf
    past a plan's last leg and in the slots past a scenario's last plan.
    ``columns`` holds each leg column, with one entry per (scenario, slot,
    leg or post-leg slot), flat in that order: every plan is padded to the
    longest plan's legs, and its post-leg slot comes last.
    """
    legs = [[plan._legs() for plan in plans] for plans in plan_lists]
    width = max(map(len, legs), default=0)
    n_legs = max((len(ends) for plans in legs for ends, _ in plans), default=0)
    ends = np.full((len(legs), width, n_legs), -np.inf)
    rows = []
    for s, plans in enumerate(legs):
        for a, (plan_ends, plan_rows) in enumerate(plans):
            ends[s, a, : len(plan_ends)] = plan_ends
            rows += plan_rows[:-1] + [_PAD_LEG] * (n_legs - len(plan_ends)) + plan_rows[-1:]
        rows += [_PAD_LEG] * ((width - len(plans)) * (n_legs + 1))
    return ends, np.array(rows, dtype=float).reshape(-1, len(_PAD_LEG)).T.copy()


def _plan_poses(table, times, rows, record):
    """Poses of the plans of scenarios ``rows`` of a ``_plan_table`` at
    each of ``times``: x, y and heading as ``(times, rows, slots)`` arrays,
    then vx and vy when ``record`` is set.

    Each time takes the first leg whose end it does not pass, or else the
    post-leg slot, and is ``x0 + dx * ((t - t0) / span)`` there.  Slots
    past a scenario's last plan sit still at infinity.  The leg columns are
    gathered one at a time, so the working set is times x rows x slots.
    """
    ends, columns = table
    _, width, n_legs = ends.shape
    t = times[:, None, None]
    ends = ends[rows]
    leg = np.full((len(times), len(rows), width), n_legs)
    for i in range(n_legs - 1, -1, -1):
        leg[t <= ends[..., i]] = i
    leg += (rows[:, None] * width + np.arange(width)) * (n_legs + 1)

    def column(c):
        return columns[c].take(leg)

    frac = (t - column(_T0)) / column(_SPAN)
    poses = [
        column(_X0) + column(_DX) * frac,
        column(_Y0) + column(_DY) * frac,
        column(_HEADING),
    ]
    if record:
        poses += [column(_VX), column(_VY)]
    return poses


@dataclass(frozen=True)
class ExecutableScenario:
    scenario_id: str
    source_frame: int
    ego_start: tuple
    ego_target_speed: float
    ego_from_rest: bool
    plans: tuple
    infeasible: bool
    #: (matched prescribed relations, prescribed relations) over cut plans
    fidelity: tuple


def _relation_triple(graph: SceneGraph, actor: int):
    """(containment tail, distance relation, bearing relation) for an actor."""
    isin = None
    dist = None
    quad = None
    for e in graph.edges:
        if e.head != actor:
            continue
        if e.relation is RelationCategory.IS_IN:
            isin = e.tail
        elif e.relation in DISTANCE_RELATIONS:
            if e.tail == graph.ego_id():
                dist = e.relation
        elif e.relation in QUADRANT_RELATIONS:
            if e.tail == graph.ego_id():
                quad = e.relation
        # SelfState edges carry no geometry
    return isin, dist, quad


def _cut_targets(quad, sep, dx, y0, ego_y0):
    if quad is RelationCategory.IN_FRONT_OF:
        return max(math.sqrt(max(sep * sep - dx * dx, 0.0)), abs(dx) + 0.1)
    if quad is RelationCategory.AT_REAR_OF:
        return -max(math.sqrt(max(sep * sep - dx * dx, 0.0)), abs(dx) + 0.1)
    if quad in (RelationCategory.TO_LEFT_OF, RelationCategory.TO_RIGHT_OF):
        return 0.0
    # no bearing prescribed: stay on the current side
    side = 1.0 if y0 >= ego_y0 else -1.0
    return side * math.sqrt(max(sep * sep - dx * dx, 0.01))


def _cut_plan(category, state: AgentState, ego_x, ego_y0, v_e, x_t, sep, quad):
    x0, y0 = state.location
    limit = SPEED_LIMITS[category]
    dx = x_t - ego_x
    dy_off = _cut_targets(quad, sep, dx, y0, ego_y0)

    def legs(ts):
        y_t = ego_y0 + v_e * ts + dy_off
        t_cut = min(2.0, max(0.8, ts / 4.0))
        vy = (y_t - y0) / ts
        v2 = math.hypot((x_t - x0) / t_cut, vy)
        return y_t, t_cut, max(abs(vy), v2)

    d0 = math.hypot(x0 - ego_x, y0 - ego_y0)
    ts0 = min(25.0, max(1.5, d0 / max(v_e, 1.0)))
    chosen = None
    infeasible = False
    best = None
    for ts in [ts0] + [1.5 + 0.5 * k for k in range(48)]:
        y_t, t_cut, speed = legs(ts)
        if speed <= limit:
            chosen = (ts, y_t, t_cut)
            break
        if best is None or speed < best[3]:
            best = (ts, y_t, t_cut, speed)
    if chosen is None:
        chosen = best[:3]
        infeasible = True
    ts, y_t, t_cut = chosen
    y_mid = y0 + (y_t - y0) * (ts - t_cut) / ts
    waypoints = ((0.0, x0, y0), (ts - t_cut, x0, y_mid), (ts, x_t, y_t))
    return waypoints, ts, infeasible


def realize(
    regular: SceneGraph,
    predicted: SceneGraph,
    layout: RoadLayout,
    scenario_id: str = "",
) -> ExecutableScenario:
    """Build an executable episode that enacts the predicted relations.

    Adversaries whose (containment, distance, bearing) triple is unchanged
    between the two graphs continue at their current velocity.  Changed
    adversaries get a waypoint plan that reaches the prescribed geometry at a
    sync time on the nominal (constant-speed) ego trajectory, cutting
    laterally only over the final stretch.  Plans that would need a
    physically implausible speed are kept but flagged infeasible.
    """
    reg_ids = [(n.id, n.category) for n in regular.nodes]
    pred_ids = [(n.id, n.category) for n in predicted.nodes]
    if reg_ids != pred_ids:
        raise NodeMismatch("graphs describe different node sets")

    ego = regular.node(regular.ego_id())
    if ego.state is None:
        raise NodeMismatch("ego node carries no pose")
    ego_x, ego_y0 = ego.state.location
    v_e = ego.state.speed

    strip_ids = [n.id for n in regular.nodes if n.category in CONTAINMENT_CATEGORIES]
    strip_center = {
        nid: layout.strips[i].center for i, nid in enumerate(strip_ids)
    }

    plans = []
    any_infeasible = False
    matches = 0
    prescribed = 0
    for node in regular.nodes:
        if node.category not in ADVERSARY_CATEGORIES:
            continue
        state = node.state
        x0, y0 = state.location
        reg_triple = _relation_triple(regular, node.id)
        pred_triple = _relation_triple(predicted, node.id)
        if reg_triple == pred_triple:
            vx, vy = state.velocity if state.velocity is not None else (0.0, 0.0)
            parked = math.hypot(vx, vy) < 0.05
            plans.append(
                AdversaryPlan(
                    category=node.category,
                    heading0=state.heading,
                    waypoints=((0.0, x0, y0),),
                    post_mode="park" if parked else "cruise",
                    post_velocity=(0.0, 0.0) if parked else (vx, vy),
                )
            )
            continue

        isin, dist, quad = pred_triple
        x_t = strip_center.get(isin, x0)
        if dist is RelationCategory.UNSAFE_DISTANCE:
            sep = 1.5
        elif dist is RelationCategory.SAFE_DISTANCE:
            sep = stopping_distance(v_e) + 5.0
        else:
            sep = max(math.hypot(x0 - ego_x, y0 - ego_y0), 1.5)
        waypoints, ts, infeasible = _cut_plan(
            node.category, state, ego_x, ego_y0, v_e, x_t, sep, quad
        )
        any_infeasible = any_infeasible or infeasible
        post_mode = "park" if dist is not RelationCategory.SAFE_DISTANCE else "cruise"
        plans.append(
            AdversaryPlan(
                category=node.category,
                heading0=state.heading,
                waypoints=waypoints,
                post_mode=post_mode,
                post_velocity=(0.0, v_e),
                perturbed=True,
                infeasible=infeasible,
            )
        )

        # replay check: does the planned pose at sync time discretize back to
        # the prescribed relations against the nominal ego?
        x_s, y_s = waypoints[-1][1], waypoints[-1][2]
        nominal = AgentState(
            location=(ego_x, ego_y0 + v_e * ts),
            heading=ego.state.heading,
            velocity=(0.0, v_e),
        )
        planned = AgentState(location=(x_s, y_s), heading=state.heading)
        if isin is not None:
            prescribed += 1
            idx = layout.strip_index_at(x_s)
            if idx is not None and strip_ids[idx] == isin:
                matches += 1
        if dist is not None:
            prescribed += 1
            gap = math.hypot(x_s - nominal.location[0], y_s - nominal.location[1])
            if discretize_distance(gap, v_e) is dist:
                matches += 1
        if quad is not None:
            prescribed += 1
            angle = relative_angle(planned, nominal)
            if discretize_relative_position(angle) is quad:
                matches += 1

    from_rest = any(
        s.category is ActorCategory.SHOULDER for s in layout.strips
    )
    return ExecutableScenario(
        scenario_id=scenario_id,
        source_frame=regular.frame_index,
        ego_start=(ego_x, ego_y0),
        ego_target_speed=v_e,
        ego_from_rest=from_rest,
        plans=tuple(plans),
        infeasible=any_infeasible,
        fidelity=(matches, prescribed),
    )


# --- episode rollout -------------------------------------------------------


@dataclass(frozen=True)
class EpisodeResult:
    outcome: Outcome
    t_final: float
    max_ego_speed: float
    min_clearance: float
    gated_start: bool
    trace: tuple = ()


#: steps every live episode advances between retirements; the working set
#: is live episodes x adversaries x WINDOW
WINDOW = 50


def _can_collide(category) -> bool:
    """Whether the ego and an actor of ``category`` can pass
    ``COLLISION_IOU``.  IoU is at most the smaller footprint area over the
    larger; a relative margin keeps a bound within rounding of the bar."""
    areas = (math.prod(BODY_SIZES[ActorCategory.EGO]), math.prod(BODY_SIZES[category]))
    return min(areas) / max(areas) > COLLISION_IOU * (1.0 - 1e-9)


def _rollout(executables, profiles, dt, horizon, record=False):
    """Every executable under every profile, advanced together.

    Episodes are profile-major: every executable under the first profile,
    then under the next.  Every plan's legs are one ``_plan_table``, and a
    window's poses one ``_plan_poses`` call over its live scenarios.  Each
    window of ``WINDOW`` steps first runs the ego controllers of all live
    episodes step by step as arrays, with the corridor and the start gate
    taken once for the window, then tests the window's poses for overlap
    at once: the reach pre-filter as a mask, clearance in one
    ``_clearance`` call on the surviving pairs, and IoU in one
    ``_box_ious`` call on the touching pairs that can pass the bar.  Pairs
    are in (step, episode, adversary) order, so an episode's first pair
    with IoU above ``COLLISION_IOU`` is its collision, and the episode
    leaves the batch there.
    """
    n_scn = len(executables)
    n_ep = n_scn * len(profiles)
    steps = int(round(horizon / dt))
    ego_len, ego_wid = BODY_SIZES[ActorCategory.EGO]
    ego_diag = math.hypot(ego_len, ego_wid)

    table = _plan_table([scn.plans for scn in executables])
    width = table[0].shape[1]
    half_len = np.zeros((n_scn, width))
    reach = np.zeros((n_scn, width))
    length = np.ones((n_scn, width))
    breadth = np.ones((n_scn, width))
    can_hit = np.zeros((n_scn, width), bool)
    for s, scn in enumerate(executables):
        for a, plan in enumerate(scn.plans):
            a_len, a_wid = BODY_SIZES[plan.category]
            length[s, a], breadth[s, a] = a_len, a_wid
            half_len[s, a] = (ego_len + a_len) / 2.0
            reach[s, a] = (ego_diag + math.hypot(a_len, a_wid)) / 2.0
            can_hit[s, a] = _can_collide(plan.category)

    scn_of = np.tile(np.arange(n_scn), len(profiles))

    def per_profile(attr, dtype=float):
        return np.repeat(np.array([getattr(p, attr) for p in profiles], dtype), n_scn)

    def per_scenario(values, dtype=float):
        return np.array(values, dtype).reshape(n_scn)[scn_of]

    reactive = per_profile("reactive", bool)
    time_gap = per_profile("time_gap")
    brake_step = per_profile("brake_rate") * dt
    hazard_range = per_profile("hazard_range")
    ego_x = per_scenario([scn.ego_start[0] for scn in executables])
    ego_y = per_scenario([scn.ego_start[1] for scn in executables])
    v_target = per_scenario([scn.ego_target_speed for scn in executables])
    from_rest = per_scenario([scn.ego_from_rest for scn in executables], bool)

    x0, y0, _ = _plan_poses(table, np.zeros(1), np.arange(n_scn), False)
    radial0 = np.hypot(x0[0][scn_of] - ego_x[:, None], y0[0][scn_of] - ego_y[:, None])
    gated = from_rest & np.any(radial0 < hazard_range[:, None], axis=1)

    v = np.where(from_rest, 0.0, v_target)
    started = ~from_rest
    max_speed = v.copy()
    min_clear = np.full(n_ep, np.inf)
    near_miss = np.zeros(n_ep, bool)
    collided = np.zeros(n_ep, bool)
    t_final = np.zeros(n_ep)
    traces = [[] for _ in range(n_ep)] if record else None

    live = np.arange(n_ep)
    done = 0
    t = 0.0
    while done < steps and live.size:
        n = min(WINDOW, steps - done)
        # sequential sums, so the grid equals repeated ``t += dt``
        times = np.cumsum(np.concatenate(([t], np.full(n, dt))))
        scn_l = scn_of[live]
        scns, local = np.unique(scn_l, return_inverse=True)
        poses = _plan_poses(table, times, scns, record)
        ax, ay, ah, *avel = (p[:, local] for p in poses)
        ex = ego_x[live][:, None]
        ey = ego_y[live]
        vv = v[live]
        st = started[live]
        gap_t, brake_l, range_l = time_gap[live], brake_step[live], hazard_range[live]
        react_l, target_l = reactive[live], v_target[live]
        passive_l = ~react_l
        half_l = half_len[scn_l]

        # what the controllers read of the poses at the start of each step,
        # and that does not depend on the ego's speed, once for the window.
        # Adversaries outside the ego's corridor move to y = inf, never a
        # nearer hazard than none.
        corridor_y = np.where(np.abs(ax[:-1] - ex) <= EGO_CORRIDOR_HALF, ay[:-1], np.inf)
        # An episode that has not started is from rest at speed 0, so its
        # ego stays at the window's first y until its gate opens: once
        # nothing is inside its hazard range.
        gate = None
        if not st.all():
            wait = np.flatnonzero(~st)
            radial = np.hypot(ax[:-1, wait] - ex[wait], ay[:-1, wait] - ey[wait, None])
            gate = np.ones((n, live.size), bool)
            gate[:, wait] = np.logical_or.accumulate(
                np.all(radial >= range_l[wait, None], axis=2), axis=0
            )
            st = gate[-1]

        ego_ys = np.empty((n, live.size))
        speeds = np.empty((n, live.size))
        for k in range(n):
            dy = corridor_y[k] - ey[:, None]
            # nearest corridor hazard ahead by surface gap, inf for none
            hazard = np.minimum.reduce(dy - half_l, axis=1, where=dy > 0.0, initial=np.inf)
            target_gap = np.maximum(STANDSTILL_GAP, vv * gap_t)
            accel = np.where(
                react_l, hazard > 1.5 * target_gap, hazard >= BASIC_EMERGENCY_GAP
            )
            brake = ~accel & (passive_l | (hazard < target_gap))
            moved = np.where(
                accel,
                np.minimum(vv + EGO_ACCEL * dt, target_l),
                np.where(brake, np.maximum(vv - brake_l, 0.0), vv),
            )
            vv = moved if gate is None else np.where(gate[k], moved, vv)
            ey = np.add(ey, vv * dt, out=ego_ys[k])
            speeds[k] = vv

        # overlap at the end of each step: ego and adversaries both at t + dt
        ox, oy, oh = ax[1:], ay[1:], ah[1:]
        near = (
            np.hypot(ox - ex[None], oy - ego_ys[:, :, None]) - reach[scn_l][None]
            <= NEAR_MISS_CLEARANCE
        )
        # pairs in (step, episode, adversary) order
        ks, es, slots = np.nonzero(near)
        ego_poly = _box_polygons(ex[es, 0], ego_ys[ks, es], 0.0, ego_len, ego_wid)
        adv_poly = _box_polygons(
            ox[ks, es, slots],
            oy[ks, es, slots],
            oh[ks, es, slots],
            length[scn_l[es], slots],
            breadth[scn_l[es], slots],
        )
        clear = _clearance(ego_poly, adv_poly)

        touching = np.flatnonzero((clear == 0.0) & can_hit[scn_l[es], slots])
        iou = _box_ious(ego_poly[touching], adv_poly[touching])
        colliding = touching[iou > COLLISION_IOU]
        # each episode's first colliding pair: its earliest step
        hit_eps, first = np.unique(es[colliding], return_index=True)
        hit = np.zeros(live.size, bool)
        hit[hit_eps] = True
        last = np.full(live.size, n - 1)
        last[hit_eps] = ks[colliding[first]]
        # pairs after a collision cannot change the result: the colliding
        # pair already has clearance 0, and a near miss only counts without
        # a collision
        clear_l = min_clear[live]
        np.minimum.at(clear_l, es, clear)
        min_clear[live] = clear_l
        near_miss[live[es[clear <= NEAR_MISS_CLEARANCE]]] = True

        top = np.maximum.accumulate(speeds, axis=0)[last, np.arange(live.size)]
        max_speed[live] = np.maximum(max_speed[live], top)
        if record:
            counts = [len(executables[s].plans) for s in scn_l]
            adversaries = (ox, oy, oh, *(p[1:] for p in avel))
            _record(traces, live, last, times, ego_x, ego_ys, speeds, adversaries, counts)

        collided[live[hit]] = True
        t_final[live[hit]] = times[last[hit] + 1]
        ego_y[live], v[live], started[live] = ey, vv, st
        live = live[~hit]
        done += n
        t = float(times[-1])
    t_final[live] = t

    results = []
    for e in range(n_ep):
        if collided[e]:
            outcome = Outcome.COLLISION
        elif near_miss[e]:
            outcome = Outcome.NEAR_MISS
        elif gated[e] and max_speed[e] < 0.5:
            outcome = Outcome.UNSAFE_MANEUVER
        else:
            outcome = Outcome.NO_COLLISION
        results.append(
            EpisodeResult(
                outcome=outcome,
                t_final=float(t_final[e]),
                max_ego_speed=float(max_speed[e]),
                min_clearance=float(min_clear[e]),
                gated_start=bool(gated[e]),
                trace=tuple(traces[e]) if record else (),
            )
        )
    return results


def _record(traces, live, last, times, ego_x, ego_ys, speeds, adversaries, counts):
    """Trace rows of a window: per step one ego row, then one row per
    adversary from its (x, y, heading, vx, vy) arrays, up to each episode's
    last step."""
    for i, e in enumerate(live.tolist()):
        rows = traces[e]
        for k in range(int(last[i]) + 1):
            t = float(times[k + 1])
            rows.append(
                ("ego", t, float(ego_x[e]), float(ego_ys[k, i]), 0.0, float(speeds[k, i]))
            )
            for a in range(counts[i]):
                x, y, heading, vx, vy = (float(p[k, i, a]) for p in adversaries)
                rows.append((f"adv{a}", t, x, y, heading, math.hypot(vx, vy)))


def run_episode(
    scn: ExecutableScenario,
    profile: ControllerProfile,
    dt: float = SIM_STEP,
    horizon: float = HORIZON,
    record: bool = False,
) -> EpisodeResult:
    """One episode: the lockstep rollout on a batch of one.  With ``record``
    the result carries one ego row and one row per adversary per step."""
    return _rollout([scn], [profile], dt, horizon, record)[0]


def simulate_batch(executables, profiles=None, dt=SIM_STEP, horizon=HORIZON):
    """Outcomes for every executable under every profile."""
    chosen = list(profiles if profiles is not None else PROFILES.values())
    executables = list(executables)
    episodes = _rollout(executables, chosen, dt, horizon)
    n = len(executables)
    return {p.name: episodes[i * n : (i + 1) * n] for i, p in enumerate(chosen)}


def scr_report(results_by_profile) -> dict:
    """Percentage of each outcome per profile; every row sums to 100."""
    report = {}
    for name, results in results_by_profile.items():
        total = len(results)
        if total == 0:
            raise ValueError(f"no episodes for profile {name}")
        row = {}
        for outcome in Outcome:
            count = sum(1 for r in results if r.outcome is outcome)
            row[outcome.value] = 100.0 * count / total
        report[name] = row
    return report


def format_scr_table(report) -> str:
    outcomes = [o.value for o in Outcome]
    names = list(report)
    width = max(len(n) for n in names + ["Profile"]) + 2
    header = "Profile".ljust(width) + "".join(o.rjust(16) for o in outcomes)
    lines = [header]
    for name in names:
        row = report[name]
        lines.append(
            name.ljust(width)
            + "".join(f"{row[o]:16.1f}" for o in outcomes)
        )
    return "\n".join(lines)
