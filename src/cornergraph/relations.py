"""Continuous-to-categorical mapping of spatial relations.

Two discretizers produce the relation vocabulary's cross edges:

* bearing of one actor as seen from another, quartered into
  front / right / left / rear;
* center separation against a speed-dependent stopping-distance threshold,
  split into safe / unsafe.

The stopping-distance table is the UK Highway Code typical-stopping-distance
table (speeds converted to m/s), interpolated piecewise-linearly, clamped at
the bottom and extrapolated with the last segment's slope at the top.
"""

from __future__ import annotations

import math

from .graphs import AgentState, RelationCategory, SchemaError


class DegenerateGeometry(SchemaError):
    """Raised when two actors share a location and no bearing exists: a
    frame that places them so describes no scene."""


#: (speed m/s, stopping distance m); 20..70 mph in 10 mph steps
STOPPING_TABLE = (
    (8.9, 12.0),
    (13.4, 23.0),
    (17.9, 36.0),
    (22.4, 53.0),
    (26.8, 73.0),
    (31.3, 96.0),
)

_MIN_SEPARATION = 1e-9


def wrap_angle(angle: float) -> float:
    """Wrap to the half-open interval (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def relative_angle(head: AgentState, tail: AgentState) -> float:
    """Bearing of ``head`` in ``tail``'s frame, in (-pi, pi].

    0 means dead ahead of the tail actor; positive angles open toward its
    right-hand side (compass heading convention).
    """
    dx = head.location[0] - tail.location[0]
    dy = head.location[1] - tail.location[1]
    if math.hypot(dx, dy) < _MIN_SEPARATION:
        raise DegenerateGeometry("actors share a location; bearing undefined")
    return wrap_angle(math.atan2(dx, dy) - tail.heading)


def discretize_relative_position(delta: float) -> RelationCategory:
    """Map a wrapped bearing to one of the four quadrant relations.

    Bins are half-open on the left: (-pi/4, pi/4] is front, (pi/4, 3pi/4] is
    right, (-3pi/4, -pi/4] is left, the remainder is rear.
    """
    delta = wrap_angle(delta)
    quarter = math.pi / 4.0
    if -quarter < delta <= quarter:
        return RelationCategory.IN_FRONT_OF
    if quarter < delta <= 3.0 * quarter:
        return RelationCategory.TO_RIGHT_OF
    if -3.0 * quarter < delta <= -quarter:
        return RelationCategory.TO_LEFT_OF
    return RelationCategory.AT_REAR_OF


def stopping_distance(speed: float) -> float:
    """Typical stopping distance in meters for a given speed in m/s."""
    if speed < 0:
        raise ValueError("speed must be non-negative")
    table = STOPPING_TABLE
    if speed <= table[0][0]:
        return table[0][1]
    for (s0, d0), (s1, d1) in zip(table, table[1:]):
        if speed <= s1:
            return d0 + (d1 - d0) * (speed - s0) / (s1 - s0)
    (s0, d0), (s1, d1) = table[-2], table[-1]
    slope = (d1 - d0) / (s1 - s0)
    return d1 + slope * (speed - s1)


def discretize_distance(separation: float, tail_speed: float) -> RelationCategory:
    """Safe iff the separation exceeds the tail actor's stopping distance."""
    if separation < 0:
        raise ValueError("separation must be non-negative")
    if separation > stopping_distance(tail_speed):
        return RelationCategory.SAFE_DISTANCE
    return RelationCategory.UNSAFE_DISTANCE
