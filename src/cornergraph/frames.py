"""Frame snapshots and scene-graph extraction.

A road is a bundle of parallel strips (lanes, pavement, shoulder) running
along the +y axis, each with a signed lateral center and a width.  A frame
places actors (ego first) onto that layout; ``frame_rows`` computes the
edges of the frame's typed graph as rows, and ``build_scene_graph`` makes the
graph itself from them.

Node ordering contract, relied on by realization and by label alignment:
actors in placement order (ego is node 0), then strips in layout order, then
the road node last.  The same scenario keeps the same actor list in every
frame, so node ids line up across frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import (
    ADVERSARY_CATEGORIES,
    ActorCategory,
    AgentState,
    CONTAINMENT_CATEGORIES,
    Edge,
    Node,
    PLACEABLE_CATEGORIES,
    RELATION_ORDINAL,
    RELATIONS,
    RelationCategory,
    SceneGraph,
    SchemaError,
    SELF_STATE_CATEGORIES,
    decoder,
    json_float,
    json_int,
)
from .relations import discretize_distance, discretize_relative_position, relative_angle


class InvalidFrame(SchemaError):
    """A frame that decodes but describes no scene: its first actor is not
    the one Ego, or an actor lies in no road element."""


@dataclass(frozen=True)
class Strip:
    """One longitudinal road element; ``direction`` is +1/-1 travel sense for
    lanes and 0 for non-drivable strips."""

    category: ActorCategory
    center: float
    width: float
    direction: int = 0

    def __post_init__(self):
        if self.category not in CONTAINMENT_CATEGORIES:
            raise ValueError(f"{self.category.value} is not a road strip category")
        if self.width <= 0:
            raise ValueError("strip width must be positive")


@dataclass(frozen=True)
class RoadLayout:
    strips: tuple[Strip, ...]

    def __post_init__(self):
        object.__setattr__(self, "strips", tuple(self.strips))
        if not self.strips:
            raise ValueError("layout needs at least one strip")

    def strip_index_at(self, x: float) -> int | None:
        """Index of the strip containing lateral position ``x``; ties go to the
        nearest center, then to the earlier strip."""
        best = None
        best_dist = math.inf
        for i, strip in enumerate(self.strips):
            dist = abs(x - strip.center)
            if dist <= strip.width / 2.0 + 1e-9 and dist < best_dist:
                best, best_dist = i, dist
        return best

    def to_json(self) -> dict:
        return {
            "strips": [
                {
                    "category": s.category.value,
                    "center": s.center,
                    "width": s.width,
                    "direction": s.direction,
                }
                for s in self.strips
            ]
        }

    @staticmethod
    @decoder("road layout")
    def from_json(obj: dict) -> "RoadLayout":
        strips = tuple(
            Strip(
                category=ActorCategory(raw["category"]),
                center=json_float(raw, "center"),
                width=json_float(raw, "width"),
                direction=json_int(raw, "direction", 0),
            )
            for raw in obj["strips"]
        )
        return RoadLayout(strips=strips)


@dataclass(frozen=True)
class PlacedActor:
    category: ActorCategory
    state: AgentState

    def __post_init__(self):
        if self.category not in PLACEABLE_CATEGORIES:
            raise ValueError(f"{self.category.value} is not a placeable actor category")


@dataclass(frozen=True)
class FrameSnapshot:
    index: int
    is_corner_case: bool
    layout: RoadLayout
    actors: tuple[PlacedActor, ...]

    def __post_init__(self):
        object.__setattr__(self, "actors", tuple(self.actors))

    @property
    def ego(self) -> PlacedActor:
        return self.actors[0]


def actor_node_count(frame: FrameSnapshot) -> int:
    return len(frame.actors)


def strip_node_id(frame: FrameSnapshot, strip_index: int) -> int:
    return len(frame.actors) + strip_index


def road_node_id(frame: FrameSnapshot) -> int:
    return len(frame.actors) + len(frame.layout.strips)


_SELF = RELATION_ORDINAL[RelationCategory.SELF_STATE]
_IS_IN = RELATION_ORDINAL[RelationCategory.IS_IN]


def frame_rows(frame: FrameSnapshot) -> list:
    """``(head, tail, relation ordinal)`` of each edge of the frame's scene
    graph, in the order the edges are made: a SelfState edge per stateful
    actor, one containment edge per actor, a separation edge and a bearing
    edge from each moving adversary to the ego, an ego separation edge to
    each static object, and a containment edge from each strip to the road.
    Raises ``InvalidFrame`` or ``DegenerateGeometry`` for a frame that
    describes no scene."""
    actors = frame.actors
    if not actors:
        raise InvalidFrame("frame has no actors")
    if actors[0].category is not ActorCategory.EGO:
        raise InvalidFrame("first actor must be the Ego")
    if [a.category for a in actors].count(ActorCategory.EGO) != 1:
        raise InvalidFrame("frame must contain exactly one Ego")

    layout = frame.layout
    n_actors = len(actors)
    ego = actors[0].state
    ego_speed = ego.speed
    rows = []
    for i, actor in enumerate(actors):
        state = actor.state
        if actor.category in SELF_STATE_CATEGORIES:
            rows.append((i, i, _SELF))
        strip_idx = layout.strip_index_at(state.location[0])
        if strip_idx is None:
            raise InvalidFrame(
                f"{actor.category.value} at x={state.location[0]:.2f} "
                "lies in no road element"
            )
        rows.append((i, n_actors + strip_idx, _IS_IN))
        if i == 0:
            continue
        dx = state.location[0] - ego.location[0]
        dy = state.location[1] - ego.location[1]
        separation = math.hypot(dx, dy)
        if actor.category in ADVERSARY_CATEGORIES:
            distance = discretize_distance(separation, ego_speed)
            bearing = discretize_relative_position(relative_angle(state, ego))
            rows.append((i, 0, RELATION_ORDINAL[distance]))
            rows.append((i, 0, RELATION_ORDINAL[bearing]))
        elif actor.category is ActorCategory.OBJECT:
            rows.append((0, i, RELATION_ORDINAL[discretize_distance(separation, ego_speed)]))

    road_id = n_actors + len(layout.strips)
    rows += [(n_actors + j, road_id, _IS_IN) for j in range(len(layout.strips))]
    return rows


def build_scene_graph(frame: FrameSnapshot) -> SceneGraph:
    """The typed graph of one frame: its nodes, and the edges of
    ``frame_rows`` in canonical (head, tail, relation) order."""
    rows = frame_rows(frame)
    nodes = [Node(id=i, category=a.category, state=a.state) for i, a in enumerate(frame.actors)]
    nodes.extend(
        Node(id=strip_node_id(frame, j), category=strip.category)
        for j, strip in enumerate(frame.layout.strips)
    )
    nodes.append(Node(id=road_node_id(frame), category=ActorCategory.ROAD))
    rows.sort()
    return SceneGraph(
        nodes=tuple(nodes),
        edges=tuple(Edge(head=h, relation=RELATIONS[o], tail=t) for h, t, o in rows),
        frame_index=frame.index,
        is_corner_case=frame.is_corner_case,
    )
