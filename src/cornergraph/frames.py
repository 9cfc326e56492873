"""Frame snapshots and scene-graph extraction.

A road is a bundle of parallel strips (lanes, pavement, shoulder) running
along the +y axis, each with a signed lateral center and a width.  A frame
places actors (ego first) onto that layout; ``build_scene_graph`` turns the
frame into a typed graph.

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
    RelationCategory,
    SceneGraph,
    SchemaError,
    SELF_STATE_CATEGORIES,
    decoder,
    json_int,
    sort_edges,
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
                center=float(raw["center"]),
                width=float(raw["width"]),
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


def build_scene_graph(frame: FrameSnapshot) -> SceneGraph:
    """Extract the typed graph for one frame.

    Emits, in canonical edge order: a SelfState edge per stateful actor, one
    containment edge per actor, a separation edge and a bearing edge from each
    moving adversary to the ego, an ego separation edge to each static object,
    and a containment edge from each strip to the road.
    """
    if not frame.actors:
        raise InvalidFrame("frame has no actors")
    if frame.actors[0].category is not ActorCategory.EGO:
        raise InvalidFrame("first actor must be the Ego")
    if sum(1 for a in frame.actors if a.category is ActorCategory.EGO) != 1:
        raise InvalidFrame("frame must contain exactly one Ego")

    layout = frame.layout
    nodes = []
    for i, actor in enumerate(frame.actors):
        nodes.append(Node(id=i, category=actor.category, state=actor.state))
    for j, strip in enumerate(layout.strips):
        nodes.append(Node(id=strip_node_id(frame, j), category=strip.category))
    road_id = road_node_id(frame)
    nodes.append(Node(id=road_id, category=ActorCategory.ROAD))

    ego = frame.ego
    ego_speed = ego.state.speed
    edges = []

    for i, actor in enumerate(frame.actors):
        if actor.category in SELF_STATE_CATEGORIES:
            edges.append(Edge(head=i, relation=RelationCategory.SELF_STATE, tail=i))
        strip_idx = layout.strip_index_at(actor.state.location[0])
        if strip_idx is None:
            raise InvalidFrame(
                f"{actor.category.value} at x={actor.state.location[0]:.2f} "
                "lies in no road element"
            )
        edges.append(
            Edge(
                head=i,
                relation=RelationCategory.IS_IN,
                tail=strip_node_id(frame, strip_idx),
            )
        )
        if i == 0:
            continue
        dx = actor.state.location[0] - ego.state.location[0]
        dy = actor.state.location[1] - ego.state.location[1]
        separation = math.hypot(dx, dy)
        if actor.category in ADVERSARY_CATEGORIES:
            edges.append(
                Edge(
                    head=i,
                    relation=discretize_distance(separation, ego_speed),
                    tail=0,
                )
            )
            edges.append(
                Edge(
                    head=i,
                    relation=discretize_relative_position(
                        relative_angle(actor.state, ego.state)
                    ),
                    tail=0,
                )
            )
        elif actor.category is ActorCategory.OBJECT:
            edges.append(
                Edge(
                    head=0,
                    relation=discretize_distance(separation, ego_speed),
                    tail=i,
                )
            )

    for j in range(len(layout.strips)):
        edges.append(
            Edge(
                head=strip_node_id(frame, j),
                relation=RelationCategory.IS_IN,
                tail=road_id,
            )
        )

    return SceneGraph(
        nodes=tuple(nodes),
        edges=sort_edges(edges),
        frame_index=frame.index,
        is_corner_case=frame.is_corner_case,
    )
