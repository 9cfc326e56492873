"""Typed heterogeneous traffic scene graphs.

A scene graph has ten actor categories and eight relation categories, both
closed sets.  A directed edge ``(head, relation, tail)`` is admitted only when
the category-level grammar licenses the triple; ``validate_grammar`` reports
every breach as data instead of raising, so callers can decide what to do with
an ill-formed graph.

Conventions used throughout the package:

* node ids are dense ``0..n-1`` and double as indices into ``nodes``;
* ``SelfState`` is the only relation allowed (and required) on a self-edge;
* headings are compass-style: ``0`` points along +y and angles grow toward +x,
  so an actor's forward unit vector is ``(sin h, cos h)``.
"""

from __future__ import annotations

import functools
import json
import os
import stat
from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class ActorCategory(str, Enum):
    EGO = "Ego"
    CAR = "Car"
    BICYCLE = "Bicycle"
    PEDESTRIAN = "Pedestrian"
    TRAFFIC_LIGHT = "TrafficLight"
    OBJECT = "Object"
    LANE = "Lane"
    PAVEMENT = "Pavement"
    SHOULDER = "Shoulder"
    ROAD = "Road"


class RelationCategory(str, Enum):
    IS_IN = "IsIn"
    SAFE_DISTANCE = "SafeDistance"
    UNSAFE_DISTANCE = "UnsafeDistance"
    IN_FRONT_OF = "InFrontOf"
    AT_REAR_OF = "AtRearOf"
    TO_LEFT_OF = "ToLeftOf"
    TO_RIGHT_OF = "ToRightOf"
    SELF_STATE = "SelfState"


class LightState(str, Enum):
    RED = "Red"
    YELLOW = "Yellow"
    GREEN = "Green"


#: position of each relation in the canonical sort order
RELATION_ORDINAL = {rel: i for i, rel in enumerate(RelationCategory)}

#: relations by ordinal: ``RELATIONS[RELATION_ORDINAL[r]] is r``
RELATIONS = tuple(RelationCategory)

DISTANCE_RELATIONS = (RelationCategory.SAFE_DISTANCE, RelationCategory.UNSAFE_DISTANCE)
QUADRANT_RELATIONS = (
    RelationCategory.IN_FRONT_OF,
    RelationCategory.AT_REAR_OF,
    RelationCategory.TO_LEFT_OF,
    RelationCategory.TO_RIGHT_OF,
)

#: categories that move under their own power (and therefore keep exactly one
#: containment edge and may carry velocity)
DYNAMIC_CATEGORIES = frozenset(
    {
        ActorCategory.EGO,
        ActorCategory.CAR,
        ActorCategory.BICYCLE,
        ActorCategory.PEDESTRIAN,
    }
)

#: categories whose per-actor state is expressed as a SelfState self-edge
SELF_STATE_CATEGORIES = frozenset(
    {
        ActorCategory.EGO,
        ActorCategory.CAR,
        ActorCategory.BICYCLE,
        ActorCategory.PEDESTRIAN,
        ActorCategory.TRAFFIC_LIGHT,
    }
)

#: categories allowed to carry a braking flag
BRAKING_CATEGORIES = frozenset({ActorCategory.EGO, ActorCategory.CAR})

#: road strips: what placed actors sit in, and what sits in the road
CONTAINMENT_CATEGORIES = frozenset(
    {ActorCategory.LANE, ActorCategory.PAVEMENT, ActorCategory.SHOULDER}
)

#: what a frame places on the road: every category but the strips and the road
PLACEABLE_CATEGORIES = frozenset(
    set(ActorCategory) - CONTAINMENT_CATEGORIES - {ActorCategory.ROAD}
)

#: the actors other than the ego that move: they relate back to the ego by
#: separation and bearing, and realization gives each a plan
ADVERSARY_CATEGORIES = DYNAMIC_CATEGORIES - {ActorCategory.EGO}


def _build_licensed_triples() -> frozenset:
    triples = set()
    for head in PLACEABLE_CATEGORIES:
        for tail in CONTAINMENT_CATEGORIES:
            triples.add((head, RelationCategory.IS_IN, tail))
    for head in CONTAINMENT_CATEGORIES:
        triples.add((head, RelationCategory.IS_IN, ActorCategory.ROAD))
    # the ego tracks its separation from surrounding actors and the road edge
    for tail in (PLACEABLE_CATEGORIES - {ActorCategory.EGO}) | {ActorCategory.SHOULDER}:
        for rel in DISTANCE_RELATIONS:
            triples.add((ActorCategory.EGO, rel, tail))
    for head in ADVERSARY_CATEGORIES:
        for rel in DISTANCE_RELATIONS + QUADRANT_RELATIONS:
            triples.add((head, rel, ActorCategory.EGO))
    return frozenset(triples)


#: every licensed cross-edge triple (head category, relation, tail category)
LICENSED_TRIPLES = _build_licensed_triples()


def licensed(head: ActorCategory, relation: RelationCategory, tail: ActorCategory) -> bool:
    """True iff the grammar licenses the cross-edge triple.

    ``SelfState`` is never a cross edge; it is licensed separately, on a
    self-edge of a category in ``SELF_STATE_CATEGORIES``.
    """
    if relation is RelationCategory.SELF_STATE:
        return False
    return (head, relation, tail) in LICENSED_TRIPLES


@dataclass(frozen=True)
class AgentState:
    """Kinematic state of a placed actor, in world coordinates (meters, radians).

    Field presence follows the category: only dynamic actors have ``velocity``,
    only Ego/Car have ``braking``, and only traffic lights have ``light_state``.
    ``validate_grammar`` checks those pairings.
    """

    location: tuple[float, float]
    heading: float = 0.0
    velocity: tuple[float, float] | None = None
    braking: bool | None = None
    light_state: LightState | None = None

    @property
    def speed(self) -> float:
        if self.velocity is None:
            return 0.0
        vx, vy = self.velocity
        return float((vx * vx + vy * vy) ** 0.5)


@dataclass(frozen=True)
class Node:
    id: int
    category: ActorCategory
    state: AgentState | None = None


@dataclass(frozen=True)
class Edge:
    head: int
    relation: RelationCategory
    tail: int

    def key(self) -> tuple[int, int, int]:
        return (self.head, self.tail, RELATION_ORDINAL[self.relation])


@dataclass(frozen=True)
class SceneGraph:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    frame_index: int = 0
    is_corner_case: bool = False

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def ego_id(self) -> int:
        for n in self.nodes:
            if n.category is ActorCategory.EGO:
                return n.id
        raise ValueError("graph has no Ego node")

    def has_edge(self, head: int, relation: RelationCategory, tail: int) -> bool:
        return any(
            e.head == head and e.tail == tail and e.relation is relation
            for e in self.edges
        )


@dataclass(frozen=True)
class Violation:
    """One structural defect: ``kind`` is "grammar" or "invariant"."""

    kind: str
    rule: str
    edge_index: int | None = None


def _categories_without_outgoing() -> frozenset:
    with_outgoing = {h for (h, _, _) in LICENSED_TRIPLES} | SELF_STATE_CATEGORIES
    return frozenset(set(ActorCategory) - with_outgoing)


_NO_OUTGOING = _categories_without_outgoing()


def _check_state_fields(node: Node, out: list) -> None:
    state = node.state
    if state is None:
        return
    cat = node.category
    if state.velocity is not None and cat not in DYNAMIC_CATEGORIES:
        out.append(Violation("invariant", f"{cat.value} cannot carry velocity"))
    if state.braking is not None and cat not in BRAKING_CATEGORIES:
        out.append(Violation("invariant", f"{cat.value} cannot carry a braking flag"))
    if (state.light_state is not None) != (cat is ActorCategory.TRAFFIC_LIGHT):
        out.append(
            Violation("invariant", f"light state present iff TrafficLight, not {cat.value}")
        )


def validate_grammar(graph: SceneGraph) -> list:
    """Return every grammar breach and structural-invariant breach as a list.

    An empty list means the graph is well formed.  Order: node-level invariants
    first, then per-edge checks in edge order, then containment counting.
    """
    out: list = []
    n = len(graph.nodes)

    ids = [node.id for node in graph.nodes]
    if ids != list(range(n)):
        out.append(Violation("invariant", "node ids must be dense 0..n-1 in order"))
        return out  # edge checks below index by id

    ego_count = sum(1 for node in graph.nodes if node.category is ActorCategory.EGO)
    if ego_count != 1:
        out.append(Violation("invariant", f"exactly one Ego required, found {ego_count}"))

    for node in graph.nodes:
        _check_state_fields(node, out)

    seen = set()
    for idx, edge in enumerate(graph.edges):
        if not (0 <= edge.head < n and 0 <= edge.tail < n):
            out.append(Violation("invariant", "edge endpoint out of range", idx))
            continue
        triple = (edge.head, edge.relation, edge.tail)
        if triple in seen:
            out.append(Violation("invariant", "duplicate edge", idx))
            continue
        seen.add(triple)

        head_cat = graph.nodes[edge.head].category
        tail_cat = graph.nodes[edge.tail].category
        if edge.head == edge.tail:
            if edge.relation is not RelationCategory.SELF_STATE:
                out.append(
                    Violation("grammar", "self-edge must use SelfState", idx)
                )
            elif head_cat not in SELF_STATE_CATEGORIES:
                out.append(
                    Violation("grammar", f"{head_cat.value} has no self state", idx)
                )
            continue
        if edge.relation is RelationCategory.SELF_STATE:
            out.append(Violation("grammar", "SelfState requires head = tail", idx))
            continue
        if not licensed(head_cat, edge.relation, tail_cat):
            if head_cat in _NO_OUTGOING:
                rule = f"{head_cat.value} has no outgoing relations"
            else:
                rule = (
                    f"triple not licensed: {head_cat.value} "
                    f"-{edge.relation.value}-> {tail_cat.value}"
                )
            out.append(Violation("grammar", rule, idx))

    # each dynamic actor sits in exactly one containment element
    for node in graph.nodes:
        if node.category not in DYNAMIC_CATEGORIES:
            continue
        count = sum(
            1
            for e in graph.edges
            if e.head == node.id
            and e.relation is RelationCategory.IS_IN
            and 0 <= e.tail < n
        )
        if count != 1:
            out.append(
                Violation(
                    "invariant",
                    f"{node.category.value} node {node.id} needs exactly one "
                    f"containment edge, found {count}",
                )
            )
    return out


# --- JSON serialization ----------------------------------------------------
#
# The wire layout is strict: unknown object keys are rejected so that version
# skew fails loudly instead of silently dropping data.


class SchemaError(ValueError):
    """Outside input that does not decode: not JSON, or not the documented
    layout."""


#: what decoding malformed input raises from Python itself: a missing key,
#: a short list, a value of the wrong type, or one out of range
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError)


def decoder(what: str, error: type = SchemaError):
    """Decorate a decoder of outside input with the one error boundary.

    Whatever malformed input raises inside the decoder (``_MALFORMED``)
    leaves it as ``error``, whose message names the input: ``what``,
    formatted with the call's arguments, so ``"{}"`` names a file by the
    path it was read from.  A ``SchemaError`` raised inside, by the decoder
    or by a nested one, passes through unchanged.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def decode(*args):
            try:
                return fn(*args)
            except SchemaError:
                raise
            except _MALFORMED as err:
                raise error(f"malformed {what.format(*args)}: {err!r}") from err

        return decode

    return wrap


def json_int(obj: dict, key: str, default: int | None = None) -> int:
    """``obj[key]``, which must be a JSON integer: a float or a bool is not
    one.  ``default``, when given, stands in for a missing key."""
    if default is not None and key not in obj:
        return default
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key} {value!r} is not an integer")
    return value


#: the Python types of a JSON number; a bool is an int to Python, but not a
#: number to JSON
_NUMBER_TYPES = (int, float)


def json_float(obj: dict, key: str, default: float | None = None) -> float:
    """``obj[key]`` as a float, which must be a JSON number: a bool or a
    string is not one.  ``default``, when given, stands in for a missing
    key."""
    if default is not None and key not in obj:
        return default
    value = obj[key]
    if type(value) not in _NUMBER_TYPES:
        raise TypeError(f"{key} {value!r} is not a number")
    return float(value)


def _json_pair(obj: dict, key: str) -> tuple:
    """The first two entries of the list ``obj[key]``, each a JSON number,
    as a pair of floats."""
    value = obj[key]
    x, y = value[0], value[1]
    if type(x) not in _NUMBER_TYPES or type(y) not in _NUMBER_TYPES:
        raise TypeError(f"{key} {value!r} is not a pair of numbers")
    return (float(x), float(y))


def json_bool(obj: dict, key: str, default: bool | None = None) -> bool:
    """``obj[key]``, which must be a JSON bool: a string or a number is not
    one.  ``default``, when given, stands in for a missing key."""
    if default is not None and key not in obj:
        return default
    value = obj[key]
    if type(value) is not bool:
        raise TypeError(f"{key} {value!r} is not a bool")
    return value


@decoder("{}")
def read_json(path):
    """The JSON value in the file at ``path``."""
    with open(path) as fh:
        return json.load(fh)


def read_json_lines(path, decode) -> list:
    """``decode`` of each non-blank line's JSON value in the file at
    ``path``, in file order.  A failure names the line as ``path:lineno``."""
    # bytes, so that a line that is not text fails like one that is not JSON
    with open(path, "rb") as fh:
        return [
            _decode_line(line, decode, path, lineno)
            for lineno, line in enumerate(fh, 1)
            if line.strip()
        ]


@decoder("{2}:{3}")
def _decode_line(line: bytes, decode, path, lineno: int):
    return decode(json.loads(line))


_STATE_KEYS = {"location", "heading", "velocity", "braking", "light_state"}
_NODE_KEYS = {"id", "category", "state"}
_EDGE_KEYS = {"head", "relation", "tail"}
_GRAPH_KEYS = {"frame", "corner_case", "nodes", "edges"}


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    if not allowed.issuperset(obj):
        raise SchemaError(f"unknown field(s) {sorted(set(obj) - allowed)} in {where}")


def state_to_json(state: AgentState) -> dict:
    out: dict = {
        "location": [state.location[0], state.location[1]],
        "heading": state.heading,
    }
    if state.velocity is not None:
        out["velocity"] = [state.velocity[0], state.velocity[1]]
    if state.braking is not None:
        out["braking"] = state.braking
    if state.light_state is not None:
        out["light_state"] = state.light_state.value
    return out


@decoder("state")
def state_from_json(obj: dict) -> AgentState:
    _reject_unknown(obj, _STATE_KEYS, "state")
    return AgentState(
        location=_json_pair(obj, "location"),
        heading=json_float(obj, "heading", 0.0),
        velocity=_json_pair(obj, "velocity") if "velocity" in obj else None,
        braking=json_bool(obj, "braking") if "braking" in obj else None,
        light_state=LightState(obj["light_state"]) if "light_state" in obj else None,
    )


def graph_to_json(graph: SceneGraph) -> dict:
    nodes = []
    for node in graph.nodes:
        entry: dict = {"id": node.id, "category": node.category.value}
        if node.state is not None:
            entry["state"] = state_to_json(node.state)
        nodes.append(entry)
    edges = [
        {"head": e.head, "relation": e.relation.value, "tail": e.tail}
        for e in graph.edges
    ]
    return {
        "frame": graph.frame_index,
        "corner_case": graph.is_corner_case,
        "nodes": nodes,
        "edges": edges,
    }


@decoder("graph")
def graph_from_json(obj: dict) -> SceneGraph:
    _reject_unknown(obj, _GRAPH_KEYS, "graph")
    nodes = []
    for raw in obj["nodes"]:
        _reject_unknown(raw, _NODE_KEYS, "node")
        state = state_from_json(raw["state"]) if "state" in raw else None
        nodes.append(
            Node(id=json_int(raw, "id"), category=ActorCategory(raw["category"]), state=state)
        )
    edges = []
    for raw in obj["edges"]:
        _reject_unknown(raw, _EDGE_KEYS, "edge")
        edges.append(
            Edge(
                head=json_int(raw, "head"),
                relation=RelationCategory(raw["relation"]),
                tail=json_int(raw, "tail"),
            )
        )
    return SceneGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        frame_index=json_int(obj, "frame", 0),
        is_corner_case=json_bool(obj, "corner_case", False),
    )


def open_output(path, newline=None):
    """Open ``path`` for writing text the way a first run into a new path does.

    A regular file with a single link is unlinked first, so a rerun writes a
    new file instead of truncating the old one: ext4 (``auto_da_alloc``)
    flushes a file truncated to zero when it is closed, and that flush stalls
    the writer for tens of milliseconds.  A symlink, a device, a file with
    other hard links, or a path that cannot be unlinked is opened in place as
    before, so the link, the device or the shared inode receives the bytes.
    """
    try:
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
            os.unlink(path)
    except OSError:  # missing, or not ours to unlink: ``open`` decides
        pass
    return open(path, "w", newline=newline)


def write_json(path, obj) -> None:
    """Write ``obj`` as one line of key-sorted JSON, through the C encoder."""
    with open_output(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True))
        fh.write("\n")


def sort_edges(edges: Iterable[Edge]) -> tuple:
    return tuple(sorted(edges, key=Edge.key))
