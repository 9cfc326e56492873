"""Parameterized synthetic scenario corpus.

Each template produces short frame sequences on a straight multi-strip road:
regular frames followed by a terminal conflict frame in which one adversary
ends up in the ego's lane, close ahead.  Parameter ranges are chosen so the
terminal frame always discretizes to an unsafe-separation, in-front relation
pair regardless of the draw, and the opening frame always builds a valid
graph.  Sampling is seeded per (template, corpus seed, index), so corpora are
reproducible element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .extended import (
    ExtendedGraph,
    NodeMismatch,
    candidate_table,
    graph_arrays,
    truth_labels,
)
from .frames import (
    FrameSnapshot,
    InvalidFrame,
    PlacedActor,
    RoadLayout,
    Strip,
    build_scene_graph,
    frame_rows,
)
from .graphs import (
    BRAKING_CATEGORIES,
    DYNAMIC_CATEGORIES,
    ActorCategory,
    AgentState,
    LightState,
    RelationCategory,
    SceneGraph,
    SchemaError,
    _reject_unknown,
    decoder,
    json_bool,
    json_int,
    json_str,
    read_json,
    state_from_json,
    state_to_json,
    validate_grammar,
    write_json,
)
from .relations import DegenerateGeometry, stopping_distance

#: seconds between consecutive stored frames
FRAME_PERIOD = 0.5

#: lateral center of the lane the ego drives in, shared by all layouts
EGO_LANE_CENTER = -1.75


class ScenarioTemplate(str, Enum):
    ONCOMING_CYCLIST_CUT_IN = "OncomingCyclistCutIn"
    PEDESTRIAN_CROSSING = "PedestrianCrossing"
    LEAD_VEHICLE_BRAKE = "LeadVehicleBrake"
    LANE_CHANGE_CONFLICT = "LaneChangeConflict"
    MOTORWAY_MERGE = "MotorwayMerge"
    RED_LIGHT_RUNNER = "RedLightRunner"


TEMPLATE_ORDINAL = {t: i for i, t in enumerate(ScenarioTemplate)}


class GenerationError(RuntimeError):
    """A sampled scenario failed its own structural guarantees."""


def urban_layout() -> RoadLayout:
    return RoadLayout(
        strips=(
            Strip(ActorCategory.PAVEMENT, center=-4.5, width=2.0),
            Strip(ActorCategory.LANE, center=-1.75, width=3.5, direction=1),
            Strip(ActorCategory.LANE, center=1.75, width=3.5, direction=-1),
            Strip(ActorCategory.PAVEMENT, center=4.5, width=2.0),
        )
    )


def dual_carriageway_layout() -> RoadLayout:
    return RoadLayout(
        strips=(
            Strip(ActorCategory.PAVEMENT, center=-4.5, width=2.0),
            Strip(ActorCategory.LANE, center=-1.75, width=3.5, direction=1),
            Strip(ActorCategory.LANE, center=1.75, width=3.5, direction=1),
            Strip(ActorCategory.PAVEMENT, center=4.5, width=2.0),
        )
    )


def motorway_layout() -> RoadLayout:
    # the shoulder reaches the lane edge so a merging path never leaves the road
    return RoadLayout(
        strips=(
            Strip(ActorCategory.SHOULDER, center=-5.1, width=3.2),
            Strip(ActorCategory.LANE, center=-1.75, width=3.5, direction=1),
            Strip(ActorCategory.LANE, center=1.75, width=3.5, direction=1),
        )
    )


@dataclass(frozen=True)
class Scenario:
    id: str
    template: ScenarioTemplate
    seed: int
    index: int
    layout: RoadLayout
    frames: tuple[FrameSnapshot, ...]

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))

    @property
    def horizon(self) -> int:
        return len(self.frames) - 1

    @property
    def ego_speed(self) -> float:
        return self.frames[0].ego.state.speed


def _cut_schedule(x_start: float, x_end: float, n: int, cut: int) -> list:
    """Lateral positions over frames 0..n: hold, then move over the last
    ``cut`` frames."""
    xs = []
    for t in range(n + 1):
        if t <= n - cut:
            xs.append(x_start)
        else:
            frac = (t - (n - cut)) / cut
            xs.append(x_start + (x_end - x_start) * frac)
    return xs


def _ego_path(v_e: float, n: int) -> list:
    return [(EGO_LANE_CENTER, v_e * FRAME_PERIOD * t) for t in range(n + 1)]


@dataclass
class _Draft:
    layout: RoadLayout
    categories: list
    headings: list
    paths: list  # per actor, list of (x, y) length n+1
    braking_from: dict  # actor index -> first braking frame
    lights: dict  # actor index -> LightState


def _oncoming_cyclist(rng) -> _Draft:
    n = int(rng.integers(6, 11))
    v_e = float(rng.uniform(14.0, 20.0))
    v_b = float(rng.uniform(3.0, 8.0))
    g_n = float(rng.uniform(1.5, 5.0))
    x_start = 1.75 + float(rng.uniform(-0.3, 0.3))
    x_end = EGO_LANE_CENTER + float(rng.uniform(-0.5, 0.5))
    cut = min(int(rng.integers(2, 4)), n - 1)

    ego = _ego_path(v_e, n)
    # start far enough up the road that the approach begins safely separated
    ay0 = ego[n][1] + g_n + v_b * FRAME_PERIOD * n
    xs = _cut_schedule(x_start, x_end, n, cut)
    adv = [(xs[t], ay0 - v_b * FRAME_PERIOD * t) for t in range(n + 1)]
    return _Draft(
        layout=urban_layout(),
        categories=[ActorCategory.EGO, ActorCategory.BICYCLE],
        headings=[0.0, math.pi],
        paths=[ego, adv],
        braking_from={},
        lights={},
    )


def _pedestrian_crossing(rng) -> _Draft:
    n = int(rng.integers(6, 11))
    v_e = float(rng.uniform(10.0, 16.0))
    g_n = float(rng.uniform(1.5, 5.0))
    x_start = 4.5 + float(rng.uniform(-0.4, 0.4))
    x_end = EGO_LANE_CENTER + float(rng.uniform(-0.5, 0.5))

    ego = _ego_path(v_e, n)
    y_walk = ego[n][1] + g_n
    adv = [
        (x_start + (x_end - x_start) * t / n, y_walk) for t in range(n + 1)
    ]
    return _Draft(
        layout=urban_layout(),
        categories=[ActorCategory.EGO, ActorCategory.PEDESTRIAN],
        headings=[0.0, -math.pi / 2.0],
        paths=[ego, adv],
        braking_from={},
        lights={},
    )


def _lead_vehicle_brake(rng) -> _Draft:
    n = int(rng.integers(6, 11))
    v_e = float(rng.uniform(14.0, 20.0))
    g_n = float(rng.uniform(5.5, 9.0))
    x_lead = EGO_LANE_CENTER + float(rng.uniform(-0.5, 0.5))

    margin = stopping_distance(v_e)
    # upper bound keeps the gap-shrink rate under 0.8 of the ego speed, so the
    # lead keeps rolling forward the whole time
    g_0 = float(rng.uniform(margin + 2.0, g_n + 0.4 * n * v_e - 1.0))

    ego = _ego_path(v_e, n)
    adv = [
        (x_lead, ego[t][1] + g_0 + (g_n - g_0) * t / n) for t in range(n + 1)
    ]
    return _Draft(
        layout=urban_layout(),
        categories=[ActorCategory.EGO, ActorCategory.CAR],
        headings=[0.0, 0.0],
        paths=[ego, adv],
        braking_from={1: max(1, n - 3)},
        lights={},
    )


def _lane_change_conflict(rng) -> _Draft:
    n = int(rng.integers(8, 11))
    v_e = float(rng.uniform(14.0, 18.0))
    g_n = float(rng.uniform(5.5, 9.0))
    # biased away from the ego lane: a straight pass must stay clear of the
    # near-miss band
    x_start = 1.75 + float(rng.uniform(0.05, 0.35))
    x_end = EGO_LANE_CENTER + float(rng.uniform(-0.5, 0.5))
    cut = int(rng.integers(2, 4))

    margin = stopping_distance(v_e)
    # slow enough that the opening gap is already beyond stopping range
    dv_min = max(4.0, (margin + 1.0 - g_n) / (FRAME_PERIOD * n))
    dv = dv_min + float(rng.uniform(0.0, 3.0))
    v_a = v_e - dv

    ego = _ego_path(v_e, n)
    ay0 = ego[n][1] + g_n - v_a * FRAME_PERIOD * n
    xs = _cut_schedule(x_start, x_end, n, cut)
    adv = [(xs[t], ay0 + v_a * FRAME_PERIOD * t) for t in range(n + 1)]
    return _Draft(
        layout=dual_carriageway_layout(),
        categories=[ActorCategory.EGO, ActorCategory.CAR],
        headings=[0.0, 0.0],
        paths=[ego, adv],
        braking_from={},
        lights={},
    )


def _motorway_merge(rng) -> _Draft:
    n = int(rng.integers(5, 11))
    v_e = float(rng.uniform(10.0, 15.0))
    g_n = float(rng.uniform(5.5, 9.0))
    x_park = -5.6
    x_end = EGO_LANE_CENTER + float(rng.uniform(-0.5, 0.5))
    cut = min(int(rng.integers(2, 4)), n - 1)

    ego = _ego_path(v_e, n)
    travel = ego[n][1]
    d_0 = float(rng.uniform(14.0, min(28.0, 0.8 * travel)))
    y_end = travel + g_n
    xs = _cut_schedule(x_park, x_end, n, cut)
    # quadratic ramp: pulls away from rest, fastest at the end
    adv = [
        (xs[t], d_0 + (y_end - d_0) * (t / n) ** 2) for t in range(n + 1)
    ]
    return _Draft(
        layout=motorway_layout(),
        categories=[ActorCategory.EGO, ActorCategory.CAR],
        headings=[0.0, 0.0],
        paths=[ego, adv],
        braking_from={},
        lights={},
    )


def _red_light_runner(rng) -> _Draft:
    n = int(rng.integers(6, 11))
    v_e = float(rng.uniform(10.0, 16.0))
    v_c = float(rng.uniform(8.0, 14.0))
    g_n = float(rng.uniform(5.5, 9.0))
    # oncoming car: same outward bias, a head-on pass is not yet a near miss
    x_start = 1.75 + float(rng.uniform(0.05, 0.35))
    x_end = EGO_LANE_CENTER + float(rng.uniform(-0.5, 0.5))
    cut = min(int(rng.integers(2, 4)), n - 1)

    ego = _ego_path(v_e, n)
    ay0 = ego[n][1] + g_n + v_c * FRAME_PERIOD * n
    xs = _cut_schedule(x_start, x_end, n, cut)
    adv = [(xs[t], ay0 - v_c * FRAME_PERIOD * t) for t in range(n + 1)]
    light_y = ego[n][1] + float(rng.uniform(8.0, 15.0))
    light = [(4.5, light_y)] * (n + 1)
    return _Draft(
        layout=urban_layout(),
        categories=[
            ActorCategory.EGO,
            ActorCategory.CAR,
            ActorCategory.TRAFFIC_LIGHT,
        ],
        headings=[0.0, math.pi, 0.0],
        paths=[ego, adv, light],
        braking_from={},
        lights={2: LightState.RED},
    )


_BUILDERS = {
    ScenarioTemplate.ONCOMING_CYCLIST_CUT_IN: _oncoming_cyclist,
    ScenarioTemplate.PEDESTRIAN_CROSSING: _pedestrian_crossing,
    ScenarioTemplate.LEAD_VEHICLE_BRAKE: _lead_vehicle_brake,
    ScenarioTemplate.LANE_CHANGE_CONFLICT: _lane_change_conflict,
    ScenarioTemplate.MOTORWAY_MERGE: _motorway_merge,
    ScenarioTemplate.RED_LIGHT_RUNNER: _red_light_runner,
}


def _actor_state(draft: _Draft, actor: int, t: int, n: int) -> AgentState:
    cat = draft.categories[actor]
    path = draft.paths[actor]
    velocity = None
    if cat in DYNAMIC_CATEGORIES:
        step = t if t < n else n - 1
        dx = (path[step + 1][0] - path[step][0]) / FRAME_PERIOD
        dy = (path[step + 1][1] - path[step][1]) / FRAME_PERIOD
        velocity = (dx, dy)
    braking = None
    if cat in BRAKING_CATEGORIES:
        start = draft.braking_from.get(actor)
        braking = start is not None and t >= start
    return AgentState(
        location=path[t],
        heading=draft.headings[actor],
        velocity=velocity,
        braking=braking,
        light_state=draft.lights.get(actor),
    )


def _check(scenario: Scenario) -> None:
    for frame in scenario.frames:
        graph = build_scene_graph(frame)
        violations = validate_grammar(graph)
        if violations:
            raise GenerationError(
                f"{scenario.id} frame {frame.index}: {violations[0].rule}"
            )
    # the loop ends on the terminal frame, so ``graph`` is its scene graph
    hit = any(
        e.relation is RelationCategory.UNSAFE_DISTANCE and e.tail == 0
        for e in graph.edges
    )
    if not hit:
        raise GenerationError(f"{scenario.id}: terminal frame is not a conflict")


def _generate_one(template: ScenarioTemplate, seed: int, index: int) -> Scenario:
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, TEMPLATE_ORDINAL[template], index])
    )
    draft = _BUILDERS[template](rng)
    n = len(draft.paths[0]) - 1
    frames = []
    for t in range(n + 1):
        actors = tuple(
            PlacedActor(
                category=draft.categories[a],
                state=_actor_state(draft, a, t, n),
            )
            for a in range(len(draft.categories))
        )
        frames.append(
            FrameSnapshot(
                index=t,
                is_corner_case=(t == n),
                layout=draft.layout,
                actors=actors,
            )
        )
    scenario = Scenario(
        id=f"{template.value}-s{seed}-{index:04d}",
        template=template,
        seed=seed,
        index=index,
        layout=draft.layout,
        frames=tuple(frames),
    )
    _check(scenario)
    return scenario


def generate(template: ScenarioTemplate, seed: int, count: int) -> list:
    if count < 1:
        raise ValueError("count must be at least 1")
    return [_generate_one(template, seed, i) for i in range(count)]


def generate_corpus(seed: int, count: int = 600) -> list:
    """Balanced corpus across all templates, in template order: template
    sizes differ by at most one, and a template with none is left out."""
    base, rem = divmod(count, len(ScenarioTemplate))
    out = []
    for i, template in enumerate(ScenarioTemplate):
        quota = base + (1 if i < rem else 0)
        if quota:
            out.extend(generate(template, seed, quota))
    return out


def _of_frame(fn, scenario: Scenario, index: int):
    """``fn`` of the scenario's frame at position ``index``.  A frame that
    describes no scene raises its ``InvalidFrame`` or ``DegenerateGeometry``
    with the scenario id and the frame's own index in front of the message."""
    try:
        return fn(scenario.frames[index])
    except (InvalidFrame, DegenerateGeometry) as err:
        frame = scenario.frames[index].index
        raise type(err)(f"scenario {scenario.id}, frame {frame}: {err}") from err


def frame_graph(scenario: Scenario, index: int) -> SceneGraph:
    """The scene graph of the scenario's frame ``index``."""
    return _of_frame(build_scene_graph, scenario, index)


def ground_truth_graph(scenario: Scenario) -> SceneGraph:
    return frame_graph(scenario, len(scenario.frames) - 1)


def _node_states(frame: FrameSnapshot) -> list:
    """The states of the frame graph's nodes: the actors' states, then none
    for each strip and for the road."""
    return [a.state for a in frame.actors] + [None] * (len(frame.layout.strips) + 1)


def _node_categories(frame: FrameSnapshot) -> tuple:
    return (
        tuple(a.category for a in frame.actors)
        + tuple(s.category for s in frame.layout.strips)
        + (ActorCategory.ROAD,)
    )


def to_instances(scenario: Scenario) -> list:
    """One labeled instance per regular frame of the scenario."""
    return corpus_instances([scenario])


def corpus_instances(scenarios) -> list:
    """One labeled instance per regular frame of each scenario, in corpus
    order, in one pass over the frames' edge rows.

    The instances of a scenario all share its terminal frame's ground truth:
    every frame's nodes must match the terminal frame's, so they share its
    candidate table and one read-only label array.  The attention edges of
    every frame are put in order by one sort (``graph_arrays``).  No scene
    graph is built; each instance builds its own on the first read of its
    ``base``.
    """
    sources, edges, states = [], [], []
    for scenario in scenarios:
        last = len(scenario.frames) - 1
        truth = _of_frame(frame_rows, scenario, last)
        categories = _node_categories(scenario.frames[last])
        for index in range(last):
            edges.append(_of_frame(frame_rows, scenario, index))
            frame = scenario.frames[index]
            if _node_categories(frame) != categories:
                raise NodeMismatch(
                    f"scenario {scenario.id}, frame {frame.index}: places other actors "
                    f"than its terminal frame {scenario.frames[last].index}"
                )
            states.append(_node_states(frame))
        if last:
            table = candidate_table(categories)
            labels = truth_labels(table, truth)
            sources += [(scenario, index, table, labels) for index in range(last)]
    return [
        ExtendedGraph.from_arrays(
            partial(frame_graph, scenario, index),
            frame_index=scenario.frames[index].index,
            arrays=arrays,
            table=table,
            label_array=labels,
            target_frame=len(scenario.frames) - 1,
            scenario_id=scenario.id,
        )
        for (scenario, index, table, labels), arrays in zip(sources, graph_arrays(edges, states))
    ]


def positive_fraction(instances) -> float:
    pos = 0
    total = 0
    for ext in instances:
        labels = ext.labels()
        pos += int(labels.sum())
        total += len(labels)
    if total == 0:
        raise ValueError("no candidates to count")
    return pos / total


# --- corpus serialization --------------------------------------------------

_SCENARIO_KEYS = {"id", "template", "seed", "index", "layout", "frames"}
_FRAME_KEYS = {"index", "corner_case", "actors"}
_ACTOR_KEYS = {"category", "state"}


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "id": scenario.id,
        "template": scenario.template.value,
        "seed": scenario.seed,
        "index": scenario.index,
        "layout": scenario.layout.to_json(),
        "frames": [
            {
                "index": f.index,
                "corner_case": f.is_corner_case,
                "actors": [
                    {"category": a.category.value, "state": state_to_json(a.state)}
                    for a in f.actors
                ],
            }
            for f in scenario.frames
        ],
    }


@decoder("scenario")
def scenario_from_json(obj: dict) -> Scenario:
    _reject_unknown(obj, _SCENARIO_KEYS, "scenario")
    layout = RoadLayout.from_json(obj["layout"])
    frames = []
    for raw in obj["frames"]:
        _reject_unknown(raw, _FRAME_KEYS, "frame")
        actors = []
        for a in raw["actors"]:
            _reject_unknown(a, _ACTOR_KEYS, "actor")
            actors.append(
                PlacedActor(
                    category=ActorCategory(a["category"]),
                    state=state_from_json(a["state"]),
                )
            )
        frames.append(
            FrameSnapshot(
                index=json_int(raw, "index"),
                is_corner_case=json_bool(raw, "corner_case"),
                layout=layout,
                actors=tuple(actors),
            )
        )
    if not frames:
        raise ValueError(f"scenario {obj.get('id')!r} holds no frames; each holds at least one")
    return Scenario(
        id=json_str(obj, "id"),
        template=ScenarioTemplate(obj["template"]),
        seed=json_int(obj, "seed"),
        index=json_int(obj, "index"),
        layout=layout,
        frames=tuple(frames),
    )


def write_corpus(path, scenarios, meta: dict | None = None) -> None:
    obj = {
        "schema_version": 1,
        "meta": meta or {},
        "scenarios": [scenario_to_json(s) for s in scenarios],
    }
    write_json(path, obj)


@decoder("corpus {}")
def read_corpus(path) -> tuple:
    obj = read_json(path)
    if not isinstance(obj, dict) or obj.get("schema_version") != 1:
        raise SchemaError(f"unsupported corpus schema in {path}")
    scenarios = [scenario_from_json(raw) for raw in obj["scenarios"]]
    if not scenarios:
        raise ValueError("the corpus holds no scenarios")
    ids = set()
    for scenario in scenarios:
        if scenario.id in ids:
            raise ValueError(f"the corpus holds scenario {scenario.id} more than once")
        ids.add(scenario.id)
    return scenarios, obj.get("meta", {})
