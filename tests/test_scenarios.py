import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cornergraph.extended import NodeMismatch, extend, label_candidates
from cornergraph.frames import build_scene_graph
from cornergraph.graphs import (
    ActorCategory,
    RelationCategory,
    SchemaError,
    validate_grammar,
)
from cornergraph.scenarios import (
    EGO_LANE_CENTER,
    FRAME_PERIOD,
    GenerationError,
    Scenario,
    ScenarioTemplate,
    TEMPLATE_ORDINAL,
    corpus_instances,
    dual_carriageway_layout,
    generate,
    generate_corpus,
    ground_truth_graph,
    motorway_layout,
    positive_fraction,
    read_corpus,
    scenario_from_json,
    scenario_to_json,
    to_instances,
    urban_layout,
    write_corpus,
)
from json_fuzz import field_paths, json_values, replaced

ALL_TEMPLATES = list(ScenarioTemplate)


def edge_set(graph, head):
    return {(e.relation, e.tail) for e in graph.edges if e.head == head}


def test_template_ordinals_are_dense():
    assert sorted(TEMPLATE_ORDINAL.values()) == list(range(len(ALL_TEMPLATES)))
    assert TEMPLATE_ORDINAL[ScenarioTemplate.ONCOMING_CYCLIST_CUT_IN] == 0


def test_cyclist_scenario_structure():
    scn = generate(ScenarioTemplate.ONCOMING_CYCLIST_CUT_IN, 7, 1)[0]
    assert scn.id == "OncomingCyclistCutIn-s7-0000"
    assert 6 <= scn.horizon <= 10
    assert [f.is_corner_case for f in scn.frames] == [False] * scn.horizon + [True]

    g0 = build_scene_graph(scn.frames[0])
    cats = [n.category for n in g0.nodes]
    assert cats[0] is ActorCategory.EGO
    assert cats[1] is ActorCategory.BICYCLE
    # urban layout: pavement, lane, lane, pavement strips then the road
    assert cats[2:] == [
        ActorCategory.PAVEMENT,
        ActorCategory.LANE,
        ActorCategory.LANE,
        ActorCategory.PAVEMENT,
        ActorCategory.ROAD,
    ]
    # the cyclist starts oncoming in the far lane, still safe, ahead of ego
    assert edge_set(g0, 1) == {
        (RelationCategory.IS_IN, 4),
        (RelationCategory.SAFE_DISTANCE, 0),
        (RelationCategory.IN_FRONT_OF, 0),
        (RelationCategory.SELF_STATE, 1),
    }

    gt = ground_truth_graph(scn)
    assert gt.is_corner_case is True
    assert gt.frame_index == scn.horizon
    # terminal frame: cut into the ego lane at unsafe range, dead ahead
    assert edge_set(gt, 1) == {
        (RelationCategory.IS_IN, 3),
        (RelationCategory.UNSAFE_DISTANCE, 0),
        (RelationCategory.IN_FRONT_OF, 0),
        (RelationCategory.SELF_STATE, 1),
    }


def test_terminal_adversary_lands_in_ego_lane_for_every_template():
    for template in ALL_TEMPLATES:
        scn = generate(template, 3, 1)[0]
        gt = ground_truth_graph(scn)
        triple = edge_set(gt, 1)
        assert (RelationCategory.UNSAFE_DISTANCE, 0) in triple, template
        assert (RelationCategory.IN_FRONT_OF, 0) in triple, template
        lane_node = next(
            e.tail for e in gt.edges
            if e.head == 1 and e.relation is RelationCategory.IS_IN
        )
        strip = gt.nodes[lane_node]
        assert strip.category is ActorCategory.LANE, template
        x_term = scn.frames[-1].actors[1].state.location[0]
        assert abs(x_term - EGO_LANE_CENTER) <= 0.5 + 1e-9, template


@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.value)
@pytest.mark.parametrize("seed", [0, 11])
def test_every_frame_is_grammatical(template, seed):
    scn = generate(template, seed, 1)[0]
    for frame in scn.frames:
        assert validate_grammar(build_scene_graph(frame)) == []


@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.value)
def test_motion_is_continuous_and_velocities_match_displacement(template):
    scn = generate(template, 5, 1)[0]
    n = scn.horizon
    for k, frame in enumerate(scn.frames):
        for a, actor in enumerate(frame.actors):
            if actor.category is ActorCategory.TRAFFIC_LIGHT:
                continue
            x, y = actor.state.location
            if k < n:
                nxt = scn.frames[k + 1].actors[a].state.location
                dx, dy = nxt[0] - x, nxt[1] - y
                assert math.hypot(dx, dy) <= 15.0 + 1e-9
                vx, vy = actor.state.velocity
                assert vx == pytest.approx(dx / FRAME_PERIOD, abs=1e-9)
                assert vy == pytest.approx(dy / FRAME_PERIOD, abs=1e-9)
            else:
                prev = scn.frames[k - 1].actors[a].state.velocity
                assert actor.state.velocity == pytest.approx(prev)


def test_ego_cruises_straight_at_constant_speed():
    for template in ALL_TEMPLATES:
        scn = generate(template, 9, 1)[0]
        v = scn.ego_speed
        for k, frame in enumerate(scn.frames):
            ego = frame.ego
            assert ego.state.location[0] == pytest.approx(EGO_LANE_CENTER)
            assert ego.state.location[1] == pytest.approx(v * FRAME_PERIOD * k)
            assert ego.state.heading == 0.0
            assert ego.state.velocity == pytest.approx((0.0, v))


def test_generation_is_deterministic_and_index_separated():
    a = generate(ScenarioTemplate.PEDESTRIAN_CROSSING, 21, 2)
    b = generate(ScenarioTemplate.PEDESTRIAN_CROSSING, 21, 2)
    assert [scenario_to_json(x) for x in a] == [scenario_to_json(y) for y in b]
    assert scenario_to_json(a[0]) != scenario_to_json(a[1])
    c = generate(ScenarioTemplate.PEDESTRIAN_CROSSING, 22, 1)
    assert scenario_to_json(c[0]) != scenario_to_json(a[0])


def test_instances_per_scenario_cover_regular_frames():
    scn = generate(ScenarioTemplate.LEAD_VEHICLE_BRAKE, 4, 1)[0]
    insts = to_instances(scn)
    assert len(insts) == scn.horizon
    assert [ext.base.frame_index for ext in insts] == list(range(scn.horizon))
    assert {ext.target_frame for ext in insts} == {scn.horizon}
    assert {ext.scenario_id for ext in insts} == {scn.id}
    for ext in insts:
        labels = ext.labels()
        assert 0 < sum(labels) < len(labels)


def test_frames_share_one_label_array_equal_to_labelling_each():
    corpus = generate_corpus(seed=3, count=12)
    pooled = corpus_instances(corpus)
    want = []
    for scn in corpus:
        target = ground_truth_graph(scn)
        want += [
            label_candidates(extend(build_scene_graph(f), scn.horizon), target).labels()
            for f in scn.frames[:-1]
        ]
        insts = to_instances(scn)
        assert all(ext.label_array is insts[0].label_array for ext in insts)
        assert not insts[0].label_array.flags.writeable
    got = np.concatenate([ext.labels() for ext in pooled])
    assert got.tobytes() == np.concatenate(want).tobytes()


def test_a_later_frame_with_other_nodes_raises():
    scn = generate(ScenarioTemplate.LEAD_VEHICLE_BRAKE, 4, 1)[0]
    frames = list(scn.frames)
    frames[1] = dataclasses.replace(frames[1], actors=frames[1].actors[:-1])
    with pytest.raises(NodeMismatch):
        to_instances(dataclasses.replace(scn, frames=frames))


def test_candidate_counts_by_road_type():
    urban = generate(ScenarioTemplate.ONCOMING_CYCLIST_CUT_IN, 2, 1)[0]
    motorway = generate(ScenarioTemplate.MOTORWAY_MERGE, 2, 1)[0]
    rlr = generate(ScenarioTemplate.RED_LIGHT_RUNNER, 2, 1)[0]
    for scn, n_cand, n_pos in [(urban, 20, 8), (motorway, 19, 7), (rlr, 26, 9)]:
        ext = to_instances(scn)[0]
        assert len(ext.candidates) == n_cand
        assert sum(ext.labels()) == n_pos


def test_corpus_balance_and_positive_fraction():
    corpus = generate_corpus(seed=1, count=15)
    by_template = {}
    for scn in corpus:
        by_template[scn.template] = by_template.get(scn.template, 0) + 1
    counts = sorted(by_template.values())
    assert len(corpus) == 15
    assert len(by_template) == 6
    assert counts == [2, 2, 2, 3, 3, 3]

    frac = positive_fraction(corpus_instances(corpus[:6]))
    assert 0.05 < frac < 0.6


def test_layout_constructors():
    urban = urban_layout()
    assert [s.category for s in urban.strips] == [
        ActorCategory.PAVEMENT,
        ActorCategory.LANE,
        ActorCategory.LANE,
        ActorCategory.PAVEMENT,
    ]
    assert urban.strips[1].center == pytest.approx(EGO_LANE_CENTER)

    dual = dual_carriageway_layout()
    assert dual.strips[2].direction == dual.strips[1].direction

    mway = motorway_layout()
    assert mway.strips[0].category is ActorCategory.SHOULDER
    # shoulder must clear the adjacent lane edge
    assert mway.strips[0].center + mway.strips[0].width / 2 <= -3.5 + 1e-9


def test_scenario_json_round_trip():
    scn = generate(ScenarioTemplate.RED_LIGHT_RUNNER, 13, 1)[0]
    obj = scenario_to_json(scn)
    back = scenario_from_json(obj)
    assert back == scn
    assert json.dumps(obj, sort_keys=True) == json.dumps(
        scenario_to_json(back), sort_keys=True
    )


def test_scenario_json_rejects_unknown_fields():
    scn = generate(ScenarioTemplate.MOTORWAY_MERGE, 0, 1)[0]
    obj = scenario_to_json(scn)
    obj["surprise"] = 1
    with pytest.raises(SchemaError):
        scenario_from_json(obj)


def test_corpus_file_round_trip(tmp_path):
    scenarios = generate_corpus(seed=3, count=6)
    path = tmp_path / "corpus.json"
    write_corpus(path, scenarios, meta={"seed": 3})
    back, meta = read_corpus(path)
    assert back == scenarios
    assert meta["seed"] == 3

    obj = json.loads(path.read_text())
    assert obj["schema_version"] == 1
    obj["schema_version"] = 9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(SchemaError):
        read_corpus(bad)


def test_generate_rejects_bad_count():
    with pytest.raises(ValueError):
        generate(ScenarioTemplate.MOTORWAY_MERGE, 0, 0)


_FUZZ_SCENARIO = scenario_to_json(generate(ScenarioTemplate.RED_LIGHT_RUNNER, 5, 1)[0])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(field_paths(_FUZZ_SCENARIO)), json_values)
def test_scenario_from_json_returns_a_scenario_or_raises_schema_error(path, value):
    try:
        scenario = scenario_from_json(replaced(_FUZZ_SCENARIO, path, value))
    except SchemaError:
        return
    assert isinstance(scenario, Scenario)
