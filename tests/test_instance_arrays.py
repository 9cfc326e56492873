"""The array path of instances against per-object references.

Candidate tables, labels and compiled batches are built from arrays: one
table per tuple of node categories, one membership test per labelling, and
one stable sort over the attention edges of many graphs.  Each is checked
here, on random graphs, against the per-object computation it replaces,
which this module keeps as the reference: equal arrays, in equal dtypes.
Instances built from a corpus's frames, with no scene graph, are checked
against instances built from the frames' scene graphs.
"""

import dataclasses
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cornergraph import frames, scenarios
from cornergraph.cli import main
from cornergraph.extended import (
    ConsistentArgmax,
    ExtendedGraph,
    Threshold,
    attach_predictions,
    candidate_table,
    decode_prediction,
    enumerate_candidates,
    extend,
    label_candidates,
)
from cornergraph.frames import FrameSnapshot, PlacedActor, build_scene_graph
from cornergraph.graphs import (
    DISTANCE_RELATIONS,
    ActorCategory,
    AgentState,
    Edge,
    LightState,
    Node,
    RELATION_ORDINAL,
    RelationCategory,
    SceneGraph,
    licensed,
)
from cornergraph.model import (
    CANDIDATE_TABLE,
    EDGE_FEATURE_SIZE,
    EDGE_TABLE,
    ModelParams,
    compile_batch,
    cross_edge_feature,
    node_feature_vector,
    save_checkpoint,
    self_edge_feature,
)
from cornergraph.scenarios import (
    Scenario,
    ScenarioTemplate,
    corpus_instances,
    generate_corpus,
    ground_truth_graph,
    to_instances,
    write_corpus,
)

SELF = RelationCategory.SELF_STATE

# --- references ------------------------------------------------------------


def reference_candidates(categories) -> list:
    """(head, tail, ordinal) of every licensed cross-edge, by the triple loop,
    sorted."""
    return sorted(
        (head, tail, RELATION_ORDINAL[rel])
        for head, head_cat in enumerate(categories)
        for tail, tail_cat in enumerate(categories)
        if head != tail
        for rel in RelationCategory
        if licensed(head_cat, rel, tail_cat)
    )


def reference_attention(graph):
    """Attention edges one object at a time, ordered by a tuple sort."""
    entries = []
    with_self = set()
    for edge in graph.edges:
        if edge.relation is SELF:
            with_self.add(edge.head)
            feat = self_edge_feature(graph.nodes[edge.head])
        else:
            feat = cross_edge_feature(edge.relation)
        entries.append((edge.tail, edge.head, RELATION_ORDINAL[edge.relation], feat))
    for node in graph.nodes:
        if node.id not in with_self:
            feat = np.zeros(EDGE_FEATURE_SIZE)
            feat[7] = 1.0
            entries.append((node.id, node.id, RELATION_ORDINAL[SELF], feat))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return (
        np.array([e[0] for e in entries], dtype=np.int64),
        np.array([e[1] for e in entries], dtype=np.int64),
        np.stack([e[3] for e in entries]),
    )


def reference_compile(instances) -> dict:
    """A batch compiled from per-object features and candidate objects."""
    feats, dsts, srcs, attrs, kg_attrs, heads, tails = [], [], [], [], [], [], []
    bounds = [0]
    offset = 0
    for ext in instances:
        graph = ext.base
        dst, src, edge_attrs = reference_attention(graph)
        feats.extend(node_feature_vector(node) for node in graph.nodes)
        dsts.append(dst + offset)
        srcs.append(src + offset)
        attrs.append(edge_attrs)
        for c in ext.candidates:
            kg_attrs.append(cross_edge_feature(c.relation))
            heads.append(c.head + offset)
            tails.append(c.tail + offset)
        offset += len(graph.nodes)
        bounds.append(len(heads))
    return {
        "node_feats": np.stack(feats),
        "dst": np.concatenate(dsts),
        "src": np.concatenate(srcs),
        "edge_attrs": np.concatenate(attrs),
        "kg_attrs": np.stack(kg_attrs) if kg_attrs else np.zeros((0, EDGE_FEATURE_SIZE)),
        "heads": np.array(heads, dtype=np.int64),
        "tails": np.array(tails, dtype=np.int64),
        "bounds": np.array(bounds, dtype=np.int64),
    }


def reference_decode(ext, mode) -> list:
    """Edge keys of the decoded graph, one candidate object at a time."""
    kept = []
    if isinstance(mode, Threshold):
        kept = [c for c in ext.candidates if c.predicted_prob >= mode.tau]
    else:
        best = {}
        for c in ext.candidates:
            if c.relation is RelationCategory.IS_IN:
                key = ("isin", c.head)
            elif c.relation in DISTANCE_RELATIONS:
                key = ("distance", c.head, c.tail)
            else:
                key = ("quadrant", c.head, c.tail)
            if key not in best or c.predicted_prob > best[key].predicted_prob:
                best[key] = c
        kept = list(best.values())
    keys = [e.key() for e in ext.base.edges if e.relation is SELF]
    return sorted(keys + [c.key() for c in kept])


# --- strategies ------------------------------------------------------------

categories = st.lists(st.sampled_from(list(ActorCategory)), min_size=1, max_size=7).map(tuple)


@st.composite
def states(draw):
    if draw(st.booleans()):
        return None
    speed = st.floats(-40.0, 40.0, allow_nan=False)
    return AgentState(
        location=(0.0, 0.0),
        velocity=draw(st.none() | st.tuples(speed, speed)),
        braking=draw(st.none() | st.booleans()),
        light_state=draw(st.none() | st.sampled_from(list(LightState))),
    )


@st.composite
def graphs(draw, cats=categories):
    """A graph over drawn categories and states with a random edge list:
    any relation between any two nodes, repeats and self-state edges
    included, in drawn order."""
    cats = draw(cats)
    n = len(cats)
    nodes = tuple(Node(i, cat, draw(states())) for i, cat in enumerate(cats))
    ids = st.integers(0, n - 1)
    edges = draw(
        st.lists(
            st.tuples(ids, st.sampled_from(list(RelationCategory)), ids).map(
                lambda t: Edge(t[0], t[1], t[2] if t[1] is not SELF else t[0])
            ),
            max_size=3 * n,
        )
    )
    return SceneGraph(nodes, tuple(edges))


def categories_of(graph) -> tuple:
    return tuple(node.category for node in graph.nodes)


# --- tests -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(categories)
def test_table_equals_the_triple_loop_and_enumerate_candidates(cats):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = candidate_table(cats)
        want = reference_candidates(cats)
        rows = list(zip(table.heads.tolist(), table.tails.tolist(), table.ordinals.tolist()))
        assert rows == want
        graph = SceneGraph(tuple(Node(i, c) for i, c in enumerate(cats)), ())
        assert [c.key() for c in enumerate_candidates(graph)] == want
        for array in (table.heads, table.tails, table.ordinals, table.keys, table.categories):
            assert array.dtype == np.int64
            assert not array.flags.writeable
        assert candidate_table(cats) is table


def test_a_tuple_that_licenses_nothing_has_an_empty_table():
    for cats in [(ActorCategory.ROAD,), (ActorCategory.ROAD, ActorCategory.OBJECT)]:
        table = candidate_table(cats)
        assert len(table) == 0
        assert table.heads.shape == (0,) and table.heads.dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_labels_equal_set_membership(data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = data.draw(graphs())
        truth = data.draw(graphs(st.just(categories_of(base))))
        truth = SceneGraph(base.nodes, truth.edges)
        labeled = label_candidates(extend(base, target_frame=1), truth)
        present = {e.key() for e in truth.edges if e.relation is not SELF}
        want = [int(key in present) for key in reference_candidates(categories_of(base))]
        labels = labeled.labels()
        assert labels.dtype == np.int64
        assert labels.tolist() == want
        assert [c.label for c in labeled.candidates] == want


@settings(max_examples=150, deadline=None)
@given(st.lists(graphs(), min_size=1, max_size=5), st.data())
def test_compile_batch_equals_the_per_object_compile(chunk, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        instances = [extend(g, target_frame=1) for g in chunk]
        # an instance made from candidate objects compiles like one made
        # from a cached table
        k = data.draw(st.integers(0, len(instances) - 1))
        instances[k] = ExtendedGraph(
            base=chunk[k], candidates=instances[k].candidates, target_frame=1
        )
        got = compile_batch(instances)
        mine = {
            "node_feats": got.node_features(),
            "dst": got.dst,
            "src": got.src,
            "edge_attrs": EDGE_TABLE[got.edge_rows],
            "kg_attrs": CANDIDATE_TABLE[got.kg_ordinals],
            "heads": got.heads,
            "tails": got.tails,
            "bounds": got.bounds,
        }
        want = reference_compile(instances)
        for name, array in want.items():
            assert mine[name].dtype == array.dtype, name
            assert mine[name].shape == array.shape, name
            assert mine[name].tobytes() == array.tobytes(), name


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_decoding_equals_the_per_object_decode(graph, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ext = extend(graph, target_frame=3)
        # few distinct values, so groups often tie
        q = len(ext.table)
        probs = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=q, max_size=q))
        scored = attach_predictions(ext, probs)
        for mode in (ConsistentArgmax(), Threshold(0.5)):
            decoded = decode_prediction(scored, mode)
            assert [e.key() for e in decoded.edges] == reference_decode(scored, mode)
            assert decoded.frame_index == 3 and decoded.is_corner_case


# --- instances built from frames --------------------------------------------


def assert_same_batch(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype, field.name
        assert a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), field.name


def graph_instances(scenario) -> list:
    """The scenario's instances built from its frames' scene graphs."""
    truth = ground_truth_graph(scenario)
    return [
        label_candidates(extend(build_scene_graph(frame), scenario.horizon, scenario.id), truth)
        for frame in scenario.frames[:-1]
    ]


def check_against_graphs(corpus):
    insts = corpus_instances(corpus)
    want = [ext for scenario in corpus for ext in graph_instances(scenario)]
    assert len(insts) == len(want)
    # one batch of every instance, and one batch per instance
    assert_same_batch(compile_batch(insts), compile_batch(want))
    for ext, ref in zip(insts, want):
        assert_same_batch(compile_batch([ext]), compile_batch([ref]))
        assert ext.labels().dtype == np.int64
        assert not ext.labels().flags.writeable
        assert ext.labels().tobytes() == ref.labels().tobytes()
        assert ext.table is ref.table
        assert (ext.scenario_id, ext.target_frame) == (ref.scenario_id, ref.target_frame)
        assert ext.frame_index == ref.frame_index
        assert ext.base == ref.base
        for array in ext.arrays:
            assert not array.flags.writeable


def test_corpus_instances_equal_the_graph_path_on_every_template():
    corpus = generate_corpus(seed=41, count=18)
    assert {scenario.template for scenario in corpus} == set(ScenarioTemplate)
    check_against_graphs(corpus)


def _placed(category, x, y, **state):
    return PlacedActor(category, AgentState(location=(x, y), **state))


def test_hand_made_frames_equal_the_graph_path(two_lane_layout):
    """Frames no template makes: a static object, a traffic light in each
    phase, a braking and a coasting car, and actors on strip edges (x = 0
    lies on both lanes, x = -3.5 on the pavement and the lane)."""
    lights = list(LightState)
    frame_list = []
    for t in range(len(lights) + 1):
        actors = [
            _placed(ActorCategory.EGO, -1.75, 4.0 * t, velocity=(0.0, 8.0), braking=t == 2),
            _placed(ActorCategory.CAR, -1.75, 30.0 - t, velocity=(0.0, 6.0), braking=True),
            _placed(ActorCategory.CAR, 1.75, 60.0 - 9.0 * t, heading=np.pi, velocity=(0.0, -18.0), braking=False),
            _placed(ActorCategory.TRAFFIC_LIGHT, 4.5, 40.0, light_state=lights[t % len(lights)]),
            _placed(ActorCategory.OBJECT, -4.5, 9.0 + 3.0 * t),
            _placed(ActorCategory.BICYCLE, 0.0, 20.0 + t, velocity=(0.5, 3.0)),
            _placed(ActorCategory.PEDESTRIAN, -3.5, 12.0, heading=np.pi / 2, velocity=(1.2, 0.0)),
        ]
        frame_list.append(
            FrameSnapshot(
                index=t, is_corner_case=t == len(lights), layout=two_lane_layout, actors=actors
            )
        )
    scenario = Scenario(
        id="hand-made",
        template=ScenarioTemplate.RED_LIGHT_RUNNER,
        seed=0,
        index=0,
        layout=two_lane_layout,
        frames=tuple(frame_list),
    )
    graphs = [build_scene_graph(frame) for frame in frame_list]
    relations = {e.relation for g in graphs for e in g.edges}
    assert set(DISTANCE_RELATIONS) <= relations
    # the ego's separation edge to the object, and the edge actors' strips
    assert any(g.has_edge(0, r, 4) for g in graphs for r in DISTANCE_RELATIONS)
    assert graphs[0].has_edge(5, RelationCategory.IS_IN, 8)
    assert graphs[0].has_edge(6, RelationCategory.IS_IN, 7)
    check_against_graphs([scenario])
    scalars = [to_instances(scenario)[t].arrays.scalars for t in range(len(lights))]
    assert sorted({float(x) for a in scalars for x in a}) == [0.0, 0.5, 1.0]


def test_eval_and_train_build_no_scene_graph(tmp_path, monkeypatch, tiny_dims):
    corpus_path = tmp_path / "corpus.json"
    model_path = tmp_path / "model.json"
    write_corpus(corpus_path, generate_corpus(seed=8, count=6))
    save_checkpoint(model_path, ModelParams.initialize(tiny_dims, seed=1))
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\nencoder_hidden=8\ngat1_out=8\nmid_hidden=8\nmid_out=8\n")

    built = []
    build = frames.build_scene_graph
    post_init = SceneGraph.__post_init__

    def counted_build(frame):
        built.append(frame)
        return build(frame)

    def counted_post_init(graph):
        built.append(graph)
        post_init(graph)

    for module in (frames, scenarios):
        monkeypatch.setattr(module, "build_scene_graph", counted_build)
    monkeypatch.setattr(SceneGraph, "__post_init__", counted_post_init)
    assert main([
        "eval", "--data", str(corpus_path), "--model", str(model_path),
        "--subset", "all", "--out", str(tmp_path / "eval.json"),
    ]) == 0
    assert main([
        "train", "--config", str(cfg), "--data", str(corpus_path),
        "--out", str(tmp_path / "trained.json"),
    ]) == 0
    assert built == []
    # the counters see what the other commands build
    assert main([
        "perturb", "--data", str(corpus_path), "--model", str(model_path),
        "--out", str(tmp_path / "decoded.jsonl"),
    ]) == 0
    assert built
