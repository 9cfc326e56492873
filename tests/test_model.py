import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornergraph.extended import extend
from cornergraph.frames import build_scene_graph
from cornergraph.graphs import (
    ActorCategory,
    AgentState,
    Edge,
    LightState,
    Node,
    RELATION_ORDINAL,
    RelationCategory,
    SceneGraph,
    sort_edges,
)
from cornergraph.model import (
    BATCH_SIZE,
    CHECKPOINT_SCHEMA_VERSION,
    DEFAULT_DIMS,
    DEFAULT_PARAM_COUNT,
    EDGE_FEATURE_SIZE,
    FEATURE_LAYOUT_ID,
    NODE_FEATURE_SIZE,
    ModelDims,
    ModelParams,
    SchemaVersionMismatch,
    checkpoint_from_json,
    checkpoint_to_json,
    compile_batch,
    cross_edge_feature,
    expected_param_count,
    forward,
    gat_layer,
    load_checkpoint,
    node_feature_vector,
    parameter_shapes,
    predict_each,
    predict_probs,
    save_checkpoint,
    self_edge_feature,
)
from cornergraph.autodiff import MissingSelfEdge
from cornergraph.scenarios import ScenarioTemplate, generate, to_instances
from json_fuzz import json_values, replaced


def leaky(x, slope=0.2):
    return x if x >= 0.0 else slope * x


def dense_attention_oracle(h, edges, theta, theta_p, att):
    """Per-destination softmax attention, written as plain loops."""
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    if h.shape[0] == 1 and len({e[0] for e in edges} | {e[1] for e in edges}) > 1:
        h = h.T
    if h.shape[1] != theta.shape[1]:
        h = h.reshape(-1, theta.shape[1])
    n = h.shape[0]
    z = np.array([theta @ h[i] for i in range(n)])
    out = np.zeros((n, theta.shape[0]))
    for i in range(n):
        incoming = [e for e in edges if e[0] == i]
        scores = []
        for _, j, p in incoming:
            zp = theta_p @ np.array([float(p)])
            raw = float(att @ np.concatenate([z[i], z[j], zp]))
            scores.append(leaky(raw))
        m = max(scores)
        exps = [np.exp(s - m) for s in scores]
        alphas = [e / sum(exps) for e in exps]
        for (_, j, _), a in zip(incoming, alphas):
            out[i] += a * z[j]
    return out


def random_edge_structure(rng, n):
    edges = [(i, i, 7) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                edges.append((i, j, int(rng.integers(0, 7))))
    edges.sort()
    return edges


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gat_layer_matches_dense_oracle(n):
    rng = np.random.default_rng(n)
    d_in, d_out = 3, 4
    h = rng.normal(size=(n, d_in))
    theta = rng.normal(size=(d_out, d_in))
    theta_p = rng.normal(size=(d_out, 1))
    att = rng.normal(size=3 * d_out)
    edges = random_edge_structure(rng, n)
    got = gat_layer(h, edges, theta, theta_p, att).data
    want = dense_attention_oracle(h, edges, theta, theta_p, att)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_gat_layer_accepts_scalar_node_values():
    rng = np.random.default_rng(0)
    h = rng.normal(size=4)
    theta = rng.normal(size=(3, 1))
    theta_p = rng.normal(size=(3, 1))
    att = rng.normal(size=9)
    edges = random_edge_structure(rng, 4)
    got = gat_layer(h, edges, theta, theta_p, att).data
    want = dense_attention_oracle(h.reshape(-1, 1), edges, theta, theta_p, att)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_isolated_node_attends_only_to_itself():
    # a node whose sole incoming edge is its self-loop must come out as its
    # own transformed embedding, untouched by the rest of the graph
    rng = np.random.default_rng(3)
    h = rng.normal(size=(3, 2))
    theta = rng.normal(size=(2, 2))
    theta_p = rng.normal(size=(2, 1))
    att = rng.normal(size=6)
    edges = [(0, 0, 7), (0, 1, 2), (1, 1, 7), (1, 0, 3), (2, 2, 7)]
    out = gat_layer(h, edges, theta, theta_p, att).data
    np.testing.assert_allclose(out[2], theta @ h[2], atol=1e-12)

    h_other = h.copy()
    h_other[0] += 5.0
    out_other = gat_layer(h_other, edges, theta, theta_p, att).data
    np.testing.assert_allclose(out_other[2], out[2], atol=1e-12)


def test_missing_self_edge_rejected():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(2, 2))
    theta = rng.normal(size=(2, 2))
    theta_p = rng.normal(size=(2, 1))
    att = rng.normal(size=6)
    with pytest.raises(MissingSelfEdge):
        gat_layer(h, [(0, 0, 7), (1, 0, 1)], theta, theta_p, att)


def test_node_features_one_hot_and_speed():
    n = Node(0, ActorCategory.CAR, AgentState((0.0, 0.0), 0.0, (0.0, 15.0)))
    v = node_feature_vector(n)
    assert v.shape == (11,)
    assert v.sum() == pytest.approx(1.0 + 0.5)
    assert v[list(ActorCategory).index(ActorCategory.CAR)] == 1.0
    assert v[10] == pytest.approx(0.5)

    fast = Node(0, ActorCategory.CAR, AgentState((0.0, 0.0), 0.0, (0.0, 45.0)))
    assert node_feature_vector(fast)[10] == 1.0

    strip = Node(3, ActorCategory.LANE)
    sv = node_feature_vector(strip)
    assert sv[10] == 0.0
    assert sv.sum() == 1.0


def test_cross_edge_features():
    v = cross_edge_feature(RelationCategory.UNSAFE_DISTANCE)
    assert v.shape == (9,)
    assert v[RELATION_ORDINAL[RelationCategory.UNSAFE_DISTANCE]] == 1.0
    assert v.sum() == 1.0
    with pytest.raises(ValueError):
        cross_edge_feature(RelationCategory.SELF_STATE)


def test_self_edge_features_encode_state():
    braking = Node(0, ActorCategory.CAR, AgentState((0, 0), 0.0, (0, 5), braking=True))
    coasting = Node(0, ActorCategory.CAR, AgentState((0, 0), 0.0, (0, 5), braking=False))
    light = Node(
        0,
        ActorCategory.TRAFFIC_LIGHT,
        AgentState((0, 0), 0.0, light_state=LightState.YELLOW),
    )
    assert self_edge_feature(braking)[7] == 1.0
    assert self_edge_feature(braking)[8] == 1.0
    assert self_edge_feature(coasting)[8] == 0.0
    assert self_edge_feature(light)[8] == pytest.approx(0.5)


def test_attention_graph_adds_synthetic_self_loops(simple_frame):
    g = build_scene_graph(simple_frame)
    batch = compile_batch([extend(g, 0)])
    dst, src, attrs = batch.dst, batch.src, batch.edge_features()
    n = len(g.nodes)
    self_rows = [k for k in range(len(dst)) if dst[k] == src[k]]
    assert {int(dst[k]) for k in self_rows} == set(range(n))
    # strips and the road have no state, so their loops are synthetic
    for k in self_rows:
        assert attrs[k][7] == 1.0
    order = list(zip(dst.tolist(), src.tolist()))
    assert order == sorted(order)


def test_parameter_count_matches_independent_arithmetic():
    def mlp(n_in, hidden, out):
        return hidden * n_in + hidden + out * hidden + out

    def gat(n_in, out):
        return out * n_in + out + 3 * out

    d = DEFAULT_DIMS
    total = (
        mlp(NODE_FEATURE_SIZE, d.encoder_hidden, 1)
        + mlp(EDGE_FEATURE_SIZE, d.encoder_hidden, 1)
        + mlp(EDGE_FEATURE_SIZE, d.encoder_hidden, 1)
        + gat(1, d.gat1_out)
        + mlp(d.gat1_out, d.mid_hidden, d.mid_out)
        + gat(d.mid_out, 1)
        + mlp(3, d.triple_hidden, 1)
    )
    assert total == DEFAULT_PARAM_COUNT == 44188
    assert expected_param_count(d) == total


def test_initialized_params_shapes_and_bounds(tiny_dims):
    params = ModelParams.initialize(tiny_dims, seed=11)
    shapes = dict(parameter_shapes(tiny_dims))
    assert {n for n, _ in params.items()} == set(shapes)
    for name, t in params.items():
        assert t.data.shape == shapes[name]
        if name.endswith((".b1", ".b2")):
            assert np.all(t.data == 0.0)
        else:
            fan_in = shapes[name][1] if len(shapes[name]) == 2 else shapes[name][0]
            assert np.all(np.abs(t.data) <= 1.0 / np.sqrt(fan_in))


def test_initialization_is_seed_deterministic(tiny_dims):
    a = ModelParams.initialize(tiny_dims, seed=4)
    b = ModelParams.initialize(tiny_dims, seed=4)
    c = ModelParams.initialize(tiny_dims, seed=5)
    for name, t in a.items():
        np.testing.assert_array_equal(t.data, b[name].data)
    assert any(not np.array_equal(t.data, c[name].data) for name, t in a.items())


def test_forward_emits_one_probability_per_candidate(simple_frame, tiny_dims):
    ext = extend(build_scene_graph(simple_frame), target_frame=9)
    params = ModelParams.initialize(tiny_dims, seed=2)
    probs = predict_probs(params, ext)
    assert probs.shape == (len(ext.candidates),)
    assert np.all((probs > 0.0) & (probs < 1.0))
    np.testing.assert_array_equal(probs, predict_probs(params, ext))


def _isolated_node_instance():
    """Ego in a lane, plus an object with no edge at all: its only attention
    edge is the synthetic self-loop."""
    ego = Node(0, ActorCategory.EGO, AgentState((0.0, 0.0), 0.0, (0.0, 10.0), braking=False))
    nodes = (ego, Node(1, ActorCategory.LANE), Node(2, ActorCategory.ROAD), Node(3, ActorCategory.OBJECT))
    edges = sort_edges(
        [
            Edge(0, RelationCategory.SELF_STATE, 0),
            Edge(0, RelationCategory.IS_IN, 1),
            Edge(1, RelationCategory.IS_IN, 2),
        ]
    )
    return extend(SceneGraph(nodes, edges), target_frame=4)


def _ego_only_instance():
    ego = Node(0, ActorCategory.EGO, AgentState((0.0, 0.0), 0.0, (0.0, 5.0), braking=True))
    return extend(SceneGraph((ego,), (Edge(0, RelationCategory.SELF_STATE, 0),)), target_frame=4)


def test_batched_probabilities_match_single_forward(tiny_dims):
    instances = []
    for template in ScenarioTemplate:
        for scn in generate(template, 21, 2):
            instances.extend(to_instances(scn))
    # an isolated node and a graph without candidates, away from the chunk edges
    instances.insert(BATCH_SIZE + 5, _isolated_node_instance())
    instances.insert(2 * BATCH_SIZE + 1, _ego_only_instance())
    assert len(instances) > 2 * BATCH_SIZE
    assert len({len(ext.base.nodes) for ext in instances}) > 2
    assert not _ego_only_instance().candidates

    params = ModelParams.initialize(tiny_dims, seed=6)
    pairs = list(predict_each(params, iter(instances)))
    assert len(pairs) == len(instances)
    for ext, (got_ext, got) in zip(instances, pairs):
        assert got_ext is ext
        np.testing.assert_allclose(got, forward(params, ext).data, rtol=0, atol=1e-12)


def _permute_graph(g, perm):
    """Relabel node ids by perm while keeping ids dense."""
    inv = {old: new for old, new in enumerate(perm)}
    nodes = [None] * len(g.nodes)
    for node in g.nodes:
        nodes[inv[node.id]] = Node(inv[node.id], node.category, node.state)
    edges = sort_edges(
        Edge(inv[e.head], e.relation, inv[e.tail]) for e in g.edges
    )
    return SceneGraph(tuple(nodes), edges, g.frame_index, g.is_corner_case)


def test_forward_is_equivariant_under_node_relabeling(simple_frame, tiny_dims):
    g = build_scene_graph(simple_frame)
    ext = extend(g, target_frame=9)
    params = ModelParams.initialize(tiny_dims, seed=8)
    probs = predict_probs(params, ext)
    by_key = {c.key(): p for c, p in zip(ext.candidates, probs)}

    rng = np.random.default_rng(17)
    for _ in range(3):
        perm = rng.permutation(len(g.nodes)).tolist()
        inv = {old: new for old, new in enumerate(perm)}
        pg = _permute_graph(g, perm)
        pext = extend(pg, target_frame=9)
        pprobs = predict_probs(params, pext)
        assert len(pext.candidates) == len(ext.candidates)
        for c, p in zip(pext.candidates, pprobs):
            back = {v: k for k, v in inv.items()}
            orig_key = (back[c.head], back[c.tail], RELATION_ORDINAL[c.relation])
            np.testing.assert_allclose(p, by_key[orig_key], rtol=0, atol=1e-9)


def test_checkpoint_round_trip(tmp_path, tiny_dims):
    params = ModelParams.initialize(tiny_dims, seed=3)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, extra={"note": "unit"})
    back = load_checkpoint(path)
    assert back.dims == tiny_dims
    for name, t in params.items():
        np.testing.assert_array_equal(t.data, back[name].data)


def test_checkpoint_rejects_schema_drift(tiny_dims):
    params = ModelParams.initialize(tiny_dims, seed=3)
    good = checkpoint_to_json(params)
    assert good["schema_version"] == CHECKPOINT_SCHEMA_VERSION
    assert good["feature_layout_id"] == FEATURE_LAYOUT_ID

    bad_version = dict(good, schema_version=99)
    with pytest.raises(SchemaVersionMismatch):
        checkpoint_from_json(bad_version)

    bad_layout = dict(good, feature_layout_id="node[cat9]-v0")
    with pytest.raises(SchemaVersionMismatch):
        checkpoint_from_json(bad_layout)

    # older checkpoints record the feature layout's input widths in dims
    older = dict(good, dims=dict(good["dims"], node_features=11, edge_features=9))
    loaded = checkpoint_from_json(older)
    assert loaded.dims == tiny_dims
    np.testing.assert_array_equal(loaded.flat, params.flat)
    for key, width in [("node_features", 12), ("edge_features", 8), ("edge_features", 9.0)]:
        wide = dict(good, dims=dict(good["dims"], **{key: width}))
        with pytest.raises(SchemaVersionMismatch, match=key):
            checkpoint_from_json(wide)
    for width in [4.9, 4.0, True]:
        fractional = dict(good, dims=dict(good["dims"], triple_hidden=width))
        with pytest.raises(SchemaVersionMismatch, match="triple_hidden"):
            checkpoint_from_json(fractional)

    bad_shape = dict(good)
    bad_shape["tensors"] = dict(good["tensors"])
    name = "triple.b2"
    entry = dict(bad_shape["tensors"][name])
    entry["shape"] = [2]
    entry["data"] = [0.0, 0.0]
    bad_shape["tensors"][name] = entry
    with pytest.raises(SchemaVersionMismatch):
        checkpoint_from_json(bad_shape)


def test_checkpoint_carries_extra_payload(tmp_path, tiny_dims):
    import json

    params = ModelParams.initialize(tiny_dims, seed=3)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, extra={"best_epoch": 7})
    with open(path) as fh:
        obj = json.load(fh)
    assert obj["best_epoch"] == 7


def test_reference_dim_mismatch_rejected():
    dims = ModelDims()
    params = ModelParams.initialize(dims)
    tensors = dict(params.tensors)
    with pytest.raises(ValueError):
        ModelParams(ModelDims(triple_hidden=8), tensors)


_FUZZ_CHECKPOINT = checkpoint_to_json(
    ModelParams.initialize(
        ModelDims(encoder_hidden=2, gat1_out=2, mid_hidden=2, mid_out=2, triple_hidden=2)
    )
)
# where a fuzzed value goes: the whole object, or one field at any depth
_FUZZ_PATHS = (
    [(), ("schema_version",), ("feature_layout_id",), ("dims",), ("tensors",)]
    + [("dims", key) for key in _FUZZ_CHECKPOINT["dims"]]
    + [
        path
        for name in ("enc_node.w1", "gat1.att", "triple.b2")
        for path in (
            ("tensors", name),
            ("tensors", name, "shape"),
            ("tensors", name, "shape", 0),
            ("tensors", name, "data"),
            ("tensors", name, "data", 0),
        )
    ]
)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FUZZ_PATHS), json_values)
def test_checkpoint_from_json_returns_params_or_raises_schema_mismatch(path, value):
    try:
        params = checkpoint_from_json(replaced(_FUZZ_CHECKPOINT, path, value))
    except SchemaVersionMismatch:
        return
    assert isinstance(params, ModelParams)
