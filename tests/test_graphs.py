import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cornergraph.graphs import (
    ActorCategory,
    AgentState,
    Edge,
    LightState,
    Node,
    RelationCategory,
    RELATION_ORDINAL,
    SceneGraph,
    SchemaError,
    graph_from_json,
    graph_to_json,
    licensed,
    open_output,
    sort_edges,
    state_from_json,
    state_to_json,
    validate_grammar,
    write_json,
)
from json_fuzz import field_paths, json_values, replaced


def test_category_counts():
    assert len(ActorCategory) == 10
    assert len(RelationCategory) == 8
    assert len(LightState) == 3


def test_relation_ordinals_are_dense():
    ordinals = sorted(RELATION_ORDINAL[r] for r in RelationCategory)
    assert ordinals == list(range(8))


@pytest.mark.parametrize(
    "head,rel,tail,ok",
    [
        (ActorCategory.EGO, RelationCategory.IS_IN, ActorCategory.LANE, True),
        (ActorCategory.CAR, RelationCategory.IS_IN, ActorCategory.PAVEMENT, True),
        (ActorCategory.LANE, RelationCategory.IS_IN, ActorCategory.ROAD, True),
        (ActorCategory.ROAD, RelationCategory.IS_IN, ActorCategory.LANE, False),
        (ActorCategory.LANE, RelationCategory.IS_IN, ActorCategory.LANE, False),
        (ActorCategory.EGO, RelationCategory.SAFE_DISTANCE, ActorCategory.CAR, True),
        (ActorCategory.EGO, RelationCategory.UNSAFE_DISTANCE, ActorCategory.SHOULDER, True),
        (ActorCategory.EGO, RelationCategory.SAFE_DISTANCE, ActorCategory.LANE, False),
        (ActorCategory.CAR, RelationCategory.SAFE_DISTANCE, ActorCategory.EGO, True),
        (ActorCategory.CAR, RelationCategory.SAFE_DISTANCE, ActorCategory.CAR, False),
        (ActorCategory.BICYCLE, RelationCategory.IN_FRONT_OF, ActorCategory.EGO, True),
        (ActorCategory.EGO, RelationCategory.IN_FRONT_OF, ActorCategory.CAR, False),
        (ActorCategory.TRAFFIC_LIGHT, RelationCategory.IS_IN, ActorCategory.PAVEMENT, True),
        (ActorCategory.OBJECT, RelationCategory.IS_IN, ActorCategory.SHOULDER, True),
        (ActorCategory.PEDESTRIAN, RelationCategory.TO_LEFT_OF, ActorCategory.EGO, True),
        (ActorCategory.PAVEMENT, RelationCategory.IS_IN, ActorCategory.ROAD, True),
    ],
)
def test_licensing_table(head, rel, tail, ok):
    assert licensed(head, rel, tail) is ok


def test_self_state_is_not_a_cross_edge():
    # self-state lives on self-edges only; the cross-edge table never
    # licenses it, for any endpoint pair
    for head in ActorCategory:
        for tail in ActorCategory:
            assert not licensed(head, RelationCategory.SELF_STATE, tail)


def test_self_state_categories():
    from cornergraph.graphs import SELF_STATE_CATEGORIES

    assert SELF_STATE_CATEGORIES == frozenset(
        {
            ActorCategory.EGO,
            ActorCategory.CAR,
            ActorCategory.BICYCLE,
            ActorCategory.PEDESTRIAN,
            ActorCategory.TRAFFIC_LIGHT,
        }
    )


def _graph():
    nodes = (
        Node(0, ActorCategory.EGO, AgentState(location=(-1.75, 0.0), velocity=(0.0, 12.0), braking=False)),
        Node(1, ActorCategory.CAR, AgentState(location=(-1.75, 30.0), velocity=(0.0, 10.0), braking=True)),
        Node(2, ActorCategory.LANE),
        Node(3, ActorCategory.ROAD),
    )
    edges = (
        Edge(0, RelationCategory.SELF_STATE, 0),
        Edge(0, RelationCategory.IS_IN, 2),
        Edge(1, RelationCategory.SELF_STATE, 1),
        Edge(1, RelationCategory.IS_IN, 2),
        Edge(1, RelationCategory.SAFE_DISTANCE, 0),
        Edge(1, RelationCategory.IN_FRONT_OF, 0),
        Edge(2, RelationCategory.IS_IN, 3),
    )
    return SceneGraph(nodes=nodes, edges=sort_edges(edges), frame_index=4)


def test_valid_graph_has_no_violations():
    assert validate_grammar(_graph()) == []


def test_unlicensed_edge_is_flagged():
    g = _graph()
    bad = SceneGraph(
        nodes=g.nodes,
        edges=g.edges + (Edge(3, RelationCategory.IS_IN, 2),),
        frame_index=g.frame_index,
    )
    violations = validate_grammar(bad)
    assert len(violations) == 1
    assert violations[0].kind == "grammar"


def test_dangling_edge_is_flagged():
    g = _graph()
    bad = SceneGraph(
        nodes=g.nodes,
        edges=g.edges + (Edge(9, RelationCategory.IS_IN, 2),),
        frame_index=g.frame_index,
    )
    assert any("out of range" in v.rule for v in validate_grammar(bad))


def test_node_ids_must_be_dense():
    nodes = (
        Node(0, ActorCategory.EGO, AgentState(location=(0.0, 0.0))),
        Node(2, ActorCategory.ROAD),
    )
    violations = validate_grammar(SceneGraph(nodes=nodes, edges=()))
    assert any("dense" in v.rule for v in violations)


def test_sort_edges_orders_by_head_tail_relation():
    e1 = Edge(1, RelationCategory.IN_FRONT_OF, 0)
    e2 = Edge(0, RelationCategory.IS_IN, 2)
    e3 = Edge(1, RelationCategory.SAFE_DISTANCE, 0)
    ordered = sort_edges((e3, e1, e2))
    assert ordered == (e2, e3, e1) or [e.key() for e in ordered] == sorted(
        e.key() for e in (e1, e2, e3)
    )


def test_graph_json_round_trip():
    g = _graph()
    obj = graph_to_json(g)
    assert obj["frame"] == 4
    assert obj["corner_case"] is False
    back = graph_from_json(obj)
    assert back == g


def test_graph_str_round_trip_is_byte_stable():
    g = _graph()
    s1 = json.dumps(graph_to_json(g))
    s2 = json.dumps(graph_to_json(graph_from_json(json.loads(s1))))
    assert s1 == s2


def test_unknown_fields_rejected():
    obj = graph_to_json(_graph())
    obj["extra"] = 1
    with pytest.raises(SchemaError):
        graph_from_json(obj)


def test_state_serde_rejects_unknown_keys():
    state = AgentState(location=(1.0, 2.0), heading=0.5, light_state=LightState.RED)
    obj = state_to_json(state)
    assert state_from_json(obj) == state
    obj["color"] = "blue"
    with pytest.raises(SchemaError):
        state_from_json(obj)


def test_speed_is_velocity_norm():
    s = AgentState(location=(0.0, 0.0), velocity=(3.0, 4.0))
    assert s.speed == pytest.approx(5.0)
    assert AgentState(location=(0.0, 0.0)).speed == 0.0


@given(
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(-10, 10),
    st.floats(-10, 10),
)
def test_state_json_round_trip_property(x, y, vx, vy):
    state = AgentState(location=(x, y), heading=0.25, velocity=(vx, vy), braking=True)
    assert state_from_json(state_to_json(state)) == state


_FUZZ_STATE = state_to_json(
    AgentState((1.0, 2.0), 0.5, (0.0, 3.0), braking=True, light_state=LightState.RED)
)
_FUZZ_GRAPH = graph_to_json(_graph())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(field_paths(_FUZZ_STATE)), json_values)
def test_state_from_json_returns_a_state_or_raises_schema_error(path, value):
    try:
        state = state_from_json(replaced(_FUZZ_STATE, path, value))
    except SchemaError:
        return
    assert isinstance(state, AgentState)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(field_paths(_FUZZ_GRAPH)), json_values)
def test_graph_from_json_returns_a_graph_or_raises_schema_error(path, value):
    try:
        graph = graph_from_json(replaced(_FUZZ_GRAPH, path, value))
    except SchemaError:
        return
    assert isinstance(graph, SceneGraph)


# --- output files ------------------------------------------------------------


def test_rewriting_an_output_makes_a_new_file(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"run": 1})
    with open(path) as old:
        write_json(path, {"run": 2})
        # an unlinked file stays readable through the handle opened before
        assert old.read() == '{"run": 1}\n'
    assert path.read_text() == '{"run": 2}\n'


def test_write_json_matches_json_dump(tmp_path):
    obj = {"b": [1.5, None, "x"], "a": {"z": True, "y": 1e-12}}
    path = tmp_path / "out.json"
    write_json(path, obj)
    assert path.read_text() == json.dumps(obj, sort_keys=True) + "\n"


def test_open_output_passes_newline_through(tmp_path):
    path = tmp_path / "out.csv"
    with open_output(path, newline="\r\n") as fh:
        fh.write("a\nb\n")
    assert path.read_bytes() == b"a\r\nb\r\n"


_WRITE_MODE_CHARS = set("wax+")


def _calls(tree, match):
    """The enclosing function of each call in ``tree`` that ``match``
    accepts."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.Call) and match(child):
                found.append(name)
            visit(child, name)

    visit(tree, None)
    return found


def _opens_for_writing(call) -> bool:
    """True for a call that opens a file for writing, or whose mode cannot
    be read off the source."""
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr in ("write_text", "write_bytes"):
        return True
    if (isinstance(f, ast.Name) and f.id == "open") or (
        isinstance(f, ast.Attribute) and f.attr in ("open", "fdopen")
    ):
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), None
        )
        return mode is not None and not (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and not _WRITE_MODE_CHARS & set(mode.value)
        )
    return False


def _parses_json(call) -> bool:
    f = call.func
    return (
        isinstance(f, ast.Attribute)
        and f.attr in ("load", "loads")
        and isinstance(f.value, ast.Name)
        and f.value.id == "json"
    )


def _package_calls(match) -> list:
    """(module, enclosing function) of each call ``match`` accepts in the
    package's sources."""
    package = Path(open_output.__code__.co_filename).parent
    return [
        (path.name, func)
        for path in sorted(package.glob("*.py"))
        for func in _calls(ast.parse(path.read_text(), str(path)), match)
    ]


def test_only_open_output_opens_files_for_writing():
    assert _package_calls(_opens_for_writing) == [("graphs.py", "open_output")]


def test_only_read_json_parses_input():
    # every input file goes through the decode boundary on read_json and on
    # its per-line helper
    assert _package_calls(_parses_json) == [
        ("graphs.py", "read_json"),
        ("graphs.py", "_decode_line"),
    ]
