import pytest

from cornergraph.extended import (
    CandidateEdge,
    ConsistentArgmax,
    ExtendedGraph,
    MissingPredictions,
    NodeMismatch,
    Threshold,
    attach_predictions,
    decode_prediction,
    enumerate_candidates,
    extend,
    label_candidates,
)
from cornergraph.frames import build_scene_graph
from cornergraph.graphs import (
    RELATION_ORDINAL,
    RelationCategory,
    licensed,
    validate_grammar,
)
from cornergraph.scenarios import ScenarioTemplate, generate, ground_truth_graph


def brute_force_candidates(graph):
    """All licensed directed cross-pairs by the triple loop."""
    out = set()
    for head in graph.nodes:
        for tail in graph.nodes:
            if head.id == tail.id:
                continue
            for rel in RelationCategory:
                if licensed(head.category, rel, tail.category):
                    out.add((head.id, tail.id, RELATION_ORDINAL[rel]))
    return out


def test_enumeration_matches_brute_force(simple_frame):
    g = build_scene_graph(simple_frame)
    candidates = enumerate_candidates(g)
    assert {c.key() for c in candidates} == brute_force_candidates(g)


def test_enumeration_is_sorted_and_duplicate_free(simple_frame):
    g = build_scene_graph(simple_frame)
    keys = [c.key() for c in enumerate_candidates(g)]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_extension_covers_base_cross_edges(simple_frame):
    g = build_scene_graph(simple_frame)
    ext = extend(g, target_frame=9, scenario_id="x")
    keys = {c.key() for c in ext.candidates}
    for e in g.edges:
        if e.relation is RelationCategory.SELF_STATE:
            continue
        assert (e.head, e.tail, RELATION_ORDINAL[e.relation]) in keys
    assert ext.target_frame == 9
    assert ext.scenario_id == "x"


def _labeled_instance():
    scn = generate(ScenarioTemplate.ONCOMING_CYCLIST_CUT_IN, 5, 1)[0]
    g0 = build_scene_graph(scn.frames[0])
    ext = extend(g0, target_frame=scn.horizon, scenario_id=scn.id)
    return label_candidates(ext, ground_truth_graph(scn)), scn


def test_labels_mark_target_frame_edges():
    ext, scn = _labeled_instance()
    gt = ground_truth_graph(scn)
    gt_keys = {
        (e.head, e.tail, RELATION_ORDINAL[e.relation])
        for e in gt.edges
        if e.relation is not RelationCategory.SELF_STATE
    }
    for c in ext.candidates:
        assert c.label == (1 if c.key() in gt_keys else 0)
    labels = ext.labels()
    assert 0 < sum(labels) < len(labels)


def test_labeling_requires_matching_nodes(simple_frame):
    g = build_scene_graph(simple_frame)
    ext = extend(g, target_frame=3)
    other = generate(ScenarioTemplate.MOTORWAY_MERGE, 0, 1)[0]
    with pytest.raises(NodeMismatch):
        label_candidates(ext, ground_truth_graph(other))


def test_probabilities_require_attachment(simple_frame):
    ext = extend(build_scene_graph(simple_frame), target_frame=1)
    with pytest.raises(MissingPredictions):
        ext.probabilities()
    with pytest.raises(MissingPredictions):
        decode_prediction(ext)


def test_attach_predictions_validates_length(simple_frame):
    ext = extend(build_scene_graph(simple_frame), target_frame=1)
    with pytest.raises(ValueError):
        attach_predictions(ext, [0.5] * (len(ext.candidates) + 1))


def _with_probs(ext, fn):
    return attach_predictions(ext, [fn(c) for c in ext.candidates])


def test_threshold_decode_keeps_high_probability_edges(simple_frame):
    g = build_scene_graph(simple_frame)
    ext = extend(g, target_frame=7)
    keep = ext.candidates[0]
    scored = _with_probs(ext, lambda c: 0.9 if c.key() == keep.key() else 0.1)
    decoded = decode_prediction(scored, Threshold(0.5))
    cross = [
        e for e in decoded.edges if e.relation is not RelationCategory.SELF_STATE
    ]
    assert [(e.head, e.tail, RELATION_ORDINAL[e.relation]) for e in cross] == [
        keep.key()
    ]
    # self-state edges always carry over from the base graph
    base_self = [
        e for e in g.edges if e.relation is RelationCategory.SELF_STATE
    ]
    for e in base_self:
        assert e in decoded.edges
    assert decoded.is_corner_case is True
    assert decoded.frame_index == 7


def test_threshold_keeps_probability_exactly_at_tau(simple_frame):
    ext = extend(build_scene_graph(simple_frame), target_frame=1)
    scored = _with_probs(ext, lambda c: 0.5)
    decoded = decode_prediction(scored, Threshold(0.5))
    cross = [
        e for e in decoded.edges if e.relation is not RelationCategory.SELF_STATE
    ]
    assert len(cross) == len(ext.candidates)


def test_argmax_decode_picks_one_edge_per_group(simple_frame):
    g = build_scene_graph(simple_frame)
    ext = extend(g, target_frame=2)
    scored = _with_probs(ext, lambda c: 0.25)
    decoded = decode_prediction(scored, ConsistentArgmax())
    cross = [
        e for e in decoded.edges if e.relation is not RelationCategory.SELF_STATE
    ]
    # cyclist: one containment, one distance, one bearing; ego: one
    # containment, one distance to the cyclist; strips: one containment each
    by_head = {}
    for e in cross:
        by_head.setdefault(e.head, []).append(e)
    assert len(by_head[1]) == 3
    isin = [e for e in by_head[1] if e.relation is RelationCategory.IS_IN]
    assert len(isin) == 1


def test_argmax_tie_breaks_to_lowest_ordinal(simple_frame):
    g = build_scene_graph(simple_frame)
    ext = extend(g, target_frame=2)
    scored = _with_probs(ext, lambda c: 0.5)
    decoded = decode_prediction(scored, ConsistentArgmax())
    # the cyclist's distance pair ties; SafeDistance has the lower ordinal
    rels = {
        e.relation
        for e in decoded.edges
        if e.head == 1 and e.tail == 0
    }
    assert RelationCategory.SAFE_DISTANCE in rels
    assert RelationCategory.UNSAFE_DISTANCE not in rels


def test_decoded_graph_is_grammatical_and_sorted(simple_frame):
    ext = extend(build_scene_graph(simple_frame), target_frame=2)
    scored = _with_probs(ext, lambda c: 1.0 if c.relation is RelationCategory.IS_IN else 0.0)
    decoded = decode_prediction(scored, ConsistentArgmax())
    assert validate_grammar(decoded) == []
    keys = [e.key() for e in decoded.edges]
    assert keys == sorted(keys)

