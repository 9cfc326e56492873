"""Candidate cross-edges over a base scene graph, labels, and decoding.

An extended graph pairs a base (regular-frame) graph with every cross-edge the
grammar licenses over its node set.  Labels mark which candidates appear in the
ground-truth corner-case graph; model probabilities attach to the same list,
and decoding turns probabilities back into a graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .graphs import (
    DISTANCE_RELATIONS,
    Edge,
    LICENSED_TRIPLES,
    RELATION_ORDINAL,
    RelationCategory,
    SceneGraph,
)


class NodeMismatch(ValueError):
    pass


class MissingPredictions(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class CandidateEdge:
    head: int
    relation: RelationCategory
    tail: int
    label: int | None = None
    predicted_prob: float | None = None

    def key(self) -> tuple[int, int, int]:
        return (self.head, self.tail, RELATION_ORDINAL[self.relation])


@dataclass(frozen=True)
class ExtendedGraph:
    base: SceneGraph
    candidates: tuple[CandidateEdge, ...]
    target_frame: int
    scenario_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))

    def labels(self) -> list:
        out = []
        for c in self.candidates:
            if c.label is None:
                raise ValueError("candidate has no label")
            out.append(c.label)
        return out

    def probabilities(self) -> list:
        out = []
        for c in self.candidates:
            if c.predicted_prob is None:
                raise MissingPredictions("candidate has no predicted probability")
            out.append(c.predicted_prob)
        return out


def _relations_by_pair() -> dict:
    """(head category, tail category) -> licensed relations, in ordinal order."""
    table: dict = {}
    for head, relation, tail in sorted(
        LICENSED_TRIPLES, key=lambda t: RELATION_ORDINAL[t[1]]
    ):
        table.setdefault((head, tail), []).append(relation)
    return {pair: tuple(relations) for pair, relations in table.items()}


_RELATIONS_BY_PAIR = _relations_by_pair()


def enumerate_candidates(graph: SceneGraph) -> list:
    """Every grammar-licensed cross-edge over the graph's nodes, sorted by
    (head id, tail id, relation ordinal)."""
    out = []
    cats = [node.category for node in graph.nodes]
    # ids ascend in both loops and each pair's relations in ordinal order, so
    # the list comes out sorted
    for head, head_cat in enumerate(cats):
        for tail, tail_cat in enumerate(cats):
            if head == tail:
                continue
            for relation in _RELATIONS_BY_PAIR.get((head_cat, tail_cat), ()):
                out.append(CandidateEdge(head, relation, tail))
    return out


def extend(graph: SceneGraph, target_frame: int, scenario_id: str = "") -> ExtendedGraph:
    return ExtendedGraph(
        base=graph,
        candidates=tuple(enumerate_candidates(graph)),
        target_frame=target_frame,
        scenario_id=scenario_id,
    )


def label_candidates(ext: ExtendedGraph, ground_truth: SceneGraph) -> ExtendedGraph:
    """Label each candidate 1 iff it appears in the ground-truth graph.

    The two graphs must describe the same actors: node (id, category) pairs
    must match exactly.
    """
    base_nodes = [(n.id, n.category) for n in ext.base.nodes]
    gt_nodes = [(n.id, n.category) for n in ground_truth.nodes]
    if base_nodes != gt_nodes:
        raise NodeMismatch("base and ground-truth graphs disagree on nodes")
    present = {
        (e.head, e.relation, e.tail)
        for e in ground_truth.edges
        if e.relation is not RelationCategory.SELF_STATE
    }
    labeled = tuple(
        CandidateEdge(
            c.head,
            c.relation,
            c.tail,
            1 if (c.head, c.relation, c.tail) in present else 0,
            c.predicted_prob,
        )
        for c in ext.candidates
    )
    return replace(ext, candidates=labeled)


def attach_predictions(ext: ExtendedGraph, probs: Sequence[float]) -> ExtendedGraph:
    if len(probs) != len(ext.candidates):
        raise ValueError(
            f"{len(probs)} probabilities for {len(ext.candidates)} candidates"
        )
    updated = tuple(
        CandidateEdge(c.head, c.relation, c.tail, c.label, float(p))
        for c, p in zip(ext.candidates, probs)
    )
    return replace(ext, candidates=updated)


@dataclass(frozen=True)
class Threshold:
    tau: float = 0.5


@dataclass(frozen=True)
class ConsistentArgmax:
    pass


def _group_key(c: CandidateEdge):
    if c.relation is RelationCategory.IS_IN:
        return ("isin", c.head)
    if c.relation in DISTANCE_RELATIONS:
        return ("distance", c.head, c.tail)
    return ("quadrant", c.head, c.tail)


def decode_prediction(ext: ExtendedGraph, mode=ConsistentArgmax()) -> SceneGraph:
    """Turn candidate probabilities into a predicted corner-case graph.

    Threshold mode keeps every candidate with probability >= tau.  Consistent
    argmax keeps exactly one candidate per mutually exclusive group (an actor's
    containment targets; an ordered pair's two separation relations; an ordered
    pair's four bearing relations), breaking ties toward the lowest
    (head, tail, relation) ordinal; its output always passes validation.
    Self-state edges of the base graph are carried over unchanged.
    """
    probs = ext.probabilities()
    kept: list = []
    if isinstance(mode, Threshold):
        for c, p in zip(ext.candidates, probs):
            if p >= mode.tau:
                kept.append(c)
    elif isinstance(mode, ConsistentArgmax):
        best: dict = {}
        for c, p in zip(ext.candidates, probs):
            key = _group_key(c)
            if key not in best or p > best[key][1]:
                best[key] = (c, p)
        kept = [c for c, _ in best.values()]
    else:
        raise TypeError(f"unknown decode mode {mode!r}")

    edges = [
        e for e in ext.base.edges if e.relation is RelationCategory.SELF_STATE
    ]
    edges.extend(Edge(head=c.head, relation=c.relation, tail=c.tail) for c in kept)
    edges.sort(key=Edge.key)
    return SceneGraph(
        nodes=ext.base.nodes,
        edges=tuple(edges),
        frame_index=ext.target_frame,
        is_corner_case=True,
    )

