"""Candidate cross-edges over a base scene graph, labels, and decoding.

An extended graph pairs a base (regular-frame) graph with every cross-edge the
grammar licenses over its node set, held as arrays: the candidate table of
its node-category tuple, built once per tuple and shared, plus one label and
one probability array aligned with the table's rows.  Labels mark which
candidates appear in the ground-truth corner-case graph; model probabilities
attach the same way, and decoding turns probabilities back into a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Sequence

import numpy as np

from .graphs import (
    DISTANCE_RELATIONS,
    ActorCategory,
    Edge,
    LICENSED_TRIPLES,
    RELATION_ORDINAL,
    RelationCategory,
    SceneGraph,
)

#: relations by ordinal: ``RELATIONS[RELATION_ORDINAL[r]] is r``
RELATIONS = tuple(RelationCategory)

#: categories by ordinal, the index a table's ``categories`` holds
CATEGORY_ORDINAL = {cat: i for i, cat in enumerate(ActorCategory)}


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


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Candidate cross-edges as read-only arrays, one row per candidate.

    ``keys`` packs each row's (head, tail, ordinal) into one integer,
    ``(head * n + tail) * len(RELATIONS) + ordinal`` over ``n`` nodes, for
    membership tests; ``categories`` holds the node categories' ordinals.
    """

    categories: np.ndarray  # (n,) int64
    heads: np.ndarray  # (q,) int64
    tails: np.ndarray  # (q,) int64
    ordinals: np.ndarray  # (q,) int64
    keys: np.ndarray  # (q,) int64

    @staticmethod
    def of(categories, rows) -> "CandidateTable":
        """The table of ``(head, tail, ordinal)`` rows over nodes of the
        given categories."""
        n = len(categories)
        heads = _frozen([r[0] for r in rows], np.int64)
        tails = _frozen([r[1] for r in rows], np.int64)
        ordinals = _frozen([r[2] for r in rows], np.int64)
        return CandidateTable(
            categories=_frozen([CATEGORY_ORDINAL[c] for c in categories], np.int64),
            heads=heads,
            tails=tails,
            ordinals=ordinals,
            keys=_frozen((heads * n + tails) * len(RELATIONS) + ordinals, np.int64),
        )

    def __len__(self) -> int:
        return self.heads.shape[0]


def _ordinals_by_pair() -> dict:
    """(head category, tail category) -> licensed relation ordinals, ascending."""
    table: dict = {}
    for head, relation, tail in LICENSED_TRIPLES:
        table.setdefault((head, tail), []).append(RELATION_ORDINAL[relation])
    return {pair: tuple(sorted(ordinals)) for pair, ordinals in table.items()}


_ORDINALS_BY_PAIR = _ordinals_by_pair()


# a generated corpus has one category tuple per road layout and actor cast,
# five in the reference corpus; the bound keeps hand-made inputs from
# growing the cache without end
@lru_cache(maxsize=1024)
def candidate_table(categories: tuple) -> CandidateTable:
    """Every grammar-licensed cross-edge over nodes ``0..n-1`` of the given
    categories, sorted by (head, tail, relation ordinal).  The candidate set
    depends on nothing else, so each tuple's table is built once and shared
    by every graph with those categories."""
    rows = []
    # ids ascend in both loops and each pair's ordinals too, so the rows come
    # out sorted
    for head, head_cat in enumerate(categories):
        for tail, tail_cat in enumerate(categories):
            if head != tail:
                rows.extend(
                    (head, tail, o) for o in _ORDINALS_BY_PAIR.get((head_cat, tail_cat), ())
                )
    return CandidateTable.of(categories, rows)


class ExtendedGraph:
    """A base (regular-frame) graph with candidate cross-edges over its nodes.

    The candidates live in ``table``, shared by every graph with the same
    node categories, and their labels and predicted probabilities in
    ``label_array`` and ``prob_array``, aligned with the table's rows, or
    None while unset.  ``candidates`` builds ``CandidateEdge`` objects from
    the arrays on each read; constructing from ``candidates`` instead turns
    them into arrays, and then every candidate carries a label or none does,
    and likewise a probability.
    """

    __slots__ = ("base", "target_frame", "scenario_id", "table", "label_array", "prob_array")

    def __init__(
        self,
        base: SceneGraph,
        candidates: Sequence[CandidateEdge] | None = None,
        target_frame: int = 0,
        scenario_id: str = "",
        *,
        table: CandidateTable | None = None,
        label_array: np.ndarray | None = None,
        prob_array: np.ndarray | None = None,
    ):
        if candidates is not None:
            candidates = tuple(candidates)
            table = CandidateTable.of(
                [node.category for node in base.nodes],
                [(c.head, c.tail, RELATION_ORDINAL[c.relation]) for c in candidates],
            )
            label_array = _all_or_none([c.label for c in candidates], np.int64, "label")
            prob_array = _all_or_none(
                [c.predicted_prob for c in candidates], np.float64, "predicted probability"
            )
        if table is None:
            raise TypeError("an extended graph needs candidates or a candidate table")
        self.base = base
        self.target_frame = target_frame
        self.scenario_id = scenario_id
        self.table = table
        self.label_array = label_array
        self.prob_array = prob_array

    def _replace(self, **arrays) -> "ExtendedGraph":
        fields = {"table": self.table, "label_array": self.label_array, "prob_array": self.prob_array}
        fields.update(arrays)
        return ExtendedGraph(
            self.base, target_frame=self.target_frame, scenario_id=self.scenario_id, **fields
        )

    @property
    def candidates(self) -> tuple:
        t = self.table
        labels = repeat(None) if self.label_array is None else self.label_array.tolist()
        probs = repeat(None) if self.prob_array is None else self.prob_array.tolist()
        return tuple(
            CandidateEdge(head, RELATIONS[o], tail, label, p)
            for head, tail, o, label, p in zip(
                t.heads.tolist(), t.tails.tolist(), t.ordinals.tolist(), labels, probs
            )
        )

    def labels(self) -> np.ndarray:
        """Candidate labels, 0 or 1, as a read-only int64 array."""
        if self.label_array is None:
            raise ValueError("candidate has no label")
        return self.label_array

    def probabilities(self) -> np.ndarray:
        """Candidate probabilities as a read-only float64 array."""
        if self.prob_array is None:
            raise MissingPredictions("candidate has no predicted probability")
        return self.prob_array


def _all_or_none(values: list, dtype, what: str):
    """``values`` as a read-only array, or None when there are values and
    every one is None."""
    missing = sum(v is None for v in values)
    if values and missing == len(values):
        return None
    if missing:
        raise ValueError(f"{missing} of {len(values)} candidates have no {what}")
    return _frozen(values, dtype)


def enumerate_candidates(graph: SceneGraph) -> list:
    """Every grammar-licensed cross-edge over the graph's nodes, sorted by
    (head id, tail id, relation ordinal)."""
    return list(extend(graph, target_frame=0).candidates)


def extend(graph: SceneGraph, target_frame: int, scenario_id: str = "") -> ExtendedGraph:
    return ExtendedGraph(
        graph,
        target_frame=target_frame,
        scenario_id=scenario_id,
        table=candidate_table(tuple(node.category for node in graph.nodes)),
    )


def label_candidates(
    ext: ExtendedGraph, ground_truth: SceneGraph, labels=None
) -> ExtendedGraph:
    """Label each candidate 1 iff it appears in the ground-truth graph.

    The two graphs must describe the same actors: node (id, category) pairs
    must match exactly.  ``labels``, when given, is the label array of
    another instance labelled against the same ground truth; it is shared,
    not computed again, since the same nodes give the same candidate table.
    """
    base_nodes = [(n.id, n.category) for n in ext.base.nodes]
    gt_nodes = [(n.id, n.category) for n in ground_truth.nodes]
    if base_nodes != gt_nodes:
        raise NodeMismatch("base and ground-truth graphs disagree on nodes")
    if labels is not None:
        return ext._replace(label_array=labels)
    n = len(gt_nodes)
    stride = len(RELATIONS)
    self_state = RelationCategory.SELF_STATE
    # an edge whose ends are not node positions matches no candidate
    present = [
        (e.head * n + e.tail) * stride + RELATION_ORDINAL[e.relation]
        for e in ground_truth.edges
        if e.relation is not self_state and 0 <= e.head < n and 0 <= e.tail < n
    ]
    # membership of every candidate key at once, through an indicator over
    # all n * n * stride keys
    indicator = np.zeros(n * n * stride, dtype=np.int64)
    indicator[present] = 1
    labels = indicator[ext.table.keys]
    labels.flags.writeable = False
    return ext._replace(label_array=labels)


def attach_predictions(ext: ExtendedGraph, probs: Sequence[float]) -> ExtendedGraph:
    if len(probs) != len(ext.table):
        raise ValueError(
            f"{len(probs)} probabilities for {len(ext.table)} candidates"
        )
    return ext._replace(prob_array=_frozen(probs, np.float64))


@dataclass(frozen=True)
class Threshold:
    tau: float = 0.5


@dataclass(frozen=True)
class ConsistentArgmax:
    pass


#: the exclusive group of each relation ordinal that is not a bearing
_GROUPS = {
    RELATION_ORDINAL[RelationCategory.IS_IN]: "isin",
    **{RELATION_ORDINAL[r]: "distance" for r in DISTANCE_RELATIONS},
}


def _group_key(head: int, ordinal: int, tail: int):
    group = _GROUPS.get(ordinal, "quadrant")
    return (group, head) if group == "isin" else (group, head, tail)


def decode_prediction(ext: ExtendedGraph, mode=ConsistentArgmax()) -> SceneGraph:
    """Turn candidate probabilities into a predicted corner-case graph.

    Threshold mode keeps every candidate with probability >= tau.  Consistent
    argmax keeps exactly one candidate per mutually exclusive group (an actor's
    containment targets; an ordered pair's two separation relations; an ordered
    pair's four bearing relations), breaking ties toward the lowest
    (head, tail, relation) ordinal; its output always passes validation.
    Self-state edges of the base graph are carried over unchanged.
    """
    probs = ext.probabilities().tolist()
    t = ext.table
    rows = list(zip(t.heads.tolist(), t.ordinals.tolist(), t.tails.tolist()))
    if isinstance(mode, Threshold):
        kept = [row for row, p in zip(rows, probs) if p >= mode.tau]
    elif isinstance(mode, ConsistentArgmax):
        best: dict = {}
        for row, p in zip(rows, probs):
            key = _group_key(*row)
            if key not in best or p > best[key][1]:
                best[key] = (row, p)
        kept = [row for row, _ in best.values()]
    else:
        raise TypeError(f"unknown decode mode {mode!r}")

    edges = [
        e for e in ext.base.edges if e.relation is RelationCategory.SELF_STATE
    ]
    edges.extend(Edge(head=h, relation=RELATIONS[o], tail=tl) for h, o, tl in kept)
    edges.sort(key=Edge.key)
    return SceneGraph(
        nodes=ext.base.nodes,
        edges=tuple(edges),
        frame_index=ext.target_frame,
        is_corner_case=True,
    )

