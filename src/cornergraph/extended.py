"""Candidate cross-edges over a base scene graph, labels, and decoding.

An extended graph pairs a base (regular-frame) graph with every cross-edge the
grammar licenses over its node set, held as arrays: the candidate table of
its node-category tuple, built once per tuple and shared, plus one label and
one probability array aligned with the table's rows.  Labels mark which
candidates appear in the ground-truth corner-case graph; model probabilities
attach the same way, and decoding turns probabilities back into a graph.

The base graph's own edges, as the model attends over them, are held as
arrays too (``GraphArrays``), so an instance built from a frame's edge rows
needs no graph objects until something reads its ``base``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .graphs import (
    DISTANCE_RELATIONS,
    ActorCategory,
    AgentState,
    Edge,
    LICENSED_TRIPLES,
    LightState,
    RELATION_ORDINAL,
    RELATIONS,
    RelationCategory,
    SceneGraph,
)

#: categories by ordinal, the index a table's ``categories`` holds
CATEGORY_ORDINAL = {cat: i for i, cat in enumerate(ActorCategory)}

#: speed, in m/s, at which the speed feature saturates at 1
SPEED_SCALE = 30.0

_LIGHT_SCALAR = {LightState.RED: 0.0, LightState.YELLOW: 0.5, LightState.GREEN: 1.0}
#: every value ``state_scalar`` returns, ascending: the braking flag's two
#: and the light phases'
STATE_SCALARS = tuple(sorted({0.0, 1.0, *_LIGHT_SCALAR.values()}))
_SELF_ORDINAL = RELATION_ORDINAL[RelationCategory.SELF_STATE]


class NodeMismatch(ValueError):
    pass


NODE_MISMATCH = "base and ground-truth graphs disagree on nodes"


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


def speed_feature(state: AgentState | None) -> float:
    """Speed normalized to [0, 1]; zero without a velocity."""
    if state is None or state.velocity is None:
        return 0.0
    return min(state.speed / SPEED_SCALE, 1.0)


def state_scalar(state: AgentState | None) -> float:
    """Braking flag for vehicles, light phase for traffic lights, zero
    otherwise."""
    if state is None:
        return 0.0
    if state.braking is not None:
        return 1.0 if state.braking else 0.0
    if state.light_state is not None:
        return _LIGHT_SCALAR[state.light_state]
    return 0.0


class GraphArrays(NamedTuple):
    """A base graph's model inputs besides its candidate table, as read-only
    arrays: node speeds, and the attention edges in (dst, src, relation)
    order.  An edge (head -> tail) of the graph is the attention edge
    tail <- head; each node without a self-state edge gets a synthetic
    self-loop, so the self term of the attention is always defined."""

    speeds: np.ndarray  # (n,) float64, ``speed_feature`` per node
    dst: np.ndarray  # (m,) int64
    src: np.ndarray  # (m,) int64
    ordinals: np.ndarray  # (m,) int64 relation ordinals
    scalars: np.ndarray  # (m,) float64, ``state_scalar`` of self-edges, zero elsewhere


def graph_arrays(edges: list, states: list) -> list:
    """The ``GraphArrays`` of several graphs, given each graph's edge rows
    ``(head, tail, relation ordinal)`` and the states of its nodes (None for
    a node without one).  The graphs' node ids are shifted apart, so one
    stable sort puts the attention edges of all of them in order at once;
    each graph's arrays are read-only views of the shared ones."""
    node_at = np.cumsum([0] + [len(s) for s in states], dtype=np.int64)
    flat_states = list(chain.from_iterable(states))
    speeds = _readonly(np.array([speed_feature(s) for s in flat_states], dtype=np.float64))
    node_scalars = np.array([state_scalar(s) for s in flat_states], dtype=np.float64)

    rows = np.fromiter(chain.from_iterable(chain.from_iterable(edges)), np.int64).reshape(-1, 3)
    shift = np.repeat(node_at[:-1], [len(e) for e in edges])
    heads, tails, ordinals = rows[:, 0] + shift, rows[:, 1] + shift, rows[:, 2]
    is_self = ordinals == _SELF_ORDINAL
    # the self term of each node without a self-state edge
    lone = np.ones(node_at[-1], dtype=bool)
    lone[heads[is_self]] = False
    loops = np.flatnonzero(lone)
    dst = np.concatenate([tails, loops])
    src = np.concatenate([heads, loops])
    ordinals = np.concatenate([ordinals, np.full(loops.shape, _SELF_ORDINAL)])
    scalars = np.concatenate([np.where(is_self, node_scalars[heads], 0.0), np.zeros(loops.shape)])

    order = np.lexsort((ordinals, src, dst))
    dst, src, ordinals, scalars = dst[order], src[order], ordinals[order], scalars[order]
    edge_at = np.searchsorted(dst, node_at)
    shift = np.repeat(node_at[:-1], np.diff(edge_at))
    columns = [_readonly(c) for c in (dst - shift, src - shift, ordinals, scalars)]
    node_at, edge_at = node_at.tolist(), edge_at.tolist()
    return [
        GraphArrays(speeds[n0:n1], *(c[e0:e1] for c in columns))
        for n0, n1, e0, e1 in zip(node_at, node_at[1:], edge_at, edge_at[1:])
    ]


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def instance_arrays(instances: Sequence["ExtendedGraph"]) -> list:
    """The ``GraphArrays`` of each instance.  Those of instances constructed
    from a base graph are derived from their graphs' edges on the first
    request, all in one ``graph_arrays`` call, and kept."""
    pending = [ext for ext in instances if ext._arrays is None]
    if pending:
        graphs = [ext.base for ext in pending]
        derived = graph_arrays(
            [[e.key() for e in g.edges] for g in graphs],
            [[node.state for node in g.nodes] for g in graphs],
        )
        for ext, arrays in zip(pending, derived):
            ext._arrays = arrays
    return [ext._arrays for ext in instances]


class ExtendedGraph:
    """A base (regular-frame) graph with candidate cross-edges over its nodes.

    The candidates live in ``table``, shared by every graph with the same
    node categories, and their labels and predicted probabilities in
    ``label_array`` and ``prob_array``, aligned with the table's rows, or
    None while unset.  ``candidates`` builds ``CandidateEdge`` objects from
    the arrays on each read; constructing from ``candidates`` instead turns
    them into arrays, and then every candidate carries a label or none does,
    and likewise a probability.

    ``arrays`` holds the base graph's node speeds and attention edges, and
    ``frame_index`` its frame.  Constructed from a base graph, the instance
    derives its arrays on the first request (``instance_arrays``); made by
    ``from_arrays``, it holds the arrays and only a maker of its base graph,
    which builds it on the first read of ``base``.
    """

    __slots__ = (
        "_base",
        "_make_base",
        "_arrays",
        "frame_index",
        "target_frame",
        "scenario_id",
        "table",
        "label_array",
        "prob_array",
    )

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
        self._base = base
        self._make_base = None
        self._arrays = None
        self.frame_index = base.frame_index
        self.target_frame = target_frame
        self.scenario_id = scenario_id
        self.table = table
        self.label_array = label_array
        self.prob_array = prob_array

    @classmethod
    def from_arrays(
        cls,
        make_base: Callable[[], SceneGraph],
        frame_index: int,
        arrays: GraphArrays,
        table: CandidateTable,
        label_array: np.ndarray | None,
        target_frame: int,
        scenario_id: str,
    ) -> "ExtendedGraph":
        """An instance of the base graph that ``make_base()`` builds, given
        that graph's frame index, arrays and candidate table."""
        ext = object.__new__(cls)
        ext._base, ext._make_base = None, make_base
        ext._arrays, ext.frame_index, ext.table = arrays, frame_index, table
        ext.target_frame, ext.scenario_id = target_frame, scenario_id
        ext.label_array, ext.prob_array = label_array, None
        return ext

    def _replace(self, **fields) -> "ExtendedGraph":
        ext = object.__new__(ExtendedGraph)
        for name in self.__slots__:
            setattr(ext, name, fields[name] if name in fields else getattr(self, name))
        return ext

    @property
    def arrays(self) -> GraphArrays:
        """The base graph's ``GraphArrays``."""
        (arrays,) = instance_arrays([self])
        return arrays

    @property
    def base(self) -> SceneGraph:
        """The base graph, built on the first read when the instance was
        made ``from_arrays``."""
        if self._base is None:
            self._base = self._make_base()
        return self._base

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


def label_candidates(ext: ExtendedGraph, ground_truth: SceneGraph) -> ExtendedGraph:
    """Label each candidate 1 iff it appears in the ground-truth graph.

    The two graphs must describe the same actors: node (id, category) pairs
    must match exactly.
    """
    base_nodes = [(n.id, n.category) for n in ext.base.nodes]
    gt_nodes = [(n.id, n.category) for n in ground_truth.nodes]
    if base_nodes != gt_nodes:
        raise NodeMismatch(NODE_MISMATCH)
    labels = truth_labels(ext.table, [e.key() for e in ground_truth.edges])
    return ext._replace(label_array=labels)


def truth_labels(table: CandidateTable, truth_rows) -> np.ndarray:
    """Read-only labels of the table's candidates: 1 iff the candidate is
    among the ground truth's ``(head, tail, relation ordinal)`` edge rows."""
    n = len(table.categories)
    stride = len(RELATIONS)
    # an edge whose ends are not node positions matches no candidate
    present = [
        (head * n + tail) * stride + ordinal
        for head, tail, ordinal in truth_rows
        if ordinal != _SELF_ORDINAL and 0 <= head < n and 0 <= tail < n
    ]
    # membership of every candidate key at once, through an indicator over
    # all n * n * stride keys
    indicator = np.zeros(n * n * stride, dtype=np.int64)
    indicator[present] = 1
    return _readonly(indicator[table.keys])


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

