"""Link predictor over extended scene graphs.

Pipeline: per-node and per-edge feature vectors are squeezed to scalars by
small encoder MLPs (the edge and candidate encoders run once on the few
distinct rows their inputs can take); two attention layers (with an MLP
between) propagate context over the base graph's edges; each candidate edge
is scored by a small MLP over [head embedding | candidate-relation encoding
| tail embedding] and squashed to a probability.

Message direction: a graph edge (head -> tail) delivers the head's embedding
to the tail, so a node aggregates over its incoming edges.  Every node needs
a self-edge for the self term of the aggregation; nodes without a recorded
state get a synthetic self-loop in the instance's ``GraphArrays``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .autodiff import MissingSelfEdge, ShapeMismatch, Tensor, active_tape
from .extended import (
    CATEGORY_ORDINAL,
    RELATIONS,
    STATE_SCALARS,
    ExtendedGraph,
    instance_arrays,
    speed_feature,
    state_scalar,
)
from .graphs import (
    ActorCategory,
    Node,
    RELATION_ORDINAL,
    RelationCategory,
    SchemaError,
    decoder,
    json_int,
    read_json,
    write_json,
)

NODE_FEATURE_SIZE = 11
EDGE_FEATURE_SIZE = 9
FEATURE_LAYOUT_ID = "node[cat10,speed1]-edge[rel7,self1,state1]-v1"
CHECKPOINT_SCHEMA_VERSION = 1


class SchemaVersionMismatch(SchemaError):
    """A checkpoint this code cannot load: another schema version or feature
    layout, or a malformed one."""


def node_feature_vector(node: Node) -> np.ndarray:
    """10-way category one-hot plus speed normalized to [0, 1]."""
    out = np.zeros(NODE_FEATURE_SIZE)
    out[CATEGORY_ORDINAL[node.category]] = 1.0
    out[10] = speed_feature(node.state)
    return out


def cross_edge_feature(relation: RelationCategory) -> np.ndarray:
    """7-way relation one-hot; self flag and state scalar stay zero."""
    if relation is RelationCategory.SELF_STATE:
        raise ValueError("SelfState is not a cross relation")
    out = np.zeros(EDGE_FEATURE_SIZE)
    out[RELATION_ORDINAL[relation]] = 1.0
    return out


def self_edge_feature(node: Node) -> np.ndarray:
    """Self flag plus one state scalar: braking flag for vehicles, light phase
    for traffic lights, zero otherwise."""
    return _self_row(state_scalar(node.state))


def _self_row(scalar: float) -> np.ndarray:
    out = np.zeros(EDGE_FEATURE_SIZE)
    out[7] = 1.0
    out[8] = scalar
    return out


#: node features by category ordinal, at zero speed
_NODE_ROWS = np.stack([node_feature_vector(Node(0, cat)) for cat in ActorCategory])
#: edge features by relation ordinal, the candidate encoder's inputs: a cross
#: relation's one-hot, and for SelfState the self flag with a zero state scalar
CANDIDATE_TABLE = np.stack(
    [
        _self_row(0.0) if relation is RelationCategory.SELF_STATE else cross_edge_feature(relation)
        for relation in RELATIONS
    ]
)
_STATE_LEVELS = np.array(STATE_SCALARS)
#: the attention edge encoder's inputs: the cross relations' one-hots by
#: ordinal, then the self flag with each state scalar, ascending.  SelfState
#: is the last ordinal, so an edge's row is its ordinal plus its state
#: scalar's rank (a cross edge's scalar is zero, rank 0).
EDGE_TABLE = np.concatenate([CANDIDATE_TABLE[:-1], [_self_row(s) for s in STATE_SCALARS]])


def edge_table_rows(ordinals: np.ndarray, scalars: np.ndarray) -> np.ndarray:
    """The ``EDGE_TABLE`` row of each attention edge, given its relation
    ordinal and state scalar."""
    ranks = np.searchsorted(_STATE_LEVELS, scalars)
    if not np.array_equal(_STATE_LEVELS[np.minimum(ranks, len(STATE_SCALARS) - 1)], scalars):
        raise ValueError(f"state scalars must be among {STATE_SCALARS}")
    return ordinals + ranks


#: ``dims`` keys of older checkpoints, with the one value each can hold
_LAYOUT_WIDTHS = {"node_features": NODE_FEATURE_SIZE, "edge_features": EDGE_FEATURE_SIZE}


@dataclass(frozen=True)
class ModelDims:
    """Layer widths; the defaults are the reference configuration.  The
    encoders' input widths are the feature layout's, ``NODE_FEATURE_SIZE``
    and ``EDGE_FEATURE_SIZE``."""

    encoder_hidden: int = 64
    gat1_out: int = 64
    mid_hidden: int = 128
    mid_out: int = 256
    triple_hidden: int = 4

    def __post_init__(self):
        for name, width in asdict(self).items():
            if width < 1:
                raise ValueError(f"model width {name} must be at least 1, got {width}")

    @staticmethod
    def from_json(obj: dict) -> "ModelDims":
        """The widths of a checkpoint's ``dims``, each a JSON integer.  An
        older checkpoint also records the feature layout's input widths."""
        widths = {key: json_int(obj, key) for key in obj}
        for key, size in _LAYOUT_WIDTHS.items():
            if widths.pop(key, size) != size:
                raise ValueError(f"{key} {obj[key]} does not fit the feature layout's {size}")
        return ModelDims(**widths)


DEFAULT_DIMS = ModelDims()
#: total parameter count of the reference configuration
DEFAULT_PARAM_COUNT = 44188


def _mlp_shapes(n_in: int, n_hidden: int, n_out: int, prefix: str):
    return [
        (f"{prefix}.w1", (n_hidden, n_in)),
        (f"{prefix}.b1", (n_hidden,)),
        (f"{prefix}.w2", (n_out, n_hidden)),
        (f"{prefix}.b2", (n_out,)),
    ]


def _gat_shapes(n_in: int, n_out: int, prefix: str):
    return [
        (f"{prefix}.theta", (n_out, n_in)),
        (f"{prefix}.theta_p", (n_out, 1)),
        (f"{prefix}.att", (3 * n_out,)),
    ]


def parameter_shapes(dims: ModelDims) -> list:
    shapes = []
    shapes += _mlp_shapes(NODE_FEATURE_SIZE, dims.encoder_hidden, 1, "enc_node")
    shapes += _mlp_shapes(EDGE_FEATURE_SIZE, dims.encoder_hidden, 1, "enc_edge")
    shapes += _mlp_shapes(EDGE_FEATURE_SIZE, dims.encoder_hidden, 1, "enc_kg")
    shapes += _gat_shapes(1, dims.gat1_out, "gat1")
    shapes += _mlp_shapes(dims.gat1_out, dims.mid_hidden, dims.mid_out, "mid")
    shapes += _gat_shapes(dims.mid_out, 1, "gat2")
    shapes += _mlp_shapes(3, dims.triple_hidden, 1, "triple")
    return shapes


def expected_param_count(dims: ModelDims) -> int:
    return sum(int(np.prod(shape)) for _, shape in parameter_shapes(dims))


class ModelParams:
    """Named parameter tensors in a fixed order, stored flat.

    The data of all tensors lives in one contiguous float64 buffer, ``flat``,
    in tensor order, and each tensor's ``data`` is a reshaped view into it;
    the tensors passed in are adopted, their data copied into ``flat``.
    Gradients get a second buffer, ``flat_grad``, with each ``grad`` a view
    into it, from the first ``zero_grad`` or backward on: a snapshot or a
    loaded checkpoint never needs one.  An optimizer updates every parameter with
    one pass over the buffers.

    Weights start uniform in +-1/sqrt(fan_in); biases start at zero.  The
    total count is asserted at construction, and the reference configuration
    must come to exactly ``DEFAULT_PARAM_COUNT``.
    """

    def __init__(self, dims: ModelDims, tensors: dict):
        self.dims = dims
        total = sum(t.data.size for t in tensors.values())
        expected = expected_param_count(dims)
        if total != expected:
            raise ValueError(f"parameter count {total} != expected {expected}")
        if dims == DEFAULT_DIMS and total != DEFAULT_PARAM_COUNT:
            raise ValueError(
                f"reference configuration must have {DEFAULT_PARAM_COUNT} parameters"
            )
        self.tensors = tensors
        self.flat = np.concatenate([t.data.reshape(-1) for t in tensors.values()])
        for t, view in zip(tensors.values(), self._views(self.flat)):
            t.data = view
        self.flat_grad = None

    def _views(self, buffer: np.ndarray) -> list:
        """Each tensor's reshaped view of ``buffer``, in tensor order."""
        views, at = [], 0
        for t in self.tensors.values():
            views.append(buffer[at : at + t.data.size].reshape(t.data.shape))
            at += t.data.size
        return views

    @classmethod
    def initialize(cls, dims: ModelDims = DEFAULT_DIMS, seed: int = 0) -> "ModelParams":
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, shape in parameter_shapes(dims):
            if name.endswith((".b1", ".b2")):
                data = np.zeros(shape)
            else:
                # fan-in: a weight matrix's input width, the attention vector's length
                bound = 1.0 / np.sqrt(shape[-1])
                data = rng.uniform(-bound, bound, size=shape)
            tensors[name] = Tensor(data)
        return cls(dims, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grad(self) -> None:
        """Zero ``flat_grad``; the first call makes it and binds each
        tensor's ``grad`` to its view, which backward then adds into."""
        if self.flat_grad is None:
            self.flat_grad = np.zeros(self.flat.size)
            for t, view in zip(self.tensors.values(), self._views(self.flat_grad)):
                t.grad = view
        else:
            self.flat_grad.fill(0.0)

    def clone(self) -> "ModelParams":
        # views of this buffer, copied into the clone's own in one concatenation
        tensors = {name: Tensor(t.data) for name, t in self.items()}
        return ModelParams(self.dims, tensors)

    def load_from(self, other: "ModelParams") -> None:
        np.copyto(self.flat, other.flat)


_MLP_WEIGHTS = ("w1", "b1", "w2", "b2")
_GAT_WEIGHTS = ("theta", "theta_p", "att")


def _mlp(params: ModelParams, prefix: str, x: np.ndarray):
    """Linear, ELU, linear.  Returns the output and its backward, which maps
    the output's gradient to those of ``x``, ``w1``, ``b1``, ``w2``, ``b2``."""
    w1, b1, w2, b2 = (params[f"{prefix}.{name}"].data for name in _MLP_WEIGHTS)
    if x.ndim != 2 or x.shape[1] != w1.shape[1]:
        raise ShapeMismatch(f"{prefix} takes {w1.shape[1]} features, got {x.shape}")
    pre = x @ w1.T + b1
    hidden, elu_backward = _elu(pre)
    out = hidden @ w2.T + b2

    def backward(g):
        g_pre = elu_backward(g @ w2)
        return g_pre @ w1, g_pre.T @ x, g_pre.sum(axis=0), g.T @ hidden, g.sum(axis=0)

    return out, backward


def _elu(x: np.ndarray):
    """ELU, with its backward."""
    positive = x > 0
    # expm1 only sees the non-positive branch; large positives would overflow
    out = np.where(positive, x, np.expm1(np.minimum(x, 0.0)))
    return out, lambda g: g * np.where(positive, 1.0, out + 1.0)


#: slope of the attention scores' leaky rectifier below zero
LEAKY_SLOPE = 0.2

#: instances compiled and scored together on the inference paths; a larger
#: chunk holds more temporaries of the forward pass alive at once
BATCH_SIZE = 32


@dataclass(frozen=True)
class GraphBatch:
    """Model inputs of a disjoint union of extended graphs, as index arrays.

    Node ids of each graph are shifted by the node count of the graphs before
    it, so no edge or candidate crosses graphs and one pass over the union
    equals one pass per graph.  Candidate rows of graph ``k`` are
    ``bounds[k]:bounds[k + 1]``.  Features are rows of constant tables,
    picked by the indices here when the batch is encoded, so a batch kept
    for many passes holds no feature matrix.  Every node has a self-edge
    and the edges are sorted by destination, so node ``i``'s incoming edges
    are ``starts[i]:starts[i + 1]``.
    """

    categories: np.ndarray  # (n,) node category ordinals
    speeds: np.ndarray  # (n,) node speeds normalized to [0, 1]
    dst: np.ndarray  # (m,) attention edges, in (dst, src, relation) order
    src: np.ndarray  # (m,)
    edge_rows: np.ndarray  # (m,) ``EDGE_TABLE`` rows of the attention edges
    starts: np.ndarray  # (n,) each node's first incoming edge
    kg_ordinals: np.ndarray  # (q,) candidate relation ordinals
    heads: np.ndarray  # (q,)
    tails: np.ndarray  # (q,)
    bounds: np.ndarray  # (graphs + 1,)

    def node_features(self) -> np.ndarray:
        """(n, NODE_FEATURE_SIZE): category one-hot and speed per node."""
        feats = _NODE_ROWS[self.categories]
        feats[:, 10] = self.speeds
        return feats


def compile_batch(instances: Sequence[ExtendedGraph]) -> GraphBatch:
    """Compile extended graphs into one ``GraphBatch``: concatenate each
    graph's candidate table and arrays, its node ids shifted by its node
    offset.  Each graph's attention edges are in (dst, src, relation) order
    already, and the offsets keep them so across graphs; the edges' table
    rows and the nodes' segment starts are found here, once per batch."""
    tables = [ext.table for ext in instances]
    arrays = instance_arrays(instances)
    nodes = [len(a.speeds) for a in arrays]
    offsets = np.cumsum([0] + nodes[:-1], dtype=np.int64)
    counts = [len(t) for t in tables]
    node_shift = np.repeat(offsets, [len(a.dst) for a in arrays])
    shift = np.repeat(offsets, counts)
    dst = np.concatenate([a.dst for a in arrays]) + node_shift
    return GraphBatch(
        categories=np.concatenate([t.categories for t in tables]),
        speeds=np.concatenate([a.speeds for a in arrays]),
        dst=dst,
        src=np.concatenate([a.src for a in arrays]) + node_shift,
        edge_rows=edge_table_rows(
            np.concatenate([a.ordinals for a in arrays]),
            np.concatenate([a.scalars for a in arrays]),
        ),
        starts=_segment_starts(dst, sum(nodes)),
        kg_ordinals=np.concatenate([t.ordinals for t in tables]),
        heads=np.concatenate([t.heads for t in tables]) + shift,
        tails=np.concatenate([t.tails for t in tables]) + shift,
        bounds=np.cumsum([0] + counts, dtype=np.int64),
    )


def _segment_starts(dst: np.ndarray, n: int) -> np.ndarray:
    """Index of each of nodes ``0..n-1``'s first entry in the sorted ``dst``."""
    return np.searchsorted(dst, np.arange(n))


def _scatter(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, w): the (m, w) ``rows`` summed by ``index``, one ``bincount`` per
    column."""
    return np.array([np.bincount(index, weights=col, minlength=n) for col in rows.T]).T


def attend(h, dst, src, p, theta, theta_p, att, starts=None):
    """One attention layer over a fixed edge structure.  Returns the output
    and its backward, which maps the output's gradient to those of ``h``,
    ``p``, ``theta``, ``theta_p`` and ``att``.

    Per edge, a raw score is the attention vector dotted with
    [transformed dst embedding | transformed src embedding | transformed edge
    encoding], passed through a leaky rectifier; scores normalize over each
    destination's incoming edges and weight the source embeddings, which are
    then summed per destination.

    The edges must be sorted by destination and every node needs a
    self-edge, so node ``i``'s incoming edges are the segment
    ``starts[i]:starts[i + 1]`` (found from ``dst`` when not given).  The
    layer works at the narrower of the input and output widths.  When the
    input is narrower, the attention vector's node parts are pulled back
    through the transform, and the messages are summed before it;
    otherwise the inputs are transformed first.  Either way, the scores
    come from two projections per node, not per edge.
    """
    n = h.shape[0]
    if (dst[1:] < dst[:-1]).any():
        raise ValueError("attention edges must be sorted by destination")
    covered = np.zeros(n, dtype=bool)
    covered[dst[dst == src]] = True
    if not covered.all():
        raise MissingSelfEdge(f"nodes {np.flatnonzero(~covered).tolist()} have no self-edge")
    if starts is None:
        starts = _segment_starts(dst, n)
    k = theta.shape[0]
    # the attention vector's dst and src parts, as rows, and its edge part
    a_nodes, a_p = att[: 2 * k].reshape(2, k), att[2 * k :]
    narrow = h.shape[1] <= k
    # the rows the messages carry, and the attention's node parts in their space
    if narrow:
        x, u = h, a_nodes @ theta
    else:
        x, u = h @ theta.T, a_nodes
    c_p = theta_p[:, 0] @ a_p
    s_dst, s_src = u @ x.T
    scores = s_dst[dst] + s_src[src] + p[:, 0] * c_p
    positive = scores > 0
    raw = np.where(positive, scores, LEAKY_SLOPE * scores)
    exps = np.exp(raw - np.maximum.reduceat(raw, starts)[dst])
    alpha = exps / np.add.reduceat(exps, starts)[dst]
    x_src = x[src]
    summed = np.add.reduceat(x_src * alpha[:, None], starts)
    out = summed @ theta.T if narrow else summed

    def backward(g):
        g_summed = g @ theta if narrow else g
        g_msg = g_summed[dst]
        g_alpha = (g_msg * x_src).sum(axis=1)
        weighted = np.add.reduceat(g_alpha * alpha, starts)
        g_scores = alpha * (g_alpha - weighted[dst]) * np.where(positive, 1.0, LEAKY_SLOPE)
        # the scores' node projections, summed by destination and by source
        g_s = np.array(
            [np.add.reduceat(g_scores, starts), np.bincount(src, weights=g_scores, minlength=n)]
        )
        g_x = _scatter(src, g_msg * alpha[:, None], n) + g_s.T @ u
        g_u = g_s @ x
        if narrow:
            g_h, g_theta = g_x, g.T @ summed + a_nodes.T @ g_u
            g_a_nodes = g_u @ theta.T
        else:
            g_h, g_theta = g_x @ theta, g_x.T @ h
            g_a_nodes = g_u
        g_c = g_scores @ p[:, 0]
        return (
            g_h,
            (g_scores * c_p)[:, None],
            g_theta,
            (a_p * g_c)[:, None],
            np.concatenate([g_a_nodes.reshape(-1), theta_p[:, 0] * g_c]),
        )

    return out, backward


def gat_layer(h, edges: Sequence, theta, theta_p, att) -> Tensor:
    """Attention layer over explicit ``(destination, source, encoding)`` edges,
    in any order, forward only.

    ``h`` may be a 1-D vector of per-node scalars or an (n, d) matrix; the
    result is (n, out).  Every node must appear in a self-edge.
    """
    h = np.asarray(h, dtype=np.float64).reshape(len(h), -1)
    edges = sorted(edges, key=lambda e: e[0])
    dst = np.array([e[0] for e in edges], dtype=np.int64)
    src = np.array([e[1] for e in edges], dtype=np.int64)
    p = np.array([[float(e[2])] for e in edges])
    weights = (np.asarray(w, dtype=np.float64) for w in (theta, theta_p, att))
    return Tensor(attend(h, dst, src, p, *weights)[0])


def _triple_input(h2: np.ndarray, p_kg: np.ndarray, heads: np.ndarray, tails: np.ndarray):
    """[head embedding | candidate-relation encoding | tail embedding] per
    candidate.  Returns it and its backward, which maps its gradient to
    those of ``h2`` and ``p_kg``."""
    k = h2.shape[1]
    out = np.concatenate([h2[heads], p_kg, h2[tails]], axis=1)

    def backward(g):
        n = h2.shape[0]
        return _scatter(tails, g[:, -k:], n) + _scatter(heads, g[:, :k], n), g[:, k:-k]

    return out, backward


def _probabilities(logits: np.ndarray):
    """Sigmoid of a column of logits, as a flat vector, with its backward."""
    shape = logits.shape
    out = 0.5 * (1.0 + np.tanh(0.5 * logits.reshape(-1)))
    return out, lambda g: (g * out * (1.0 - out)).reshape(shape)


def _kept(result, backs):
    """A block's output; its backward goes on ``backs`` unless that is None,
    so without a tape it is dropped, with its activations, at once."""
    out, backward = result
    if backs is not None:
        backs.append(backward)
    return out


def _into(params: ModelParams, prefix: str, names: tuple, grads: tuple) -> tuple:
    """Add the trailing weight gradients of a block backward's ``grads`` into
    the ``grad`` of ``prefix``'s ``names``; return the input gradients."""
    n = len(grads) - len(names)
    for name, g in zip(names, grads[n:]):
        params[f"{prefix}.{name}"].grad += g
    return grads[:n]


def _table_encoder(params: ModelParams, prefix: str, table: np.ndarray, rows: np.ndarray):
    """``prefix``'s MLP run once on each row of a constant ``table``, then
    picked by ``rows``.  Its backward sums the picks' gradients into their
    table rows and runs the MLP's backward once, on the table."""
    encoded, backward = _mlp(params, prefix, table)
    return encoded[rows], lambda g: backward(_scatter(rows, g, len(table)))


def encode(params: ModelParams, batch: GraphBatch, backs: list | None):
    """Scalar encodings ``(h, p, p_kg)``, (n,1), (m,1) and (q,1), of the
    batch's nodes, attention edges and candidates; the encoders' backwards
    go on ``backs`` unless that is None.  Edges and candidates take a few
    distinct feature rows, so their encoders run on those rows' tables."""
    h = _kept(_mlp(params, "enc_node", batch.node_features()), backs)
    p = _kept(_table_encoder(params, "enc_edge", EDGE_TABLE, batch.edge_rows), backs)
    p_kg = _kept(_table_encoder(params, "enc_kg", CANDIDATE_TABLE, batch.kg_ordinals), backs)
    return h, p, p_kg


def forward(params: ModelParams, ext: ExtendedGraph | GraphBatch) -> Tensor:
    """Probability per candidate, aligned with ``ext.candidates``.

    ``ext`` is one extended graph, scored as a batch of one, or a compiled
    ``GraphBatch``, whose graphs' candidates come out one graph after another.
    While a ``Tape`` is active, the pass records one backward: ``_backward``
    over its blocks' backwards.
    """
    batch = ext if isinstance(ext, GraphBatch) else compile_batch([ext])
    tape = active_tape()
    backs = None if tape is None else []
    dst, src, starts = batch.dst, batch.src, batch.starts
    h, p, p_kg = encode(params, batch, backs)

    gat1 = (params[f"gat1.{name}"].data for name in _GAT_WEIGHTS)
    h1 = _kept(attend(h, dst, src, p, *gat1, starts), backs)
    z = _kept(_elu(_kept(_mlp(params, "mid", h1), backs)), backs)
    gat2 = (params[f"gat2.{name}"].data for name in _GAT_WEIGHTS)
    h2 = _kept(attend(z, dst, src, p, *gat2, starts), backs)

    triples = _kept(_triple_input(h2, p_kg, batch.heads, batch.tails), backs)
    probs = _kept(_probabilities(_kept(_mlp(params, "triple", triples), backs)), backs)
    if tape is not None:
        tape.records.append(partial(_backward, params, backs))
    return Tensor(probs)


def _backward(params: ModelParams, backs: list, g: np.ndarray) -> None:
    """Run the blocks' backwards of one ``forward`` in reverse, from the
    gradient of its probabilities, and add each parameter's gradient into
    its view of ``params.flat_grad``, which the first call makes."""
    if params.flat_grad is None:
        params.zero_grad()
    enc_node, enc_edge, enc_kg, gat1, mid, elu, gat2, triples, triple, probs = backs
    (g,) = _into(params, "triple", _MLP_WEIGHTS, triple(probs(g)))
    g_h2, g_kg = triples(g)
    g_z, g_p = _into(params, "gat2", _GAT_WEIGHTS, gat2(g_h2))
    (g,) = _into(params, "mid", _MLP_WEIGHTS, mid(elu(g_z)))
    g_h, g_p1 = _into(params, "gat1", _GAT_WEIGHTS, gat1(g))
    _into(params, "enc_kg", _MLP_WEIGHTS, enc_kg(g_kg))
    # both layers attend over the edge encodings: GAT2's gradient, then GAT1's
    _into(params, "enc_edge", _MLP_WEIGHTS, enc_edge(g_p + g_p1))
    _into(params, "enc_node", _MLP_WEIGHTS, enc_node(g_h))


def predict_probs(params: ModelParams, ext: ExtendedGraph) -> np.ndarray:
    """Forward pass without gradient recording."""
    return forward(params, ext).data


def chunks(instances: Iterable[ExtendedGraph]):
    """Yield lists of ``BATCH_SIZE`` instances, the last one shorter, in
    input order; instances are drawn only as each list fills."""
    it = iter(instances)
    while chunk := list(islice(it, BATCH_SIZE)):
        yield chunk


def predict_batch(params: ModelParams, batch: GraphBatch) -> list:
    """Forward pass without gradient recording, split into one probability
    array per graph of the batch."""
    return np.split(forward(params, batch).data, batch.bounds[1:-1])


def predict_each(params: ModelParams, instances: Iterable[ExtendedGraph]):
    """Yield ``(instance, candidate probabilities)`` pairs in input order.

    Instances are drawn, compiled and scored ``BATCH_SIZE`` at a time, so
    only one chunk's instances and arrays need be alive at once.
    """
    for chunk in chunks(instances):
        yield from zip(chunk, predict_batch(params, compile_batch(chunk)))


# --- checkpoints -----------------------------------------------------------


def checkpoint_to_json(params: ModelParams, extra: dict | None = None) -> dict:
    out = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "feature_layout_id": FEATURE_LAYOUT_ID,
        "dims": asdict(params.dims),
        "tensors": {
            name: {"shape": list(t.data.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in params.items()
        },
    }
    if extra:
        out.update(extra)
    return out


@decoder("checkpoint", SchemaVersionMismatch)
def checkpoint_from_json(obj: dict) -> ModelParams:
    version = obj.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"checkpoint schema_version {version!r}, expected {CHECKPOINT_SCHEMA_VERSION}"
        )
    layout = obj.get("feature_layout_id")
    if layout != FEATURE_LAYOUT_ID:
        raise SchemaVersionMismatch(
            f"checkpoint feature layout {layout!r}, expected {FEATURE_LAYOUT_ID}"
        )
    dims = ModelDims.from_json(obj["dims"])
    raw_tensors = obj["tensors"]
    tensors = {}
    for name, shape in parameter_shapes(dims):
        raw = raw_tensors[name]
        if raw["shape"] != list(shape):
            raise SchemaVersionMismatch(
                f"tensor {name} has shape {raw['shape']!r}, expected {list(shape)}"
            )
        data = np.asarray(raw["data"], dtype=np.float64).reshape(shape)
        tensors[name] = Tensor(data)
    return ModelParams(dims, tensors)


def save_checkpoint(path, params: ModelParams, extra: dict | None = None) -> None:
    write_json(path, checkpoint_to_json(params, extra))


def load_checkpoint(path) -> ModelParams:
    return checkpoint_from_json(read_json(path))
