"""Reference computations the benchmark checks the program against.

Everything here is plain numpy and plain Python, written from the documented
behaviour rather than from the program's code, and imports nothing from
``cornergraph``:

* a dense forward pass of the link predictor, built from the checkpoint JSON
  and the documented feature layout
  ``node[cat10,speed1]-edge[rel7,self1,state1]-v1``, with edge gathers and
  scatters written as incidence-matrix products;
* the clamped binary cross-entropy;
* the scenario split, the Mann-Whitney rank AUC and the Youden operating
  point;
* consistent-argmax decoding over mutually exclusive candidate groups;
* oriented-box clearance and IoU, and the episode outcome re-derived from a
  recorded trace.

Graph arguments are duck-typed: anything with ``nodes`` (``id``,
``category.value``, ``state``) and ``edges`` (``head``, ``relation.value``,
``tail``) works.
"""

from __future__ import annotations

import math

import numpy as np

FEATURE_LAYOUT_ID = "node[cat10,speed1]-edge[rel7,self1,state1]-v1"
CATEGORIES = (
    "Ego", "Car", "Bicycle", "Pedestrian", "TrafficLight",
    "Object", "Lane", "Pavement", "Shoulder", "Road",
)
RELATIONS = (
    "IsIn", "SafeDistance", "UnsafeDistance", "InFrontOf",
    "AtRearOf", "ToLeftOf", "ToRightOf", "SelfState",
)
CAT_INDEX = {c: i for i, c in enumerate(CATEGORIES)}
REL_INDEX = {r: i for i, r in enumerate(RELATIONS)}
LIGHT_SCALAR = {"Red": 0.0, "Yellow": 0.5, "Green": 1.0}
SPEED_SCALE = 30.0
NODE_FEATURES = 11
EDGE_FEATURES = 9
SELF_FLAG = 7
STATE_SLOT = 8
LEAKY_SLOPE = 0.2
CLAMP = 1e-12

# --- model -----------------------------------------------------------------


def params_from_checkpoint(obj: dict) -> dict:
    """Named float64 arrays from a checkpoint JSON object."""
    if obj.get("feature_layout_id") != FEATURE_LAYOUT_ID:
        raise ValueError(f"unexpected feature layout {obj.get('feature_layout_id')!r}")
    return {
        name: np.asarray(raw["data"], dtype=np.float64).reshape(raw["shape"])
        for name, raw in obj["tensors"].items()
    }


def _self_feature(state) -> np.ndarray:
    out = np.zeros(EDGE_FEATURES)
    out[SELF_FLAG] = 1.0
    if state is not None:
        if state.braking is not None:
            out[STATE_SLOT] = 1.0 if state.braking else 0.0
        elif state.light_state is not None:
            out[STATE_SLOT] = LIGHT_SCALAR[state.light_state.value]
    return out


def _one_hot_rows(index, width: int) -> np.ndarray:
    out = np.zeros((len(index), width))
    out[np.arange(len(index)), np.asarray(index, dtype=np.int64)] = 1.0
    return out


class DenseGraph:
    """One instance as dense arrays: node features, per-edge destination and
    source incidence matrices, edge features, candidate features, and
    head/tail selection matrices."""

    def __init__(self, base, candidates):
        nodes = base.nodes
        n = len(nodes)
        x = np.zeros((n, NODE_FEATURES))
        for i, node in enumerate(nodes):
            x[i, CAT_INDEX[node.category.value]] = 1.0
            state = node.state
            if state is not None and state.velocity is not None:
                vx, vy = state.velocity
                x[i, 10] = min(math.sqrt(vx * vx + vy * vy) / SPEED_SCALE, 1.0)
        dst, src, attrs = [], [], []
        with_self = set()
        for e in base.edges:
            rel = e.relation.value
            if rel == "SelfState":
                with_self.add(e.head)
                attrs.append(_self_feature(nodes[e.head].state))
            else:
                feat = np.zeros(EDGE_FEATURES)
                feat[REL_INDEX[rel]] = 1.0
                attrs.append(feat)
            dst.append(e.tail)
            src.append(e.head)
        for node in nodes:
            if node.id not in with_self:
                dst.append(node.id)
                src.append(node.id)
                attrs.append(_self_feature(None))
        self.x = x
        self.dst = _one_hot_rows(dst, n)
        self.src = _one_hot_rows(src, n)
        self.attrs = np.stack(attrs)
        self.kg = np.zeros((len(candidates), EDGE_FEATURES))
        for k, c in enumerate(candidates):
            self.kg[k, REL_INDEX[c.relation.value]] = 1.0
        self.heads = _one_hot_rows([c.head for c in candidates], n)
        self.tails = _one_hot_rows([c.tail for c in candidates], n)
        self.labels = np.array(
            [-1 if c.label is None else c.label for c in candidates], dtype=np.int64
        )


def _elu(v):
    # alpha = 1: the slope is 1 on both sides of zero, so the ELU is no kink
    # for a central difference
    return np.where(v > 0, v, np.expm1(np.minimum(v, 0.0)))


def _mlp(P, prefix, v):
    hidden = _elu(v @ P[f"{prefix}.w1"].T + P[f"{prefix}.b1"])
    return hidden @ P[f"{prefix}.w2"].T + P[f"{prefix}.b2"]


def _attend(P, prefix, g: DenseGraph, h, p, kinks):
    z = h @ P[f"{prefix}.theta"].T
    zp = p @ P[f"{prefix}.theta_p"].T
    z_src = g.src @ z
    score = np.hstack([g.dst @ z, z_src, zp]) @ P[f"{prefix}.att"]
    if kinks is not None:
        # an edge that is its destination's only incoming edge gets weight 1
        # on either side of the leaky ReLU's kink
        shared = g.dst @ g.dst.sum(axis=0) > 1
        kinks.append(score[shared] > 0)
    score = np.where(score > 0, score, LEAKY_SLOPE * score)
    # softmax over each destination's incoming edges, max-stabilized
    node_max = np.where(g.dst > 0, score[:, None], -np.inf).max(axis=0)
    w = np.exp(score - g.dst @ node_max)
    alpha = w / (g.dst @ (g.dst.T @ w))
    return g.dst.T @ (alpha[:, None] * z_src)


def dense_forward(P: dict, g: DenseGraph, kinks: list | None = None) -> np.ndarray:
    """Probability per candidate.  ``kinks``, when given, collects which side
    of zero every leaky ReLU input that reaches the output lies on."""
    h = _mlp(P, "enc_node", g.x)
    p = _mlp(P, "enc_edge", g.attrs)
    p_kg = _mlp(P, "enc_kg", g.kg)
    h1 = _attend(P, "gat1", g, h, p, kinks)
    z = _elu(_mlp(P, "mid", h1))
    h2 = _attend(P, "gat2", g, z, p, kinks)
    logits = _mlp(P, "triple", np.hstack([g.heads @ h2, p_kg, g.tails @ h2]))
    return 1.0 / (1.0 + np.exp(-logits.reshape(-1)))


def bce(probs, labels, kinks: list | None = None) -> float:
    if kinks is not None:
        kinks.append((probs > CLAMP) & (probs < 1.0 - CLAMP))
    p = np.clip(probs, CLAMP, 1.0 - CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def central_difference(P: dict, g: DenseGraph, name: str, flat_index: int, h: float):
    """d(BCE)/d(P[name].flat[flat_index]) by central differences at steps h
    and h/2 with Richardson extrapolation, or None when the evaluations put
    some leaky ReLU input, or a clamped probability, on different sides of its
    kink (the difference quotient then does not approximate the
    derivative)."""
    tensor = P[name]
    keep = tensor.flat[flat_index]
    loss, kinks = {}, {}
    try:
        for step in (h, -h, h / 2, -h / 2):
            kinks[step] = []
            tensor.flat[flat_index] = keep + step
            loss[step] = bce(dense_forward(P, g, kinks[step]), g.labels, kinks[step])
    finally:
        tensor.flat[flat_index] = keep
    pattern = kinks[h]
    for other in (-h, h / 2, -h / 2):
        if any(not np.array_equal(a, b) for a, b in zip(pattern, kinks[other])):
            return None
    coarse = (loss[h] - loss[-h]) / (2.0 * h)
    fine = (loss[h / 2] - loss[-h / 2]) / h
    return (4.0 * fine - coarse) / 3.0


# --- split and rank statistics --------------------------------------------


def scenario_split(ids, fractions, seed: int) -> dict:
    """The documented scenario split: shuffle the sorted ids with the seed,
    take round(n * test) then round(n * val) from the front, the rest trains,
    keeping at least one training scenario."""
    ids = sorted(set(ids))
    n = len(ids)
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [ids[i] for i in order]
    n_test = int(round(n * fractions[2]))
    n_val = int(round(n * fractions[1]))
    while n - n_test - n_val < 1 and (n_test > 0 or n_val > 0):
        if n_val >= n_test and n_val > 0:
            n_val -= 1
        else:
            n_test -= 1
    return {
        "test": shuffled[:n_test],
        "val": shuffled[n_test : n_test + n_val],
        "train": shuffled[n_test + n_val :],
    }


def rank_auc(probs, labels) -> float:
    """Mann-Whitney U / (n_pos * n_neg), tied scores sharing their mean rank."""
    probs = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    uniq, inverse, counts = np.unique(probs, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    mean_rank = upper - (counts - 1) / 2.0
    ranks = mean_rank[inverse]
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def youden_point(probs, labels) -> dict:
    """Operating point maximizing TPR - FPR over every distinct score; ties go
    to the lower threshold.  Positives are scores >= threshold.  A threshold
    above every score (J = 0) never wins: the lowest score already gives
    J = 0 at a lower threshold."""
    probs = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    thresholds = np.unique(probs)  # ascending
    pos_sorted = np.sort(probs[y == 1])
    neg_sorted = np.sort(probs[y == 0])
    tp = n_pos - np.searchsorted(pos_sorted, thresholds, side="left")
    fp = n_neg - np.searchsorted(neg_sorted, thresholds, side="left")
    j = tp / n_pos - fp / n_neg
    best = int(np.argmax(j))  # first maximum = lowest threshold
    return {
        "threshold": float(thresholds[best]),
        "tp": int(tp[best]),
        "fp": int(fp[best]),
        "tn": int(n_neg - fp[best]),
        "fn": int(n_pos - tp[best]),
    }


# --- decoding --------------------------------------------------------------

_DISTANCE = ("SafeDistance", "UnsafeDistance")


def group_of(head: int, relation: str, tail: int) -> tuple:
    """Mutually exclusive group: an actor's containment targets, an ordered
    pair's two separation relations, an ordered pair's four bearings."""
    if relation == "IsIn":
        return ("isin", head)
    if relation in _DISTANCE:
        return ("distance", head, tail)
    return ("bearing", head, tail)


def consistent_argmax(candidates, probs) -> set:
    """(head, relation, tail) kept per group: highest probability, ties to the
    lowest (head, tail, relation ordinal)."""
    best = {}
    for c, p in zip(candidates, probs):
        rel = c.relation.value
        key = group_of(c.head, rel, c.tail)
        rank = (-float(p), c.head, c.tail, REL_INDEX[rel])
        if key not in best or rank < best[key][0]:
            best[key] = (rank, (c.head, rel, c.tail))
    return {triple for _, triple in best.values()}


# --- oriented boxes and outcomes -------------------------------------------

COLLISION_IOU = 0.1
NEAR_MISS_CLEARANCE = 1.5
BODY_SIZES = {
    "Ego": (4.5, 2.0),
    "Car": (4.5, 2.0),
    "Bicycle": (1.8, 0.6),
    "Pedestrian": (0.6, 0.6),
}


def box(cx, cy, heading, length, width):
    """Counter-clockwise corners; heading 0 points along +y."""
    fx, fy = math.sin(heading), math.cos(heading)
    rx, ry = math.cos(heading), -math.sin(heading)
    hl, hw = length / 2.0, width / 2.0
    return [
        (cx + fx * hl + rx * hw, cy + fy * hl + ry * hw),
        (cx + fx * hl - rx * hw, cy + fy * hl - ry * hw),
        (cx - fx * hl - rx * hw, cy - fy * hl - ry * hw),
        (cx - fx * hl + rx * hw, cy - fy * hl + ry * hw),
    ]


def _separated(a, b) -> bool:
    """Separating-axis test over both boxes' edge normals."""
    for poly in (a, b):
        for i in range(len(poly)):
            (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % len(poly)]
            nx, ny = y1 - y2, x2 - x1
            pa = [nx * x + ny * y for x, y in a]
            pb = [nx * x + ny * y for x, y in b]
            if max(pa) < min(pb) or max(pb) < min(pa):
                return True
    return False


def _point_segment(p, a, b) -> float:
    (px, py), (ax, ay), (bx, by) = p, a, b
    dx, dy = bx - ax, by - ay
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def clearance(a, b) -> float:
    """Surface distance between two convex polygons; 0 when they touch."""
    if not _separated(a, b):
        return 0.0
    best = math.inf
    for p, q in ((a, b), (b, a)):
        for v in p:
            for i in range(len(q)):
                best = min(best, _point_segment(v, q[i], q[(i + 1) % len(q)]))
    return best


def _area(poly) -> float:
    s = 0.0
    for i in range(len(poly)):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % len(poly)]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2.0


def iou(a, b) -> float:
    """Intersection over union, Sutherland-Hodgman clipping of a by b."""
    poly = list(a)
    for i in range(len(b)):
        (ax, ay), (bx, by) = b[i], b[(i + 1) % len(b)]
        out = []
        for k in range(len(poly)):
            p, q = poly[k], poly[(k + 1) % len(poly)]
            sp = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
            sq = (bx - ax) * (q[1] - ay) - (by - ay) * (q[0] - ax)
            if sp >= 0.0:
                out.append(p)
            if sp * sq < 0.0:
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = out
        if not poly:
            return 0.0
    inter = _area(poly)
    union = _area(a) + _area(b) - inter
    return inter / union if union > 0.0 else 0.0


def outcome_from_trace(trace, categories, start_speed, gated_start) -> str:
    """Outcome by the documented precedence Collision > NearMiss >
    UnsafeManeuver > NoCollision, from ``run_episode(record=True)`` rows
    ``(agent, t, x, y, heading, speed)``: one ``ego`` row per step followed by
    one row per adversary, in plan order."""
    ego_len, ego_wid = BODY_SIZES["Ego"]
    ego_half_diag = math.hypot(ego_len, ego_wid) / 2.0
    stride = 1 + len(categories)
    near = False
    max_speed = start_speed
    for at in range(0, len(trace), stride):
        _, _, ex, ey, _, speed = trace[at]
        max_speed = max(max_speed, speed)
        ego_box = None
        for (_, _, ax, ay, ah, _), cat in zip(trace[at + 1 : at + stride], categories):
            a_len, a_wid = BODY_SIZES[cat]
            # centre distance minus both half-diagonals bounds the clearance below
            reach = ego_half_diag + math.hypot(a_len, a_wid) / 2.0
            if math.hypot(ax - ex, ay - ey) - reach > NEAR_MISS_CLEARANCE:
                continue
            ego_box = ego_box or box(ex, ey, 0.0, ego_len, ego_wid)
            adv_box = box(ax, ay, ah, a_len, a_wid)
            gap = clearance(ego_box, adv_box)
            if gap <= NEAR_MISS_CLEARANCE:
                near = True
            if gap == 0.0 and iou(ego_box, adv_box) > COLLISION_IOU:
                return "Collision"
    if near:
        return "NearMiss"
    if gated_start and max_speed < 0.5:
        return "UnsafeManeuver"
    return "NoCollision"
