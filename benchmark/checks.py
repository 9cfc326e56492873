"""Correctness checks on the program's outputs.

Each check takes plain data, compares it with a computation from
``reference`` or with a property the method must have, and returns a list of
failure messages (empty when the output is right).  ``selftest.py`` feeds
each one a deliberately corrupted output and expects it to complain.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

PROB_TOLERANCE = 1e-9
AUC_TOLERANCE = 1e-9
#: error allowed between a tape gradient and a central difference, relative
#: to the difference (a gradient scaled by 1.01 is off by 1e-2) ...
GRAD_RTOL = 1e-4
#: ... plus rounding in the loss, FD_ROUNDING * max(1, loss) / step: about
#: 30 times the rounding error measured on a well-fitted instance
FD_ROUNDING = 1e-13
#: difference steps: large gradients need a small step (truncation), small
#: ones a large step (rounding); a tape gradient passes when it agrees with
#: the difference at one of them
FD_STEPS = (1e-3, 1e-4, 1e-5, 1e-6)
#: entries compared per tensor
GRAD_ENTRIES = 2
REFERENCE_PARAM_COUNT = 44188
MIN_FIDELITY = 0.95


def probs_match(program_probs, dense_probs, what: str) -> list:
    a = np.asarray(program_probs, dtype=np.float64)
    b = np.asarray(dense_probs, dtype=np.float64)
    if a.shape != b.shape:
        return [f"{what}: {a.shape} probabilities, reference has {b.shape}"]
    worst = float(np.max(np.abs(a - b))) if a.size else 0.0
    if not worst <= PROB_TOLERANCE:
        return [f"{what}: probabilities differ from the dense forward by {worst:.3e}"]
    return []


def rank_stats_match(report: dict, probs, labels, what: str) -> list:
    """AUC and the Youden confusion counts of an ``eval`` report against the
    benchmark's own rank statistics on the same scores."""
    out = []
    auc = ref.rank_auc(probs, labels)
    if not abs(report["auc"] - auc) <= AUC_TOLERANCE:
        out.append(f"{what}: auc {report['auc']!r}, Mann-Whitney gives {auc!r}")
    point = ref.youden_point(probs, labels)
    for key in ("tp", "fp", "tn", "fn"):
        if report["confusion"][key] != point[key]:
            out.append(
                f"{what}: Youden {key} {report['confusion'][key]}, expected {point[key]}"
            )
    accuracy = (point["tp"] + point["tn"]) / len(labels)
    if not abs(report["accuracy"] - accuracy) <= AUC_TOLERANCE:
        out.append(f"{what}: accuracy {report['accuracy']!r}, expected {accuracy!r}")
    return out


def decoded_consistent(decoded: dict, base, candidates, probs, what: str) -> list:
    """A consistent-argmax decode keeps exactly one candidate per exclusive
    group, the group's most probable (ties to the lowest ordinal), and
    carries the base graph's self-state edges over."""
    out = []
    self_edges = set()
    kept = {}
    for e in decoded["edges"]:
        triple = (e["head"], e["relation"], e["tail"])
        if e["relation"] == "SelfState":
            self_edges.add(triple)
        else:
            kept.setdefault(ref.group_of(*triple), []).append(triple)
    groups = {ref.group_of(c.head, c.relation.value, c.tail) for c in candidates}
    for key in sorted(groups | set(kept)):
        n = len(kept.get(key, []))
        if n != 1:
            out.append(f"{what}: group {key} keeps {n} edges")
    expected = ref.consistent_argmax(candidates, probs)
    got = {t for triples in kept.values() for t in triples}
    if not out and got != expected:
        out.append(f"{what}: kept {sorted(got - expected)}, argmax is {sorted(expected - got)}")
    base_self = {
        (e.head, e.relation.value, e.tail)
        for e in base.edges
        if e.relation.value == "SelfState"
    }
    if self_edges != base_self:
        out.append(f"{what}: self-state edges {sorted(self_edges)} != base {sorted(base_self)}")
    return out


def shares_sum(report: dict, episodes: int, what: str) -> list:
    """Each profile's outcome shares sum to 100 over ``episodes`` episodes."""
    out = []
    if report["episodes_per_profile"] != episodes:
        out.append(f"{what}: {report['episodes_per_profile']} episodes, corpus has {episodes}")
    for name, row in report["profiles"].items():
        total = sum(row.values())
        if not abs(total - 100.0) <= 1e-9:
            out.append(f"{what}: {name} shares sum to {total!r}")
    return out


def shares_from_outcomes(report: dict, outcomes_by_profile: dict, what: str) -> list:
    """The reported shares are 100 * count / episodes of the episodes run."""
    out = []
    for name, outcomes in outcomes_by_profile.items():
        row = report["profiles"].get(name, {})
        for outcome, share in row.items():
            expected = 100.0 * sum(1 for o in outcomes if o == outcome) / len(outcomes)
            if not abs(share - expected) <= 1e-9:
                out.append(f"{what}: {name} {outcome} {share!r}, episodes give {expected!r}")
    return out


def corner_harder(regular: dict, corner: dict) -> list:
    """Fidelity of the corner realization, and every profile meeting more
    collisions plus near misses in the corner run than in the regular run."""
    out = []
    fid = corner["fidelity"]
    if fid["prescribed"] == 0 or fid["matched"] / fid["prescribed"] < MIN_FIDELITY:
        out.append(f"corner fidelity {fid['matched']}/{fid['prescribed']} below {MIN_FIDELITY}")
    for name, row in corner["profiles"].items():
        hard = row["Collision"] + row["NearMiss"]
        base = regular["profiles"][name]["Collision"] + regular["profiles"][name]["NearMiss"]
        if not hard > base:
            out.append(f"{name}: corner Collision+NearMiss {hard:.2f} <= regular {base:.2f}")
    return out


def outcomes_match(episodes: list, what: str) -> list:
    """Each episode: dict with ``reported`` (outcome name), ``trace``,
    ``categories``, ``start_speed`` and ``gated``; the outcome re-derived from
    the trace with the reference geometry must equal the reported one."""
    out = []
    for i, ep in enumerate(episodes):
        derived = ref.outcome_from_trace(
            ep["trace"], ep["categories"], ep["start_speed"], ep["gated"]
        )
        if derived != ep["reported"]:
            out.append(f"{what}: episode {i} reported {ep['reported']}, trace gives {derived}")
    return out


def gradients_match(
    P: dict, graph, tape_grads: dict, candidates: dict, what: str, unchecked: set
) -> list:
    """Tape gradients against central differences of the reference loss, at
    the first GRAD_ENTRIES of each tensor's candidate flat indices that have
    a difference crossing no kink.  A tensor with no such entry (a rectifier
    input sits at its kink) goes into ``unchecked``.  P is modified in place
    and restored."""
    out = []
    if set(tape_grads) != set(P):
        out.append(f"{what}: gradients for {sorted(tape_grads)}, parameters {sorted(P)}")
    loss = ref.bce(ref.dense_forward(P, graph), graph.labels)
    for name, index in candidates.items():
        compared = 0
        for i in index:
            tape = float(tape_grads[name].flat[i])
            diffs = {}
            for step in FD_STEPS:
                diff = ref.central_difference(P, graph, name, int(i), step)
                if diff is not None:
                    diffs[step] = diff
            if not diffs:
                continue
            if not any(
                abs(tape - diff) <= GRAD_RTOL * abs(diff) + FD_ROUNDING * max(1.0, loss) / step
                for step, diff in diffs.items()
            ):
                out.append(f"{what}: {name}[{i}] tape {tape!r}, central differences {diffs}")
            compared += 1
            if compared == GRAD_ENTRIES:
                break
        if not compared:
            unchecked.add(name)
    return out


def param_count(checkpoint: dict) -> list:
    n = sum(math.prod(raw["shape"]) for raw in checkpoint["tensors"].values())
    if n != REFERENCE_PARAM_COUNT:
        return [f"checkpoint holds {n} parameters, expected {REFERENCE_PARAM_COUNT}"]
    return []


def train_log(rows: list, epochs: int) -> list:
    """One finite row per epoch, numbered 0..epochs-1."""
    out = []
    if [int(r["epoch"]) for r in rows] != list(range(epochs)):
        out.append(f"log epochs {[r['epoch'] for r in rows]}, expected 0..{epochs - 1}")
    for r in rows:
        for key in ("train_loss", "val_loss"):
            if not math.isfinite(float(r[key])):
                out.append(f"log epoch {r['epoch']}: {key} {r[key]!r}")
    return out
