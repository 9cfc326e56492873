#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks.

    python3 benchmark/selftest.py

Runs one small round of the workload stages (12-scenario corpora), confirms
that every check passes on the real outputs, then corrupts one output at a
time and confirms that the matching check rejects it:

* a probability moved by 1e-6;
* a decoded group that keeps two edges;
* one episode outcome flipped;
* outcome shares that do not sum to 100;
* a gradient scaled by 1.01 (each parameter tensor in turn).

Exits 0 when every corruption is caught, 1 otherwise.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy
import json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
from workloads import Run  # noqa: E402

SIZES = {"train": 12, "epochs": 1, "score": 12, "simulate": 12, "chunks": 1}
OUTCOMES = ("Collision", "NearMiss", "UnsafeManeuver", "NoCollision")


def main() -> int:
    run = Run("selftest", 3, os.path.join(ROOT, ".bench_out", "selftest"), SIZES)
    run.setup()
    run.capture.install()
    run.round()
    fails, _ = run.check()
    if run.errors or fails:
        print("real outputs fail the checks:", *(run.errors + fails), sep="\n  ")
        return 1
    results = []

    def expect_pass(label, messages):
        results.append((f"real {label} accepted", not messages))
        if messages:
            print(f"REJECTED real output: {label}: {messages[:1]}")

    def expect_reject(label, messages):
        results.append((label, bool(messages)))
        print(f"{'caught' if messages else 'MISSED'}: {label}: {messages[:1]}")

    # a probability moved by 1e-6
    with open(run.path("setup_model.json")) as fh:
        P = ref.params_from_checkpoint(json.load(fh))
    ext = run.kept["decoded"][0][0]
    program = np.array([c.predicted_prob for c in ext.candidates])
    dense = ref.dense_forward(P, ref.DenseGraph(ext.base, ext.candidates))
    expect_pass("probabilities", checks.probs_match(program, dense, "real"))
    moved = program.copy()
    moved[len(moved) // 2] += 1e-6
    expect_reject("probability moved by 1e-6", checks.probs_match(moved, dense, "moved"))

    # a decoded group that keeps two edges
    with open(run.path("perturb-0.jsonl")) as fh:
        record = json.loads(fh.readline())
    graph = record["graph"]
    expect_pass(
        "decoded graph", checks.decoded_consistent(graph, ext.base, ext.candidates, program, "real")
    )
    kept = {(e["head"], e["relation"], e["tail"]) for e in graph["edges"]}
    extra = next(
        c for c in ext.candidates
        if c.relation.value in ("SafeDistance", "UnsafeDistance")
        and (c.head, c.relation.value, c.tail) not in kept
    )
    doubled = copy.deepcopy(graph)
    doubled["edges"].append({"head": extra.head, "relation": extra.relation.value, "tail": extra.tail})
    expect_reject(
        "decoded group keeps two edges",
        checks.decoded_consistent(doubled, ext.base, ext.candidates, program, "doubled"),
    )

    # one episode outcome flipped
    episodes = run.outcome_evidence(0, 1)
    expect_pass("episode outcomes", checks.outcomes_match(episodes, "real"))
    flipped = copy.deepcopy(episodes)
    now = flipped[0]["reported"]
    flipped[0]["reported"] = OUTCOMES[(OUTCOMES.index(now) + 1) % len(OUTCOMES)]
    expect_reject("episode outcome flipped", checks.outcomes_match(flipped, "flipped"))

    # outcome shares that do not sum to 100
    with open(run.path("corner-0.json")) as fh:
        report = json.load(fh)
    expect_pass("outcome shares", checks.shares_sum(report, SIZES["simulate"], "real"))
    skewed = copy.deepcopy(report)
    row = next(iter(skewed["profiles"].values()))
    row["NoCollision"] += 0.5
    expect_reject("shares do not sum to 100", checks.shares_sum(skewed, SIZES["simulate"], "skewed"))

    # a gradient scaled by 1.01, each tensor in turn
    with open(run.path("model.json")) as fh:
        ckpt = json.load(fh)
    P = ref.params_from_checkpoint(ckpt)
    train_ids = set(run.split["train"])
    instances = [e for e in run.train_instances if e.scenario_id in train_ids]
    graph, grads, entries = next(run.gradient_evidence(ckpt, instances))
    unchecked = set()
    expect_pass("gradients", checks.gradients_match(P, graph, grads, entries, "real", unchecked))
    for name in sorted(grads):
        scaled = dict(grads)
        scaled[name] = grads[name] * 1.01
        expect_reject(
            f"gradient of {name} scaled by 1.01",
            checks.gradients_match(P, graph, scaled, {name: entries[name]}, "scaled", unchecked),
        )

    results.append((f"every tensor checked (unchecked: {sorted(unchecked)})", not unchecked))
    run.capture.uninstall()
    missed = [label for label, ok in results if not ok]
    print(f"{len(results) - len(missed)} of {len(results)} expectations met")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
