"""Span tracer for the traced run.

The tracer wraps module-level functions and methods of ``cornergraph`` from
outside the package: each wrapped call opens a span (name, start, end,
parent span), kept in memory in flat integer columns and written out when
the run ends.  Functions imported by name into other ``cornergraph`` modules
are replaced there too, so a call through ``cli``'s own binding is seen.  A
target that no longer exists is skipped: it simply stops reporting.

Per-layer metrics are derived from the spans afterwards: totals per span
name, call counts, and self time, a span's duration minus the durations of
its child spans (calls are single-threaded and nest strictly, so children
never overlap).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array

import numpy as np

AUTODIFF_OPS = (
    "linear", "elu", "gather_rows", "hstack", "segment_sum", "scale_rows",
    "grouped_softmax", "leaky_relu", "sigmoid", "flatten", "as_row",
)
HALVES = ("regular", "corner")
#: the simulator's defaults, for counting steps and near clearances
SIM_STEP = 0.05
NEAR_MISS_CLEARANCE = 1.5


def replace(module_name: str, attr: str, make_wrapper, undo: list) -> bool:
    """Replace ``module.attr`` (``Class.method`` allowed) by
    ``make_wrapper(original)``; a module-level function is also replaced in
    every ``cornergraph`` module that imported it by name.  Each replaced
    binding is pushed on ``undo`` as (object, name, original).  Returns False,
    changing nothing, when the target does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    original = getattr(owner, leaf, None)
    if original is None:
        return False
    wrapped = make_wrapper(original)
    targets = [(owner, leaf)]
    if not path:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("cornergraph") and mod is not owner:
                targets += [(mod, k) for k, v in list(vars(mod).items()) if v is original]
    for obj, key in targets:
        undo.append((obj, key, original))
        setattr(obj, key, wrapped)
    return True


def restore(undo: list) -> None:
    while undo:
        obj, key, original = undo.pop()
        setattr(obj, key, original)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_col = array("q")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.stack: list = []
        self.counts: dict = {}
        #: suffix for simulator spans: the half of the simulate workload
        self.phase = ""
        self._attend_seen = 0
        self._patched: list = []

    # --- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name_col)
        self.name_col.append(self._name_id(name))
        self.parent_col.append(self.stack[-1] if self.stack else -1)
        self.end_col.append(0)
        self.stack.append(idx)
        self.start_col.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end_col[idx] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name_col[i] == nid for i in self.stack)

    def innermost(self) -> str:
        return self.names[self.name_col[self.stack[-1]]] if self.stack else ""

    def wrap(self, fn, name, after=None):
        """``name`` is a string or a callable of the call's positional
        arguments; ``after(result, args, kwargs)`` sees each return value."""
        tracer = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installation ------------------------------------------------------

    def patch(self, module_name: str, attr: str, name, after=None) -> None:
        replace(module_name, attr, lambda fn: self.wrap(fn, name, after), self._patched)

    def patch_autodiff_apply(self) -> None:
        """Count op registrations made inside a forward pass, and time each
        registered backward closure under the name of the op that made it."""
        tracer = self

        def make(original):
            def apply(parents, out_data, backward_fn):
                if tracer.inside("model.forward"):
                    tracer.count("autodiff.apply.in_forward")
                owner = tracer.innermost()
                if owner.endswith(".fwd"):
                    label = owner[: -len(".fwd")] + ".bwd"
                else:
                    label = "autodiff.apply.bwd"

                def timed_backward(g):
                    idx = tracer.open(label)
                    try:
                        return backward_fn(g)
                    finally:
                        tracer.close(idx)

                return original(parents, out_data, timed_backward)

            return apply

        replace("cornergraph.autodiff", "apply", make, self._patched)

    def install(self) -> None:
        """Wrap the functions each layer exposes."""
        p = self.patch
        p("cornergraph.scenarios", "read_corpus", "cli.read_corpus")
        p("cornergraph.cli", "_load_checkpoint_obj", "cli.checkpoint_load")
        p("cornergraph.model", "save_checkpoint", "cli.checkpoint_save")
        p("cornergraph.scenarios", "corpus_instances", "scenarios.corpus_instances")
        p("cornergraph.frames", "build_scene_graph", "frames.build_scene_graph")
        p("cornergraph.extended", "extend", "extended.extend")
        p("cornergraph.extended", "label_candidates", "extended.label_candidates")
        p("cornergraph.extended", "decode_prediction", "extended.decode_prediction")

        def forward_name(args):
            self._attend_seen = 0
            return "model.forward"

        def attend_name(args):
            self._attend_seen += 1
            return "model.gat1" if self._attend_seen == 1 else "model.gat2"

        p("cornergraph.model", "forward", forward_name)
        p("cornergraph.model", "prepare_attention_graph", "model.prepare_attention_graph")
        p("cornergraph.model", "encode", "model.encode")
        p("cornergraph.model", "_mlp", lambda args: f"model.{args[1]}")
        p("cornergraph.model", "attend", attend_name)
        for op in AUTODIFF_OPS:
            p("cornergraph.autodiff", op, f"autodiff.{op}.fwd")
        self.patch_autodiff_apply()

        def records(result, args, kwargs):
            self.count("autodiff.records", len(args[0].records))

        p("cornergraph.autodiff", "Tape.backward", "autodiff.backward", records)
        p("cornergraph.training", "_Adam.step", "training.optimizer_step")
        p("cornergraph.training", "_Sgd.step", "training.optimizer_step")
        p(
            "cornergraph.training",
            "bce_loss",
            lambda args: "training.bce_loss.array"
            if isinstance(args[0], np.ndarray)
            else "training.bce_loss.fwd",
        )
        p("cornergraph.training", "_mean_loss", "training.val_loss")
        p("cornergraph.training", "pooled_predictions", "training.pooled_predictions")
        p("cornergraph.metrics", "sweep", "metrics.sweep")

        def sim_name(base):
            return lambda args: f"{base}.{self.phase}"

        def steps(result, args, kwargs):
            dt = kwargs.get("dt", args[2] if len(args) > 2 else SIM_STEP)
            self.count(f"sim.steps.{self.phase}", int(round(result.t_final / dt)))

        def near(result, args, kwargs):
            if result <= NEAR_MISS_CLEARANCE:
                self.count(f"sim.polygon_clearance.near.{self.phase}")

        p("cornergraph.sim", "realize", sim_name("sim.realize"))
        p("cornergraph.sim", "run_episode", sim_name("sim.run_episode"), steps)
        p("cornergraph.sim", "AdversaryPlan.sample", sim_name("sim.sample"))
        p("cornergraph.sim", "polygon_clearance", sim_name("sim.polygon_clearance"), near)
        p("cornergraph.sim", "box_iou", sim_name("sim.box_iou"))
        p("cornergraph.sim", "box_corners", sim_name("sim.box_corners"))

    def uninstall(self) -> None:
        restore(self._patched)

    # --- results -----------------------------------------------------------

    def totals(self) -> dict:
        """name -> (total seconds, self seconds, calls)."""
        if not self.name_col:
            return {}
        names = np.frombuffer(self.name_col, dtype=np.int64)
        parents = np.frombuffer(self.parent_col, dtype=np.int64)
        dur = (
            np.frombuffer(self.end_col, dtype=np.int64)
            - np.frombuffer(self.start_col, dtype=np.int64)
        ).astype(np.float64) * 1e-9
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        total = np.bincount(names, weights=dur, minlength=len(self.names))
        own = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {
            name: (float(total[i]), float(own[i]), int(calls[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, directory: str) -> None:
        """Spans as ``spans.npz`` (integer columns, times in ns from the
        monotonic clock) plus the name table."""
        os.makedirs(directory, exist_ok=True)
        np.savez(
            os.path.join(directory, "spans.npz"),
            name=np.frombuffer(self.name_col, dtype=np.int64),
            parent=np.frombuffer(self.parent_col, dtype=np.int64),
            start_ns=np.frombuffer(self.start_col, dtype=np.int64),
            end_ns=np.frombuffer(self.end_col, dtype=np.int64),
        )
        with open(os.path.join(directory, "span_names.json"), "w") as fh:
            json.dump(self.names, fh)


def _metric_table() -> list:
    """(metric, unit, how): ``how`` is ("total" | "self" | "calls", span),
    ("count", counter), or ("ratio", numerator, denominator) where a name
    with a ``#`` prefix is a span's call count and otherwise a counter."""
    rows = [
        ("cli.read_corpus_s", "s", ("total", "cli.read_corpus")),
        ("cli.checkpoint_load_s", "s", ("total", "cli.checkpoint_load")),
        ("cli.checkpoint_save_s", "s", ("total", "cli.checkpoint_save")),
        ("scenarios.corpus_instances_s", "s", ("total", "scenarios.corpus_instances")),
        ("frames.build_scene_graph_s", "s", ("total", "frames.build_scene_graph")),
        ("frames.build_scene_graph.calls", "calls", ("calls", "frames.build_scene_graph")),
        ("extended.extend_s", "s", ("total", "extended.extend")),
        ("extended.label_candidates_s", "s", ("total", "extended.label_candidates")),
        ("extended.decode_prediction_s", "s", ("total", "extended.decode_prediction")),
        ("model.forward_s", "s", ("total", "model.forward")),
        (
            "model.prepare_attention_graph.calls_per_forward",
            "calls/forward",
            ("ratio", "#model.prepare_attention_graph", "#model.forward"),
        ),
        ("model.prepare_attention_graph_s", "s", ("total", "model.prepare_attention_graph")),
        ("model.encode_s", "s", ("total", "model.encode")),
    ]
    for block in ("enc_node", "enc_edge", "enc_kg", "gat1", "mid", "gat2", "triple"):
        rows.append((f"model.{block}_s", "s", ("total", f"model.{block}")))
    for op in AUTODIFF_OPS:
        rows.append((f"autodiff.{op}.fwd_s", "s", ("total", f"autodiff.{op}.fwd")))
        rows.append((f"autodiff.{op}.bwd_s", "s", ("total", f"autodiff.{op}.bwd")))
    rows += [
        (
            "autodiff.ops_per_forward",
            "ops/forward",
            ("ratio", "autodiff.apply.in_forward", "#model.forward"),
        ),
        (
            "autodiff.records_per_step",
            "records/step",
            ("ratio", "autodiff.records", "#autodiff.backward"),
        ),
        ("autodiff.backward_s", "s", ("total", "autodiff.backward")),
        ("autodiff.backward.self_s", "s", ("self", "autodiff.backward")),
        ("training.optimizer_step_s", "s", ("total", "training.optimizer_step")),
        ("training.bce_loss.fwd_s", "s", ("total", "training.bce_loss.fwd")),
        ("training.bce_loss.bwd_s", "s", ("total", "training.bce_loss.bwd")),
        ("training.val_loss_s", "s", ("total", "training.val_loss")),
        ("training.pooled_predictions_s", "s", ("total", "training.pooled_predictions")),
        ("metrics.sweep_s", "s", ("total", "metrics.sweep")),
    ]
    for half in HALVES:
        rows += [
            (f"sim.realize_s.{half}", "s", ("total", f"sim.realize.{half}")),
            (f"sim.steps.{half}", "steps", ("count", f"sim.steps.{half}")),
            (f"sim.run_episode_s.{half}", "s", ("total", f"sim.run_episode.{half}")),
            (f"sim.run_episode.self_s.{half}", "s", ("self", f"sim.run_episode.{half}")),
            (f"sim.sample_s.{half}", "s", ("total", f"sim.sample.{half}")),
            (f"sim.sample.calls.{half}", "calls", ("calls", f"sim.sample.{half}")),
            (f"sim.polygon_clearance_s.{half}", "s", ("total", f"sim.polygon_clearance.{half}")),
            (
                f"sim.polygon_clearance.calls.{half}",
                "calls",
                ("calls", f"sim.polygon_clearance.{half}"),
            ),
            (
                f"sim.polygon_clearance.near_share.{half}",
                "share",
                ("ratio", f"sim.polygon_clearance.near.{half}", f"#sim.polygon_clearance.{half}"),
            ),
            (f"sim.box_iou_s.{half}", "s", ("total", f"sim.box_iou.{half}")),
            (f"sim.box_iou.calls.{half}", "calls", ("calls", f"sim.box_iou.{half}")),
            (f"sim.box_corners_s.{half}", "s", ("total", f"sim.box_corners.{half}")),
        ]
    return rows


METRICS = _metric_table()


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics per round of the workload; a layer the workload does
    not reach reads 0, and so does a ratio with nothing to divide by."""
    totals = tracer.totals()

    def amount(key):
        if key.startswith("#"):
            return totals.get(key[1:], (0.0, 0.0, 0))[2]
        return tracer.counts.get(key, 0)

    out = {}
    for name, unit, how in METRICS:
        kind = how[0]
        if kind == "ratio":
            den = amount(how[2])
            value = amount(how[1]) / den if den else 0.0
        elif kind == "count":
            value = amount(how[1]) / rounds
        else:
            total, own, calls = totals.get(how[1], (0.0, 0.0, 0))
            value = {"total": total, "self": own, "calls": calls}[kind] / rounds
        out[name] = {"value": value, "unit": unit}
    return out
