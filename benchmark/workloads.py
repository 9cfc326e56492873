"""The workloads: set-up, timed rounds, and output checks.

Every workload runs the same round of ``cornergraph`` subcommands through
``cornergraph.cli.main``, in this process:

1. ``train`` on the train corpus for a fixed number of epochs;
2. ``eval --subset all`` and 3. ``perturb --mode argmax`` on a score
   corpus, with the checkpoint trained in set-up;
4. ``simulate`` on a simulate corpus, all four profiles, once regular and
   once corner (``--predicted`` holds each scenario's ground-truth terminal
   graph).

The score and simulate scenarios come in ``chunks`` corpora, and round k
uses chunk k mod ``chunks``: every stage call stays short, so a run holds
many samples of each timing, while a run still covers every chunk.  The
workloads differ in the corpus sizes, so each one puts most of its time
into one layer (see ``SIZES``).  Every workload reports every end-to-end
metric; the ones its name does not stress come from the small stages.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import time

import numpy as np

import checks
import reference as ref
from spans import Tracer, layer_metrics, replace, restore

from cornergraph import cli, model, scenarios, sim, training
from cornergraph.autodiff import Tape
from cornergraph.graphs import graph_to_json

#: per workload: scenarios in the train corpus and its epochs, scenarios in
#: each score and simulate chunk, and the number of chunks
SIZES = {
    "train": {"train": 90, "epochs": 2, "score": 48, "simulate": 48, "chunks": 4},
    "score": {"train": 60, "epochs": 1, "score": 150, "simulate": 60, "chunks": 4},
}
#: how often each stage runs in one round
REPEATS = {"train": 1, "eval": 1, "perturb": 2, "simulate": 1}
#: the set-up checkpoint: scenarios and epochs
CHECKPOINT_SIZE = (24, 1)
#: gen-data seeds: corpus k of workload seed N has seed CORPUS_SEEDS * N + k
CORPUS_SEEDS = 16
SETUP_REPEATS = 3
#: rounds per run at the least; never fewer than one per chunk either
MIN_ROUNDS = 4
#: the train subcommand's default scenario split
SPLIT = (0.7, 0.2, 0.1)
PROFILES = ("Basic", "Normal", "Cautious", "Aggressive")
GRAD_INSTANCES = 3
GRAD_MAX_INSTANCES = 12
#: candidate entries per tensor, after its largest-gradient entry
GRAD_CANDIDATES = 5
OUTCOME_SAMPLES = 12
MAX_MESSAGES = 20


def _scenario_count(path) -> tuple:
    """(scenarios, instances) of a corpus file: one instance per regular
    frame."""
    with open(path) as fh:
        obj = json.load(fh)
    return len(obj["scenarios"]), sum(len(s["frames"]) - 1 for s in obj["scenarios"])


def _dense_probs(P, instances) -> tuple:
    graphs = [ref.DenseGraph(ext.base, ext.candidates) for ext in instances]
    probs = [ref.dense_forward(P, g) for g in graphs]
    return graphs, probs


class Capture:
    """Keeps the inputs the checks need from inside the CLI calls: the time
    spent in the call into ``training.train``, the scores handed to
    ``metrics.sweep``, the instances handed to ``decode_prediction``, and the
    episodes of ``sim.simulate_batch``.  Only the current round's are kept,
    so that the program's peak memory is not inflated."""

    def __init__(self):
        self.train_s = None
        self.sweep = None
        self.decoded = []
        self.batches = []
        self._undo = []

    def install(self) -> None:
        def timed_train(fn):
            def train(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                self.train_s = time.perf_counter() - t0
                return out

            return train

        def keep_sweep(fn):
            def sweep(probs, labels, *args, **kwargs):
                self.sweep = (np.asarray(probs), np.asarray(labels))
                return fn(probs, labels, *args, **kwargs)

            return sweep

        def keep_decode(fn):
            def decode_prediction(ext, *args, **kwargs):
                self.decoded.append(ext)
                return fn(ext, *args, **kwargs)

            return decode_prediction

        def keep_batch(fn):
            def simulate_batch(executables, profiles=None, *args, **kwargs):
                out = fn(executables, profiles, *args, **kwargs)
                self.batches.append((list(executables), list(profiles), out))
                return out

            return simulate_batch

        for module, attr, make in (
            ("cornergraph.cli", "train", timed_train),
            ("cornergraph.metrics", "sweep", keep_sweep),
            ("cornergraph.extended", "decode_prediction", keep_decode),
            ("cornergraph.sim", "simulate_batch", keep_batch),
        ):
            if not replace(module, attr, make, self._undo):
                raise RuntimeError(f"cannot observe {module}.{attr}")

    def uninstall(self) -> None:
        restore(self._undo)


class Run:
    def __init__(self, workload: str, seed: int, out_dir: str, sizes: dict | None = None):
        self.workload = workload
        self.seed = seed
        self.dir = out_dir
        self.sizes = sizes or SIZES[workload]
        self.chunks = range(self.sizes["chunks"])
        self.errors = []
        self.capture = Capture()
        self.tracer = None
        self.rounds_done = 0
        #: per chunk, what the capture kept from its latest stage calls
        self.kept = {"sweep": {}, "decoded": {}, "batches": {}}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def cli(self, *argv) -> tuple:
        """(succeeded, wall seconds) of one subcommand."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(a) for a in argv])
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if code != 0:
            self.errors.append(f"{argv[0]} failed ({code}): {err.getvalue().strip()[:300]}")
        return code == 0, seconds

    # --- set-up ------------------------------------------------------------

    def setup_once(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        s = self.sizes
        n_ckpt, ckpt_epochs = CHECKPOINT_SIZE
        # one corpus seed per corpus, all derived from the workload seed
        corpora = (
            [("train", s["train"]), ("checkpoint", n_ckpt)]
            + [(f"score-{c}", s["score"]) for c in self.chunks]
            + [(f"simulate-{c}", s["simulate"]) for c in self.chunks]
        )
        for k, (name, count) in enumerate(corpora):
            self.cli(
                "gen-data", "--count", count, "--seed", CORPUS_SEEDS * self.seed + k,
                "--out", self.path(f"{name}.json"),
            )
        # early stopping out of reach: every run makes the same steps
        for name, epochs in (("train", s["epochs"]), ("checkpoint", ckpt_epochs)):
            with open(self.path(f"{name}.cfg"), "w") as fh:
                fh.write(f"epochs={epochs}\nearly_stop_patience={epochs + 1}\n")
        self.cli(
            "train", "--config", self.path("checkpoint.cfg"), "--seed", self.seed,
            "--data", self.path("checkpoint.json"), "--out", self.path("setup_model.json"),
        )
        for c in self.chunks:
            corpus, _ = scenarios.read_corpus(self.path(f"simulate-{c}.json"))
            with open(self.path(f"predicted-{c}.jsonl"), "w") as fh:
                for scenario in corpus:
                    graph = graph_to_json(scenarios.ground_truth_graph(scenario))
                    fh.write(json.dumps({"scenario_id": scenario.id, "graph": graph}) + "\n")

    def setup(self) -> float:
        """Set up SETUP_REPEATS times; the median wall time."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - t0)
        self.n_score, self.n_score_instances = zip(
            *(_scenario_count(self.path(f"score-{c}.json")) for c in self.chunks)
        )
        self.n_sim = [_scenario_count(self.path(f"simulate-{c}.json"))[0] for c in self.chunks]
        with open(self.path("train.json")) as fh:
            raw = json.load(fh)["scenarios"]
        self.split = ref.scenario_split([s["id"] for s in raw], SPLIT, self.seed)
        train_ids = set(self.split["train"])
        n_train = sum(len(s["frames"]) - 1 for s in raw if s["id"] in train_ids)
        self.steps = self.sizes["epochs"] * n_train
        return statistics.median(times)

    # --- one round ---------------------------------------------------------

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def round(self) -> tuple:
        """(samples, attempted, failed) of one round, on chunk ``rounds_done``
        mod ``chunks``: ``samples`` maps each timing metric to its
        ``(chunk, operations, seconds)``, one per stage call.  The latest
        calls on each chunk leave the outputs the checks read."""
        cap = self.capture
        c = self.rounds_done % len(self.chunks)
        self.rounds_done += 1
        samples = {}
        failed = attempted = 0

        def stage(argv, metric, ops):
            nonlocal failed, attempted
            attempted += ops
            ok, seconds = self.cli(*argv)
            if not ok:
                failed += ops
            elif metric:
                samples.setdefault(metric, []).append((c, ops, seconds))
            return ok, seconds

        for _ in range(REPEATS["train"]):
            ok, seconds = stage((
                "train", "--config", self.path("train.cfg"), "--seed", self.seed,
                "--data", self.path("train.json"), "--out", self.path("model.json"),
                "--log", self.path("train_log.csv"),
            ), None, self.steps)
            if ok:
                samples.setdefault("train_s", []).append((0, 1, seconds))
                samples.setdefault("train_steps_per_s", []).append((0, self.steps, cap.train_s))
        for _ in range(REPEATS["eval"]):
            cap.sweep = None
            stage((
                "eval", "--data", self.path(f"score-{c}.json"),
                "--model", self.path("setup_model.json"),
                "--subset", "all", "--out", self.path(f"eval_all-{c}.json"),
            ), "eval_instances_per_s", self.n_score_instances[c])
        self.kept["sweep"][c] = cap.sweep
        for _ in range(REPEATS["perturb"]):
            cap.decoded = []
            stage((
                "perturb", "--data", self.path(f"score-{c}.json"),
                "--model", self.path("setup_model.json"),
                "--mode", "argmax", "--out", self.path(f"perturb-{c}.jsonl"),
            ), "perturb_scenarios_per_s", self.n_score[c])
        self.kept["decoded"][c] = cap.decoded
        episodes = len(PROFILES) * self.n_sim[c]
        for _ in range(REPEATS["simulate"]):
            cap.batches = []
            for half, extra in (
                ("regular", ()), ("corner", ("--predicted", self.path(f"predicted-{c}.jsonl")))
            ):
                self._phase(half)
                stage((
                    "simulate", "--data", self.path(f"simulate-{c}.json"),
                    "--out", self.path(f"{half}-{c}.json"), *extra,
                ), f"{half}_episodes_per_s", episodes)
                self._phase("")
        self.kept["batches"][c] = cap.batches
        return samples, attempted, failed

    # --- checks ------------------------------------------------------------

    def check(self) -> tuple:
        """(failure messages, {"test_auc", "test_accuracy"})."""
        fails = self._check_score() + self._check_simulate() + self._check_train()
        # runs eval once more, so it comes after the checks on the round's scores
        quality, more = self._check_test_eval()
        return fails + more, quality

    def instances(self, corpus: str) -> list:
        scenario_list, _ = scenarios.read_corpus(self.path(f"{corpus}.json"))
        return scenarios.corpus_instances(scenario_list)

    def _check_train(self) -> list:
        with open(self.path("model.json")) as fh:
            ckpt = json.load(fh)
        fails = checks.param_count(ckpt)
        with open(self.path("train_log.csv")) as fh:
            rows = list(csv.DictReader(fh))
        fails += checks.train_log(rows, self.sizes["epochs"])
        train_ids = set(self.split["train"])
        self.train_instances = self.instances("train")
        train_insts = [e for e in self.train_instances if e.scenario_id in train_ids]
        untrained = model.checkpoint_to_json(
            model.ModelParams.initialize(model.ModelDims(), seed=self.seed)
        )
        graphs, probs = _dense_probs(ref.params_from_checkpoint(untrained), train_insts)
        untrained_loss = float(np.mean([ref.bce(p, g.labels) for g, p in zip(graphs, probs)]))
        final = float(rows[-1]["train_loss"]) if rows else math.inf
        if not final < untrained_loss:
            fails.append(f"final train loss {final} not below untrained {untrained_loss}")
        fails += self.gradient_check(ckpt, train_insts)
        return fails

    def gradient_evidence(self, ckpt: dict, instances):
        """(graph, tape gradients, candidate entries) at seeded instances, one
        instance at a time: per tensor its largest-gradient entry, then seeded
        random ones."""
        rng = np.random.default_rng(self.seed)
        params = model.checkpoint_from_json(ckpt)
        P = ref.params_from_checkpoint(ckpt)
        for i in rng.permutation(len(instances))[:GRAD_MAX_INSTANCES]:
            ext = instances[int(i)]
            params.zero_grad()
            with Tape() as tape:
                probs = model.forward(params, ext)
                loss = training.bce_loss(probs, np.asarray(ext.labels(), dtype=np.float64))
                tape.backward(loss)
            grads = {name: t.grad.copy() for name, t in params.items()}
            entries = {
                name: [int(np.argmax(np.abs(grads[name])))]
                + [int(k) for k in rng.choice(a.size, min(GRAD_CANDIDATES, a.size), replace=False)]
                for name, a in P.items()
            }
            yield ref.DenseGraph(ext.base, ext.candidates), grads, entries

    def gradient_check(self, ckpt: dict, instances) -> list:
        """Every tensor is compared on the first GRAD_INSTANCES instances; a
        tensor with no entry free of kinks there is compared on further
        instances, up to GRAD_MAX_INSTANCES."""
        P = ref.params_from_checkpoint(ckpt)
        fails = []
        pending = set(P)
        for k, (graph, grads, entries) in enumerate(self.gradient_evidence(ckpt, instances)):
            if k >= GRAD_INSTANCES:
                if not pending:
                    break
                entries = {name: entries[name] for name in pending}
            skipped = set()
            fails += checks.gradients_match(P, graph, grads, entries, f"gradient instance {k}", skipped)
            pending &= skipped
        for name in sorted(pending):
            fails.append(f"gradient of {name}: every sampled entry crosses a kink on {k + 1} instances")
        return fails

    def _check_test_eval(self) -> tuple:
        """``eval --subset test`` on the trained checkpoint, outside the timed
        rounds: the test AUC and Youden accuracy."""
        self.capture.sweep = None
        ok, _ = self.cli(
            "eval", "--data", self.path("train.json"), "--model", self.path("model.json"),
            "--subset", "test", "--out", self.path("eval_test.json"),
        )
        if not ok or self.capture.sweep is None:
            return {}, ["eval --subset test did not run"]
        with open(self.path("eval_test.json")) as fh:
            report = json.load(fh)
        with open(self.path("model.json")) as fh:
            P = ref.params_from_checkpoint(json.load(fh))
        test_ids = set(self.split["test"])
        test_insts = [e for e in self.train_instances if e.scenario_id in test_ids]
        _, dense = _dense_probs(P, test_insts)
        probs, labels = self.capture.sweep
        fails = checks.probs_match(probs, np.concatenate(dense), "eval --subset test")
        fails += checks.rank_stats_match(report, probs, labels, "eval --subset test")
        return {"test_auc": report["auc"], "test_accuracy": report["accuracy"]}, fails

    def _check_score(self) -> list:
        with open(self.path("setup_model.json")) as fh:
            P = ref.params_from_checkpoint(json.load(fh))
        fails = []
        for c in self.chunks:
            fails += self._check_score_chunk(P, c)
        return fails

    def _check_score_chunk(self, P: dict, c: int) -> list:
        what = f"eval --subset all, chunk {c}"
        with open(self.path(f"eval_all-{c}.json")) as fh:
            report = json.load(fh)
        if self.kept["sweep"].get(c) is None:
            return [f"{what} passed no scores to the sweep"]
        graphs, dense = _dense_probs(P, self.instances(f"score-{c}"))
        probs, labels = self.kept["sweep"][c]
        fails = checks.probs_match(probs, np.concatenate(dense), what)
        if not np.array_equal(labels, np.concatenate([g.labels for g in graphs])):
            fails.append(f"{what}: labels differ from the instances'")
        if report["n_instances"] != self.n_score_instances[c]:
            fails.append(f"{what} scored {report['n_instances']} of {self.n_score_instances[c]} instances")
        fails += checks.rank_stats_match(report, probs, labels, what)

        with open(self.path(f"perturb-{c}.jsonl")) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        decoded = self.kept["decoded"][c]
        if len(lines) != self.n_score[c] or len(decoded) != self.n_score[c]:
            return fails + [f"perturb decoded {len(lines)} of {self.n_score[c]} scenarios of chunk {c}"]
        for record, ext in zip(lines, decoded):
            what = f"perturb {record['scenario_id']}, chunk {c}"
            if record["scenario_id"] != ext.scenario_id:
                fails.append(f"{what}: decoded instance is {ext.scenario_id}")
                continue
            program = [cand.predicted_prob for cand in ext.candidates]
            dense = ref.dense_forward(P, ref.DenseGraph(ext.base, ext.candidates))
            fails += checks.probs_match(program, dense, what)
            fails += checks.decoded_consistent(
                record["graph"], ext.base, ext.candidates, program, what
            )
        return fails

    def outcome_evidence(self, c: int, half: int) -> list:
        """A seeded sample of the episodes of chunk ``c``, re-run with
        ``record=True``."""
        executables, profiles, results = self.kept["batches"][c][half]
        rng = np.random.default_rng([self.seed, c, half])
        pairs = [(i, p) for i in range(len(executables)) for p in profiles]
        picked = rng.choice(len(pairs), min(OUTCOME_SAMPLES, len(pairs)), replace=False)
        out = []
        for k in sorted(picked):
            i, profile = pairs[int(k)]
            scn = executables[i]
            rerun = sim.run_episode(scn, profile, dt=sim.SIM_STEP, horizon=sim.HORIZON, record=True)
            ego_x, ego_y = scn.ego_start
            gated = scn.ego_from_rest and any(
                math.hypot(p.waypoints[0][1] - ego_x, p.waypoints[0][2] - ego_y)
                < profile.hazard_range
                for p in scn.plans
            )
            out.append({
                "reported": results[profile.name][i].outcome.value,
                "trace": rerun.trace,
                "categories": [p.category.value for p in scn.plans],
                "start_speed": 0.0 if scn.ego_from_rest else scn.ego_target_speed,
                "gated": gated,
            })
        return out

    def _check_simulate(self) -> list:
        """Per chunk: shares, episode counts and sampled outcomes.  Over all
        chunks (of equal size): corner fidelity, and corner episodes harder
        than regular ones."""
        fails = []
        merged = {}
        for c in self.chunks:
            batches = self.kept["batches"].get(c, [])
            if len(batches) != 2:
                fails.append(f"simulate ran {len(batches)} batches on chunk {c}, expected 2")
                continue
            for half, name in enumerate(("regular", "corner")):
                with open(self.path(f"{name}-{c}.json")) as fh:
                    report = json.load(fh)
                what = f"{name}, chunk {c}"
                fails += checks.shares_sum(report, self.n_sim[c], what)
                _, profiles, results = batches[half]
                outcomes = {p.name: [r.outcome.value for r in results[p.name]] for p in profiles}
                fails += checks.shares_from_outcomes(report, outcomes, what)
                fails += checks.outcomes_match(self.outcome_evidence(c, half), what)
                merged.setdefault(name, []).append(report)
        if not fails:
            fails += checks.corner_harder(_merge(merged["regular"]), _merge(merged["corner"]))
        return fails


def _merge(reports: list) -> dict:
    """One ``simulate`` report over equally large corpora: summed fidelity,
    mean outcome shares."""
    return {
        "fidelity": {
            key: sum(r["fidelity"][key] for r in reports) for key in ("matched", "prescribed")
        },
        "profiles": {
            name: {
                outcome: statistics.fmean(r["profiles"][name][outcome] for r in reports)
                for outcome in row
            }
            for name, row in reports[0]["profiles"].items()
        },
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    run = Run(workload, seed, out_dir)
    setup_s = run.setup()
    if run.errors:
        raise RuntimeError("set-up failed: " + "; ".join(run.errors))
    run.capture.install()
    if trace:
        run.tracer = Tracer()
        run.tracer.install()
    rounds = []
    attempted = failed = 0
    t_start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            samples, n, bad = run.round()
            rounds.append((samples, time.perf_counter() - t0))
            attempted += n
            failed += bad
            elapsed = time.perf_counter() - t_start
            # stop where the next round would end past the run on average
            if (
                len(rounds) >= max(MIN_ROUNDS, len(run.chunks))
                and elapsed + elapsed / len(rounds) / 2 >= seconds
            ):
                break
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for message in run.errors[:MAX_MESSAGES]:
        print(f"operation failed: {message}")
    fails, quality = run.check()
    run.capture.uninstall()

    round_s = statistics.median(t for _, t in rounds)
    if trace:
        metrics = layer_metrics(run.tracer, len(rounds))
        run.tracer.write(out_dir)
        with open(os.path.join(out_dir, "layers.json"), "w") as fh:
            json.dump({
                "rounds": len(rounds),
                "round_s_median": round_s,
                "spans": {
                    name: {"total_s": t, "self_s": s, "calls": c}
                    for name, (t, s, c) in sorted(run.tracer.totals().items())
                },
                "metrics": metrics,
            }, fh, indent=1, sort_keys=True)
    else:
        def rate(key):
            """Operations per second over every chunk, each chunk at the
            median time of its calls: a burst of a faster or slower machine
            moves a median by at most a sample, and chunks that cost more or
            less than others count once each, however often they ran."""
            by_chunk = {}
            for r, _ in rounds:
                for c, ops, seconds in r.get(key, ()):
                    by_chunk.setdefault(c, (ops, []))[1].append(seconds)
            if not by_chunk:
                return 0.0
            return sum(ops for ops, _ in by_chunk.values()) / sum(
                statistics.median(times) for _, times in by_chunk.values()
            )

        def median_s(key):
            values = [seconds for r, _ in rounds for _, _, seconds in r.get(key, ())]
            return statistics.median(values) if values else 0.0

        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "train_s": {"value": median_s("train_s"), "unit": "s"},
            "train_steps_per_s": {"value": rate("train_steps_per_s"), "unit": "steps/s"},
            "test_auc": {"value": quality.get("test_auc", 0.0), "unit": "ratio"},
            "test_accuracy": {"value": quality.get("test_accuracy", 0.0), "unit": "ratio"},
            "eval_instances_per_s": {"value": rate("eval_instances_per_s"), "unit": "instances/s"},
            "perturb_scenarios_per_s": {"value": rate("perturb_scenarios_per_s"), "unit": "scenarios/s"},
            "regular_episodes_per_s": {"value": rate("regular_episodes_per_s"), "unit": "episodes/s"},
            "corner_episodes_per_s": {"value": rate("corner_episodes_per_s"), "unit": "episodes/s"},
        }
        with open(os.path.join(out_dir, "result.json"), "w") as fh:
            json.dump({
                "rounds": [r for r, _ in rounds],
                "round_s": [t for _, t in rounds],
                "setup_s": setup_s,
                "failures": fails,
            }, fh, indent=1, sort_keys=True)
    for message in fails[:MAX_MESSAGES]:
        print(f"check failed: {message}")
    return {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
