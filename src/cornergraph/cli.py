"""Command line front end.

Subcommands cover the full pipeline: ``gen-data`` writes a scenario corpus,
``train`` fits a checkpoint, ``eval`` scores it on held-out scenarios,
``perturb`` decodes predicted conflict graphs, ``simulate`` realizes and
rolls out episodes, and ``report`` merges evaluation and simulation output
into one summary.

Configuration comes from an optional ``key=value`` file (one pair per line,
``#`` comments allowed) with flags taking precedence.  Every JSON output
embeds ``provenance`` (sha256 of the resolved configuration plus the
governing seed); CSV outputs get a sibling ``<name>.meta.json``.  Outputs
contain no timestamps and keys are sorted, so reruns are byte-identical.

Errors are reported as one JSON object on stderr.  Exit codes: 2 for a
malformed configuration or a config key the subcommand does not read, 3
for an input of another schema version, one that does not decode or a
frame that describes no scene, 4 for a missing input file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import sys

from . import metrics, scenarios, sim
from .extended import (
    ConsistentArgmax,
    NodeMismatch,
    Threshold,
    attach_predictions,
    decode_prediction,
    extend,
)
from .graphs import (
    SchemaError,
    decoder,
    graph_from_json,
    graph_to_json,
    json_int,
    open_output,
    read_json,
    read_json_lines,
    validate_grammar,
    write_json,
)
from .model import (
    ModelDims,
    SchemaVersionMismatch,
    checkpoint_from_json,
    predict_each,
    save_checkpoint,
)
from .training import TrainConfig, scenario_split, pooled_predictions, train

CONFIG_SCHEMA_VERSION = "1"


class CliError(Exception):
    kind = "error"
    exit_code = 1


class ConfigParseError(CliError):
    kind = "config_parse"
    exit_code = 2


class SchemaVersionError(CliError):
    kind = "schema_version_mismatch"
    exit_code = 3


class MissingInputError(CliError):
    kind = "missing_input"
    exit_code = 4


@decoder("config file {}", ConfigParseError)
def parse_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise MissingInputError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigParseError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise ConfigParseError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ConfigParseError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    version = out.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"config schema_version {version!r}, expected {CONFIG_SCHEMA_VERSION}"
        )
    return out


@decoder("config key {1!r}", ConfigParseError)
def _as_int(cfg: dict, key: str) -> int:
    return int(cfg[key])


@decoder("config key {1!r}", ConfigParseError)
def _as_float(cfg: dict, key: str) -> float:
    return float(cfg[key])


def resolve_config(args) -> dict:
    """The subcommand's defaults <- config file <- explicit flags, all as
    strings.  A flag overrides the config key of its own name; a key of the
    file that is not one of the defaults is an error."""
    cfg = dict(args.defaults)
    cfg["schema_version"] = CONFIG_SCHEMA_VERSION
    if args.config:
        from_file = parse_config_file(args.config)
        unknown = sorted(set(from_file) - set(cfg))
        if unknown:
            raise ConfigParseError(
                f"{args.config}: {args.command} reads no config key(s) {unknown}"
            )
        cfg.update(from_file)
    for key in args.defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = str(value)
    return cfg


def config_sha256(cfg: dict) -> str:
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()


def provenance(cfg: dict, seed) -> dict:
    return {"config_sha256": config_sha256(cfg), "seed": seed}


def _require(path, what: str) -> str:
    if path is None:
        raise MissingInputError(f"no {what} given")
    if not os.path.exists(path):
        raise MissingInputError(f"{what} not found: {path}")
    return path


def _write_meta(csv_path, prov: dict) -> None:
    write_json(f"{csv_path}.meta.json", {"provenance": prov})


# --- subcommands -----------------------------------------------------------


def cmd_gen_data(args, cfg: dict) -> int:
    count = _as_int(cfg, "count")
    seed = _as_int(cfg, "seed")
    if count < 1:
        raise ConfigParseError(f"config key 'count' must be at least 1, got {count}")
    if seed < 0:
        raise ConfigParseError(f"config key 'seed' must be non-negative, got {seed}")

    corpus = scenarios.generate_corpus(seed, count)
    scenarios.write_corpus(args.out, corpus, meta={"provenance": provenance(cfg, seed)})
    print(f"wrote {len(corpus)} scenarios to {args.out}")
    return 0


@decoder("config key {1!r}", ConfigParseError)
def _as_floats(cfg: dict, key: str) -> tuple:
    return tuple(float(x) for x in cfg[key].split(","))


#: how a setting is read from its config text, by the type of its default
_PARSERS = {int: _as_int, float: _as_float, tuple: _as_floats}


#: ``train``'s keys: the fields of ``TrainConfig`` and the widths of
#: ``ModelDims``, each at its default, a tuple written comma-separated
_TRAIN_DEFAULTS = {
    f.name: ",".join(map(str, f.default)) if isinstance(f.default, tuple) else str(f.default)
    for settings in (TrainConfig, ModelDims)
    for f in dataclasses.fields(settings)
}


@decoder("{2}", ConfigParseError)
def _settings(cfg: dict, settings: type, what: str):
    """``settings`` built from the keys of ``cfg`` named after its fields,
    each parsed by the type of its default; the range rules are its own."""
    fields = dataclasses.fields(settings)
    return settings(**{f.name: _PARSERS[type(f.default)](cfg, f.name) for f in fields})


def _corpus_instances(data, corpus) -> list:
    """The instances of the corpus read from ``data``.  A scenario whose
    regular frame places other actors than its terminal frame is malformed
    input."""
    try:
        return scenarios.corpus_instances(corpus)
    except NodeMismatch as err:
        raise SchemaError(f"malformed corpus {data}: {err}") from err


def _train_on_corpus(data, tc: TrainConfig, dims: ModelDims) -> tuple:
    """(parameters, log, instance count, scenario count) of training on the
    corpus at ``data``.  The instances, which hold their scenarios to build
    a scene graph on demand, are dropped on return, before the checkpoint is
    written."""
    corpus, _ = scenarios.read_corpus(data)
    instances = _corpus_instances(data, corpus)
    params, log = train(instances, tc, dims)
    return params, log, len(instances), len(corpus)


def cmd_train(args, cfg: dict) -> int:
    data = _require(args.data, "scenario corpus")
    tc = _settings(cfg, TrainConfig, "train config")
    dims = _settings(cfg, ModelDims, "model dims")

    params, log, n_instances, n_scenarios = _train_on_corpus(data, tc, dims)
    prov = provenance(cfg, tc.seed)
    save_checkpoint(
        args.out,
        params,
        extra={
            "train_config": dataclasses.asdict(tc),
            "best_epoch": log.best_epoch,
            "stopped_early": log.stopped_early,
            "provenance": prov,
        },
    )
    if args.log:
        log.to_csv(args.log)
        _write_meta(args.log, prov)
    print(
        f"trained on {n_instances} instances from {n_scenarios} scenarios; "
        f"best epoch {log.best_epoch}"
    )
    return 0


def _load_checkpoint_obj(path):
    obj = read_json(path)
    return obj, checkpoint_from_json(obj)


def _source_graph(scenario, frame: int):
    """The scene graph of the scenario's frame ``frame``, which must exist."""
    if not 0 <= frame < len(scenario.frames):
        raise ConfigParseError(
            f"frame {frame} is out of range for scenario {scenario.id}, "
            f"which has {len(scenario.frames)} frames"
        )
    return scenarios.frame_graph(scenario, frame)


@decoder("train_config of the checkpoint", SchemaVersionMismatch)
def _recorded_split(obj) -> TrainConfig | None:
    """The seed and split the checkpoint's ``train_config`` records, as a
    ``TrainConfig`` with every other field at its default, or None without
    one."""
    tc = obj.get("train_config")
    if tc is None:
        return None
    split = tc["split"]
    # a bool is an int to Python, but not a fraction
    if not all(type(x) in (int, float) for x in split):
        raise TypeError(f"split {split!r} holds a value that is not a number")
    return TrainConfig(seed=json_int(tc, "seed"), split=tuple(float(x) for x in split))


#: what ``eval --subset`` can score: a block of the recorded split, or all
SUBSETS = ("train", "val", "test", "all")


def _subset_scenarios(corpus, recorded, subset: str):
    """The scenarios of ``corpus`` in the chosen subset, in corpus order.  The
    split is made over the scenarios that yield instances, those with a
    regular frame before the terminal one, as training made it."""
    if subset == "all":
        return corpus
    if recorded is None:
        raise MissingInputError(
            "checkpoint records no train_config; only --subset all is possible"
        )
    ids = [scenario.id for scenario in corpus if len(scenario.frames) > 1]
    if not ids:
        raise MissingInputError(f"subset {subset!r} selects no instances")
    wanted = set(scenario_split(ids, recorded.split, recorded.seed)[subset])
    return [scenario for scenario in corpus if scenario.id in wanted]


def _score_subset(data, model_path, subset: str) -> tuple:
    """(probabilities, labels, instance count, the checkpoint's training seed)
    over the chosen subset, whose scenarios alone are built into instances.
    The corpus and its instances are dropped on return."""
    corpus, _ = scenarios.read_corpus(data)
    obj, params = _load_checkpoint_obj(model_path)
    recorded = _recorded_split(obj)
    chosen = _corpus_instances(data, _subset_scenarios(corpus, recorded, subset))
    if not chosen:
        raise MissingInputError(f"subset {subset!r} selects no instances")
    probs, labels = pooled_predictions(params, chosen)
    return probs, labels, len(chosen), None if recorded is None else recorded.seed


def cmd_eval(args, cfg: dict) -> int:
    data = _require(args.data, "scenario corpus")
    model_path = _require(args.model, "model checkpoint")
    subset = cfg["subset"]
    if subset not in SUBSETS:
        raise ConfigParseError(f"unknown subset {subset!r}")

    probs, labels, n_instances, seed = _score_subset(data, model_path, subset)
    report = metrics.sweep(probs, labels)
    prov = provenance(cfg, seed)
    payload = report.to_json()
    payload.update(
        {
            "schema_version": 1,
            "subset": subset,
            "n_instances": n_instances,
            "provenance": prov,
        }
    )
    write_json(args.out, payload)
    if args.roc:
        metrics.write_roc_csv(report, args.roc)
        _write_meta(args.roc, prov)
    if args.pr:
        metrics.write_pr_csv(report, args.pr)
        _write_meta(args.pr, prov)
    print(
        f"{subset}: auc {report.auc:.4f}, best f1 {report.best_f1:.4f} "
        f"over {n_instances} instances"
    )
    return 0


def _decode_mode(cfg: dict):
    tau = _as_float(cfg, "tau")
    if not 0.0 <= tau <= 1.0:
        raise ConfigParseError(
            f"config key 'tau' must be a finite number in [0, 1], got {cfg['tau']!r}"
        )
    mode = cfg["mode"]
    if mode == "argmax":
        return ConsistentArgmax()
    if mode == "threshold":
        return Threshold(tau)
    raise ConfigParseError(f"unknown decode mode {mode!r}")


def _write_decoded(data, model_path, frame: int, mode, out) -> int:
    """Decode each scenario's predicted conflict graph from frame ``frame``
    and write them as JSONL to ``out``, in corpus order; returns the
    scenario count.  ``out`` is opened only once every graph is decoded, so
    a failure leaves no output.  The corpus is dropped on return."""
    corpus, _ = scenarios.read_corpus(data)
    _, params = _load_checkpoint_obj(model_path)
    instances = (
        extend(
            _source_graph(scenario, frame),
            target_frame=scenario.horizon,
            scenario_id=scenario.id,
        )
        for scenario in corpus
    )
    lines = []
    for ext, probs in predict_each(params, instances):
        decoded = decode_prediction(attach_predictions(ext, probs), mode)
        record = {"scenario_id": ext.scenario_id, "graph": graph_to_json(decoded)}
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    with open_output(out) as fh:
        fh.write("".join(lines))
    return len(corpus)


def cmd_perturb(args, cfg: dict) -> int:
    data = _require(args.data, "scenario corpus")
    model_path = _require(args.model, "model checkpoint")
    frame = _as_int(cfg, "frame")
    mode = _decode_mode(cfg)

    count = _write_decoded(data, model_path, frame, mode, args.out)
    _write_meta(args.out, provenance(cfg, None))
    print(f"decoded {count} predicted conflict graphs to {args.out}")
    return 0


def _predicted_record(record) -> tuple:
    """(scenario id, graph) of one line of a ``--predicted`` file."""
    scenario_id = record["scenario_id"]
    if not isinstance(scenario_id, str):
        raise TypeError(f"scenario_id {scenario_id!r} is not a string")
    return scenario_id, graph_from_json(record["graph"])


def _realize_corpus(data, predicted_path, frame) -> tuple:
    """(executables, whether any predicted graph was given): each scenario's
    frame ``frame`` realized against its predicted graph, or against itself
    without one.  Each predicted graph must name a scenario of the corpus,
    at most one graph a scenario.  The corpus and its graphs are dropped on return."""
    predicted = {}
    if predicted_path:
        path = _require(predicted_path, "predicted graphs")
        for scenario_id, graph in read_json_lines(path, _predicted_record):
            if predicted.setdefault(scenario_id, graph) is not graph:
                raise SchemaError(f"{path} gives scenario {scenario_id} more than one graph")
    corpus, _ = scenarios.read_corpus(data)
    unknown = sorted(predicted.keys() - {scenario.id for scenario in corpus})
    if unknown:
        raise SchemaError(
            f"{len(unknown)} predicted graph(s) name no scenario of {data}, first {unknown[0]}"
        )
    executables = []
    for scenario in corpus:
        regular = _source_graph(scenario, frame)
        target = predicted.get(scenario.id, regular)
        if target is not regular:
            breaches = validate_grammar(target)
            if breaches:
                raise SchemaError(
                    f"predicted graph of scenario {scenario.id} breaks the grammar: "
                    f"{breaches[0].rule}"
                )
        try:
            executable = sim.realize(regular, target, scenario.layout, scenario_id=scenario.id)
        except NodeMismatch as err:
            raise SchemaError(f"predicted graph of scenario {scenario.id}: {err}") from err
        executables.append(executable)
    return executables, bool(predicted)


def cmd_simulate(args, cfg: dict) -> int:
    data = _require(args.data, "scenario corpus")
    frame = _as_int(cfg, "frame")
    names = [n.strip() for n in cfg["profiles"].split(",") if n.strip()]
    if not names:
        raise ConfigParseError(f"profiles {cfg['profiles']!r} name no profile")
    unknown = [n for n in names if n not in sim.PROFILES]
    if unknown:
        raise ConfigParseError(f"unknown profile(s) {unknown}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigParseError(f"profile(s) {repeated} named more than once")
    profiles = [sim.PROFILES[n] for n in names]

    executables, perturbed = _realize_corpus(data, args.predicted, frame)
    results = sim.simulate_batch(executables, profiles)
    report = sim.scr_report(results)
    matched = sum(e.fidelity[0] for e in executables)
    prescribed = sum(e.fidelity[1] for e in executables)
    payload = {
        "schema_version": 1,
        "episodes_per_profile": len(executables),
        "perturbed": perturbed,
        "infeasible": sum(1 for e in executables if e.infeasible),
        "fidelity": {"matched": matched, "prescribed": prescribed},
        "profiles": report,
        "provenance": provenance(cfg, None),
    }
    write_json(args.out, payload)
    if args.table:
        print(sim.format_scr_table(report))
    else:
        print(
            f"simulated {len(executables)} episodes x {len(profiles)} profiles"
        )
    return 0


@decoder("{1} {0}")
def _read_report(path, what: str, key: str) -> dict:
    """The JSON object at ``path``: a schema_version 1 report with ``key``."""
    obj = read_json(path)
    if obj["schema_version"] != 1 or key not in obj:
        raise ValueError(f"not a schema_version 1 report with {key!r}")
    return obj


def cmd_report(args, cfg: dict) -> int:
    eval_path = _require(args.eval, "evaluation report")
    scr_path = _require(args.scr, "simulation report")
    payload = {
        "schema_version": 1,
        "evaluation": _read_report(eval_path, "evaluation report", "auc"),
        "simulation": _read_report(scr_path, "simulation report", "profiles"),
        "provenance": provenance(cfg, None),
    }
    write_json(args.out, payload)
    print(f"combined report written to {args.out}")
    return 0


# --- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornergraph",
        description="corner-case scene graph prediction and rollout pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--out", help="output path")
        p.add_argument(
            "--print-config",
            action="store_true",
            help="print the resolved configuration and exit",
        )

    p = sub.add_parser("gen-data", help="generate a scenario corpus")
    common(p)
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--count", type=int, help="number of scenarios")
    p.set_defaults(func=cmd_gen_data, defaults={"count": "600", "seed": "42"})

    p = sub.add_parser("train", help="fit a model on a corpus")
    common(p)
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--data", help="scenario corpus JSON")
    p.add_argument("--log", help="write the per-epoch loss log CSV here")
    p.set_defaults(func=cmd_train, defaults=_TRAIN_DEFAULTS)

    p = sub.add_parser("eval", help="score a checkpoint on held-out scenarios")
    common(p)
    p.add_argument("--data", help="scenario corpus JSON")
    p.add_argument("--model", help="model checkpoint JSON")
    p.add_argument("--subset", choices=SUBSETS)
    p.add_argument("--roc", help="write the ROC curve CSV here")
    p.add_argument("--pr", help="write the precision-recall curve CSV here")
    p.set_defaults(func=cmd_eval, defaults={"subset": "test"})

    p = sub.add_parser("perturb", help="decode predicted conflict graphs")
    common(p)
    p.add_argument("--data", help="scenario corpus JSON")
    p.add_argument("--model", help="model checkpoint JSON")
    p.add_argument("--mode", choices=["argmax", "threshold"])
    p.add_argument("--tau", type=float, help="keep probability for threshold mode")
    p.add_argument("--frame", type=int, help="source frame index")
    p.set_defaults(
        func=cmd_perturb, defaults={"mode": "argmax", "tau": "0.5", "frame": "0"}
    )

    p = sub.add_parser("simulate", help="realize and roll out episodes")
    common(p)
    p.add_argument("--data", help="scenario corpus JSON")
    p.add_argument("--predicted", help="decoded graphs JSONL from perturb")
    p.add_argument("--profiles", help="comma-separated driver profiles")
    p.add_argument("--frame", type=int, help="source frame index")
    p.add_argument("--table", action="store_true", help="print the outcome table")
    p.set_defaults(
        func=cmd_simulate,
        defaults={"profiles": ",".join(sim.PROFILES), "frame": "0"},
    )

    p = sub.add_parser("report", help="merge evaluation and simulation reports")
    common(p)
    p.add_argument("--eval", help="evaluation report JSON")
    p.add_argument("--scr", help="simulation report JSON")
    p.set_defaults(func=cmd_report, defaults={})

    return parser


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a block: ``main`` runs every
    subcommand in one.

    The commands build tens of thousands of small objects (corpus, scene
    graphs, instances, tapes, plans) that form no cycles and live until the
    command is done with them.  With the collector running, its young
    passes scan them again and again while they are built, and once enough
    of them survive into the old generation it runs a full collection over
    the whole heap, 20 to 60 ms in a process that holds other work, inside
    the command.  Paused, they are freed by reference counting at the end
    and never scanned.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def main(argv=None) -> int:
    """Run one subcommand: resolve its configuration, answer
    ``--print-config``, require ``--out``, then run it with the collector
    paused; a failure is reported as one JSON object on stderr."""
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.print_config:
            print(json.dumps(cfg, sort_keys=True))
            return 0
        if args.out is None:
            raise MissingInputError("no --out path given")
        with _collector_paused():
            return args.func(args, cfg)
    except CliError as err:
        print(
            json.dumps({"error": err.kind, "message": str(err)}, sort_keys=True),
            file=sys.stderr,
        )
        return err.exit_code
    except SchemaError as err:
        print(
            json.dumps(
                {"error": SchemaVersionError.kind, "message": str(err)},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return SchemaVersionError.exit_code


if __name__ == "__main__":
    sys.exit(main())
