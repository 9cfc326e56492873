import dataclasses
import gc
import json
from pathlib import Path

import pytest

from cornergraph import cli, sim
from cornergraph.cli import main
from cornergraph.extended import attach_predictions, decode_prediction, extend
from cornergraph.frames import build_scene_graph
from cornergraph.graphs import graph_to_json
from cornergraph.metrics import sweep
from cornergraph.model import BATCH_SIZE, ModelDims, forward, load_checkpoint
from cornergraph.scenarios import corpus_instances, ground_truth_graph, read_corpus
from cornergraph.training import TrainConfig, pooled_predictions, scenario_split

TINY_TRAIN = """
# reduced settings so the suite stays fast
seed=0
epochs=4
learning_rate=0.003
early_stop_patience=99
encoder_hidden=16
gat1_out=16
mid_hidden=24
mid_out=32
triple_hidden=4
"""


def run_pipeline(root):
    """One full pass into ``root``: corpus, checkpoint, eval, decodes,
    episodes, report; returns the output paths."""
    paths = {
        "corpus": str(root / "corpus.json"),
        "train_cfg": str(root / "train.cfg"),
        "model": str(root / "model.json"),
        "train_log": str(root / "train_log.csv"),
        "eval": str(root / "eval.json"),
        "roc": str(root / "roc.csv"),
        "pr": str(root / "pr.csv"),
        "decoded": str(root / "decoded.jsonl"),
        "scr": str(root / "scr.json"),
        "report": str(root / "report.json"),
    }
    (root / "train.cfg").write_text(TINY_TRAIN)

    assert main(["gen-data", "--count", "6", "--seed", "9", "--out", paths["corpus"]]) == 0
    assert main([
        "train", "--config", paths["train_cfg"], "--data", paths["corpus"],
        "--out", paths["model"], "--log", paths["train_log"],
    ]) == 0
    assert main([
        "eval", "--data", paths["corpus"], "--model", paths["model"], "--subset", "all",
        "--roc", paths["roc"], "--pr", paths["pr"], "--out", paths["eval"],
    ]) == 0
    assert main([
        "perturb", "--data", paths["corpus"], "--model", paths["model"],
        "--mode", "argmax", "--out", paths["decoded"],
    ]) == 0
    assert main([
        "simulate", "--data", paths["corpus"], "--predicted", paths["decoded"],
        "--profiles", "Basic,Normal", "--out", paths["scr"],
    ]) == 0
    assert main([
        "report", "--eval", paths["eval"], "--scr", paths["scr"],
        "--out", paths["report"],
    ]) == 0
    return paths


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("pipeline"))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_data_writes_balanced_corpus(pipeline):
    corpus, meta = read_corpus(pipeline["corpus"])
    assert len(corpus) == 6
    assert len({scn.template for scn in corpus}) == 6
    prov = meta["provenance"]
    assert prov["seed"] == 9
    assert len(prov["config_sha256"]) == 64


def test_gen_data_reruns_byte_identical(pipeline, tmp_path):
    again = tmp_path / "again.json"
    assert main(["gen-data", "--count", "6", "--seed", "9", "--out", str(again)]) == 0
    assert again.read_bytes() == open(pipeline["corpus"], "rb").read()


def test_pipeline_rerun_into_the_same_paths_is_byte_identical(tmp_path):
    run_pipeline(tmp_path)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert {"pr.csv", "train_log.csv.meta.json", "decoded.jsonl.meta.json"} <= set(first)
    run_pipeline(tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_out_through_a_symlink_keeps_the_link_and_writes_its_target(pipeline, tmp_path):
    target = tmp_path / "target.json"
    target.write_text("stale\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["gen-data", "--count", "6", "--seed", "9", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == Path(pipeline["corpus"]).read_bytes()


def test_out_with_a_second_hard_link_writes_both_names(pipeline, tmp_path):
    out = tmp_path / "corpus.json"
    out.write_text("stale\n")
    other = tmp_path / "other.json"
    other.hardlink_to(out)
    assert main(["gen-data", "--count", "6", "--seed", "9", "--out", str(out)]) == 0
    expected = Path(pipeline["corpus"]).read_bytes()
    assert out.read_bytes() == expected
    assert other.read_bytes() == expected


def test_train_writes_checkpoint_and_log(pipeline):
    obj = read_json(pipeline["model"])
    assert obj["schema_version"] == 1
    assert obj["train_config"]["epochs"] == 4
    assert obj["train_config"]["seed"] == 0
    assert "provenance" in obj
    assert obj["dims"]["encoder_hidden"] == 16

    lines = open(pipeline["train_log"]).read().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) >= 2
    meta = read_json(pipeline["train_log"] + ".meta.json")
    assert "provenance" in meta


def test_eval_report_shape(pipeline):
    obj = read_json(pipeline["eval"])
    assert obj["schema_version"] == 1
    assert obj["subset"] == "all"
    assert obj["n_instances"] > 0
    assert 0.0 <= obj["auc"] <= 1.0
    assert set(obj["confusion"]) == {"tp", "fp", "fn", "tn"}
    assert obj["provenance"]["seed"] == 0
    roc_lines = open(pipeline["roc"]).read().strip().split("\n")
    assert roc_lines[0] == "threshold,fpr,tpr"
    assert read_json(pipeline["roc"] + ".meta.json")["provenance"]


def test_perturb_emits_one_graph_per_scenario(pipeline):
    corpus, _ = read_corpus(pipeline["corpus"])
    lines = [
        json.loads(line)
        for line in open(pipeline["decoded"]).read().strip().split("\n")
    ]
    assert [r["scenario_id"] for r in lines] == [scn.id for scn in corpus]
    for record in lines:
        graph = record["graph"]
        assert graph["corner_case"] is True
        assert len(graph["edges"]) > 0


def test_perturb_matches_decoding_one_scenario_at_a_time(pipeline, tmp_path):
    corpus_path = str(tmp_path / "corpus.json")
    decoded_path = str(tmp_path / "decoded.jsonl")
    count = 2 * BATCH_SIZE + 6
    assert main(["gen-data", "--count", str(count), "--seed", "13", "--out", corpus_path]) == 0
    assert main([
        "perturb", "--data", corpus_path, "--model", pipeline["model"],
        "--mode", "argmax", "--out", decoded_path,
    ]) == 0
    corpus, _ = read_corpus(corpus_path)
    params = load_checkpoint(pipeline["model"])
    want = []
    for scn in corpus:
        ext = extend(build_scene_graph(scn.frames[0]), target_frame=scn.horizon, scenario_id=scn.id)
        decoded = decode_prediction(attach_predictions(ext, forward(params, ext).data))
        want.append({"scenario_id": scn.id, "graph": graph_to_json(decoded)})
    got = [json.loads(line) for line in open(decoded_path).read().strip().split("\n")]
    assert len(got) == count
    assert got == want


def test_simulate_report_shape(pipeline):
    obj = read_json(pipeline["scr"])
    assert obj["schema_version"] == 1
    assert obj["episodes_per_profile"] == 6
    assert obj["perturbed"] is True
    assert set(obj["profiles"]) == {"Basic", "Normal"}
    for row in obj["profiles"].values():
        assert sum(row.values()) == pytest.approx(100.0)
    fid = obj["fidelity"]
    assert 0 <= fid["matched"] <= fid["prescribed"]


def test_report_merges_both_payloads(pipeline):
    obj = read_json(pipeline["report"])
    assert obj["schema_version"] == 1
    assert obj["evaluation"]["auc"] == read_json(pipeline["eval"])["auc"]
    assert obj["simulation"]["profiles"] == read_json(pipeline["scr"])["profiles"]


def test_simulate_identity_arm_without_predictions(pipeline, tmp_path):
    out = tmp_path / "identity.json"
    assert main([
        "simulate", "--data", pipeline["corpus"], "--profiles", "Normal",
        "--out", str(out),
    ]) == 0
    obj = read_json(str(out))
    assert obj["perturbed"] is False
    assert obj["fidelity"] == {"matched": 0, "prescribed": 0}


def test_simulate_pauses_the_collector_and_restores_it(
    pipeline, tmp_path, monkeypatch, capsys
):
    seen = []
    real = sim.simulate_batch

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "simulate_batch", spy)
    assert gc.isenabled()
    assert main([
        "simulate", "--data", pipeline["corpus"], "--profiles", "Normal",
        "--out", str(tmp_path / "s.json"),
    ]) == 0
    assert seen == [False] and gc.isenabled()
    # a failure inside the paused block restores the collector too
    bad = tmp_path / "predicted.jsonl"
    bad.write_text("not json\n")
    assert main([
        "simulate", "--data", pipeline["corpus"], "--predicted", str(bad),
        "--out", str(tmp_path / "t.json"),
    ]) == 3
    assert gc.isenabled()
    # and a collector the caller turned off stays off
    gc.disable()
    try:
        assert main([
            "simulate", "--data", pipeline["corpus"], "--profiles", "Normal",
            "--out", str(tmp_path / "u.json"),
        ]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "command, target",
    [
        ("train", "train"),
        ("eval", "pooled_predictions"),
        ("perturb", "predict_each"),
        ("gen-data", "provenance"),
        ("report", "provenance"),
    ],
)
def test_eval_and_perturb_pause_the_collector_and_restore_it(
    pipeline, tmp_path, monkeypatch, capsys, command, target
):
    seen = []
    real = getattr(cli, target)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, target, spy)
    bad = tmp_path / "input.json"
    bad.write_text("not json\n")
    # per command: argv, the argument a failing run replaces, its
    # replacement, and the failing run's exit code
    runs = {
        "gen-data": (["--count", "1"], "1", "0", 2),
        "train": (
            ["--config", pipeline["train_cfg"], "--data", pipeline["corpus"]],
            pipeline["corpus"], str(bad), 3,
        ),
        "eval": (
            ["--data", pipeline["corpus"], "--model", pipeline["model"], "--subset", "all"],
            pipeline["model"], str(bad), 3,
        ),
        "perturb": (
            ["--data", pipeline["corpus"], "--model", pipeline["model"]],
            pipeline["model"], str(bad), 3,
        ),
        "report": (
            ["--eval", pipeline["eval"], "--scr", pipeline["scr"]],
            pipeline["eval"], str(bad), 3,
        ),
    }
    flags, read_in_block, failing, code = runs[command]
    argv = [command, *flags]
    assert gc.isenabled()
    assert main(argv + ["--out", str(tmp_path / "a.out")]) == 0
    assert seen == [False] and gc.isenabled()
    # a failure inside the paused block restores the collector too
    argv[argv.index(read_in_block)] = failing
    assert main(argv + ["--out", str(tmp_path / "b.out")]) == code
    assert gc.isenabled()


#: argv templates over the pipeline's paths, and over ``bare_model``, the
#: pipeline's checkpoint without its train_config
_TRAIN = ["train", "--data", "{corpus}"]
_THRESHOLD = ["perturb", "--data", "{corpus}", "--model", "{model}", "--mode", "threshold"]


def _argv(template, pipeline, tmp_path):
    obj = read_json(pipeline["model"])
    del obj["train_config"]
    bare = tmp_path / "bare_model.json"
    bare.write_text(json.dumps(obj))
    return [arg.format(bare_model=bare, **pipeline) for arg in template]


@pytest.mark.parametrize(
    "key, template",
    [
        ("epoch", _TRAIN),
        ("optimizer", _TRAIN),
        ("k_folds", _TRAIN),
        ("dt", ["simulate", "--data", "{corpus}", "--profiles", "Normal"]),
        ("seed", ["report", "--eval", "{eval}", "--scr", "{scr}"]),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_config_key_the_subcommand_does_not_read_exits_2(
    pipeline, tmp_path, capsys, key, template
):
    argv = _argv(template, pipeline, tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key}=1\n")
    out = tmp_path / "out.json"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_parse"
    assert repr(key) in err["message"] and argv[0] in err["message"]
    assert not out.exists()
    assert main(argv + ["--config", str(cfg), "--print-config"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "setting, template",
    [
        ("tau=nan", _THRESHOLD),
        ("tau=2", _THRESHOLD),
        ("tau=-1", _THRESHOLD),
        ("tau=inf", ["perturb", "--data", "{corpus}", "--model", "{model}"]),
        ("early_stop_patience=0", _TRAIN),
        ("early_stop_patience=-4", _TRAIN),
        ("subset=foo", ["eval", "--data", "{corpus}", "--model", "{model}"]),
        # checked before the checkpoint is read for a train_config
        pytest.param(
            "subset=foo",
            ["eval", "--data", "{corpus}", "--model", "{bare_model}"],
            id="subset=foo-eval-without-train_config",
        ),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_setting_out_of_range_exits_2_and_names_its_key(
    pipeline, tmp_path, capsys, setting, template
):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out.json"
    argv = _argv(template, pipeline, tmp_path)
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_parse"
    assert setting.split("=")[0] in err["message"]
    assert not out.exists()


def test_checkpoint_that_records_an_optimizer_loads_as_before(pipeline, tmp_path):
    # checkpoints written while train had an optimizer key record it in
    # their train_config; eval and perturb read only its seed and split
    obj = read_json(pipeline["model"])
    obj["train_config"]["optimizer"] = "adam"
    older = tmp_path / "older_model.json"
    older.write_text(json.dumps(obj))
    for model, name in ((pipeline["model"], "a"), (str(older), "b")):
        assert main([
            "eval", "--data", pipeline["corpus"], "--model", model, "--subset", "test",
            "--out", str(tmp_path / f"{name}.eval.json"),
        ]) == 0
        assert main([
            "perturb", "--data", pipeline["corpus"], "--model", model,
            "--out", str(tmp_path / f"{name}.decoded.jsonl"),
        ]) == 0
    for suffix in ("eval.json", "decoded.jsonl", "decoded.jsonl.meta.json"):
        assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()


def test_train_defaults_are_the_training_and_width_fields():
    # train reads exactly the fields of both, and its defaults parse to theirs
    defaults = cli._TRAIN_DEFAULTS
    fields = [f.name for cls in (TrainConfig, ModelDims) for f in dataclasses.fields(cls)]
    assert list(defaults) == fields and len(fields) == 11
    assert cli._settings(defaults, TrainConfig, "train config") == TrainConfig()
    assert cli._settings(defaults, ModelDims, "model dims") == ModelDims()
    assert defaults["split"] == "0.7,0.2,0.1" and defaults["learning_rate"] == "0.001"


def test_print_config_resolves_precedence(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("count=10\nseed=3\n")
    assert main([
        "gen-data", "--config", str(cfg), "--seed", "4", "--print-config",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == "10"
    assert out["seed"] == "4"  # flag beats config file
    assert out["schema_version"] == "1"


#: per subcommand, the keys of its configuration
_CONFIG_KEYS = {
    "gen-data": {"count", "seed"},
    "train": {
        "learning_rate", "epochs", "seed", "split", "positive_weight",
        "early_stop_patience", "encoder_hidden", "gat1_out", "mid_hidden", "mid_out",
        "triple_hidden",
    },
    "eval": {"subset"},
    "perturb": {"mode", "tau", "frame"},
    "simulate": {"profiles", "frame"},
    "report": set(),
}
#: per subcommand, a value for each flag that overrides a config key
_OVERRIDES = {
    "gen-data": {"count": "7", "seed": "5"},
    "train": {"seed": "5"},
    "eval": {"subset": "val"},
    "perturb": {"mode": "threshold", "tau": "0.25", "frame": "2"},
    "simulate": {"profiles": "Basic", "frame": "2"},
    "report": {},
}


@pytest.mark.parametrize("command", sorted(_CONFIG_KEYS))
def test_print_config_shows_the_defaults_and_flags_beat_the_config_file(
    tmp_path, capsys, command
):
    assert main([command, "--print-config"]) == 0
    defaults = json.loads(capsys.readouterr().out)
    assert set(defaults) == _CONFIG_KEYS[command] | {"schema_version"}
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{key}=from-file\n" for key in _CONFIG_KEYS[command]))
    flags = [arg for key, value in _OVERRIDES[command].items() for arg in (f"--{key}", value)]
    assert main([command, "--config", str(cfg), *flags, "--print-config"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert set(resolved) == set(defaults)
    for key in _CONFIG_KEYS[command]:
        assert resolved[key] == _OVERRIDES[command].get(key, "from-file"), key


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for content, message in [
        (b"not a pair\n", "expected key=value"),
        (b"count=6\nseed=\xff\xfe\n", "utf-8"),
    ]:
        cfg.write_bytes(content)
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 2, content
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config_parse"
        assert message in err["message"]


def test_non_numeric_value_exits_2(pipeline, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for setting, argv in [
        ("count=banana", ["gen-data"]),
        ("split=a,b,c", ["train", "--data", pipeline["corpus"]]),
        ("split=0.7,0.2,1.5", ["train", "--data", pipeline["corpus"]]),
        ("seed=-1", ["train", "--data", pipeline["corpus"]]),
        ("seed=-1", ["gen-data"]),
        ("count=-3", ["gen-data"]),
        ("count=0", ["gen-data"]),
        ("encoder_hidden=0", ["train", "--data", pipeline["corpus"]]),
        ("gat1_out=-2", ["train", "--data", pipeline["corpus"]]),
        ("epochs=-3", ["train", "--data", pipeline["corpus"]]),
        ("epochs=0", ["train", "--data", pipeline["corpus"]]),
        ("learning_rate=nan", ["train", "--data", pipeline["corpus"]]),
        ("learning_rate=-0.1", ["train", "--data", pipeline["corpus"]]),
        ("positive_weight=-1", ["train", "--data", pipeline["corpus"]]),
        ("positive_weight=inf", ["train", "--data", pipeline["corpus"]]),
    ]:
        cfg.write_text(setting + "\n")
        code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 2, setting
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config_parse"
        assert setting.split("=")[0] in err["message"], setting


def test_duplicate_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("count=5\ncount=6\n")
    code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "duplicate" in json.loads(capsys.readouterr().err)["message"]


def test_config_schema_version_mismatch_exits_3(tmp_path, capsys):
    cfg = tmp_path / "v2.cfg"
    cfg.write_text("schema_version=2\n")
    code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "schema_version_mismatch"


def test_tampered_corpus_schema_exits_3(pipeline, tmp_path, capsys):
    obj = read_json(pipeline["corpus"])
    obj["schema_version"] = 999
    bad = tmp_path / "bad_corpus.json"
    bad.write_text(json.dumps(obj))
    code = main([
        "train", "--data", str(bad), "--out", str(tmp_path / "m.json"),
    ])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "schema_version_mismatch"


def test_tampered_checkpoint_schema_exits_3(pipeline, tmp_path, capsys):
    obj = read_json(pipeline["model"])
    obj["schema_version"] = 999
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(obj))
    code = main([
        "eval", "--data", pipeline["corpus"], "--model", str(bad),
        "--subset", "all", "--out", str(tmp_path / "e.json"),
    ])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "schema_version_mismatch"


@pytest.mark.parametrize("drop", ["dims", "tensors", "gat1.att"])
def test_incomplete_checkpoint_exits_3(pipeline, tmp_path, capsys, drop):
    obj = read_json(pipeline["model"])
    if drop in obj:
        del obj[drop]
    else:
        del obj["tensors"][drop]
    bad = tmp_path / "incomplete_model.json"
    bad.write_text(json.dumps(obj))
    code = main([
        "eval", "--data", pipeline["corpus"], "--model", str(bad),
        "--subset", "all", "--out", str(tmp_path / "e.json"),
    ])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "schema_version_mismatch"


def test_corpus_that_is_not_json_exits_3(pipeline, tmp_path, capsys):
    bad = tmp_path / "corpus.txt"
    bad.write_text("scenario corpus goes here\n")
    code = main([
        "eval", "--data", str(bad), "--model", pipeline["model"],
        "--subset", "all", "--out", str(tmp_path / "e.json"),
    ])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "schema_version_mismatch"


def test_predicted_graph_with_other_nodes_exits_3(pipeline, tmp_path, capsys):
    corpus, _ = read_corpus(pipeline["corpus"])
    records = [
        {"scenario_id": scn.id, "graph": graph_to_json(ground_truth_graph(scn))}
        for scn in corpus
    ]
    graph = records[0]["graph"]
    last = len(graph["nodes"]) - 1
    graph["nodes"] = graph["nodes"][:-1]
    graph["edges"] = [e for e in graph["edges"] if last not in (e["head"], e["tail"])]
    bad = tmp_path / "predicted.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    code = main([
        "simulate", "--data", pipeline["corpus"], "--predicted", str(bad),
        "--profiles", "Normal", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_version_mismatch"
    assert records[0]["scenario_id"] in err["message"]


def _drop_node_id(graph):
    del graph["nodes"][0]["id"]


def _text_node_id(graph):
    graph["nodes"][0]["id"] = "a"


def _drop_edge_tail(graph):
    del graph["edges"][0]["tail"]


def _number_for_node(graph):
    graph["nodes"][0] = 1


def _number_for_edges(graph):
    graph["edges"] = 5


@pytest.mark.parametrize(
    "breach",
    [_drop_node_id, _text_node_id, _drop_edge_tail, _number_for_node, _number_for_edges],
)
def test_predicted_graph_with_a_malformed_node_or_edge_exits_3(pipeline, tmp_path, capsys, breach):
    corpus, _ = read_corpus(pipeline["corpus"])
    records = [
        {"scenario_id": scn.id, "graph": graph_to_json(ground_truth_graph(scn))}
        for scn in corpus
    ]
    breach(records[0]["graph"])
    bad = tmp_path / "predicted.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "s.json"
    code = main([
        "simulate", "--data", pipeline["corpus"], "--predicted", str(bad),
        "--profiles", "Normal", "--out", str(out),
    ])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "schema_version_mismatch"
    assert not out.exists()


def _ground_truth_records(corpus_path):
    corpus, _ = read_corpus(corpus_path)
    return [
        {"scenario_id": scn.id, "graph": graph_to_json(ground_truth_graph(scn))}
        for scn in corpus
    ]


def _simulate_predicted(pipeline, tmp_path, records):
    path = tmp_path / "predicted.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "s.json"
    code = main([
        "simulate", "--data", pipeline["corpus"], "--predicted", str(path),
        "--profiles", "Normal", "--out", str(out),
    ])
    return code, out


def test_predicted_graph_of_no_scenario_of_the_corpus_exits_3(pipeline, tmp_path, capsys):
    records = _ground_truth_records(pipeline["corpus"])
    # a scenario without a line still runs against its own frame
    code, out = _simulate_predicted(pipeline, tmp_path, records[:1])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["perturbed"] and report["episodes_per_profile"] == len(records)
    out.unlink()
    capsys.readouterr()
    records[1]["scenario_id"] = "elsewhere-000"
    code, out = _simulate_predicted(pipeline, tmp_path, records)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_version_mismatch"
    assert "elsewhere-000" in err["message"]
    assert not out.exists()


def test_predicted_graphs_that_name_one_scenario_twice_exit_3(pipeline, tmp_path, capsys):
    records = _ground_truth_records(pipeline["corpus"])
    code, out = _simulate_predicted(pipeline, tmp_path, records + records[2:3])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_version_mismatch"
    assert records[2]["scenario_id"] in err["message"]
    assert not out.exists()


def test_predicted_graph_that_breaks_the_grammar_exits_3(pipeline, tmp_path, capsys):
    corpus, _ = read_corpus(pipeline["corpus"])
    records = [
        {"scenario_id": scn.id, "graph": graph_to_json(ground_truth_graph(scn))}
        for scn in corpus
    ]
    graph = records[1]["graph"]
    graph["edges"] = graph["edges"] + graph["edges"]
    bad = tmp_path / "predicted.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "s.json"
    code = main([
        "simulate", "--data", pipeline["corpus"], "--predicted", str(bad),
        "--profiles", "Normal", "--out", str(out),
    ])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_version_mismatch"
    assert records[1]["scenario_id"] in err["message"]
    assert "duplicate edge" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--seed", "3"],
        ["perturb", "--workers", "2"],
        ["simulate", "--seed", "3"],
        ["report", "--seed", "3"],
        ["train", "--workers", "2"],
        ["gen-data", "--workers", "2"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2]),
)
def test_seed_and_workers_are_flags_of_the_commands_that_read_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--print-config"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_data_exits_4(tmp_path, capsys):
    code = main([
        "train", "--data", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "m.json"),
    ])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "missing_input"


def test_missing_out_exits_4(pipeline, capsys):
    code = main(["train", "--data", pipeline["corpus"]])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "missing_input"


def test_unknown_profile_exits_2(pipeline, tmp_path, capsys):
    code = main([
        "simulate", "--data", pipeline["corpus"], "--profiles", "Reckless",
        "--out", str(tmp_path / "s.json"),
    ])
    assert code == 2
    assert "Reckless" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize(
    "profiles, named",
    [(",", "name no profile"), (" , ", "name no profile"), ("Basic,Normal,Basic", "'Basic'")],
)
def test_profile_list_of_no_valid_run_exits_2(pipeline, tmp_path, capsys, profiles, named):
    out = tmp_path / "s.json"
    code = main([
        "simulate", "--data", pipeline["corpus"], "--profiles", profiles, "--out", str(out),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_parse"
    assert named in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "setting", ["dt=0", "dt=-0.05", "horizon=0.01", "dt=nan", "horizon=inf", "horizon=-30"]
)
def test_malformed_rollout_setting_exits_2(pipeline, tmp_path, capsys, setting):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "s.json"
    code = main([
        "simulate", "--config", str(cfg), "--data", pipeline["corpus"],
        "--profiles", "Normal", "--out", str(out),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_parse"
    assert setting.split("=")[0] in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["perturb", "simulate"])
@pytest.mark.parametrize("frame", ["99", "-1"])
def test_out_of_range_frame_exits_2(pipeline, tmp_path, capsys, command, frame):
    corpus, _ = read_corpus(pipeline["corpus"])
    extra = ["--model", pipeline["model"]] if command == "perturb" else ["--profiles", "Normal"]
    out = tmp_path / "out"
    code = main([
        command, "--data", pipeline["corpus"], "--frame", frame, *extra, "--out", str(out),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_parse"
    assert corpus[0].id in err["message"]
    assert f"{len(corpus[0].frames)} frames" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        b"decoded graphs go here",
        b"\xff\xfe not text",
        json.dumps({"graph": {}}).encode(),
        json.dumps({"scenario_id": "x"}).encode(),
        json.dumps({"scenario_id": [1], "graph": {}}).encode(),
        b"[1, 2]",
    ],
)
def test_predicted_line_that_is_not_a_record_exits_3(pipeline, tmp_path, capsys, line):
    bad = tmp_path / "predicted.jsonl"
    bad.write_bytes(line + b"\n")
    code = main([
        "simulate", "--data", pipeline["corpus"], "--predicted", str(bad),
        "--profiles", "Normal", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_version_mismatch"
    assert "predicted.jsonl:1" in err["message"]


def _report_with_not_json(flag):
    def argv(pipeline, tmp_path):
        bad = tmp_path / "report.txt"
        bad.write_text("report goes here\n")
        inputs = {"--eval": pipeline["eval"], "--scr": pipeline["scr"], flag: str(bad)}
        return ["report", *(arg for pair in inputs.items() for arg in pair)]

    return argv


def _report_of(eval_key, scr_key):
    def argv(pipeline, tmp_path):
        return ["report", "--eval", pipeline[eval_key], "--scr", pipeline[scr_key]]

    return argv


def _edited_corpus(edit):
    def argv(pipeline, tmp_path):
        obj = read_json(pipeline["corpus"])
        edit(obj)
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps(obj))
        return ["simulate", "--data", str(bad), "--profiles", "Normal"]

    return argv


def _edited_predicted(edit):
    def argv(pipeline, tmp_path):
        corpus, _ = read_corpus(pipeline["corpus"])
        records = [
            {"scenario_id": scn.id, "graph": graph_to_json(ground_truth_graph(scn))}
            for scn in corpus
        ]
        edit(records[0]["graph"])
        bad = tmp_path / "predicted.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        return ["simulate", "--data", pipeline["corpus"], "--predicted", str(bad), "--profiles", "Normal"]

    return argv


def _edited_checkpoint(edit, command=("eval", "--subset", "test")):
    def argv(pipeline, tmp_path):
        obj = read_json(pipeline["model"])
        edit(obj)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        return [command[0], "--data", pipeline["corpus"], "--model", str(bad), *command[1:]]

    return argv


def _set(*path, value):
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return edit


def _drop(*path):
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]

    return edit


_MALFORMED_INPUTS = {
    "eval-report-not-json": _report_with_not_json("--eval"),
    "scr-report-not-json": _report_with_not_json("--scr"),
    "reports-swapped": _report_of("scr", "eval"),
    "reports-a-corpus-and-a-checkpoint": _report_of("corpus", "model"),
    "scenario-without-layout": _edited_corpus(_drop("scenarios", 0, "layout")),
    "strip-width-negative": _edited_corpus(
        _set("scenarios", 0, "layout", "strips", 0, "width", value=-1)
    ),
    "actor-category-tank": _edited_corpus(
        _set("scenarios", 0, "frames", 0, "actors", 1, "category", value="Tank")
    ),
    "actor-category-lane": _edited_corpus(
        _set("scenarios", 0, "frames", 0, "actors", 1, "category", value="Lane")
    ),
    "scenarios-not-a-list": _edited_corpus(_set("scenarios", value=5)),
    "scenarios-empty": _edited_corpus(_set("scenarios", value=[])),
    "state-heading-text": _edited_predicted(_set("nodes", 0, "state", "heading", value="x")),
    "state-velocity-short": _edited_predicted(_set("nodes", 0, "state", "velocity", value=[1])),
    "graph-frame-text": _edited_predicted(_set("frame", value="x")),
    "train-config-without-split": _edited_checkpoint(_drop("train_config", "split")),
    "train-config-not-an-object": _edited_checkpoint(_set("train_config", value="x")),
    "train-config-seed-negative": _edited_checkpoint(_set("train_config", "seed", value=-1)),
    "train-config-split-out-of-range": _edited_checkpoint(
        _set("train_config", "split", value=[0.7, 0.2, 1.5])
    ),
    "train-config-seed-fractional": _edited_checkpoint(_set("train_config", "seed", value=2.7)),
    "train-config-seed-bool": _edited_checkpoint(_set("train_config", "seed", value=True)),
    "dims-width-fractional": _edited_checkpoint(
        _set("dims", "triple_hidden", value=4.9), ("perturb",)
    ),
    "dims-width-bool": _edited_checkpoint(_set("dims", "mid_out", value=True), ("perturb",)),
    "dims-node-features-other": _edited_checkpoint(
        _set("dims", "node_features", value=12), ("perturb",)
    ),
    "train-config-split-bool": _edited_checkpoint(
        _set("train_config", "split", value=[True, 0.2, 0.1])
    ),
    "frame-index-fractional": _edited_corpus(_set("scenarios", 0, "frames", 0, "index", value=0.7)),
    "scenario-seed-fractional": _edited_corpus(_set("scenarios", 0, "seed", value=77.9)),
    "scenario-index-bool": _edited_corpus(_set("scenarios", 0, "index", value=True)),
    "strip-direction-fractional": _edited_corpus(
        _set("scenarios", 0, "layout", "strips", 0, "direction", value=0.5)
    ),
    "node-id-fractional": _edited_predicted(_set("nodes", 1, "id", value=1.6)),
    "edge-head-fractional": _edited_predicted(_set("edges", 0, "head", value=0.5)),
    "edge-tail-bool": _edited_predicted(_set("edges", 0, "tail", value=False)),
    "graph-frame-fractional": _edited_predicted(_set("frame", value=1.5)),
    "frame-corner-case-text": _edited_corpus(
        _set("scenarios", 0, "frames", 0, "corner_case", value="no")
    ),
    "state-braking-text": _edited_corpus(
        _set("scenarios", 0, "frames", 0, "actors", 0, "state", "braking", value="no")
    ),
    "state-location-text": _edited_corpus(
        _set("scenarios", 0, "frames", 0, "actors", 0, "state", "location", 0, value="-1.75")
    ),
    "state-heading-bool": _edited_corpus(
        _set("scenarios", 0, "frames", 0, "actors", 0, "state", "heading", value=True)
    ),
    "state-velocity-bool": _edited_corpus(
        _set("scenarios", 0, "frames", 0, "actors", 0, "state", "velocity", 1, value=False)
    ),
    "strip-center-text": _edited_corpus(
        _set("scenarios", 0, "layout", "strips", 0, "center", value="-4.5")
    ),
    "strip-width-bool": _edited_corpus(
        _set("scenarios", 0, "layout", "strips", 0, "width", value=True)
    ),
    "graph-corner-case-number": _edited_predicted(_set("corner_case", value=1)),
    "node-location-text": _edited_predicted(_set("nodes", 0, "state", "location", 1, value="0")),
}
#: the key a case's message names
_NAMED_KEYS = {
    "train-config-seed-fractional": "seed",
    "train-config-seed-bool": "seed",
    "dims-width-fractional": "triple_hidden",
    "dims-width-bool": "mid_out",
    "dims-node-features-other": "node_features",
    "train-config-split-bool": "split",
    "frame-index-fractional": "index",
    "scenario-seed-fractional": "seed",
    "scenario-index-bool": "index",
    "strip-direction-fractional": "direction",
    "node-id-fractional": "id",
    "edge-head-fractional": "head",
    "edge-tail-bool": "tail",
    "graph-frame-fractional": "frame",
    "frame-corner-case-text": "corner_case",
    "state-braking-text": "braking",
    "state-location-text": "location",
    "state-heading-bool": "heading",
    "state-velocity-bool": "velocity",
    "strip-center-text": "center",
    "strip-width-bool": "width",
    "graph-corner-case-number": "corner_case",
    "node-location-text": "location",
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_malformed_input_exits_3_without_a_traceback(pipeline, tmp_path, capsys, case):
    out = tmp_path / "out.json"
    code = main(_MALFORMED_INPUTS[case](pipeline, tmp_path) + ["--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_version_mismatch"
    assert err["message"].startswith("malformed ")
    assert _NAMED_KEYS.get(case, "") in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "perturb", "simulate"])
def test_a_repeated_scenario_id_exits_3_naming_it(pipeline, tmp_path, capsys, command):
    obj = read_json(pipeline["corpus"])
    obj["scenarios"].append(obj["scenarios"][2])
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(obj))
    extra = {"simulate": []}.get(command, ["--model", pipeline["model"]])
    out = tmp_path / "out.json"
    assert main([command, "--data", str(bad), *extra, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_version_mismatch"
    assert obj["scenarios"][2]["id"] in err["message"]
    assert not out.exists()


def _actor_off_every_strip(actors):
    actors[1]["state"]["location"][0] = 99.0


def _adversary_first(actors):
    actors[0], actors[1] = actors[1], actors[0]


def _adversary_on_the_ego(actors):
    actors[1]["state"]["location"] = list(actors[0]["state"]["location"])


@pytest.mark.parametrize(
    "edit, message",
    [
        (_actor_off_every_strip, "lies in no road element"),
        (_adversary_first, "first actor must be the Ego"),
        (_adversary_on_the_ego, "share a location"),
    ],
)
@pytest.mark.parametrize("command", ["train", "eval", "perturb", "simulate"])
def test_frame_that_describes_no_scene_exits_3(pipeline, tmp_path, capsys, command, edit, message):
    obj = read_json(pipeline["corpus"])
    edit(obj["scenarios"][0]["frames"][0]["actors"])
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(obj))
    extra = {
        "train": [],
        "eval": ["--model", pipeline["model"], "--subset", "all"],
        "perturb": ["--model", pipeline["model"]],
        "simulate": ["--profiles", "Normal"],
    }[command]
    code = main([command, "--data", str(bad), *extra, "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_version_mismatch"
    assert message in err["message"]


@pytest.fixture(scope="module")
def corpus_904(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus904") / "corpus.json"
    assert main(["gen-data", "--count", "90", "--seed", "904", "--out", str(path)]) == 0
    return read_json(path)


def _off_the_road(corpus, tmp_path, scenario, frame):
    """``corpus`` with the second actor of one frame at x = 99, written to
    ``tmp_path``; returns its path and the scenario id."""
    obj = json.loads(json.dumps(corpus))
    obj["scenarios"][scenario]["frames"][frame]["actors"][1]["state"]["location"][0] = 99.0
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(obj))
    return str(bad), obj["scenarios"][scenario]["id"]


@pytest.mark.parametrize("command", ["eval", "perturb", "simulate"])
def test_frame_error_names_its_scenario_and_frame(
    pipeline, corpus_904, tmp_path, capsys, command
):
    # scenario 5 is a cyclist cut-in; its bicycle leaves the road in frame 2
    bad, scenario_id = _off_the_road(corpus_904, tmp_path, 5, 2)
    assert scenario_id == "OncomingCyclistCutIn-s904-0005"
    extra = {
        "eval": ["--model", pipeline["model"], "--subset", "all"],
        "perturb": ["--model", pipeline["model"], "--frame", "2"],
        "simulate": ["--profiles", "Normal", "--frame", "2"],
    }[command]
    out = tmp_path / "out"
    assert main([command, "--data", bad, *extra, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_version_mismatch"
    assert err["message"] == (
        f"scenario {scenario_id}, frame 2: Bicycle at x=99.00 lies in no road element"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.json"]


@pytest.mark.parametrize("scenario", [5, 40])
def test_failed_perturb_leaves_no_output(pipeline, corpus_904, tmp_path, capsys, scenario):
    # scenario 40 fails after a first full batch of decoded graphs
    bad, scenario_id = _off_the_road(corpus_904, tmp_path, scenario, 0)
    out = tmp_path / "decoded.jsonl"
    code = main(["perturb", "--data", bad, "--model", pipeline["model"], "--out", str(out)])
    assert code == 3
    assert scenario_id in json.loads(capsys.readouterr().err)["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.json"]


@pytest.mark.parametrize("command", ["eval", "perturb"])
def test_checkpoint_that_is_not_json_exits_3(pipeline, tmp_path, capsys, command):
    bad = tmp_path / "model.txt"
    bad.write_text("model weights go here\n")
    code = main([
        command, "--data", pipeline["corpus"], "--model", str(bad),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "schema_version_mismatch"


_COMMAND_INPUTS = {
    "train": lambda pipeline: [],
    "eval": lambda pipeline: ["--model", pipeline["model"], "--subset", "all"],
    "perturb": lambda pipeline: ["--model", pipeline["model"]],
    "simulate": lambda pipeline: ["--profiles", "Normal"],
}


@pytest.mark.parametrize("command", sorted(_COMMAND_INPUTS))
def test_scenario_without_frames_exits_3(pipeline, tmp_path, capsys, command):
    obj = read_json(pipeline["corpus"])
    obj["scenarios"][2]["frames"] = []
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "out"
    code = main([command, "--data", str(bad), *_COMMAND_INPUTS[command](pipeline), "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_version_mismatch"
    assert obj["scenarios"][2]["id"] in err["message"]
    assert "holds no frames" in err["message"]
    assert not out.exists()


def _filter_after_build(corpus, model_path, subset):
    """What ``eval`` reported before it picked scenarios first: every
    instance of the corpus built, split by the scenario ids they carry, and
    filtered."""
    instances = corpus_instances(corpus)
    tc = read_json(model_path)["train_config"]
    split = scenario_split([ext.scenario_id for ext in instances], tc["split"], tc["seed"])
    wanted = set(split[subset])
    chosen = [ext for ext in instances if ext.scenario_id in wanted]
    probs, labels = pooled_predictions(load_checkpoint(model_path), chosen)
    return sweep(probs, labels).to_json(), len(chosen)


@pytest.mark.parametrize("subset", ["test", "val"])
def test_eval_subset_with_a_one_frame_scenario_matches_filtering_after_the_build(
    pipeline, corpus_904, tmp_path, subset
):
    obj = json.loads(json.dumps(corpus_904))
    tc = read_json(pipeline["model"])["train_config"]
    ids = [scn["id"] for scn in obj["scenarios"]]
    # a one-frame scenario yields no instance; cut one that would move the
    # split if the split counted it
    short = next(
        k
        for k in range(len(ids))
        if scenario_split(ids[:k] + ids[k + 1 :], tc["split"], tc["seed"])[subset]
        != [i for i in scenario_split(ids, tc["split"], tc["seed"])[subset] if i != ids[k]]
    )
    obj["scenarios"][short]["frames"] = obj["scenarios"][short]["frames"][:1]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "eval.json"
    assert main([
        "eval", "--data", str(path), "--model", pipeline["model"], "--subset", subset,
        "--out", str(out),
    ]) == 0
    got = read_json(out)
    corpus, _ = read_corpus(str(path))
    want, n_instances = _filter_after_build(corpus, pipeline["model"], subset)
    assert got["n_instances"] == n_instances > 0
    for key in ("provenance", "schema_version", "subset", "n_instances"):
        del got[key]
    assert got == json.loads(json.dumps(want))
