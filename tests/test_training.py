import math

import numpy as np
import pytest

from cornergraph import autodiff as ad
from cornergraph.extended import extend, label_candidates
from cornergraph.frames import build_scene_graph
from cornergraph.model import BATCH_SIZE, ModelParams, forward
from cornergraph.scenarios import (
    ScenarioTemplate,
    generate,
    ground_truth_graph,
    to_instances,
)
from cornergraph.training import (
    EmptyBatch,
    TooFewScenarios,
    TrainConfig,
    TrainLog,
    UnlabeledInstance,
    _Adam,
    _compiled_chunks,
    _mean_loss,
    bce_loss,
    fit,
    pooled_predictions,
    scenario_split,
    train,
)


def bce_oracle(probs, labels, weight=1.0):
    total = 0.0
    for p, y in zip(probs, labels):
        p = min(max(p, 1e-12), 1.0 - 1e-12)
        total += -(weight * y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
    return total / len(probs)


def small_dataset(n_scenarios=4, seed=3):
    scenarios = generate(ScenarioTemplate.ONCOMING_CYCLIST_CUT_IN, seed, n_scenarios)
    out = []
    for scn in scenarios:
        out.extend(to_instances(scn))
    return out, scenarios


def test_bce_matches_hand_oracle():
    rng = np.random.default_rng(0)
    probs = rng.uniform(0.01, 0.99, size=40)
    labels = (rng.random(40) < 0.3).astype(float)
    assert bce_loss(probs, labels) == pytest.approx(bce_oracle(probs, labels), abs=1e-12)
    assert bce_loss(probs, labels, positive_weight=2.5) == pytest.approx(
        bce_oracle(probs, labels, 2.5), abs=1e-12
    )


def test_bce_gradient_matches_finite_difference():
    rng = np.random.default_rng(1)
    probs = rng.uniform(0.05, 0.95, size=12)
    labels = (rng.random(12) < 0.4).astype(float)
    with ad.Tape() as tape:
        loss = bce_loss(ad.Tensor(probs.copy()), labels, positive_weight=1.7)
    grad = tape.backward(loss)
    step = 1e-6
    for j in range(probs.size):
        bumped = probs.copy()
        bumped[j] += step
        hi = bce_loss(bumped, labels, 1.7)
        bumped[j] -= 2 * step
        lo = bce_loss(bumped, labels, 1.7)
        fd = (hi - lo) / (2 * step)
        assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_bce_rejects_empty_and_mismatched():
    with pytest.raises(EmptyBatch):
        bce_loss(np.array([]), np.array([]))
    x = ad.Tensor(np.array([0.5, 0.5]))
    with ad.Tape():
        with pytest.raises(ad.ShapeMismatch):
            bce_loss(x, np.array([1.0]))


def test_scenario_split_partitions_ids():
    ids = [f"scn-{i:03d}" for i in range(31)]
    split = scenario_split(ids, (0.70, 0.20, 0.10), seed=9)
    assert len(split["test"]) == round(31 * 0.10)
    assert len(split["val"]) == round(31 * 0.20)
    assert len(split["train"]) == 31 - len(split["test"]) - len(split["val"])
    all_back = split["train"] + split["val"] + split["test"]
    assert sorted(all_back) == ids
    assert len(set(all_back)) == 31
    for part in split.values():
        assert part == sorted(part)


def test_scenario_split_is_seed_deterministic_and_duplicate_safe():
    ids = [f"s{i}" for i in range(10)]
    a = scenario_split(ids + ids, (0.7, 0.2, 0.1), seed=2)
    b = scenario_split(list(reversed(ids)), (0.7, 0.2, 0.1), seed=2)
    assert a == b
    c = scenario_split(ids, (0.7, 0.2, 0.1), seed=3)
    assert a != c


def test_scenario_split_keeps_at_least_one_training_scenario():
    split = scenario_split(["a", "b"], (0.0, 0.5, 0.5), seed=0)
    assert len(split["train"]) >= 1
    assert len(split["train"]) + len(split["val"]) + len(split["test"]) == 2
    with pytest.raises(TooFewScenarios):
        scenario_split([], (0.7, 0.2, 0.1), seed=0)


def _step_loss(params, ext):
    with ad.Tape() as tape:
        loss = bce_loss(forward(params, ext), np.asarray(ext.labels(), dtype=float))
        tape.backward(loss)
    return float(loss.data)


def test_adam_fit_equals_a_per_tensor_reference(tiny_dims):
    dataset, _ = small_dataset(n_scenarios=2)
    train_insts = dataset[:5]
    cfg = TrainConfig(learning_rate=3e-3, epochs=3, seed=5, early_stop_patience=99)
    params, log = fit(train_insts, [], cfg, tiny_dims)

    # fit's loop, with Adam written out tensor by tensor on fresh arrays
    ref = ModelParams.initialize(tiny_dims, seed=cfg.seed)
    m = {name: np.zeros_like(t.data) for name, t in ref.items()}
    v = {name: np.zeros_like(t.data) for name, t in ref.items()}
    rng = np.random.default_rng(cfg.seed + 1)
    step, best, rows, snapshot = 0, math.inf, [], None
    for epoch in range(cfg.epochs):
        losses = []
        for idx in rng.permutation(len(train_insts)):
            ref.zero_grad()
            losses.append(_step_loss(ref, train_insts[idx]))
            step += 1
            b1t = 1.0 - _Adam.beta1**step
            b2t = 1.0 - _Adam.beta2**step
            for name, t in ref.items():
                g = t.grad
                m[name] = m[name] * _Adam.beta1 + (1.0 - _Adam.beta1) * g
                v[name] = v[name] * _Adam.beta2 + (1.0 - _Adam.beta2) * g * g
                update = (m[name] / b1t) / (np.sqrt(v[name] / b2t) + _Adam.eps)
                t.data = t.data - cfg.learning_rate * update
        rows.append((epoch, float(np.mean(losses)), None))
        if rows[-1][1] < best:
            best = rows[-1][1]
            snapshot = {name: t.data.copy() for name, t in ref.items()}

    assert step == cfg.epochs * len(train_insts)
    assert log.rows == rows
    for name, t in params.items():
        assert np.array_equal(t.data, snapshot[name]), name


def test_every_parameter_gets_a_gradient_in_every_step(tiny_dims):
    # the flat optimizer steps every tensor; the per-tensor loop it replaced
    # skipped a tensor without a gradient, so the two agree only while every
    # training step reaches every tensor, which leaves it a nonzero gradient
    instances = [
        ext
        for template in ScenarioTemplate
        for scenario in generate(template, 4, 2)
        for ext in to_instances(scenario)
    ]
    params = ModelParams.initialize(tiny_dims, seed=0)
    for ext in instances:
        params.zero_grad()
        _step_loss(params, ext)
        assert [name for name, t in params.items() if not t.grad.any()] == []


def test_zero_learning_rate_leaves_params_unchanged(tiny_dims):
    dataset, _ = small_dataset(n_scenarios=1)
    cfg = TrainConfig(learning_rate=0.0, epochs=2, seed=1, early_stop_patience=99)
    params, _ = fit(dataset, [], cfg, tiny_dims)
    init = ModelParams.initialize(tiny_dims, seed=cfg.seed)
    for name, t in params.items():
        np.testing.assert_array_equal(t.data, init[name].data)


def test_adam_moves_parameters_and_reduces_loss(tiny_dims):
    dataset, _ = small_dataset(n_scenarios=2)
    cfg = TrainConfig(learning_rate=3e-3, epochs=8, seed=0, early_stop_patience=99)
    params, log = fit(dataset, [], cfg, tiny_dims)
    assert log.rows[-1][1] < log.rows[0][1]
    init = ModelParams.initialize(tiny_dims, seed=0)
    assert any(
        not np.array_equal(t.data, init[name].data) for name, t in params.items()
    )


def test_training_is_deterministic(tiny_dims):
    dataset, _ = small_dataset(n_scenarios=3)
    cfg = TrainConfig(learning_rate=2e-3, epochs=3, seed=12)
    p1, log1 = train(dataset, cfg, tiny_dims)
    p2, log2 = train(dataset, cfg, tiny_dims)
    for name, t in p1.items():
        np.testing.assert_array_equal(t.data, p2[name].data)
    assert log1.rows == log2.rows
    assert log1.split == log2.split


def test_train_records_scenario_split(tiny_dims):
    dataset, scenarios = small_dataset(n_scenarios=5)
    cfg = TrainConfig(epochs=1, seed=0)
    _, log = train(dataset, cfg, tiny_dims)
    assert set(log.split) == {"train", "val", "test"}
    combined = log.split["train"] + log.split["val"] + log.split["test"]
    assert sorted(combined) == sorted(s.id for s in scenarios)


def test_early_stopping_honors_patience(tiny_dims):
    dataset, _ = small_dataset(n_scenarios=1)
    cfg = TrainConfig(learning_rate=0.0, epochs=50, seed=2, early_stop_patience=3)
    # a single instance keeps the epoch loss bit-identical across shuffles
    _, log = fit(dataset[:1], [], cfg, tiny_dims)
    # constant loss: epoch 0 is best, then patience epochs with no improvement
    assert log.stopped_early is True
    assert log.best_epoch == 0
    assert len(log.rows) == 1 + cfg.early_stop_patience


@pytest.mark.parametrize(
    "name, value",
    [
        ("early_stop_patience", 0),
        ("seed", -1),
        ("split", (0.5, 0.5)),
        ("split", (0.7, 0.2, 1.5)),
        ("split", (0.7, math.nan, 0.1)),
    ],
)
def test_train_config_rejects_a_field_out_of_range(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})


def test_unlabeled_dataset_rejected(simple_frame, tiny_dims):
    bare = extend(build_scene_graph(simple_frame), target_frame=5)
    with pytest.raises(UnlabeledInstance):
        train([bare], TrainConfig(epochs=1), tiny_dims)
    with pytest.raises(EmptyBatch):
        train([], TrainConfig(epochs=1), tiny_dims)


def test_pooled_predictions_concatenate(tiny_dims):
    dataset, _ = small_dataset(n_scenarios=2)
    params = ModelParams.initialize(tiny_dims, seed=0)
    y_hat, y = pooled_predictions(params, dataset)
    assert y_hat.shape == y.shape
    assert y_hat.size == sum(len(ext.candidates) for ext in dataset)
    assert set(np.unique(y)) <= {0, 1}
    with pytest.raises(EmptyBatch):
        pooled_predictions(params, [])


def test_pooled_predictions_keep_instance_order(tiny_dims):
    dataset, _ = small_dataset(n_scenarios=6)
    assert len(dataset) > BATCH_SIZE
    order = np.random.default_rng(5).permutation(len(dataset))
    shuffled = [dataset[i] for i in order]
    params = ModelParams.initialize(tiny_dims, seed=3)
    y_hat, y = pooled_predictions(params, shuffled)
    want = np.concatenate([forward(params, ext).data for ext in shuffled])
    np.testing.assert_allclose(y_hat, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(y, np.concatenate([ext.labels() for ext in shuffled]))


def test_mean_loss_is_mean_of_instance_losses(tiny_dims):
    dataset, _ = small_dataset(n_scenarios=6)
    params = ModelParams.initialize(tiny_dims, seed=4)
    per_instance = [
        bce_loss(forward(params, ext).data, np.asarray(ext.labels()), 1.7)
        for ext in dataset
    ]
    compiled = _compiled_chunks(dataset)
    assert len(compiled) > 1
    assert _mean_loss(params, compiled, 1.7) == pytest.approx(np.mean(per_instance), abs=1e-12)
    assert _mean_loss(params, _compiled_chunks([]), 1.7) is None


def test_train_log_csv(tmp_path):
    log = TrainLog(rows=[(0, 0.7, 0.8), (1, 0.6, None)])
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",") == ["epoch", "train_loss", "val_loss"]
    assert lines[1].startswith("0,")
    assert len(lines) == 3
