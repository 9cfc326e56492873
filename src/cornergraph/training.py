"""Per-instance training loop with scenario-level splits.

Instances from the same scenario share a ground truth, so leakage control
happens at the scenario level: the train/validation/test split assigns whole
scenarios.  One optimizer step per instance; the returned parameters are the
snapshot with the best validation loss.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import ShapeMismatch, Tape, Tensor, active_tape
from .extended import ExtendedGraph
from .graphs import open_output
from .model import (
    DEFAULT_DIMS,
    ModelDims,
    ModelParams,
    chunks,
    compile_batch,
    forward,
    predict_batch,
    predict_each,
)


class EmptyBatch(ValueError):
    pass


class UnlabeledInstance(ValueError):
    pass


class TooFewScenarios(ValueError):
    pass


_CLAMP_LO = 1e-12
_CLAMP_HI = 1.0 - 1e-12


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 200
    seed: int = 0
    split: tuple = (0.70, 0.20, 0.10)
    positive_weight: float = 1.0
    early_stop_patience: int = 20

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.early_stop_patience < 1:
            raise ValueError(
                f"early_stop_patience must be at least 1, got {self.early_stop_patience}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if len(self.split) != 3 or not all(0.0 <= x <= 1.0 for x in self.split):
            raise ValueError(f"split must be three fractions in [0, 1], got {self.split!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(
                f"learning_rate must be finite and non-negative, got {self.learning_rate}"
            )
        if not (math.isfinite(self.positive_weight) and self.positive_weight > 0.0):
            raise ValueError(
                f"positive_weight must be finite and positive, got {self.positive_weight}"
            )


def bce_loss(y_hat, y, positive_weight: float = 1.0):
    """Mean binary cross-entropy with clamped probabilities.

    ``y_hat`` may be the Tensor ``forward`` returns, for a Tensor loss whose
    backward is recorded while a ``Tape`` is active, or an array, for a float.
    Positive terms are scaled by ``positive_weight``.
    """
    taped = isinstance(y_hat, Tensor)
    probs = y_hat.data if taped else np.asarray(y_hat, dtype=np.float64)
    labels = np.asarray(y, dtype=np.float64)
    if probs.size == 0:
        raise EmptyBatch("no predictions to score")
    if probs.shape != labels.shape:
        raise ShapeMismatch(f"predictions {probs.shape} vs labels {labels.shape}")
    w = float(positive_weight)
    p = np.clip(probs, _CLAMP_LO, _CLAMP_HI)
    terms = w * labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)
    loss = -terms.mean()
    tape = active_tape()
    if taped and tape is not None:

        def backward(g):
            inside = (probs >= _CLAMP_LO) & (probs <= _CLAMP_HI)
            dp = -(w * labels / p - (1.0 - labels) / (1.0 - p)) / labels.size
            return g * np.where(inside, dp, 0.0)

        tape.records.append(backward)
    return Tensor(loss) if taped else float(loss)


class _Adam:
    """Adam over the flat parameter buffers, in place, one pass per step.

    Each element goes through the same expressions, in the same order, as
    in an update written tensor by tensor, so the result does not depend on
    the buffer layout.  Temporaries go to two scratch buffers that live for
    one step only: the validation pass between epochs, the peak of a
    training run's memory, does not hold them.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.m = np.zeros(params.flat.size)
        self.v = np.zeros(params.flat.size)
        self.t = 0

    def step(self, params: ModelParams) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        g = params.flat_grad
        m, v = self.m, self.v
        a, b = np.empty_like(g), np.empty_like(g)
        # m = b1 * m + (1 - b1) * g
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=a)
        m += a
        # v = b2 * v + ((1 - b2) * g) * g
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=a)
        a *= g
        v += a
        # data -= lr * ((m / b1t) / (sqrt(v / b2t) + eps))
        np.divide(v, b2t, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, b1t, out=b)
        b /= a
        b *= self.cfg.learning_rate
        params.flat -= b


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)  # (epoch, train_loss, val_loss|None)
    best_epoch: int = -1
    stopped_early: bool = False
    split: dict | None = None  # scenario ids per partition, when train() made one

    def to_csv(self, path) -> None:
        with open_output(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss"])
            for epoch, train_loss, val_loss in self.rows:
                writer.writerow(
                    [
                        epoch,
                        f"{train_loss:.10f}",
                        "" if val_loss is None else f"{val_loss:.10f}",
                    ]
                )


def scenario_split(scenario_ids: Sequence[str], split: tuple, seed: int) -> dict:
    """Shuffle scenario ids and cut into train/val/test blocks.

    Sizes: round(n * fraction) for test and val, remainder to train, with a
    floor of one scenario in train.
    """
    ids = sorted(set(scenario_ids))
    n = len(ids)
    if n == 0:
        raise TooFewScenarios("no scenarios to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shuffled = [ids[i] for i in order]
    n_test = int(round(n * split[2]))
    n_val = int(round(n * split[1]))
    while n - n_test - n_val < 1 and (n_test > 0 or n_val > 0):
        if n_val >= n_test and n_val > 0:
            n_val -= 1
        else:
            n_test -= 1
    test = shuffled[:n_test]
    val = shuffled[n_test : n_test + n_val]
    train = shuffled[n_test + n_val :]
    return {"train": sorted(train), "val": sorted(val), "test": sorted(test)}


def _check_labeled(dataset: Sequence[ExtendedGraph]) -> None:
    if not dataset:
        raise EmptyBatch("dataset is empty")
    for ext in dataset:
        if ext.label_array is None:
            raise UnlabeledInstance(
                f"instance {ext.scenario_id}/{ext.frame_index} is unlabeled"
            )


def _by_scenario(dataset, ids):
    keep = set(ids)
    subset = [ext for ext in dataset if ext.scenario_id in keep]
    subset.sort(key=lambda ext: (ext.scenario_id, ext.frame_index))
    return subset


def _compiled_chunks(instances: Sequence[ExtendedGraph]) -> list:
    """``(GraphBatch, labels of each instance)`` per chunk of the instances,
    compiled once for every validation pass."""
    return [
        (compile_batch(chunk), [ext.labels() for ext in chunk]) for chunk in chunks(instances)
    ]


def _mean_loss(params, compiled, positive_weight):
    """Mean of the per-instance losses over compiled chunks, or None without
    instances."""
    losses = [
        bce_loss(probs, labels, positive_weight)
        for batch, chunk_labels in compiled
        for probs, labels in zip(predict_batch(params, batch), chunk_labels)
    ]
    return float(np.mean(losses)) if losses else None


def _loss_and_gradient(params: ModelParams, batch, labels: np.ndarray, positive_weight: float):
    """Accumulate the gradient of one compiled instance's loss and return the
    loss as a float.  The tape, and the activations it holds, are freed on
    return, before the optimizer step and the validation pass."""
    with Tape() as tape:
        loss = bce_loss(forward(params, batch), labels, positive_weight)
        tape.backward(loss)
    return float(loss.data)


def fit(
    train_insts: Sequence[ExtendedGraph],
    val_insts: Sequence[ExtendedGraph],
    cfg: TrainConfig,
    dims: ModelDims = DEFAULT_DIMS,
) -> tuple:
    """Train on explicit instance sets; select the best-validation snapshot.

    When the validation set is empty, the train loss drives snapshot selection
    and early stopping instead.
    """
    if not train_insts:
        raise EmptyBatch("no training instances")
    params = ModelParams.initialize(dims, seed=cfg.seed)
    optimizer = _Adam(params, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    log = TrainLog()

    best = math.inf
    best_params = params.clone()
    since_best = 0
    # each instance is compiled once, for every step and epoch
    train_batches = [compile_batch([ext]) for ext in train_insts]
    train_labels = [ext.labels() for ext in train_insts]
    val_chunks = _compiled_chunks(val_insts)

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_batches))
        epoch_losses = []
        for idx in order:
            params.zero_grad()
            epoch_losses.append(
                _loss_and_gradient(
                    params, train_batches[idx], train_labels[idx], cfg.positive_weight
                )
            )
            optimizer.step(params)
        train_loss = float(np.mean(epoch_losses))
        val_loss = _mean_loss(params, val_chunks, cfg.positive_weight)
        log.rows.append((epoch, train_loss, val_loss))

        monitored = val_loss if val_loss is not None else train_loss
        if monitored < best:
            best = monitored
            best_params.load_from(params)
            log.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.early_stop_patience:
                log.stopped_early = True
                break

    return best_params, log


def train(
    dataset: Sequence[ExtendedGraph],
    cfg: TrainConfig = TrainConfig(),
    dims: ModelDims = DEFAULT_DIMS,
) -> tuple:
    """Split by scenario, fit on the train block, and return (params, log).

    The scenario split used is recorded on the log so downstream evaluation
    can address the held-out test scenarios.
    """
    _check_labeled(dataset)
    split = scenario_split([ext.scenario_id for ext in dataset], cfg.split, cfg.seed)
    train_insts = _by_scenario(dataset, split["train"])
    val_insts = _by_scenario(dataset, split["val"])
    params, log = fit(train_insts, val_insts, cfg, dims)
    log.split = split
    return params, log


def pooled_predictions(params: ModelParams, instances: Sequence[ExtendedGraph]):
    """Concatenate per-candidate probabilities and labels across instances."""
    probs = []
    labels = []
    for ext, ext_probs in predict_each(params, instances):
        probs.append(ext_probs)
        labels.append(ext.labels())
    if not probs:
        raise EmptyBatch("no instances to score")
    return np.concatenate(probs), np.concatenate(labels)
