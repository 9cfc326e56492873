"""Per-instance training loop with scenario-level splits.

Instances from the same scenario share a ground truth, so leakage control
happens at the scenario level: the train/validation/test split (and the k-fold
partition) assign whole scenarios.  One optimizer step per instance; the
returned parameters are the snapshot with the best validation loss.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .extended import ExtendedGraph
from .metrics import sweep
from .model import DEFAULT_DIMS, ModelDims, ModelParams, forward, predict_each


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
    optimizer: str = "adam"  # "adam" | "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    split: tuple = (0.70, 0.20, 0.10)
    k_folds: int = 3
    positive_weight: float = 1.0
    early_stop_patience: int = 20


def bce_loss(y_hat, y, positive_weight: float = 1.0):
    """Mean binary cross-entropy with clamped probabilities.

    ``y_hat`` may be a Tensor (gradients flow) or an array (returns a float).
    Positive terms are scaled by ``positive_weight``.
    """
    if isinstance(y_hat, Tensor):
        labels = np.asarray(y, dtype=np.float64)
        if y_hat.data.size == 0:
            raise EmptyBatch("no predictions to score")
        if y_hat.data.shape != labels.shape:
            raise ad.ShapeMismatch(
                f"predictions {y_hat.data.shape} vs labels {labels.shape}"
            )
        w = float(positive_weight)
        p = np.clip(y_hat.data, _CLAMP_LO, _CLAMP_HI)
        terms = w * labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)
        out = np.asarray(-terms.mean())
        inside = (y_hat.data >= _CLAMP_LO) & (y_hat.data <= _CLAMP_HI)
        n = labels.size

        def bwd(g):
            dp = -(w * labels / p - (1.0 - labels) / (1.0 - p)) / n
            return (g * np.where(inside, dp, 0.0),)

        return ad.apply((y_hat,), out, bwd)

    arr = np.asarray(y_hat, dtype=np.float64)
    if arr.size == 0:
        raise EmptyBatch("no predictions to score")
    labels = np.asarray(y, dtype=np.float64)
    w = float(positive_weight)
    p = np.clip(arr, _CLAMP_LO, _CLAMP_HI)
    terms = w * labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)
    return float(-terms.mean())


class _Adam:
    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.t = 0

    def step(self, params: ModelParams) -> None:
        cfg = self.cfg
        self.t += 1
        b1t = 1.0 - cfg.beta1**self.t
        b2t = 1.0 - cfg.beta2**self.t
        for name, tensor in params.items():
            if tensor.grad is None:
                continue
            g = tensor.grad
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            update = (m / b1t) / (np.sqrt(v / b2t) + cfg.eps)
            tensor.data = tensor.data - cfg.learning_rate * update


class _Sgd:
    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg

    def step(self, params: ModelParams) -> None:
        for _, tensor in params.items():
            if tensor.grad is None:
                continue
            tensor.data = tensor.data - self.cfg.learning_rate * tensor.grad


def _make_optimizer(params: ModelParams, cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return _Adam(params, cfg)
    if cfg.optimizer == "sgd":
        return _Sgd(params, cfg)
    raise ValueError(f"unknown optimizer {cfg.optimizer!r}")


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)  # (epoch, train_loss, val_loss|None)
    best_epoch: int = -1
    stopped_early: bool = False
    split: dict | None = None  # scenario ids per partition, when train() made one

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
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
        for c in ext.candidates:
            if c.label is None:
                raise UnlabeledInstance(
                    f"instance {ext.scenario_id}/{ext.base.frame_index} is unlabeled"
                )


def _by_scenario(dataset, ids):
    keep = set(ids)
    subset = [ext for ext in dataset if ext.scenario_id in keep]
    subset.sort(key=lambda ext: (ext.scenario_id, ext.base.frame_index))
    return subset


def _mean_loss(params, instances, positive_weight):
    """Mean of the per-instance losses, or None without instances."""
    losses = [
        bce_loss(probs, np.asarray(ext.labels()), positive_weight)
        for ext, probs in predict_each(params, instances)
    ]
    return float(np.mean(losses)) if losses else None


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
    optimizer = _make_optimizer(params, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    log = TrainLog()

    best = math.inf
    best_params = params.clone()
    since_best = 0
    train_insts = list(train_insts)

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_insts))
        epoch_losses = []
        for idx in order:
            ext = train_insts[idx]
            labels = np.asarray(ext.labels(), dtype=np.float64)
            with Tape() as tape:
                probs = forward(params, ext)
                loss = bce_loss(probs, labels, cfg.positive_weight)
                tape.backward(loss)
            epoch_losses.append(loss.item())
            optimizer.step(params)
            params.zero_grad()
        train_loss = float(np.mean(epoch_losses))
        val_loss = _mean_loss(params, val_insts, cfg.positive_weight)
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
        labels.append(np.asarray(ext.labels(), dtype=np.int64))
    if not probs:
        raise EmptyBatch("no instances to score")
    return np.concatenate(probs), np.concatenate(labels)


@dataclass(frozen=True)
class FoldReport:
    fold: int
    n_train_scenarios: int
    n_eval_scenarios: int
    val_loss: float
    f1: float
    auc: float


def k_fold_evaluate(
    dataset: Sequence[ExtendedGraph],
    cfg: TrainConfig = TrainConfig(),
    dims: ModelDims = DEFAULT_DIMS,
) -> list:
    """Rotate a scenario-level partition; each fold serves once as the held-out
    set (validation for early stopping, and the set the fold's F1/AUC are
    computed on).  Remainder scenarios go to the earliest folds.
    """
    _check_labeled(dataset)
    ids = sorted({ext.scenario_id for ext in dataset})
    k = cfg.k_folds
    if len(ids) < k:
        raise TooFewScenarios(f"{len(ids)} scenarios cannot fill {k} folds")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    base, rem = divmod(len(ids), k)
    folds = []
    at = 0
    for i in range(k):
        size = base + (1 if i < rem else 0)
        folds.append(shuffled[at : at + size])
        at += size

    reports = []
    for i, held_out in enumerate(folds):
        train_ids = [sid for j, fold in enumerate(folds) if j != i for sid in fold]
        train_insts = _by_scenario(dataset, train_ids)
        eval_insts = _by_scenario(dataset, held_out)
        params, log = fit(train_insts, eval_insts, cfg, dims)
        y_hat, y = pooled_predictions(params, eval_insts)
        report = sweep(y_hat, y)
        best_row = min(
            (row for row in log.rows if row[2] is not None),
            key=lambda row: row[2],
            default=(log.best_epoch, math.nan, math.nan),
        )
        reports.append(
            FoldReport(
                fold=i,
                n_train_scenarios=len(train_ids),
                n_eval_scenarios=len(held_out),
                val_loss=float(best_row[2]),
                f1=report.best_f1,
                auc=report.auc,
            )
        )
    return reports


def summarize_folds(reports: Sequence[FoldReport]) -> dict:
    val = np.array([r.val_loss for r in reports])
    f1 = np.array([r.f1 for r in reports])
    auc = np.array([r.auc for r in reports])
    return {
        "val_loss_mean": float(val.mean()),
        "val_loss_std": float(val.std()),
        "f1_mean": float(f1.mean()),
        "f1_std": float(f1.std()),
        "auc_mean": float(auc.mean()),
        "auc_std": float(auc.std()),
    }
