"""Threshold-sweep evaluation for per-candidate edge probabilities.

The sweep walks every distinct predicted probability (plus a sentinel above
1.0 for the empty-positive point), builds the ROC curve, and picks operating
points: the Youden-J threshold for the headline confusion metrics and,
separately, the threshold with the best F1.  Ties on either objective resolve
to the lower threshold.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .graphs import open_output

_SENTINEL = 2.0


class DegenerateLabels(ValueError):
    """Both classes are required; a one-class label set has no ROC."""


def _validate(predictions, labels):
    preds = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if preds.ndim != 1 or y.ndim != 1 or preds.shape != y.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {y.shape}")
    if preds.size == 0:
        raise ValueError("empty prediction set")
    if np.any(preds < 0.0) or np.any(preds > 1.0):
        raise ValueError("predictions must lie in [0, 1]")
    if np.any((y != 0) & (y != 1)):
        raise ValueError("labels must be 0 or 1")
    if y.min() == y.max():
        raise DegenerateLabels("labels contain a single class")
    return preds, y


def confusion_at(predictions, labels, threshold: float) -> tuple:
    """(tp, fp, tn, fn) with positives predicted at p >= threshold."""
    preds = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    pos = preds >= threshold
    tp = int(np.sum(pos & (y == 1)))
    fp = int(np.sum(pos & (y == 0)))
    tn = int(np.sum(~pos & (y == 0)))
    fn = int(np.sum(~pos & (y == 1)))
    return tp, fp, tn, fn


@dataclass(frozen=True)
class EvalReport:
    auc: float
    youden_threshold: float
    youden_j: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    best_f1: float
    best_f1_threshold: float
    best_f1_precision: float
    best_f1_recall: float
    tp: int
    fp: int
    fn: int
    tn: int
    n_pos: int
    n_neg: int
    roc: tuple  # ((threshold, fpr, tpr), ...) in descending-threshold order
    pr: tuple  # ((threshold, recall, precision), ...)

    def to_json(self) -> dict:
        return {
            "auc": self.auc,
            "youden_threshold": self.youden_threshold,
            "youden_j": self.youden_j,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "best_f1": self.best_f1,
            "best_f1_threshold": self.best_f1_threshold,
            "best_f1_precision": self.best_f1_precision,
            "best_f1_recall": self.best_f1_recall,
            "confusion": {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn},
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
        }


def _curve(preds, y):
    """Confusion counts at every distinct threshold, descending.

    Returns parallel arrays (thresholds, tp, fp) including the sentinel row
    with zero predicted positives.  Samples tied on a predicted value enter
    as one block, which is what gives trapezoidal AUC its half-credit on ties.
    """
    order = np.argsort(-preds, kind="stable")
    sp = preds[order]
    sy = y[order]
    cum_tp = np.cumsum(sy)
    cum_fp = np.cumsum(1 - sy)
    # last index of each run of equal predictions
    boundary = np.nonzero(np.diff(sp))[0]
    last = np.concatenate([boundary, [sp.size - 1]])
    thresholds = np.concatenate([[_SENTINEL], sp[last]])
    tp = np.concatenate([[0], cum_tp[last]])
    fp = np.concatenate([[0], cum_fp[last]])
    return thresholds, tp, fp


def _last_argmax(values: np.ndarray) -> int:
    """Index of the last maximum: a scan from the lowest threshold up that
    moves only on a strictly greater value, so ties keep the lower
    threshold."""
    return len(values) - 1 - int(np.argmax(values[::-1]))


def sweep(predictions, labels) -> EvalReport:
    preds, y = _validate(predictions, labels)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    thresholds, tp, fp = _curve(preds, y)
    fn = n_pos - tp
    tn = n_neg - fp
    tpr = tp / n_pos
    fpr = fp / n_neg

    j = tpr - fpr
    best_j_at = _last_argmax(j)
    youden_threshold = float(thresholds[best_j_at])

    with np.errstate(divide="ignore", invalid="ignore"):
        denom = 2 * tp + fp + fn
        f1_all = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
        prec_all = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 1.0)
    best_f1_at = _last_argmax(f1_all)

    ctp, cfp = int(tp[best_j_at]), int(fp[best_j_at])
    cfn, ctn = n_pos - ctp, n_neg - cfp
    precision = ctp / (ctp + cfp) if ctp + cfp > 0 else 0.0
    recall = ctp / n_pos
    f1 = 2 * ctp / (2 * ctp + cfp + cfn) if 2 * ctp + cfp + cfn > 0 else 0.0

    thresholds, fpr, tpr = thresholds.tolist(), fpr.tolist(), tpr.tolist()
    # duplicate consecutive points would add zero-width trapezoids; drop them
    roc_rows = []
    prev = None
    for threshold, point in zip(thresholds, zip(fpr, tpr)):
        if point == prev:
            continue
        roc_rows.append((threshold, *point))
        prev = point
    xs = [r[1] for r in roc_rows]
    ys = [r[2] for r in roc_rows]
    auc = float(
        sum(
            (xs[i + 1] - xs[i]) * (ys[i + 1] + ys[i]) * 0.5
            for i in range(len(xs) - 1)
        )
    )
    pr_rows = list(zip(thresholds, tpr, prec_all.tolist()))

    btp, bfp = int(tp[best_f1_at]), int(fp[best_f1_at])
    best_f1_precision = btp / (btp + bfp) if btp + bfp > 0 else 0.0
    best_f1_recall = btp / n_pos

    return EvalReport(
        auc=auc,
        youden_threshold=youden_threshold,
        youden_j=float(j[best_j_at]),
        accuracy=(ctp + ctn) / y.size,
        precision=precision,
        recall=recall,
        f1=f1,
        best_f1=float(f1_all[best_f1_at]),
        best_f1_threshold=thresholds[best_f1_at],
        best_f1_precision=best_f1_precision,
        best_f1_recall=best_f1_recall,
        tp=ctp,
        fp=cfp,
        fn=cfn,
        tn=ctn,
        n_pos=n_pos,
        n_neg=n_neg,
        roc=tuple(roc_rows),
        pr=tuple(pr_rows),
    )


def write_roc_csv(report: EvalReport, path) -> None:
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for threshold, x, y in report.roc:
            writer.writerow([f"{threshold:.10f}", f"{x:.10f}", f"{y:.10f}"])


def write_pr_csv(report: EvalReport, path) -> None:
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "recall", "precision"])
        for threshold, r, p in report.pr:
            writer.writerow([f"{threshold:.10f}", f"{r:.10f}", f"{p:.10f}"])
