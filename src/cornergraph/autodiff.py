"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Define-by-run: while a ``Tape`` is active, every op appends a record holding
its parents and a backward closure; ``backward`` seeds the scalar loss with 1
and walks the records in exact reverse order, accumulating into the ``grad``
of the leaves (tensors no record produced, such as parameters).
Without an active tape the same ops run forward-only, which is what inference
uses.

Gradients accumulate across backward calls until ``zero_grad``; this is
deliberate and relied on nowhere, but matches the usual contract.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NotScalar(ValueError):
    pass


class MissingSelfEdge(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise NotScalar(f"tensor of shape {self.data.shape} is not a scalar")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Record:
    __slots__ = ("output", "parents", "backward_fn")

    def __init__(self, output, parents, backward_fn):
        self.output = output
        self.parents = parents
        self.backward_fn = backward_fn


_TAPE_STACK: list = []


class Tape:
    """Ordered record of one forward pass; parents always precede children."""

    def __init__(self):
        self.records: list = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``grad`` of every leaf that
        requires it.  A leaf is a tensor no record of this tape produced;
        the gradients of the others live only in this pass.

        Contributions to one tensor are summed into a fresh array: a backward
        closure may hand the same array to several parents (``add`` returns
        ``(g, g)``), so adding into it in place would corrupt the others.
        """
        if loss.data.size != 1:
            raise NotScalar("backward needs a scalar loss")
        grads: dict = {id(loss): np.ones_like(loss.data)}
        tensors: dict = {id(loss): loss}
        for rec in reversed(self.records):
            out_grad = grads.pop(id(rec.output), None)
            if out_grad is None:
                continue
            for parent, g in zip(rec.parents, rec.backward_fn(out_grad)):
                if g is None:
                    continue
                key = id(parent)
                seen = grads.get(key)
                if seen is None:
                    grads[key] = g
                    tensors[key] = parent
                else:
                    grads[key] = seen + g
        # every record output has been popped: what is left are the leaves
        for key, g in grads.items():
            leaf = tensors[key]
            if leaf.requires_grad:
                if leaf.grad is None:
                    leaf.grad = np.zeros_like(leaf.data)
                leaf.grad += g


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def apply(parents: Sequence[Tensor], out_data: np.ndarray, backward_fn: Callable) -> Tensor:
    """Register one op.  ``backward_fn(out_grad)`` must return one gradient
    array (or None) per parent, in order."""
    out = Tensor(out_data, requires_grad=any(p.requires_grad for p in parents))
    tape = _active_tape()
    if tape is not None:
        tape.records.append(_Record(out, tuple(parents), backward_fn))
    return out


def backward(loss: Tensor) -> None:
    tape = _active_tape()
    if tape is None:
        raise RuntimeError("backward requires an active Tape")
    tape.backward(loss)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


# --- primitive ops ---------------------------------------------------------


def matvec(w: Tensor, x: Tensor) -> Tensor:
    if w.data.ndim != 2 or x.data.ndim != 1 or w.data.shape[1] != x.data.shape[0]:
        raise ShapeMismatch(f"matvec {w.data.shape} @ {x.data.shape}")
    out = w.data @ x.data

    def bwd(g):
        return np.outer(g, x.data), w.data.T @ g

    return apply((w, x), out, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Row-batched affine map: (n, in) @ (out, in)^T [+ b]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeMismatch(f"linear {x.data.shape} @ {w.data.shape}^T")
    out = x.data @ w.data.T
    if b is not None:
        if b.data.shape != (w.data.shape[0],):
            raise ShapeMismatch(f"bias {b.data.shape} for {w.data.shape}")
        out = out + b.data

    if b is None:

        def bwd(g):
            return g @ w.data, g.T @ x.data

        return apply((x, w), out, bwd)

    def bwd_b(g):
        return g @ w.data, g.T @ x.data, g.sum(axis=0)

    return apply((x, w, b), out, bwd_b)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"add {a.data.shape} + {b.data.shape}")
    return apply((a, b), a.data + b.data, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"sub {a.data.shape} - {b.data.shape}")
    return apply((a, b), a.data - b.data, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mul {a.data.shape} * {b.data.shape}")
    return apply((a, b), a.data * b.data, lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return apply((a,), a.data * c, lambda g: (g * c,))


def concat(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeMismatch("concat of zero parts")
    for p in parts:
        if p.data.ndim != 1:
            raise ShapeMismatch("concat expects 1-D tensors")
    sizes = [p.data.shape[0] for p in parts]
    out = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(g[offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return apply(tuple(parts), out, bwd)


def hstack(parts: Sequence[Tensor]) -> Tensor:
    """Column-wise concatenation of equal-height 2-D tensors."""
    parts = list(parts)
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeMismatch("hstack expects 2-D tensors")
    heights = {p.data.shape[0] for p in parts}
    if len(heights) != 1:
        raise ShapeMismatch(f"hstack height mismatch {sorted(heights)}")
    widths = [p.data.shape[1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + widths)

    def bwd(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return apply(tuple(parts), out, bwd)


def gather_rows(x: Tensor, index) -> Tensor:
    idx = np.asarray(index, dtype=np.int64)
    out = x.data[idx]

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return apply((x,), out, bwd)


def segment_sum(x: Tensor, segments, n: int) -> Tensor:
    seg = np.asarray(segments, dtype=np.int64)
    if x.data.shape[0] != seg.shape[0]:
        raise ShapeMismatch("segment ids must align with rows")
    out = np.zeros((n,) + x.data.shape[1:], dtype=np.float64)
    np.add.at(out, seg, x.data)

    def bwd(g):
        return (g[seg],)

    return apply((x,), out, bwd)


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    if x.data.ndim != 2 or s.data.ndim != 1 or x.data.shape[0] != s.data.shape[0]:
        raise ShapeMismatch(f"scale_rows {x.data.shape} by {s.data.shape}")
    out = x.data * s.data[:, None]

    def bwd(g):
        return g * s.data[:, None], (g * x.data).sum(axis=1)

    return apply((x, s), out, bwd)


def flatten(x: Tensor) -> Tensor:
    shape = x.data.shape
    return apply((x,), x.data.reshape(-1), lambda g: (g.reshape(shape),))


def as_row(x: Tensor) -> Tensor:
    """View a length-n vector as a (1, n) matrix."""
    if x.data.ndim != 1:
        raise ShapeMismatch("as_row expects a 1-D tensor")
    n = x.data.shape[0]
    return apply((x,), x.data.reshape(1, n), lambda g: (g.reshape(n),))


def as_column(x: Tensor) -> Tensor:
    """View a length-n vector as an (n, 1) matrix."""
    if x.data.ndim != 1:
        raise ShapeMismatch("as_column expects a 1-D tensor")
    n = x.data.shape[0]
    return apply((x,), x.data.reshape(n, 1), lambda g: (g.reshape(n),))


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    mask = x.data > 0
    out = np.where(mask, x.data, slope * x.data)
    return apply((x,), out, lambda g: (g * np.where(mask, 1.0, slope),))


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    mask = x.data > 0
    # expm1 only sees the non-positive branch; large positives would overflow
    out = np.where(mask, x.data, alpha * np.expm1(np.minimum(x.data, 0.0)))

    def bwd(g):
        return (g * np.where(mask, 1.0, out + alpha),)

    return apply((x,), out, bwd)


def sigmoid(x: Tensor) -> Tensor:
    out = 0.5 * (1.0 + np.tanh(0.5 * x.data))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return apply((x,), out, bwd)


def log(x: Tensor) -> Tensor:
    return apply((x,), np.log(x.data), lambda g: (g / x.data,))


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape
    return apply((x,), np.asarray(x.data.sum()), lambda g: (np.broadcast_to(g, shape).copy(),))


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    shape = x.data.shape

    def bwd(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return apply((x,), np.asarray(x.data.mean()), bwd)


# --- grouped softmax -------------------------------------------------------


def _group_layout(groups):
    gid = np.asarray(groups, dtype=np.int64)
    uniq, inverse = np.unique(gid, return_inverse=True)
    return uniq, inverse


def grouped_softmax(values: Tensor, groups) -> Tensor:
    """Softmax within each group, max-stabilized; weights per group sum to 1.

    ``groups`` is a per-entry group id; ids may be arbitrary integers and
    need not be contiguous.
    """
    if values.data.ndim != 1:
        raise ShapeMismatch("grouped_softmax expects a 1-D tensor")
    uniq, inv = _group_layout(groups)
    if values.data.shape[0] == 0:
        raise ShapeMismatch("grouped_softmax of zero entries")
    maxes = np.full(uniq.shape[0], -np.inf)
    np.maximum.at(maxes, inv, values.data)
    exps = np.exp(values.data - maxes[inv])
    sums = np.bincount(inv, weights=exps, minlength=uniq.shape[0])
    out = exps / sums[inv]

    def bwd(g):
        weighted = np.bincount(inv, weights=g * out, minlength=uniq.shape[0])
        return (out * (g - weighted[inv]),)

    return apply((values,), out, bwd)


def neighborhood_softmax(scores: Iterable) -> list:
    """Normalize plain ``(group_id, value)`` pairs to ``(group_id, weight)``.

    Same kernel as ``grouped_softmax`` but on floats, for callers that do not
    need gradients.
    """
    pairs = list(scores)
    if not pairs:
        return []
    gids = [g for g, _ in pairs]
    vals = np.asarray([v for _, v in pairs], dtype=np.float64)
    uniq, inv = _group_layout(gids)
    maxes = np.full(uniq.shape[0], -np.inf)
    np.maximum.at(maxes, inv, vals)
    exps = np.exp(vals - maxes[inv])
    sums = np.bincount(inv, weights=exps, minlength=uniq.shape[0])
    weights = exps / sums[inv]
    return [(g, float(w)) for g, w in zip(gids, weights)]
