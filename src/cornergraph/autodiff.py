"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Define-by-run: while a ``Tape`` is active, every op appends a record holding
its parents and a backward closure; ``backward`` seeds the scalar loss with 1
and walks the records in exact reverse order, accumulating into the ``grad``
of the leaves (tensors no record produced, such as parameters).
Without an active tape the same ops run forward-only, which is what inference
uses.

An op is one call to ``apply``, with its backward written next to its
forward.  Each block of the model is an op of its own, defined in
``model``; this module holds the engine and ``elu``, the one element-wise
op the model applies between blocks.

Gradients accumulate across backward calls, in place once a leaf has a
``grad``: ``model.ModelParams.zero_grad`` binds each parameter's ``grad`` to
a view of one flat buffer and zeroes that buffer between steps.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
        closure may hand the same array to several parents, so adding into it
        in place would corrupt the others.
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


def elu(x: Tensor) -> Tensor:
    mask = x.data > 0
    # expm1 only sees the non-positive branch; large positives would overflow
    out = np.where(mask, x.data, np.expm1(np.minimum(x.data, 0.0)))
    return apply((x,), out, lambda g: (g * np.where(mask, 1.0, out + 1.0),))
