"""The tape of one training step, and the model's error classes.

While a ``Tape`` is active, ``model.forward`` records one backward over its
blocks, which adds every parameter's gradient into ``ModelParams.flat_grad``
(gradients accumulate until ``zero_grad``), and ``training.bce_loss`` records
the loss's.  Without an active tape nothing is recorded: inference.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NotScalar(ValueError):
    pass


class MissingSelfEdge(ValueError):
    pass


class Tensor:
    """An array and, for a parameter, its gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None


_TAPES: list = []


def active_tape():
    """The innermost active ``Tape``, or None."""
    return _TAPES[-1] if _TAPES else None


class Tape:
    """The backwards of one step, in the order their forwards ran; each maps
    the gradient of its output to the gradient of its input."""

    def __init__(self):
        self.records: list = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def backward(self, loss: Tensor):
        """Run the records last first, from 1 for the scalar ``loss``, each
        on what the one after it returned; return what the first returns."""
        if loss.data.size != 1:
            raise NotScalar("backward needs a scalar loss")
        grad = np.ones_like(loss.data)
        for backward in reversed(self.records):
            grad = backward(grad)
        return grad
