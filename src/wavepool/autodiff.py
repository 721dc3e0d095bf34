"""Minimal dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy float array plus an optional tape node: the tuple of
parent tensors and a closure mapping the output gradient to parent
gradients.  Calling ``backward()`` on a scalar loss, or with an explicit
seed of the value's shape, walks the tape once in reverse topological order
(``graphlib``'s, reversed) and accumulates ``.grad`` arrays on every leaf
that requires gradient.

The operators a Tensor defines itself are the same-shape ``+`` of the
residual connection and scaling by a constant.  Every other differentiable
op (convolution, batchnorm, pooling, the losses, input normalization) lives
in ``ops``, ``pooling`` or ``backbone`` and records its node through
``make_op``.

Everything runs in double precision: a Tensor stores its data as float64
whatever the input dtype, and the correctness tolerances assume it.

Gradient recording can be suspended with the ``no_grad()`` context manager,
used for evaluation passes and for teacher forward passes during
distillation.

Randomness comes from ``make_rng``: numpy's PCG64 generator behind a
SeedSequence, so one integer seed from a config file reproducibly derives
every weight init and batch shuffle.
"""

from __future__ import annotations

import contextlib
import graphlib

import numpy as np

from .errors import ShapeMismatch

_recording = True


@contextlib.contextmanager
def no_grad():
    """Context manager suspending tape construction."""
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


class Tensor:
    """Array value plus optional autodiff tape node.

    Parameters
    ----------
    data : array_like
        Values; converted to a float64 numpy array.
    requires_grad : bool
        Leaf flag; interior nodes set it automatically from their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # -- the residual connection, and scaling by a constant --------------

    def __add__(self, other: "Tensor") -> "Tensor":
        """Same-shape sum; any shape difference raises ShapeMismatch."""
        if self.data.shape != other.data.shape:
            raise ShapeMismatch(f"add: {self.data.shape} vs {other.data.shape}")
        return make_op(self.data + other.data, (self, other), lambda g: (g, g))

    def __mul__(self, c: float) -> "Tensor":
        """Scale by a constant (``perfbench`` perturbs a forward with it)."""
        c = float(c)
        return make_op(self.data * c, (self,), lambda g: (g * c,))

    # -- tape walk ---------------------------------------------------------

    def backward(self, grad=None) -> None:
        """Reverse-mode sweep seeding this tensor's gradient.

        Without an explicit seed the tensor must be scalar (a loss).
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeMismatch("backward() without seed requires a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeMismatch(f"seed shape {grad.shape} != value shape {self.data.shape}")

        order = _toposort(self)
        grads = {id(self): grad.copy()}
        for t in order:
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t.requires_grad and t._backward is None:
                t.grad = g if t.grad is None else t.grad + g
            if t._backward is None:
                continue
            for parent, pg in zip(t._parents, t._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def _toposort(root: Tensor):
    """The tape below ``root``, each tensor before its parents (root first)."""
    graph, stack = {}, [root]
    while stack:
        node = stack.pop()
        if node not in graph:
            graph[node] = node._parents
            stack.extend(node._parents)
    return list(graphlib.TopologicalSorter(graph).static_order())[::-1]


def is_recorded(parents) -> bool:
    """Whether an op on ``parents`` records a tape node: gradients are on
    and some parent requires gradient."""
    return _recording and any(p.requires_grad for p in parents)


def make_op(data, parents, backward_fn) -> Tensor:
    """Create an op output, recording the tape node when gradients are on."""
    if is_recorded(parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn)
    return Tensor(data)


class Parameter(Tensor):
    """A learnable leaf tensor carrying an SGD momentum buffer.

    Batchnorm running statistics are not Parameters: they live outside the
    tape as plain arrays.
    """

    __slots__ = ("momentum",)

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.momentum = np.zeros_like(self.data)


def make_rng(seed: int) -> np.random.Generator:
    """Root generator: PCG64 behind a SeedSequence built from one integer."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
