"""Minimal dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy float array.  A recorded op's output also holds its
tape node: the nodes of its parents and a closure mapping the output
gradient to parent gradients, and no array.  A Tensor that no recorded op
made (a ``Parameter``, an input) is its own node.  So an op output's array
lives only as long as a caller or a backward closure holds it, and each
closure captures only what its backward reads.  Calling ``backward()`` on a
scalar loss, or with an explicit seed of the value's shape, walks the tape
once in reverse topological order (``graphlib``'s, reversed) and
accumulates ``.grad`` arrays on every leaf that requires gradient.

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


class _Node:
    """A recorded op's place on the tape: its parents' nodes and its
    backward closure, and no array."""

    __slots__ = ("_parents", "_backward")
    requires_grad = True

    def __init__(self, parents, backward):
        self._parents = parents
        self._backward = backward


class Tensor:
    """Array value plus, for a recorded op's output, its tape node.

    Parameters
    ----------
    data : array_like
        Values; converted to a float64 numpy array.
    requires_grad : bool
        Leaf flag; op outputs set it automatically from their parents.

    ``_parents`` and ``_backward`` read (and ``_backward`` sets) the node's
    fields, so a tracer can walk the tape and wrap an op's backward; a
    Tensor that is its own node has no parents and no backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None  # None: the tensor is its own node

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn):
        self._node._backward = fn

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

        root = _node_of(self)
        grads = {root: grad.copy()}
        for node in _toposort(root):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                grads[parent] = grads[parent] + pg if parent in grads else pg


def _node_of(t: Tensor):
    return t if t._node is None else t._node


def _toposort(root):
    """The tape below node ``root``, each node before its parents (root
    first)."""
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
    """Create an op output, recording its tape node when gradients are on.

    The node keeps the parents' nodes, never their arrays, so
    ``backward_fn`` must capture whatever of its inputs it reads.
    """
    out = Tensor(data)
    if is_recorded(parents):
        out.requires_grad = True
        out._node = _Node(tuple(map(_node_of, parents)), backward_fn)
    return out


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
