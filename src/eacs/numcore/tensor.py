"""Dense tensors on a reverse-mode tape.

Ops execute eagerly on NumPy arrays and, while a :class:`Tape` is active,
append nodes in execution order. Backward replays the tape in reverse, so
multi-output ops (the LSTM cell) need no special casing. Without an active
tape, ops run in inference mode at plain NumPy cost.

A tape and its tensors belong to a single training run and are mutated
single-threaded; the active tape is thread-local so concurrent inference in
other threads never records.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ShapeError

_tls = threading.local()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named tensor the optimizer updates; declaration order is checkpoint layout."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, dtype={self.dtype})"


def as_tensor(x, like: Optional[np.ndarray] = None) -> Tensor:
    """Wrap a constant; cast to ``like``'s dtype so float32 graphs stay float32."""
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if like is not None and arr.dtype != like.dtype:
        arr = arr.astype(like.dtype)
    return Tensor(arr)


class _Node:
    __slots__ = ("inputs", "outputs", "backward")

    def __init__(
        self,
        inputs: tuple[Tensor, ...],
        outputs: tuple[Tensor, ...],
        backward: Callable[[list[np.ndarray]], Sequence[Optional[np.ndarray]]],
    ):
        self.inputs = inputs
        self.outputs = outputs
        self.backward = backward


class Tape:
    """Append-only record of op nodes for one forward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tls.stack.pop()

    @staticmethod
    def current() -> Optional["Tape"]:
        stack = getattr(_tls, "stack", None)
        return stack[-1] if stack else None

    def backward(self, loss: Tensor, params: Sequence[Tensor] = ()) -> None:
        """Reverse-accumulate gradients of a scalar loss into leaf tensors.

        Parameters passed in ``params`` that the loss never touched get
        explicit zero gradients.
        """
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        produced = {id(o) for node in self.nodes for o in node.outputs}
        for node in reversed(self.nodes):
            out_grads = [grads.get(id(o)) for o in node.outputs]
            if all(g is None for g in out_grads):
                continue
            out_grads = [
                g if g is not None else np.zeros_like(o.data)
                for g, o in zip(out_grads, node.outputs)
            ]
            in_grads = node.backward(out_grads)
            for t, g in zip(node.inputs, in_grads):
                if g is None or not t.requires_grad:
                    continue
                seen = grads.get(id(t))
                grads[id(t)] = g if seen is None else seen + g
        leaves: dict[int, Tensor] = {}
        for node in self.nodes:
            for t in node.inputs:
                if t.requires_grad and id(t) not in produced:
                    leaves[id(t)] = t
        for key, t in leaves.items():
            g = grads.get(key)
            if g is None:
                continue
            t.grad = g.copy() if t.grad is None else t.grad + g
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


def record(
    inputs: tuple[Tensor, ...],
    outputs: tuple[Tensor, ...],
    backward: Callable[[list[np.ndarray]], Sequence[Optional[np.ndarray]]],
) -> None:
    tape = Tape.current()
    if tape is None:
        return
    if not any(t.requires_grad for t in inputs):
        return
    for o in outputs:
        o.requires_grad = True
    tape.nodes.append(_Node(inputs, outputs, backward))
