"""Dense tensors on a reverse-mode tape.

Ops execute eagerly on NumPy arrays and, while a :class:`Tape` is active,
append nodes in execution order. Backward replays the tape in reverse, so
multi-output ops (the LSTM's h and c) need no special casing. Without an active
tape, ops run in inference mode at plain NumPy cost.

A tape and its tensors belong to a single training run and are mutated
single-threaded; the active tape is thread-local so concurrent inference in
other threads never records.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import ShapeError

_tls = threading.local()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = False

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named tensor the optimizer updates; declaration order is checkpoint layout."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data)
        self.requires_grad = True
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, dtype={self.dtype})"


def as_tensor(x) -> Tensor:
    """``x`` itself if it is a tensor, else a constant tensor over it."""
    return x if isinstance(x, Tensor) else Tensor(x)


class RowGrad(NamedTuple):
    """A gradient that is zero outside some rows: row ``rows[k]`` is ``values[k]``.

    ``rows`` are distinct, and no value is -0.0. The tape adds it into one
    dense buffer per tensor, so a table read by several lookups holds one
    table-sized gradient instead of one per lookup.
    """

    rows: np.ndarray
    values: np.ndarray


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

    def backward(self, loss: Tensor, params: Sequence[Tensor]) -> None:
        """Reverse-accumulate gradients of a scalar loss into leaf tensors.

        One pass over the nodes, last first: a node's output gradients are
        complete when it runs, since every consumer was recorded after it.
        Leaves are the tensors with ``requires_grad`` that some node consumed
        and no node on this tape returned. Each gets its gradient in
        ``.grad``, or added to the ``.grad`` it has. Parameters passed in
        ``params`` that the loss never touched get explicit zero gradients.

        Each node's backward closure is dropped once it has run, so the
        arrays it saved are freed as the pass goes; the nodes stay in
        ``nodes``, and a tape runs backward once.

        Gradient arrays are handed over without a copy, so two leaves may
        share one array (both operands of ``add`` do). The tape writes in
        place only into buffers it allocated: the one dense buffer a tensor
        gets for its :class:`RowGrad` gradients. Treat ``.grad`` as
        read-only: accumulate with ``grad + g``, never in place.
        """
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        if self.nodes and self.nodes[-1].backward is None:
            raise RuntimeError("backward already ran on this tape")
        # id -> [tensor, gradient, owned]. The seed names no tensor, so a loss
        # that no node consumed gets no .grad.
        grads: dict[int, list] = {id(loss): [None, np.ones_like(loss.data), False]}
        for node in reversed(self.nodes):
            # The closure is freed when `backward` is rebound for the next
            # node, after this node's gradients are accumulated. Freed before
            # them, its arrays went back to the heap in an order that cost a
            # desk LSTM call about 2,500 page faults under the CLI's malloc
            # thresholds (tests/test_cli.py::TestAllocator), against none.
            backward, node.backward = node.backward, None
            out_grads = [grads.pop(id(o), (None, None))[1] for o in node.outputs]
            if all(g is None for g in out_grads):
                continue
            out_grads = [
                g if g is not None else np.zeros_like(o.data)
                for g, o in zip(out_grads, node.outputs)
            ]
            in_grads = backward(out_grads)
            for t, g in zip(node.inputs, in_grads):
                if g is not None and t.requires_grad:
                    _accumulate(grads, t, g)
        for t, g, _ in grads.values():
            if t is not None:
                t.grad = g if t.grad is None else t.grad + g
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


def _accumulate(grads: dict[int, list], t: Tensor, g) -> None:
    """Add ``g`` to ``t``'s entry in ``grads``, with the bits of ``seen + g`` in tape order.

    A :class:`RowGrad` goes into a dense buffer the tape owns, in place when
    the entry already is one. An owned buffer holds no -0.0: it starts as a
    RowGrad written into +0.0 zeros, or as a sum with such a buffer, and
    x + y is -0.0 only when both are. So leaving its other rows alone gives
    the bits of adding their +0.0. An array from an op is never written.
    """
    seen = grads.get(id(t))
    if not isinstance(g, RowGrad):
        grads[id(t)] = [t, g, False] if seen is None else [t, seen[1] + g, seen[2]]
    elif seen is not None and seen[2]:
        seen[1][g.rows] += g.values
    else:
        dense = np.zeros_like(t.data)
        dense[g.rows] = g.values
        grads[id(t)] = [t, dense if seen is None else seen[1] + dense, True]


def record(
    inputs: tuple[Tensor, ...],
    outputs: tuple[np.ndarray, ...],
    backward: Callable[[list[np.ndarray]], Sequence[Optional[np.ndarray]]],
) -> tuple[Tensor, ...]:
    """An op's output arrays as tensors. With a tape active and some input needing
    a gradient, they need one too, and the tape records the op's node."""
    tensors = tuple(map(Tensor, outputs))
    tape = Tape.current()
    if tape is None or not any(t.requires_grad for t in inputs):
        return tensors
    for o in tensors:
        o.requires_grad = True
    tape.nodes.append(_Node(inputs, tensors, backward))
    return tensors
