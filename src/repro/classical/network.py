"""XOR-AND graph (XAG) logic networks with hash-consing.

The network is the mockturtle substitute: ``@classical`` functions
lower to signals over primary inputs, AND nodes and XOR nodes, with
complemented edges.  Structural hashing and local rewrites (constant
folding, idempotence, annihilation) run at construction time, which
subsumes the classical optimizations ASDF gets from mockturtle for the
oracle workloads in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Signal:
    """An edge into the network: a node id plus a complement flag."""

    node: int
    complemented: bool = False

    def __invert__(self) -> "Signal":
        return Signal(self.node, not self.complemented)


@dataclass(frozen=True)
class _Node:
    """A network node: 'const', 'pi', 'and' or 'xor'."""

    kind: str
    operands: tuple[Signal, ...] = ()
    pi_index: int = -1


class LogicNetwork:
    """A hash-consed XAG.

    Node 0 is the constant-false node; ``Signal(0, False)`` is false
    and ``Signal(0, True)`` is true.
    """

    def __init__(self, num_inputs: int = 0) -> None:
        self.nodes: list[_Node] = [_Node("const")]
        self._pi_signals: list[Signal] = []
        self._strash: dict[tuple, int] = {}
        self.outputs: list[Signal] = []
        for _ in range(num_inputs):
            self.add_input()

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    @property
    def false(self) -> Signal:
        return Signal(0, False)

    @property
    def true(self) -> Signal:
        return Signal(0, True)

    def constant(self, value: bool) -> Signal:
        return self.true if value else self.false

    def add_input(self) -> Signal:
        index = len(self._pi_signals)
        self.nodes.append(_Node("pi", pi_index=index))
        signal = Signal(len(self.nodes) - 1)
        self._pi_signals.append(signal)
        return signal

    @property
    def inputs(self) -> list[Signal]:
        return list(self._pi_signals)

    @property
    def num_inputs(self) -> int:
        return len(self._pi_signals)

    def _intern(self, kind: str, a: Signal, b: Signal) -> Signal:
        if (a.node, a.complemented) > (b.node, b.complemented):
            a, b = b, a
        key = (kind, a, b)
        if key not in self._strash:
            self.nodes.append(_Node(kind, (a, b)))
            self._strash[key] = len(self.nodes) - 1
        return Signal(self._strash[key])

    def and_(self, a: Signal, b: Signal) -> Signal:
        # Constant folding and local rules.
        if a == self.false or b == self.false:
            return self.false
        if a == self.true:
            return b
        if b == self.true:
            return a
        if a == b:
            return a
        if a.node == b.node:  # a & ~a
            return self.false
        return self._intern("and", a, b)

    def xor_(self, a: Signal, b: Signal) -> Signal:
        if a == self.false:
            return b
        if b == self.false:
            return a
        if a == self.true:
            return ~b
        if b == self.true:
            return ~a
        if a == b:
            return self.false
        if a.node == b.node:  # a ^ ~a
            return self.true
        # Normalize complements out of XOR operands.
        complement = a.complemented ^ b.complemented
        result = self._intern(
            "xor", Signal(a.node), Signal(b.node)
        )
        return ~result if complement else result

    def or_(self, a: Signal, b: Signal) -> Signal:
        return ~self.and_(~a, ~b)

    def add_output(self, signal: Signal) -> None:
        self.outputs.append(signal)

    # ------------------------------------------------------------------
    # Inspection and evaluation.
    # ------------------------------------------------------------------
    def node(self, signal: Signal) -> _Node:
        return self.nodes[signal.node]

    def num_and_nodes(self) -> int:
        live = self.live_nodes()
        return sum(1 for i in live if self.nodes[i].kind == "and")

    def num_xor_nodes(self) -> int:
        live = self.live_nodes()
        return sum(1 for i in live if self.nodes[i].kind == "xor")

    def live_nodes(self) -> list[int]:
        """Node ids reachable from outputs, topologically ordered."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(node_id: int) -> None:
            if node_id in seen:
                return
            seen.add(node_id)
            for operand in self.nodes[node_id].operands:
                visit(operand.node)
            order.append(node_id)

        for output in self.outputs:
            visit(output.node)
        return order

    def evaluate(self, input_bits: list[int]) -> list[int]:
        """Evaluate the network on concrete inputs (for testing)."""
        if len(input_bits) != self.num_inputs:
            raise ValueError("wrong number of inputs")
        values: dict[int, int] = {0: 0}
        for node_id in self.live_nodes():
            node = self.nodes[node_id]
            if node.kind == "const":
                values[node_id] = 0
            elif node.kind == "pi":
                values[node_id] = input_bits[node.pi_index]
            else:
                a, b = node.operands
                va = values[a.node] ^ int(a.complemented)
                vb = values[b.node] ^ int(b.complemented)
                values[node_id] = va & vb if node.kind == "and" else va ^ vb
        # Inputs may be dead; make sure they evaluate anyway.
        for signal in self._pi_signals:
            values.setdefault(signal.node, input_bits[self.nodes[signal.node].pi_index])
        return [
            values.get(out.node, 0) ^ int(out.complemented)
            for out in self.outputs
        ]


def reduce_signals(
    network: LogicNetwork,
    signals: list[Signal],
    op: Callable[[Signal, Signal], Signal],
) -> Signal:
    """Balanced reduction of a signal list (for xor_reduce etc.)."""
    if not signals:
        return network.false
    layer = list(signals)
    while len(layer) > 1:
        next_layer = []
        for i in range(0, len(layer) - 1, 2):
            next_layer.append(op(layer[i], layer[i + 1]))
        if len(layer) % 2:
            next_layer.append(layer[-1])
        layer = next_layer
    return layer[0]
