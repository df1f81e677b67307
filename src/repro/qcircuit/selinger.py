"""Multi-controlled gate decomposition (paper §6.5).

ASDF decomposes multi-controlled gates with Selinger's controlled-iX
scheme [42] to reduce T counts on fault-tolerant hardware: AND chains
are computed into ancillas with *relative-phase* Toffolis (4 T each,
the controlled-iX trick) whose phases cancel on uncomputation, leaving
roughly 8(n-1) T gates per n-controlled X — about half the cost of the
textbook ladder built from full 7-T Toffolis, which is kept here as the
``naive`` mode used by the Qiskit/Quipper-style baselines (§8.3).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import SourceSpan, SynthesisError
from repro.parameters import is_symbolic
from repro.qcircuit.circuit import Circuit, CircuitGate


class _Gates:
    """Builds the gates of one decomposition.

    Every gate a source gate decomposes into inherits its classical
    ``condition`` and provenance span ``loc``, so each emitted gate is
    constructed exactly once, already carrying both.
    """

    __slots__ = ("condition", "loc")

    def __init__(
        self,
        condition: Optional[tuple[int, int]] = None,
        loc: Optional[SourceSpan] = None,
    ) -> None:
        self.condition = condition
        self.loc = loc

    def __call__(self, name, target, controls=(), params=()) -> CircuitGate:
        return CircuitGate(
            name,
            (target,),
            tuple(controls),
            # Halved/negated symbolic angles stay symbolic through the
            # decomposition (the ParamExpr arithmetic already happened).
            tuple(p if is_symbolic(p) else float(p) for p in params),
            (),
            self.condition,
            loc=self.loc,
        )

    def cx(self, control: int, target: int) -> CircuitGate:
        return self("x", target, (control,))


_PLAIN = _Gates()


def relative_phase_toffoli(
    a: int, b: int, t: int, g: _Gates = _PLAIN
) -> list[CircuitGate]:
    """A controlled-iX-style Toffoli: CCX up to relative phase, 4 T."""
    return [
        g("h", t),
        g("t", t),
        g.cx(b, t),
        g("tdg", t),
        g.cx(a, t),
        g("t", t),
        g.cx(b, t),
        g("tdg", t),
        g("h", t),
    ]


def full_toffoli(a: int, b: int, t: int, g: _Gates = _PLAIN) -> list[CircuitGate]:
    """The textbook 7-T Toffoli."""
    return [
        g("h", t),
        g.cx(b, t),
        g("tdg", t),
        g.cx(a, t),
        g("t", t),
        g.cx(b, t),
        g("tdg", t),
        g.cx(a, t),
        g("t", b),
        g("t", t),
        g("h", t),
        g.cx(a, b),
        g("t", a),
        g("tdg", b),
        g.cx(a, b),
    ]


def _cp(g: _Gates, control: int, target: int, theta: float) -> list[CircuitGate]:
    """Controlled-P(theta)."""
    return [
        g("p", control, params=[theta / 2]),
        g.cx(control, target),
        g("p", target, params=[-theta / 2]),
        g.cx(control, target),
        g("p", target, params=[theta / 2]),
    ]


def _ch(g: _Gates, control: int, target: int) -> list[CircuitGate]:
    """Controlled-H (verified against the exact unitary in tests)."""
    return [
        g("s", target),
        g("h", target),
        g("t", target),
        g.cx(control, target),
        g("tdg", target),
        g("h", target),
        g("sdg", target),
    ]


def _crz(g: _Gates, control: int, target: int, theta: float) -> list[CircuitGate]:
    return [
        g("rz", target, params=[theta / 2]),
        g.cx(control, target),
        g("rz", target, params=[-theta / 2]),
        g.cx(control, target),
    ]


def _cry(g: _Gates, control: int, target: int, theta: float) -> list[CircuitGate]:
    return [
        g("ry", target, params=[theta / 2]),
        g.cx(control, target),
        g("ry", target, params=[-theta / 2]),
        g.cx(control, target),
    ]


def _crx(g: _Gates, control: int, target: int, theta: float) -> list[CircuitGate]:
    return (
        [g("h", target)]
        + _crz(g, control, target, theta)
        + [g("h", target)]
    )


_SINGLE_CONTROL = {
    "z": lambda g, c, t, params: _cp(g, c, t, math.pi),
    "s": lambda g, c, t, params: _cp(g, c, t, math.pi / 2),
    "sdg": lambda g, c, t, params: _cp(g, c, t, -math.pi / 2),
    "t": lambda g, c, t, params: _cp(g, c, t, math.pi / 4),
    "tdg": lambda g, c, t, params: _cp(g, c, t, -math.pi / 4),
    "p": lambda g, c, t, params: _cp(g, c, t, params[0]),
    "h": lambda g, c, t, params: _ch(g, c, t),
    "rz": lambda g, c, t, params: _crz(g, c, t, params[0]),
    "ry": lambda g, c, t, params: _cry(g, c, t, params[0]),
    "rx": lambda g, c, t, params: _crx(g, c, t, params[0]),
    "y": lambda g, c, t, params: [g("sdg", t), g.cx(c, t), g("s", t)],
}


class _Decomposer:
    def __init__(self, num_qubits: int, use_selinger: bool) -> None:
        self.num_qubits = num_qubits
        self.use_selinger = use_selinger
        self.out: list = []
        self.g = _PLAIN
        self._free: list[int] = []

    def alloc(self) -> int:
        if self._free:
            return self._free.pop()
        qubit = self.num_qubits
        self.num_qubits += 1
        return qubit

    def free(self, qubit: int) -> None:
        self._free.append(qubit)

    def toffoli(self, a: int, b: int, t: int, relative: bool) -> None:
        if relative and self.use_selinger:
            self.out.extend(relative_phase_toffoli(a, b, t, self.g))
        else:
            self.out.extend(full_toffoli(a, b, t, self.g))

    def and_ladder(self, controls: list[int]) -> tuple[int, list]:
        """Compute the AND of all controls into a fresh ancilla.

        Returns (result qubit, undo log).  Relative-phase Toffolis are
        safe here because the exact-inverse uncompute cancels their
        phases (the controlled-iX trick).
        """
        log = []
        current = controls[0]
        for next_control in controls[1:]:
            ancilla = self.alloc()
            start = len(self.out)
            self.toffoli(current, next_control, ancilla, relative=True)
            log.append((start, len(self.out), ancilla))
            current = ancilla
        return current, log

    def undo_ladder(self, log: list) -> None:
        for start, stop, ancilla in reversed(log):
            for gate in reversed(self.out[start:stop]):
                self.out.append(gate.dagger())
            self.free(ancilla)

    def emit(self, gate: CircuitGate) -> None:
        """Append the decomposition of ``gate``, which has controls."""
        self.g = _Gates(gate.condition, gate.loc)
        # Normalize negative controls with X conjugation.
        flips = [
            qubit
            for qubit, state in zip(gate.controls, gate.ctrl_states)
            if state == 0
        ]
        for qubit in flips:
            self.out.append(self.g("x", qubit))
        self._emit_positive(
            gate.name, gate.targets, list(gate.controls), gate.params
        )
        for qubit in reversed(flips):
            self.out.append(self.g("x", qubit))

    def _emit_positive(self, name, targets, controls, params) -> None:
        """Decompose ``name`` on ``targets`` controlled on |1> of every
        qubit in ``controls`` (at least one)."""
        g = self.g
        if name == "swap":
            # cswap = CX(b,a) . C^{n+1}X . CX(b,a).
            a, b = targets
            self.out.append(g.cx(b, a))
            self._emit_positive("x", (b,), controls + [a], ())
            self.out.append(g.cx(b, a))
            return
        (target,) = targets
        if name == "x":
            if len(controls) == 1:
                self.out.append(g.cx(controls[0], target))
                return
            if len(controls) == 2:
                self.toffoli(controls[0], controls[1], target, relative=False)
                return
            # AND-ladder the first n-1 controls, then a plain Toffoli.
            result, log = self.and_ladder(controls[:-1])
            self.toffoli(result, controls[-1], target, relative=False)
            self.undo_ladder(log)
            return
        # Other gates: reduce to a single control via the AND ladder.
        if len(controls) == 1:
            builder = _SINGLE_CONTROL.get(name)
            if builder is None:
                raise SynthesisError(
                    f"no controlled decomposition for gate {name!r}"
                )
            self.out.extend(builder(g, controls[0], target, params))
            return
        result, log = self.and_ladder(controls)
        self._emit_positive(name, targets, [result], params)
        self.undo_ladder(log)


def decompose_multi_controlled(
    circuit: Circuit, use_selinger: bool = True
) -> Circuit:
    """Rewrite the circuit over {single-qubit gates, CX, SWAP}.

    ``use_selinger=True`` applies the controlled-iX scheme (paper
    §6.5); ``use_selinger=False`` uses full 7-T Toffolis throughout,
    modeling the costlier decompositions of baseline compilers.
    Decomposed gates inherit the source gate's condition and
    provenance span.
    """
    decomposer = _Decomposer(circuit.num_qubits, use_selinger)
    for inst in circuit.instructions:
        if isinstance(inst, CircuitGate) and inst.controls:
            decomposer.emit(inst)
        else:
            decomposer.out.append(inst)
    return Circuit(
        decomposer.num_qubits,
        circuit.num_bits,
        decomposer.out,
        list(circuit.output_bits),
    )
