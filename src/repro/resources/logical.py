"""Logical resource counting.

Counts the fault-tolerant cost drivers of a decomposed circuit (single
qubit gates + CX only): T gates, non-Clifford rotations (each later
charged a synthesis cost in T), Clifford gates, measurements, and the
logical depth (ASAP scheduling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset


def _is_t_like(gate: CircuitGate) -> bool:
    if gate.name in ("t", "tdg"):
        return True
    if gate.name in ("p", "rz", "rx", "ry"):
        theta = gate.params[0] % (2 * math.pi)
        eighth = math.pi / 4
        remainder = theta % eighth
        on_eighth = min(remainder, eighth - remainder) < 1e-12
        quarter = math.pi / 2
        remainder_q = theta % quarter
        on_quarter = min(remainder_q, quarter - remainder_q) < 1e-12
        return on_eighth and not on_quarter
    return False


def _is_arbitrary_rotation(gate: CircuitGate) -> bool:
    if gate.name not in ("p", "rz", "rx", "ry"):
        return False
    theta = gate.params[0] % (2 * math.pi)
    eighth = math.pi / 4
    remainder = theta % eighth
    return min(remainder, eighth - remainder) >= 1e-12


@dataclass(frozen=True)
class LogicalCounts:
    """Logical-level resource counts of one circuit."""

    logical_qubits: int
    t_gates: int
    rotations: int
    clifford_gates: int
    measurements: int
    logical_depth: int


def count_logical_resources(circuit: Circuit) -> LogicalCounts:
    """Count logical resources; the circuit should already be
    decomposed to single-qubit gates and CX."""
    t_gates = 0
    rotations = 0
    cliffords = 0
    measurements = 0
    for inst in circuit.instructions:
        if isinstance(inst, Measurement):
            measurements += 1
        elif isinstance(inst, Reset):
            cliffords += 1
        elif isinstance(inst, CircuitGate):
            if _is_t_like(inst):
                t_gates += 1
            elif _is_arbitrary_rotation(inst):
                rotations += 1
            else:
                cliffords += 1
    return LogicalCounts(
        logical_qubits=circuit.num_qubits,
        t_gates=t_gates,
        rotations=rotations,
        clifford_gates=cliffords,
        measurements=measurements,
        logical_depth=circuit.depth(),
    )
