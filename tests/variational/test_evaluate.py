"""Batched grid evaluation vs per-point evaluation — they must agree.

``evaluate_grid`` runs a whole parameter sweep as one batch of the
batched statevector engine, one row per grid point; these tests pin it
to the scalar path (`expectation`, `exact_probabilities`) point by
point, including controlled gates (the shared ``control_sliced_view``
slicing) and multi-parameter affine angles (the engine's per-row
matrix-stack case).
"""

import numpy as np
import pytest

from repro.errors import QwertyTypeError, SimulationError
from repro.parameters import ParamExpr, Parameter
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.variational import (
    evaluate_grid,
    exact_probabilities,
    expectation,
    hardware_efficient_ansatz,
    ising_observable,
    maxcut_observable,
    qaoa_maxcut_ansatz,
)
from repro.variational.evaluate import grid_probabilities

theta = Parameter("theta")
phi = Parameter("phi")


def _controlled_symbolic_circuit() -> Circuit:
    """h, controlled-p(2θ+0.1), rx(φ): controls + affine + plain mix."""
    circuit = Circuit(2, 0)
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(CircuitGate("h", (1,)))
    circuit.add(
        CircuitGate("p", (1,), controls=(0,), params=(2 * theta + 0.1,))
    )
    circuit.add(CircuitGate("rx", (1,), params=(ParamExpr.of(phi),)))
    circuit.add(CircuitGate("x", (0,), controls=(1,), ctrl_states=(0,)))
    return circuit


class TestExactProbabilities:
    def test_bell_distribution(self):
        circuit = Circuit(2, 0)
        circuit.add(CircuitGate("h", (0,)))
        circuit.add(CircuitGate("x", (1,), controls=(0,)))
        probs = exact_probabilities(circuit)
        assert probs == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_symbolic_circuit_requires_values(self):
        circuit = Circuit(1, 0)
        circuit.add(CircuitGate("ry", (0,), params=(ParamExpr.of(theta),)))
        with pytest.raises(QwertyTypeError, match="theta"):
            exact_probabilities(circuit)
        probs = exact_probabilities(circuit, {"theta": np.pi})
        assert probs == pytest.approx([0.0, 1.0])

    def test_rejects_mid_circuit_measurement_and_reset(self):
        circuit = Circuit(1, 1)
        circuit.add(Measurement(0, 0))
        circuit.add(CircuitGate("x", (0,)))
        with pytest.raises(SimulationError, match="mid-circuit"):
            exact_probabilities(circuit)
        resetting = Circuit(1, 0)
        resetting.add(Reset(0))
        with pytest.raises(SimulationError, match="reset"):
            exact_probabilities(resetting)


class TestExpectation:
    def test_exact_vs_sampled_agree(self):
        circuit, params = hardware_efficient_ansatz(3, layers=1)
        obs = ising_observable(3, [(0, 1), (1, 2)], h=0.2)
        rng = np.random.default_rng(3)
        values = {p.name: rng.uniform(-1, 1) for p in params}
        exact = expectation(circuit, obs, values)
        sampled = expectation(circuit, obs, values, shots=60_000, seed=1)
        assert sampled == pytest.approx(exact, abs=0.05)

    def test_shots_validation(self):
        circuit, _ = hardware_efficient_ansatz(1, layers=0)
        obs = ising_observable(1, [], h=1.0)
        with pytest.raises(SimulationError, match="shots"):
            expectation(circuit, obs, {"theta_0_0": 0.1}, shots=0)


class TestEvaluateGrid:
    def test_matches_per_point_on_hea(self):
        circuit, params = hardware_efficient_ansatz(3, layers=2)
        obs = ising_observable(3, [(0, 1), (1, 2)], j=0.8, h=-0.4)
        rng = np.random.default_rng(0)
        grid = {p.name: rng.uniform(-np.pi, np.pi, 11) for p in params}
        batched = evaluate_grid(circuit, obs, grid)
        for g in range(11):
            point = {name: grid[name][g] for name in grid}
            assert batched[g] == pytest.approx(
                expectation(circuit, obs, point), abs=1e-12
            )

    def test_matches_per_point_with_controls_and_affine_angles(self):
        circuit = _controlled_symbolic_circuit()
        obs = maxcut_observable([(0, 1)])
        rng = np.random.default_rng(1)
        grid = {
            "theta": rng.uniform(-np.pi, np.pi, 9),
            "phi": rng.uniform(-np.pi, np.pi, 9),
        }
        batched = evaluate_grid(circuit, obs, grid)
        for g in range(9):
            point = {name: grid[name][g] for name in grid}
            assert batched[g] == pytest.approx(
                expectation(circuit, obs, point), abs=1e-12
            )

    def test_grid_probabilities_match_per_point_exact(self):
        """Controlled symbolic gates (both polarities, two controls),
        fixed one- and two-qubit gates and affine angles in one circuit:
        every grid row equals that point's B = 1 evolution."""
        circuit = Circuit(4, 0)
        for q in range(4):
            circuit.add(CircuitGate("h", (q,)))
        circuit.add(
            CircuitGate("ry", (2,), controls=(0,), ctrl_states=(0,),
                        params=(ParamExpr.of(theta),))
        )
        circuit.add(CircuitGate("swap", (1, 3)))
        circuit.add(
            CircuitGate("rz", (3,), controls=(1, 2), ctrl_states=(1, 0),
                        params=(0.5 * theta - phi + 0.2,))
        )
        circuit.add(CircuitGate("z", (1,), controls=(0,)))
        circuit.add(CircuitGate("rx", (0,), params=(ParamExpr.of(phi),)))
        circuit.add(CircuitGate("t", (2,)))
        circuit.add(CircuitGate("p", (1,), controls=(3,),
                                params=(2 * phi,)))
        rng = np.random.default_rng(5)
        grid = {
            "theta": rng.uniform(-np.pi, np.pi, 13),
            "phi": rng.uniform(-np.pi, np.pi, 13),
        }
        rows = grid_probabilities(circuit, grid)
        assert rows.shape == (13, 16)
        for g in range(13):
            point = {name: grid[name][g] for name in grid}
            assert np.abs(
                rows[g] - exact_probabilities(circuit, point)
            ).max() <= 1e-12

    def test_qaoa_grid(self):
        circuit, params = qaoa_maxcut_ansatz(4, [(0, 1), (1, 2), (2, 3)])
        obs = maxcut_observable([(0, 1), (1, 2), (2, 3)])
        grid = {
            p.name: np.linspace(0.1, 1.2, 6) * (i + 1)
            for i, p in enumerate(params)
        }
        batched = evaluate_grid(circuit, obs, grid)
        assert batched.shape == (6,)
        point = {p.name: grid[p.name][2] for p in params}
        assert batched[2] == pytest.approx(
            expectation(circuit, obs, point), abs=1e-12
        )

    def test_parameter_objects_accepted_as_grid_keys(self):
        circuit = Circuit(1, 0)
        circuit.add(CircuitGate("ry", (0,), params=(ParamExpr.of(theta),)))
        obs = ising_observable(1, [], h=1.0)
        angles = np.linspace(0.0, np.pi, 5)
        by_name = evaluate_grid(circuit, obs, {"theta": angles})
        by_param = evaluate_grid(circuit, obs, {theta: angles})
        assert by_name == pytest.approx(by_param)
        # <Z> under ry(t) is cos(t).
        assert by_name == pytest.approx(np.cos(angles), abs=1e-12)

    def test_grid_validation(self):
        circuit = Circuit(1, 0)
        circuit.add(CircuitGate("ry", (0,), params=(ParamExpr.of(theta),)))
        obs = ising_observable(1, [], h=1.0)
        with pytest.raises(QwertyTypeError, match="missing"):
            evaluate_grid(circuit, obs, {})
        with pytest.raises(QwertyTypeError, match="mismatched"):
            grid_probabilities(
                circuit, {"theta": [0.1, 0.2], "phi": [0.3]}
            )

    def test_empty_grid(self):
        circuit = Circuit(1, 0)
        circuit.add(CircuitGate("ry", (0,), params=(ParamExpr.of(theta),)))
        probs = grid_probabilities(circuit, {"theta": []})
        assert probs.shape == (0, 2)
