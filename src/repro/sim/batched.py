"""The batched statevector engine: ``B`` trajectories as one array.

:class:`BatchedStatevector` holds one ``(B, 2, 2, ..., 2)`` complex
array — axis 0 is the batch row, axis ``1 + q`` is qubit ``q`` — and is
the engine of every vectorized evaluation in the repository; the
callers differ only in what a row means and in ``B``:

- the terminal-measurement fast path (:mod:`repro.sim.backend`)
  evolves one row (B = 1) and samples every shot from ``|psi|^2``;
- :func:`batched_run` evolves one row per shot (B = shots) for
  circuits with mid-circuit measurement, classically conditioned
  gates, or mid-evolution reset, and for every noisy run;
- the variational grid (:mod:`repro.variational.evaluate`) evolves one
  row per parameter point (B = G), applying a ``(G, 2, 2)`` matrix
  stack for each symbolic gate; ``exact_probabilities`` is B = 1;
- :func:`apply_gates_to_state` is B = 1, and :func:`unitary_of_gates`
  evolves all 2^n basis columns as one B = 2^n batch.

Operations on the batch:

- gates apply via one :func:`~repro.sim.kernels.apply_matrix_inplace`
  sweep over the whole batch (the row axis rides along in the matmul's
  column dimension);
- a :class:`~repro.qcircuit.circuit.Measurement` computes every row's
  ``p(1)`` with one einsum, draws all outcomes from a single
  ``rng.random(shots)`` call, zeroes the complementary slice per row,
  and renormalizes each row;
- classically conditioned gates apply the unitary only to the
  boolean-masked sub-batch whose condition bit matches;
- :class:`~repro.qcircuit.circuit.Reset` composes a measurement with a
  masked X on the rows that collapsed to |1>;
- a Kraus channel (noisy runs — docs/noise.md) is unraveled with **one
  masked draw per application**: per-row operator probabilities
  ``||K_i |psi>||^2``, a single ``rng.random(shots)`` selection, and
  one masked sub-batch sweep per operator (:meth:`apply_kraus`).

Memory envelope: the batch array holds ``B x 2^n`` complex128
amplitudes (16 bytes each).  When a shot batch exceeds
:data:`MAX_BATCH_BYTES`, :func:`batched_run` splits the shots into
chunks and runs each chunk as its own batched sweep —
``RunInfo.evolutions`` reports the number of sweeps honestly (1 for
teleportation at 4096 shots; more only for very wide circuits at very
high shot counts).

The per-shot RNG streams of :func:`batched_run` differ from the
``interpreter`` backend's ``seed + shot`` convention (here one
``Generator(seed)`` drives every measurement of the batch), so results
agree in distribution, not bit for bit; the interpreter backend
(:class:`~repro.sim.statevector.StatevectorSimulator`) remains the
bit-exact per-shot reference.  See docs/simulators.md ("Engine map").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.fusion import FusedUnitary
from repro.sim.kernels import apply_matrix_inplace, gate_matrix
from repro.sim.statevector import control_sliced_view

#: Memory envelope for one batched state array, in bytes.  A batch of
#: ``shots`` trajectories on ``n`` qubits holds ``shots * 2^n``
#: complex128 amplitudes; shot counts that would exceed this envelope
#: are chunked into multiple batched sweeps.
MAX_BATCH_BYTES = 1 << 28  # 256 MiB

_BYTES_PER_AMPLITUDE = 16  # complex128

_SWEEPS = _metrics.counter(
    "repro_sim_sweeps_total",
    "Simulator sweeps by engine (batched evolutions, fast-path samples, "
    "interpreter trajectory loops)",
    labels=("engine",),
)


def batch_chunk_size(
    num_qubits: int, max_batch_bytes: int = MAX_BATCH_BYTES
) -> int:
    """Largest shot count whose batch state fits the memory envelope."""
    dim = 2 ** max(num_qubits, 1)
    return max(1, max_batch_bytes // (dim * _BYTES_PER_AMPLITUDE))


class BatchedStatevector:
    """``shots`` statevector rows evolved as one array.

    The same qubit-ordering convention as
    :class:`~repro.sim.statevector.StatevectorSimulator` (qubit 0 is
    the leftmost ket bit) and the same instruction semantics, but every
    operation is vectorized across the batch.  ``bits`` is the
    ``(shots, num_bits)`` classical register.  ``rng`` drives
    measurement and noise draws; when none is given, a
    ``Generator(0)`` is built on the first draw, so runs that never
    draw (the fast path, the variational grid) never build one.
    """

    def __init__(
        self,
        shots: int,
        num_qubits: int,
        num_bits: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if num_qubits > 24:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the dense-simulation limit"
            )
        if shots < 1:
            raise SimulationError("a batch needs at least one shot")
        self.shots = shots
        self.num_qubits = num_qubits
        axes = max(num_qubits, 1)
        self.state = np.zeros((shots,) + (2,) * axes, dtype=complex)
        self.state[(slice(None),) + (0,) * axes] = 1.0
        self.bits = np.zeros((shots, num_bits), dtype=np.int64)
        self._rng = rng

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        return self._rng

    # ------------------------------------------------------------------
    # Gate application.
    # ------------------------------------------------------------------
    def apply(
        self,
        matrix: np.ndarray,
        targets: Sequence[int],
        controls: Sequence[int] = (),
        ctrl_states: Sequence[int] = (),
    ) -> None:
        """Apply ``matrix`` to ``targets`` of every row, controlled on
        ``controls`` reading ``ctrl_states``.

        ``matrix`` is one ``2^k x 2^k`` unitary shared by every row, or
        a ``(shots, 2, 2)`` stack holding one single-qubit matrix per
        row (a symbolic gate evaluated over a parameter grid).
        """
        self._apply(self.state, matrix, targets, controls, ctrl_states)

    def apply_gate(self, gate: CircuitGate) -> None:
        matrix = gate_matrix(gate.name, gate.params)
        if gate.condition is None:
            self._apply(
                self.state, matrix, gate.targets, gate.controls,
                gate.ctrl_states,
            )
            return
        bit, required = gate.condition
        self._apply_to_masked(
            self.bits[:, bit] == required, matrix, gate.targets,
            gate.controls, gate.ctrl_states,
        )

    @staticmethod
    def _apply(states, matrix, targets, controls=(), ctrl_states=()):
        # axis_offset=1: the row axis 0 always survives the control
        # slicing; qubit q lives on axis 1 + q.
        view, axes = control_sliced_view(
            states, targets, controls, ctrl_states, axis_offset=1
        )
        if matrix.ndim == 2:
            apply_matrix_inplace(view, matrix, axes)
            return
        # One 2x2 matrix per row: bring the target axis next to the row
        # axis and combine its two halves elementwise.
        moved = np.moveaxis(view, axes[0], 1)
        m = matrix.reshape(matrix.shape + (1,) * (moved.ndim - 2))
        zero = moved[:, 0].copy()
        one = moved[:, 1]
        moved[:, 0] = m[:, 0, 0] * zero + m[:, 0, 1] * one
        moved[:, 1] = m[:, 1, 0] * zero + m[:, 1, 1] * one

    def _apply_to_masked(
        self, mask, matrix, targets, controls=(), ctrl_states=()
    ) -> None:
        """Apply ``matrix`` only to the rows ``mask`` selects.

        Fancy indexing copies the selected rows out, so the sub-batch
        must be scattered back after the gate.
        """
        if not mask.any():
            return
        if mask.all():
            self._apply(self.state, matrix, targets, controls, ctrl_states)
            return
        sub = self.state[mask]
        self._apply(sub, matrix, targets, controls, ctrl_states)
        self.state[mask] = sub

    # ------------------------------------------------------------------
    # Non-unitary operations.
    # ------------------------------------------------------------------
    def probability_one(self, qubit: int) -> np.ndarray:
        """Each shot's probability that ``qubit`` reads 1."""
        index: list = [slice(None)] * self.state.ndim
        index[1 + qubit] = 1
        flat = self.state[tuple(index)].reshape(self.shots, -1)
        return np.einsum("si,si->s", flat, flat.conj()).real

    def measure(self, qubit: int) -> np.ndarray:
        """Measure ``qubit`` on every shot; returns the outcome vector.

        One ``rng.random(shots)`` draw decides all outcomes (the same
        ``outcome = random() < p(1)`` convention as the single-shot
        simulator); the complementary slice of each shot is zeroed and
        each row renormalized by its own outcome probability.
        """
        p_one = self.probability_one(qubit)
        outcomes = (self.rng.random(self.shots) < p_one).astype(np.int64)
        ones = outcomes == 1

        index: list = [slice(None)] * self.state.ndim
        index[1 + qubit] = 0
        self.state[tuple(index)][ones] = 0.0
        index[1 + qubit] = 1
        self.state[tuple(index)][~ones] = 0.0

        # outcome 1 is only drawn when p(1) > 0, and outcome 0 only
        # when random() >= p(1) (so p(0) > 0): both branches are
        # strictly positive, the batched analogue of _project's guard.
        probability = np.where(ones, p_one, 1.0 - p_one)
        if np.any(probability <= 0.0):
            raise SimulationError("projection onto zero-probability outcome")
        norm = (1.0 / np.sqrt(probability)).reshape(
            (self.shots,) + (1,) * (self.state.ndim - 1)
        )
        self.state *= norm
        return outcomes

    def reset(self, qubit: int) -> None:
        """Reset ``qubit`` to |0> on every shot: measure + masked X."""
        outcomes = self.measure(qubit)
        self._apply_to_masked(outcomes == 1, gate_matrix("x"), (qubit,))

    # ------------------------------------------------------------------
    # Stochastic Kraus unraveling (noise).
    # ------------------------------------------------------------------
    def apply_kraus(
        self,
        operators,
        qubits,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Unravel one Kraus channel across the batch, in one draw.

        Each shot independently selects operator ``i`` with probability
        ``||K_i |psi>||^2`` and collapses to ``K_i |psi> / ||...||`` —
        the trajectory unraveling whose shot-average reproduces the
        channel's exact density-matrix action.  The whole batch is
        served by **one** ``rng.random(shots)`` draw plus one masked
        sweep per Kraus operator, mirroring how measurement is batched.
        ``mask`` restricts the channel to a sub-batch (the shots whose
        classical condition fired alongside the noisy gate).
        """
        axes = tuple(1 + q for q in qubits)
        if mask is None:
            self._kraus_on_states(self.state, operators, axes)
            return
        if not mask.any():
            return
        if mask.all():
            self._kraus_on_states(self.state, operators, axes)
            return
        sub = self.state[mask]
        self._kraus_on_states(sub, operators, axes)
        self.state[mask] = sub

    def _kraus_on_states(self, states, operators, axes) -> None:
        count = states.shape[0]
        if len(operators) == 1:
            # One operator: apply and renormalize per row (completeness
            # makes it norm-preserving up to float drift).
            apply_matrix_inplace(states, operators[0], axes)
            return
        # Per-shot selection probabilities ||K_i |psi>||^2, computed by
        # one buffered sweep per operator.
        probabilities = np.empty((len(operators), count))
        buffer = np.empty_like(states)
        for index, op in enumerate(operators):
            buffer[...] = states
            apply_matrix_inplace(buffer, op, axes)
            flat = buffer.reshape(count, -1)
            probabilities[index] = np.einsum(
                "si,si->s", flat, flat.conj()
            ).real
        totals = probabilities.sum(axis=0)  # ~1.0 by CPTP
        if np.any(totals <= 0.0):
            raise SimulationError(
                "Kraus probabilities vanished (non-normalized state?)"
            )
        draws = self.rng.random(count) * totals
        cumulative = np.cumsum(probabilities, axis=0)
        chosen = np.minimum(
            (draws[None, :] >= cumulative).sum(axis=0),
            len(operators) - 1,
        )
        for index, op in enumerate(operators):
            mask = chosen == index
            if not mask.any():
                continue
            sub = states[mask]
            apply_matrix_inplace(sub, op, axes)
            norm = np.sqrt(probabilities[index, mask])
            sub /= norm.reshape((-1,) + (1,) * (sub.ndim - 1))
            states[mask] = sub

    def _record_measurement(
        self, inst: Measurement, noise_model, stats
    ) -> None:
        """Measure, then corrupt the *recorded* bits through the
        qubit's readout confusion matrix (one vectorized flip draw)."""
        outcomes = self.measure(inst.qubit)
        error = (
            noise_model.readout_error_for(inst.qubit)
            if noise_model is not None
            else None
        )
        if error is not None:
            flip_probability = np.where(
                outcomes == 1, error.p10, error.p01
            )
            flips = self.rng.random(self.shots) < flip_probability
            outcomes = outcomes ^ flips.astype(np.int64)
            if stats is not None:
                stats.readout_applications += 1
        self.bits[:, inst.bit] = outcomes

    # ------------------------------------------------------------------
    # Whole-circuit execution.
    # ------------------------------------------------------------------
    def run(
        self, circuit: Circuit, noise_model=None, stats=None
    ) -> np.ndarray:
        """Execute the circuit; returns the (shots, num_bits) register.

        ``noise_model`` unravels each attached channel right after its
        gate (restricted to the fired sub-batch for conditioned gates)
        and corrupts recorded measurement bits per the model's readout
        errors; ``stats`` (a :class:`repro.noise.NoiseStats`)
        accumulates the per-sweep noise-event counts.
        """
        for inst in circuit.instructions:
            if isinstance(inst, CircuitGate):
                self.apply_gate(inst)
                if noise_model is not None:
                    applications = noise_model.channels_for(inst)
                    if applications:
                        mask = None
                        fired = True
                        if inst.condition is not None:
                            bit, required = inst.condition
                            mask = self.bits[:, bit] == required
                            # A conditioned gate that fired on no shot
                            # applies no noise: don't count an event
                            # (matching the interpreter's fired guard).
                            fired = bool(mask.any())
                        for channel, qubits in applications:
                            self.apply_kraus(
                                channel.operators, qubits, mask=mask
                            )
                            if stats is not None and fired:
                                stats.channel_applications += 1
            elif isinstance(inst, FusedUnitary):
                # Fused blocks are unconditioned unitaries.  Noise models
                # attach channels by gate name, so fused blocks carry
                # none (noisy runs execute the unfused circuit).
                self.apply(inst.matrix, inst.targets)
            elif isinstance(inst, Measurement):
                self._record_measurement(inst, noise_model, stats)
            elif isinstance(inst, Reset):
                self.reset(inst.qubit)
            else:
                raise SimulationError(f"unknown instruction {inst!r}")
        return self.bits


def batched_run(
    circuit: Circuit,
    shots: int,
    seed: int = 0,
    max_batch_bytes: int = MAX_BATCH_BYTES,
    noise_model=None,
    stats=None,
) -> tuple[list[tuple[int, ...]], int]:
    """Run ``shots`` trajectories batched; returns ``(results, sweeps)``.

    ``sweeps`` is the number of batched evolutions performed: 1 when
    all shots fit the :data:`MAX_BATCH_BYTES` envelope, more when the
    shot count had to be chunked.  One ``Generator(seed)`` drives every
    chunk in order, so results are deterministic per
    ``(circuit, shots, seed, max_batch_bytes)``.

    ``noise_model`` unravels the model's channels stochastically (one
    masked Kraus draw per channel application per sweep — see
    :meth:`BatchedStatevector.apply_kraus`); ``stats`` (a
    :class:`repro.noise.NoiseStats`) accumulates noise-event counts
    across chunks.
    """
    output = list(circuit.output_bits or range(circuit.num_bits))
    rng = np.random.default_rng(seed)
    chunk = batch_chunk_size(circuit.num_qubits, max_batch_bytes)
    results: list[tuple[int, ...]] = []
    sweeps = 0
    done = 0
    while done < shots:
        size = min(chunk, shots - done)
        with _trace.span(
            "sim.sweep",
            engine="batched", shots=size, qubits=circuit.num_qubits,
        ):
            engine = BatchedStatevector(
                size, circuit.num_qubits, circuit.num_bits, rng
            )
            bits = engine.run(circuit, noise_model=noise_model, stats=stats)
        _SWEEPS.inc(engine="batched")
        selected = bits[:, output]
        results.extend(
            tuple(int(bit) for bit in row) for row in selected
        )
        sweeps += 1
        done += size
    return results, sweeps


def _evolve(engine: BatchedStatevector, gates: Sequence) -> None:
    for gate in gates:
        if isinstance(gate, FusedUnitary):
            engine.apply(gate.matrix, gate.targets)
        else:
            engine.apply_gate(gate)


def apply_gates_to_state(
    gates: Sequence,
    num_qubits: int,
    initial: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply a gate list to a statevector (default |0...0>).

    Accepts :class:`~repro.qcircuit.circuit.CircuitGate` and
    :class:`~repro.qcircuit.fusion.FusedUnitary` entries, so fused and
    unfused circuits can be compared through one helper.
    """
    engine = BatchedStatevector(1, num_qubits)
    if initial is not None:
        if initial.size != 2**num_qubits:
            raise SimulationError("initial state has the wrong dimension")
        engine.state[0] = np.reshape(initial, engine.state.shape[1:])
    _evolve(engine, gates)
    return engine.state.reshape(-1)


def unitary_of_gates(gates: Sequence, num_qubits: int) -> np.ndarray:
    """The full 2^n x 2^n unitary of a gate list (small n only).

    Row ``c`` of the batch starts as basis state ``c``, so after the
    evolution it holds column ``c`` of the unitary.
    """
    if num_qubits > 10:
        raise SimulationError("unitary extraction limited to 10 qubits")
    dim = 2**num_qubits
    engine = BatchedStatevector(dim, num_qubits)
    engine.state.reshape(dim, -1)[...] = np.eye(dim)
    _evolve(engine, gates)
    return engine.state.reshape(dim, dim).T.copy()
