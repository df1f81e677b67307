"""Pluggable simulation backends (the qir-runner substitute, paper §7).

A :class:`SimBackend` turns a flat :class:`~repro.qcircuit.circuit.Circuit`
plus a shot count into sampled output bits.  Backends are registered by
name (:func:`register_backend`) and looked up by every circuit
execution entry point — ``run_circuit``, ``simulate_kernel``, and the
evaluation harness — so a new simulation strategy plugs in without
touching any of them.  See docs/simulators.md for the full guide.

Three backends ship in-tree:

``"interpreter"``
    One independent statevector trajectory per shot, seeded
    ``seed + shot``, on the per-shot engine
    (:class:`~repro.sim.statevector.StatevectorSimulator`).
    O(shots x gates x 2^n), but handles every circuit and reproduces
    the repository's historical shot sequences exactly.

``"statevector"``
    The vectorized sampler, on the batched engine
    (:mod:`repro.sim.batched`).  For *terminal-measurement* circuits
    (all measurements after the last gate, no classical control, no
    reset before a measurement) it evolves **one** row (B = 1) through
    a gate-fused, matrix-cached evolution and draws all shots from
    |psi|^2 with a single ``np.random.Generator.choice`` call, making
    shot count a near-constant cost.  Circuits with genuine mid-circuit
    measurement, classically conditioned gates, or mid-evolution reset
    — and every run under a noise model, whose per-shot Kraus draws
    rule out a shared evolution — evolve one row per shot
    (B = shots): teleportation at 4096 shots is one batched sweep
    instead of 4096 Python evolutions.

``"density_matrix"``
    The exact noise reference (:mod:`repro.sim.density`): rho evolves
    through gates and exact Kraus sums (4^n amplitudes, <= 12 qubits),
    one evolution regardless of shot count.  See docs/noise.md.

Every backend takes an optional ``noise_model=``
(:class:`repro.noise.NoiseModel`) attaching Kraus channels per gate
and readout confusion per measured qubit.

Qubit-ordering convention (shared with the simulator): qubit 0 is the
*leftmost* ket bit, so basis-state index ``x`` has qubit ``q`` equal to
bit ``(x >> (n - 1 - q)) & 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement, Reset
from repro.qcircuit.fusion import (
    FusedUnitary,
    fuse_single_qubit_gates,
    fused_gate_savings,
)
from repro.sim.batched import BatchedStatevector, batched_run
from repro.sim.kernels import active_kernel_name
from repro.sim.statevector import StatevectorSimulator

# Get-or-create: same series repro.sim.batched increments for its
# batched sweeps; this module adds the fast-path and interpreter ones.
_SWEEPS = _metrics.counter(
    "repro_sim_sweeps_total",
    "Simulator sweeps by engine (batched evolutions, fast-path samples, "
    "interpreter trajectory loops)",
    labels=("engine",),
)

#: The one default-backend decision for the whole execution layer: every
#: entry point — ``run_circuit``, ``run_circuit_with_info``, and
#: ``simulate_kernel`` / ``kernel()`` — resolves ``backend=None`` here (via :func:`get_backend`), so changing
#: this name (or registering a replacement backend under it) retargets
#: all of them at once.
DEFAULT_BACKEND = "statevector"


@dataclass(frozen=True)
class RunInfo:
    """Observability record for one :meth:`SimBackend.run_with_info`.

    ``evolutions`` counts full statevector evolution sweeps performed —
    the dominant cost.  The terminal-measurement fast path does exactly
    one regardless of shot count; the batched trajectory engine does
    one *batched* sweep per memory-envelope chunk (usually 1 — see
    :data:`repro.sim.batched.MAX_BATCH_BYTES`); per-shot trajectory
    execution does ``shots``; the exact density-matrix backend reports
    1 (one rho evolution serves every shot).  ``batched`` is True when
    the batched engine ran (so an ``evolutions`` of 1 means one sweep
    over all shots at once, not one single-shot evolution).
    ``fused_ops`` is the post-fusion evolution step count on the fast
    path (``None`` otherwise).

    ``channel_applications`` / ``readout_applications`` count noise
    events the engine actually performed; the granularity differs per
    engine (and, on the density backend, per counter) — see
    :class:`repro.noise.NoiseStats` for the exact semantics.  Both are
    0 on noiseless runs.

    ``gates_fused`` counts gates eliminated by the compile-time fusion
    pass in the circuit this run executed (0 for unfused circuits);
    ``kernel`` records which apply-kernel performed the matrix sweeps
    (see :mod:`repro.sim.kernels` and docs/performance.md).

    ``workers`` / ``chunks`` record how the run was sharded: both 1
    for an ordinary single-process run; the parallel shot executor
    (:mod:`repro.exec`) merges its per-chunk records via
    :meth:`merge` and fills them in.  ``compile_cache`` is the compile
    provenance when the run went through ``simulate_kernel_with_info``
    — ``"compiled"``, ``"memory"``, or ``"disk"``
    (:attr:`repro.pipeline.CompileResult.provenance`); ``None`` for
    circuit-level runs that never touched the compiler.

    ``retries`` / ``faults_injected`` / ``degraded`` are the
    robustness counters filled in by the fault-tolerant dispatch path
    (:mod:`repro.exec.retry`): chunk attempts beyond the first, fault
    injections the run absorbed, and whether the dispatcher fell back
    to serial in-process execution after repeated pool breakage.  All
    zero/False on the ordinary path.
    """

    backend: str
    shots: int
    evolutions: int
    fast_path: bool
    batched: bool = False
    fused_ops: Optional[int] = None
    channel_applications: int = 0
    readout_applications: int = 0
    gates_fused: int = 0
    kernel: Optional[str] = None
    workers: int = 1
    chunks: int = 1
    compile_cache: Optional[str] = None
    retries: int = 0
    faults_injected: int = 0
    degraded: bool = False

    @staticmethod
    def merge(
        infos: "Sequence[RunInfo]", workers: Optional[int] = None
    ) -> "RunInfo":
        """Combine per-chunk records of one sharded run into one.

        Additive counters (``shots``, ``evolutions``,
        ``channel_applications``, ``readout_applications``,
        ``gates_fused``, ``fused_ops``, ``chunks``) sum exactly;
        ``fast_path`` holds only if every chunk took it, ``batched`` if
        any did; ``fused_ops`` stays ``None`` unless every chunk
        reported it.  All chunks must come from one backend; a mix of
        apply-kernels is recorded as ``"mixed"``.  ``workers`` defaults
        to the max the inputs carry.

        The robustness counters (``retries``, ``faults_injected``,
        ``degraded``) are read with ``getattr`` defaults: a
        :class:`RunInfo` unpickled from an artifact written before the
        counters existed (an old persistent-cache entry surviving a
        partial invalidation) merges as zero rather than crashing the
        telemetry path.
        """
        infos = list(infos)
        if not infos:
            raise SimulationError("RunInfo.merge needs at least one record")
        backends = {info.backend for info in infos}
        if len(backends) > 1:
            raise SimulationError(
                f"cannot merge RunInfo across backends: {sorted(backends)}"
            )
        kernels = {info.kernel for info in infos}
        fused_ops = (
            sum(info.fused_ops for info in infos)
            if all(info.fused_ops is not None for info in infos)
            else None
        )
        provenances = {info.compile_cache for info in infos}
        return RunInfo(
            backend=infos[0].backend,
            shots=sum(info.shots for info in infos),
            evolutions=sum(info.evolutions for info in infos),
            fast_path=all(info.fast_path for info in infos),
            batched=any(info.batched for info in infos),
            fused_ops=fused_ops,
            channel_applications=sum(
                info.channel_applications for info in infos
            ),
            readout_applications=sum(
                info.readout_applications for info in infos
            ),
            gates_fused=sum(info.gates_fused for info in infos),
            kernel=kernels.pop() if len(kernels) == 1 else "mixed",
            workers=(
                workers
                if workers is not None
                else max(info.workers for info in infos)
            ),
            chunks=sum(info.chunks for info in infos),
            compile_cache=(
                provenances.pop() if len(provenances) == 1 else None
            ),
            retries=sum(getattr(info, "retries", 0) for info in infos),
            faults_injected=sum(
                getattr(info, "faults_injected", 0) for info in infos
            ),
            degraded=any(
                getattr(info, "degraded", False) for info in infos
            ),
        )


class SimBackend:
    """Protocol for simulation backends.

    Subclasses implement :meth:`run_with_info`; :meth:`run` has a
    default implementation.  Instances must be stateless across calls
    (one backend object may serve many threads of the evaluation
    harness).
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def run(
        self,
        circuit: Circuit,
        shots: int = 1,
        seed: int = 0,
        noise_model=None,
    ) -> list[tuple[int, ...]]:
        """Sample ``shots`` output-bit tuples from ``circuit``.

        ``noise_model`` is an optional :class:`repro.noise.NoiseModel`;
        backends that cannot execute under noise must raise
        :class:`~repro.errors.SimulationError` rather than silently
        ignore it.
        """
        if noise_model is None:
            results, _ = self.run_with_info(circuit, shots, seed)
        else:
            results, _ = self.run_with_info(
                circuit, shots, seed, noise_model=noise_model
            )
        return results

    def run_with_info(
        self,
        circuit: Circuit,
        shots: int = 1,
        seed: int = 0,
        noise_model=None,
    ) -> tuple[list[tuple[int, ...]], RunInfo]:
        """Like :meth:`run`, also returning a :class:`RunInfo`."""
        raise NotImplementedError


def _trajectory_run(
    circuit: Circuit,
    shots: int,
    seed: int,
    noise_model=None,
    stats=None,
) -> list[tuple[int, ...]]:
    """One independent trajectory per shot, seeded ``seed + shot``.

    Under a noise model, each trajectory unravels every attached
    channel into its own Kraus draws (see
    :meth:`StatevectorSimulator.apply_kraus`), so ``stats`` counts
    noise events per shot.  Rule matching is a pure function of the
    instruction, so the per-instruction channel plan is computed once
    here rather than once per shot.
    """
    results = []
    output = circuit.output_bits or range(circuit.num_bits)
    channel_plan = None
    if noise_model is not None:
        channel_plan = [
            noise_model.channels_for(inst)
            if isinstance(inst, CircuitGate)
            else None
            for inst in circuit.instructions
        ]
    with _trace.span(
        "sim.sweep",
        engine="interpreter", shots=shots, qubits=circuit.num_qubits,
    ):
        for shot in range(shots):
            sim = StatevectorSimulator(
                circuit.num_qubits, circuit.num_bits, seed=seed + shot
            )
            bits = sim.run(
                circuit,
                noise_model=noise_model,
                stats=stats,
                channel_plan=channel_plan,
            )
            results.append(tuple(bits[i] for i in output))
    _SWEEPS.inc(engine="interpreter")
    return results


class InterpreterBackend(SimBackend):
    """Per-shot trajectory execution (the historical ``run_circuit``)."""

    name = "interpreter"

    def run_with_info(
        self,
        circuit: Circuit,
        shots: int = 1,
        seed: int = 0,
        noise_model=None,
    ) -> tuple[list[tuple[int, ...]], RunInfo]:
        from repro.noise.model import NoiseStats, effective_noise_model

        noise_model = effective_noise_model(noise_model)
        stats = NoiseStats()
        results = _trajectory_run(
            circuit, shots, seed, noise_model=noise_model, stats=stats
        )
        return results, RunInfo(
            self.name,
            shots,
            evolutions=shots,
            fast_path=False,
            channel_applications=stats.channel_applications,
            readout_applications=stats.readout_applications,
            gates_fused=fused_gate_savings(circuit),
            kernel=active_kernel_name(),
        )


def terminal_measurement_plan(
    circuit: Circuit,
) -> Optional[list[Measurement]]:
    """The circuit's measurements, if sampling can be vectorized.

    Returns the :class:`Measurement` list (in program order) when the
    circuit is *terminal-measurement*: every measurement comes after
    the last gate, no gate is classically conditioned, and no qubit is
    measured after being reset.  Trailing resets (``qfree`` of
    discarded qubits after the measurements) are tolerated — they
    cannot affect the recorded bits.  Returns ``None`` when any of
    those conditions fail; the circuit then needs per-shot trajectory
    execution.
    """
    plan: list[Measurement] = []
    measured_started = False
    reset_qubits: set[int] = set()
    for inst in circuit.instructions:
        if isinstance(inst, FusedUnitary):
            # A fused block is an unconditioned unitary like any gate.
            if measured_started:
                return None
        elif isinstance(inst, CircuitGate):
            if inst.condition is not None or measured_started:
                return None
        elif isinstance(inst, Reset):
            if not measured_started:
                # A reset mid-evolution makes the prefix non-unitary.
                return None
            reset_qubits.add(inst.qubit)
        elif isinstance(inst, Measurement):
            if inst.qubit in reset_qubits:
                return None
            measured_started = True
            plan.append(inst)
        else:
            return None
    return plan


class VectorizedStatevectorBackend(SimBackend):
    """Vectorized statevector backend.

    Terminal-measurement circuits: one B = 1 evolution on the batched
    engine + vectorized sampling.  Everything else — including *every*
    run under a noise model, whose per-shot Kraus draws rule out the
    single-evolution fast path — evolves all shots as one batch
    (:func:`repro.sim.batched.batched_run`).
    """

    name = "statevector"

    @staticmethod
    def fast_path_plan(
        circuit: Circuit, noise_model=None
    ) -> Optional[list[Measurement]]:
        """The measurement plan if this backend serves ``circuit`` on its
        terminal fast path (one evolution, all shots sampled), else
        ``None``.

        The fast path needs a noiseless run (per-shot Kraus draws rule
        out a shared evolution) of a terminal-measurement circuit.  The
        parallel executor asks the same question to place a run.
        """
        from repro.noise.model import effective_noise_model

        if effective_noise_model(noise_model) is not None:
            return None
        return terminal_measurement_plan(circuit)

    def evolve_terminal(
        self, circuit: Circuit, plan: Sequence[Measurement]
    ) -> "tuple[MeasurementSampler, RunInfo]":
        """The fast path's one evolution: a sampler over |psi|^2 and the
        evolution's :class:`RunInfo` (``shots=0``; a caller fills in the
        shots it draws).
        """
        # The unitary prefix may mix plain gates with FusedUnitary
        # blocks from the compile-time fusion pass; both fuse into the
        # evolution step list (single-qubit runs still collapse here).
        prefix = [
            inst
            for inst in circuit.instructions
            if isinstance(inst, (CircuitGate, FusedUnitary))
        ]
        fused = fuse_single_qubit_gates(prefix)
        engine = BatchedStatevector(1, circuit.num_qubits)
        for op in fused:
            engine.apply(op.matrix, op.targets, op.controls, op.ctrl_states)
        sampler = MeasurementSampler.prepare(
            np.abs(engine.state[0]) ** 2, circuit, plan
        )
        _SWEEPS.inc(engine="fast-path")
        return sampler, RunInfo(
            self.name,
            0,
            evolutions=1,
            fast_path=True,
            fused_ops=len(fused),
            gates_fused=fused_gate_savings(circuit),
            kernel=active_kernel_name(),
        )

    def run_with_info(
        self,
        circuit: Circuit,
        shots: int = 1,
        seed: int = 0,
        noise_model=None,
    ) -> tuple[list[tuple[int, ...]], RunInfo]:
        from repro.noise.model import NoiseStats, effective_noise_model

        plan = self.fast_path_plan(circuit, noise_model)
        if plan is None:
            # Non-terminal circuit (or a noisy run, where each shot's
            # Kraus draws differ): evolve all shots simultaneously on
            # the batched trajectory engine (repro.sim.batched) rather
            # than one Python evolution per shot.
            stats = NoiseStats()
            results, sweeps = batched_run(
                circuit,
                shots,
                seed,
                noise_model=effective_noise_model(noise_model),
                stats=stats,
            )
            return results, RunInfo(
                self.name,
                shots,
                evolutions=sweeps,
                fast_path=False,
                batched=True,
                channel_applications=stats.channel_applications,
                readout_applications=stats.readout_applications,
                gates_fused=fused_gate_savings(circuit),
                kernel=active_kernel_name(),
            )

        with _trace.span(
            "sim.sweep",
            engine="fast-path", shots=shots, qubits=circuit.num_qubits,
        ):
            sampler, info = self.evolve_terminal(circuit, plan)
            results = sampler.draw(shots, np.random.default_rng(seed))
        return results, replace(info, shots=shots)


@dataclass(frozen=True)
class MeasurementSampler:
    """Draws a circuit's terminal measurements from one distribution.

    :meth:`prepare` does the per-distribution work once (marginalize the
    unmeasured qubits, renormalize); :meth:`draw` then samples any
    number of shots.  Drawing ``k`` shots with ``default_rng(seed)``
    gives the same bits whether the sampler was prepared for this draw
    or shared by many, which is what lets a sharded fast-path run
    evolve once and sample each chunk with its own seed.

    Shared by the vectorized statevector backend (|psi|^2) and the
    exact density-matrix backend (the diagonal of rho) — one sampling
    path, one seed convention, so the two backends' zero-noise
    histograms match exactly.
    """

    probabilities: Optional[np.ndarray]
    plan: tuple[Measurement, ...]
    num_bits: int
    output: tuple[int, ...]
    positions: dict[int, int]

    @classmethod
    def prepare(
        cls,
        probabilities: np.ndarray,
        circuit: Circuit,
        plan: Sequence[Measurement],
    ) -> "MeasurementSampler":
        """``probabilities`` is a computational-basis probability tensor
        (one axis per qubit)."""
        output = tuple(circuit.output_bits or range(circuit.num_bits))
        if not plan:
            # Nothing measured: the classical register stays all-zero.
            return cls(None, (), circuit.num_bits, output, {})
        measured = sorted({m.qubit for m in plan})
        unmeasured = tuple(
            axis
            for axis in range(circuit.num_qubits)
            if axis not in measured
        )
        if unmeasured:
            probabilities = probabilities.sum(axis=unmeasured)
        probabilities = probabilities.reshape(-1)
        # Guard against float drift; choice() requires an exact simplex.
        probabilities = probabilities / probabilities.sum()
        # Marginal axis order is sorted qubit order, so the outcome's
        # bit for qubit q sits at position positions[q] from the left
        # (the same most-significant-first convention as full
        # basis-state indices).
        return cls(
            probabilities,
            tuple(plan),
            circuit.num_bits,
            output,
            {qubit: i for i, qubit in enumerate(measured)},
        )

    def draw(
        self, shots: int, rng: np.random.Generator
    ) -> list[tuple[int, ...]]:
        if self.probabilities is None:
            return [(0,) * len(self.output)] * shots
        outcomes = rng.choice(
            self.probabilities.size, size=shots, p=self.probabilities
        )
        width = len(self.positions)
        bits = np.zeros((shots, self.num_bits), dtype=np.int64)
        for meas in self.plan:
            shift = width - 1 - self.positions[meas.qubit]
            bits[:, meas.bit] = (outcomes >> shift) & 1
        selected = bits[:, list(self.output)]
        return list(map(tuple, selected.tolist()))


# ----------------------------------------------------------------------
# The backend registry.
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[], SimBackend]] = {}


def register_backend(
    name: str, factory: Callable[[], SimBackend], *, replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called once per :func:`get_backend` lookup and must
    return a fresh (or stateless shared) :class:`SimBackend`.  Re-using
    a name raises unless ``replace=True``.
    """
    if not replace and name in _REGISTRY:
        raise SimulationError(
            f"simulation backend {name!r} is already registered; pass "
            f"replace=True to override it"
        )
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(backend: "str | SimBackend | None" = None) -> SimBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to :data:`DEFAULT_BACKEND`.  Unknown names raise
    :class:`SimulationError` listing what is registered.
    """
    if isinstance(backend, SimBackend):
        return backend
    name = backend or DEFAULT_BACKEND
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(available_backends())
        raise SimulationError(
            f"unknown simulation backend {name!r} (registered backends: "
            f"{known}); see docs/simulators.md for how to add one"
        )
    return factory()


def run_circuit_with_info(
    circuit: Circuit,
    shots: int = 1,
    seed: int = 0,
    backend: "str | SimBackend | None" = None,
    noise_model=None,
    parallel_workers: Optional[int] = None,
) -> tuple[list[tuple[int, ...]], RunInfo]:
    """Run a circuit and return ``(results, RunInfo)`` for telemetry.

    ``backend=None`` resolves to :data:`DEFAULT_BACKEND`, the same
    single resolution point every execution entry point consults.
    ``noise_model`` (a :class:`repro.noise.NoiseModel`) makes the run
    noisy; it is only forwarded when set, so backends predating the
    noise subsystem keep working for ideal runs.

    ``parallel_workers`` routes the run through the parallel shot
    executor (:mod:`repro.exec`): shot chunks shard across a process
    pool with per-chunk derived seeds (``0`` means one worker per
    core).  Leave it ``None`` for the legacy single-process seed
    convention; any explicit value — including ``1`` — selects the
    sharded convention, so ``workers=1`` and ``workers=4`` runs are
    comparable.  Best for trajectory workloads (mid-circuit
    measurement or noise); a terminal-measurement run evolves once
    however it is sharded (placement rule:
    :func:`repro.exec.parallel.parallel_run_with_info`).
    """
    if parallel_workers is not None:
        from repro.exec.parallel import parallel_run_with_info

        return parallel_run_with_info(
            circuit,
            shots,
            seed,
            workers=parallel_workers,
            backend=backend,
            noise_model=noise_model,
        )
    resolved = get_backend(backend)
    if noise_model is None:
        return resolved.run_with_info(circuit, shots, seed)
    return resolved.run_with_info(
        circuit, shots, seed, noise_model=noise_model
    )


register_backend(InterpreterBackend.name, InterpreterBackend)
register_backend(
    VectorizedStatevectorBackend.name, VectorizedStatevectorBackend
)
