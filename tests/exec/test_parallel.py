"""The parallel shot executor (repro.exec.parallel).

Three layers of coverage:

- the pure planning functions (``chunk_plan``, ``derive_chunk_seeds``,
  ``resolve_workers``) and the exact ``RunInfo.merge`` arithmetic;
- the determinism contract — fixed ``(seed, workers)`` is bit-stable,
  the in-process fallback (``use_processes=False``) is bit-identical
  to the pooled run, and different worker counts give statistically
  equivalent histograms (margins from tests/stats.py);
- the ``parallel_workers=`` threading through every public entry point
  (``run_circuit``, ``simulate_kernel``, ``kernel.histogram()``,
  ``CompileOptions``).
"""

import os

import pytest

from repro.errors import SimulationError
from repro.exec import (
    chunk_plan,
    derive_chunk_seeds,
    parallel_run,
    parallel_run_with_info,
    resolve_workers,
)
from repro.algorithms import alternating_secret, bernstein_vazirani
from repro.noise import NoiseModel, depolarizing
from repro.pipeline import CompileOptions, simulate_kernel_with_info
from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement
from repro.qcircuit.examples import (
    conditioned_fanout_circuit,
    teleport_circuit,
)
from repro.sim.backend import (
    RunInfo,
    VectorizedStatevectorBackend,
    run_circuit_with_info,
)
from repro.sim.batched import batch_chunk_size
from repro.sim.statevector import run_circuit
from tests.stats import assert_histograms_close, histogram


# ----------------------------------------------------------------------
# Planning: chunk_plan / derive_chunk_seeds / resolve_workers.
# ----------------------------------------------------------------------
def test_chunk_plan_splits_under_envelope_run_across_workers():
    # 3 qubits fit millions of shots in one envelope chunk; the plan
    # must still hand every worker a piece.
    assert chunk_plan(1000, 3, 4) == [250, 250, 250, 250]


def test_chunk_plan_remainder_goes_to_a_short_final_chunk():
    assert chunk_plan(1001, 3, 4) == [251, 251, 251, 248]
    assert sum(chunk_plan(1001, 3, 4)) == 1001


def test_chunk_plan_honors_memory_envelope():
    envelope = batch_chunk_size(3, max_batch_bytes=1 << 10)
    plan = chunk_plan(10 * envelope, 3, 2, max_batch_bytes=1 << 10)
    assert len(plan) == 10
    assert all(size <= envelope for size in plan)
    assert sum(plan) == 10 * envelope


def test_chunk_plan_single_worker_under_envelope_is_one_chunk():
    assert chunk_plan(500, 3, 1) == [500]


def test_chunk_plan_is_a_pure_function():
    assert chunk_plan(12345, 5, 3) == chunk_plan(12345, 5, 3)


def test_chunk_plan_rejects_zero_shots():
    with pytest.raises(SimulationError):
        chunk_plan(0, 3, 2)


def test_derive_chunk_seeds_deterministic_distinct_uint63():
    seeds = derive_chunk_seeds(7, 16)
    assert seeds == derive_chunk_seeds(7, 16)
    assert len(set(seeds)) == 16
    assert all(0 <= s < 2**63 for s in seeds)
    # A prefix of a longer spawn is the same seeds: chunk i's seed
    # depends only on (seed, i), never on the total chunk count's tail.
    assert derive_chunk_seeds(7, 4) == derive_chunk_seeds(7, 16)[:4]


def test_resolve_workers():
    assert resolve_workers(3) == 3
    assert resolve_workers(None) == max(os.cpu_count() or 1, 1)
    assert resolve_workers(0) == resolve_workers(None)
    with pytest.raises(SimulationError):
        resolve_workers(-1)


# ----------------------------------------------------------------------
# RunInfo.merge: exact arithmetic.
# ----------------------------------------------------------------------
def _info(**overrides):
    base = dict(
        backend="statevector",
        shots=100,
        evolutions=1,
        fast_path=False,
        batched=True,
        fused_ops=4,
        channel_applications=7,
        readout_applications=2,
        gates_fused=3,
        kernel="numpy",
        workers=1,
        chunks=1,
        compile_cache="memory",
    )
    base.update(overrides)
    return RunInfo(**base)


def test_merge_sums_additive_counters_exactly():
    merged = RunInfo.merge(
        [_info(), _info(shots=50, evolutions=2, channel_applications=1,
                       readout_applications=5, gates_fused=9, fused_ops=6,
                       chunks=2)]
    )
    assert merged.shots == 150
    assert merged.evolutions == 3
    assert merged.channel_applications == 8
    assert merged.readout_applications == 7
    assert merged.gates_fused == 12
    assert merged.fused_ops == 10
    assert merged.chunks == 3
    assert merged.backend == "statevector"
    assert merged.kernel == "numpy"
    assert merged.compile_cache == "memory"


def test_merge_flags_fast_path_all_batched_any():
    a = _info(fast_path=True, batched=False)
    b = _info(fast_path=False, batched=True)
    merged = RunInfo.merge([a, b])
    assert merged.fast_path is False
    assert merged.batched is True
    assert RunInfo.merge([a, a]).fast_path is True
    assert RunInfo.merge([a, a]).batched is False


def test_merge_fused_ops_none_poisons_the_sum():
    merged = RunInfo.merge([_info(), _info(fused_ops=None)])
    assert merged.fused_ops is None


def test_merge_mixed_kernels_and_provenances():
    merged = RunInfo.merge(
        [_info(kernel="numpy"), _info(kernel="numba",
                                      compile_cache="disk")]
    )
    assert merged.kernel == "mixed"
    assert merged.compile_cache is None


def test_merge_workers_explicit_beats_input_max():
    infos = [_info(workers=2), _info(workers=3)]
    assert RunInfo.merge(infos).workers == 3
    assert RunInfo.merge(infos, workers=8).workers == 8


def test_merge_rejects_empty_and_mixed_backends():
    with pytest.raises(SimulationError):
        RunInfo.merge([])
    with pytest.raises(SimulationError):
        RunInfo.merge([_info(), _info(backend="density")])


# ----------------------------------------------------------------------
# The determinism contract.
# ----------------------------------------------------------------------
def test_same_seed_and_workers_is_bit_stable():
    circuit = teleport_circuit()
    first = parallel_run(circuit, 400, seed=3, workers=2)
    second = parallel_run(circuit, 400, seed=3, workers=2)
    assert first == second
    assert len(first) == 400


def test_serial_fallback_is_bit_identical_to_pooled_run():
    circuit = teleport_circuit()
    pooled, pooled_info = parallel_run_with_info(
        circuit, 400, seed=5, workers=2
    )
    serial, serial_info = parallel_run_with_info(
        circuit, 400, seed=5, workers=2, use_processes=False
    )
    assert pooled == serial
    assert pooled_info == serial_info
    assert pooled_info.workers == 2
    assert pooled_info.chunks == 2


def test_fast_path_run_evolves_once_and_samples_each_chunk(monkeypatch):
    # A noiseless terminal run evolves once in the dispatcher; each
    # chunk draws from that distribution with its derived seed -- the
    # bits the backend draws when it runs that chunk on its own.
    circuit = Circuit(num_qubits=4, num_bits=3)
    for qubit in range(4):
        circuit.add(CircuitGate("h", (qubit,)))
    circuit.add(CircuitGate("x", (3,), controls=(0,)))
    for bit, qubit in enumerate((3, 1, 2)):  # qubit 0 left unmeasured
        circuit.add(Measurement(qubit, bit))
    plan = chunk_plan(600, circuit.num_qubits, 2, max_batch_bytes=1 << 12)
    assert len(plan) > 2
    evolve = VectorizedStatevectorBackend.evolve_terminal
    calls = []

    def counted(self, *args):
        calls.append(args)
        return evolve(self, *args)

    monkeypatch.setattr(
        VectorizedStatevectorBackend, "evolve_terminal", counted
    )
    results, info = parallel_run_with_info(
        circuit, 600, seed=3, workers=2, max_batch_bytes=1 << 12
    )
    assert len(calls) == 1
    assert (info.shots, info.evolutions, info.chunks, info.workers) == (
        600, 1, len(plan), 2,
    )
    assert info.fast_path
    backend = VectorizedStatevectorBackend()
    expected = []
    for shots, seed in zip(plan, derive_chunk_seeds(3, len(plan))):
        expected += backend.run_with_info(circuit, shots, seed)[0]
    assert results == expected


def test_worker_counts_give_statistically_equivalent_histograms():
    # Different worker counts draw from different derived streams, so
    # the outputs differ bit-for-bit but must agree as distributions.
    circuit = teleport_circuit()
    one, _ = parallel_run_with_info(
        circuit, 4000, seed=11, workers=1, use_processes=False
    )
    four, _ = parallel_run_with_info(
        circuit, 4000, seed=11, workers=4, use_processes=False
    )
    assert one != four
    assert_histograms_close(one, four, label="workers=1 vs workers=4")


def test_single_worker_run_reports_one_chunk():
    _, info = parallel_run_with_info(
        teleport_circuit(), 300, seed=1, workers=1
    )
    assert (info.workers, info.chunks) == (1, 1)
    assert info.shots == 300


def test_noise_model_rides_through_the_parallel_path():
    model = NoiseModel().add_channel(depolarizing(0.05))
    results, info = parallel_run_with_info(
        conditioned_fanout_circuit(), 600, seed=9, workers=3,
        noise_model=model, use_processes=False,
    )
    assert len(results) == 600
    assert info.chunks == 3
    # Per-chunk noise counters sum: every shot applies channels.
    assert info.channel_applications > 0
    repeat, repeat_info = parallel_run_with_info(
        conditioned_fanout_circuit(), 600, seed=9, workers=3,
        noise_model=model, use_processes=False,
    )
    assert results == repeat
    assert info == repeat_info


def test_unknown_backend_fails_fast_in_the_parent():
    with pytest.raises(SimulationError):
        parallel_run(teleport_circuit(), 10, workers=2,
                     backend="no-such-backend")


def test_interpreter_backend_through_the_parallel_path():
    results, info = parallel_run_with_info(
        teleport_circuit(), 200, seed=2, workers=2,
        backend="interpreter", use_processes=False,
    )
    assert info.backend == "interpreter"
    assert info.shots == 200
    assert info.chunks == 2


# ----------------------------------------------------------------------
# parallel_workers= threading through the public entry points.
# ----------------------------------------------------------------------
def test_run_circuit_threads_parallel_workers():
    circuit = teleport_circuit()
    via_entry = run_circuit(circuit, 400, seed=3, parallel_workers=2)
    direct = parallel_run(circuit, 400, seed=3, workers=2)
    assert via_entry == direct


def test_run_circuit_with_info_records_sharding():
    _, info = run_circuit_with_info(
        teleport_circuit(), 400, seed=3, parallel_workers=2
    )
    assert (info.workers, info.chunks) == (2, 2)


def _bv_kernel(n=4):
    return bernstein_vazirani(alternating_secret(n))


def test_simulate_kernel_with_info_records_parallel_provenance():
    kernel = _bv_kernel()
    results, info = simulate_kernel_with_info(
        kernel, shots=64, seed=0, parallel_workers=2
    )
    assert len(results) == 64
    assert info.workers == 2
    assert info.chunks == 2
    assert info.compile_cache in {"compiled", "memory", "disk"}


def test_compile_options_carry_parallel_workers():
    kernel = _bv_kernel()
    baseline, base_info = simulate_kernel_with_info(
        kernel, shots=64, seed=0,
        options=CompileOptions(parallel_workers=2),
    )
    explicit, _ = simulate_kernel_with_info(
        kernel, shots=64, seed=0, parallel_workers=2
    )
    assert base_info.workers == 2
    assert [str(b) for b in baseline] == [str(b) for b in explicit]


def test_histogram_accepts_parallel_workers():
    kernel = _bv_kernel()
    counts = kernel.histogram(shots=128, seed=0, parallel_workers=2)
    assert sum(counts.values()) == 128
    serial = kernel.histogram(shots=128, seed=0)
    # Same distribution support on a deterministic BV oracle: every
    # shot reads back the secret regardless of sharding.
    assert set(counts) == set(serial)


def test_parallel_none_keeps_the_legacy_single_process_path():
    circuit = teleport_circuit()
    legacy = run_circuit(circuit, 400, seed=3)
    _, info = run_circuit_with_info(circuit, 400, seed=3)
    assert (info.workers, info.chunks) == (1, 1)
    assert histogram(legacy)  # sanity: the legacy path still samples
