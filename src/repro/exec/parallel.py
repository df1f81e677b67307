"""The parallel shot executor: shard shot chunks across processes.

Every engine in :mod:`repro.sim` scales *within* one process; the
batched trajectory engine already splits an over-envelope run into
memory-bounded chunks (:func:`repro.sim.batched.batch_chunk_size`),
but those chunks ran serially on one core.  This module dispatches
them to a :class:`concurrent.futures.ProcessPoolExecutor` instead:

- :func:`chunk_plan` splits a shot count into the **same work units**
  the batched engine's 256 MiB envelope defines, additionally splitting
  until every worker has work (an under-envelope run on 4 workers still
  parallelizes);
- each chunk gets a **derived seed** from
  ``numpy.random.SeedSequence(seed).spawn(...)`` — statistically
  independent streams, so the sharded histogram is statistically
  equivalent to a single-process run and *fully deterministic* for a
  fixed ``(seed, workers)`` pair;
- per-chunk results concatenate in plan order and per-chunk
  :class:`~repro.sim.backend.RunInfo` telemetry merges via
  :meth:`RunInfo.merge`, with ``workers``/``chunks`` recorded;
- a run the ``statevector`` backend serves on its terminal fast path
  evolves once and samples its chunks in-process (see
  :func:`parallel_run_with_info`).

Determinism contract: the output depends only on the chunk plan and
the derived seeds — **not** on which process (or whether a process at
all) executed a chunk.  A pool that cannot start (sandboxed
environments, missing semaphores) silently falls back to in-process
execution of the identical plan and produces bit-identical results.

Statelessness: the worker entry point re-resolves everything it needs
from explicit task fields — backend *name* (resolved in the parent, so
a monkeypatched ``DEFAULT_BACKEND`` cannot diverge between parent and
worker), apply-kernel name (the parent's context-local selection,
shipped explicitly because a ``spawn``-started worker does not inherit
:mod:`contextvars` state), the pickled circuit and noise model.
In-tree backends and kernels register at import time, so workers
started with **any** start method behave identically; custom backends
registered only in the parent are visible under ``fork`` but must be
registered at import time (module level) to work under ``spawn``.

Pools are cached per ``(workers, start method)`` and reused across
calls — the process-warmup cost is paid once, which is what a
long-lived service (ROADMAP: async execution service) needs.  See
docs/performance.md ("Parallel execution & the persistent cache").
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.exec.faults import (
    FaultPlan,
    active_fault_plan,
    maybe_inject_chunk_fault,
)
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.qcircuit.circuit import Circuit
from repro.sim.backend import (
    DEFAULT_BACKEND,
    MeasurementSampler,
    RunInfo,
    SimBackend,
    VectorizedStatevectorBackend,
    get_backend,
)
from repro.sim.batched import MAX_BATCH_BYTES, batch_chunk_size
from repro.sim.kernels import active_kernel_name, use_kernel

#: Environment override for the multiprocessing start method used by
#: the shared pools ("fork", "spawn", "forkserver").  Unset keeps the
#: platform default.  Results are identical either way (see the
#: determinism contract above); this only trades startup cost against
#: fork-safety.
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"

_DISPATCHES = _metrics.counter(
    "repro_exec_dispatches_total",
    "Parallel run dispatches (one per parallel_run_with_info call)",
)
_CHUNKS = _metrics.counter(
    "repro_exec_chunks_total",
    "Chunks planned for dispatch across all parallel runs",
)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``parallel_workers`` request to a concrete count.

    ``None`` and ``0`` mean "one per available core"; negative counts
    are rejected.
    """
    if workers is None or workers == 0:
        return max(os.cpu_count() or 1, 1)
    if workers < 0:
        raise SimulationError(
            f"parallel_workers must be >= 0, got {workers}"
        )
    return workers


def chunk_plan(
    shots: int,
    num_qubits: int,
    workers: int,
    max_batch_bytes: int = MAX_BATCH_BYTES,
) -> list[int]:
    """Split ``shots`` into per-chunk shot counts.

    The base unit is the batched engine's memory envelope
    (:func:`~repro.sim.batched.batch_chunk_size`); when that yields
    fewer chunks than ``workers``, the run is split further so every
    worker has work.  The plan is a pure function of
    ``(shots, num_qubits, workers, max_batch_bytes)`` — the anchor of
    the determinism contract.
    """
    if shots < 1:
        raise SimulationError("a parallel run needs at least one shot")
    envelope = batch_chunk_size(num_qubits, max_batch_bytes)
    target_chunks = max(-(-shots // envelope), max(workers, 1))
    size = -(-shots // target_chunks)  # ceil division
    full, remainder = divmod(shots, size)
    return [size] * full + ([remainder] if remainder else [])


def derive_chunk_seeds(seed: int, chunks: int) -> list[int]:
    """One independent integer seed per chunk.

    ``SeedSequence(seed).spawn(chunks)`` gives statistically
    independent child streams; each child collapses to one uint63 the
    backends' integer ``seed`` parameter accepts.  Derivation is pure,
    so chunk *i* of a fixed plan always receives the same seed — in a
    worker process, in the serial fallback, or in a re-run.
    """
    children = np.random.SeedSequence(seed).spawn(chunks)
    return [
        int(child.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
        for child in children
    ]


@dataclass(frozen=True)
class _ChunkTask:
    """Everything a worker needs, explicit and picklable.

    ``faults`` ships the parent's active :class:`FaultPlan` (ambient
    contextvar/env state never crosses into ``spawn`` workers);
    ``attempt`` is the retry ordinal, folded into fault decisions only
    — the *data* seed never changes across attempts, which is what
    makes retried runs bit-identical to fault-free ones.  ``trace``
    ships the dispatcher's span context the same way, so worker-side
    ``exec.chunk`` spans stitch into the parent trace.  ``sampler`` is
    set on the chunks of a fast-path run: the chunk draws its shots
    from the dispatcher's one evolution instead of running the backend.
    """

    circuit: Circuit
    shots: int
    seed: int
    backend: "str | SimBackend"
    kernel: Optional[str]
    noise_model: Optional[object]
    faults: Optional[FaultPlan] = None
    attempt: int = 0
    trace: Optional[_trace.TraceContext] = None
    sampler: Optional[MeasurementSampler] = None


def _run_chunk_body(
    task: _ChunkTask,
) -> tuple[list[tuple[int, ...]], Optional[RunInfo]]:
    with _trace.span(
        "exec.chunk",
        shots=task.shots, seed=task.seed, attempt=task.attempt,
    ):
        maybe_inject_chunk_fault(task.faults, task.seed, task.attempt)
        if task.sampler is not None:
            rng = np.random.default_rng(task.seed)
            return task.sampler.draw(task.shots, rng), None
        backend = get_backend(task.backend)
        with use_kernel(task.kernel):
            if task.noise_model is None:
                return backend.run_with_info(
                    task.circuit, task.shots, task.seed
                )
            return backend.run_with_info(
                task.circuit,
                task.shots,
                task.seed,
                noise_model=task.noise_model,
            )


def _run_chunk(
    task: _ChunkTask,
) -> tuple[list[tuple[int, ...]], Optional[RunInfo], Optional[list[dict]]]:
    """Worker entry point: one chunk, no ambient state consulted.

    Returns ``(results, info, spans)``; ``info`` is ``None`` for a
    sampled fast-path chunk, whose run records its one evolution.
    ``spans`` is non-``None`` only
    when this runs *in a pool worker* under a shipped trace context: a
    worker cannot append to the parent's tracer, so it records into a
    throwaway local one (:func:`repro.obs.trace.recording`) and ships
    the span dicts back with the result for the dispatcher to
    :func:`~repro.obs.trace.absorb_spans`.  In the serial/in-process
    path the ambient tracer receives spans directly and ``spans`` is
    ``None``.
    """
    if (
        task.trace is not None
        and multiprocessing.parent_process() is not None
    ):
        with _trace.recording(task.trace) as tracer:
            results, info = _run_chunk_body(task)
        return results, info, tracer.spans
    results, info = _run_chunk_body(task)
    return results, info, None


# ----------------------------------------------------------------------
# Shared worker pools (one per (workers, start method), reused).
# ----------------------------------------------------------------------
_POOLS: dict[tuple[int, str], ProcessPoolExecutor] = {}


def _mp_context():
    method = os.environ.get(START_METHOD_ENV)
    return (
        multiprocessing.get_context(method)
        if method
        else multiprocessing.get_context()
    )


def _get_pool(workers: int) -> ProcessPoolExecutor:
    context = _mp_context()
    key = (workers, context.get_start_method())
    pool = _POOLS.get(key)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every cached worker pool (tests, service teardown)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=True, cancel_futures=True)


def recycle_pool(workers: int) -> None:
    """Discard the cached pool(s) for ``workers``, killing stragglers.

    Used after a ``BrokenProcessPool`` or a hung-chunk timeout: a
    broken pool never recovers, and a hung worker would otherwise hold
    its slot (and block interpreter exit) indefinitely.  Surviving
    worker processes are terminated outright — their chunks are
    re-dispatched by the caller, and per-chunk seeding makes the
    re-run bit-identical, so killing them loses nothing.
    """
    for key in [k for k in _POOLS if k[0] == workers]:
        pool = _POOLS.pop(key)
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def _execute_tasks(
    tasks: Sequence[_ChunkTask], workers: int, use_processes: bool
) -> list[
    tuple[list[tuple[int, ...]], Optional[RunInfo], Optional[list[dict]]]
]:
    """Run the chunk tasks, preserving plan order.

    One worker, one chunk, or ``use_processes=False`` stays in-process.
    A pool that cannot *start* (sandboxed environments, missing
    semaphores -> ``OSError``/``PermissionError``) or that *breaks*
    mid-run (``BrokenProcessPool``: a worker died) falls back to
    in-process execution of the same plan — per-chunk seeding makes
    the result identical to the pooled run.  Nothing else is caught:
    a genuine error raised by a chunk (a backend bug, an injected
    ``worker_crash``) propagates to the caller instead of being
    silently masked by a whole-plan re-run.  Chunk-granular recovery
    with budgets lives in :mod:`repro.exec.retry`.
    """
    if not use_processes or workers <= 1 or len(tasks) <= 1:
        return [_run_chunk(task) for task in tasks]
    try:
        pool = _get_pool(workers)
    except OSError:
        return [_run_chunk(task) for task in tasks]
    try:
        return list(pool.map(_run_chunk, tasks))
    except BrokenProcessPool:
        # The pool died (worker crash / kill): drop it so the next call
        # builds a fresh one, then finish this plan serially.
        recycle_pool(workers)
        return [_run_chunk(task) for task in tasks]


def parallel_run_with_info(
    circuit: Circuit,
    shots: int,
    seed: int = 0,
    workers: Optional[int] = None,
    backend: "str | SimBackend | None" = None,
    noise_model=None,
    max_batch_bytes: int = MAX_BATCH_BYTES,
    use_processes: bool = True,
    retry=None,
    cancel_event=None,
) -> tuple[list[tuple[int, ...]], RunInfo]:
    """Run ``shots`` sharded across ``workers`` processes.

    Returns ``(results, info)`` where ``results`` concatenates the
    chunks in plan order and ``info`` is the :meth:`RunInfo.merge` of
    the per-chunk records with ``workers`` and ``chunks`` filled in.
    Deterministic for fixed ``(seed, workers)`` (and the workload);
    different worker counts give statistically equivalent histograms
    drawn from independent derived streams.

    ``backend`` may be a registry name or a (picklable) instance;
    ``None`` resolves to the registry default *here in the parent*, so
    workers can never disagree with the dispatcher about the default.
    The parent's context-local apply-kernel selection is shipped along
    for the same reason.  ``use_processes=False`` executes the same
    plan in-process (bit-identical results; used by tests and the
    broken-pool fallback).

    Placement rule: a run the ``statevector`` backend serves on its
    terminal fast path
    (:meth:`~repro.sim.backend.VectorizedStatevectorBackend.fast_path_plan`:
    noiseless, terminal measurements) evolves its state **once**, here
    in the dispatcher.  Each chunk of the same plan then draws its
    shots from that one distribution with its own derived seed,
    in-process — a draw is far cheaper than shipping the distribution
    to a worker.  A chunk run on its own would evolve the same state
    and draw the same bits, so the output is unchanged, and the chunks
    keep their fault sites, retries, cancel checks between chunks,
    ``exec.chunk`` spans and counters.  ``info`` records the one
    evolution with the plan's ``workers``/``chunks``.  Every other run
    (trajectory, noisy, other backends) keeps the pool.

    ``retry`` (a :class:`repro.exec.retry.RetryPolicy`) switches chunk
    dispatch to the fault-tolerant path: per-chunk timeouts, bounded
    retry with backoff, pool recycling on ``BrokenProcessPool``, and
    graceful serial degradation — with the recovery telemetry merged
    into ``info`` (``retries`` / ``faults_injected`` / ``degraded``).
    ``cancel_event`` (a :class:`threading.Event`) cooperatively cancels
    the remaining work between chunk waves (the service's deadline
    path).  The parent's active fault plan
    (:func:`repro.exec.faults.active_fault_plan`) is shipped on every
    chunk task, so injected faults reach pool workers under any start
    method.
    """
    workers = resolve_workers(workers)
    if isinstance(backend, SimBackend):
        resolved_backend: "str | SimBackend" = backend
    else:
        resolved_backend = backend or DEFAULT_BACKEND
    # Resolving also fails fast on unknown names.
    backend_impl = get_backend(resolved_backend)
    fast_plan = (
        backend_impl.fast_path_plan(circuit, noise_model)
        if isinstance(backend_impl, VectorizedStatevectorBackend)
        else None
    )
    plan = chunk_plan(shots, circuit.num_qubits, workers, max_batch_bytes)
    seeds = derive_chunk_seeds(seed, len(plan))
    kernel = active_kernel_name()
    fault_plan = active_fault_plan()
    with _trace.span(
        "exec.dispatch",
        shots=shots, chunks=len(plan), workers=workers,
    ) as dispatch_span:
        sampler = evolution = None
        if fast_plan is not None:
            use_processes = False
            with _trace.span(
                "sim.sweep", engine="fast-path",
                shots=shots, qubits=circuit.num_qubits,
            ):
                sampler, evolution = backend_impl.evolve_terminal(
                    circuit, fast_plan
                )
        trace_ctx = _trace.current_context()
        tasks = [
            _ChunkTask(
                circuit, chunk_shots, chunk_seed,
                resolved_backend, kernel, noise_model, fault_plan,
                trace=trace_ctx, sampler=sampler,
            )
            for chunk_shots, chunk_seed in zip(plan, seeds)
        ]
        _DISPATCHES.inc()
        _CHUNKS.inc(len(tasks))
        telemetry = None
        if retry is not None:
            from repro.exec.retry import execute_with_retry

            outcomes, telemetry = execute_with_retry(
                tasks, workers, retry,
                use_processes=use_processes,
                cancel_event=cancel_event,
            )
        else:
            outcomes = _execute_tasks(tasks, workers, use_processes)
        results: list[tuple[int, ...]] = []
        infos: list[Optional[RunInfo]] = []
        for chunk_results, chunk_info, chunk_spans in outcomes:
            results.extend(chunk_results)
            infos.append(chunk_info)
            _trace.absorb_spans(chunk_spans)
        if telemetry is not None:
            dispatch_span.set(
                retries=telemetry.retries, degraded=telemetry.degraded
            )
    if evolution is None:
        merged = RunInfo.merge(infos, workers=workers)
    else:
        merged = replace(
            evolution, shots=shots, workers=workers, chunks=len(plan)
        )
    if telemetry is not None:
        merged = replace(
            merged,
            retries=telemetry.retries,
            faults_injected=telemetry.faults_injected,
            degraded=telemetry.degraded,
        )
    return results, merged


def parallel_run(
    circuit: Circuit,
    shots: int,
    seed: int = 0,
    workers: Optional[int] = None,
    backend: "str | SimBackend | None" = None,
    noise_model=None,
    max_batch_bytes: int = MAX_BATCH_BYTES,
) -> list[tuple[int, ...]]:
    """:func:`parallel_run_with_info` without the telemetry record."""
    results, _ = parallel_run_with_info(
        circuit,
        shots,
        seed,
        workers=workers,
        backend=backend,
        noise_model=noise_model,
        max_batch_bytes=max_batch_bytes,
    )
    return results
