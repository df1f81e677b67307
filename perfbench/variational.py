"""``variational``: the variational stack end to end.

One round is a fixed mix of the four user-facing variational paths:
``run_vqe`` (Ising chain, hardware-efficient ansatz, Adam),
``run_qaoa_maxcut`` on the 4-cycle, an ``evaluate_grid`` energy
landscape, and a compile-once/``bind()`` angle sweep of a
parameterized ``@qpu`` kernel through ``simulate_kernel(params=...)``.
This is the only workload that runs the ``(G, 2, ..., 2)`` grid engine
of ``variational/evaluate.py``, the parameter-shift gradients and
``CompileResult.bind``; the seed draws the starting points, the grid
and the sweep angles.
"""

from __future__ import annotations

import time

import numpy as np

import oracles
from common import (
    ReferenceSpeed,
    Report,
    Tally,
    circuit_cost,
    median,
    peak_rss_mb_self,
    percentile,
    put_costs,
)
from repro import Parameter, angle, bit, qpu

VQE = {"num_qubits": 4, "layers": 1, "steps": 10}
QAOA = {"num_qubits": 4, "layers": 1, "steps": 20}
#: Adam step size for QAOA: with 20 steps at 0.2 the optimizer leaves
#: the flat region around (0, 0) on every seed tried (1000 of 1000),
#: which the QAOA oracle (best cut = maximum cut) needs.
QAOA_LR = 0.2
QAOA_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]
GRID_QUBITS, GRID_LAYERS, GRID_POINTS = 6, 2, 512
SWEEP_POINTS, SWEEP_SHOTS = 4, 512
#: The round CPU-time percentile reported as ``ref_tail_ms`` (a run makes
#: well over 100 rounds, so at least ten samples lie beyond it).
TAIL = 80
#: A fixed non-Clifford angle (radians) at which the workload's
#: circuits are bound for the circuit-cost totals.
COST_ANGLE = 0.3

THETA = Parameter("theta")


@qpu(THETA)
def rotation(theta: angle) -> bit:
    return 'p' | {'0', '1'} >> {'0', '1'@theta} | pm.measure  # noqa: F821


class Problem:
    """The workload's fixed inputs: the grid circuit and observable and
    the compiled (symbolic) rotation kernel."""

    def __init__(self) -> None:
        from repro.pipeline import compile_kernel
        from repro.variational import (
            hardware_efficient_ansatz,
            ising_observable,
        )

        self.grid_edges = [(q, q + 1) for q in range(GRID_QUBITS - 1)]
        self.grid_circuit, self.grid_params = hardware_efficient_ansatz(
            GRID_QUBITS, GRID_LAYERS
        )
        self.grid_observable = ising_observable(GRID_QUBITS, self.grid_edges)
        self.compiled = compile_kernel(rotation, cache=True)


def setup() -> Problem:
    from repro.pipeline import clear_compile_cache

    clear_compile_cache()
    return Problem()


class Round:
    """The seeded inputs of one round."""

    def __init__(self, seed: int, index: int, problem: Problem) -> None:
        rng = np.random.default_rng([seed, index + 1])  # index -1: warm-up
        self.seed = int(rng.integers(2**31))
        self.grid = {
            p.name: rng.uniform(-np.pi, np.pi, GRID_POINTS)
            for p in problem.grid_params
        }
        self.angles = [float(a) for a in rng.uniform(10.0, 350.0, SWEEP_POINTS)]


def run_round(problem: Problem, inputs: Round) -> dict:
    """One round through the public API; returns its outputs and its
    times in CPU seconds of this process (``wall``: wall clock)."""
    from repro.pipeline import simulate_kernel_with_info
    from repro.variational import (
        Adam,
        evaluate_grid,
        run_qaoa_maxcut,
        run_vqe,
    )

    wall, start = time.perf_counter(), time.process_time()
    vqe = run_vqe(seed=inputs.seed, **VQE)
    qaoa = run_qaoa_maxcut(seed=inputs.seed, edges=QAOA_EDGES,
                           optimizer=Adam(lr=QAOA_LR), **QAOA)
    optimized = time.process_time()
    energies = evaluate_grid(
        problem.grid_circuit, problem.grid_observable, inputs.grid
    )
    gridded = time.process_time()
    sweep = [
        simulate_kernel_with_info(
            rotation, shots=SWEEP_SHOTS, seed=inputs.seed + k,
            params={"theta": degrees},
        )
        for k, degrees in enumerate(inputs.angles)
    ]
    end = time.process_time()
    return {
        "vqe": vqe, "qaoa": qaoa, "energies": energies, "sweep": sweep,
        "cpu": end - start, "wall": time.perf_counter() - wall,
        "opt_s": optimized - start, "grid_s": gridded - optimized,
    }


def exact_energy(circuit, values: dict, edges, j: float, h: float) -> float:
    """``<H>`` from the exact density-matrix distribution of the bound
    circuit and the Ising energy of each outcome."""
    from repro.qcircuit.circuit import bind_circuit
    from repro.sim.density import DensityMatrixBackend

    distribution = DensityMatrixBackend().output_distribution(
        bind_circuit(circuit, values)
    )
    return sum(p * oracles.ising_energy(bits, edges, j, h)
               for bits, p in distribution.items())


def check_round(problem: Problem, inputs: Round, out: dict,
                tally: Tally) -> None:
    vqe, qaoa = out["vqe"], out["qaoa"]
    tally.attempt(4)
    ground = min(
        oracles.ising_energy(
            tuple((x >> q) & 1 for q in range(VQE["num_qubits"])),
            [(q, q + 1) for q in range(VQE["num_qubits"] - 1)], 1.0, 0.5,
        )
        for x in range(2 ** VQE["num_qubits"])
    )
    if not ground - 1e-9 <= vqe["final_loss"] < vqe["initial_loss"]:
        tally.wrong_answer(
            f"vqe energy {vqe['initial_loss']:.4f} -> {vqe['final_loss']:.4f}"
            f" (ground {ground:.4f})"
        )
    best = oracles.cut_value(qaoa["best_bitstring"], QAOA_EDGES)
    if best != oracles.max_cut(QAOA["num_qubits"], QAOA_EDGES):
        tally.wrong_answer(f"qaoa best cut {best} is not the maximum cut")
    point = inputs.seed % GRID_POINTS
    values = {name: column[point] for name, column in inputs.grid.items()}
    exact = exact_energy(problem.grid_circuit, values, problem.grid_edges,
                         1.0, 0.0)
    if abs(out["energies"][point] - exact) > 1e-8:
        tally.wrong_answer(
            f"evaluate_grid point {point}: {out['energies'][point]:.10f} vs "
            f"density matrix {exact:.10f}"
        )
    for degrees, (results, info) in zip(inputs.angles, out["sweep"]):
        counts: dict = {}
        for outcome in results:
            key = str(outcome)
            counts[key] = counts.get(key, 0) + 1
        problem_text = oracles.rotation(counts, degrees)
        if info.compile_cache != "memory":
            problem_text = f"sweep compile provenance {info.compile_cache!r}"
        if problem_text:
            tally.wrong_answer(problem_text)


def circuits_run() -> list:
    """The circuits one round runs, each bound at :data:`COST_ANGLE`."""
    from repro.pipeline import compile_kernel
    from repro.qcircuit.circuit import bind_circuit, circuit_parameters
    from repro.variational import (
        hardware_efficient_ansatz,
        qaoa_maxcut_ansatz,
    )

    circuits = [
        compile_kernel(rotation, cache=False).decomposed_circuit,
        hardware_efficient_ansatz(VQE["num_qubits"], VQE["layers"])[0],
        qaoa_maxcut_ansatz(QAOA["num_qubits"], QAOA_EDGES, QAOA["layers"])[0],
        hardware_efficient_ansatz(GRID_QUBITS, GRID_LAYERS)[0],
    ]
    return [
        bind_circuit(circuit, {p.name: COST_ANGLE
                               for p in circuit_parameters(circuit)})
        for circuit in circuits
    ]


def measure(seed: int, seconds: float, report: Report, tally: Tally,
            speed: ReferenceSpeed) -> None:
    problem = setup()
    run_round(problem, Round(seed, -1, problem))  # warm-up, untimed
    # Each round is checked (untimed) as soon as it ends and its outputs
    # dropped, so memory does not grow with the number of rounds.
    cpus, walls, opt_s, grid_s = [], [], 0.0, 0.0
    index = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        inputs = Round(seed, index, problem)
        index += 1
        speed.sample()
        try:
            out = run_round(problem, inputs)
        except Exception as error:  # noqa: BLE001 - counted, reported
            tally.error(f"round {index}: {type(error).__name__}: {error}")
            continue
        check_round(problem, inputs, out, tally)
        cpus.append(out["cpu"])
        walls.append(out["wall"])
        opt_s += out["opt_s"]
        grid_s += out["grid_s"]

    steps = VQE["steps"] + QAOA["steps"]
    scale = speed.scale
    report.put("ref_typical_ms", median(cpus) * 1e3 * scale,
               f"median round, n={len(cpus)}: {median(cpus) * 1e3:.1f} "
               f"CPU ms, {median(walls) * 1e3:.1f} ms wall clock")
    report.put("ref_tail_ms", percentile(cpus, TAIL) * 1e3 * scale,
               f"p{TAIL} round, n={len(cpus)}: "
               f"{percentile(cpus, TAIL) * 1e3:.1f} CPU ms")
    report.put("ref_ops_per_s", len(cpus) / (sum(cpus) * scale),
               f"rounds per second: {len(cpus) / sum(cpus):.3f} per CPU s")
    report.say(
        f"  opt_steps_per_s: {steps * len(cpus) / (opt_s * scale):.1f}"
        f"  grid_points_per_s: "
        f"{GRID_POINTS * len(cpus) / (grid_s * scale):.0f}"
        f"  (at the reference speed)"
    )
    put_costs(report, [circuit_cost(c) for c in circuits_run()])
    report.put("peak_rss_mb", peak_rss_mb_self(), "this process")


# ----------------------------------------------------------------------
# Traced run: the VQE loop, the grid and the sweep replayed from their
# public pieces under spans.
# ----------------------------------------------------------------------
def traced_round(problem: Problem, inputs: Round, spans, index: int) -> dict:
    """:func:`run_round` rebuilt from the public pieces
    (``expectation``, ``parameter_shift_gradient``, ``Adam.step``,
    ``evaluate_grid``, ``CompileResult.bind``) with a span around each
    call.  Returns the VQE loss history for the fidelity check."""
    from repro.pipeline import compile_kernel
    from repro.sim import get_backend
    from repro.variational import (
        Adam,
        evaluate_grid,
        expectation,
        hardware_efficient_ansatz,
        ising_observable,
        parameter_shift_gradient,
    )

    n = VQE["num_qubits"]
    observable = ising_observable(n, [(q, q + 1) for q in range(n - 1)],
                                  j=1.0, h=0.5)
    circuit, parameters = hardware_efficient_ansatz(n, VQE["layers"])
    names = [p.name for p in parameters]
    x = np.random.default_rng(inputs.seed).uniform(-0.4, 0.4,
                                                   size=len(parameters))
    optimizer = Adam(lr=0.1)
    with spans.span("variational.expectation", round=index):
        history = [expectation(circuit, observable, dict(zip(names, x)))]
    for _ in range(VQE["steps"]):
        with spans.span("variational.gradient", round=index):
            gradient = parameter_shift_gradient(
                circuit, observable, dict(zip(names, x)), parameters
            )
        with spans.span("variational.optim", round=index):
            x = optimizer.step(x, np.asarray(gradient, dtype=float))
        with spans.span("variational.expectation", round=index):
            history.append(expectation(circuit, observable,
                                       dict(zip(names, x))))
    with spans.span("variational.grid", round=index):
        evaluate_grid(problem.grid_circuit, problem.grid_observable,
                      inputs.grid)
    backend = get_backend(None)
    hits = 0
    for k, degrees in enumerate(inputs.angles):
        with spans.span("pipeline.cache_hit", round=index):
            compiled = compile_kernel(rotation, cache=True)
        hits += compiled.provenance == "memory"
        with spans.span("pipeline.bind", round=index):
            bound = compiled.bind({"theta": degrees})
        with spans.span("variational.sample", round=index):
            backend.run_with_info(bound.execution_circuit,
                                  shots=SWEEP_SHOTS, seed=inputs.seed + k)
    return {"history": history, "hits": hits}


TRACED_SPANS = ("variational.expectation", "variational.gradient",
                "variational.optim", "variational.grid", "pipeline.cache_hit",
                "pipeline.bind", "variational.sample")


def trace(seed: int, seconds: float, report: Report, tally: Tally) -> None:
    from common import LayerSpans
    from repro.variational import run_vqe

    problem = setup()
    run_round(problem, Round(seed, -1, problem))
    # Untraced run_vqe and the traced replay of the same round
    # alternate, so host-speed drift does not bias the overhead figure.
    spans = LayerSpans()
    plain, walls, hits = [], [], 0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        index = len(walls)
        inputs = Round(seed, index, problem)
        start = time.perf_counter()
        vqe = run_vqe(seed=inputs.seed, **VQE)
        plain.append(time.perf_counter() - start)
        tally.attempt()
        with spans.tracing():
            start = time.perf_counter()
            with spans.span("variational.round", round=index):
                replayed = traced_round(problem, inputs, spans, index)
            walls.append(time.perf_counter() - start)
        hits += replayed["hits"]
        if not np.allclose(replayed["history"], vqe["history"], rtol=0,
                           atol=1e-12):
            tally.wrong_answer("traced VQE replay diverged from run_vqe")
    spans.close(f"variational-seed{seed}")

    for name in ("variational.expectation", "variational.gradient",
                 "variational.optim", "variational.grid", "pipeline.bind",
                 "pipeline.cache_hit"):
        report.put(f"{name}.ms", median(spans.ms(name)))
    report.put("pipeline.cache_hit_ratio",
               hits / (len(walls) * SWEEP_POINTS), "sweep compiles")
    grid_ms = spans.ms("variational.grid")
    step_ms = [sum(spans.ms(name)) / len(walls) / VQE["steps"]
               for name in ("variational.gradient", "variational.optim",
                            "variational.expectation")]
    report.put("variational.opt_steps_per_s", 1e3 / sum(step_ms),
               "VQE steps (gradient + update + loss) per second")
    report.put("variational.grid_points_per_s",
               GRID_POINTS * 1e3 / median(grid_ms))
    # Overhead: the traced VQE loop against run_vqe untraced.
    vqe_spans = ("variational.gradient", "variational.optim",
                 "variational.expectation")
    traced_vqe = median(
        sum(sum(spans.ms(name, round=i)) for name in vqe_spans)
        for i in range(len(walls))
    )
    untraced_vqe = median(plain) * 1e3
    report.put("bench.trace_overhead_pct",
               100.0 * (traced_vqe - untraced_vqe) / untraced_vqe,
               f"traced VQE loop {traced_vqe:.2f} ms vs run_vqe "
               f"{untraced_vqe:.2f} ms")
    covered = sum(sum(spans.ms(name)) for name in TRACED_SPANS) / len(walls)
    round_ms = sum(spans.ms("variational.round")) / len(walls)
    report.put("bench.unattributed_pct",
               100.0 * (round_ms - covered) / round_ms,
               f"round {round_ms:.2f} ms, layer spans {covered:.2f} ms")
