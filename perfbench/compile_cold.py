"""``compile-cold``: the paper's five benchmarks at n = 16/32/64, each
compiled cold (``compile_kernel(..., cache=False)`` in a fresh private
cache directory) and then emitted as OpenQASM 3 and QIR and costed by
the surface-code resource estimator.

Compile time and emitted-circuit cost are the paper's own axes (§8,
Figs. 11-12).  Every compiler layer runs here and no execution layer
does, so a change to the compile cache or the simulators shows nowhere
on this workload.  The seed only shuffles the order of the programs
within each pass, so the circuit-cost totals are identical on every
run.
"""

from __future__ import annotations

import math
import random
import time

from common import (
    ReferenceSpeed,
    Report,
    Tally,
    circuit_cost,
    median,
    peak_rss_mb_self,
    put_costs,
)

ALGORITHMS = ("bv", "dj", "grover", "simon", "period")
SIZES = (16, 32, 64)
PROGRAMS = [(alg, n) for alg in ALGORITHMS for n in SIZES]
#: Programs whose compiled circuits stay Clifford at every size and so
#: can be run by the benchmark's own stabilizer simulator.
CLIFFORD = {"bv", "dj", "simon"}
ORACLE_SHOTS = 4

#: Layer spans of the traced replay, in pipeline order.  The compile
#: layers sum to ``compile.<alg>-n<n>.ms``.
COMPILE_LAYERS = (
    "frontend", "qwerty_ir", "lower", "lower.flatten",
    "qcircuit.peephole_relaxed", "qcircuit.selinger",
    "qcircuit.peephole_strict", "qcircuit.fuse",
)
EMIT_LAYERS = ("backends.qasm3", "backends.qir", "resources.estimate")


def label(program) -> str:
    return f"{program[0]}-n{program[1]}"


def setup() -> dict:
    """Fresh kernel objects for every program and an empty in-memory
    compile cache (the disk cache directory is private to the run)."""
    from repro.evaluation import asdf_kernel
    from repro.pipeline import clear_compile_cache

    clear_compile_cache()
    return {program: asdf_kernel(*program) for program in PROGRAMS}


def pass_order(seed: int, index: int) -> list:
    order = list(PROGRAMS)
    random.Random(f"compile-cold:{seed}:{index}").shuffle(order)
    return order


def compile_one(kernel):
    """One program through the public API: cold compile, both
    emitters, resource estimation."""
    from repro.pipeline import compile_kernel
    from repro.resources import estimate_physical_resources

    result = compile_kernel(kernel, cache=False)
    qasm = result.qasm3()
    qir = result.qir()
    estimate = estimate_physical_resources(result.decomposed_circuit)
    return result, qasm, qir, estimate


class Checker:
    """Checks every compiled program.  The first pass's circuits are
    the reference the later passes must reproduce exactly; their
    semantics and cost are checked when first seen, and only a digest
    of each is kept, so the benchmark's own memory does not grow with
    the suite."""

    def __init__(self, tally: Tally, seed: int) -> None:
        self.tally = tally
        self.seed = seed
        self.reference: dict = {}
        self.costs: dict = {}

    def check(self, program, result, qasm: str, qir: str, estimate) -> None:
        n = program[1]
        name = label(program)
        circuit = result.decomposed_circuit
        digest = hash(tuple(circuit.instructions))
        problem = None
        if result.provenance != "compiled":
            problem = f"{name} provenance {result.provenance!r}, not compiled"
        elif not qasm.startswith("OPENQASM 3") or f"bit[{n}]" not in qasm:
            problem = f"{name} QASM3 lacks the header or an {n}-bit register"
        elif qasm.count("measure") != n:
            problem = f"{name} QASM3 measures {qasm.count('measure')} != {n}"
        elif "entry_point" not in qir or "__quantum__qis" not in qir:
            problem = f"{name} QIR lacks an entry point or intrinsics"
        elif estimate.physical_qubits <= 0 or estimate.runtime_seconds <= 0:
            problem = f"{name} resource estimate is empty"
        elif program not in self.reference:
            self.reference[program] = digest
            self.costs[program] = circuit_cost(circuit)
            problem = self._semantics(program, circuit)
        elif digest != self.reference[program]:
            problem = f"{name} compiled differently than on pass 1"
        if problem:
            self.tally.wrong_answer(problem)

    def _semantics(self, program, circuit):
        """BV/DJ/Simon run on the benchmark's stabilizer simulator;
        Grover and period finding are non-Clifford and too wide to
        simulate at n >= 16, so their outputs are checked at n <= 8 on
        the serve workloads and for width and determinism here."""
        import oracles

        alg, n = program
        if len(circuit.output_bits or range(circuit.num_bits)) != n:
            return f"{label(program)} has {circuit.num_bits} output bits"
        if alg not in CLIFFORD:
            return None
        try:
            counts = oracles.clifford_samples(circuit, ORACLE_SHOTS, self.seed)
        except oracles.NotClifford as error:
            return f"{label(program)} is no longer Clifford ({error})"
        return oracles.NOISELESS[alg](counts, n)


def measure(seed: int, seconds: float, report: Report, tally: Tally,
            speed: ReferenceSpeed) -> None:
    """Whole suite passes for ``seconds``.  Each program is timed in CPU
    seconds of this process and reported at the reference speed;
    wall-clock time is printed for reference."""
    checker = Checker(tally, seed)
    passes: list[dict] = []
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        kernels = setup()
        times = {}
        wall = time.perf_counter()
        for program in pass_order(seed, len(passes)):
            speed.sample()
            start = time.process_time()
            try:
                outputs = compile_one(kernels[program])
            except Exception as error:  # noqa: BLE001 - counted, reported
                tally.error(f"{label(program)}: {type(error).__name__}: {error}")
                continue
            times[program] = time.process_time() - start
            tally.attempt()
            checker.check(program, *outputs)
        walls.append(time.perf_counter() - wall)
        passes.append(times)

    # Each program's median over the passes (a garbage-collector pause
    # lands on whichever program runs when it is due), then their
    # geometric mean, the usual summary of a benchmark suite.  The
    # median of the 15 would follow one short program (dj-n64) and with
    # it every brief change in the host's speed.
    medians = [median(times[p] for times in passes if p in times)
               for p in PROGRAMS if any(p in times for times in passes)]
    typical = math.exp(sum(math.log(t) for t in medians) / len(medians))
    suites = [sum(times.values()) for times in passes]
    tails = [max(times.values()) for times in passes]
    scale = speed.scale
    report.put("ref_typical_ms", typical * 1e3 * scale,
               f"geometric mean over {len(medians)} programs of each "
               f"one's median compile+emit+estimate over {len(passes)} "
               f"passes: {typical * 1e3:.2f} CPU ms")
    report.put("ref_tail_ms", median(tails) * 1e3 * scale,
               f"slowest program per pass (p100 of 15), median of "
               f"{len(passes)} passes: {median(tails) * 1e3:.1f} CPU ms")
    report.put("ref_ops_per_s", len(PROGRAMS) / (median(suites) * scale),
               f"15 programs / suite; suite median {median(suites):.3f} CPU "
               f"s, {median(walls):.3f} s wall clock")
    put_costs(report, [checker.costs[p] for p in PROGRAMS
                       if p in checker.costs])
    report.put("peak_rss_mb", peak_rss_mb_self(), "this process")


# ----------------------------------------------------------------------
# Traced run: the same pipeline replayed stage by stage under spans.
# ----------------------------------------------------------------------
def replay(kernel, spans, tag: dict):
    """``compile_kernel(kernel, cache=False)`` with default options,
    one public stage at a time, then the emitters and the estimator.
    Returns the :class:`CompileResult` and the op count Selinger
    decomposition emitted before the strict peephole."""
    from repro.ir.verifier import verify_module
    from repro.lower import flatten_to_circuit, lower_module
    from repro.pipeline import CompileOptions, CompileResult
    from repro.pipeline import _build_qwerty_module as build_qwerty_module
    from repro.qcircuit import copy_circuit, make_circuit_pass_manager
    from repro.qwerty_ir import make_qwerty_pass_manager
    from repro.resources import estimate_physical_resources

    options = CompileOptions()
    selinger_spec, strict_spec = options.decompose_spec.split(",")
    with spans.span("frontend", **tag):
        module, dims = build_qwerty_module(kernel)
    with spans.span("qwerty_ir", **tag):
        verify_module(module)
        make_qwerty_pass_manager(options.qwerty_spec).run(module)
        verify_module(module)
    with spans.span("lower", **tag):
        qcircuit_module = lower_module(module)
    with spans.span("lower.flatten", **tag):
        circuit = flatten_to_circuit(qcircuit_module)
    with spans.span("qcircuit.peephole_relaxed", **tag):
        optimized = copy_circuit(circuit)
        make_circuit_pass_manager(options.optimize_spec).run(optimized)
    with spans.span("qcircuit.selinger", **tag):
        decomposed = copy_circuit(optimized)
        make_circuit_pass_manager(selinger_spec).run(decomposed)
    emitted = len(decomposed.instructions)
    with spans.span("qcircuit.peephole_strict", **tag):
        make_circuit_pass_manager(strict_spec).run(decomposed)
    with spans.span("qcircuit.fuse", **tag):
        execution = copy_circuit(optimized)
        make_circuit_pass_manager(options.fusion_spec).run(execution)
    result = CompileResult(
        kernel.name, module, qcircuit_module, circuit=circuit,
        optimized_circuit=optimized, decomposed_circuit=decomposed,
        execution_circuit=execution, dims=dims, options=options,
    )
    with spans.span("backends.qasm3", **tag):
        result.qasm3()
    with spans.span("backends.qir", **tag):
        result.qir()
    with spans.span("resources.estimate", **tag):
        estimate_physical_resources(decomposed)
    return result, emitted


def trace(seed: int, seconds: float, report: Report, tally: Tally) -> None:
    from common import LayerSpans

    # Untraced compile_kernel passes alternate with traced replay
    # passes, so host-speed drift does not bias the overhead figure.
    spans = LayerSpans()
    plain, walls, reference, sizes = [], [], {}, {}
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        index = len(walls)
        kernels = setup()
        start = time.perf_counter()
        for program in pass_order(seed, index):
            reference[program] = compile_one(kernels[program])[0]
        plain.append(time.perf_counter() - start)
        kernels = setup()
        with spans.tracing():
            start = time.perf_counter()
            for program in pass_order(seed, index):
                tally.attempt()
                sizes[program] = replay(
                    kernels[program], spans,
                    {"program": label(program), "pass": index},
                )
            walls.append(time.perf_counter() - start)
    spans.close(f"compile-cold-seed{seed}")

    for program, (result, _) in sizes.items():
        ref = reference[program].decomposed_circuit
        got = result.decomposed_circuit
        if (got.instructions != ref.instructions
                or got.num_qubits != ref.num_qubits
                or got.output_bits != ref.output_bits):
            tally.wrong_answer(
                f"replay of {label(program)} differs from compile_kernel"
            )

    def per_pass(names, **match) -> float:
        return median(
            sum(sum(spans.ms(name, **match, **{"pass": i})) for name in names)
            for i in range(len(walls))
        )

    for name in COMPILE_LAYERS + EMIT_LAYERS:
        report.put(f"{name}.ms", per_pass([name]))
    for program in PROGRAMS:
        report.put(f"compile.{label(program)}.ms",
                   per_pass(COMPILE_LAYERS, program=label(program)))
    report.put("compile.grover.doubling_ratio",
               report.values["compile.grover-n64.ms"]
               / report.values["compile.grover-n32.ms"])
    results = [result for result, _ in sizes.values()]
    emitted = sum(e for _, e in sizes.values())
    decomposed = sum(len(r.decomposed_circuit.instructions) for r in results)
    report.put("ops.flat", sum(len(r.circuit.instructions) for r in results))
    report.put("ops.optimized",
               sum(len(r.optimized_circuit.instructions) for r in results))
    report.put("ops.selinger_emitted", emitted)
    report.put("ops.decomposed", decomposed)
    report.put("ops.executed",
               sum(len(r.execution_circuit.instructions) for r in results),
               "suite total of the fused execution circuits")
    report.put("qcircuit.peephole_strict.removed_ratio",
               (emitted - decomposed) / emitted)
    layer_ms = per_pass(COMPILE_LAYERS + EMIT_LAYERS)
    wall_ms = median(walls) * 1e3
    report.put("bench.trace_overhead_pct",
               100.0 * (median(walls) - median(plain)) / median(plain),
               f"traced replay {wall_ms:.1f} ms vs compile_kernel "
               f"{median(plain) * 1e3:.1f} ms per suite pass")
    report.put("bench.unattributed_pct", 100.0 * (wall_ms - layer_ms) / wall_ms,
               f"suite pass {wall_ms:.1f} ms, layer spans {layer_ms:.1f} ms")
