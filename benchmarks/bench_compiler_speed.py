"""Compiler throughput: wall-clock cost of each pipeline stage.

Not a paper figure, but useful engineering data: how long the ASDF
reproduction takes to compile each benchmark at a realistic size, how
the cost splits across passes (via the PassManager instrumentation),
how grover's compile time scales with n (gated at x2.3 per doubling),
and how the polynomial-time span checker scales (paper §4.1 claims
O(k^2 log k) instead of the naive exponential).
"""

import math
import time

import pytest

from conftest import bench_record, write_bench_json, write_result

from repro import CompileOptions
from repro.basis import Basis
from repro.basis.span import check_span_equivalence
from repro.evaluation import ALGORITHMS, asdf_kernel


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_compile_speed(benchmark, algorithm):
    kernel = asdf_kernel(algorithm, 32)
    benchmark.pedantic(
        lambda: kernel.compile(), rounds=3, iterations=1, warmup_rounds=1
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_per_pass_timing_breakdown(benchmark, algorithm):
    """Print where compile time goes, pass by pass, per benchmark."""
    kernel = asdf_kernel(algorithm, 32)
    options = CompileOptions.preset("default", collect_statistics=True)
    result = benchmark.pedantic(
        lambda: kernel.compile(options=options), rounds=1, iterations=1
    )
    report = result.statistics.report()
    write_result(f"compiler_passes_{algorithm}.txt",
                 f"{algorithm} n=32: per-pass compile breakdown\n{report}")
    write_bench_json(
        "compiler_speed",
        [
            bench_record(
                f"compile-{algorithm}-n32",
                "default",
                result.statistics.total_seconds * 1e3,
            )
        ],
    )
    names = [entry.name for entry in result.statistics.entries]
    assert "inline" in names and "(frontend)" in names


def test_compile_cache_speedup(benchmark):
    """Repeated compiles of an equivalent kernel hit the driver cache.

    Explicit cold-cache mode: ``disk=True`` also drops the persistent
    on-disk layer (repro.exec.diskcache) — without it the "cold" leg
    would quietly read the artifact a previous run persisted and the
    cold number would measure unpickling, not compilation."""
    from repro import clear_compile_cache

    clear_compile_cache(disk=True)
    kernel = asdf_kernel("grover", 32)
    start = time.perf_counter()
    cold = kernel.compile(pipeline="default", cache=True)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: kernel.compile(pipeline="default", cache=True),
        rounds=3,
        iterations=1,
    )
    warm_seconds = time.perf_counter() - start
    write_bench_json(
        "compiler_speed",
        [
            bench_record(
                "compile-grover-n32-cache", "cold", cold_seconds * 1e3
            ),
            bench_record(
                "compile-grover-n32-cache",
                "warm-3rounds",
                warm_seconds * 1e3,
            ),
        ],
    )
    assert warm is cold


#: Grover sizes of the compile-time scaling curve.
SCALING_SIZES = (16, 32, 64, 128)

#: Largest allowed compile-time ratio per doubling of n.  The output
#: circuit doubles with n, so a linear-time compiler reads about 2.
MAX_DOUBLING_RATIO = 2.3


def doubling_ratio(times_ms: dict) -> float:
    """Compile-time ratio per doubling of n: 2 ** the least-squares
    slope of log2(time) against log2(n) over the whole curve."""
    xs = [math.log2(n) for n in times_ms]
    ys = [math.log2(t) for t in times_ms.values()]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    return 2**slope


def test_grover_compile_scaling():
    """Compile time grows linearly with the circuit: per doubling of n,
    grover's cold compile time grows at most 2.3x.

    The gate is the slope fitted over the whole curve: on a shared host
    single pairs of sizes swing from 1.4x to 2.7x run to run, while the
    fitted ratio stays within about 0.1x of 2."""
    kernels = {n: asdf_kernel("grover", n) for n in SCALING_SIZES}
    best_ms = {n: float("inf") for n in SCALING_SIZES}
    # Round-robin over the sizes, so a slow spell on a shared machine
    # hits every size alike instead of skewing one of them.
    for _ in range(3):
        for n, kernel in kernels.items():
            start = time.perf_counter()
            kernel.compile()
            elapsed_ms = (time.perf_counter() - start) * 1e3
            best_ms[n] = min(best_ms[n], elapsed_ms)
    ratio = doubling_ratio(best_ms)
    write_result(
        "compiler_scaling_grover.txt",
        "grover cold compile (best of 3)\n"
        + "\n".join(
            f"  n={n:<4} {best_ms[n]:9.1f} ms"
            + (f"  x{best_ms[n] / best_ms[n // 2]:.2f}" if n // 2 in best_ms else "")
            for n in SCALING_SIZES
        )
        + f"\n  fitted: x{ratio:.2f} per doubling (limit x{MAX_DOUBLING_RATIO})",
    )
    write_bench_json(
        "compiler_speed",
        [
            bench_record(f"compile-grover-n{n}", "scaling", best_ms[n])
            for n in SCALING_SIZES
        ],
    )
    assert ratio <= MAX_DOUBLING_RATIO, (
        f"grover compile time grows x{ratio:.2f} per doubling of n "
        f"(limit x{MAX_DOUBLING_RATIO})"
    )


@pytest.mark.parametrize("k", [16, 64, 256])
def test_span_check_scales_polynomially(benchmark, k):
    # {'0','1'}[k] >> {'1','0'}[k] covers 2^k vectors; the checker must
    # stay polynomial in the AST size k (paper §4.1).
    b_in = Basis.literal("0", "1").broadcast(k)
    b_out = Basis.literal("1", "0").broadcast(k)
    benchmark.pedantic(
        lambda: check_span_equivalence(b_in, b_out),
        rounds=5,
        iterations=2,
    )
