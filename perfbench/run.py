"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload compile-cold --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, as CPU
time at a reference host speed; ``--trace 1`` is the separate traced
run that reports the per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.  The
last line of standard output is the JSON result object; everything
above it is a human-readable table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys

from common import (
    SETUP_SAMPLES,
    BenchError,
    ReferenceSpeed,
    Report,
    RunDir,
    Tally,
    bootstrap,
    emit,
    median,
    time_setup_in_child,
)


def workload_module(name: str):
    if name == "compile-cold":
        import compile_cold

        return compile_cold
    if name in ("serve-warm", "serve-noisy"):
        import serve

        return serve.WORKLOADS[name]
    if name == "variational":
        import variational

        return variational
    raise BenchError(f"unknown workload {name!r}")


def setup_probe(name: str) -> int:
    """Child side of a set-up sample: do the workload's set-up in a
    fresh interpreter, say ``ready``, exit."""
    with RunDir(f"setup-{name}") as run_dir:
        run_dir.activate()
        workload_module(name).setup()
        print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = bootstrap()
        if args.setup_probe:
            return setup_probe(args.setup_probe)
        known = [w["name"] for w in spec["workloads"]]
        if args.workload not in known:
            raise BenchError(
                f"--workload must be one of {', '.join(known)}"
            )
        module = workload_module(args.workload)
        report, tally = Report(), Tally()
        with RunDir(args.workload) as run_dir:
            run_dir.activate()
            if args.trace:
                module.trace(args.seed, args.seconds, report, tally)
            else:
                speed = ReferenceSpeed()
                samples = []
                if hasattr(module, "setup"):
                    for _ in range(SETUP_SAMPLES):
                        samples.append(time_setup_in_child(args.workload))
                        speed.sample()
                module.measure(args.seed, args.seconds, report, tally, speed)
                if samples:
                    cpu = median(c for c, _ in samples)
                    report.put("setup_s", cpu * speed.scale,
                               f"fresh interpreter to ready, median of "
                               f"{len(samples)}: {cpu:.3f} CPU s, wall "
                               f"clock {median(w for _, w in samples):.3f} s")
                report.say(f"  {speed.describe()}")
        emit(spec, bool(args.trace), args.workload, report, tally)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
