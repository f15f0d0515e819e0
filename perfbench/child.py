"""One measured process of the benchmark.

    python3 perfbench/child.py SRC MODE [CLI ARGS...]

MODE is `run` (call `cli.main` once) or `trace` (the same under
`spans.Tracer`).  The child prints one JSON line: `imported_at` is the
CLOCK_MONOTONIC reading once `import nhsense.cli` has finished, which the
parent subtracts from its own reading taken just before the spawn; then
the exit code, the wall and CPU time of `cli.main` and the peak resident
memory of the process.

In `run` mode the child also reports `probe_s`, how fast its CPU was while
`cli.main` ran, from samples a timer takes (`probe.py`).  The time the
samples take is left out of `wall_s` and `cpu_s`.
"""

import json
import resource
import sys
import time


def main() -> None:
    src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    from nhsense import cli

    result = {"imported_at": time.monotonic()}
    tracer = sampler = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        result["sites"] = tracer.install()
    else:
        from probe import Sampler
        sampler = Sampler()
        sampler.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            result["restored"] = tracer.uninstall()
        if sampler is not None:
            sampler.stop()
    if sampler is not None:
        wall -= sampler.busy_s
        cpu -= sampler.busy_s
        result["probe_s"] = sampler.median()
        result["probe_samples"] = len(sampler.samples)
    result.update(exit_code=code, wall_s=wall, cpu_s=cpu,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
