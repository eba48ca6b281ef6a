"""One timed repetition of a workload, in the fresh interpreter it needs.

    python bench/child.py <workload> <seed> <trace 0|1>

Every ``multifaced verify`` run starts with the library's module-level caches
cold, so each repetition gets its own interpreter.  The child imports the
library, draws its inputs from the seed, stamps the first timed call on the
system-wide monotonic clock (so the parent can measure set-up from launch),
runs the workload and prints one JSON line with its timings, checks, work
counts, spans and host-speed probes.

Host-speed probes: from its first line to its last timed call the child
runs a fixed loop, ``probe``, every ``PROBE_INTERVAL_S`` from a timer
signal, and records when each probe started and how long it took.  The
probes see the host's speed at the same moments as the workload; the parent
scales the workload's times by them (see ``run.py``) and subtracts the time
they took.  ``selftest.py`` checks that a known slowdown of the library shows
in the scaled times as much as in the measured ones.
"""

import gc
import signal
import time

PROBE_INTERVAL_S = 0.02
probes: list[tuple[float, float]] = []


def probe() -> int:
    """A fixed piece of interpreter work: tuple keys, dict reads and writes."""
    d: dict = {}
    acc = 0
    for i in range(3000):
        k = (i & 63, i % 7)
        d[k] = d.get(k, 0) + i
        acc += d[k]
    return acc


def _on_timer(signum, frame) -> None:
    # No garbage collection inside a probe: a collection there would scan the
    # workload's heap and charge the workload's allocations to the host factor.
    gc.disable()
    start = time.monotonic()
    probe()
    probes.append((start, time.monotonic() - start))
    gc.enable()


signal.signal(signal.SIGALRM, _on_timer)
signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

t_import = time.monotonic()
import multifaced.cli  # noqa: E402,F401  loads every module of the library

t_imported = time.monotonic()

import workloads  # noqa: E402


def main() -> None:
    name, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    cfg = workloads.CONFIGS[name]["full"]
    prepare, work = workloads.WORKLOADS[name]
    run = workloads.Run(trace)
    if trace:
        run.spans.append(
            {"name": "cli.import", "parent": None, "start": t_import, "end": t_imported, "rss_mb": None}
        )
    inputs = prepare(cfg, random.Random(seed))
    first = time.monotonic()
    work(cfg, inputs, run)
    last = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    out = {
        "first": first,
        "last": last,
        "checks": run.checks,
        "failed": run.failed,
        "failures": run.failures,
        "observed": run.observed,
        "observed_failures": run.observed_failures,
        "work": run.work,
        "counts": run.counts,
        "spans": run.spans,
        "probes": probes,
        "peak_rss_mb": workloads.peak_rss_mb(),
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
