"""Every benchmark workload passes its own checks at its smallest size, so
a library change that breaks one (a work count, a tag count, a tolerance)
fails here and not only when the benchmark runs."""

import importlib.util
import random
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wl = load_workloads()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_small_config_passes_its_checks(name):
    cfg = wl.CONFIGS[name]["small"]
    prepare, work = wl.WORKLOADS[name]
    run = wl.Run(trace=False)
    work(cfg, prepare(cfg, random.Random(1)), run)
    assert run.checks > 0 and run.work > 0
    assert run.failed == 0, run.failures
    assert run.observed_failures == [], run.observed_failures
