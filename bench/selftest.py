"""Self-test of the benchmark's checks, at each workload's smallest size.

    PYTHONPATH=src python3 bench/selftest.py

* Every counted check fails on a known-bad input: the run must then report
  ``checks_failed > 0`` and name that check.
* The checks that are timed but not counted stay within tolerance on the
  same bad inputs; their worst values are printed as the evidence that they
  cannot fail.
* Two seeds give identical work counts and different inputs.
* A run at a shrunk size fails its size guard.
* A known slowdown of ``Product.moment`` (extra allocation and work per
  call) makes the host-normalised ``wall_s`` of ``reconstruct`` grow by the
  same share as the measured one, within the bound of ``wall_s``: the host
  factor does not absorb a change of the program.

Exits 0 when every case behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import workloads as wl
from run import HERE, ROOT, normalise
from multifaced import ClassId, ClassIndicatorFamily, ConstantBlockFamily, DeformedFamily, Partition, bi_interval_family

SEEDS = (1, 2)


def small(name: str, **changes) -> dict:
    cfg = copy.copy(wl.CONFIGS[name]["small"])
    cfg.update(changes)
    return cfg


def execute(name: str, cfg: dict, seed: int = SEEDS[0], mutate=None) -> tuple[wl.Run, dict]:
    prepare, work = wl.WORKLOADS[name]
    inputs = prepare(cfg, random.Random(seed))
    if mutate is not None:
        mutate(inputs)
    run = wl.Run(trace=False)
    work(cfg, inputs, run)
    return run, inputs


@contextmanager
def patched(obj, attr: str, value):
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)


def constant_block() -> list:
    return [ConstantBlockFamily(0.7)]


def bi_interval() -> list:
    return [bi_interval_family()]


def mislabelled_tensor() -> DeformedFamily:
    fam = DeformedFamily("tensor", 1j)
    fam.base = "free"  # claims the free support, has the tensor weights
    return fam


def broken_mirror(p: Partition) -> Partition:
    return p.change_extremal_face("first", "w")


def i_product_for_nc(inputs: dict) -> None:
    c, _, tables, words = inputs["work"][0]
    inputs["work"][0] = (c, ClassIndicatorFamily(ClassId.I), tables, words)


real_patterns = wl.enumerate_admissible_patterns
real_assoc = wl.associativity_symmetry_check

# (workload, case, config changes, input mutation, patch, check expected to fail)
BAD_CASES = [
    ("sweep", "shrunk to 3 legs", {"legs": 3}, None, None, "partitions.count"),
    ("sweep", "mirror that is not an involution", {}, None,
     (Partition, "mirror", broken_mirror), "partitions.rewrite_invariants"),
    ("sweep", "membership that accepts everything", {}, None,
     (wl, "member", lambda c, p: True), "classes.count.I"),
    ("sweep", "deformed tensor labelled free", {}, lambda i: i["families"].append(mislabelled_tensor()),
     None, "weights.support.deformed:tensor"),
    ("sweep", "ConstantBlockFamily(0.7) as admissible", {},
     lambda i: i["admissible"].append(ConstantBlockFamily(0.7)), None, "weights.admissible.broken-constant"),
    ("sweep", "bi_interval_family as admissible", {},
     lambda i: i["admissible"].append(bi_interval_family()), None, "weights.admissible.bi-interval"),
    ("sweep", "admissible NC indicator as the (vi) control", {}, None,
     (wl, "bi_interval_family", lambda: ClassIndicatorFamily(ClassId.NC)), "weights.control_violates_vi"),
    ("sweep", "Hasse diagram at 3 legs", {"hasse_legs": 3}, None, None, "classify.hasse"),
    ("sweep", "NC diagrams plus a crossing diagram", {},
     lambda i: i["closure_generators"].append(Partition("wwww", [(1, 3), (2, 4)])), None,
     "classify.closure_equals_class"),
    ("sweep", "one admissible pattern lost", {}, None,
     (wl, "enumerate_admissible_patterns", lambda: real_patterns()[:-1]), "classify.patterns"),
    ("transforms", "ConstantBlockFamily(0.7)", {"families": constant_block}, None, None,
     "cumulants.letter.broken-constant"),
    ("transforms", "shrunk to degree 2", {"degree": 2}, None, None, "cumulants.words_per_table"),
    ("reconstruct", "ConstantBlockFamily(0.7)", {"families": constant_block}, None, None,
     "product.well_definedness.broken-constant"),
    ("reconstruct", "shrunk to 2 letters", {"max_len": 2}, None, None, "product.assoc_words"),
    ("reconstruct", "associativity over shorter words", {}, None,
     (wl, "associativity_symmetry_check", lambda f, t1, t2, t3, n: real_assoc(f, t1, t2, t3, n - 1)),
     "product.assoc_words"),
    ("inclusion-exclusion", "NC formula against the I product", {}, i_product_for_nc, None,
     "product.inclusion_exclusion.NC"),
    ("inclusion-exclusion", "shrunk to 2 legs", {"max_legs": 2}, None, None, "product.structures_per_class"),
]

# Checks that are timed but not counted, run on inputs that break the
# counted checks: they hold anyway, so they cannot fail.
UNCOUNTED_EVIDENCE = [
    ("reconstruct", "ConstantBlockFamily(0.7)", {"families": constant_block}),
    ("reconstruct", "bi_interval_family", {"families": bi_interval, "extract_legs": 0}),
    ("transforms", "ConstantBlockFamily(0.7)", {"families": constant_block}),
    ("transforms", "bi_interval_family", {"families": bi_interval}),
]


# Runs bench/child.py with Product.moment slowed by a fixed amount of work per
# call that allocates and keeps memory, as a change to the library would.
SLOW_LAUNCHER = """
import runpy, sys
from multifaced.product import Product
real, ballast = Product.moment, []
def moment(self, word):
    ballast.append([word] * 4)
    [(i, word) for i in range(300)]
    return real(self, word)
Product.moment = moment
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""
SLOW_PAIRS = 9


def launch(slow: bool, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]), PYTHONHASHSEED="0")
    child = [str(HERE / "child.py"), "reconstruct", str(seed), "0"]
    cmd = [sys.executable, "-c", SLOW_LAUNCHER, *child] if slow else [sys.executable, *child]
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300)
    return normalise(json.loads(proc.stdout.strip().splitlines()[-1]), launched)


def slowdown_passes_through() -> str | None:
    """Alternate plain and slowed repetitions; compare the growth of wall_s."""
    bound = next(m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
                 if m["name"] == "wall_s")
    measured, normalised = [], []
    for i in range(SLOW_PAIRS):
        order = (False, True) if i % 2 == 0 else (True, False)
        reps = {slow: launch(slow, SEEDS[0]) for slow in order}
        measured.append(reps[True]["measured_wall_s"] / reps[False]["measured_wall_s"])
        normalised.append(reps[True]["wall_s"] / reps[False]["wall_s"])
    grew, grew_norm = statistics.median(measured), statistics.median(normalised)
    print(f"reconstruct: slowed Product.moment: measured wall_s x{grew:.3f}, host-normalised wall_s "
          f"x{grew_norm:.3f} (medians of {SLOW_PAIRS} pairs; bound {bound})")
    if grew < 1 + bound:
        return f"the slowdown is too small to test: measured wall_s x{grew:.3f}"
    if abs(grew_norm / grew - 1) > bound:
        return f"host-normalised wall_s grew x{grew_norm:.3f}, measured x{grew:.3f}"
    return None


def main() -> int:
    problems: list[str] = []

    for name in wl.WORKLOADS:
        runs = [execute(name, small(name), seed) for seed in SEEDS]
        (r1, i1), (r2, i2) = runs
        clean = r1.failed == 0 and not r1.observed_failures
        same_work = (r1.checks, r1.work, r1.counts) == (r2.checks, r2.work, r2.counts)
        new_inputs = i1["digest"] != i2["digest"]
        print(f"{name}: small size clean={clean} checks={r1.checks} work={r1.work}; "
              f"seeds {SEEDS}: same work counts={same_work}, different inputs={new_inputs}")
        if not (clean and same_work and new_inputs):
            problems.append(f"{name}: clean run or seed test failed {r1.failures} {r1.observed_failures}")

    for name, case, changes, mutate, patch, want in BAD_CASES:
        if patch is None:
            run, _ = execute(name, small(name, **changes), mutate=mutate)
        else:
            with patched(*patch):
                run, _ = execute(name, small(name, **changes), mutate=mutate)
        hit = any(f.startswith(want) for f in run.failures)
        print(f"{name}: {case}: checks_failed={run.failed} -> {want} {'fails' if hit else 'DID NOT FAIL'}")
        if not (run.failed > 0 and hit):
            problems.append(f"{name}: {case} did not fail {want}: {run.failures}")

    for name, case, changes in UNCOUNTED_EVIDENCE:
        run, _ = execute(name, small(name, **changes))
        worst = ", ".join(f"{k} {v:.3g}" for k, v in sorted(run.observed.items()))
        print(f"{name}: {case}: uncounted checks hold ({worst}); counted checks_failed={run.failed}")
        if run.observed_failures:
            problems.append(f"{name}: {case}: an uncounted check failed: {run.observed_failures}")

    slow = slowdown_passes_through()
    if slow:
        problems.append(f"reconstruct: {slow}")

    for p in problems:
        print(f"SELF-TEST FAILURE: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
