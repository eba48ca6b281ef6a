"""Benchmark entry point: time one workload of the multifaced checker end to end.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it needs ``src/multifaced`` and
nothing installed.  The workloads are described in ``bench/README.md``.

Every timed repetition runs in a fresh interpreter (``bench/child.py``),
started by this process one at a time, until ``--seconds`` would be
exceeded.  The inputs of every repetition come from ``--seed``.

The host's speed drifts by tens of percent over seconds to minutes, so
every time is host-normalised: the child runs a fixed probe loop every 20 ms
(see ``child.py``), and a repetition's times, less the probes' own time, are
divided by its host factor, the trimmed mean probe duration over
``PROBE_REF_S``.  A time is thus in seconds of a host on which the probe
takes 1 ms.  The measured times and the factor are kept in the results.

Reported values are medians over the repetitions:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``.
* ``--trace 1``: repetitions alternate between tracing off and on; the
  per-layer metrics come from the traced ones (sums of span durations, work
  counts, the high-water RSS at the end of a span), ``trace_overhead_pct``
  compares the traced ``wall_s`` with the untraced one, and
  ``measured_setup_s``, ``measured_wall_s`` and ``host_factor`` are the
  untraced medians before normalisation, so that a claimed gain can be
  checked on the measured times too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` are the checks that can fail, summed over the repetitions.  The
exit code is 0 only if every check passed.  A record of every repetition and
the spans of the traced ones go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "reconstruct", "transforms", "inclusion-exclusion")
MIN_REPS = 3  # per tracing mode
CHILD_TIMEOUT_S = 150
PROBE_REF_S = 1.0e-3


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def declared_metrics(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` metrics declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def build() -> None:
    """Byte-compile the library and the benchmark, so no repetition pays it."""
    if not (ROOT / "src" / "multifaced" / "__init__.py").is_file():
        raise BenchError(f"no multifaced sources under {ROOT / 'src'}; run from a source checkout")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True,
        stdout=subprocess.DEVNULL,
    )


def run_child(workload: str, seed: int, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if trace else "0"]
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    ended = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = normalise(json.loads(lines[-1]), launched)
    out["trace"] = trace
    out["duration_s"] = ended - launched
    return out


def normalise(out: dict, launched: float) -> dict:
    """Add a child's measured and host-normalised times to its output."""
    first, last, probes = out["first"], out["last"], out["probes"]
    if not probes:
        raise BenchError("a repetition recorded no host-speed probes")
    factor = trimmed_mean([d for _, d in probes]) / PROBE_REF_S
    out["host_factor"] = factor
    out["measured_setup_s"] = first - launched
    out["measured_wall_s"] = last - first
    out["setup_s"] = (first - launched - probe_time(probes, launched, first)) / factor
    out["wall_s"] = (last - first - probe_time(probes, first, last)) / factor
    for span in out["spans"]:
        span["seconds"] = (span["end"] - span["start"] - probe_time(probes, span["start"], span["end"])) / factor
    return out


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean without the lowest and highest ``cut`` share of the values."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k : len(values) - k])


def probe_time(probes: list, start: float, end: float) -> float:
    return sum(d for t, d in probes if start <= t < end)


def repetitions(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Fresh-interpreter repetitions, one at a time, within ``seconds``."""
    modes = (False, True) if trace else (False,)
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        mode = modes[len(reps) % len(modes)]
        reps.append(run_child(workload, seed, mode))
        elapsed = time.monotonic() - start
        enough = all(sum(1 for r in reps if r["trace"] == m) >= MIN_REPS for m in modes)
        longest = max(r["duration_s"] for r in reps)
        if enough and elapsed + longest > seconds:
            return reps


def span_totals(rep: dict) -> tuple[dict, dict]:
    """Per span name: summed duration, and the highest RSS at a span's end."""
    seconds: dict[str, float] = {}
    rss: dict[str, float] = {}
    for s in rep["spans"]:
        seconds[s["name"]] = seconds.get(s["name"], 0.0) + s["seconds"]
        if s["rss_mb"] is not None:
            rss[s["name"]] = max(rss.get(s["name"], 0.0), s["rss_mb"])
    return seconds, rss


def end_to_end(reps: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "measured_setup_s": statistics.median(r["measured_setup_s"] for r in reps),
        "measured_wall_s": statistics.median(r["measured_wall_s"] for r in reps),
        "host_factor": statistics.median(r["host_factor"] for r in reps),
    }


def summarize(workload: str, reps: list[dict], trace: bool) -> dict:
    plain = [r for r in reps if not r["trace"]]
    problems = [f"check {f}" for r in reps for f in r["failures"]]
    problems += [f"uncounted check {f}" for r in reps for f in r["observed_failures"]]
    # Work counts and checks must repeat exactly between repetitions.
    signatures = {json.dumps([r["checks"], r["work"], r["counts"]], sort_keys=True) for r in reps}
    if len(signatures) != 1:
        problems.append(f"work counts differ between repetitions: {sorted(signatures)}")
    e2e = end_to_end(plain)
    if trace:
        traced = [r for r in reps if r["trace"]]
        totals = [span_totals(r) for r in traced]
        metrics = {}
        for m in declared_metrics("per_layer"):
            name = m["name"]
            if name in e2e:
                value = e2e[name]
            elif name == "trace_overhead_pct":
                traced_wall = statistics.median(r["wall_s"] for r in traced)
                value = 100.0 * (traced_wall - e2e["wall_s"]) / e2e["wall_s"]
            elif name.endswith("_rss_mb"):
                value = statistics.median(rss.get(name[: -len("_rss_mb")], 0.0) for _, rss in totals)
            elif name.endswith("_s"):
                value = statistics.median(sec.get(name[: -len("_s")], 0.0) for sec, _ in totals)
            else:
                value = traced[0]["counts"].get(name, 0)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in declared_metrics("end_to_end")}
    failed = sum(r["failed"] for r in reps)
    return {
        "workload": workload,
        "correct": not problems,
        "attempted": sum(r["checks"] for r in reps),
        "failed": failed if failed or not problems else 1,
        "metrics": metrics,
        "checks": reps[0]["checks"],
        "checks_failed": max(r["failed"] for r in reps),
        "problems": problems,
        "repetitions": len(plain),
        "end_to_end": e2e,
    }


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        **git_state(),
    }


def bench_one(workload: str, seed: int, seconds: float, trace: bool, prov: dict) -> dict:
    load_start = os.getloadavg()
    reps = repetitions(workload, seed, seconds, trace)
    prov = dict(prov, loadavg_start=load_start, loadavg_end=os.getloadavg(), seed=seed, seconds=seconds)
    summary = summarize(workload, reps, trace)
    e2e = summary["end_to_end"]
    print(
        f"{workload}: setup_s {e2e['setup_s']:.4f} s, wall_s {e2e['wall_s']:.4f} s, "
        f"work_per_s {e2e['work_per_s']:.1f} 1/s, peak_rss_mb {e2e['peak_rss_mb']:.1f} MB, "
        f"checks {summary['checks']} count, checks_failed {summary['checks_failed']} count "
        f"(medians of n={summary['repetitions']} fresh interpreters; measured setup_s "
        f"{e2e['measured_setup_s']:.4f} s, wall_s {e2e['measured_wall_s']:.4f} s at host factor {e2e['host_factor']:.3f})"
    )
    for p in summary["problems"][:10]:
        print(f"{workload}: FAILED {p}")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"provenance": prov, "summary": summary, "repetitions": reps}, fh, indent=1)
    print("provenance " + json.dumps(prov, sort_keys=True))
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        build()
        prov = provenance()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = [bench_one(w, args.seed, args.seconds, bool(args.trace), prov) for w in names]
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    result = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
