"""Measure the baseline: run every workload on several seeds, report spreads.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Runs ``bench/run.py`` for ``run_seconds`` of ``BENCHMARK.json`` once per
(seed, workload) with tracing off, seeds in the outer loop so host noise
spreads over the workloads, then once per workload with tracing on, on seed
``TRACE_SEED``.  For every end-to-end metric it reports the median and
quartiles of the per-run medians (``statistics.quantiles``, n=4) and the
spread, the distance between the quartiles as a share of the median.  The
load average at the start and end of every run is kept with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, WORKLOADS, provenance  # noqa: E402

TRACE_SEED = 1


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int, runs: list[dict]) -> dict:
    """One run of run.py; its load averages are appended to ``runs``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    prov = json.loads(next(line for line in lines if line.startswith("provenance "))[len("provenance "):])
    runs.append({"workload": workload, "seed": seed, "trace": trace,
                 "loadavg_start": prov["loadavg_start"], "loadavg_end": prov["loadavg_end"]})
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    prov = dict(provenance(), loadavg_start=os.getloadavg())
    runs: list[dict] = []

    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    for seed in seeds:
        for w in WORKLOADS:
            res = bench(w, seed, seconds, 0, runs)
            for m, v in res["metrics"].items():
                values[w].setdefault(m, []).append(v["value"])
            print(f"seed {seed} {w}: " + ", ".join(f"{m} {v['value']:.4g}" for m, v in res["metrics"].items()),
                  flush=True)

    end_to_end = {}
    for w in WORKLOADS:
        end_to_end[w] = {}
        for m, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            end_to_end[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "" if m == "setup_s" or spread < bounds[m] / 3 else "  <-- above a third of the bound"
            print(f"{w} {m}: median {med:.4g}, quartiles {q1:.4g}..{q3:.4g}, spread {spread:.3f} "
                  f"(bound {bounds[m]}){flag}")

    per_layer = {}
    for w in WORKLOADS:
        res = bench(w, TRACE_SEED, seconds, 1, runs)
        per_layer[w] = {m: v["value"] for m, v in res["metrics"].items()}
        print(f"trace {w}: trace_overhead_pct {per_layer[w]['trace_overhead_pct']:.2f}")

    if args.out:
        out = {
            "provenance": dict(prov, loadavg_end=os.getloadavg()),
            "run_seconds": seconds,
            "seeds": seeds,
            "end_to_end": end_to_end,
            "trace_seed": TRACE_SEED,
            "per_layer": per_layer,
            "runs": runs,
        }
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
