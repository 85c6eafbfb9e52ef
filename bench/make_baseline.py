"""Run every workload on several seeds and record medians and spreads.

    python3 bench/make_baseline.py --out bench/baseline.json

Each workload in BENCHMARK.json runs ten times untraced with seeds 1..10,
for the run length in BENCHMARK.json, then twice traced with seed 1.
For every end-to-end metric it records the ten values, their median and
quartiles, and the spread (q3 - q1) / median next to the metric's bound.
For the traced runs it records the per-layer metrics of the first run
and whether every count (every metric that is not a time or the
overhead ratio) repeated exactly.  The output also names the Python
version, the git revision and the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _is_count(name: str, unit: str) -> bool:
    return unit != "s" and name != "trace.overhead_ratio"


def measure(workload: str, config: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    results = []
    for seed in range(1, RUNS + 1):
        results.append(_run(workload, seed, config["run_seconds"], 0))
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
    end_to_end = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median
        end_to_end[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                            "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}
        flag = "" if spread < bound / 3 else "  <-- spread above a third of the bound"
        print(f"  {name:<12} median {median:.6g}  spread {spread:.4f}  bound {bound}{flag}", flush=True)
    out = {"runs": RUNS, "seeds": list(range(1, RUNS + 1)),
           "all_correct": all(r["correct"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "end_to_end": end_to_end}
    traces = [_run(workload, 1, config["run_seconds"], 1) for _ in range(2)]
    counts = [{k: v["value"] for k, v in t["metrics"].items() if _is_count(k, v["unit"])}
              for t in traces]
    out["traced_correct"] = all(t["correct"] for t in traces)
    out["counts_repeat"] = counts[0] == counts[1]
    out["per_layer"] = {k: v["value"] for k, v in traces[0]["metrics"].items()}
    print(f"  traced: counts repeat {out['counts_repeat']}, overhead "
          f"{out['per_layer']['trace.overhead_ratio']:.3f}", flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "python": platform.python_version(),
        "revision": _git("rev-parse", "HEAD"),
        "src_clean": _git("status", "--porcelain", "--", "src") == "",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": config["run_seconds"],
        "workloads": {w["name"]: measure(w["name"], config) for w in config["workloads"]},
    }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
