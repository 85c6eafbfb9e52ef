"""Benchmark of the tautring CLI: one client, one command at a time (closed loop).

    python3 bench/run.py --workload scan --seed 1 --seconds 55 --trace 0

Run from anywhere; it benchmarks the sources in src/ next to this
directory.  With --trace 0 it runs the workload's commands as separate
`tautring` processes, pass after pass, for about --seconds seconds, and
reports the end-to-end metrics.  With --trace 1 it replays the pass in
process through `tautring.cli.main`, alternately untraced and traced for
about --seconds seconds, and reports the per-layer metrics; the spans are written to
bench/out/trace-<workload>-seed<seed>.json.gz.  Every command's output is
checked.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import selectors
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import check_pass, load_digests
from tracing import SPAN_FIELDS, Tracer
from workloads import WORKLOADS, Command, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

RUN_BUDGET_S = 170.0  # a run stops starting commands after this, killing any still running
SETUP_SAMPLES = 21
IMPORT = "import tautring.cli"
CLI = "import sys; from tautring.cli import main; sys.exit(main())"

# Printed with their units but left out of the JSON result: over a mix of
# short and long commands the 90th percentile jumps between command types
# from run to run.
PRINTED_ONLY = {"cmd_p90_ms": "ms"}


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]} | PRINTED_ONLY


@dataclass(frozen=True)
class Child:
    code: int
    output: bytes
    errors: bytes
    seconds: float
    rss_mb: float


def child_env() -> dict[str, str]:
    """The caller's environment with src/ first on the import path.  Bytecode
    writing is allowed, so that commands start from the cache an installed
    package would have, filled by one untimed start."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(args: list[str], env: dict[str, str], deadline: float) -> Child:
    """Run `python3 <args>`, collect its output and its own rusage; kill it at the deadline."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = bytearray(), bytearray()
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            left = deadline - perf_counter()
            if left <= 0:
                proc.kill()
                break
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    key.data.extend(chunk)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, bytes(out), bytes(err), seconds, usage.ru_maxrss / 1024)


@dataclass(frozen=True)
class Pass:
    wall: float
    latencies: list[float]
    rss_mb: float
    reasons: list[str | None]


def run_pass(commands: list[Command], env, deadline: float, digests) -> Pass:
    start = perf_counter()
    children = [run_child(["-c", CLI, *cmd.argv], env, deadline) for cmd in commands]
    wall = perf_counter() - start
    reasons = check_pass(commands, [c.code for c in children], [c.output for c in children], digests)
    for i, child in enumerate(children):
        if reasons[i] and child.errors:
            reasons[i] += f" ({child.errors.decode(errors='replace').strip().splitlines()[-1]})"
    return Pass(wall, [c.seconds for c in children], max(c.rss_mb for c in children), reasons)


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def measure_e2e(commands: list[Command], seconds: float, digests) -> tuple[dict, dict, list]:
    """End-to-end metrics of a run: (metrics, sample counts, failure reasons)."""
    env = child_env()
    deadline = perf_counter() + RUN_BUDGET_S
    setup: list[float] = []

    def sample_setup(count: int) -> None:
        while len(setup) < count:
            child = run_child(["-c", IMPORT], env, deadline)
            if child.code != 0:
                raise SystemExit(f"bench: cannot import tautring.cli:\n{child.errors.decode()}")
            setup.append(child.seconds)

    def setup_due() -> int:
        """Import starts due by now, spread evenly over the run so that their
        median covers the same stretch of machine speed as the passes."""
        if seconds <= 0:
            return SETUP_SAMPLES
        return min(SETUP_SAMPLES, 1 + int((perf_counter() - start) / seconds * SETUP_SAMPLES))

    run_child(["-c", IMPORT], env, deadline)  # writes the bytecode cache; not timed
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        sample_setup(setup_due())
        p = run_pass(commands, env, deadline, digests)
        passes.append(p)
        now = perf_counter()
        if now - start + p.wall > seconds or now + p.wall > deadline:
            break
    sample_setup(SETUP_SAMPLES)
    latencies = [s for p in passes for s in p.latencies]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "cmd_p50_ms": statistics.median(latencies) * 1000,
        "cmd_p90_ms": percentile(latencies, 90) * 1000,
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    samples = {"setup_s": len(setup), "wall_s": len(passes), "cmd_p50_ms": len(latencies),
               "cmd_p90_ms": len(latencies), "peak_rss_mb": len(passes)}
    return metrics, samples, [r for p in passes for r in p.reasons]


def replay(cli, commands: list[Command], tracer: Tracer | None = None) -> tuple[float, list[int], list[bytes]]:
    """One in-process pass through cli.main, traced when a tracer is given;
    returns (wall seconds, exit codes, outputs)."""
    codes, outputs = [], []
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        for i, cmd in enumerate(commands):
            if tracer is not None:
                tracer.cmd = i
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                try:
                    codes.append(cli.main(list(cmd.argv)))
                except Exception:  # noqa: BLE001  a crash fails the command, as in its own process
                    codes.append(1)
            outputs.append(buf.getvalue().encode())
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return wall, codes, outputs


def measure_traced(commands: list[Command], seconds: float, digests,
                   out_file: Path | None) -> tuple[dict, list]:
    """Per-layer metrics: untraced and traced in-process passes alternate for
    about `seconds`, at least one pair, untraced first in the first pair.
    The metrics come from the last traced pass; the overhead compares the
    median walls of the two kinds.  Returns (metrics, failure
    reasons)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tautring.cli as cli

    walls: tuple[list, list] = ([], [])
    reasons: list = []
    begin = perf_counter()
    while True:
        # Which kind goes first flips from pair to pair.
        for traced in (0, 1) if len(walls[0]) % 2 == 0 else (1, 0):
            if traced:
                tracer = Tracer()
            wall, codes, outputs = replay(cli, commands, tracer if traced else None)
            walls[traced].append(wall)
            reasons += check_pass(commands, codes, outputs, digests)
        if perf_counter() - begin + walls[0][-1] + walls[1][-1] > seconds:
            break
    metrics = tracer.layer_metrics()
    metrics["cli.output_bytes"] = sum(len(o) for o in outputs)
    metrics["trace.overhead_ratio"] = statistics.median(walls[1]) / statistics.median(walls[0]) - 1
    if out_file is not None:
        out_file.parent.mkdir(exist_ok=True)
        origin = tracer.spans[0][1]
        spans = [[name, s - origin, e - origin, parent, cmd] for name, s, e, parent, cmd in tracer.spans]
        record = {"commands": [list(c.argv) for c in commands], "fields": SPAN_FIELDS,
                  "spans": spans, "counts": dict(tracer.counts), "metrics": metrics}
        with gzip.open(out_file, "wt") as fh:
            json.dump(record, fh)
    return metrics, reasons


def summary(metrics: dict, units: dict, reasons: list, samples: dict | None = None) -> dict:
    failed = sum(1 for r in reasons if r)
    for name, value in metrics.items():
        note = f"  (median of {samples[name]})" if samples else ""
        if name in PRINTED_ONLY:
            note = f"  (of {samples[name]} samples; printed only)"
        print(f"  {name:<40} {value:>14.6g} {units[name]}{note}")
    print(f"  {'failed_ratio':<40} {failed / len(reasons):>14.6g} ratio  ({failed} of {len(reasons)})")
    for reason in sorted({r for r in reasons if r}):
        print(f"  FAILED: {reason}")
    return {
        "correct": failed == 0,
        "attempted": len(reasons),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name not in PRINTED_ONLY},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="shrink every command (harness check)")
    args = parser.parse_args(argv)
    if not (SRC / "tautring" / "cli.py").is_file():
        print(f"bench: no tautring sources under {SRC}", file=sys.stderr)
        return 2
    commands = build(args.workload, args.seed, short=args.short)
    digests = load_digests()
    print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands per pass, "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    if args.trace:
        out_file = None if args.short else OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        metrics, reasons = measure_traced(commands, args.seconds, digests, out_file)
        result = summary(metrics, metric_units(), reasons)
    else:
        metrics, samples, reasons = measure_e2e(commands, args.seconds, digests)
        result = summary(metrics, metric_units(), reasons, samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
