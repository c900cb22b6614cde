#!/usr/bin/env python3
"""Run the benchmark's workloads one after another and summarise them.

    python3 perfbench/report.py                  # each workload once, every metric
    python3 perfbench/report.py --seeds 1-10     # spread of each metric over seeds
    python3 perfbench/report.py --trace          # per-layer self-time shares

Each run is a separate ``run.py`` process, started only after the previous
one has exited, so no two workloads share a process or a core.  Run from the
repository root.  ``--out FILE`` writes every run's result, with the
environment it ran in, as JSON; ``--against FILE`` compares the medians of
this invocation with those of an earlier ``--out`` file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
LAYERS = ("thresholds", "oracle", "periodicity", "families", "engine", "cli")


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
    return {"workload": workload, "seed": seed, "trace": trace, "env": env,
            "elapsed_s": elapsed, "log": lines[1:-1], "result": result}


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile distance as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def summarise(runs: list[dict], bench: dict, against: dict | None) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        print(f"\n{workload}: {len(mine)} runs, seeds {[r['seed'] for r in mine]}, "
              f"failed answers {sum(r['result']['failed'] for r in mine)}")
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            med, rel = spread(values) if len(values) > 1 else (values[0], 0.0)
            row = {"median": med, "spread": rel, "bound": bound, "values": values}
            note = ""
            if name != "setup_s":
                note = "ok" if rel < bound / 3 else ("within bound" if rel <= bound else "TOO WIDE")
            if against:
                base = against[workload][name]["median"]
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                worse = (med - base) / base if better == "lower" else (base - med) / base
                row["worse_than_against"] = worse
                note += f"; {100 * worse:+.1f}% worse than before" + (
                    " (OVER BOUND)" if worse > bound else "")
            print(f"  {name:<16} median {med:>14.6g}  spread {100 * rel:5.1f}%  "
                  f"bound {100 * bound:.0f}%  {note}")
            summary[workload][name] = row
    return summary


def trace_summary(runs: list[dict]) -> dict:
    """Each layer's self time per workload, as a share of the layer's total."""
    table = {r["workload"]: {layer: r["result"]["metrics"][f"{layer}.self_s"]["value"]
                             for layer in LAYERS} for r in runs}
    print(f"\n{'layer':<12}" + "".join(f"{w:>18}" for w in table) + "   (share of the layer's self time)")
    for layer in LAYERS:
        total = sum(table[w][layer] for w in table) or 1.0
        print(f"{layer:<12}" + "".join(f"{100 * table[w][layer] / total:>17.1f}%" for w in table))
    for r in runs:
        overhead = r["result"]["metrics"]["trace.overhead_ratio"]["value"]
        print(f"{r['workload']}: tracing overhead {100 * overhead:+.1f}%")
    return table


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", action="store_true", help="one traced run per workload")
    p.add_argument("--out", help="write all results to this JSON file")
    p.add_argument("--against", help="an earlier --out file to compare medians with")
    args = p.parse_args(argv)

    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, int(args.trace))
            runs.append(run)
            print(f"--- {workload} seed {seed}: correct={run['result']['correct']}, "
                  f"process ran {run['elapsed_s']:.1f} s")
            for line in run["log"]:
                print(line)
    against = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            against = json.load(fh)["summary"]
    summary = trace_summary(runs) if args.trace else summarise(runs, bench, against)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "summary": summary, "runs": runs}, fh, indent=1)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
