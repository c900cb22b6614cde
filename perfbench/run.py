#!/usr/bin/env python3
"""Benchmark for nimcash: one workload, one fresh single-threaded process.

    python3 perfbench/run.py --workload query-stream --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/``; the
plain reference solver in ``tests/reference.py`` is the independent check.

The workload runs as a closed loop of rounds (see each workload module)
until the timed rounds add up to ``--seconds``.  Input generation and every
correctness check run outside the timed region.  Each round's wall time is
also normalised by the calibration kernel timed just before and just after
it (see ``calibration.py``); the reported times are the normalised ones.
Progress lines go to stdout; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1``: the per-layer metrics.  The run sets up once without and
  once with the wrappers of ``tracing.py``, then replays a fixed number of
  rounds (``trace_rounds`` of the workload), each first untraced and then
  traced, so the counts repeat exactly for a seed.  The ratio of the two
  timings is the tracing overhead.  Spans are written to ``.perfbench/``.
"""

import os

# One thread everywhere: the numbers must not depend on a BLAS pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402  (loads numpy, which the harness itself needs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5

WORKLOADS = {
    "query-stream": ("query_stream", "QueryStream"),
    "box-sweep": ("box_sweep", "BoxSweep"),
    "research-verify": ("research_verify", "ResearchVerify"),
}

# Unit of each end-to-end metric; ``answers_per_s`` is also printed under
# the name it has on each workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "answers_per_s": "1/s",
    "peak_rss_mb": "MB",
}
ANSWER_NAMES = {
    "query-stream": "queries_per_s",
    "box-sweep": "cells_per_s",
    "research-verify": "verdicts_per_s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def load_reference():
    path = ROOT / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("nimcash_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(workload, state, records, seconds=None, inputs=None):
    """Run rounds until ``seconds`` of timed work, or exactly the given ``inputs``.

    Inputs are generated between rounds and dropped after them, so the
    bookkeeping does not grow with the number of rounds.  ``records``
    receives what each round's checks need.  Returns each round's wall time
    and its wall time normalised by the calibration kernel run just before
    and just after it.
    """
    walls, normalised = [], []
    before = calibration.measure()
    while (sum(walls) < seconds) if inputs is None else (len(walls) < len(inputs)):
        i = len(walls)
        inp = workload.next_input(i) if inputs is None else inputs[i]
        start = time.perf_counter()
        try:
            out = workload.run(state, inp)
        except Exception as exc:  # a raised error is a failed answer
            out = exc
        walls.append(time.perf_counter() - start)
        after = calibration.measure()
        normalised.append(walls[-1] * calibration.REFERENCE_S * 2 / (before + after))
        before = after
        records.append(out if isinstance(out, Exception) else workload.record(inp, out))
        del out
    return walls, normalised


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nimcash" / "__init__.py").is_file():
        print(f"error: no nimcash sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "reference.py").is_file():
        print("error: tests/reference.py, the reference solver, is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    nimcash, *import_s = timed_call(lambda: importlib.import_module("nimcash"))
    importlib.import_module("nimcash.cli")  # the CLI is called in-process

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    OUT_DIR.mkdir(exist_ok=True)
    module_name, class_name = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        workload = getattr(module, class_name)(nimcash, args.seed, tmpdir)
        if args.trace:
            return traced_run(args, workload)
        return untraced_run(args, workload, import_s)


def timed_call(fn):
    """``fn()``, its wall time, and its wall time normalised by calibration."""
    before = calibration.measure()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = calibration.measure()
    return result, wall, wall * calibration.REFERENCE_S * 2 / (before + after)


def setup_median(workload):
    """The last set-up's state, and the median raw and normalised set-up times."""
    runs = [timed_call(workload.setup) for _ in range(SETUP_REPEATS)]
    return (runs[-1][0], statistics.median(r[1] for r in runs),
            statistics.median(r[2] for r in runs))


def untraced_run(args, workload, import_s) -> int:
    state, setup_raw, setup_norm = setup_median(workload)
    records = []
    walls, normalised = timed_rounds(workload, state, records, seconds=args.seconds)
    rss = peak_rss_mb()
    del state
    attempted, failed, notes = check(workload, records)
    good = [r for r in records if not isinstance(r, Exception)]
    answers = workload.answers(good)
    metrics = {
        "setup_s": import_s[1] + setup_norm,
        "wall_s": statistics.median(normalised),
        "answers_per_s": answers / sum(normalised),
        "peak_rss_mb": rss,
    }
    raw = {
        "setup_s": import_s[0] + setup_raw,
        "wall_s": statistics.median(walls),
        "answers_per_s": answers / sum(walls),
    }
    print(f"rounds: {len(walls)} x {workload.round_label}, timed {sum(walls):.3f} s, "
          f"{answers} answers; normalised to calibration {calibration.REFERENCE_S} s "
          f"(raw wall-clock values in brackets)")
    print_metric("setup_s", metrics["setup_s"], "s",
                 f"[{raw['setup_s']:.4g}] import nimcash + median of {SETUP_REPEATS} set-ups")
    print_metric("wall_s", metrics["wall_s"], "s",
                 f"[{raw['wall_s']:.4g}] median of {len(walls)} rounds "
                 f"(raw min {min(walls):.4g}, max {max(walls):.4g})")
    print_metric(ANSWER_NAMES[args.workload], metrics["answers_per_s"], "1/s",
                 f"[{raw['answers_per_s']:.4g}] answers_per_s")
    extra = workload.report(good) if good and hasattr(workload, "report") else {}
    if "query_p50_us" in extra:
        print_metric("query_p50_us", extra["query_p50_us"], "us",
                     f"raw, {extra['samples']} samples")
        print_metric("query_p99_us", extra["query_p99_us"], "us",
                     f"raw, {extra['samples_beyond_p99']} samples beyond")
        print(f"decide methods: {extra['decide_methods']}")
    print_metric("peak_rss_mb", rss, "MB", "ru_maxrss before checks")
    print_metric("fail_ratio", failed / max(attempted, 1), "ratio", f"{failed}/{attempted}")
    for line in notes[:20]:
        print(f"  check: {line}")
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, workload) -> int:
    from tracing import Tracer, per_layer_metrics

    state, _, _ = setup_median(workload)
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    traced_state = workload.setup()
    traced_setup = time.perf_counter() - start
    tracer.uninstall()
    # Alternate untraced and traced replays of each round, so a slow phase
    # of the machine falls on both sides of the overhead ratio.
    records, traced_records = [], []
    plain = traced = 0.0
    for i in range(workload.trace_rounds):
        inputs = [workload.next_input(i)]
        plain += sum(timed_rounds(workload, state, records, inputs=inputs)[1])
        tracer.install()
        try:
            traced += sum(timed_rounds(workload, traced_state, traced_records, inputs=inputs)[1])
        finally:
            tracer.uninstall()
    del state, traced_state
    attempted, failed, notes = check(workload, records + traced_records)
    overhead = traced / plain - 1.0
    metrics = per_layer_metrics(tracer, overhead=overhead)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    print(f"traced {workload.trace_rounds} rounds: untraced {plain:.3f} s, traced {traced:.3f} s "
          f"(normalised), traced set-up {traced_setup:.3f} s; {len(tracer.spans)} spans "
          f"in {spans_path.name}")
    total = sum(tracer.layer_self_s().values())
    for layer, secs in tracer.layer_self_s().items():
        print_metric(f"{layer}.self_s", secs, "s",
                     f"{100 * secs / total:.1f}% of the layers' self time")
    print_metric("trace.overhead_ratio", overhead, "ratio")
    print_metric("fail_ratio", failed / max(attempted, 1), "ratio", f"{failed}/{attempted}")
    for line in notes[:20]:
        print(f"  check: {line}")
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def check(workload, records):
    reference = load_reference()
    errors = [r for r in records if isinstance(r, Exception)]
    good = [r for r in records if not isinstance(r, Exception)]
    attempted, failed, notes = workload.check(good, reference)
    notes = [f"round raised {type(e).__name__}: {e}" for e in errors] + notes
    return attempted + len(errors), failed + len(errors), notes


def print_metric(name, value, unit, note="") -> None:
    print(f"  {name:<24} {value:>16.6g} {unit:<6} {note}")


if __name__ == "__main__":
    sys.exit(main())
