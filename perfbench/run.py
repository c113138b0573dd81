"""Benchmark of the superloewner package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_gate --seed 1 --seconds 33 --trace 0

Workloads (see README.md): ``mc_gate``, ``sim_small_batch``,
``exact_oracle``.  ``--trace 0`` splits the ``--seconds`` window between
a few fresh processes (sessions, session.py), one after another.  Each
imports the package, builds the inputs (set-up) and runs a closed loop,
one operation at a time, over its share of the window; its first
operation is the cold one.  Timing several processes averages out what
one process's memory layout does to its speed.  Every operation's output
is checked, and a negative control (the "displayed" SDE variant must fail
one named gate cell) runs once, untimed, at the end.

``--trace 1`` runs one closed loop in this process, alternating untraced
and traced operations, and reports the per-layer metrics; the tracer
wraps the package's functions from outside (tracer.py).  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics for a
reader.  Provenance, per-operation times and, when tracing, every span
go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Set-up is timed in at least this many fresh processes per run; workloads
# with fewer measuring sessions add set-up-only ones.
SETUP_SAMPLES = 5
# A cold operation plus at least one warm one (one traced and one untraced
# when tracing), even when one operation outlasts the window.
MIN_OPS = {False: 2, True: 3}
# One BLAS/OpenMP thread: the loop is one closed-loop client, and a
# fixed thread count keeps runs comparable on a shared machine.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


class CheckoutError(RuntimeError):
    pass


def use_checkout_package() -> None:
    """Import superloewner from this checkout's src/ with one BLAS thread."""
    src = ROOT / "src"
    if not (src / "superloewner" / "__init__.py").is_file():
        raise CheckoutError(f"no package sources under {src}")
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import superloewner
    if Path(superloewner.__file__).resolve().parent != src / "superloewner":
        raise CheckoutError(f"superloewner imported from "
                            f"{superloewner.__file__}, not from {src}")


def declared_units(trace: bool) -> dict:
    """{metric: unit} of the end-to-end or per-layer metrics declared in
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def monotonic() -> float:
    """CLOCK_MONOTONIC, which every process on the machine shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def session(workload: str, seed: int, seconds: float) -> dict:
    """Run session.py as a fresh process: set-up, then (for seconds > 0)
    a closed loop over that many seconds.  Returns ``setup_s`` (launch
    until the inputs were built), ``records`` and ``peak_rss_mb``."""
    start = monotonic()
    out = subprocess.run([sys.executable, str(HERE / "session.py"), workload,
                          str(seed), repr(seconds)], cwd=ROOT, check=True,
                         timeout=150, stdout=subprocess.PIPE,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - start
    return result


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(seed: int, workload) -> dict:
    import numpy
    import scipy
    import superloewner
    from workloads import CONTROL

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "cache": caches,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "superloewner": superloewner.__version__,
        "git_commit": commit,
        "workload": workload.name,
        "seed": seed,
        "configs": workload.configs() | {"negative_control": CONTROL},
    }


def operation(workload, i: int, tracer=None) -> dict:
    """Run and check operation i; traced when a tracer is given.

    Every operation starts from a collected heap, as in a fresh process.
    Otherwise the garbage that earlier exact operations leave behind slows
    the later ones: ten repeats of one exact_oracle input drifted from
    2.0 s to 2.9 s on a 2-vCPU Xeon VM.
    """
    inp = workload.input(i)
    out, problems = None, []
    gc.collect()
    if tracer is not None:
        tracer.start(i)
    t0 = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception:  # a broken operation counts as failed
        problems = [traceback.format_exc()]
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.stop()
    if out is not None:
        problems = workload.check(inp, out)
    for p in problems:
        print(f"op {i}: check failed: {p}", file=sys.stderr)
    return {"op": i, "traced": tracer is not None, "seconds": elapsed,
            "problems": problems,
            "fingerprint": None if out is None else workload.fingerprint(out),
            "tally": {} if out is None else workload.tally(out)}


def measure(workload, seconds: float, tracer=None) -> list:
    """Closed loop; returns one record per operation.

    With a tracer, operations alternate untraced (even index) and traced
    (odd index), so operation 0 is always the untraced cold start.  Beyond
    MIN_OPS, an operation starts only while at least half a median
    operation's time is left in the window, so the last one ends about
    half an operation after the window at most.
    """
    records = []
    start = time.perf_counter()
    while len(records) < MIN_OPS[tracer is not None] or \
            time.perf_counter() - start + statistics.median(
                r["seconds"] for r in records) / 2 < seconds:
        i = len(records)
        records.append(operation(workload, i, tracer if i % 2 else None))
    return records


def check_fingerprints(records) -> None:
    """A workload that repeats one input must give one output: flag every
    operation whose fingerprint differs from the first one's."""
    first = next((r["fingerprint"] for r in records
                  if r["fingerprint"] is not None), None)
    for r in records:
        if r["fingerprint"] not in (None, first):
            r["problems"].append("output differs from the first repeat")
            print(f"op {r['op']}: output differs from the first repeat",
                  file=sys.stderr)


def run_sessions(workload: str, seed: int, seconds: float,
                 sessions: int) -> list:
    """The window split between measuring sessions, after the set-up-only
    sessions that bring set-up samples up to SETUP_SAMPLES."""
    return ([session(workload, seed, 0.0)
             for _ in range(SETUP_SAMPLES - sessions)]
            + [session(workload, seed, seconds / sessions)
               for _ in range(sessions)])


def end_to_end(sessions, workload) -> dict:
    """Metrics over the sessions: set-up of every one; cold (first) and
    warm operations and peak memory of those that ran operations."""
    measured = [s for s in sessions if s["records"]]
    ops = [r for s in measured for r in s["records"]]
    warm = [r for s in measured for r in s["records"][1:]]
    failed = sum(bool(r["problems"]) for r in ops)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "first_run_s": statistics.median(s["records"][0]["seconds"]
                                         for s in measured),
        "run_s": statistics.median(r["seconds"] for r in warm),
        "work_per_s": statistics.median(workload.work / r["seconds"]
                                        for r in warm),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in measured),
        "ok_ops_ratio": (len(ops) - failed) / len(ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        use_checkout_package()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    kind = workloads.WORKLOADS[args.workload]
    workload = kind(args.seed)
    if args.trace:
        tracer = tracing.Tracer()
        sessions = [{"records": measure(workload, args.seconds, tracer)}]
    else:
        tracer = None
        sessions = run_sessions(args.workload, args.seed, args.seconds,
                                kind.sessions)
    records = [r for s in sessions for r in s["records"]]
    check_fingerprints(records)
    attempted = len(records)
    failed = sum(bool(r["problems"]) for r in records)
    extra = workload.summary(sum((Counter(r["tally"]) for r in records),
                                 Counter()))
    extra["failed_ops_ratio"] = failed / attempted
    if args.trace:
        traced = [r["seconds"] for r in records if r["traced"]]
        untraced = [r["seconds"] for r in records[1:] if not r["traced"]]
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics = tracer.layer_metrics(
            [r["op"] for r in records if r["traced"]], overhead)
    else:
        metrics = end_to_end(sessions, workload)
        extra[f"{workload.work_unit}_per_s"] = metrics["work_per_s"]
    control_ok, control_note = workloads.negative_control(args.seed)
    if not control_ok:
        print(f"negative control did not fail: {control_note}",
              file=sys.stderr)

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from "
                           f"BENCHMARK.json {sorted(units)}")

    measuring = [s for s in sessions if s["records"]]
    print(f"{workload.name}: {attempted} operations in {len(measuring)} "
          f"process(es), {failed} failed; {workload.work} "
          f"{workload.work_unit} per operation")
    for name, value in metrics.items():
        print(f"  {name}: {value!r} {units[name]}")
    for name, value in extra.items():
        print(f"  {name}: {value!r}")
    print(f"  negative control: "
          f"{'failed as required' if control_ok else 'DID NOT FAIL'} "
          f"({control_note})")

    prov = provenance(args.seed, workload)
    RESULTS.mkdir(exist_ok=True)
    dump = {"provenance": prov, "metrics": metrics, "workload_metrics": extra,
            "negative_control": {"ok": control_ok, "note": control_note},
            "sessions": sessions}
    if tracer:
        dump["trace"] = tracer.dump()
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dump, indent=1) + "\n")
    print(f"  provenance: {json.dumps(prov, sort_keys=True)}")

    result = {"correct": failed == 0 and control_ok, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
