"""One measuring process: import the package from the checkout, build one
workload's inputs and, for a positive window, run the closed loop over it.

    python3 perfbench/session.py <workload> <seed> <seconds>

Prints one JSON line: ``ready`` (CLOCK_MONOTONIC when the inputs were
built, comparable with the parent's launch time), the operations' records
and the process's peak resident set.
"""

import json
import sys

import run


def main() -> None:
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), \
        float(sys.argv[3])
    run.use_checkout_package()
    import workloads
    w = workloads.WORKLOADS[workload](seed)
    ready = run.monotonic()
    records = run.measure(w, seconds) if seconds > 0 else []
    print(json.dumps({"ready": ready, "records": records,
                      "peak_rss_mb": run.peak_rss_mb()}))


if __name__ == "__main__":
    main()
