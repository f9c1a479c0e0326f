"""Time one set-up of a workload in a fresh interpreter.

Reads the workload's JSON config on stdin, then times ``import pertopt``,
parsing the config with the functions the CLI uses, and the first
``clifford_group()`` build.  Prints the three times and their sum, raw
and scaled by the machine speed sampled right after (median of
``speed.SMOOTHING`` kernel runs, see speed.py), as one JSON object.
``run.py`` starts it several times before any pass.

    python3 bench/setup_probe.py <workload> < config.json
"""

import json
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> None:
    workload = sys.argv[1]
    config = json.loads(sys.stdin.read())
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    start = time.perf_counter()
    import pertopt.rb

    imported = time.perf_counter()
    import workloads

    parse_start = time.perf_counter()
    workloads.parse_config(workload, config)
    parsed = time.perf_counter()
    pertopt.rb.clifford_group()
    built = time.perf_counter()
    import speed

    kernel = statistics.median(speed.kernel_seconds() for _ in range(speed.SMOOTHING))
    scale = speed.REFERENCE_KERNEL_S / kernel
    times = {
        "import_s": imported - start,
        "config_parse_s": parsed - parse_start,
        "clifford_group_s": built - parsed,
    }
    times["setup_s"] = sum(times.values())
    print(json.dumps({
        "raw": times,
        "normalized": {k: v * scale for k, v in times.items()},
    }))


if __name__ == "__main__":
    main()
