"""Measure the baseline and write it to ``bench/BASELINE.json``.

Runs ``run.py`` on every workload in BENCHMARK.json with seeds 1..10,
untraced, one run at a time, then one traced run per workload, and
records each end-to-end metric's median, quartiles, spread
(interquartile range over median) and per-run values, the same for the
unscaled times the runs print beside them, the environment and the
per-layer values of the traced run.  From the repository root (about
25 minutes):

    python3 bench/baseline.py
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
RUNS = 10

# Which end-to-end metric each layer metric should move, and where.
LAYER_EFFECTS = {
    "transmon.*": "evolve, hann_waveform and measure_population move op_ms_p50 "
    "and wall_s on run_lx (evolve is most of an lx call); flat on tuneup_rb "
    "and rb_assess",
    "rb.run_rb.*, rb.clifford_steps*, rb.compile_cliffords.self_s, "
    "rb.measure_population.self_s": "move wall_s and op_ms_p50 on tuneup_rb "
    "and rb_assess; zero on run_lx",
    "rb.fit_rb_decay.*": "move op_ms_p50, op_ms_tail and failed operations on "
    "tuneup_rb; small share on rb_assess; none on run_lx",
    "objectives.<loss>.*": "lx, l_combined and l_rb self time (excluding "
    "transmon and rb children) moves op_ms_p50 on the workload using the loss",
    "estimators.*, optimizers.unbilled_probe_calls": "move wall_s on "
    "tuneup_rb, where every unbilled call costs a whole l_rb; negligible on "
    "run_lx",
    "optimizers.step.*, optimizers.run_optimization.self_s": "move wall_s on "
    "run_lx only (schedules are inside run_optimization's self time)",
    "experiments.write_*, experiments.bytes_written": "move wall_s on run_lx",
    "experiments.assess_gate.self_s": "moves wall_s on tuneup_rb",
    "experiments.config_parse_s, rb.clifford_group_s": "move setup_s",
    "trace.overhead_frac": "traced minus untraced wall_s over untraced wall_s",
}


def run(spec, workload, seed, trace):
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, RUNS + 1))
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        results = [run(spec, name, seed, 0) for seed in seeds]
        e2e = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results])
            for m in spec["end_to_end"]
        }
        details = [
            json.loads((OUT / f"result_{name}_seed{seed}_trace0.json").read_text())
            for seed in seeds
        ]
        unscaled = {
            metric: summarize([d[key] for d in details])
            for metric, key in (("wall_s", "raw_wall_s"), ("op_ms_p50", "raw_op_ms_p50"),
                                ("op_ms_tail", "raw_op_ms_tail"),
                                ("kernel_s", "kernel_s_median"))
        }
        unscaled["setup_s"] = summarize([d["setup"]["raw"]["setup_s"] for d in details])
        for metric, s in e2e.items():
            raw = unscaled.get(metric)
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f}"
                  + (f", unscaled spread {raw['spread']:.4f}" if raw else ""))
        traced = run(spec, name, seeds[0], 1)
        workloads[name] = {
            "why": w["why"],
            "end_to_end": e2e,
            "unscaled": unscaled,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    first = spec["workloads"][0]["name"]
    environment = json.loads(
        (OUT / f"result_{first}_seed{seeds[0]}_trace0.json").read_text()
    )["environment"]
    baseline = {
        "reproduce": "python3 bench/baseline.py",
        "run_command": " ".join(spec["command"]) + " --workload <name> --seed <n> "
        f"--seconds {spec['run_seconds']} --trace <0|1>",
        "seeds": seeds,
        "environment": environment,
        "layer_effects": LAYER_EFFECTS,
        "workloads": workloads,
    }
    (BENCH_DIR / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
