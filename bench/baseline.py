"""Measure the benchmark's baseline and write it to bench/baseline.json.

Usage, from the repository root::

    python3 bench/baseline.py [--seeds 1-10] [--workloads avoid-stream,...]

For each workload this runs ``bench/run.py`` once per seed untraced and once
traced (first seed), one run at a time, and records per end-to-end metric
the median, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them and the spread (quartile distance over the median) next to the
metric's bound; the as-measured metrics and digests each run printed; and
the traced run's per-layer metrics with each layer's share of the traced
library time.  Static notes (why each workload, which layer should move
which end-to-end metric) are kept in this file and copied into the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# What main/side/ops_per_s mean per workload, and the names the metrics
# carry in the run's human-readable lines.
METRIC_MAP = {
    "avoid-stream": {
        "ops_per_s": "avoid.solves_per_s (all a)",
        "main_ms": "solve latency, a in 9..16 (class size 16)",
        "side_ms": "solve latency, a in 5..8 (class size 8)",
        "printed": ["avoid.solve_ms.p50", "avoid.solve_ms.p90", "avoid.solves_per_s"],
    },
    "pit-equiv": {
        "ops_per_s": "pit.verdicts_per_s (both pair kinds)",
        "main_ms": "verdict latency, equivalent pairs (all 40 trials)",
        "side_ms": "verdict latency, inequivalent pairs (exit at the first sample)",
        "printed": ["pit.verdict_ms.p50", "pit.verdict_ms.p90", "pit.verdicts_per_s"],
    },
    "codec-roundtrip": {
        "ops_per_s": "codec.codes_per_s (encodes + decodes)",
        "main_ms": "codec.encode latency (fills the restriction cache)",
        "side_ms": "codec.decode latency (mostly cache hits)",
        "printed": [
            "codec.encode_us.p50", "codec.encode_us.p90", "codec.decode_us.p50",
            "codec.codes_per_s",
        ],
    },
}

# Which per-layer metrics should move which end-to-end metric, on which
# workload, written down before any optimisation.
PREDICTIONS = [
    {"layer": "circuit.analyze_degrees.{calls,gates,self_s}",
     "moves": {"avoid-stream": "main_ms.p50", "pit-equiv": "main_ms.p50"},
     "note": "near zero on codec-roundtrip (one analysis per context)"},
    {"layer": "circuit.parse.{gates,self_s}", "moves": {"pit-equiv": "main_ms.p50, side_ms.p50"}},
    {"layer": "circuit.build.{calls,self_s}, circuit.serialize.self_s",
     "moves": {"avoid-stream": "main_ms.p50"}},
    {"layer": "evaluator.eval_gates.{calls,gates,self_s}",
     "moves": {"pit-equiv": "main_ms.p90, ops_per_s", "codec-roundtrip": "setup_s"},
     "note": "no change predicted on avoid-stream"},
    {"layer": "unipoly.extract.{calls,self_s}, unipoly.roots_in_cube.self_s",
     "moves": {"codec-roundtrip": "main_ms.p90"}},
    {"layer": "codec.restrict.{calls,self_s}, codec.encode.self_s, codec.decode.self_s, "
              "codec.restriction_hit_ratio",
     "moves": {"codec-roundtrip": "side_ms.p50, ops_per_s"}},
    {"layer": "pit.trials_per_verdict, pit.analyses_per_verdict, pit.difference_circuit.self_s",
     "moves": {"pit-equiv": "main_ms.p50"}},
    {"layer": "hitting.decode.{calls,self_s}", "moves": {"avoid-stream": "main_ms.p50"}},
    {"layer": "hitting.witness_trials, hitting.find_small_witness.self_s, hitting.draws, "
              "hitting.draw_yield",
     "moves": {"avoid-stream": "main_ms.p90"}},
    {"layer": "avoid.amplify.self_s, boolfunc.tabulate.{calls,self_s}",
     "moves": {"avoid-stream": "main_ms.p50"}},
    {"layer": "avoid.invert.self_s", "moves": {"avoid-stream": "main_ms.p90"}},
    {"layer": "avoid.pipeline.self_s", "moves": {"avoid-stream": "main_ms.p50"}},
]

NAMED = re.compile(r"^  (\S+) = (\S+) (\S+)")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = NAMED.match(line)
        if m is None or m.group(1) in result["metrics"]:
            continue
        name, value = m.group(1), m.group(2)
        printed[name] = value if name == "digest" else float(value)
    return result, printed


def summary(values, bound=None):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(METRIC_MAP))
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seeds = parse_seeds(args.seeds)
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.machine(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "trace_seed": seeds[0],
        "predictions": PREDICTIONS,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        per_metric, printed, digests = {}, {}, []
        for seed in seeds:
            result, named = bench_run(workload, seed, spec["run_seconds"], 0)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            for name, value in named.items():
                if name == "digest":
                    digests.append(value)
                else:
                    printed.setdefault(name, []).append(value)
            print(workload, seed, {k: round(m["value"], 6) for k, m in result["metrics"].items()},
                  flush=True)
        layers, _ = bench_run(workload, seeds[0], spec["run_seconds"], 1)
        values = {k: m["value"] for k, m in layers["metrics"].items()}
        self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        report["workloads"][workload] = {
            "why": why[workload],
            "metric_map": METRIC_MAP[workload],
            "end_to_end": {k: summary(v, bounds[k]) for k, v in per_metric.items()},
            "printed": {k: summary(v) for k, v in printed.items()},
            "digests": dict(zip(map(str, seeds), digests)),
            "traced": {
                "per_layer": values,
                "self_share": {
                    k: v / self_total for k, v in values.items()
                    if k.endswith(".self_s") and v > 0
                },
            },
        }
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print(f"SPREAD {workload} {name}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}", flush=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
