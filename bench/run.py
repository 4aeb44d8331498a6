"""The szpit benchmark: one workload per run, one caller, no threads.

Usage, from the repository root::

    python3 bench/run.py --workload avoid-stream --seed 1 --seconds 25 --trace 0

Workloads: avoid-stream, pit-equiv, codec-roundtrip (see workloads.py).
The library is imported from ``src/`` next to this directory and from
nowhere else; without it the run exits with an error before measuring.

``--trace 0`` sets up the workload several times (``setup_s`` is the import
time plus the median set-up, scaled like every other time), then runs whole units until ``--seconds``
have passed and at least the workload's minimum unit count is done, and
reports the end-to-end metrics.  ``--trace 1`` runs the workload's fixed
number of trace units twice on the same inputs, first untraced and then
with spans around the library's public functions, reports the per-layer
metrics, and writes the spans to ``.bench_out/``.  Both modes digest the
outputs of those first trace units, so the two modes print the same digest
for a seed.

The JSON metrics give every time at *reference speed*: each operation's
wall time is scaled by the time of a fixed pure-Python block measured just
before and just after it (see ``workloads.Reference``), which cancels most
of the machine's own speed swings.  The human-readable lines also give the named metrics as
measured, and the measured speed as a share of the reference speed.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 1 when any output was wrong or a traced layer recorded no call.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

import tracer as tracer_mod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def load_workloads():
    """Import the workloads module, and through it szpit from ``src/`` only."""
    if not os.path.isfile(os.path.join(SRC, "szpit", "__init__.py")):
        raise SystemExit(f"bench: no szpit sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    workloads = importlib.import_module("workloads")
    found = os.path.abspath(sys.modules["szpit"].__file__)
    if not found.startswith(SRC + os.sep):
        raise SystemExit(f"bench: szpit was imported from {found}, not {SRC}")
    return workloads


def run_units(workload, state, rec, count):
    for u in range(count):
        workload.unit(state, u, rec)


def untraced(workload, seed, seconds, recorder_cls):
    """End-to-end run; returns (recorder, set-up seconds at reference
    speed, units run)."""
    scaler = recorder_cls()  # books only the set-up times
    for _ in range(SETUP_REPEATS):
        scaler.tick()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        dt = time.perf_counter() - t0
        scaler.tock(dt, 0, "setup", (dt,))
    rec = recorder_cls()
    units = 0
    started = time.perf_counter()
    while units < workload.min_units or time.perf_counter() - started < seconds:
        rec.digesting = units < workload.trace_units
        workload.unit(state, units, rec)
        units += 1
    return rec, statistics.median(scaler.scaled["setup"]), units


def traced(workload, seed, recorder_cls, tracer):
    """The trace units untraced, then traced; returns both recorders."""
    state = workload.setup(seed)
    plain = recorder_cls()
    run_units(workload, state, plain, workload.trace_units)
    spanned = recorder_cls()
    with tracer.installed():
        run_units(workload, state, spanned, workload.trace_units)
    return plain, spanned


def layer_report(workload, plain, spanned, tracer):
    """Per-layer metrics plus the list of self-check failures."""
    metrics, calls = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = spanned.busy / plain.busy if plain.busy else 0.0
    problems = [f"{name} recorded no call" for name in workload.reaches if not calls.get(name)]
    if plain.digest != spanned.digest:
        problems.append("tracing changed the outputs")
    return metrics, problems


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    t0 = time.perf_counter()
    workloads = load_workloads()
    import_s = time.perf_counter() - t0
    ref = workloads.Reference()
    import_s *= ref.REF_SECONDS / ref.measure()

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]()
    problems = []

    if args.trace:
        tracer = tracer_mod.Tracer()
        plain, rec = traced(workload, args.seed, workloads.Recorder, tracer)
        values, problems = layer_report(workload, plain, rec, tracer)
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_tsv(spans)
        metrics = {m: {"value": values[m], "unit": tracer_mod.unit_of(m)} for m in tracer_mod.LAYER_METRICS}
        print(f"{args.workload} seed={args.seed} traced units={workload.trace_units} "
              f"spans={len(tracer.kind)} -> {os.path.relpath(spans, ROOT)}")
        for m in tracer_mod.LAYER_METRICS:
            print(f"  {m} = {values[m]!r} {metrics[m]['unit']}")
        attempted, failed = plain.attempted + rec.attempted, plain.failed + rec.failed
    else:
        rec, setup_s, units = untraced(workload, args.seed, args.seconds, workloads.Recorder)
        rss = peak_rss_mb()  # before the statistics add their own copies
        end_to_end, named = workload.report(rec)
        end_to_end["setup_s"] = (import_s + setup_s, "s")
        end_to_end["peak_rss_mb"] = (rss, "MB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
        print(f"{args.workload} seed={args.seed} units={units} ops={rec.ops}")
        print("as measured:")
        for name, value, unit, note in named:
            print(f"  {name} = {value!r} {unit} ({note})")
        print(f"at reference speed (this run ran at {rec.busy_ref / rec.busy!r} of it):")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']!r} {m['unit']}")
        attempted, failed = rec.attempted, rec.failed

    fail_ratio = failed / attempted if attempted else 1.0
    print(f"  fail_ratio = {fail_ratio!r} ({failed}/{attempted})")
    print(f"  digest = {rec.digest} (first {workload.trace_units} units)")
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    correct = attempted > 0 and failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
