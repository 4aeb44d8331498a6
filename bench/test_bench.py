"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracer as tracer_mod

workloads = run.load_workloads()

from szpit import avoid, codec, pit  # noqa: E402  (found through load_workloads)
from szpit.evaluator import eval_gates  # noqa: E402

circuit_mod = workloads.circuit_mod


def tiny(name):
    return {
        "avoid-stream": lambda: workloads.AvoidStream(a_max=4, min_units=2, trace_units=1),
        "pit-equiv": lambda: workloads.PitEquiv(pairs=4, terms=(3, 6), min_units=2, trace_units=1),
        "codec-roundtrip": lambda: workloads.CodecRoundtrip(circuits=2, min_units=1, trace_units=1),
    }[name]()


def untraced(name, seed=1):
    wl = tiny(name)
    rec, setup_s, units = run.untraced(wl, seed, 0, workloads.Recorder)
    return wl, rec, setup_s, units


def traced(name, seed=1):
    wl = tiny(name)
    tracer = tracer_mod.Tracer()
    plain, spanned = run.traced(wl, seed, workloads.Recorder, tracer)
    metrics, problems = run.layer_report(wl, plain, spanned, tracer)
    return plain, spanned, metrics, problems


NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_is_correct_and_reports_every_metric(name):
    wl, rec, setup_s, units = untraced(name)
    assert units == wl.min_units
    assert rec.attempted > 0 and rec.failed == 0
    assert setup_s > 0
    end_to_end, named = wl.report(rec)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["end_to_end"]}
    assert set(end_to_end) | {"setup_s", "peak_rss_mb"} == declared
    assert all(value > 0 for value, _ in end_to_end.values())
    assert all(value > 0 for _, value, _, _ in named)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_covers_its_layers(name):
    plain, spanned, metrics, problems = traced(name)
    assert problems == []
    assert set(metrics) == set(tracer_mod.LAYER_METRICS)
    assert plain.digest == spanned.digest
    assert spanned.failed == 0


def test_traced_metrics_match_declared_per_layer_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        declared = [m["name"] for m in json.load(f)["per_layer"]]
    assert declared == list(tracer_mod.LAYER_METRICS)


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_and_seed_reaches_inputs(name):
    first, _, m1, _ = traced(name, seed=3)
    second, _, m2, _ = traced(name, seed=3)
    other, _, _, _ = traced(name, seed=4)
    assert {k: m1[k] for k in tracer_mod.DETERMINISTIC} == {k: m2[k] for k in tracer_mod.DETERMINISTIC}
    assert first.digest == second.digest
    assert first.digest != other.digest


def test_untraced_and_traced_digest_the_same_units():
    _, rec, _, _ = untraced("pit-equiv", seed=5)
    plain, _, _, _ = traced("pit-equiv", seed=5)
    assert rec.digest == plain.digest


def test_wrappers_reach_every_binding_and_are_removed():
    original = circuit_mod.analyze_degrees
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        wrapped = circuit_mod.analyze_degrees
        assert wrapped is not original
        for mod in ("szpit.hitting", "szpit.pit", "szpit.codec"):
            assert sys.modules[mod].analyze_degrees is wrapped
    for mod in ("szpit.circuit", "szpit.hitting", "szpit.pit", "szpit.codec"):
        assert sys.modules[mod].analyze_degrees is original


def test_avoid_trace_counts_calls_made_through_module_bindings():
    _, _, metrics, _ = traced("avoid-stream")
    # eval_gates and analyze_degrees are only ever called from hitting here.
    assert metrics["hitting.witness_trials"] > 0
    assert metrics["circuit.analyze_degrees.calls"] > 0
    assert 0 < metrics["hitting.draw_yield"] <= 1


def test_pit_trace_counts_trials_and_analyses():
    _, _, metrics, _ = traced("pit-equiv")
    # Half the pairs run all 40 trials, half stop at the first sample.
    assert metrics["pit.trials_per_verdict"] == (40 + 1) / 2
    assert metrics["pit.analyses_per_verdict"] == 3


def test_coverage_check_reports_an_unreached_layer():
    wl = tiny("pit-equiv")
    wl.reaches = wl.reaches + ("codec.encode",)
    tracer = tracer_mod.Tracer()
    plain, spanned = run.traced(wl, 1, workloads.Recorder, tracer)
    _, problems = run.layer_report(wl, plain, spanned, tracer)
    assert problems == ["codec.encode recorded no call"]


def test_tock_scales_by_the_mean_of_the_reference_times():
    rec = workloads.Recorder()
    times = iter([2e-4, 6e-4])
    rec.reference = types.SimpleNamespace(measure=lambda: next(times))
    rec.tick()
    rec.tock(0.5, 2, "main", (0.1, 0.4))
    scale = workloads.Reference.REF_SECONDS / 4e-4
    assert (rec.busy, rec.ops) == (0.5, 2)
    assert rec.busy_ref == pytest.approx(0.5 * scale)
    assert list(rec.of("main")) == [0.1, 0.4]
    assert list(rec.of("main", scaled=True)) == pytest.approx([0.1 * scale, 0.4 * scale])


# -- fault paths ------------------------------------------------------------------

def wrong_avoid(inst, **kwargs):
    return avoid.AvoidResult(value=inst.table[0], trace={})


def wrong_verdict(f, g, **kwargs):
    return pit.PitVerdict(pit.PROBABLY_ZERO, trials=40, provenance="random")


def bad_witness(f, g, **kwargs):
    return pit.PitVerdict(pit.NONZERO, witness=(0, 0, 0), provenance="random")


def raising(*args, **kwargs):
    raise RuntimeError("injected fault")


def wrong_decode(ctx, code):
    return (0,) * ctx.n


def default_encode(ctx, b):
    return ctx.default_code()


def off_by_one_pack(code, n, d, q):
    return 1 + (code.k - 1) * d * q ** (n - 1) + (code.i - 1) * q ** (n - 1)


@pytest.mark.parametrize("name, module, attr, fault", [
    ("avoid-stream", avoid, "avoid_via_hitting", wrong_avoid),
    ("avoid-stream", avoid, "avoid_via_hitting", raising),
    ("pit-equiv", pit, "equiv_test", wrong_verdict),
    ("pit-equiv", pit, "equiv_test", bad_witness),
    ("pit-equiv", circuit_mod, "parse_circuit", raising),
    ("codec-roundtrip", codec, "decode_code", wrong_decode),
    ("codec-roundtrip", codec, "encode_root", default_encode),
    ("codec-roundtrip", codec, "pack_code", off_by_one_pack),
])
def test_wrong_output_raises_fail_ratio(monkeypatch, name, module, attr, fault):
    wl = tiny(name)
    state = wl.setup(1)
    monkeypatch.setattr(module, attr, fault)
    rec = workloads.Recorder()
    wl.unit(state, 0, rec)
    assert rec.attempted > 0
    assert rec.failed / rec.attempted > 0


def test_bad_witness_is_caught_by_the_reference_evaluator():
    wl = tiny("pit-equiv")
    state = wl.setup(1)
    pair = state["pool"][1]
    assert not pair["equivalent"]
    f, g = (workloads.compile_ac(pair[k]) for k in ("f", "g"))
    point = (1, 2, 3)
    # The inequivalent pair differs by a constant, so every point is a witness.
    assert wl.witness_ok(state, 1, point)
    assert workloads.ref_eval(f, point) != workloads.ref_eval(g, point)
    assert not wl.witness_ok(state, 1, (99, 0, 0))


def test_generated_pairs_are_what_they_claim():
    wl = tiny("pit-equiv")
    state = wl.setup(7)
    rng = random.Random(0)
    for pair in state["pool"]:
        f, g = circuit_mod.parse_circuit(pair["f"]), circuit_mod.parse_circuit(pair["g"])
        progs = workloads.compile_ac(pair["f"]), workloads.compile_ac(pair["g"])
        diffs = set()
        for _ in range(5):
            p = tuple(rng.randrange(-50, 50) for _ in range(3))
            assert workloads.ref_eval(progs[0], p) == eval_gates(f, p)
            assert workloads.ref_eval(progs[1], p) == eval_gates(g, p)
            diffs.add(eval_gates(f, p) - eval_gates(g, p))
        assert len(diffs) == 1
        assert (diffs == {0}) == pair["equivalent"]


def test_codec_roots_are_two_planes_within_the_bound():
    wl = tiny("codec-roundtrip")
    state = wl.setup(2)
    size = codec.code_space_size(workloads.N, workloads.D, workloads.Q)
    for entry in state["pool"]:
        assert 0 < len(entry["roots"]) <= size
        assert eval_gates(entry["circuit"], entry["nonroot"]) != 0


def test_cli_fails_without_library_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pit-equiv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
