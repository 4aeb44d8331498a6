"""Spans around szpit's public functions, installed from outside the library.

A module that did ``from .circuit import analyze_degrees`` holds its own
binding of the function, so wrapping ``szpit.circuit`` alone would miss
every call made through that binding.  ``Tracer.installed`` therefore
replaces the function in every ``szpit.*`` namespace that holds it, and the
class attribute for methods, and restores all of them on exit.

Each call records one span (name, start, end, parent, gate count) into flat
arrays kept in memory.  Self time is a span's duration minus the durations
of its direct children; calls nest strictly because the benchmark runs one
caller on one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name, where the gate count comes from)
TARGETS = (
    ("szpit.circuit", "analyze_degrees", "circuit.analyze_degrees", "arg"),
    ("szpit.circuit", "parse_circuit", "circuit.parse", "result"),
    ("szpit.circuit", "circuit", "circuit.build", None),
    ("szpit.circuit", "serialize_circuit", "circuit.serialize", None),
    ("szpit.evaluator", "eval_gates", "evaluator.eval_gates", "arg"),
    ("szpit.unipoly", "extract_unipoly", "unipoly.extract", None),
    ("szpit.unipoly", "roots_in_cube", "unipoly.roots_in_cube", None),
    ("szpit.codec", "restrict", "codec.restrict", None),
    ("szpit.codec", "encode_root", "codec.encode", None),
    ("szpit.codec", "decode_code", "codec.decode", None),
    ("szpit.pit", "equiv_test", "pit.equiv", None),
    ("szpit.pit", "pit_random", "pit.random", None),
    ("szpit.pit", "difference_circuit", "pit.difference_circuit", None),
    ("szpit.hitting", "DefinableClass.decode", "hitting.decode", None),
    ("szpit.hitting", "find_small_witness", "hitting.find_small_witness", None),
    ("szpit.hitting", "verify_hitting_set", "hitting.verify", None),
    ("szpit.hitting", "search_hitting_set", "hitting.search", None),
    ("szpit.avoid", "amplify", "avoid.amplify", None),
    # invert_amplified and the two oracle queries it makes share one name.
    ("szpit.avoid", "invert_amplified", "avoid.invert", None),
    ("szpit.avoid", "ExhaustiveOracle.longest_walk", "avoid.invert", None),
    ("szpit.avoid", "ExhaustiveOracle.preimage", "avoid.invert", None),
    ("szpit.avoid", "avoid_via_hitting", "avoid.pipeline", None),
    ("szpit.boolfunc", "boolfunc_from_callable", "boolfunc.tabulate", None),
)

# Per-layer metrics of BENCHMARK.json, in its order.
LAYER_METRICS = (
    "circuit.analyze_degrees.calls", "circuit.analyze_degrees.gates",
    "circuit.analyze_degrees.self_s", "circuit.parse.gates", "circuit.parse.self_s",
    "circuit.build.calls", "circuit.build.self_s", "circuit.serialize.self_s",
    "evaluator.eval_gates.calls", "evaluator.eval_gates.gates", "evaluator.eval_gates.self_s",
    "unipoly.extract.calls", "unipoly.extract.self_s", "unipoly.roots_in_cube.self_s",
    "codec.restrict.calls", "codec.restrict.self_s", "codec.encode.self_s",
    "codec.decode.self_s", "codec.restriction_hit_ratio",
    "pit.trials_per_verdict", "pit.analyses_per_verdict", "pit.difference_circuit.self_s",
    "hitting.decode.calls", "hitting.decode.self_s", "hitting.witness_trials",
    "hitting.find_small_witness.self_s", "hitting.draws", "hitting.draw_yield",
    "avoid.amplify.self_s", "avoid.invert.self_s", "avoid.pipeline.self_s",
    "boolfunc.tabulate.calls", "boolfunc.tabulate.self_s",
    "trace.overhead_ratio",
)

# Counts that must repeat exactly for a seed.
DETERMINISTIC = tuple(
    m for m in LAYER_METRICS
    if m.endswith((".calls", ".gates"))
    or m in ("hitting.witness_trials", "hitting.draws", "pit.trials_per_verdict")
)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.names = []
        self.kind = array("i")
        self.parent = array("i")
        self.gates = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name, gates_from):
        nid = self._name_id(name)
        kind, parent, gates = self.kind, self.parent, self.gates
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            gates.append(len(args[0].gates) if gates_from == "arg" else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if gates_from == "result":
                gates[idx] = len(result.gates)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in every szpit namespace; restore on exit."""
        modules = [m for k, m in list(sys.modules.items()) if k == "szpit" or k.startswith("szpit.")]
        patches = []
        try:
            for modname, attr, name, gates_from in TARGETS:
                owner_name, _, leaf = attr.rpartition(".")
                if owner_name:
                    owner = getattr(sys.modules[modname], owner_name)
                    original = owner.__dict__[leaf]
                    patches.append((owner, leaf, original))
                    setattr(owner, leaf, self.wrap(original, name, gates_from))
                    continue
                original = getattr(sys.modules[modname], attr)
                wrapper = self.wrap(original, name, gates_from)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def write_tsv(self, path):
        with open(path, "w") as out:
            out.write("span\tname\tparent\tstart_s\tend_s\tgates\n")
            for i in range(len(self.kind)):
                out.write(
                    f"{i}\t{self.names[self.kind[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\t{self.gates[i]}\n"
                )

    def layer_metrics(self):
        """Per-layer totals; ratios with a zero base read 0."""
        n = len(self.kind)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, gates, self_s = {}, {}, {}
        for i in range(n):
            name = self.names[self.kind[i]]
            calls[name] = calls.get(name, 0) + 1
            gates[name] = gates.get(name, 0) + self.gates[i]
            self_s[name] = self_s.get(name, 0.0) + (self.end[i] - self.start[i]) - child[i]

        def under(callee, caller):
            """Calls of ``callee`` with a ``caller`` span among their ancestors."""
            if callee not in self.names or caller not in self.names:
                return 0
            cid, aid = self.names.index(callee), self.names.index(caller)
            count = 0
            for i in range(n):
                if self.kind[i] != cid:
                    continue
                p = self.parent[i]
                while p >= 0 and self.kind[p] != aid:
                    p = self.parent[p]
                count += p >= 0
            return count

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for metric in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(layer, 0)
            elif stat == "gates":
                out[metric] = gates.get(layer, 0)
            elif stat == "self_s":
                out[metric] = self_s.get(layer, 0.0)
        verdicts = calls.get("pit.equiv", 0)
        coded = calls.get("codec.encode", 0) + calls.get("codec.decode", 0)
        draws = under("hitting.verify", "hitting.search")
        out["codec.restriction_hit_ratio"] = (
            1 - calls.get("codec.restrict", 0) / coded if coded else 0.0
        )
        out["pit.trials_per_verdict"] = ratio(under("evaluator.eval_gates", "pit.random"), verdicts)
        out["pit.analyses_per_verdict"] = ratio(
            under("circuit.analyze_degrees", "pit.equiv"), verdicts
        )
        out["hitting.witness_trials"] = under("evaluator.eval_gates", "hitting.find_small_witness")
        out["hitting.draws"] = draws
        out["hitting.draw_yield"] = ratio(calls.get("hitting.search", 0), draws)
        return out, calls
