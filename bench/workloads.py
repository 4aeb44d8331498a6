"""The three szpit benchmark workloads.

Each workload is one caller in a closed loop: the next library call starts
only after the previous one returned.  Every input is generated here from
the run's seed; the library receives only the generated inputs (avoid
instances, ``.ac`` text, circuits).

A workload runs in *units*.  A unit is a stratified block with fixed
proportions of each operation kind (every ``a`` once, every circuit size
once for both pair kinds, every pool circuit once), so a run's medians do
not jump between the clusters that different operation kinds form.

Every operation is checked against facts the benchmark knows independently
of the library (the generated table, the construction of each pair, the
planes each codec circuit vanishes on).  A wrong or raising operation
counts as failed; it never stops the run.

Every timing is kept as measured and at reference speed (see ``Reference``);
BENCHMARK.json's metrics use the latter.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import random
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from itertools import product

from szpit import avoid, codec, pit

# The package re-exports the function ``circuit``, which shadows the module
# of the same name as an attribute of ``szpit``.
circuit_mod = importlib.import_module("szpit.circuit")

pc = time.perf_counter


# -- circuit text and the benchmark's own evaluator ---------------------------

class Ac:
    """Builds ``.ac`` text for circuits over x1..x3 (var gates g0..g2)."""

    def __init__(self, n=3):
        self.lines = [f"g{j} = var x{j + 1}" for j in range(n)]

    def emit(self, rhs):
        self.lines.append(f"g{len(self.lines)} = {rhs}")
        return len(self.lines) - 1

    def const(self, v):
        return self.emit(f"const {v}")

    def add(self, a, b):
        return self.emit(f"add g{a} g{b}")

    def mul(self, a, b):
        return self.emit(f"mul g{a} g{b}")

    def text(self):
        return "\n".join(self.lines + [f"output g{len(self.lines) - 1}"]) + "\n"


def linear_form(ac, coeffs):
    """c0 + c1 x1 + c2 x2 + c3 x3 with one const gate per coefficient."""
    acc = ac.const(coeffs[0])
    for j, c in enumerate(coeffs[1:]):
        acc = ac.add(acc, ac.mul(ac.const(c), j))
    return acc


def sum_of_products(terms):
    """F = sum_t prod_u L_tu, one product chain per term."""
    ac = Ac()
    total = None
    for forms in terms:
        prod = linear_form(ac, forms[0])
        for cs in forms[1:]:
            prod = ac.mul(prod, linear_form(ac, cs))
        total = prod if total is None else ac.add(total, prod)
    return ac


def compile_ac(text):
    """The ``.ac`` text as (op, x, y) tuples, without the library's parser."""
    prog = []
    for line in text.splitlines():
        if line.startswith("output"):
            break
        _, _, rhs = line.partition(" = ")
        op, *args = rhs.split()
        if op == "var":
            prog.append((op, int(args[0][1:]) - 1, 0))
        elif op == "const":
            prog.append((op, int(args[0]), 0))
        else:
            prog.append((op, int(args[0][1:]), int(args[1][1:])))
    return prog


def ref_eval(prog, point):
    vals = []
    for op, x, y in prog:
        if op == "var":
            vals.append(point[x])
        elif op == "const":
            vals.append(x)
        elif op == "add":
            vals.append(vals[x] + vals[y])
        else:
            vals.append(vals[x] * vals[y])
    return vals[-1]


# -- measurement ------------------------------------------------------------

@dataclass(frozen=True)
class _Point:
    x: int
    y: int


class Reference:
    """A fixed pure-Python block, timed next to the library's operations.

    On a shared 2-core virtual machine the same work took up to 1.7x longer
    for seconds to minutes at a time, in wall and CPU time alike.  The block is timed just before and
    just after each operation (or each batch of short operations); the mean
    of the two gives the machine's current speed, and scales the operation's
    wall time to *reference speed*, the speed at which one block takes
    REF_SECONDS.  The block runs only the benchmark's own code, so no change
    to the library can move it.
    """

    REF_SECONDS = 200e-6
    TERMS = [[[1, 2, -3, 1], [-2, 1, 3, 2], [3, -1, 2, -2]]] * 10

    def __init__(self):
        self.prog = compile_ac(sum_of_products(self.TERMS).text())

    def block(self):
        """Circuit evaluation plus the dict, tuple-slicing and small-object
        work that the library's hot paths also do; a block of evaluation
        alone tracked the codec's speed swings only half as well."""
        for x in (2, 3):
            ref_eval(self.prog, (x, 7, 11))
        seen = {}
        row = tuple(range(8))
        acc = 0
        for i in range(80):
            key = (i % 7, row[i % 5:i % 5 + 2])
            seen[key] = seen.get(key, 0) + 1
            point = _Point(i, i + 1)
            acc += point.x * point.y + len(row[:3] + (i,) + row[4:])
        return acc

    def measure(self):
        """Best of three block times, with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(3):
                t0 = pc()
                self.block()
                best = min(best, pc() - t0)
        finally:
            if enabled:
                gc.enable()
        return best


class Recorder:
    """Latency samples, busy time, outcome counts and the output digest.

    Each timing is kept twice: as measured (``samples``, ``busy``) and at
    reference speed (``scaled``, ``busy_ref``).  Timed library calls sit
    between ``tick`` and ``tock``, which time the reference block.
    """

    def __init__(self):
        self.reference = Reference()
        self.samples = {}
        self.scaled = {}
        self.busy = 0.0
        self.busy_ref = 0.0
        self._before = None
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.digesting = True
        self._digest = hashlib.sha256()
        self._reported = False

    def tick(self):
        self._before = self.reference.measure()

    def tock(self, busy, ops, kind=None, latencies=()):
        """Book the calls timed since ``tick``: their total time, how many
        operations they were, and latency samples of one kind."""
        scale = 2 * Reference.REF_SECONDS / (self._before + self.reference.measure())
        self.busy += busy
        self.busy_ref += busy * scale
        self.ops += ops
        if kind is not None:
            self.samples.setdefault(kind, array("d")).extend(latencies)
            self.scaled.setdefault(kind, array("d")).extend(dt * scale for dt in latencies)

    def outcome(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1

    def error(self):
        """Count the operation now being handled as raised and failed."""
        self.outcome(False)
        if not self._reported:
            self._reported = True
            traceback.print_exc(file=sys.stderr)

    def feed(self, *items):
        if self.digesting:
            self._digest.update(repr(items).encode())
            self._digest.update(b"\n")

    @property
    def digest(self):
        return self._digest.hexdigest()

    def of(self, *kinds, scaled=False):
        source = self.scaled if scaled else self.samples
        out = array("d")
        for kind in kinds:
            out.extend(source.get(kind, ()))
        return out


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10)[8]


def beyond(xs, bound):
    return sum(1 for x in xs if x > bound)


def latency(name, xs, scale, unit):
    """Named p50/p90 lines, with sample counts, from seconds."""
    hi = p90(xs)
    return [
        (f"{name}.p50", p50(xs) * scale, unit, f"n={len(xs)}"),
        (f"{name}.p90", hi * scale, unit, f"n={len(xs)}, beyond={beyond(xs, hi)}"),
    ]


def e2e(rec):
    """The workload-neutral end-to-end metrics of BENCHMARK.json, from
    timings at reference speed."""
    main, side = rec.of("main", scaled=True), rec.of("side", scaled=True)
    ms = 1e3
    return {
        "ops_per_s": (rec.ops / rec.busy_ref, "1/s"),
        "main_ms.p50": (p50(main) * ms, "ms"),
        "main_ms.p90": (p90(main) * ms, "ms"),
        "side_ms.p50": (p50(side) * ms, "ms"),
    }


# -- avoid-stream ---------------------------------------------------------------

class AvoidStream:
    """Range-avoidance instances shaped like acceptance criterion 9.

    A unit holds one instance for every a in 1..a_max, in seeded order, with
    b = 2a + 0..8, a seeded table, and its own solver seed.  ``main`` is the
    solve latency of the instances with a > a_max/2 (the largest classes),
    ``side`` that of a_max/4 < a <= a_max/2; smaller instances count only
    in throughput.
    """

    name = "avoid-stream"
    # Layers this workload is known to reach; the traced run fails if one
    # of them records no call.
    reaches = (
        "circuit.analyze_degrees", "circuit.build", "circuit.serialize",
        "evaluator.eval_gates", "hitting.decode", "hitting.find_small_witness",
        "hitting.verify", "hitting.search", "avoid.amplify", "avoid.invert",
        "avoid.pipeline", "boolfunc.tabulate",
    )

    def __init__(self, a_max=16, min_units=13, trace_units=4):
        self.a_max = a_max
        self.min_units = min_units
        self.trace_units = trace_units

    def instances(self, seed, label):
        rng = random.Random(f"{seed}:{self.name}:{label}")
        order = list(range(1, self.a_max + 1))
        rng.shuffle(order)
        for a in order:
            b = 2 * a + rng.randint(0, 8)
            table = tuple(rng.randint(1, b) for _ in range(a))
            yield avoid.AvoidInstance(a, b, table), rng.randrange(1 << 31)

    def setup(self, seed):
        inst, solve_seed = max(self.instances(seed, "warmup"), key=lambda p: p[0].a)
        avoid.avoid_via_hitting(inst, seed=solve_seed)
        return seed

    def unit(self, seed, u, rec):
        for inst, solve_seed in self.instances(seed, u):
            rec.tick()
            t0 = pc()
            try:
                result = avoid.avoid_via_hitting(inst, seed=solve_seed)
            except Exception:  # counted and reported; the stream goes on
                rec.error()
                continue
            dt = pc() - t0
            if inst.a > self.a_max // 2:
                kind = "main"
            elif inst.a > self.a_max // 4:
                kind = "side"
            else:
                kind = "small"
            rec.tock(dt, 1, kind, (dt,))
            v = result.value
            rec.outcome(1 <= v <= inst.b and all(y != v for y in inst.table))
            rec.feed(v, sorted(result.trace.items()))

    def report(self, rec):
        solves = rec.of("main", "side", "small")
        named = latency("avoid.solve_ms", solves, 1e3, "ms")
        named.append(("avoid.solves_per_s", rec.ops / rec.busy, "1/s", f"n={rec.ops}"))
        return e2e(rec), named


# -- pit-equiv --------------------------------------------------------------------

def random_coeffs(rng):
    while True:
        cs = [rng.randint(-3, 3) for _ in range(4)]
        if any(cs[1:]):
            return cs


def distributed(terms, order, offset):
    """The same polynomial with the first form of each term distributed:
    L1 * R = c0 R + c1 x1 R + c2 x2 R + c3 x3 R, terms summed in ``order``;
    ``offset`` != 0 adds that constant, making the pair inequivalent."""
    ac = Ac()
    total = None
    for t in order:
        first, rest = terms[t][0], terms[t][1:]
        r = linear_form(ac, rest[0])
        for cs in rest[1:]:
            r = ac.mul(r, linear_form(ac, cs))
        acc = ac.mul(ac.const(first[0]), r)
        for j, c in enumerate(first[1:]):
            acc = ac.add(acc, ac.mul(ac.const(c), ac.mul(j, r)))
        total = acc if total is None else ac.add(total, acc)
    if offset:
        total = ac.add(total, ac.const(offset))
    return ac


class PitEquiv:
    """Pairs of n = 3 sums of products of linear forms, as ``.ac`` text.

    Even pool slots hold equivalent pairs (the second circuit is the
    distributive rewrite of the first), odd slots inequivalent ones (the
    rewrite plus a nonzero constant).  Term counts are spread evenly over
    ``terms`` for both kinds, which gives about 1k-4k gates per circuit at
    the defaults.  One request parses both texts and runs
    ``equiv_test(method="random", trials=40)``.  ``main`` is the verdict
    latency of equivalent pairs, ``side`` that of inequivalent pairs.
    """

    name = "pit-equiv"
    reaches = (
        "circuit.parse", "circuit.analyze_degrees", "circuit.build",
        "evaluator.eval_gates", "pit.equiv", "pit.random", "pit.difference_circuit",
    )
    factors = 3
    trials = 40

    def __init__(self, pairs=32, terms=(30, 120), min_units=7, trace_units=2):
        self.pairs = pairs
        self.terms = terms
        self.min_units = min_units
        self.trace_units = trace_units

    def setup(self, seed):
        rng = random.Random(f"{seed}:{self.name}")
        lo, hi = self.terms
        sizes = self.pairs // 2
        pool = []
        for k in range(self.pairs):
            step = k // 2
            n_terms = lo + (hi - lo) * step // max(1, sizes - 1)
            terms = [[random_coeffs(rng) for _ in range(self.factors)] for _ in range(n_terms)]
            order = list(range(n_terms))
            rng.shuffle(order)
            equivalent = k % 2 == 0
            offset = 0 if equivalent else rng.choice([-1, 1]) * rng.randint(1, 9)
            f = sum_of_products(terms).text()
            g = distributed(terms, order, offset).text()
            pool.append({"f": f, "g": g, "equivalent": equivalent})
        # Request seeds come from the run's seed, so witnesses depend on it.
        state = {"pool": pool, "progs": {}, "seed0": rng.randrange(1 << 30)}
        for k in (0, 1):
            self.request(state, k, state["seed0"] - 1 - k, Recorder())
        return state

    def unit(self, state, u, rec):
        for k in range(len(state["pool"])):
            self.request(state, k, state["seed0"] + u * len(state["pool"]) + k, rec)

    def request(self, state, k, request_seed, rec):
        pair = state["pool"][k]
        rec.tick()
        t0 = pc()
        try:
            f = circuit_mod.parse_circuit(pair["f"])
            g = circuit_mod.parse_circuit(pair["g"])
            verdict = pit.equiv_test(f, g, method="random", trials=self.trials, seed=request_seed)
        except Exception:  # counted and reported; the stream goes on
            rec.error()
            return
        dt = pc() - t0
        rec.tock(dt, 1, "main" if pair["equivalent"] else "side", (dt,))
        if pair["equivalent"]:
            ok = verdict.kind == pit.PROBABLY_ZERO and verdict.trials == self.trials
        else:
            ok = verdict.kind == pit.NONZERO and self.witness_ok(state, k, verdict.witness)
        rec.outcome(ok)
        rec.feed(k, verdict.kind, verdict.witness, verdict.trials)

    def witness_ok(self, state, k, w):
        """Re-check a NonZero witness with the benchmark's own evaluator."""
        q = 2 * 3 * self.factors  # q = 2nd, with n = 3 and d = factors
        if w is None or len(w) != 3 or not all(0 <= v < q for v in w):
            return False
        progs = state["progs"].get(k)
        if progs is None:
            pair = state["pool"][k]
            progs = state["progs"][k] = (compile_ac(pair["f"]), compile_ac(pair["g"]))
        return ref_eval(progs[0], w) != ref_eval(progs[1], w)

    def report(self, rec):
        verdicts = rec.of("main", "side")
        named = latency("pit.verdict_ms", verdicts, 1e3, "ms")
        named.append(("pit.verdicts_per_s", rec.ops / rec.busy, "1/s", f"n={rec.ops}"))
        return e2e(rec), named


# -- codec-roundtrip --------------------------------------------------------------

N, D = 3, 4
Q = 2 * N * D
# Every encode and decode is timed, but only every k-th is kept as a latency
# sample, so that the sample arrays stay small beside the library's own
# memory and peak RSS does not grow with run length.  Both strides are
# coprime to q, so the kept samples do not line up with the cube's rows.
ENCODE_SAMPLE_EVERY = 5
DECODE_SAMPLE_EVERY = 61


class CodecRoundtrip:
    """Root-rich n = 3 circuits for the root codec.

    Each circuit is L1 * L2 * S: L1 = s(x1 - x2) + c1 and L2 = t(xi + x3 - c2)
    (i = 1 or 2) are two-variable linear forms with +-1 coefficients, and
    S = (x1 + x2 + x3 - u)^2 + 1 is a root-free sum of squares, so the roots
    in the cube are the union of two planes.  d = 4 (a variable in both
    forms and S) and q = 2nd = 24.  Set-up finds the roots by the library's
    cube scan and checks them against the planes.  A unit runs every pool
    circuit once, each with a fresh context (empty restriction cache):
    encode every root (``main``; it fills the cache), then decode every
    code of [n]x[d]xS_q^(n-1) (``side``; mostly cache hits), with
    ``unpack_code``/``pack_code`` around each decode.
    """

    name = "codec-roundtrip"
    reaches = (
        "circuit.analyze_degrees", "circuit.build",
        "evaluator.eval_gates", "unipoly.extract", "unipoly.roots_in_cube",
        "codec.restrict", "codec.encode", "codec.decode",
    )

    def __init__(self, circuits=16, min_units=2, trace_units=1):
        self.circuits = circuits
        self.min_units = min_units
        self.trace_units = trace_units

    def generate(self, rng):
        s, t = rng.choice((1, -1)), rng.choice((1, -1))
        c1, c2, u = rng.randint(-3, 3), rng.randint(2, 6), rng.randint(0, 3 * (Q - 1))
        i = rng.choice((0, 1))
        ac = Ac()
        sgn = ac.const(-1)
        diff = ac.add(0, ac.mul(sgn, 1)) if s == 1 else ac.add(1, ac.mul(sgn, 0))
        l1 = ac.add(diff, ac.const(c1))
        l2 = ac.add(ac.add(i, 2), ac.const(-c2))
        if t == -1:
            l2 = ac.mul(ac.const(-1), l2)
        lin = ac.add(ac.add(ac.add(0, 1), 2), ac.const(-u))
        sos = ac.add(ac.mul(lin, lin), ac.const(1))
        ac.mul(ac.mul(l1, l2), sos)
        planes = {
            p for p in product(range(Q), repeat=N)
            if s * (p[0] - p[1]) + c1 == 0 or p[i] + p[2] == c2
        }
        return ac.text(), planes

    def setup(self, seed):
        rng = random.Random(f"{seed}:{self.name}")
        pool = []
        for _ in range(self.circuits):
            text, planes = self.generate(rng)
            ckt = circuit_mod.parse_circuit(text)
            d = circuit_mod.analyze_degrees(ckt).max_individual
            roots = codec.cube_roots(ckt, N, Q)
            if d != D or set(roots) != planes:
                raise RuntimeError(f"set-up check failed for circuit:\n{text}")
            while True:
                nonroot = tuple(rng.randrange(Q) for _ in range(N))
                if nonroot not in planes:
                    break
            pool.append({"circuit": ckt, "roots": roots, "nonroot": nonroot})
        state = {"pool": pool}
        self.roundtrip(state, 0, Recorder())
        return state

    def unit(self, state, u, rec):
        for k in range(len(state["pool"])):
            self.roundtrip(state, k, rec)

    def roundtrip(self, state, k, rec):
        entry = state["pool"][k]
        roots = entry["roots"]
        size = codec.code_space_size(N, D, Q)
        rec.tick()
        t0 = pc()
        try:
            ctx = codec.SZContext(entry["circuit"], N, D, Q, entry["nonroot"])
        except Exception:  # counted and reported; the stream goes on
            rec.error()
            return
        busy = pc() - t0
        codes, latencies = [], []
        for j, b in enumerate(roots):
            t0 = pc()
            try:
                code = codec.encode_root(ctx, b)
            except Exception:  # counted and reported; the stream goes on
                rec.error()
                codes.append(None)
                continue
            dt = pc() - t0
            busy += dt
            if j % ENCODE_SAMPLE_EVERY == 0:
                latencies.append(dt)
            codes.append(code)
        rec.tock(busy, len(roots), "main", latencies)
        decoded = [None] * (size + 1)
        busy, latencies = 0.0, []
        rec.tick()
        for idx in range(1, size + 1):
            t0 = pc()
            try:
                code = codec.unpack_code(idx, N, D, Q)
                t1 = pc()
                point = codec.decode_code(ctx, code)
                t2 = pc()
                packed = codec.pack_code(code, N, D, Q)
                t3 = pc()
            except Exception:  # counted and reported; the stream goes on
                rec.error()
                continue
            busy += t3 - t0
            if idx % DECODE_SAMPLE_EVERY == 0:
                latencies.append(t2 - t1)
            decoded[idx] = point
            rec.outcome(packed == idx and len(point) == N and all(0 <= v < Q for v in point))
        rec.tock(busy, size, "side", latencies)
        digest_codes = []
        for b, code in zip(roots, codes):
            if code is None:
                continue
            try:
                idx = codec.pack_code(code, N, D, Q)
            except Exception:  # counted and reported; the stream goes on
                rec.error()
                continue
            # decode(encode(b)) == b for every root, hence roots are a
            # subset of the decoded set.
            rec.outcome(decoded[idx] == b)
            digest_codes.append(idx)
        rec.outcome(len(roots) <= size)
        rec.feed(k, digest_codes)

    def report(self, rec):
        enc, dec = rec.of("main"), rec.of("side")
        named = latency("codec.encode_us", enc, 1e6, "us")[:2]
        named.append(("codec.decode_us.p50", p50(dec) * 1e6, "us", f"n={len(dec)}"))
        named.append(("codec.codes_per_s", rec.ops / rec.busy, "1/s", f"n={rec.ops}"))
        return e2e(rec), named


WORKLOADS = {w.name: w for w in (AvoidStream, PitEquiv, CodecRoundtrip)}
