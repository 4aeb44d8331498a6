"""Command-line front end.

Subcommands: parse, degrees, eval, coeffs, roots, encode, decode, pit,
hs-search, hs-verify, avoid, selftest.  Exit codes: 64 usage error, 65 bad
input, 70 internal guard trip; the pit subcommand instead exits 0 for a
zero verdict, 1 for NonZero and 2 for errors.  ``--json`` switches every
subcommand to a machine-readable report with a versioned schema; fixed
seeds give byte-identical reports.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Optional

from . import classes as builtin_classes
from .avoid import (
    avoid_via_hitting,
    instance_from_bool_circuit,
    instance_from_tsv,
    solve_avoid_brute,
)
from .boolfunc import parse_bool_circuit
from .circuit import analyze_degrees, parse_circuit, plug_params, serialize_circuit
from .codec import SZContext, decode_code, encode_root, parse_code, serialize_code
from .config import DEFAULT_BITLEN_GUARD, DEFAULT_EXHAUSTION_CAP
from .errors import BitLengthGuardError, StageError, SzpitError
from .evaluator import eval_arithmetic
from .hitting import (
    DefinableClass,
    parse_hitting_set,
    search_hitting_set,
    serialize_hitting_set,
    verify_hitting_set,
)
from .pit import pit_cube_brute, pit_random, pit_with_hitting_set
from .selftest import run_selftest
from .unipoly import enumerate_roots, extract_unipoly, parse_unipoly, serialize_unipoly

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

SCHEMA = 1


def _ints(text: str) -> tuple:
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        payload = {"schema": SCHEMA, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_class(args):
    spec = args.cls
    if spec.startswith("plugin:"):
        module_name, _, func_name = spec[len("plugin:"):].partition(":")
        try:
            factory = getattr(importlib.import_module(module_name), func_name)
        except (ImportError, AttributeError) as e:
            raise SzpitError(f"cannot load class {spec!r}: {e}") from e
    else:
        name = spec[len("builtin:"):] if spec.startswith("builtin:") else spec
        if name not in builtin_classes.BUILTIN_CLASSES:
            raise SzpitError(
                f"unknown builtin class {name!r}; have {sorted(builtin_classes.BUILTIN_CLASSES)}"
            )
        factory = builtin_classes.BUILTIN_CLASSES[name]
    try:
        cls = factory(args.n, args.d, args.s, args.m)
    except TypeError as e:
        raise SzpitError(f"cannot build class {spec!r} from (n, d, s, m): {e}") from e
    if not isinstance(cls, DefinableClass):
        raise SzpitError(f"class {spec!r} returned {type(cls).__name__}, not a DefinableClass")
    return cls


def _cmd_parse(args) -> int:
    c = parse_circuit(_read(args.file))
    _emit(args, {"ok": True, "canonical": serialize_circuit(c),
                 "n_vars": c.n_vars, "n_params": c.n_params,
                 "gates": len(c.gates)}, serialize_circuit(c).rstrip("\n"))
    return 0


def _cmd_degrees(args) -> int:
    c = parse_circuit(_read(args.file))
    rep = analyze_degrees(c, args.exhaustion_cap)
    plain = f"total={rep.total} max_individual={rep.max_individual} " + " ".join(
        f"{u}={d}" for u, d in sorted(rep.individual.items())
    )
    _emit(args, {"total": rep.total, "max_individual": rep.max_individual,
                 "individual": dict(sorted(rep.individual.items()))}, plain)
    return 0


def _cmd_eval(args) -> int:
    c = parse_circuit(_read(args.file))
    c = plug_params(c, dict(enumerate(_ints(args.params), 1)))
    # Kept on c, so eval_arithmetic reuses this report under the same cap.
    total = analyze_degrees(c, args.exhaustion_cap).total
    bound = total if args.degree_bound is None else args.degree_bound
    value = eval_arithmetic(c, _ints(args.vars), bound, bitlen_guard=args.bitlen_guard)
    _emit(args, {"value": str(value)}, str(value))
    return 0


def _cmd_coeffs(args) -> int:
    c = parse_circuit(_read(args.file))
    p = extract_unipoly(c, args.d, bitlen_guard=args.bitlen_guard)
    _emit(args, {"coeffs": [str(v) for v in p.coeffs]}, serialize_unipoly(p))
    return 0


def _cmd_roots(args) -> int:
    p = parse_unipoly(args.coeffs)
    roots = enumerate_roots(p, args.q, q_cap=args.exhaustion_cap, bitlen_guard=args.bitlen_guard)
    text = ",".join(str(v) for v in roots)
    _emit(args, {"roots": list(roots), "marker": args.q}, text)
    return 0


def _ctx_from_args(args, c) -> SZContext:
    nonroot = _ints(args.nonroot)
    return SZContext(c, c.n_vars, args.d, args.q, nonroot, bitlen_guard=args.bitlen_guard)


def _cmd_encode(args) -> int:
    c = parse_circuit(_read(args.file))
    ctx = _ctx_from_args(args, c)
    code = encode_root(ctx, _ints(args.point))
    _emit(args, {"code": serialize_code(code), "nonroot_ok": ctx.nonroot_ok},
          serialize_code(code))
    return 0


def _cmd_decode(args) -> int:
    c = parse_circuit(_read(args.file))
    ctx = _ctx_from_args(args, c)
    point = decode_code(ctx, parse_code(args.code))
    text = ",".join(str(v) for v in point)
    _emit(args, {"point": list(point), "nonroot_ok": ctx.nonroot_ok}, text)
    return 0


def _cmd_pit(args) -> int:
    c = parse_circuit(_read(args.file))
    if args.method == "cube":
        verdict = pit_cube_brute(c, cap=args.exhaustion_cap, bitlen_guard=args.bitlen_guard)
    elif args.method == "random":
        if args.seed is None:
            raise SzpitError("--seed is required for --method random")
        verdict = pit_random(c, trials=args.trials, seed=args.seed,
                             bitlen_guard=args.bitlen_guard)
    else:
        if not args.hs_file:
            raise SzpitError("--hs-file is required for --method hs")
        h = parse_hitting_set(_read(args.hs_file), c.n_vars, args.q or (1 << 62))
        verdict = pit_with_hitting_set(c, h, bitlen_guard=args.bitlen_guard)
    plain = verdict.kind + (f" at {verdict.witness}" if verdict.witness else "")
    _emit(args, {"verdict": verdict.to_json()}, plain)
    return 0 if verdict.is_zero_verdict else 1


def _cmd_hs_search(args) -> int:
    cls = _load_class(args)
    if args.seed is None:
        raise SzpitError("--seed is required for hs-search")
    h = search_hitting_set(cls, args.q, args.r, seed=args.seed, budget=args.budget,
                           cap=args.exhaustion_cap)
    text = serialize_hitting_set(h)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    _emit(args, {"points": [list(p) for p in h.points], "r": h.r, "size": h.size},
          text.rstrip("\n"))
    return 0


def _cmd_hs_verify(args) -> int:
    cls = _load_class(args)
    h = parse_hitting_set(_read(args.file), args.n, args.q)
    verdict = verify_hitting_set(cls, h, seed=args.seed or 0,
                                 witness_budget=args.budget, cap=args.exhaustion_cap)
    if verdict.hits:
        _emit(args, {"hits": True}, "Hits")
        return 0
    plain = f"Misses x={verdict.x} nonroot={','.join(map(str, verdict.witness))}"
    _emit(args, {"hits": False, "x": verdict.x, "nonroot": list(verdict.witness)}, plain)
    return 1


def _cmd_avoid(args) -> int:
    path = args.instance
    if path.endswith(".bc"):
        if args.a is None or args.b is None:
            raise SzpitError("--a and --b are required for circuit instances")
        inst = instance_from_bool_circuit(parse_bool_circuit(_read(path)), args.a, args.b)
    else:
        inst = instance_from_tsv(_read(path), b=args.b)
    if args.via == "brute":
        value = solve_avoid_brute(inst, cap=args.exhaustion_cap)
        _emit(args, {"value": value, "via": "brute"}, str(value))
        return 0
    if args.seed is None:
        raise SzpitError("--seed is required for --via hitting")
    result = avoid_via_hitting(inst, seed=args.seed, schedule=args.schedule)
    _emit(args, {"value": result.value, "via": "hitting", "trace": result.trace},
          str(result.value))
    return 0


def _cmd_selftest(args) -> int:
    failures = run_selftest(verbose=not args.json)
    _emit(args, {"failures": failures, "ok": not failures},
          "selftest: " + ("OK" if not failures else f"{len(failures)} FAILED"))
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="szpit",
        description="Algebraic circuits over Z: root codecs, identity testing, "
        "hitting sets, range avoidance.",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable report")
    ap.add_argument("--exhaustion-cap", type=int, default=DEFAULT_EXHAUSTION_CAP)
    ap.add_argument("--bitlen-guard", type=int, default=DEFAULT_BITLEN_GUARD)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a .ac file, print canonical form")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("degrees", help="syntactic degree report")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_degrees)

    p = sub.add_parser("eval", help="evaluate a circuit at integer inputs")
    p.add_argument("file")
    p.add_argument("--vars", default="", help="comma-separated variable values")
    p.add_argument("--params", default="", help="comma-separated parameter values")
    p.add_argument("--degree-bound", type=int, default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("coeffs", help="univariate coefficient extraction")
    p.add_argument("file")
    p.add_argument("--d", type=int, required=True, help="degree bound (unary semantics)")
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("roots", help="roots of a dense polynomial in S_q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("coeffs", help="comma-separated coefficients, lowest degree first")
    p.set_defaults(fn=_cmd_roots)

    for name in ("encode", "decode"):
        p = sub.add_parser(name, help=f"{name} a root code")
        p.add_argument("file")
        p.add_argument("--nonroot", required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        if name == "encode":
            p.add_argument("--point", required=True)
            p.set_defaults(fn=_cmd_encode)
        else:
            p.add_argument("--code", required=True, help="k:i:c1,c2,...")
            p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("pit", help="polynomial identity test")
    p.add_argument("file")
    p.add_argument("--method", choices=("cube", "random", "hs"), default="cube")
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--hs-file", default=None)
    p.add_argument("--q", type=int, default=None, help="alphabet bound for --hs-file")
    p.set_defaults(fn=_cmd_pit)

    for name in ("hs-search", "hs-verify"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} for a definable class")
        p.add_argument("--class", dest="cls", required=True,
                       help="builtin:<name> (multilinear|linear|monomial|all; "
                       "--m is only honored by 'all') or plugin:<module>:<factory>")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--s", type=int, default=0)
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--seed", type=int, default=None)
        if name == "hs-search":
            p.add_argument("--r", type=int, required=True)
            p.add_argument("--budget", type=int, default=64)
            p.add_argument("-o", "--out", default=None)
            p.set_defaults(fn=_cmd_hs_search)
        else:
            p.add_argument("--budget", type=int, default=64,
                           help="witness sampling budget per member")
            p.add_argument("file", help="hitting set, one point per line")
            p.set_defaults(fn=_cmd_hs_verify)

    p = sub.add_parser("avoid", help="range avoidance")
    p.add_argument("--instance", required=True, help="truth table .tsv or circuit .bc")
    p.add_argument("--via", choices=("hitting", "brute"), default="hitting")
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--schedule", choices=("auto", "paper"), default="auto")
    p.set_defaults(fn=_cmd_avoid)

    p = sub.add_parser("selftest", help="run the desk-scale invariant suites")
    p.set_defaults(fn=_cmd_selftest)

    return ap


# Options whose value is a comma-separated list of integers.  argparse
# takes a value such as "-1,2" for an option, as it is no negative number,
# so main() joins such a value to its option, "--vars=-1,2", first.
_INT_LIST_OPTIONS = frozenset(("--vars", "--params", "--nonroot", "--point"))


def _join_int_lists(argv: list) -> list:
    joined: list = []
    for arg in argv:
        if joined and joined[-1] in _INT_LIST_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_join_int_lists(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return EX_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SzpitError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if args.command == "pit":
            return 2
        # A guard trip or a failed internal re-verification is our bug,
        # not the user's input.
        if isinstance(e, BitLengthGuardError) or (
            isinstance(e, StageError) and isinstance(e.cause, AssertionError)
        ):
            return EX_SOFTWARE
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())
