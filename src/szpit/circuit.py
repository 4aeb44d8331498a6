"""Algebraic circuits over the integers: IR, text format, degree analysis.

A circuit is a straight-line program: an ordered sequence of gates
``g0, g1, ..., gt`` where each gate is a variable input, a parameter input,
an integer constant, or an addition/multiplication of two strictly earlier
gates.  The last gate is the output.  There is no division, subtraction, or
power gate; subtraction is expressed with ``const -1`` and ``mul``.  A
parameter is a bit per evaluation, read from packed params R
(``eval_gates(c, x, R)``); it takes any integer value only for good,
through :func:`plug_params`, which replaces each parameter gate by a
const gate.

Text format (one statement per line, ``#`` starts a comment, gate ids must
be 0, 1, 2, ... in order, files use extension ``.ac``)::

    g0 = var x1
    g1 = param p1
    g2 = const -3
    g3 = add g0 g1
    g4 = mul g3 g2
    output g4

Degree analysis is syntactic: variable, parameter and constant inputs all
contribute degree 1, addition takes the max of its operands, multiplication
the sum.  Individual degrees are tracked per input; constant gates count as
anonymous inputs keyed by their gate id.  Degrees are plain Python
integers because a t-gate circuit can reach degree 2^t.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .config import DEFAULT_EXHAUSTION_CAP
from .errors import CapExceededError, CircuitSyntaxError, CircuitValidationError, PreconditionError

VAR = "var"
PARAM = "param"
CONST = "const"
ADD = "add"
MUL = "mul"

_BINARY_KINDS = (ADD, MUL)


@dataclass(frozen=True, slots=True)
class Gate:
    """One straight-line-program gate.

    ``name`` is the 1-based variable/parameter index for var/param gates,
    ``value`` the integer for const gates, ``lhs``/``rhs`` the operand gate
    indices for add/mul gates.
    """

    op: str
    name: int = 0
    value: int = 0
    lhs: int = -1
    rhs: int = -1

    @staticmethod
    def var(name: int) -> "Gate":
        return _gate(VAR, name, 0, -1, -1)

    @staticmethod
    def param(name: int) -> "Gate":
        return _gate(PARAM, name, 0, -1, -1)

    @staticmethod
    def const(value: int) -> "Gate":
        return _gate(CONST, 0, value, -1, -1)

    @staticmethod
    def add(lhs: int, rhs: int) -> "Gate":
        return _gate(ADD, 0, 0, lhs, rhs)

    @staticmethod
    def mul(lhs: int, rhs: int) -> "Gate":
        return _gate(MUL, 0, 0, lhs, rhs)


_new = object.__new__
_set_op, _set_name, _set_value, _set_lhs, _set_rhs = (
    Gate.__dict__[f].__set__ for f in ("op", "name", "value", "lhs", "rhs")
)


def _gate(op: str, name: int, value: int, lhs: int, rhs: int) -> Gate:
    """``Gate(op, name, value, lhs, rhs)`` in about a third of the time: the
    frozen ``__init__`` assigns through ``object.__setattr__``, while this
    fills the five slots through their descriptors.  Every constructor in
    the library goes through here."""
    g = _new(Gate)
    _set_op(g, op)
    _set_name(g, name)
    _set_value(g, value)
    _set_lhs(g, lhs)
    _set_rhs(g, rhs)
    return g


@dataclass(frozen=True)
class Circuit:
    """A validated straight-line program; the last gate is the output."""

    gates: Tuple[Gate, ...]
    n_vars: int
    n_params: int
    # Filled by the first analyze_degrees call on this object.
    _degrees: Optional[DegreeReport] = field(default=None, init=False, repr=False, compare=False)
    # eval_gates's state: None before the first call, False after it, then
    # the slot program built by the second call or by evaluator.keep.
    _program: object = field(default=None, init=False, repr=False, compare=False)
    # Filled by the first serialize_circuit call on this object that
    # succeeds; the circuit is immutable, so the text cannot go stale.
    _text: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    # Filled by the first param_digits call on this object.
    _param_digits: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        validate(self)


def circuit(gates: Iterable[Gate]) -> Circuit:
    """Build a circuit, inferring dimensions from the gate list.

    The dimensions come from the pass that checks the gates, and the
    result is built without ``__post_init__`` validating it again; the
    errors and their order are those of ``validate`` on
    ``Circuit(gates, max var index, max param index)``.
    """
    gates = tuple(gates)
    var_names, param_names = _gate_names(gates)
    n_vars = max(var_names, default=0)
    n_params = max(param_names, default=0)
    _check_naming(var_names, param_names, n_vars, n_params)
    return _assemble(gates, n_vars, n_params)


def _assemble(gates: Tuple[Gate, ...], n_vars: int, n_params: int) -> Circuit:
    """The circuit of an already checked gate tuple, built unchecked: for
    ``circuit`` after its own pass, and for callers whose gates come from
    valid circuits."""
    c = _new(Circuit)
    c.__dict__.update(gates=gates, n_vars=n_vars, n_params=n_params)
    return c


def validate(c: Circuit) -> None:
    """Check every structural invariant; raise with the offending gate index."""
    _check_naming(*_gate_names(c.gates), c.n_vars, c.n_params)


def _gate_names(gates: Tuple[Gate, ...]) -> Tuple[set, set]:
    """Check each gate in order; return the variable and parameter indices
    seen."""
    if not gates:
        raise CircuitValidationError("empty gate list")
    var_names = set()
    param_names = set()
    for i, g in enumerate(gates):
        op = g.op
        if op in _BINARY_KINDS:
            lhs, rhs = g.lhs, g.rhs
            if not (0 <= lhs < i and 0 <= rhs < i):
                for operand in (lhs, rhs):
                    if operand >= i:
                        raise CircuitValidationError(
                            f"gate {i}: forward reference to g{operand}"
                        )
                    if operand < 0:
                        raise CircuitValidationError(f"gate {i}: negative operand index")
        elif op == VAR:
            if g.name < 1:
                raise CircuitValidationError(f"gate {i}: variable index must be >= 1")
            var_names.add(g.name)
        elif op == PARAM:
            if g.name < 1:
                raise CircuitValidationError(f"gate {i}: parameter index must be >= 1")
            param_names.add(g.name)
        elif op != CONST:
            raise CircuitValidationError(f"gate {i}: unknown gate kind {op!r}")
    return var_names, param_names


def _check_naming(var_names: set, param_names: set, n_vars: int, n_params: int) -> None:
    if var_names != set(range(1, n_vars + 1)):
        raise CircuitValidationError(
            f"gap in variable naming: saw {sorted(var_names)}, n_vars={n_vars}"
        )
    if param_names != set(range(1, n_params + 1)):
        raise CircuitValidationError(
            f"gap in parameter naming: saw {sorted(param_names)}, n_params={n_params}"
        )


@dataclass(frozen=True)
class DegreeReport:
    """Syntactic degrees of a circuit's output gate.

    ``individual`` maps input names ("x1", "p2", or "g<k>" for the constant
    gate at index k) to individual syntactic degrees.
    """

    total: int
    individual: Dict[str, int] = field(hash=False)
    max_individual: int


def analyze_degrees(c: Circuit, cap: int = DEFAULT_EXHAUSTION_CAP) -> DegreeReport:
    """The library's one degree analysis, computed once per Circuit object
    and kept on it (so a class template is analysed once); callers must not
    mutate the report.  ``cap`` bounds the work of that first computation
    (see :func:`_degree_pass`); a report already kept is returned whatever
    the cap."""
    if c._degrees is None:
        object.__setattr__(c, "_degrees", _degree_pass(c, cap))
    return c._degrees


def _degree_pass(c: Circuit, cap: int) -> DegreeReport:
    """Apply the inductive degree rules bottom-up in one pass.

    input -> 1, add -> max, mul -> sum, per input and in total.  Each gate
    merges its smaller operand's sparse dict into its larger one's.  When
    the gate is the larger operand's only use, it merges into that dict in
    place, so a chain runs in linear time; otherwise it merges into a copy.
    Heavy sharing can still make the copies quadratic, so past ``cap``
    dict entries copied or merged in all the pass raises
    :class:`CapExceededError`.
    """
    gates = c.gates
    uses = [0] * len(gates)
    for g in gates:
        if g.op in _BINARY_KINDS:
            uses[g.lhs] += 1
            uses[g.rhs] += 1
    totals = [1] * len(gates)
    per_input: list = [None] * len(gates)
    work = 0
    for i, g in enumerate(gates):
        op = g.op
        if op == VAR:
            per_input[i] = {f"x{g.name}": 1}
        elif op == PARAM:
            per_input[i] = {f"p{g.name}": 1}
        elif op == CONST:
            per_input[i] = {f"g{i}": 1}
        else:
            big, small = g.lhs, g.rhs
            a, b = per_input[big], per_input[small]
            if len(a) < len(b):
                big, small, a, b = small, big, b, a
            if uses[big] == 1:
                merged = a
                work += len(b)
            else:
                merged = dict(a)
                work += len(a) + len(b)
            if work > cap:
                raise CapExceededError(
                    f"gate {i}: degree analysis exceeds the cap of {cap} dict entries"
                )
            if op == ADD:
                totals[i] = max(totals[big], totals[small])
                for u, d in b.items():
                    if d > merged.get(u, 0):
                        merged[u] = d
            else:
                totals[i] = totals[big] + totals[small]
                for u, d in b.items():
                    merged[u] = merged.get(u, 0) + d
            per_input[i] = merged
    individual = per_input[-1]
    return DegreeReport(
        total=totals[-1],
        individual=individual,
        max_individual=max(individual.values(), default=0),
    )


# -- text format ---------------------------------------------------------

_GATE_RE = re.compile(
    r"^g(?P<id>\d+) = (?:"
    r"var x(?P<var>\d+)"
    r"|param p(?P<param>\d+)"
    r"|const (?P<const>-?\d+)"
    r"|(?P<binop>add|mul) g(?P<lhs>\d+) g(?P<rhs>\d+)"
    r")$"
)
_OUTPUT_RE = re.compile(r"^output g(?P<id>\d+)$")


# The canonical form of the whole text: every line a gate, "\n"-terminated,
# single spaces, ASCII digits, then one output line.
_CANONICAL_ROW_RE = re.compile(
    r"^g([0-9]+) = (?:"
    r"var x([0-9]+)"
    r"|param p([0-9]+)"
    r"|const (-?[0-9]+)"
    r"|(add|mul) g([0-9]+) g([0-9]+)"
    r")\n",
    re.MULTILINE,
)


def parse_circuit(text: str) -> Circuit:
    """Parse the line format; the left inverse of :func:`serialize_circuit`.

    Canonical text (what :func:`serialize_circuit` writes) is read in one
    pass by :func:`_canonical_gates`; any other text, and every error, goes
    to the line parser :func:`_line_gates`, which is the reference for both
    the circuit and each :class:`CircuitSyntaxError`.
    """
    gates = _canonical_gates(text)
    if gates is None:
        gates = _line_gates(text)
    try:
        return circuit(gates)
    except CircuitValidationError as e:
        raise CircuitSyntaxError(str(e), 0, 0) from e


def _canonical_gates(text: str) -> Optional[list]:
    """The gate list of text laid out as :func:`serialize_circuit` writes
    it (numbers may have leading zeros), or None for any other text and
    for text in error, a number past the int/str digit limit included.

    Every line but the last must be a gate row and the last must be
    ``output g<last>``; the ids must run 0, 1, 2, ... and every operand
    must point backward.  Const and var gates are immutable, so one object
    serves every gate with the same text.
    """
    rows = _CANONICAL_ROW_RE.findall(text)
    n = len(rows)
    if not n or text.count("\n") != n + 1 or not text.endswith(f"\noutput g{n - 1}\n"):
        return None
    gates: list = []
    append = gates.append
    consts: dict = {}
    variables: dict = {}
    try:
        for i, (gate_id, var, param, const, op, lhs, rhs) in enumerate(rows):
            if int(gate_id) != i:
                return None
            if op:
                lhs, rhs = int(lhs), int(rhs)
                if lhs >= i or rhs >= i:
                    return None
                # The library's own op strings, not the regex's copies: gate
                # loops compare ops, and equal strings compare fastest when
                # they are the same object.
                append(_gate(ADD if op == ADD else MUL, 0, 0, lhs, rhs))
            elif const:
                g = consts.get(const)
                if g is None:
                    g = consts[const] = _gate(CONST, 0, int(const), -1, -1)
                append(g)
            elif var:
                g = variables.get(var)
                if g is None:
                    g = variables[var] = _gate(VAR, int(var), 0, -1, -1)
                append(g)
            else:
                append(_gate(PARAM, int(param), 0, -1, -1))
    except ValueError:
        return None
    return gates


def _line_gates(text: str) -> list:
    """The reference line parser: comments, blank lines and surrounding
    whitespace allowed, every syntax error located by line and column."""
    gates: list = []
    output_id: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        at = len(raw) - len(raw.lstrip())  # columns count from the line's start
        if output_id is not None:
            raise CircuitSyntaxError("statement after output line", lineno, at + 1)
        m = _OUTPUT_RE.match(line)
        if m:
            output_id = _literal(m, "id", lineno, at)
            continue
        m = _GATE_RE.match(line)
        if m is None:
            col = at + _first_mismatch_col(line)
            raise CircuitSyntaxError(f"cannot parse statement {line!r}", lineno, col)
        gate_id = _literal(m, "id", lineno, at)
        if gate_id != len(gates):
            kind = "duplicate" if gate_id < len(gates) else "out-of-order"
            raise CircuitSyntaxError(f"{kind} gate id g{gate_id}", lineno, at + 2)
        if m.group("var") is not None:
            gates.append(Gate.var(_literal(m, "var", lineno, at)))
        elif m.group("param") is not None:
            gates.append(Gate.param(_literal(m, "param", lineno, at)))
        elif m.group("const") is not None:
            gates.append(Gate.const(_literal(m, "const", lineno, at)))
        else:
            lhs, rhs = _literal(m, "lhs", lineno, at), _literal(m, "rhs", lineno, at)
            if lhs >= gate_id or rhs >= gate_id:
                raise CircuitSyntaxError(
                    f"forward or self reference in g{gate_id}", lineno, at + 1
                )
            op = m.group("binop")
            gates.append(Gate.add(lhs, rhs) if op == ADD else Gate.mul(lhs, rhs))
    if output_id is None:
        raise CircuitSyntaxError("missing output line", 0, 0)
    if not gates:
        raise CircuitSyntaxError("no gates before output line", 0, 0)
    if output_id != len(gates) - 1:
        raise CircuitSyntaxError(
            f"output must name the final gate g{len(gates) - 1}, got g{output_id}", 0, 0
        )
    return gates


def _literal(m: re.Match, group: str, lineno: int, at: int) -> int:
    """The integer in m's group of a statement at column at + 1; one past
    Python's int/str digit limit is a syntax error at its column."""
    try:
        return int(m.group(group))
    except ValueError:
        msg = "integer past Python's int conversion limit"
        raise CircuitSyntaxError(msg, lineno, at + m.start(group) + 1) from None


def _first_mismatch_col(line: str) -> int:
    # Best-effort column: first char where the line stops looking like a statement.
    probe = re.match(r"g\d+ = \w*", line)
    return (probe.end() + 1) if probe else 1


def serialize_circuit(c: Circuit) -> str:
    """Canonical text: gates in index order, single spaces, final output line.

    The text is written once per ``Circuit`` object and kept on it, so
    later calls (a class template's size on every solve, say) return the
    same ``str``.  A failure keeps nothing.
    """
    if c._text is None:
        object.__setattr__(c, "_text", _write_text(c))
    return c._text


def _write_text(c: Circuit) -> str:
    lines = []
    for i, g in enumerate(c.gates):
        if g.op == VAR:
            lines.append(f"g{i} = var x{g.name}")
        elif g.op == PARAM:
            lines.append(f"g{i} = param p{g.name}")
        elif g.op == CONST:
            lines.append(f"g{i} = const {g.value}")
        else:
            lines.append(f"g{i} = {g.op} g{g.lhs} g{g.rhs}")
    lines.append(f"output g{len(c.gates) - 1}")
    return "\n".join(lines) + "\n"


def representation_size(c: Circuit) -> int:
    """Serialized bit length; always at least the gate count."""
    return 8 * len(serialize_circuit(c).encode())


def param_digits(c: Circuit) -> int:
    """The decimal digits of the param names, summed over c's param gates.

    ``param p<k>`` is that many characters longer than ``const 0``, so c
    with every param plugged as one digit is ``8 * param_digits(c)`` bits
    smaller than c.  Counted once per ``Circuit`` object and kept on it.
    """
    if c._param_digits is None:
        digits = sum(len(str(g.name)) for g in c.gates if g.op == PARAM)
        object.__setattr__(c, "_param_digits", digits)
    return c._param_digits


# -- conversions ---------------------------------------------------------

def plug_params(c: Circuit, values: Mapping[int, int]) -> Circuit:
    """Replace parameter gates with const gates carrying the given values;
    ``values`` must name exactly the parameters 1..n_params."""
    names = set(range(1, c.n_params + 1))
    missing = names - set(values)
    if missing:
        raise CircuitValidationError(f"no value for parameters {sorted(missing)}")
    extra = set(values) - names
    if extra:
        raise CircuitValidationError(f"no parameters {sorted(extra)} in the circuit")
    gates = [
        Gate.const(values[g.name]) if g.op == PARAM else g for g in c.gates
    ]
    return circuit(gates)


def require_parameter_free(c: Circuit, what: str) -> None:
    """Refuse c if it has parameter gates; ``what`` names the consumer."""
    if c.n_params:
        raise PreconditionError(
            f"{what} needs a parameter-free circuit; plug_params supplies values"
        )


def pad_vars(c: Circuit, n: int) -> Circuit:
    """Append unused variable gates so the circuit has exactly n variables."""
    if c.n_vars > n:
        raise CircuitValidationError(f"circuit has {c.n_vars} > {n} variables")
    if c.n_vars == n:
        return c
    extra = [Gate.var(j) for j in range(c.n_vars + 1, n + 1)]
    # Extra inputs go before the existing program so the output gate stays last.
    return circuit(extra + shifted(c.gates, len(extra)))


def shifted(gates: Iterable[Gate], offset: int) -> list:
    """The gates with every add/mul operand index moved up by offset, for
    placing them after ``offset`` other gates."""
    return [
        _gate(g.op, 0, 0, g.lhs + offset, g.rhs + offset) if g.op in _BINARY_KINDS else g
        for g in gates
    ]
