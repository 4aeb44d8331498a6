"""Golden files: the text formats are bit-exact and diff-able, and the
avoid pipeline's outputs and traces are pinned by digest."""

import hashlib
import json
import pathlib

from szpit.avoid import AvoidInstance, avoid_via_hitting
from szpit.boolfunc import parse_bool_circuit, serialize_bool_circuit
from szpit.circuit import analyze_degrees, parse_circuit, serialize_circuit
from szpit.cli import main
from szpit.rng import Rng

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_lattice_canonicalization():
    raw = (GOLDEN / "lattice.ac").read_text()
    want = (GOLDEN / "lattice.canonical.ac").read_text()
    c = parse_circuit(raw)
    assert serialize_circuit(c) == want
    # Canonical text is a fixed point.
    assert serialize_circuit(parse_circuit(want)) == want


def test_lattice_degrees():
    c = parse_circuit((GOLDEN / "lattice.ac").read_text())
    rep = analyze_degrees(c)
    # (x1 + 2 p1)(x1 x2 - 3): x1 appears in both factors.
    assert rep.total == 4
    assert rep.individual == {"x1": 2, "x2": 1, "p1": 1, "g3": 1, "g7": 1}


def test_bool_circuit_golden_roundtrip():
    raw = (GOLDEN / "stretch.bc").read_text()
    c = parse_bool_circuit(raw)
    assert serialize_bool_circuit(c) == raw


def test_cli_json_golden(capsys, tmp_path):
    path = tmp_path / "c.ac"
    path.write_text((GOLDEN / "lattice.canonical.ac").read_text())
    assert main(["--json", "degrees", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "schema": 1,
        "command": "degrees",
        "total": 4,
        "max_individual": 2,
        "individual": {"g3": 1, "g7": 1, "p1": 1, "x1": 2, "x2": 1},
    }


# sha256 over repr((value, sorted(trace.items()))) of the 50 acceptance
# criterion-9 instances, in order.  Speed-ups must leave it unchanged.
CRITERION_9_DIGEST = "b2877dd0305dec994bd1efeaa59262e475424873bab5ab67d08227993de6d609"


def test_criterion_9_values_and_traces_are_pinned():
    rng = Rng(1009, "c9")
    digest = hashlib.sha256()
    for trial in range(50):
        r = rng.split(str(trial))
        a = r.randint(1, 16)
        b = 2 * a + r.randint(0, 8)
        inst = AvoidInstance(a, b, tuple(r.randint(1, b) for _ in range(a)))
        result = avoid_via_hitting(inst, seed=trial)
        digest.update(repr((result.value, sorted(result.trace.items()))).encode())
    assert digest.hexdigest() == CRITERION_9_DIGEST


# The same digest for one a = 2^12 instance: 4,096 class members, each
# verified, and a stretch of about 1,000 bits.
A_4096_VALUE = 3766
A_4096_DIGEST = "72238a9212ca77612f41c34708badb61347811a3efd46285ff886bd8ff399fe2"


def test_a_4096_value_and_trace_are_pinned():
    r = Rng(1013, "a4096")
    a = 1 << 12
    inst = AvoidInstance(a, 2 * a, tuple(r.randint(1, 2 * a) for _ in range(a)))
    result = avoid_via_hitting(inst, seed=12)
    digest = hashlib.sha256(repr((result.value, sorted(result.trace.items()))).encode())
    assert (result.value, digest.hexdigest()) == (A_4096_VALUE, A_4096_DIGEST)
