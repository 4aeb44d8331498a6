"""CLI: subcommands, exit codes, JSON determinism."""

import json

import pytest

from szpit.cli import EX_DATAERR, EX_SOFTWARE, EX_USAGE, main
from szpit.errors import BitLengthGuardError, OracleError, StageError

PRODUCT = "g0 = var x1\ng1 = var x2\ng2 = mul g0 g1\noutput g2\n"
CONST0 = "g0 = const 0\noutput g0\n"


@pytest.fixture
def prod_ac(tmp_path):
    path = tmp_path / "prod.ac"
    path.write_text(PRODUCT)
    return str(path)


@pytest.fixture
def zero_ac(tmp_path):
    path = tmp_path / "zero.ac"
    path.write_text(CONST0)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_canonical(capsys, prod_ac):
    code, out, _ = run(capsys, "parse", prod_ac)
    assert code == 0
    assert out == PRODUCT


def test_degrees(capsys, prod_ac):
    code, out, _ = run(capsys, "--json", "degrees", prod_ac)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["total"] == 2 and data["individual"] == {"x1": 1, "x2": 1}


def test_eval(capsys, prod_ac):
    code, out, _ = run(capsys, "eval", prod_ac, "--vars", "3,5")
    assert code == 0 and out.strip() == "15"


def test_coeffs(capsys, tmp_path):
    path = tmp_path / "sq.ac"
    path.write_text("g0 = var x1\ng1 = const 1\ng2 = add g0 g1\ng3 = mul g2 g2\noutput g3\n")
    code, out, _ = run(capsys, "coeffs", str(path), "--d", "2")
    assert code == 0 and out.strip() == "1,2,1"


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", "--q", "3", "--", "-1,0,1")
    assert code == 0 and out.strip() == "1,3"


def test_encode_decode(capsys, prod_ac):
    code, out, _ = run(
        capsys, "encode", prod_ac, "--nonroot", "1,1", "--q", "2", "--d", "1",
        "--point", "0,1",
    )
    assert code == 0 and out.strip() == "1:1:1"
    code, out, _ = run(
        capsys, "decode", prod_ac, "--nonroot", "1,1", "--q", "2", "--d", "1",
        "--code", "1:1:1",
    )
    assert code == 0 and out.strip() == "0,1"


def test_pit_exit_codes(capsys, prod_ac, zero_ac):
    code, out, _ = run(capsys, "pit", "--method", "random", "--trials", "40",
                       "--seed", "7", zero_ac)
    assert code == 0 and "ProbablyZero" in out
    code, out, _ = run(capsys, "pit", "--method", "cube", prod_ac)
    assert code == 1 and "NonZero" in out
    code, _, err = run(capsys, "pit", "--method", "cube", "/nonexistent.ac")
    assert code == 2


def test_hs_search_and_verify(capsys, tmp_path):
    hs_file = str(tmp_path / "h.txt")
    code, out, _ = run(
        capsys, "hs-search", "--class", "builtin:multilinear", "--n", "2",
        "--d", "2", "--q", "8", "--r", "13", "--seed", "7", "-o", hs_file,
    )
    assert code == 0
    code, out, _ = run(
        capsys, "hs-verify", "--class", "builtin:multilinear", "--n", "2",
        "--d", "2", "--q", "8", hs_file,
    )
    assert code == 0 and out.strip() == "Hits"
    # A single all-roots point misses the product member of the class.
    bad = str(tmp_path / "bad.txt")
    with open(bad, "w") as fh:
        fh.write("0,0\n")
    code, out, _ = run(
        capsys, "hs-verify", "--class", "builtin:multilinear", "--n", "2",
        "--d", "2", "--q", "8", bad,
    )
    assert code == 1 and out.startswith("Misses")


def test_avoid_tsv(capsys, tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("1\t3\n2\t3\n")
    code, out, _ = run(capsys, "--json", "avoid", "--instance", str(path),
                       "--b", "4", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["value"] != 3
    assert data["trace"]["schedule"]["mode"] == "desk"
    code, out, _ = run(capsys, "avoid", "--instance", str(path), "--b", "4",
                       "--via", "brute")
    assert code == 0 and out.strip() == "1"


def test_avoid_bool_circuit(capsys, tmp_path):
    path = tmp_path / "f.bc"
    path.write_text("g0 = var x1\ng1 = var x2\noutput g0 g1\n")
    code, out, _ = run(capsys, "avoid", "--instance", str(path), "--a", "4",
                       "--b", "8", "--via", "brute")
    assert code == 0 and out.strip() == "5"


def test_json_reports_are_deterministic(capsys, prod_ac, tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("1\t1\n2\t2\n")
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "avoid", "--instance", str(path),
                           "--b", "6", "--seed", "42")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "pit", "--method", "random",
                           "--trials", "5", "--seed", "11", prod_ac)
        outputs.add(out)
    assert len(outputs) == 2


def test_json_schema_fields(capsys, prod_ac):
    code, out, _ = run(capsys, "--json", "parse", prod_ac)
    data = json.loads(out)
    assert set(data) >= {"schema", "command", "canonical", "n_vars", "gates"}
    assert data["command"] == "parse"


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == EX_USAGE


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.ac"
    bad.write_text("g0 = var x1\ng1 = mul g1 g0\noutput g1\n")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == EX_DATAERR
    assert "error" in err


def test_seed_required_for_randomized(capsys, prod_ac):
    code, _, err = run(capsys, "pit", "--method", "random", prod_ac)
    assert code == 2 and "--seed" in err
    code, _, err = run(capsys, "hs-search", "--class", "builtin:multilinear",
                       "--n", "2", "--d", "2", "--q", "8", "--r", "13")
    assert code == EX_DATAERR and "--seed" in err


def test_selftest_runs(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "PASS" in out and "FAIL (" not in out


def test_plugin_class_loading(capsys, tmp_path, monkeypatch):
    # --class plugin:<module>:<factory> imports the factory and calls it
    # with (n, d, s, m).
    plugin = tmp_path / "myclasses.py"
    plugin.write_text(
        "from szpit.classes import multilinear_class\n"
        "def factory(n, d, s, m):\n"
        "    return multilinear_class(n, d=d)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    code, out, _ = run(
        capsys, "hs-search", "--class", "plugin:myclasses:factory", "--n", "2",
        "--d", "2", "--q", "8", "--r", "13", "--seed", "7",
    )
    assert code == 0 and out.count("\n") == 13


def test_internal_guard_exit_code(capsys, tmp_path):
    # Repeated squaring overflows a small --bitlen-guard: exit 70.
    path = tmp_path / "blow.ac"
    gates = ["g0 = const 3"] + [f"g{i} = mul g{i-1} g{i-1}" for i in range(1, 25)]
    path.write_text("\n".join(gates) + "\noutput g24\n")
    code, _, err = run(capsys, "--bitlen-guard", "1024", "eval", str(path))
    assert code == 70
    assert "guard" in err


def test_coeffs_guard_exit_code(capsys, tmp_path):
    # Squarings of a const outside the output's cone have x-degree 0, so
    # only the bit-length guard stops them: exit 70.
    path = tmp_path / "blow.ac"
    gates = ["g0 = var x1", "g1 = const 3"] + [f"g{i} = mul g{i-1} g{i-1}" for i in range(2, 25)]
    path.write_text("\n".join(gates + ["g25 = const 2", "g26 = mul g0 g25"]) + "\noutput g26\n")
    code, _, err = run(capsys, "--bitlen-guard", "1024", "coeffs", str(path), "--d", "1")
    assert code == 70
    assert "gate 11: value exceeds 1024-bit guard" in err


def _raises(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


AVOID = ["avoid", "--instance", "{tsv}", "--b", "4", "--seed", "3"]
HS_SEARCH = ["hs-search", "--n", "2", "--d", "2", "--q", "8", "--r", "3", "--seed", "1", "--class"]


# The guard trip outside pit, a syntax error and a library error are covered
# by the tests above.
@pytest.mark.parametrize("argv, patch, code", [
    # pit exits 2 on every error.
    (["pit", "--method", "cube", "{prod}"], ("pit_cube_brute", BitLengthGuardError("guard")), 2),
    # A failed internal re-verification is our bug: 70.
    (AVOID, ("avoid_via_hitting", StageError("final-check", AssertionError("in range"))),
     EX_SOFTWARE),
    # Anything else is bad input: 65.
    (AVOID, ("avoid_via_hitting", StageError("invert", OracleError("bad walk"))), EX_DATAERR),
    (["parse", "{missing}"], None, EX_DATAERR),
    (["eval", "{prod}", "--vars", "three,5"], None, EX_DATAERR),
    # A plugin spec naming no module, no factory, or an empty factory.
    (HS_SEARCH + ["plugin:no_such_module:f"], None, EX_DATAERR),
    (HS_SEARCH + ["plugin:json:nosuch"], None, EX_DATAERR),
    (HS_SEARCH + ["plugin:json"], None, EX_DATAERR),
], ids=["pit-guard", "stage-assertion", "stage-other", "missing-file", "value-error",
        "plugin-no-module", "plugin-no-factory", "plugin-empty-factory"])
def test_error_exit_codes(capsys, tmp_path, monkeypatch, prod_ac, argv, patch, code):
    tsv = tmp_path / "f.tsv"
    tsv.write_text("1\t3\n2\t3\n")
    paths = {"prod": prod_ac, "tsv": str(tsv), "missing": str(tmp_path / "missing.ac")}
    if patch is not None:
        monkeypatch.setattr(f"szpit.cli.{patch[0]}", _raises(patch[1]))
    got, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert got == code
    assert err.startswith("error: ")
