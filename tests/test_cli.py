"""CLI: subcommands, exit codes, JSON determinism."""

import json
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

import szpit
from szpit.cli import EX_DATAERR, EX_SOFTWARE, EX_USAGE, main
from szpit.circuit import serialize_circuit
from szpit.config import DEFAULT_BITLEN_GUARD, DEFAULT_EXHAUSTION_CAP
from szpit.errors import BitLengthGuardError, OracleError, StageError

from helpers import SCRIPTS, in_script, shifted_power_plus_x2

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


def test_eval_plugs_params_of_any_integer_value(capsys, tmp_path):
    # x1 * p1 + p2 with p1 negative and p2 past 2^64, in plain output and
    # as JSON; a missing or an extra value is bad input.
    path = tmp_path / "affine.ac"
    path.write_text(
        "g0 = var x1\ng1 = param p1\ng2 = mul g0 g1\ng3 = param p2\ng4 = add g2 g3\noutput g4\n"
    )
    argv = ["eval", str(path), "--vars", "3", "--params", f"-7,{2**64 + 5}"]
    want = str(3 * -7 + 2**64 + 5)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == want
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0 and json.loads(out)["value"] == want
    for params, message in [
        ("-7", "no value for parameters [2]"),
        ("", "no value for parameters [1, 2]"),
        ("-7,1,2", "no parameters [3] in the circuit"),
    ]:
        code, _, err = run(capsys, "eval", str(path), "--vars", "3", f"--params={params}")
        assert code == EX_DATAERR and message in err


def test_coeffs(capsys, tmp_path):
    path = tmp_path / "sq.ac"
    path.write_text("g0 = var x1\ng1 = const 1\ng2 = add g0 g1\ng3 = mul g2 g2\noutput g3\n")
    code, out, _ = run(capsys, "coeffs", str(path), "--d", "2")
    assert code == 0 and out.strip() == "1,2,1"


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", "--q", "3", "--", "-1,0,1")
    assert code == 0 and out.strip() == "1,3"


@pytest.mark.parametrize("argv", [
    ["roots", "--q", "3", "-1,0,1"],
    ["roots", "-1,0,1", "--q", "3"],
    ["--json", "roots", "-1,0,1", "--q", "3"],
    ["roots", "--q", "3", "1,0,-1"],
])
def test_roots_list_starting_with_minus_reads_bare_as_after_dashes(capsys, argv):
    # 1 - x^2 has the roots of x^2 - 1.
    coeffs = next(arg for arg in argv if "," in arg)
    dashed = [arg for arg in argv if arg != coeffs] + ["--", "-1,0,1"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.strip() and not err
    assert (code, out, err) == run(capsys, *dashed)


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


NEGATIVE_LISTS = {
    # option: (argv with a negative list after the option, expected output)
    "--vars": (["eval", "{prod}", "--vars", "-3,5"], "-15"),
    "--params": (["eval", "{affine}", "--vars", "3", "--params", "-7,2"], "-19"),
    "--nonroot": (["encode", "{prod}", "--nonroot", "-1,1", "--q", "2", "--d", "1",
                   "--point", "0,1"], "1:1:1"),
    "--point": (["encode", "{prod}", "--nonroot", "1,1", "--q", "2", "--d", "1",
                 "--point", "-1,0"], "error: point (-1, 0) is not inside S_2^2"),
}


@pytest.mark.parametrize("option", sorted(NEGATIVE_LISTS))
def test_negative_lists_parse_after_a_space_as_after_equals(capsys, tmp_path, prod_ac, option):
    # A value that starts with "-" and holds a comma reads the same in
    # "--opt v" and in "--opt=v"; the encode of a point outside the cube is
    # refused by the codec, not by the parser.
    affine = tmp_path / "affine.ac"
    affine.write_text(
        "g0 = var x1\ng1 = param p1\ng2 = mul g0 g1\ng3 = param p2\ng4 = add g2 g3\noutput g4\n"
    )
    argv, want = NEGATIVE_LISTS[option]
    argv = [arg.format(prod=prod_ac, affine=affine) for arg in argv]
    at = argv.index(option)
    joined = argv[:at] + [f"{option}={argv[at + 1]}"] + argv[at + 2:]
    results = [run(capsys, *args) for args in (argv, joined)]
    assert results[0] == results[1]
    code, out, err = results[0]
    if want.startswith("error: "):
        assert code == EX_DATAERR and err.strip() == want
    else:
        assert code == 0 and out.strip() == want


@pytest.mark.parametrize("script", SCRIPTS.values(), ids=SCRIPTS)
@pytest.mark.parametrize("option", sorted(NEGATIVE_LISTS))
def test_list_options_read_ascii_integers_only(capsys, tmp_path, prod_ac, option, script):
    # Each list option reads " -3, +5 " as int() does, and refuses another
    # script's digits, or a "_" separator, as it refuses "three".
    affine = tmp_path / "affine.ac"
    affine.write_text(
        "g0 = var x1\ng1 = param p1\ng2 = mul g0 g1\ng3 = param p2\ng4 = add g2 g3\noutput g4\n"
    )
    argv, want = NEGATIVE_LISTS[option]
    argv = [arg.format(prod=prod_ac, affine=affine) for arg in argv]
    at = argv.index(option) + 1
    value = argv[at]
    spaced = argv[:at] + [" " + value.replace(",", ", +") + " "] + argv[at + 1:]
    assert run(capsys, *spaced) == run(capsys, *argv)
    for bad in (in_script(value, script), value.replace(",", "_0,")):
        code, out, err = run(capsys, *argv[:at], bad, *argv[at + 1:])
        first = bad.split(",")[0]
        assert (code, out) == (EX_DATAERR, "")
        assert err.strip() == f"error: invalid literal for int() with base 10: {first!r}"


def test_an_option_missing_its_list_is_still_a_usage_error(capsys, prod_ac):
    code, _, err = run(capsys, "eval", prod_ac, "--vars", "--json")
    assert code == EX_USAGE and "expected one argument" in err


def test_pit_exit_codes(capsys, prod_ac, zero_ac):
    code, out, _ = run(capsys, "pit", "--method", "random", "--trials", "40",
                       "--seed", "7", zero_ac)
    assert code == 0 and "ProbablyZero" in out
    code, out, _ = run(capsys, "pit", "--method", "cube", prod_ac)
    assert code == 1 and "NonZero" in out
    code, _, err = run(capsys, "pit", "--method", "cube", "/nonexistent.ac")
    assert code == 2


def test_pit_passes_the_guard(capsys, tmp_path):
    # (x1 + 20)^16 by four squarings: the first square, at least 400,
    # passes an 8-bit guard at every point, so each method exits 2.
    path = tmp_path / "power.ac"
    gates = ["g0 = var x1", "g1 = const 20", "g2 = add g0 g1"]
    gates += [f"g{i} = mul g{i - 1} g{i - 1}" for i in range(3, 7)]
    path.write_text("\n".join(gates) + "\noutput g6\n")
    hs = tmp_path / "h.txt"
    hs.write_text("0\n")
    for method in (["cube"], ["random", "--seed", "1"], ["hs", "--hs-file", str(hs), "--q", "32"]):
        argv = ["pit", "--method", *method, str(path)]
        code, _, err = run(capsys, "--bitlen-guard", "8", *argv)
        assert code == 2 and "gate 3: value exceeds 8-bit guard" in err
        code, out, _ = run(capsys, *argv)
        assert code == 1 and out.startswith("NonZero")


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


def test_hs_verify_json_names_the_missed_all_circuits_member(capsys, tmp_path):
    # The report is byte-identical at a fixed seed: x is the description
    # as text, and the witness is drawn from the stream that x labels.
    bad = tmp_path / "bad.txt"
    bad.write_text("0,0\n")
    code, out, _ = run(
        capsys, "--json", "hs-verify", "--class", "builtin:all", "--n", "2", "--d", "2",
        "--s", "400", "--m", "10", "--q", "8", "--seed", "1", str(bad),
    )
    assert code == 1
    assert out == (
        '{"command": "hs-verify", "hits": false, "nonroot": [5, 6], '
        '"schema": 1, "x": "0000000010"}\n'
    )


def test_hs_commands_pass_the_exhaustion_cap(capsys, tmp_path):
    # The linear class's zero member vanishes, so one witness draw misses
    # and the 16-point cube must be scanned; a cap of 1 forbids the scan.
    hs_file = tmp_path / "h.txt"
    hs_file.write_text("0,0\n1,1\n2,3\n3,1\n")
    linear = ["--class", "builtin:linear", "--n", "2", "--d", "1", "--q", "4", "--budget", "1"]
    verify = ["hs-verify", *linear, str(hs_file)]
    search = ["hs-search", *linear, "--r", "9", "--seed", "1"]
    for argv in (verify, search):
        code, _, err = run(capsys, "--exhaustion-cap", "1", *argv)
        assert code == EX_DATAERR and "cube not scannable" in err
        code, _, _ = run(capsys, *argv)
        assert code == 0


def test_sampled_hs_reports_are_labelled(capsys, tmp_path, monkeypatch):
    # Past the class cap a class is checked on its sampler's draws only, so
    # a Hits verdict is evidence: the plain text and the JSON both say so.
    plugin = tmp_path / "sampledclasses.py"
    plugin.write_text(
        "from szpit.circuit import Gate, circuit\n"
        "from szpit.hitting import DefinableClass\n"
        "def factory(n, d, s, m):\n"
        "    product = circuit([Gate.var(1), Gate.var(2), Gate.mul(0, 1)])\n"
        "    return DefinableClass(decoder=lambda x: product, n=2, d=1, s=4096, m=m,\n"
        "                          sampler=lambda rng: rng.randrange(1 << m))\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    hs_file = tmp_path / "h.txt"
    hs_file.write_text("1,1\n")
    sampled = ["--class", "plugin:sampledclasses:factory", "--n", "2", "--d", "1",
               "--q", "4", "--m", "20"]
    verify = ["hs-verify", *sampled, str(hs_file)]
    code, out, _ = run(capsys, *verify)
    assert code == 0 and out == "Hits (sampled)\n"
    code, out, _ = run(capsys, "--json", *verify)
    assert code == 0
    assert out == '{"command": "hs-verify", "exhaustive": false, "hits": true, "schema": 1}\n'
    code, out, _ = run(capsys, "--json", "hs-search", *sampled, "--r", "27", "--seed", "1")
    assert code == 0 and json.loads(out)["exhaustive"] is False
    # At m = 4 the same class is enumerated: the reports carry no label.
    exhaustive = [*sampled[:-1], "4"]
    code, out, _ = run(capsys, "hs-verify", *exhaustive, str(hs_file))
    assert code == 0 and out == "Hits\n"
    code, out, _ = run(capsys, "--json", "hs-verify", *exhaustive, str(hs_file))
    assert out == '{"command": "hs-verify", "hits": true, "schema": 1}\n'
    code, out, _ = run(capsys, "--json", "hs-search", *exhaustive, "--r", "11", "--seed", "1")
    assert code == 0 and "exhaustive" not in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["parse", "{prod}"],
    ["degrees", "{prod}"],
    ["hs-search", "--class", "builtin:linear", "--n", "2", "--d", "1", "--q", "4",
     "--r", "9", "--seed", "1"],
    ["hs-verify", "--class", "builtin:linear", "--n", "2", "--d", "1", "--q", "4", "{hs}"],
    ["avoid", "--instance", "{tsv}", "--b", "4", "--seed", "3"],
    ["selftest"],
], ids=["parse", "degrees", "hs-search", "hs-verify", "avoid", "selftest"])
def test_a_bitlen_guard_that_would_go_unused_is_a_usage_error(capsys, tmp_path, prod_ac, argv):
    tsv = tmp_path / "f.tsv"
    tsv.write_text("1\t3\n2\t3\n")
    hs = tmp_path / "h.txt"
    hs.write_text("1,1\n1,2\n")
    argv = [arg.format(prod=prod_ac, tsv=tsv, hs=hs) for arg in argv]
    code, out, err = run(capsys, "--bitlen-guard", "1", *argv)
    assert code == EX_USAGE and out == ""
    assert err == f"error: --bitlen-guard does not apply to {argv[0]}\n"
    if argv[0] != "selftest":  # the default value is no guard to refuse
        code, _, _ = run(capsys, "--bitlen-guard", str(DEFAULT_BITLEN_GUARD), *argv)
        assert code == 0


@pytest.mark.parametrize("argv", [
    ["parse", "{prod}"],
    ["coeffs", "{square}", "--d", "2"],
    ["encode", "{prod}", "--nonroot", "1,1", "--q", "2", "--d", "1", "--point", "0,1"],
    ["decode", "{prod}", "--nonroot", "1,1", "--q", "2", "--d", "1", "--code", "1:1:1"],
    ["selftest"],
], ids=["parse", "coeffs", "encode", "decode", "selftest"])
def test_an_exhaustion_cap_that_would_go_unused_is_a_usage_error(
    capsys, tmp_path, prod_ac, argv
):
    square = tmp_path / "square.ac"
    square.write_text("g0 = var x1\ng1 = mul g0 g0\noutput g1\n")
    argv = [arg.format(prod=prod_ac, square=square) for arg in argv]
    code, out, err = run(capsys, "--exhaustion-cap", "1", *argv)
    assert code == EX_USAGE and out == ""
    assert err == f"error: --exhaustion-cap does not apply to {argv[0]}\n"
    if argv[0] != "selftest":  # the default value is no cap to refuse
        code, _, _ = run(capsys, "--exhaustion-cap", str(DEFAULT_EXHAUSTION_CAP), *argv)
        assert code == 0


# pit's --method and avoid's --via and instance format are its modes; these
# never read the cap.
MODES_WITHOUT_CAP = {
    "pit-random": (["pit", "{prod}", "--method", "random", "--seed", "1"],
                   "pit --method random"),
    "pit-hs": (["pit", "{prod}", "--method", "hs", "--hs-file", "{hs}"], "pit --method hs"),
    "avoid-tsv-hitting": (["avoid", "--instance", "{tsv}", "--b", "4", "--seed", "3"],
                          "avoid --via hitting --instance *.tsv"),
}
MODES_WITH_CAP = {
    "pit-cube": ["pit", "{prod}", "--method", "cube"],
    "avoid-tsv-brute": ["avoid", "--instance", "{tsv}", "--b", "4", "--via", "brute"],
    "avoid-bc-hitting": ["avoid", "--instance", "{bc}", "--a", "4", "--b", "8", "--seed", "1"],
    "avoid-bc-brute": ["avoid", "--instance", "{bc}", "--a", "4", "--b", "8", "--via", "brute"],
}


def mode_argv(tmp_path, prod_ac, argv):
    tsv = tmp_path / "f.tsv"
    tsv.write_text("1\t3\n2\t3\n")
    hs = tmp_path / "h.txt"
    hs.write_text("1,1\n1,2\n")
    bc = Path(__file__).parent / "golden" / "stretch.bc"
    return [arg.format(prod=prod_ac, tsv=tsv, hs=hs, bc=bc) for arg in argv]


@pytest.mark.parametrize("argv, where", MODES_WITHOUT_CAP.values(), ids=MODES_WITHOUT_CAP)
def test_an_exhaustion_cap_that_a_mode_would_not_use_is_a_usage_error(
    capsys, tmp_path, prod_ac, argv, where
):
    argv = mode_argv(tmp_path, prod_ac, argv)
    code, out, err = run(capsys, "--exhaustion-cap", "1", *argv)
    assert code == EX_USAGE and out == ""
    assert err == f"error: --exhaustion-cap does not apply to {where}\n"


@pytest.mark.parametrize("argv", [*(a for a, _ in MODES_WITHOUT_CAP.values()),
                                  *MODES_WITH_CAP.values()],
                         ids=[*MODES_WITHOUT_CAP, *MODES_WITH_CAP])
def test_the_default_exhaustion_cap_passes_in_every_mode(capsys, tmp_path, prod_ac, argv):
    argv = mode_argv(tmp_path, prod_ac, argv)
    plain = run(capsys, *argv)
    assert plain[0] in (0, 1) and plain[2] == ""
    assert run(capsys, "--exhaustion-cap", str(DEFAULT_EXHAUSTION_CAP), *argv) == plain


def test_pit_cube_still_applies_the_exhaustion_cap(capsys, prod_ac):
    code, out, err = run(capsys, "--exhaustion-cap", "1", "pit", prod_ac, "--method", "cube")
    assert code == 2 and out == ""
    assert err == "error: cube size 16 exceeds the cap 1\n"


def test_pit_hs_without_q_takes_the_file_s_largest_coordinate(capsys, tmp_path, prod_ac):
    # No hidden bound: q is one more than the largest coordinate, so a
    # coordinate of 2^62 is read, and a negative one is still refused.
    hs = tmp_path / "h.txt"
    hs.write_text("4611686018427387904,1\n")
    pit = ["pit", prod_ac, "--method", "hs", "--hs-file", str(hs)]
    code, out, err = run(capsys, *pit)
    assert code == 1 and out == "NonZero at (4611686018427387904, 1)\n" and err == ""
    hs.write_text("0,0\n3,-1\n")
    code, out, err = run(capsys, *pit)
    assert code == 2 and out == ""
    assert err == "error: coordinate -1 outside S_4\n"
    code, _, err = run(capsys, *pit, "--q", "3")
    assert code == 2 and err == "error: coordinate 3 outside S_3\n"


def test_hs_search_on_all_circuits_is_byte_identical(capsys):
    # The decoder class at m = 10: drawing points lazily, in batches, moves
    # no point of H and no member's witness, so the report stays as pinned.
    code, out, err = run(
        capsys, "--json", "hs-search", "--class", "builtin:all", "--n", "2", "--d", "2",
        "--s", "400", "--m", "10", "--q", "8", "--r", "19", "--seed", "7",
    )
    assert code == 0 and err == ""
    assert out == (
        '{"command": "hs-search", "points": [[4, 1], [5, 0], [6, 2], [6, 0], [7, 6], '
        '[1, 5], [7, 2], [5, 0], [4, 3], [0, 3], [6, 1], [2, 7], [4, 2], [2, 5], [4, 1], '
        '[6, 0], [4, 3], [1, 5], [2, 6]], "r": 19, "schema": 1, "size": 14}\n'
    )


def test_avoid_offers_no_schedule_choice(capsys, tmp_path):
    # The pipeline always runs desk_schedule; the asymptotic one fails at
    # every m the class cap admits, so it is no option.
    path = tmp_path / "f.tsv"
    path.write_text("1\t3\n2\t3\n")
    code, out, err = run(capsys, "avoid", "--instance", str(path), "--b", "4", "--seed", "3",
                         "--schedule", "paper")
    assert code == EX_USAGE and out == ""
    assert "unrecognized arguments: --schedule paper" in err


def test_avoid_bool_circuit_tabulates_under_the_exhaustion_cap(capsys):
    # Both routes tabulate a = 4 rows, so a cap of 2 refuses both.
    stretch = str(Path(__file__).parent / "golden" / "stretch.bc")
    instance = ["avoid", "--instance", stretch, "--a", "4", "--b", "8"]
    for via in (["--seed", "1"], ["--via", "brute"]):
        code, out, err = run(capsys, "--exhaustion-cap", "2", *instance, *via)
        assert code == EX_DATAERR and out == ""
        assert err == "error: a=4 exceeds the cap 2\n"
        code, _, _ = run(capsys, "--exhaustion-cap", "4", *instance, *via)
        assert code == 0


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


def test_reader_errors_name_the_line_and_exit_65(capsys, tmp_path):
    tsv = tmp_path / "f.tsv"
    tsv.write_text("1\t3\n2\tx\n")
    hs = tmp_path / "h.txt"
    hs.write_text("1,a\n")
    avoid = ["avoid", "--instance", str(tsv), "--b", "4", "--via", "brute"]
    verify = ["hs-verify", "--class", "builtin:linear", "--n", "2", "--d", "1", "--q", "4", str(hs)]
    for argv, line in ((avoid, 2), (verify, 1)):
        code, _, err = run(capsys, *argv)
        assert code == EX_DATAERR and err.startswith(f"error: line {line}: want ")


def test_a_lone_cr_in_a_file_is_refused_as_parse_circuit_refuses_it(capsys, tmp_path):
    # Files are read byte-exact: a CR is no line end, so the two statements
    # share line 1.
    path = tmp_path / "cr.ac"
    path.write_bytes(b"g0 = var x1\routput g0\n")
    code, out, err = run(capsys, "parse", str(path))
    assert code == EX_DATAERR and out == ""
    assert err == "error: line 1, col 12: cannot parse statement 'g0 = var x1\\routput g0'\n"


@pytest.mark.parametrize("name, text, argv", [
    ("f.ac", PRODUCT, ["parse", "{}"]),
    ("f.tsv", "1\t3\n2\t3\n", ["--json", "avoid", "--instance", "{}", "--b", "4", "--seed", "3"]),
    ("h.txt", "1,2\n0,3\n", ["pit", "PROD", "--method", "hs", "--hs-file", "{}"]),
])
def test_crlf_files_give_the_output_of_lf_files(capsys, tmp_path, prod_ac, name, text, argv):
    # A CR before the newline is stripped with the line's other whitespace.
    reports = []
    for end in (b"\n", b"\r\n"):
        path = tmp_path / name
        path.write_bytes(text.encode().replace(b"\n", end))
        reports.append(run(capsys, *(
            str(path) if a == "{}" else prod_ac if a == "PROD" else a for a in argv
        )))
    assert reports[0] == reports[1] and reports[0][0] in (0, 1) and reports[0][1]


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


def test_python_dash_m_szpit_runs_the_cli():
    # "python -m szpit" runs the same main as the szpit script.
    src = str(Path(szpit.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "szpit", "selftest"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("selftest: OK\n")


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


def test_plugin_class_with_tuple_params_exits_65(capsys, tmp_path, monkeypatch):
    # A template class's params_of must give packed bits as an int.
    plugin = tmp_path / "tupleclasses.py"
    plugin.write_text(
        "from szpit.classes import linear_class\n"
        "def factory(n, d, s, m):\n"
        "    cls = linear_class(n)\n"
        "    cls.params_of = lambda x: (x & 1, x >> 1)\n"
        "    return cls\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    code, _, err = run(
        capsys, "hs-search", "--class", "plugin:tupleclasses:factory", "--n", "2",
        "--d", "1", "--q", "8", "--r", "13", "--seed", "7",
    )
    assert code == EX_DATAERR
    assert err.startswith("error: params_of(0) gave (0, 0)")


def test_internal_guard_exit_code(capsys, tmp_path):
    # Repeated squaring overflows a small --bitlen-guard: exit 70.
    path = tmp_path / "blow.ac"
    gates = ["g0 = const 3"] + [f"g{i} = mul g{i-1} g{i-1}" for i in range(1, 25)]
    path.write_text("\n".join(gates) + "\noutput g24\n")
    code, _, err = run(capsys, "--bitlen-guard", "1024", "eval", str(path))
    assert code == 70
    assert "guard" in err


def test_exhaustion_cap_reaches_the_degree_pass(capsys, tmp_path):
    # x_{k+1} = x_k + y_k, a fresh variable y_k, with a side gate x_k * x_k:
    # over 100 links the degree pass copies or merges about 15k dict entries.
    def chain(name, leaf):
        lines = ["g0 = var x1"]
        x = 0
        for k in range(100):
            i = len(lines)
            lines += [f"g{i} = mul g{x} g{x}", f"g{i + 1} = {leaf(k)}", f"g{i + 2} = add g{x} g{i + 1}"]
            x = i + 2
        path = tmp_path / name
        path.write_text("\n".join(lines) + f"\noutput g{x}\n")
        return str(path)

    path = chain("vars.ac", lambda k: f"var x{k + 2}")
    values = ",".join(map(str, [2, *range(1, 101)]))  # x1 = 2, y_k = k + 1
    for argv in (["degrees", path], ["eval", path, "--vars", values]):
        code, _, err = run(capsys, "--exhaustion-cap", "1000", *argv)
        assert code == EX_DATAERR
        assert "degree analysis exceeds the cap of 1000 dict entries" in err
    code, out, _ = run(capsys, "degrees", path)
    assert code == 0 and out.startswith("total=1 max_individual=1 x1=1 x10=1 ")
    code, out, _ = run(capsys, "eval", path, "--vars", values)
    assert code == 0 and out.strip() == str(2 + 100 * 101 // 2)
    # With a single-use const y_k = k + 1 instead, eval's pass keys no
    # const and stays under the cap; degrees still prints ``individual``,
    # whose reference pass keys every const and is refused.
    path = chain("consts.ac", lambda k: f"const {k + 1}")
    code, _, err = run(capsys, "--exhaustion-cap", "1000", "degrees", path)
    assert code == EX_DATAERR
    assert "degree analysis exceeds the cap of 1000 dict entries" in err
    code, out, _ = run(capsys, "degrees", path)
    assert code == 0 and out.startswith("total=1 max_individual=1 ")
    code, out, _ = run(capsys, "--exhaustion-cap", "1000", "eval", path, "--vars", "2")
    assert code == 0 and out.strip() == str(2 + 100 * 101 // 2)


def test_coeffs_guard_exit_code(capsys, tmp_path):
    # Squarings of a const outside the output's cone have x-degree 0, so
    # only the bit-length guard stops them: exit 70.
    path = tmp_path / "blow.ac"
    gates = ["g0 = var x1", "g1 = const 3"] + [f"g{i} = mul g{i-1} g{i-1}" for i in range(2, 25)]
    path.write_text("\n".join(gates + ["g25 = const 2", "g26 = mul g0 g25"]) + "\noutput g26\n")
    code, _, err = run(capsys, "--bitlen-guard", "1024", "coeffs", str(path), "--d", "1")
    assert code == 70
    assert "gate 11: value exceeds 1024-bit guard" in err


def test_codec_commands_pass_the_guard(capsys, tmp_path):
    # Decoding restricts (x1 - 1)^20 + x2 to x2 = 1, whose extraction
    # passes a 16-bit guard at gate 21: exit 70, as the guard is ours.
    path = tmp_path / "power.ac"
    path.write_text(serialize_circuit(shifted_power_plus_x2(20)))
    decode = ["decode", str(path), "--nonroot", "1,1", "--q", "80", "--d", "20",
              "--code", "1:1:0"]
    code, _, err = run(capsys, "--bitlen-guard", "16", *decode)
    assert code == 70
    assert "gate 21: value exceeds 16-bit guard" in err
    code, out, _ = run(capsys, *decode)
    assert code == 0 and out.strip() == "0,0"
    # x^20 + 1 at u < 80 passes 64 bits.
    roots = ["roots", "--q", "80", ",".join(["1"] + ["0"] * 19 + ["1"])]
    code, _, err = run(capsys, "--bitlen-guard", "64", *roots)
    assert code == 70
    assert "value exceeds 64-bit guard" in err
    code, out, _ = run(capsys, *roots)
    assert code == 0 and out.strip() == ",".join(["80"] * 20)


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
    # A plugin spec naming no module, no factory, or an empty factory; a
    # factory that cannot take (n, d, s, m) or returns no class.
    (HS_SEARCH + ["plugin:no_such_module:f"], None, EX_DATAERR),
    (HS_SEARCH + ["plugin:json:nosuch"], None, EX_DATAERR),
    (HS_SEARCH + ["plugin:json"], None, EX_DATAERR),
    (HS_SEARCH + ["plugin:json:dumps"], None, EX_DATAERR),
    (HS_SEARCH + ["plugin:builtins:max"], None, EX_DATAERR),
    # A builtin class with no variables.
    (["hs-search", "--class", "builtin:linear", "--n", "0", "--d", "1", "--q", "4",
      "--r", "3", "--seed", "1"], None, EX_DATAERR),
], ids=["pit-guard", "stage-assertion", "stage-other", "missing-file", "value-error",
        "plugin-no-module", "plugin-no-factory", "plugin-empty-factory",
        "plugin-bad-signature", "plugin-not-a-class", "linear-n0"])
def test_error_exit_codes(capsys, tmp_path, monkeypatch, prod_ac, argv, patch, code):
    tsv = tmp_path / "f.tsv"
    tsv.write_text("1\t3\n2\t3\n")
    paths = {"prod": prod_ac, "tsv": str(tsv), "missing": str(tmp_path / "missing.ac")}
    if patch is not None:
        monkeypatch.setattr(f"szpit.cli.{patch[0]}", _raises(patch[1]))
    got, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert got == code
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, code, message", [
    (["pit", "{prod}", "--method", "hs"], 2, "--hs-file is required for --method hs"),
    (["avoid", "--instance", "{bc}", "--b", "8"], EX_DATAERR,
     "--a and --b are required for circuit instances"),
    (["avoid", "--instance", "{tsv}", "--b", "4"], EX_DATAERR,
     "--seed is required for --via hitting"),
    (HS_SEARCH + ["plugin:no_such_module:f"], EX_DATAERR,
     "cannot load class 'plugin:no_such_module:f': No module named 'no_such_module'"),
], ids=["pit-hs-without-file", "bc-without-a", "hitting-without-seed", "plugin-unloadable"])
def test_missing_inputs_are_named_on_stderr(capsys, tmp_path, prod_ac, argv, code, message):
    bc = tmp_path / "f.bc"
    bc.write_text("g0 = var x1\ng1 = var x2\noutput g0 g1\n")
    tsv = tmp_path / "f.tsv"
    tsv.write_text("1\t3\n2\t3\n")
    paths = {"prod": prod_ac, "bc": str(bc), "tsv": str(tsv)}
    got, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (got, out, err) == (code, "", f"error: {message}\n")


def each_option(prefix, values, tail=()):
    """One argv per option of ``values``, with that option's value "{v}"."""
    return [([*prefix, *chain.from_iterable((o, "{v}" if o == k else v) for o, v in values.items()),
              *tail], values[k]) for k in values]


# Every type=int option, by family, each in a run that reads it, with a
# value it accepts: the value stands as "{v}", and "{ac}", "{uni}",
# "{tsv}", "{bc}", "{hs}" and "{hs1}" are input files.
INT_OPTIONS = {
    "global": [(["--exhaustion-cap", "{v}", "degrees", "{ac}"], "4096"),
               (["--bitlen-guard", "{v}", "eval", "{ac}", "--vars", "3,5"], "64")],
    "eval": each_option(["eval", "{ac}", "--vars", "3,5"], {"--degree-bound": "2"}),
    "coeffs": each_option(["coeffs", "{uni}"], {"--d": "3"}),
    "roots": each_option(["roots"], {"--q": "3"}, tail=["--", "-1,0,1"]),
    "codec": each_option(["encode", "{uni}", "--nonroot", "0", "--point", "1"], {"--q": "4", "--d": "2"})
    + each_option(["decode", "{uni}", "--nonroot", "0", "--code", "1:1:"], {"--q": "4", "--d": "2"}),
    "pit": each_option(["pit", "{ac}", "--method", "random"], {"--trials": "5", "--seed": "-1"})
    + each_option(["pit", "{ac}", "--method", "hs", "--hs-file", "{hs}"], {"--q": "4"}),
    "hs-search": each_option(["hs-search", "--class", "builtin:monomial"], {
        "--n": "1", "--d": "1", "--s": "0", "--m": "0", "--q": "2", "--seed": "3", "--r": "4",
        "--budget": "8"}),
    "hs-verify": each_option(["hs-verify", "--class", "builtin:monomial", "{hs1}"], {
        "--n": "1", "--d": "1", "--s": "0", "--m": "0", "--q": "2", "--seed": "3", "--budget": "8"}),
    "avoid": each_option(["avoid", "--instance", "{bc}", "--via", "brute"], {"--a": "2", "--b": "4"})
    + each_option(["avoid", "--instance", "{tsv}"], {"--seed": "3"}),
}


@pytest.mark.parametrize("family", INT_OPTIONS)
def test_int_options_read_ascii_integers_only(capsys, tmp_path, family):
    # A value reads as int() reads it, signs and surrounding spaces included;
    # another script's digits, or a "_" separator, are refused as "three"
    # is: a usage error naming the option.
    files = {"ac": PRODUCT, "uni": "g0 = var x1\ng1 = mul g0 g0\noutput g1\n",
             "tsv": "1\t3\n2\t3\n", "bc": "g0 = var x1\noutput g0 g0\n", "hs": "1,1\n", "hs1": "1\n"}
    paths = {name: tmp_path / f"{name}.txt" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    paths["bc"] = paths["bc"].rename(tmp_path / "f.bc")
    for argv, value in INT_OPTIONS[family]:
        option = argv[argv.index("{v}") - 1]

        def fill(v, argv=argv):
            return [a.format(v=v, **paths) for a in argv]

        code, out, err = run(capsys, *fill(value))
        assert code != EX_USAGE, (argv, err)
        signed = value if value[0] == "-" else "+" + value
        assert run(capsys, *fill(f" {signed} ")) == (code, out, err)
        for bad in (*(in_script(value, script) for script in SCRIPTS.values()), "1_0"):
            code, out, err = run(capsys, *fill(bad))
            assert (code, out) == (EX_USAGE, "")
            assert err.splitlines()[-1].endswith(f"error: argument {option}: invalid int value: {bad!r}")
