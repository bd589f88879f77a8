import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffcheb.cli import main

QUAD_T = """kind = kummer
p = 5
k = 1
d = 2
D = [0,1]
"""

GEN1 = """kind = kummer
p = 5
k = 1
d = 2
D = [0,2,2,1]
"""


# Y^3 - T*Y - T over F_13: a splitting cover with group S_3
S3_CUBIC = """kind = splitting
p = 13
y_degree = 3
F.0 = -T
F.1 = -T
F.2 = 0
F.3 = 1
generator.1 = (1 2)
generator.2 = (1 2 3)
cycle_type.1+1+1 = 0
cycle_type.2+1 = 1
cycle_type.3 = 2
genus = 0
tame_at_infinity = false
"""


# y^2 = T^2 - T times y^3 - y = 1/T over F_3: components of orders 2 and 3
# share the ramified prime T
KUMMER_X_AS = """kind = product
p = 3
components = 2
component.1.kind = kummer
component.1.d = 2
component.1.D = [0,2,1]
component.2.kind = artin_schreier
component.2.D_num = [1]
component.2.D_den = [0,1]
"""

# y^2 = T times y^2 = T^2 - T over F_5: two components of order 2 ramify at T
SHARED_T = """kind = product
p = 5
components = 2
component.1.kind = kummer
component.1.d = 2
component.1.D = [0,1]
component.2.kind = kummer
component.2.d = 2
component.2.D = [0,4,1]
"""


@pytest.fixture()
def quad_file(tmp_path):
    f = tmp_path / "quad.cov"
    f.write_text(QUAD_T)
    return str(f)


@pytest.fixture()
def cover_files(tmp_path, quad_file):
    """Placeholders in the error tables and the cover files they stand for."""
    files = {"{cover}": quad_file}
    for key, text in (("{s3}", S3_CUBIC), ("{kxas}", KUMMER_X_AS), ("{shared_t}", SHARED_T)):
        f = tmp_path / (key.strip("{}") + ".cov")
        f.write_text(text)
        files[key] = str(f)
    return files


@pytest.fixture()
def gen1_file(tmp_path):
    f = tmp_path / "gen1.cov"
    f.write_text(GEN1)
    return str(f)


def test_factor_command(capsys):
    assert main(["factor", "--q", "5", "T^2+1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(2 + T)(3 + T)"


def test_factor_bad_q(capsys):
    assert main(["factor", "--q", "6", "T^2+1"]) == 2
    assert "prime power" in capsys.readouterr().err


@pytest.mark.parametrize(
    "q, code, name",
    [("1", 2, "DomainError"), ("0", 2, "DomainError"), ("1000000007", 3, "DegreeTooLarge")],
)
def test_factor_q_out_of_range(capsys, q, code, name):
    # a large prime q is rejected by the field bound, without trial division up to q
    assert main(["factor", "--q", q, "T+1"]) == code
    assert capsys.readouterr().err.startswith(f"{name}:")


def test_frobenius_command(capsys, quad_file):
    assert main(["frobenius", "--cover", quad_file, "T-2"]) == 0
    assert capsys.readouterr().out.strip() == "class 1 (nontrivial)"


def test_frobenius_ramified_exit_2(capsys, quad_file):
    assert main(["frobenius", "--cover", quad_file, "T"]) == 2
    assert "RamifiedPrime" in capsys.readouterr().err


def test_frobenius_non_prime_exit_2_under_optimize(quad_file):
    # T^2 + 2T = T(T + 2) is reducible; the check must not rest on assert
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ffcheb.cli", "frobenius", "--cover", quad_file, "T^2+2*T"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "NotIrreducible" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "text, key",
    [
        ("kind = kummer\np = 5\nD = [0,1]\n", "'d'"),
        ("kind = kummer\np = 5\nd = x\nD = [0,1]\n", "d = 'x'"),
        ("p = 5\nd = 2\nD = [0,1]\n", "'kind'"),
        ("kind = kummer\np = five\nd = 2\nD = [0,1]\n", "p = 'five'"),
        ("kind = kummer\np = 5\nd = 2\nD = [0,2,2\n", "D = '[0,2,2'"),
        ("kind = product\np = 5\ncomponents = 1\n", "'component.1.kind'"),
        ("kind = splitting\np = 5\ny_degree = 2\nF.0 = [1]\n", "'F.1'"),
        (
            "kind = splitting\np = 5\ny_degree = 2\nF.0 = [1]\nF.1 = [0]\nF.2 = [1]\n"
            "generator.1 = (1 2)\ncycle_type.1+x = 0\n",
            "'cycle_type.1+x'",
        ),
    ],
)
def test_malformed_cover_file_exit_2(tmp_path, capsys, text, key):
    f = tmp_path / "bad.cov"
    f.write_text(text)
    assert main(["frobenius", "--cover", str(f), "T-2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CoverFileError:")
    assert key in err


def test_lambda_command(capsys, quad_file):
    assert main(["lambda", "--cover", quad_file, "T^2"]) == 0
    assert capsys.readouterr().out.strip() == "1:2:2=1"


@pytest.mark.parametrize(
    "argv",
    [["frobenius", "T^2+2*T+3"], ["lambda", "T^2"], ["lambda", "--seed", "3", "T^3+T"]],
)
def test_out_file_holds_stdout_bytes(tmp_path, capsys, quad_file, argv):
    cmd, rest = argv[0], argv[1:]
    assert main([cmd, "--cover", quad_file, *rest]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main([cmd, "--cover", quad_file, "--out", str(out), *rest]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed


@pytest.mark.parametrize(
    "argv",
    [
        ["psi-check", "--threads", "2"],
        ["psi-check", "--seed", "1"],
        ["frobenius", "--threads", "2", "T-2"],
        ["frobenius", "--seed", "1", "T-2"],
        ["lambda", "--threads", "2", "T^2"],
        ["zeta", "--threads", "2"],
    ],
)
def test_flags_a_command_does_not_read_exit_1(quad_file, argv):
    with pytest.raises(SystemExit) as e:
        main([argv[0], "--cover", quad_file, *argv[1:]])
    assert e.value.code == 1


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobenius"])  # missing --cover
    assert e.value.code == 1


def test_unknown_command_exit_1():
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 1


def test_wreath_mean_examples(capsys):
    assert main(["wreath-mean", "--group", "cyclic:2", "--n", "3", "--fn", "1C:1"]) == 0
    assert capsys.readouterr().out.strip() == "1/6"
    assert main(["wreath-mean", "--group", "cyclic:2", "--n", "2", "--fn", "B", "--brute"]) == 0
    assert capsys.readouterr().out.strip() == "3/8"


def test_wreath_mean_class_type_csv(capsys, tmp_path):
    csvf = tmp_path / "types.csv"
    assert main(
        ["wreath-mean", "--group", "cyclic:2", "--n", "2", "--fn", "B", "--csv", str(csvf)]
    ) == 0
    lines = csvf.read_text().strip().splitlines()
    assert lines[0] == "class_type,size,fn_value"
    assert len(lines) == 6  # header + the five class types of Z/2 wr S_2


def test_wreath_mean_too_large_exit_3(capsys):
    assert main(["wreath-mean", "--group", "cyclic:12", "--n", "8", "--fn", "R", "--brute"]) == 3


def test_interval_mean_reruns_byte_identical(gen1_file, tmp_path):
    out1, out2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    argv = [
        "interval-mean", "--cover", gen1_file, "--f0", "T^4", "--m", "2",
        "--fns", "B,R", "--seed", "7", "--threads", "1",
    ]
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2]) == 0
    b1 = Path(out1).read_bytes()
    assert b1 == Path(out2).read_bytes()
    assert b"empirical_mean" in b1


def test_census_csv(gen1_file, tmp_path, capsys):
    csvf = tmp_path / "census.csv"
    assert main(
        ["census", "--cover", gen1_file, "--f0", "T^4", "--m", "2", "--csv", str(csvf), "--threads", "1"]
    ) == 0
    lines = csvf.read_text().strip().splitlines()
    assert lines[0] == "lambda,count,empirical,predicted"
    assert lines[-1].startswith("nonsquarefree,")


def test_cheb_grid_csv_rows(tmp_path, capsys):
    csvf = tmp_path / "grid.csv"
    assert main(
        [
            "cheb-grid", "--d", "2", "--D", "T^3-3*T^2+2*T", "--qs", "5,9",
            "--f0", "T^4", "--m", "2", "--fns", "1C:0,1C:1,B,R",
            "--csv", str(csvf), "--threads", "1",
        ]
    ) == 0
    lines = csvf.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 4  # header + 4 functions per q
    assert lines[0].startswith("q,fn,")


def test_norms_check(gen1_file, capsys):
    assert main(["norms-check", "--cover", gen1_file, "--n", "4", "--m", "2", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "command = norms-check" in out
    assert out.count("fn = ") == 2


def test_zeta_command(gen1_file, capsys):
    assert main(["zeta", "--cover", gen1_file]) == 0
    out = capsys.readouterr().out
    assert "ptilde = [1,2,5]" in out
    assert "ptilde_at_1_over_q = 8/5" in out


def test_zeta_command_genus1_artin_schreier_f9(tmp_path, capsys):
    # y^3 - y = ((1,1) + (0,1)T)/T^2 over F_9: ptilde comes from the prime
    # tallies, so this ends in about a second instead of enumerating monics
    f = tmp_path / "as9.cov"
    f.write_text("kind = artin_schreier\np = 3\nk = 2\nD_num = [(1,1),(0,1)]\nD_den = [0,0,1]\n")
    assert main(["zeta", "--cover", str(f)]) == 0
    out = capsys.readouterr().out
    assert "curve_numerator = [1,3,9]\n" in out
    assert "rh_root_moduli_times_q = [1.000000000,1.000000000]\n" in out


def test_zeta_and_psi_check_genus6_artin_schreier_f49(tmp_path, capsys):
    # y^7 - y = 1/(T(T-1)) over F_49 has genus 6; its tallies sweep only the
    # monics below the conductor degree 4, not the primes to degree 2g + 2
    f = tmp_path / "genus6.cov"
    f.write_text("kind = artin_schreier\np = 7\nk = 2\nD_num = [1]\nD_den = [0,-1,1]\n")
    assert main(["zeta", "--cover", str(f)]) == 0
    assert "cover.genus = 6\n" in capsys.readouterr().out
    assert main(["psi-check", "--cover", str(f), "--max-n", "4"]) == 0
    assert "all_within_bound = true\n" in capsys.readouterr().out


def test_psi_check_command(gen1_file, capsys):
    assert main(["psi-check", "--cover", gen1_file, "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    assert "all_within_bound = true" in out


def test_force_wild_negative_control(tmp_path, capsys):
    f = tmp_path / "wild.cov"
    f.write_text("kind = artin_schreier\np = 2\nk = 1\nD_num = [0,1]\nD_den = [1]\n")
    # without the override the cover is rejected
    assert main(["frobenius", "--cover", str(f), "T^2+T+1"]) == 2
    assert "WildAtInfinity" in capsys.readouterr().err
    # with the override the run completes and the report is flagged
    assert main(
        ["interval-mean", "--cover", str(f), "--force-wild", "--f0", "T^5", "--m", "3",
         "--fns", "1C:0", "--threads", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "regime.wild_override = true" in out
    assert "regime.tame_at_infinity = false" in out


POLY_ROWS = [
    (["factor", "--q", "5", "T^^2"], 2, "PolyParseError"),
    (["factor", "--q", "5", "(T+1)^2"], 2, "PolyParseError"),
    (["factor", "--q", "5", "T^-1"], 2, "PolyParseError"),
    (["factor", "--q", "5", "T*T"], 2, "PolyParseError"),
    (["factor", "--q", "5", "T^2+"], 2, "PolyParseError"),
    (["factor", "--q", "5", "x^2"], 2, "PolyParseError"),
    (["factor", "--q", "5", ""], 2, "PolyParseError"),
    (["factor", "--q", "5", "[1,2"], 2, "PolyParseError"),
    (["factor", "--q", "5", "[1,,2]"], 2, "PolyParseError"),
    (["factor", "--q", "9", "(1,2,0)*T"], 2, "PolyParseError"),
    (["factor", "--q", "5", "T^2+1"], 0, None),
    (["factor", "--q", "9", "(1,2)*T^2-1"], 0, None),
    (["factor", "--q", "9", "T^2+-(1,-1)"], 0, None),
]


def _wreath(group="cyclic:2", fn="B", n="2", *route):
    return ["wreath-mean", "--group", group, "--n", n, "--fn", fn, *route]


def _imean(fns):
    return ["interval-mean", "--cover", "{cover}", "--f0", "T^2", "--m", "1", "--fns", fns]


# malformed function, group, degree, q-list and cover-file values; "{cover}"
# stands for a valid cover file, "{s3}" for the S_3 cover file and "{kxas}",
# "{shared_t}" for the two product files above
VALUE_ROWS = [
    (_imean("1C:x"), 2, "DomainError"),
    (_imean("B,delta:1:1"), 2, "DomainError"),
    (_wreath(fn="rpow:x"), 2, "DomainError"),
    (_wreath(fn="rpow:-1"), 2, "DomainError"),
    (_wreath(fn="delta:1:1:1=x"), 2, "DomainError"),
    (_wreath(fn="delta:1:1:1=1"), 0, None),
    (_wreath(group="cyclic:x"), 2, "DomainError"),
    (_wreath(group="cyclic:0"), 2, "DomainError"),
    (_wreath(group="cyclic:-2"), 2, "DomainError"),
    (_wreath(group="cyclic:2,3"), 2, "DomainError"),
    (_wreath(group="sym:0"), 2, "DomainError"),
    (_wreath(group="product:2,x"), 2, "DomainError"),
    (_wreath(group="product:"), 2, "DomainError"),
    (_wreath(group="dihedral:4"), 2, "DomainError"),
    (_wreath(group="product:2,3"), 0, None),
    (["cheb-grid", "--d", "2", "--D", "T", "--qs", "5,x", "--f0", "T^2", "--m", "1",
      "--fns", "B"], 2, "DomainError"),
    (["frobenius", "--cover", os.devnull + "/none.cov", "T"], 2, "CoverFileError"),
    # new rows go last: a row's test id is its index
    (_wreath("cyclic:2", "1C:0", "0", "--closed"), 2, "DomainError"),
    (_wreath("cyclic:2", "B", "-1", "--closed"), 2, "DomainError"),
    (_wreath("cyclic:2", "B", "-2", "--brute"), 2, "DomainError"),
    (_wreath("cyclic:2", "B", "0"), 2, "DomainError"),
    (_wreath("cyclic:2", "1C:5", "1", "--closed"), 2, "NotAConjugacyClass"),
    (_wreath(group="sym:30"), 3, "TooLarge"),
    (_wreath(group="sym:5"), 3, "TooLarge"),
    (_wreath(group="product:5,5"), 3, "TooLarge"),
    (_wreath(group="dihedral:30"), 2, "DomainError"),
    (_wreath(group="sym:4"), 0, None),
    (["psi-check", "--cover", "{s3}", "--max-n", "2"], 2, "NotAbelian"),
    (["zeta", "--cover", "{s3}"], 2, "NotAbelian"),
    (["psi-check", "--cover", "{kxas}", "--max-n", "3"], 0, None),
    (["frobenius", "--cover", "{shared_t}", "T-2"], 2, "NotComponentwise"),
]


@pytest.mark.parametrize("argv, code, name", POLY_ROWS)
def test_polynomial_strings_exit_codes(capsys, argv, code, name):
    assert main(argv) == code
    err = capsys.readouterr().err
    if name is None:
        assert err == ""
    else:
        assert err.startswith(f"{name}:")


@pytest.mark.parametrize("argv, code, name", VALUE_ROWS)
def test_malformed_values_exit_codes(capsys, cover_files, argv, code, name):
    argv = [cover_files.get(a, a) for a in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    if name is None:
        assert err == ""
    else:
        assert err.startswith(f"{name}:")


_RUN_TABLE = """
import contextlib, io, json, sys
from ffcheb.cli import main
rows = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    rows.append([code, err.getvalue().partition(":")[0] or None])
print(json.dumps({"optimize": sys.flags.optimize, "rows": rows}))
"""


def test_error_table_under_optimize(cover_files):
    # the same exit codes and error names with asserts stripped
    table = POLY_ROWS + VALUE_ROWS
    argvs = [[cover_files.get(a, a) for a in argv] for argv, _, _ in table]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _RUN_TABLE, json.dumps(argvs)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["optimize"] == 1
    assert got["rows"] == [[code, name] for _, code, name in table]


def test_malformed_cover_polynomial_is_cover_file_error(tmp_path, capsys):
    f = tmp_path / "bad.cov"
    f.write_text("kind = kummer\np = 5\nd = 2\nD = (T+1)^2\n")
    assert main(["frobenius", "--cover", str(f), "T-2"]) == 2
    assert capsys.readouterr().err.startswith("CoverFileError:")


def test_undecodable_cover_file_is_cover_file_error(tmp_path, capsys):
    f = tmp_path / "binary.cov"
    f.write_bytes(b"kind = kummer\n\xff\xfe\n")
    assert main(["frobenius", "--cover", str(f), "T-2"]) == 2
    assert capsys.readouterr().err.startswith("CoverFileError:")


def test_default_report_names_one_thread(gen1_file, capsys):
    # reports depend on the inputs only: the default does not read the host
    assert main(["interval-mean", "--cover", gen1_file, "--f0", "T^3", "--m", "1", "--fns", "B"]) == 0
    assert "threads = 1\n" in capsys.readouterr().out
