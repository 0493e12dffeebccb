"""Every refusal the CLI can reach, with its exit code, its exact message and no report.

Each row runs one command in process. A refusal prints nothing on stdout and
one line on stderr: exit 2 for a precondition ("error: ...") and exit 3 for a
malformed expression ("parse error at position ...").
"""

import contextlib
import io

import pytest

from normlds import cli

QUADRATIC = ["construct-basis", "--method", "quadratic"]
PELL = ["--field", "x^2-3", "--unit", "2+t"]
QUARTIC = ["--field", "x^4-10x^2+1", "--unit", "t"]
EMIT = ["emit-sequence", "--field", "x^2-3", "--unit"]

# argv, exit code, stderr
REFUSALS = [
    # quad_construct, in the order it tests its input
    ([*QUADRATIC, *QUARTIC], 2, "error: construction requires a quadratic field\n"),
    ([*QUADRATIC, "--field", "x^2+3", "--unit", "t"], 2,
     "error: construction requires a real quadratic field\n"),
    ([*QUADRATIC, "--field", "x^2-3", "--unit", "1+t"], 2, "error: eps must have norm 1\n"),
    # a rational unit has the norm of its square
    ([*QUADRATIC, "--field", "x^2-3", "--unit", "2"], 2, "error: eps must have norm 1\n"),
    ([*QUADRATIC, "--field", "x^2-3", "--unit", "1"], 2, "error: eps is torsion (rational)\n"),
    ([*QUADRATIC, "--field", "x^2-3", "--unit=-1"], 2, "error: eps is torsion (rational)\n"),
    ([*QUADRATIC, *PELL, "--beta", "0"], 2, "error: beta must be nonzero\n"),
    ([*QUADRATIC, *PELL, "--beta", "1/2"], 2,
     "error: beta does not lie in the module (fractional coordinates)\n"),
    ([*QUADRATIC, *PELL, "--module-basis", "1;2t"], 2,
     "error: eps does not multiply the module into itself\n"),
    # the quartic constructions and the Smith check
    (["construct-basis", "--method", "quartic-full", *QUARTIC, "--beta", "0"], 2,
     "error: coordinate matrix is singular\n"),
    (["construct-basis", "--method", "quartic-power", *QUARTIC, "--beta", "0"], 2,
     "error: beta must be nonzero\n"),
    (["snf-check", *QUARTIC, "--beta", "0"], 2, "error: coordinate matrix is singular\n"),
    (["construct-basis", "--method", "quartic-full", *QUARTIC, "--module-basis", "1;2t;t^2;t^3"],
     2, "error: a power beta*eta^i does not lie in the module (fractional coordinates)\n"),
    # a polynomial whose every coefficient cancels has no degree 2, 3 or 4
    (["emit-sequence", "--field", "x-x", "--unit", "t"], 2,
     "error: defining polynomial must have degree 2, 3 or 4\n"),
    (["emit-sequence", "--field", "0", "--unit", "t"], 2,
     "error: defining polynomial must have degree 2, 3 or 4\n"),
    # the sequence commands
    ([*EMIT, "1/2+t"], 2, "error: eps must be an algebraic integer\n"),
    ([*EMIT, "2+t", "--kmax", "-1"], 2, "error: kmax must be nonnegative\n"),
    # dk-scan
    (["dk-scan", "--field", "x^4-10x^2+1", "--alpha", "t", "--vanishing-t", "3"], 2,
     "error: t must be a positive divisor of the degree\n"),
    (["dk-scan", "--field", "x^4-10x^2+1", "--alpha", "t", "--vanishing-t", "4"], 2,
     "error: coefficient pattern violated: s_2 = 10 is nonzero\n"),
    (["dk-scan", "--field", "x^2-3", "--alpha", "2+t", "--module-basis", "t;1"], 2,
     "error: ring basis must start with 1\n"),
    # the family
    (["construct-basis", "--method", "family"], 2,
     "error: --m is required for the family method\n"),
    (["family-scan", "--m-range", "2..x"], 3, "parse error at position 0: bad m range '2..x'\n"),
    # its bounds are ASCII -?[0-9]+, as the expression parser reads an integer
    (["family-scan", "--m-range", "٢..٣"], 3, "parse error at position 0: bad m range '٢..٣'\n"),
    (["family-scan", "--m-range", "1_0..1_1"], 3,
     "parse error at position 0: bad m range '1_0..1_1'\n"),
    (["family-scan", "--m-range", "+2..3"], 3, "parse error at position 0: bad m range '+2..3'\n"),
    (["family-scan", "--m-range", "2.. 3"], 3, "parse error at position 0: bad m range '2.. 3'\n"),
    (["family-scan", "--m-range=-2..1"], 2,
     "error: m range -2..1 starts below 2, where the family begins\n"),
    # the expression parser, each message at least once
    ([*EMIT, "2++t"], 3, "parse error at position 2: consecutive signs\n"),
    # a leading double sign is refused too, not read as its last sign
    (["emit-sequence", "--field", "x^2-3", "--unit=--2-t"], 3,
     "parse error at position 1: consecutive signs\n"),
    (["emit-sequence", "--field", "x^2-3", "--unit=-+2-t"], 3,
     "parse error at position 1: consecutive signs\n"),
    ([*EMIT, "2+"], 3, "parse error at position 1: dangling sign\n"),
    ([*EMIT, "2/0"], 3, "parse error at position 1: expected nonzero integer denominator\n"),
    ([*EMIT, "2*3"], 3, "parse error at position 1: expected 't' after '*'\n"),
    ([*EMIT, "2+t^"], 3, "parse error at position 3: expected integer exponent\n"),
    ([*EMIT, ""], 3, "parse error at position 0: empty expression\n"),
    ([*EMIT, "2+y"], 3, "parse error at position 2: unexpected character 'y'\n"),
    # digits are ASCII only
    (["emit-sequence", "--field", "x²-3", "--unit", "t"], 3,
     "parse error at position 1: unexpected character '²'\n"),
    ([*EMIT, "١+t"], 3, "parse error at position 0: unexpected character '١'\n"),
    ([*EMIT, "2+t t"], 3, "parse error at position 4: expected '+' or '-', got 't'\n"),
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, code, error", REFUSALS, ids=[" ".join(a) for a, _, _ in REFUSALS])
def test_refusal(argv, code, error):
    assert run_cli(argv) == (code, "", error)


# int options, refused by argparse as int() refuses 'x': each takes ASCII -?[0-9]+ alone
INT_OPTION_REFUSALS = [
    ["emit-sequence", *PELL, "--kmax", "٥"],
    ["verify-lds", *PELL, "--kmax", "10", "--nmax", "1_0"],
    ["verify-lds", *PELL, "--column", "+1"],
    ["construct-basis", "--method", "family", "--m", "٢"],
    ["dk-scan", "--field", "x^2-3", "--alpha", "2+t", "--vanishing-t", " 2"],
    ["family-scan", "--m-range", "2..3", "--kmax", "2_000"],
]


@pytest.mark.parametrize("argv", INT_OPTION_REFUSALS, ids=" ".join)
def test_int_option_refusal(argv):
    option, value = argv[-2:]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert err.getvalue().splitlines()[-1] == (
        f"normlds {argv[0]}: error: argument {option}: invalid int value: {value!r}"
    )


@pytest.mark.parametrize("field", ["x^2-3+x^3-x^3", "0*x^3+x^2-3", "x^2-3+0*x^9"])
def test_a_term_with_a_zero_coefficient_raises_no_degree(field):
    # the degree is the highest power with a nonzero coefficient, so each is x^2 - 3
    argv = ["emit-sequence", "--unit", "2+t", "--kmax", "5"]
    want = run_cli([*argv, "--field", "x^2-3"])
    assert want[0] == 0 and run_cli([*argv, "--field", field]) == want


def test_basis_file_of_another_field_is_refused(tmp_path):
    path = tmp_path / "basis.json"
    written = run_cli([*QUADRATIC, "--field", "x^2-5", "--unit", "9+4t", "--out", str(path)])
    assert written == (0, "", "")
    argv = [*EMIT, "2+t", "--basis-file", str(path)]
    assert run_cli(argv) == (2, "", "error: basis file was produced for a different field\n")


def test_basis_file_nested_too_deeply_is_refused(tmp_path):
    # json.load recurses once per level and meets the recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = [*EMIT, "2+t", "--basis-file", str(path)]
    assert run_cli(argv) == (2, "", f"error: basis file {path} nests too deeply to read\n")


# the refusals of commands that write a table of terms, and one of verify-lds
TERM_REPORT_REFUSALS = [row for row in REFUSALS if row[0][0] in ("emit-sequence", "dk-scan")] + [
    (["verify-lds", *PELL, "--kmax", "5", "--nmax", "6"], 2, "error: --nmax cannot exceed --kmax\n"),
]


@pytest.mark.parametrize(
    "argv, code, error", TERM_REPORT_REFUSALS, ids=[" ".join(a) for a, _, _ in TERM_REPORT_REFUSALS]
)
def test_refused_report_creates_no_out_file(tmp_path, argv, code, error):
    # the sink opens only once the report's text is complete
    path = tmp_path / "report.json"
    assert run_cli([*argv, "--out", str(path)]) == (code, "", error)
    assert not path.exists()
