"""Golden reports of the CLI: stdout, stderr and exit code, byte for byte.

The files under tests/golden/ hold the reports as the CLI printed them when
they were made. A change to how terms are computed or rendered must leave them
unchanged. To write them anew from the current code (only after checking that
a difference is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from normlds import cli
from oracles import MAXIMAL_ORDER

GOLDEN = Path(__file__).parent / "golden"

QUARTIC = ["--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+t^3"]
# name -> arguments after the subcommand
SEQUENCE_CASES = {
    # power basis of Z[sqrt 3]: zero entries in the first rows
    "pell-power": ["--field", "x^2-3", "--unit", "2+t", "--kmax", "20"],
    # a negative unit and beta: terms of both signs
    "pell-negative": ["--field", "x^2-3", "--unit=-2-t", "--beta", "1-t", "--kmax", "20"],
    "quartic-power": ["--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+t^3",
                      "--basis", "quartic-power", "--kmax", "30"],
    "quartic-full": ["--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+t^3",
                     "--basis", "quartic-full", "--kmax", "30"],
    # t^2 has a minimal polynomial of degree 2 < 4 columns
    "square-unit": ["--field", "x^4-10x^2+1", "--unit", "t^2", "--kmax", "30"],
    # kmax equal to that degree and below the column count
    "square-unit-short": ["--field", "x^4-10x^2+1", "--unit", "t^2", "--kmax", "2"],
    # a characteristic polynomial with no zero coefficient
    "dense-charpoly": ["--field", "x^4-10x^2+1", "--unit", "1+t", "--kmax", "25"],
    "kmax-below-degree": ["--field", "x^4-10x^2+1", "--unit", "t", "--kmax", "3"],
    "kmax-zero": ["--field", "x^2-3", "--unit", "2+t", "--kmax", "0"],
    # a malformed element: exit 3
    "parse-error": ["--field", "x^2-3", "--unit", "2+*t", "--kmax", "20"],
    # bases read back from construct-basis reports (see BASIS_FILE_SOURCES)
    "basis-file": ["--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+t^3",
                   "--basis-file", "{basis_file}", "--kmax", "30"],
    "basis-file-module": ["--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+t^3",
                          "--basis-file", "{basis_file}", "--kmax", "30"],
    # the basis given as expressions: x1 is not an LDS, so verify-lds exits 2
    "module-basis": [*QUARTIC, "--module-basis", MAXIMAL_ORDER, "--kmax", "30"],
}
# verify-lds alone: cases whose columns are decided by the certified head
VERIFY_CASES = {
    # x2 is the Lucas sequence U_n(4, 1), checked through nmax 12 of kmax 20
    "pell-power-nmax": ["--field", "x^2-3", "--unit", "2+t", "--basis", "power",
                        "--kmax", "20", "--nmax", "12"],
    # x1 = (0, 1, 1, T + 1) is a Lehmer sequence and x2 = (0, 1, 3, T + 1) the member
    # b = 3 of its family, both proved from the head; x3 and x4 fail at m = 2
    "quartic-full-scanned": ["--field", "x^4-9x^2+1", "--unit", "t", "--beta", "t+3t^2+t^3",
                             "--basis", "quartic-full", "--kmax", "30"],
    # x4 = (0, 1, -2, T - 1): the family member b = -2 on the T - 1 branch
    "quartic-full-minus": ["--field", "x^4-10x^2+1", "--unit", "t", "--beta=-1-2t+t^2",
                           "--basis", "quartic-full", "--kmax", "30"],
}
# emit-sequence alone
EMIT_CASES = {
    # x3(k) = x4(k - 3): a column that is a later one shifted down three rows
    "quartic-full-shifted": ["--field", "x^4-1029x^2+1", "--unit", "t", "--beta=-t+32t^2-t^3",
                             "--basis", "quartic-full", "--kmax", "40"],
}
DK_CASES = {
    # the Pell unit 2 + sqrt 3: d_{k+4} = 4 d_{k+2} - d_k holds
    "pell": ["--field", "x^2-3", "--alpha", "2+t", "--kmax", "40"],
    # n + 2t in x^2 - (n^2 - 1)/4 for n = 5
    "half-trace": ["--field", "x^2-6", "--alpha", "5+2t", "--kmax", "40"],
    # a unit of norm -1: the recurrence check is refused
    "norm-minus-one": ["--field", "x^2-2", "--alpha", "1+t", "--kmax", "30"],
    # the golden ratio over the ring basis {1, (1+t)/2}
    "module-basis": ["--field", "x^2-5", "--module-basis", "1;1/2+1/2t",
                     "--alpha", "1/2+1/2t", "--kmax", "30"],
    # the lacunary x^4 - 10x^2 + 1 with its vanishing scan
    "lacunary": ["--field", "x^4-10x^2+1", "--alpha", "t", "--kmax", "30",
                 "--vanishing-t", "2", "--assert-monogenic"],
    # the same scan unasserted: the d column is null
    "lacunary-plain": ["--field", "x^4-10x^2+1", "--alpha", "t", "--kmax", "30",
                       "--vanishing-t", "2"],
    # t = 1 over a quadratic field: y1 holds multi-digit values of both signs
    "vanishing-quadratic": ["--field", "x^2+3x-5", "--alpha", "t", "--kmax", "20",
                            "--vanishing-t", "1", "--assert-monogenic"],
    # norm -2: alpha is not a unit
    "non-unit": ["--field", "x^2-3", "--alpha", "1+t", "--kmax", "30"],
    # alpha^2 = 1: d_k = 0 at every even k
    "torsion": ["--field", "x^2-3", "--alpha=-1", "--kmax", "12"],
    "kmax-zero": ["--field", "x^2-3", "--alpha", "2+t", "--kmax", "0"],
    # trace T = -4: d_k follow X^4 - |T| X^2 + 1, so the check of T fails
    "pell-negative-trace": ["--field", "x^2-3", "--alpha=-2-t", "--kmax", "12"],
    # the lacunary t over O_K: d = 1, 2, 1, 4, 1, 22, ..., twice the power-basis even d_k
    "lacunary-maximal-order": ["--field", "x^4-10x^2+1", "--module-basis", MAXIMAL_ORDER,
                               "--alpha", "t", "--kmax", "30"],
    # t^2 is a norm-1 quadratic unit of trace 10 inside a quartic field
    "quadratic-in-quartic": ["--field", "x^4-10x^2+1", "--alpha", "t^2", "--kmax", "30"],
}
CONSTRUCT_CASES = {
    # the Pell unit 2 + sqrt 3 with beta 3 + sqrt 3
    "quadratic": ["--method", "quadratic", "--field", "x^2-3", "--unit", "2+t", "--beta", "3+t"],
    "quartic-power": ["--method", "quartic-power", *QUARTIC],
    "quartic-full": ["--method", "quartic-full", *QUARTIC],
    "family": ["--method", "family", "--m", "5"],
    "module-basis": ["--method", "quartic-full", *QUARTIC, "--module-basis", MAXIMAL_ORDER],
}
SNF_CASES = {
    # beta = 1: the coordinate matrix is the identity, Smith ratio 1
    "ratio-one": ["--field", "x^4-10x^2+1", "--unit", "t"],
    # deltas (1, 1, 20, 20): the first witness has (t3, t2, t1) = (3, 0, 0)
    "witness-t3": ["--field", "x^4-10x^2+1", "--unit", "t", "--beta=-3+t^2"],
    # deltas (1, 8, 8, 8): the first witness has (t3, t2, t1) = (0, 1, 0)
    "witness-t2": ["--field", "x^4-10x^2+1", "--unit", "t", "--beta=-3-t+3t^2+t^3"],
    # deltas (1, 1, 4, 16028): the old search over ratio^3 candidates took about 100 s
    "ratio-16028": ["--field", "x^4-26x^2+1", "--unit", "t", "--beta", "2-t+t^3"],
}
FAMILY_CASES = {
    # m = 3 and m = 4 are rejected: 4 and 4 = 3 + 1 are squares
    "rejected-m": ["--m-range", "2..5", "--kmax", "40"],
    # a range without '..': exit 3
    "bad-range": ["--m-range", "2-5"],
}
# subcommand -> its case table
CASES = {
    "emit-sequence": {**SEQUENCE_CASES, **EMIT_CASES},
    "verify-lds": {**SEQUENCE_CASES, **VERIFY_CASES},
    "dk-scan": DK_CASES,
    "construct-basis": CONSTRUCT_CASES,
    "snf-check": SNF_CASES,
    "family-scan": FAMILY_CASES,
}
# sequence case -> the construct-basis case whose JSON report, written to a file,
# is read back by --basis-file; "{basis_file}" in the case's argv stands for its path.
# The module-basis report has the denominators 2 and 4.
BASIS_FILE_SOURCES = {"basis-file": "quartic-full", "basis-file-module": "module-basis"}
FORMATS = ["json", "csv", "text"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"exit": rc, "stderr": err.getvalue(), "stdout": out.getvalue()}


def argv_of(command, case, fmt):
    return [command, *CASES[command][case], "--format", fmt]


def stem(command, case, fmt):
    return f"{command}.{case}.{fmt}"


def run_case(command, case, fmt):
    argv = argv_of(command, case, fmt)
    source = BASIS_FILE_SOURCES.get(case)
    if source is None:
        return run_cli(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "basis.json")
        written = run_cli(argv_of("construct-basis", source, "json") + ["--out", path])
        assert written["exit"] == 0, written["stderr"]
        return run_cli([path if a == "{basis_file}" else a for a in argv])


PARAMS = [(c, name, f) for c, cases in CASES.items() for name in cases for f in FORMATS]


@pytest.mark.parametrize("command, case, fmt", PARAMS, ids=[stem(*p) for p in PARAMS])
def test_report_matches_golden(command, case, fmt):
    got = run_case(command, case, fmt)
    name = stem(command, case, fmt)
    status = json.loads((GOLDEN / f"{name}.status.json").read_text(encoding="utf-8"))
    assert (got["exit"], got["stderr"]) == (status["exit"], status["stderr"])
    assert got["stdout"] == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    for params in PARAMS:
        got = run_case(*params)
        name = stem(*params)
        (GOLDEN / f"{name}.out").write_text(got["stdout"], encoding="utf-8")
        status = {"argv": argv_of(*params), "exit": got["exit"], "stderr": got["stderr"]}
        (GOLDEN / f"{name}.status.json").write_text(
            json.dumps(status, indent=2) + "\n", encoding="utf-8"
        )


if __name__ == "__main__":
    write_golden()
