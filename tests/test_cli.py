import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from normlds import basisforge, cli, coordseq, dkseq, exactlinalg, numberfield
from normlds.numberfield import NumberField
from oracles import lucas_terms


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_dk_scan_computes_the_sequence_once(monkeypatch):
    calls = []
    original = dkseq.dk_sequence

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dkseq, "dk_sequence", counting)
    rc, out, _ = run_cli(["dk-scan", "--field", "x^2-3", "--alpha", "2+t", "--kmax", "40"])
    assert rc == 0
    assert len(calls) == 1
    doc = json.loads(out)
    d1 = doc["terms"][0]
    assert doc["conj9_hits"] == [str(k) for k, d in enumerate(doc["terms"], 1) if d == d1]


# 2 + t is a unit of Z[t] and keeps it, but not the module Z + Z (2 + t)/5, over
# which its d_k come from gcds and still follow d_{k+4} = 4 d_{k+2} - d_k through k = 40
UNKEPT_MODULE = ["--field", "x^2-3", "--alpha", "2+t", "--module-basis", "1;2/5+1/5t"]


def test_dk_scan_builds_the_recurrence_report_once(monkeypatch):
    reports = []
    original = dkseq.recurrence_report

    def counting(seq):
        reports.append(original(seq))
        return reports[-1]

    checked = []
    check = dkseq.dk_recurrence_check

    def recording(report):
        checked.append(report)
        return check(report)

    monkeypatch.setattr(dkseq, "recurrence_report", counting)
    monkeypatch.setattr(dkseq, "dk_recurrence_check", recording)
    rc, out, _ = run_cli(["dk-scan", *UNKEPT_MODULE, "--kmax", "40"])
    assert rc == 0
    # the report that was checked is the one rendered: built once, never rebuilt
    assert len(reports) == 1 and len(checked) == 1 and checked[0] is reports[0]
    assert len(reports[0].terms[0]) == 40
    assert json.loads(out)["recurrence_ok"] is True


@pytest.mark.parametrize("alpha, kmax, ok", [("2+t", 40, True), ("-2-t", 40, False), ("-2-t", 4, True)])
def test_dk_scan_checks_no_term_the_half_index_lemma_gave(monkeypatch, alpha, kmax, ok):
    # the d_k follow X^4 - |T| X^2 + 1, so T's recurrence holds exactly when T > 0
    # or kmax <= 4; neither the report nor the check is built
    def refuse(*args):
        raise AssertionError("the terms of the half-index lemma were checked")

    monkeypatch.setattr(dkseq, "recurrence_report", refuse)
    monkeypatch.setattr(dkseq, "dk_recurrence_check", refuse)
    rc, out, _ = run_cli(["dk-scan", "--field", "x^2-3", f"--alpha={alpha}", "--kmax", str(kmax)])
    assert rc == 0 and json.loads(out)["recurrence_ok"] is ok


@pytest.mark.parametrize(
    "field, alpha, vanishing, calls",
    [
        # a unit of norm 1: the half-index lemma, and no stream
        ("x^2-3", "2+t", [], 0),
        # a unit of norm -1: the x and alpha^-1 streams
        ("x^2-2", "1+t", [], 2),
        # 1 + t has norm -2: the x stream alone
        ("x^2-3", "1+t", [], 1),
        # the vanishing scan adds one stream, the powers of alpha, at t = 1 alone
        ("x^4-10x^2+1", "t", ["--vanishing-t", "2"], 0),
        ("x^2-3", "1+t", ["--vanishing-t", "1"], 2),
    ],
    ids=["unit", "norm -1", "non-unit", "unit, vanishing scan", "non-unit, vanishing scan"],
)
def test_dk_scan_builds_its_sequences_through_generate(monkeypatch, field, alpha, vanishing, calls):
    built = []

    def counting(*args):
        built.append(coordseq.generate(*args))
        return built[-1]

    monkeypatch.setattr(dkseq, "generate", counting)
    rc, out, _ = run_cli(["dk-scan", "--field", field, "--alpha", alpha, "--kmax", "20", *vanishing])
    assert rc == 0 and len(json.loads(out)["terms"]) == 20
    assert len(built) == calls


@pytest.mark.parametrize(
    "argv",
    [
        ["--field", "x^2-3", "--alpha", "2+t"],
        ["--field", "x^2-3", "--alpha=-2-t"],
        ["--field", "x^4-10x^2+1", "--alpha", "t", "--vanishing-t", "2"],
        ["--field", "x^4-10x^2+1", "--alpha", "t^2"],
        ["--field", "x^2+3x-5", "--alpha", "t", "--vanishing-t", "1"],
        ["--field", "x^2-2", "--alpha", "1+t"],
        ["--field", "x^2-3", "--alpha", "1+t"],
        ["--field", "x^2-3", "--alpha=-1"],
        UNKEPT_MODULE,
    ],
    ids=["pell", "negative trace", "lacunary", "quadratic in quartic", "vanishing at t 1",
         "norm -1", "non-unit", "torsion", "gcds"],
)
def test_dk_scan_takes_min_poly_once_per_report(monkeypatch, argv):
    calls = []
    original = numberfield.min_poly

    def counting(a):
        calls.append(a)
        return original(a)

    for module in (numberfield, coordseq, dkseq, basisforge, cli):
        if hasattr(module, "min_poly"):
            monkeypatch.setattr(module, "min_poly", counting)
    rc, _, _ = run_cli(["dk-scan", *argv, "--kmax", "30"])
    assert rc == 0 and len(calls) == 1


def test_family_scan_takes_min_poly_once_per_admissible_m(monkeypatch):
    # quartic_unit_trace takes it; sequence_head gets the field polynomial, the
    # generator's minimal polynomial, and takes none
    calls = []
    original = numberfield.min_poly

    def counting(a):
        calls.append(a)
        return original(a)

    for module in (numberfield, coordseq, dkseq, basisforge, cli):
        if hasattr(module, "min_poly"):
            monkeypatch.setattr(module, "min_poly", counting)
    rc, out, _ = run_cli(["family-scan", "--m-range", "2..10", "--kmax", "30"])
    statuses = [row["status"] for row in json.loads(out)["rows"]]
    assert rc == 0 and "rejected" in statuses and len(calls) == statuses.count("ok") == 5


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_dk_scan_formats_agree(fmt):
    rc, out, _ = run_cli(
        ["dk-scan", "--field", "x^2-3", "--alpha", "2+t", "--kmax", "12", "--format", fmt]
    )
    assert rc == 0
    field = NumberField((-3, 0, 1))
    want = [str(dkseq.dk(field.element([2, 1]), field.power_basis(), k)) for k in range(1, 13)]
    if fmt == "json":
        assert json.loads(out)["terms"] == want
    elif fmt == "csv":
        assert out.splitlines() == ["k,dk"] + [f"{k},{d}" for k, d in enumerate(want, 1)]
    else:
        assert f"terms: {json.dumps(want)}" in out.splitlines()


@pytest.mark.parametrize("column", ["0", "5", "-1"])
def test_verify_lds_column_checked_before_any_output(column):
    rc, out, err = run_cli(
        ["verify-lds", "--field", "x^4-10x^2+1", "--unit", "t", "--kmax", "20", "--column", column]
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: --column {column} out of range\n"


def test_verify_lds_column_picks_the_exit_code():
    base = ["verify-lds", "--field", "x^4-10x^2+1", "--unit", "t", "--basis", "quartic-power",
            "--kmax", "30"]
    rc, out, _ = run_cli(base)
    verdicts = json.loads(out)["lds"]
    for v in verdicts:
        rc, _, _ = run_cli(base + ["--column", str(v["column"])])
        assert rc == (0 if v["ok"] else 2)


def test_terms_beyond_the_int_digit_limit(tmp_path):
    # terms of t^k over x^4 - 110x^2 + 1 pass 4,300 digits from k = 4,215 on
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "seq.json"
    rc, _, err = run_cli(
        ["emit-sequence", "--field", "x^4-110x^2+1", "--unit", "t", "--basis", "quartic-power",
         "--kmax", "4400", "--out", str(out)]
    )
    assert (rc, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    terms = json.loads(out.read_text())["terms"]
    assert len(terms) == 4401
    assert len(terms[-1][0].lstrip("-")) > 4300
    sys.set_int_max_str_digits(0)
    try:
        rows = [[int(x) for x in row] for row in terms[-5:]]
    finally:
        sys.set_int_max_str_digits(limit)
    for i in range(4):
        assert rows[4][i] == 110 * rows[2][i] - rows[0][i]


def test_an_interpreter_without_the_digit_limit_writes_the_same_report(monkeypatch):
    # Python before 3.10.7 has neither sys.get_int_max_str_digits nor its setter
    argv = ["emit-sequence", "--field", "x^4-10x^2+1", "--unit", "t", "--kmax", "30"]
    want = run_cli(argv)
    assert want[0] == 0
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert run_cli(argv) == want


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_verify_lds_nmax_checked_before_any_output(nmax):
    rc, out, err = run_cli(
        ["verify-lds", "--field", "x^4-10x^2+1", "--unit", "t", "--kmax", "30", "--nmax", nmax]
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: --nmax {nmax} must be at least 1\n"


def test_verify_lds_nmax_above_kmax_is_refused_before_any_work(monkeypatch):
    def sequence_head(*args):
        raise AssertionError("coordseq.sequence_head was called")

    monkeypatch.setattr(coordseq, "sequence_head", sequence_head)
    rc, out, err = run_cli(
        ["verify-lds", "--field", "x^4-1060x^2+1", "--unit", "t", "--kmax", "20000", "--nmax", "20001"]
    )
    assert rc == 2
    assert out == ""
    assert err == "error: --nmax cannot exceed --kmax\n"


def test_verify_lds_nmax_defaults_to_kmax():
    rc, out, _ = run_cli(["verify-lds", "--field", "x^4-10x^2+1", "--unit", "t", "--kmax", "30"])
    assert json.loads(out)["nmax"] == 30


def test_quadratic_construction_on_a_pell_field_near_10_18(tmp_path):
    n = 10**9
    field = f"x^2-{n * n - 1}"
    path = tmp_path / "basis.json"
    rc, _, err = run_cli(
        ["construct-basis", "--field", field, "--unit", f"{n}+t", "--beta", "3+t",
         "--method", "quadratic", "--out", str(path)]
    )
    assert (rc, err) == (0, "")
    cons = json.loads(path.read_text())
    scale, trace = int(cons["scale"]), int(cons["t_trace"])
    assert trace == 2 * n
    rc, out, _ = run_cli(
        ["emit-sequence", "--field", field, "--unit", f"{n}+t", "--beta", "3+t",
         "--basis-file", str(path), "--kmax", "12"]
    )
    assert rc == 0
    x1 = [int(row[0]) for row in json.loads(out)["terms"]]
    assert x1 == [scale * u for u in lucas_terms(trace, 1, 13)]


def test_reducible_field_is_rejected():
    rc, out, err = run_cli(
        ["construct-basis", "--field", f"x^2-{(10**9 + 7) ** 2}", "--unit", "t",
         "--method", "quadratic"]
    )
    assert (rc, out) == (2, "")
    assert err == "error: x^2 - 1000000014000000049 is reducible over Q\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["emit-sequence", "--field", "x^2-3", "--unit", "2+t", "--kmax", "5"],
        ["construct-basis", "--field", "x^4-10x^2+1", "--unit", "t"],
        ["dk-scan", "--field", "x^2-3", "--alpha", "2+t", "--kmax", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_nmax_is_rejected_where_nothing_reads_it(argv):
    assert run_cli(argv)[0] == 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--nmax", "3"])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert "unrecognized arguments: --nmax 3" in err.getvalue()


def test_a_recurrence_that_fails_its_certificate_is_an_invariant_violation(monkeypatch):
    argv = ["emit-sequence", "--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+t^3",
            "--basis", "quartic-power", "--kmax", "30"]
    assert run_cli(argv)[0] == 0
    # x^4 - 11x^2 + 1 does not annihilate t, so the coordinates of beta*t^4 are
    # not the recurrence's value and no term past the head can be trusted
    wrong = tuple(map(Fraction, (1, 0, -11, 0, 1)))
    monkeypatch.setattr(coordseq, "min_poly", lambda eps: wrong)
    rc, out, err = run_cli(argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("internal invariant violation: coordinates of beta*eps^4 are ")


@pytest.mark.parametrize("kmax", [2, 3, 6])
def test_dk_scan_of_an_alpha_that_is_not_integral(kmax):
    # (1 + t)/4 over {1, w = (1 + t)/8}: alpha = 2w and alpha^2 = 1 + w are
    # integral, and alpha^3 is not, past the degree 2 of its minimal polynomial
    rc, out, err = run_cli(["dk-scan", "--field", "x^2-17", "--alpha=1/4+1/4*t",
                            "--module-basis", "1;1/8+1/8*t", "--kmax", str(kmax)])
    if kmax == 2:
        assert (rc, err) == (0, "")
        assert json.loads(out)["terms"] == ["1", "1"]
    else:
        assert (rc, out) == (2, "")
        assert err == "error: alpha^3 has non-integral coordinates over the ring basis\n"


def test_dk_terms_fall_back_to_str_without_a_verified_recurrence(monkeypatch):
    argv = ["dk-scan", *UNKEPT_MODULE, "--kmax", "40"]
    _, out, _ = run_cli(argv)
    rendered = json.loads(out)
    assert rendered["recurrence_ok"] is True

    def refuse(report):
        raise AssertionError("rendered through an unverified recurrence")

    monkeypatch.setattr(dkseq, "dk_recurrence_check", lambda report: False)
    monkeypatch.setattr(coordseq, "decimal_columns", refuse)
    rc, out, _ = run_cli(argv)
    fallback = json.loads(out)
    assert rc == 0
    assert fallback["recurrence_ok"] is False
    assert fallback["terms"] == rendered["terms"]


@pytest.mark.parametrize("command", ["emit-sequence", "verify-lds"])
@pytest.mark.parametrize(
    "field, unit, kmax",
    [("x^2-3", "2+t", "0"), ("x^2-3", "2+t", "1"), ("x^4-10x^2+1", "t", "3"),
     ("x^4-10x^2+1", "1+t", "3")],
)
def test_kmax_below_the_degree_exits_before_generation(monkeypatch, command, field, unit, kmax):
    def refuse(*args):
        raise AssertionError("terms generated although kmax is below the degree")

    monkeypatch.setattr(coordseq, "sequence_head", refuse)
    rc, out, err = run_cli([command, "--field", field, "--unit", unit, "--kmax", kmax])
    assert (rc, out) == (2, "")
    assert err == "error: not enough terms to test the recurrence\n"


@pytest.mark.parametrize(
    "command, option",
    [("emit-sequence", "--unit"), ("verify-lds", "--beta"), ("dk-scan", "--alpha")],
)
def test_negative_element_read_as_an_option_gets_a_hint(command, option):
    # dk-scan reads --alpha and refuses --unit
    unit = [] if command == "dk-scan" else ["--unit", "2+t"]
    argv = [command, "--field", "x^2-3", *unit, "--kmax", "8", option, "-2-t"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert exc.value.code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert lines[-2].endswith(f"error: argument {option}: expected one argument")
    assert lines[-1] == (
        f"hint: a value that starts with '-' needs the '=' form, as in {option}=-2-t"
    )
    # the '=' form the hint names is accepted
    argv[-2:] = [f"{option}=-2-t"]
    _, out, _ = run_cli(argv)
    assert json.loads(out)[option[2:]] == "-2 - t"


def test_other_argument_errors_get_no_hint():
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(["emit-sequence", "--field", "x^2-3", "--kmax"])
    assert exc.value.code == 2
    assert err.getvalue().splitlines()[-1].endswith("error: argument --kmax: expected one argument")


def dk_scan_refusal(extra):
    argv = ["dk-scan", "--field", "x^2-3", "--alpha", "2+t", "--kmax", "5"]
    assert run_cli(argv)[0] == 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + extra)
    assert exc.value.code == 2
    assert out.getvalue() == ""
    return err.getvalue()


def test_dk_scan_rejects_beta():
    assert "unrecognized arguments: --beta 7" in dk_scan_refusal(["--beta", "7"])


def test_dk_scan_rejects_unit():
    # dk-scan reads its element from --alpha only
    assert "unrecognized arguments: --unit 3+t" in dk_scan_refusal(["--unit", "3+t"])


# different subcommands in turn, with an argument error between them
CALL_SEQUENCE = [
    ["construct-basis", "--method", "quartic-full", "--field", "x^4-10x^2+1", "--unit", "t",
     "--beta", "2-t+t^3"],
    ["emit-sequence", "--field", "x^2-3", "--unit", "-2-t"],
    ["dk-scan", "--field", "x^2-3", "--alpha", "2+t", "--kmax", "8", "--format", "csv"],
    ["snf-check", "--field", "x^4-10x^2+1", "--unit", "t", "--beta=-3+t^2", "--format", "text"],
    ["verify-lds", "--field", "x^4-10x^2+1", "--unit", "t", "--kmax", "12", "--column", "2"],
    ["family-scan", "--m-range", "2..4", "--kmax", "20"],
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_the_parser_is_built_once_per_process(monkeypatch):
    calls = []
    original = cli.build_parser

    def counting():
        calls.append(None)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    for argv in CALL_SEQUENCE:
        run_main(argv)
    assert len(calls) == 1


def test_in_process_calls_match_fresh_processes(monkeypatch):
    # the usage lines wrap at the terminal width, so both sides get the same one
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_parser", None)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in CALL_SEQUENCE:
        fresh = subprocess.run(
            [sys.executable, "-m", "normlds.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert run_main(argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


QUARTIC = ["--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+t^3"]
# construct-basis and snf-check reports have no csv form
NO_CSV = [
    ["construct-basis", "--method", "quadratic", "--field", "x^2-3", "--unit", "2+t"],
    ["construct-basis", "--method", "quartic-power", *QUARTIC],
    ["construct-basis", "--method", "quartic-full", *QUARTIC],
    ["construct-basis", "--method", "family", "--m", "5"],
    ["snf-check", *QUARTIC],
]
CONSTRUCTIONS = ["quad_construct", "quartic_module_construct", "quartic_full_construct",
                 "family_basis", "snf_criterion"]


@pytest.mark.parametrize("argv", NO_CSV, ids=lambda argv: " ".join(argv[:3]))
def test_csv_is_refused_before_any_construction(monkeypatch, argv):
    calls = []
    for name in CONSTRUCTIONS:
        original = getattr(basisforge, name)

        def counting(*args, _original=original):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(basisforge, name, counting)
    assert run_cli(argv)[0] == 0
    assert calls  # the counters see the construction when it runs
    calls.clear()
    rc, out, err = run_cli(argv + ["--format", "csv"])
    assert (rc, out, err) == (2, "", "error: csv output is not defined for this command\n")
    assert calls == []


def test_construct_basis_rejects_kmax():
    rc, out, err = run_main(["construct-basis", "--method", "family", "--m", "5", "--kmax", "9"])
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --kmax 9" in err


FAMILY = ["construct-basis", "--method", "family", "--m", "5"]
UNREAD_OPTIONS = [
    # argv, the option named in the error, the error
    ([*FAMILY, "--field", "x^2-3"], "--field is not read by --method family"),
    ([*FAMILY, "--unit", "t"], "--unit is not read by --method family"),
    ([*FAMILY, "--beta", "2"], "--beta is not read by --method family"),
    ([*FAMILY, "--module-basis", "1;t"], "--module-basis is not read by --method family"),
    (["construct-basis", "--method", "quartic-power", *QUARTIC, "--module-basis",
      "1;t;t^2;t^3"], "--module-basis is not read by --method quartic-power"),
    (["construct-basis", "--method", "quartic-full", *QUARTIC, "--m", "5"],
     "--m is read by --method family only"),
    (["emit-sequence", *QUARTIC, "--kmax", "8", "--basis", "power", "--module-basis",
      "1;t;t^2;t^3"], "--module-basis cannot be combined with --basis"),
    (["verify-lds", *QUARTIC, "--kmax", "8", "--basis", "quartic-full", "--basis-file",
      "basis.json"], "--basis-file cannot be combined with --basis"),
    (["emit-sequence", *QUARTIC, "--kmax", "8", "--module-basis", "1;t;t^2;t^3",
      "--basis-file", "basis.json"], "--module-basis cannot be combined with --basis-file"),
]


@pytest.mark.parametrize("argv, error", UNREAD_OPTIONS, ids=[e for _, e in UNREAD_OPTIONS])
def test_options_that_would_go_unread_are_refused(argv, error):
    assert run_main(argv) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("method", ["quartic-power", "quartic-full"])
def test_construct_basis_and_emit_sequence_build_one_basis(method):
    _, built, _ = run_cli(["construct-basis", "--method", method, *QUARTIC])
    _, emitted, _ = run_cli(["emit-sequence", *QUARTIC, "--basis", method, "--kmax", "8"])
    assert json.loads(built)["basis"] == json.loads(emitted)["basis"]


@pytest.mark.parametrize(
    "spec, error",
    [("5..2", "m range 5..2 is empty"),
     ("-2..1", "m range -2..1 starts below 2, where the family begins")],
)
def test_family_scan_refuses_a_range_outside_the_family(monkeypatch, spec, error):
    def refuse(m):
        raise AssertionError("constructed although the range is refused")

    monkeypatch.setattr(basisforge, "family_basis", refuse)
    rc, out, err = run_cli(["family-scan", f"--m-range={spec}", "--kmax", "20"])
    assert (rc, out, err) == (2, "", f"error: {error}\n")


QUADRATIC_FILE = Path(__file__).parent / "golden" / "construct-basis.quadratic.json.out"


@pytest.mark.parametrize(
    "elements, error",
    [(["--unit", "2+t"], "beta 3 + t, not 1"),
     (["--unit", "2+t", "--beta", "1+t"], "beta 3 + t, not 1 + t"),
     (["--unit", "7+4t", "--beta", "3+t"], "unit 2 + t, not 7 + 4*t")],
)
def test_basis_file_refuses_another_unit_or_beta(elements, error):
    argv = ["emit-sequence", "--field", "x^2-3", *elements, "--basis-file", str(QUADRATIC_FILE),
            "--kmax", "5"]
    assert run_cli(argv) == (2, "", f"error: basis file was built for {error}\n")


def test_basis_file_compares_elements_not_their_text():
    argv = ["emit-sequence", "--field", "x^2-3", "--unit", "t+2", "--beta", "6/2+t",
            "--basis-file", str(QUADRATIC_FILE), "--kmax", "5"]
    rc, out, err = run_cli(argv)
    assert (rc, err) == (0, "")
    assert json.loads(out)["beta"] == "3 + t"


def test_basis_file_of_a_family_report_takes_any_unit_and_beta(tmp_path):
    path = tmp_path / "family.json"
    rc, _, _ = run_cli(["construct-basis", "--method", "family", "--m", "5", "--out", str(path)])
    assert rc == 0
    field = json.loads(path.read_text())["field"].replace(" ", "")
    rc, out, err = run_cli(["emit-sequence", "--field", field, "--unit", "t", "--beta", "2",
                            "--basis-file", str(path), "--kmax", "8"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["basis_source"] == "file"


@pytest.mark.parametrize(
    "content, key",
    [(None, "basis"), ("[1, 2]", "field"), ("7", "field"),
     ('{"basis": [["1", "0"], ["0", "1"]]}', "field")],
)
def test_basis_file_that_is_not_a_basis_report(tmp_path, content, key):
    path = tmp_path / "report.json"
    if content is None:  # a dk-scan report: it names the field but has no basis
        rc, _, _ = run_cli(["dk-scan", "--field", "x^2-3", "--alpha", "2+t", "--kmax", "5",
                            "--out", str(path)])
        assert rc == 0
    else:
        path.write_text(content)
    argv = ["emit-sequence", "--field", "x^2-3", "--unit", "2+t", "--basis-file", str(path),
            "--kmax", "5"]
    error = f"basis file {path} is not a construct-basis or family report: it has no {key!r} key"
    assert run_cli(argv) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "entry, error",
    [('"basis": [["1/0", 0], [0, 1]]', "a bad 'basis': "),
     ('"basis": 7', "a 'basis' that is not a list of coordinate lists\n"),
     ('"basis": [[1, [2]], [0, 1]]', "a bad 'basis': "),
     ('"field": 5', "a 'field' that is not a string\n"),
     ('"unit": 3', "a 'unit' that is not a string\n")],
)
def test_basis_file_with_a_malformed_value(tmp_path, entry, error):
    doc = {"field": "x^2 - 3", "basis": [["2", "1"], ["3", "1"]], **json.loads("{" + entry + "}")}
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(doc))
    argv = ["emit-sequence", "--field", "x^2-3", "--unit", "2+t", "--kmax", "3", "--basis-file",
            str(path)]
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: basis file {path} has {error}")


def test_a_field_of_large_degree_is_refused():
    argv = ["construct-basis", "--method", "quadratic", "--field", "x^1000000-3", "--unit", "t"]
    assert run_cli(argv) == (2, "", "error: defining polynomial must have degree 2, 3 or 4\n")


@pytest.mark.parametrize("kmax", [-1, 0, 1, 2])
def test_family_scan_refuses_kmax_below_3(monkeypatch, kmax):
    def refuse(m):
        raise AssertionError("constructed although kmax is refused")

    monkeypatch.setattr(basisforge, "family_basis", refuse)
    rc, out, err = run_cli(["family-scan", "--m-range", "2..3", f"--kmax={kmax}"])
    assert (rc, out, err) == (2, "", f"error: --kmax {kmax} must be at least 3\n")


@pytest.mark.parametrize("command", ["emit-sequence", "verify-lds"])
@pytest.mark.parametrize("source", [["--basis", "quartic-full"], ["--basis-file", "unread.json"]])
def test_sequence_commands_refuse_a_negative_kmax_before_a_basis(monkeypatch, command, source):
    def refuse(*args):
        raise AssertionError("basis built although kmax is refused")

    monkeypatch.setattr(basisforge, "quartic_full_construct", refuse)
    monkeypatch.setattr(cli, "_basis_from_file", refuse)
    argv = [command, "--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+t^3", *source,
            "--kmax", "-1"]
    assert run_cli(argv) == (2, "", "error: kmax must be nonnegative\n")


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["construct-basis", "--method", "quartic-full", "--field", "x^4-10x^2+1", "--unit", "t",
          "--beta="],
         3, "parse error at position 0: empty expression\n"),
        (["construct-basis", "--method", "quadratic", "--field", "x^2-3", "--unit", "2+t", "--beta",
          "1", "--module-basis="],
         2, "error: basis needs 2 vectors, got 0\n"),
        (["emit-sequence", "--field", "x^2-3", "--unit", "2+t", "--beta", "1", "--basis-file=",
          "--kmax", "3", "--format", "csv"],
         2, "error: [Errno 2] No such file or directory: ''\n"),
        (["snf-check", "--field", "x^4-10x^2+1", "--unit", "t", "--out="],
         2, "error: [Errno 2] No such file or directory: ''\n"),
        (["snf-check", "--field=", "--unit", "t"], 3, "parse error at position 0: empty expression\n"),
    ],
    ids=["beta", "module-basis", "basis-file", "out", "field"],
)
def test_an_empty_option_value_is_read_as_given(argv, code, err):
    # not as absent: no default beta, power basis, basis file or stdout takes its place, and
    # an empty field is parsed
    assert run_cli(argv) == (code, "", err)


def test_a_parse_error_comes_before_a_negative_kmax():
    argv = ["emit-sequence", "--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+", "--basis",
            "quartic-full", "--kmax", "-1"]
    rc, out, err = run_cli(argv)
    assert (rc, out) == (3, "")
    assert err.startswith("parse error ")


def test_a_failed_smith_witness_check_exits_1(monkeypatch):
    # a product x . b . y that is never diag(d) makes the check in exactlinalg.snf fail
    monkeypatch.setattr(exactlinalg, "matmul", lambda a, b: ((7,),))
    argv = ["snf-check", "--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+t^3"]
    assert run_cli(argv) == (
        1, "", "internal invariant violation: Smith witness verification failed\n"
    )


def test_family_scan_reports_four_initial_conditions_at_kmax_3():
    rc, out, err = run_cli(["family-scan", "--m-range", "2..2", "--kmax", "3"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["rows"][0]["ics"] == ["0", "2", "2", "22"]
