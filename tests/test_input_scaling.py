"""Inputs whose running time could grow faster than a polynomial in their digits.

Each case runs the CLI in process at growing input lengths and bounds both the
wall time and the growth of the report per doubling of the input; the d_k
cases bound the growth of the tracemalloc peak as well.
"""

import contextlib
import gc
import io
import json
import time
import tracemalloc

import pytest

from normlds import cli, numberfield


def timed_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def test_exponent_notation_in_a_basis_file_is_refused_at_once(tmp_path):
    # Fraction("2e3000000") builds 10^3000000 in full, which took seconds
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"field": "x^2 - 3", "basis": [["2e3000000", "0"], ["0", "1"]]}))
    seconds, rc, out, err = timed_cli(
        ["emit-sequence", "--field", "x^2-3", "--unit", "2+t", "--kmax", "3",
         "--basis-file", str(path)]
    )
    assert (rc, out) == (2, "")
    assert err == (
        f"error: basis file {path} has a bad 'basis': coordinate '2e3000000' is not"
        " an integer or a fraction p/q\n"
    )
    assert seconds < 0.1


def test_quartic_full_basis_grows_linearly_with_beta():
    # beta = 3^e + 5^e t - t^3 over Q(sqrt 2, sqrt 3): the Smith witness path took
    # 0.035, 0.64 and 8.0 s here, about 16x per doubling of the input
    digits = []
    for e in (100, 200, 400):
        seconds, rc, out, err = timed_cli(
            ["construct-basis", "--method", "quartic-full", "--field", "x^4-10x^2+1",
             "--unit", "t", f"--beta={3**e}+{5**e}t-t^3"]
        )
        assert (rc, err) == (0, "")
        assert seconds < 0.1, f"e = {e} took {seconds:.3f} s"
        basis = json.loads(out)["basis"]
        digits.append(max(len(c.lstrip("-").replace("/", "")) for row in basis for c in row))
    assert all(later <= 3 * earlier for earlier, later in zip(digits, digits[1:])), digits


def traced_cli(argv):
    """timed_cli with the tracemalloc peak of the run, after one untraced run builds the parser."""
    timed_cli(argv)
    gc.collect()
    tracemalloc.start()
    try:
        seconds, rc, out, err = timed_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, rc, out, err, peak


@pytest.mark.parametrize("case", ["pell unit", "vanishing scan"])
def test_dk_scan_grows_linearly_with_the_field(case):
    # n = 3^e: alpha = n + t over x^2 - (n^2 - 1), and alpha = t over x^4 - n x^2 + 1
    # with the vanishing scan; e = 100, 200, 400 is 48, 96 and 191 digits
    sizes, peaks = [], []
    for e in (100, 200, 400):
        n = 3**e
        if case == "pell unit":
            argv = ["dk-scan", "--field", f"x^2-{n * n - 1}", f"--alpha={n}+t"]
        else:
            argv = ["dk-scan", "--field", f"x^4-{n}x^2+1", "--alpha", "t", "--vanishing-t", "2"]
        seconds, rc, out, err, peak = traced_cli(argv + ["--kmax", "40"])
        assert (rc, err) == (0, "")
        assert seconds < 0.5, f"e = {e} took {seconds:.3f} s"
        sizes.append(len(out))
        peaks.append(peak)
    for growth in (sizes, peaks):
        assert all(later <= 2.5 * earlier for earlier, later in zip(growth, growth[1:])), growth


def test_quadratic_field_evaluates_its_polynomial_a_fixed_number_of_times(monkeypatch):
    # x^2 - (10^(2e) - 1) = x^2 - (10^e - 1)(10^e + 1) has no integer root; bisection
    # across its Cauchy bound took about 6.6 e evaluations, the closed form none
    calls = []
    original = numberfield._poly_eval_int

    def counting(coeffs, x):
        calls.append(x)
        return original(coeffs, x)

    monkeypatch.setattr(numberfield, "_poly_eval_int", counting)
    counts = []
    for e in (10, 100, 1000):
        calls.clear()
        numberfield.NumberField((-(10 ** (2 * e) - 1), 0, 1))
        counts.append(len(calls))
    assert counts == [2, 2, 2]


# one numeric text input of a subcommand each, at n = 3^e digits-doubling steps
SCALING_CASES = {
    # m = 2n, so that neither m nor m + 1 is a square
    "family --m": lambda n: ["construct-basis", "--method", "family", "--m", str(2 * n)],
    # x2 of the unit n + t is the Lucas sequence U_k(2n, 1), an LDS
    "quadratic --unit": lambda n: ["verify-lds", "--field", f"x^2-{n * n - 1}", f"--unit={n}+t",
                                   "--column", "2", "--kmax", "40"],
    "quadratic --beta": lambda n: ["construct-basis", "--method", "quadratic", "--field", "x^2-3",
                                   "--unit", "2+t", f"--beta={n}+{2 * n + 1}t"],
    "dense quartic field": lambda n: ["emit-sequence", "--field", f"x^4+{n}x^3+{n}x^2+{n}x+1",
                                      "--unit", "t", "--kmax", "40"],
    # {1, n + t} spans Z[t], and x2 is the b of (2 + t)^k = a + b t, an LDS
    "--module-basis": lambda n: ["verify-lds", "--field", "x^2-3", "--unit", "2+t",
                                 "--module-basis", f"1;{n}+t", "--column", "2", "--kmax", "40"],
    # the unit t of x^4 - n x^2 + 1, n = 3^e with e even, so neither n - 2 nor n + 2 is a square
    "quartic-power --unit": lambda n: ["construct-basis", "--method", "quartic-power",
                                       "--field", f"x^4-{n}x^2+1", "--unit", "t"],
    "quartic-full --unit": lambda n: ["construct-basis", "--method", "quartic-full",
                                      "--field", f"x^4-{n}x^2+1", "--unit", "t"],
    "snf-check --unit": lambda n: ["snf-check", "--field", f"x^4-{n}x^2+1", "--unit", "t"],
    # the power basis's x1 is no LDS, and that report exits 2
    "verify-lds quartic --unit": lambda n: ["verify-lds", "--field", f"x^4-{n}x^2+1", "--unit", "t",
                                            "--basis", "quartic-power", "--kmax", "40"],
}


@pytest.mark.parametrize("case", list(SCALING_CASES))
def test_numeric_input_grows_the_report_linearly(case):
    # e = 100, 200, 400 is 48, 96 and 191 digits; the quartic's terms carry its
    # coefficients' digits at every step, so it runs at half those
    exponents = (50, 100, 200) if case == "dense quartic field" else (100, 200, 400)
    sizes = []
    for e in exponents:
        seconds, rc, out, err = timed_cli(SCALING_CASES[case](3**e))
        assert (rc, err) == (0, "")
        assert seconds < 0.5, f"e = {e} took {seconds:.3f} s"
        sizes.append(len(out))
    assert all(later <= 2.5 * earlier for earlier, later in zip(sizes, sizes[1:])), sizes


@pytest.mark.parametrize("kind", ["integer", "fraction"])
def test_basis_file_coordinates_grow_the_report_linearly(tmp_path, kind):
    # n = 3^e: the basis {1, n + t} of Z[sqrt 3] with beta 1, or {1, (n + t)/2}
    # with beta 2, as construct-basis writes coordinates. Over either, x2 is a
    # multiple of the b of (2 + t)^k = a + b t, an LDS, and x1 carries n's digits
    sizes, peaks = [], []
    for e in (100, 200, 400):
        n = 3**e
        second = [str(n), "1"] if kind == "integer" else [f"{n}/2", "1/2"]
        path = tmp_path / f"basis-{e}.json"
        path.write_text(json.dumps({"field": "x^2 - 3", "basis": [["1", "0"], second]}))
        beta = "1" if kind == "integer" else "2"
        seconds, rc, out, err, peak = traced_cli(
            ["verify-lds", "--field", "x^2-3", "--unit", "2+t", "--beta", beta,
             "--basis-file", str(path), "--column", "2", "--kmax", "40"]
        )
        assert (rc, err) == (0, "")
        assert json.loads(out)["basis"][1] == second
        assert seconds < 0.5, f"e = {e} took {seconds:.3f} s"
        sizes.append(len(out))
        peaks.append(peak)
    for growth in (sizes, peaks):
        assert all(later <= 2.5 * earlier for earlier, later in zip(growth, growth[1:])), growth
