"""Independent checks of the CLI reports.

Each check recomputes what a report claims from the benchmark's own integer
arithmetic (perfbench.algebra), never from normlds. Checks that need sympy are
returned as deferred callables, run after the timed rounds and after peak RSS
is read, so sympy costs neither time nor memory in the measured region.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable

from . import algebra
from .inputs import Job

Deferred = Callable[[object], None]


class Mismatch(Exception):
    """A report that ran to its expected exit code but says something wrong."""


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def expected_rc(job: Job) -> int:
    """Exit code a correct program gives: 2 marks an unsatisfied Smith criterion."""
    if job.kind == "snf-check" or job.params.get("method") == "quartic-full":
        return 0 if job.params.get("satisfied", True) else 2
    return 0


def check(job: Job, text: str) -> list[Deferred]:
    """Raise Mismatch if the report disagrees with the independent computation."""
    return _CHECKS[job.kind](job.params, text)


def _quartic_name(t_trace: int) -> str:
    return f"x^4 - {t_trace}*x^2 + 1"


def _combine(weights: list, rows: list[list]) -> list:
    return [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(len(rows[0]))]


def _sample_ks(kmax: int) -> list[int]:
    return sorted({0, 1, 2, 3, kmax // 3, kmax // 2, kmax - 1, kmax})


def _check_quartic_columns(rows: list[list[int]], t_trace: int, scale: int) -> None:
    """x1 starts a(0, 1, 1, T+1), every column obeys x(k+4) = T x(k+2) - x(k), x1 is an LDS."""
    x1 = [row[0] for row in rows]
    _expect(x1[:4] == [0, scale, scale, scale * (t_trace + 1)], f"x1 starts {x1[:4]}")
    for k in range(len(rows) - 4):
        for a, b, c in zip(rows[k + 4], rows[k + 2], rows[k]):
            if a != t_trace * b - c:
                raise Mismatch(f"recurrence breaks at k={k}")
    _expect(algebra.first_lds_failure(x1, len(x1) - 1) is None, "x1 is not a divisibility sequence")


def _check_sequence(p: dict, text: str) -> list[Deferred]:
    t_trace, kmax, beta = p["T"], p["kmax"], p["beta"]
    f = algebra.quartic(t_trace)
    powers = algebra.power_rows(beta, f, kmax + 1)  # beta * t^k
    if p["fmt"] == "json":
        doc = json.loads(text)
        _expect(doc["command"] == p["command"], "command")
        _expect(doc["field"] == _quartic_name(t_trace), "field")
        _expect(doc["charpoly"] == [str(c) for c in f], "charpoly")
        _expect(doc["recurrence_ok"] is True, "recurrence_ok")
        _expect(doc["basis_source"] == p["basis"], "basis_source")
        _expect(doc["t_trace"] == str(t_trace) and doc["scale"] == str(p["scale"]), "scale/trace")
        rows = [[int(x) for x in row] for row in doc["terms"]]
        basis = [[Fraction(c) for c in row] for row in doc["basis"]]
    else:
        lines = text.splitlines()
        _expect(lines[0] == "k,x1,x2,x3,x4", "csv header")
        rows = []
        for k, line in enumerate(lines[1:]):
            fields = line.split(",")
            _expect(int(fields[0]) == k, "csv index")
            rows.append([int(x) for x in fields[1:]])
        # the basis implied by rows 0..3: beta t^i = sum_j x_j(i) w_j for i < 4
        head = [[Fraction(x) for x in row] for row in rows[:4]]
        basis = [algebra.solve(head, [powers[i][j] for i in range(4)]) for j in range(4)]
        basis = [[basis[j][i] for j in range(4)] for i in range(4)]
        if p["basis"] == "quartic-full":
            _expect(all(x.denominator == 1 for row in basis for x in row), "rows leave Z[t]")
            _expect(abs(algebra.det(basis)) == 1, "rows do not come from a basis of Z[t]")
    _expect(len(rows) == kmax + 1, "row count")
    for k in _sample_ks(kmax):
        _expect(_combine(rows[k], basis) == powers[k], f"basis times row {k} is not beta*t^{k}")
    if p["basis"] == "quartic-power":
        # x(k) = A^T y(k), y(k) the power coordinates of t^k, A the fixed matrix of the construction
        y = [1, 0, 0, 0]
        for k, row in enumerate(rows):
            expect = [y[1] + y[2] + (t_trace + 1) * y[3], y[3], y[0], y[1]]
            if row != expect:
                raise Mismatch(f"quartic-power row {k}")
            y = algebra.times_t(y, f)
    _check_quartic_columns(rows, t_trace, p["scale"])
    if p["command"] == "verify-lds" and p["fmt"] == "json":
        _expect(doc["nmax"] == kmax, "nmax")
        for i, verdict in enumerate(doc["lds"]):
            witness = algebra.first_lds_failure([row[i] for row in rows], kmax)
            _expect(verdict == {"column": i + 1, "ok": witness is None,
                                "witness": None if witness is None else list(witness)},
                    f"lds verdict of column {i + 1}")
    return []


def _check_family_scan(p: dict, text: str) -> list[Deferred]:
    doc = json.loads(text)
    _expect(doc["command"] == "family-scan" and doc["kmax"] == p["kmax"], "header")
    _expect([r["m"] for r in doc["rows"]] == p["ms"], "m values")
    for r in doc["rows"]:
        m = r["m"]
        if algebra.is_square(m) or algebra.is_square(m + 1):
            _expect(r["status"] == "rejected", f"m={m} should be rejected")
            continue
        t_trace, a = 4 * m + 2, int(r["scale"])
        _expect(r["status"] == "ok" and r["t_trace"] == str(t_trace), f"m={m} status")
        _expect(a > 0 and r["ics"] == [str(x) for x in (0, a, a, a * (t_trace + 1))], f"m={m} ics")
        _expect(r["lds_ok"] is True and r["witness"] is None, f"m={m} lds")
    return []


def _alpha_name(alpha: list[int]) -> str:
    if alpha == [0, 1, 0, 0]:
        return "t"
    n, b = alpha
    return f"{n} + t" if b == 1 else f"{n} + {b}*t"


def _check_dk_scan(p: dict, text: str) -> list[Deferred]:
    poly, alpha, kmax = p["poly"], p["alpha"], p["kmax"]
    coords, power = [], list(alpha)
    for _ in range(kmax):
        coords.append(power)
        power = algebra.mulmod(power, alpha, poly)
    dks = [math.gcd(c[0] - 1, *c[1:]) for c in coords]  # d_1 .. d_kmax
    if p["fmt"] == "csv":
        _expect(text.splitlines() == ["k,dk"] + [f"{k + 1},{d}" for k, d in enumerate(dks)], "csv d_k")
        return []
    doc = json.loads(text)
    degree = len(poly) - 1
    _expect(doc["command"] == "dk-scan" and doc["alpha"] == _alpha_name(alpha), "header")
    _expect(doc["ring"] == ["1", "t", "t^2", "t^3"][:degree], "ring")
    _expect([int(x) for x in doc["terms"]] == dks, "d_k terms")
    if p["trace"] is None:
        _expect(doc["recurrence_ok"] is None, "recurrence check should be refused")
    else:
        t_trace = p["trace"]
        holds = all(dks[k + 4] == t_trace * dks[k + 2] - dks[k] for k in range(kmax - 4))
        _expect(doc["recurrence_ok"] is holds, "recurrence_ok")
    _expect(doc["conj9_hits"] == [str(k + 1) for k, d in enumerate(dks) if d == dks[0]], "conj9_hits")
    vanishing = p["vanishing"]
    if vanishing is None:
        _expect("vanishing" not in doc, "unexpected vanishing scan")
        return []
    scan = doc["vanishing"]
    monogenic = vanishing["monogenic"]
    _expect(scan["t"] == 2 and scan["monogenic_asserted"] is monogenic, "vanishing header")
    _expect(scan["all_vanish"] is True, "all_vanish")
    expect_rows = []
    for n in range(1, kmax + 1, 2):
        c = coords[n - 1]
        _expect(c[0] == 0, f"y1({n}) is not 0")
        d_tilde = str(math.gcd(c[0] - 1, *c[1:]))
        expect_rows.append({"n": n, "y1": "0", "d_tilde": d_tilde, "d": d_tilde if monogenic else None})
    _expect(scan["rows"] == expect_rows, "vanishing rows")
    disc = int(scan["disc"])

    def sympy_disc(sp) -> None:
        x = sp.Symbol("x")
        _expect(sp.discriminant(sp.Poly(list(reversed(poly)), x)) == disc, "discriminant")

    return [sympy_disc]


def _spans_module(basis: list[list[Fraction]], module: list[list]) -> Deferred:
    """Deferred check that basis rows are an integral unimodular change of the module rows."""

    def run(sp) -> None:
        change = sp.Matrix(basis) * sp.Matrix(module).inv()
        _expect(all(x.is_integer for x in change), "basis leaves the module")
        _expect(abs(change.det()) == 1, "basis does not span the module")

    return run


def _family_module(m: int) -> list[list[Fraction]]:
    """{1, sqrt m, sqrt(m+1), sqrt(m(m+1))} in the power basis of eta = sqrt m + sqrt(m+1)."""
    half = Fraction(1, 2)
    return [
        [1, 0, 0, 0],
        [0, -(4 * m + 1) * half, 0, half],
        [0, (4 * m + 3) * half, 0, -half],
        [-(2 * m + 1) * half, 0, half, 0],
    ]


def _check_construct(p: dict, text: str) -> list[Deferred]:
    doc = json.loads(text)
    method = p["method"]
    _expect(doc["command"] == "construct-basis" and doc["method"] == method, "header")
    if method == "quartic-full" and not p["satisfied"]:
        _expect(doc["criterion"]["satisfied"] is False, "criterion verdict")
        return []
    basis = [[Fraction(c) for c in row] for row in doc["basis"]]
    scale = int(doc["scale"])
    if method == "quadratic":
        poly, unit, beta = p["poly"], p["unit"], p["beta"]
        t_trace = 2 * unit[0]
        _expect(doc["t_trace"] == str(t_trace) and doc["source"] == "quadratic", "trace")
        x1, power = [], beta
        for _ in range(4):
            x = algebra.coords_over(basis, power)
            _expect(all(c.denominator == 1 for c in x), "beta*eps^k leaves the module")
            x1.append(x[0])
            power = algebra.mulmod(power, unit, poly)
        # x1(k) = scale * u_k(T, 1)
        _expect(scale > 0 and x1 == [0, scale, scale * t_trace, scale * (t_trace**2 - 1)], f"x1 {x1}")
        return [_spans_module(basis, [[1, 0], [0, 1]])]
    t_trace = p["T"]
    f = algebra.quartic(t_trace)
    _expect(doc["t_trace"] == str(t_trace), "t_trace")
    if method == "family":
        _expect(doc["field"] == _quartic_name(t_trace), "field")
        beta, module = [1, 0, 0, 0], _family_module(p["m"])
    else:
        beta = p["beta"]
        # beta * Z[eta] for quartic-power, Z[t] itself for quartic-full
        module = algebra.power_rows(beta if method == "quartic-power" else [1, 0, 0, 0], f, 4)
    if method in ("quartic-power", "quartic-full"):
        _expect(scale == (1 if method == "quartic-power" else p["scale"]), "scale")
    x1 = [algebra.coords_over(basis, row)[0] for row in algebra.power_rows(beta, f, 4)]
    _expect(scale > 0 and x1 == [0, scale, scale, scale * (t_trace + 1)], f"initial conditions {x1}")
    return [_spans_module(basis, module)]


def _check_snf(p: dict, text: str) -> list[Deferred]:
    crit = json.loads(text)["criterion"]
    deltas = [int(x) for x in crit["deltas"]]
    chi = [int(x) for x in crit["chi"]]
    lift = [int(x) for x in crit["lift_column"]]
    scale = int(crit["scale"])
    _expect(crit["t_trace"] == str(p["T"]), "t_trace")
    _expect(crit["satisfied"] is p["satisfied"] and scale == p["scale"], "verdict or scale")
    _expect(all(l * d == scale * c for l, d, c in zip(lift, deltas, chi)), "lift column")
    _expect((math.gcd(*lift) == 1) is p["satisfied"], "lift primitivity")
    b = algebra.power_rows(p["beta"], algebra.quartic(p["T"]), 4)

    def sympy_smith(sp) -> None:
        from sympy.matrices.normalforms import invariant_factors

        want = [abs(int(x)) for x in invariant_factors(sp.Matrix(b), domain=sp.ZZ)]
        _expect(deltas == want, f"Smith invariants {deltas} != {want}")

    return [sympy_smith]


_CHECKS = {
    "sequence": _check_sequence,
    "family-scan": _check_family_scan,
    "dk-scan": _check_dk_scan,
    "construct": _check_construct,
    "snf-check": _check_snf,
}
