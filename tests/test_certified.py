"""The certified head: rows 0..d from field products, every later term from the recurrence.

coordseq.sequence_head takes rows 0..d, d the degree of min_poly(eps), from
ModuleBasis.power_rows and checks row d against the recurrence; every later
term of each column grows through coordseq.recurrence_terms, read through
column_terms by generate and verify-lds and through decimal_columns by the
reports. These tests hold them to the Fraction field-product oracle taken all
the way, hold recurrence_terms to the termwise sum, count the work each
sequence command does and the divisor scans each report runs, and bound the
memory that verify-lds holds.
"""

import contextlib
import gc
import io
import itertools
import json
import math
import re
import sys
import tracemalloc
import types
from collections import Counter
from decimal import Decimal, localcontext

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from normlds import cli, coordseq, dkseq
from normlds.basisforge import lds_basis, quartic_full_construct, quartic_module_construct
from normlds.coordseq import (
    decimal_columns,
    generate,
    sequence_head,
    verify_recurrence,
)
from normlds.numberfield import ModuleBasis, NumberField, min_poly
from oracles import dk_ints, fraction_columns, fraction_rows
from oracles import outside_module as non_integral


def outcome(fn):
    try:
        return "ok", fn()
    except ValueError as exc:
        return "error", str(exc)


def is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


# x^2 - m for a nonsquare m, and x^4 - T x^2 + 1 with neither T - 2 nor T + 2 a square
QUADRATICS = [NumberField((-m, 0, 1)) for m in range(2, 61) if not is_square(m)]
QUARTICS = [
    NumberField((1, 0, -t, 0, 1))
    for t in range(3, 201)
    if not is_square(t - 2) and not is_square(t + 2)
]


@st.composite
def integral_elements(draw, field):
    return field.element([draw(st.integers(-3, 3)) for _ in range(field.degree)])


@st.composite
def cases(draw):
    """(beta, eps, basis) over the bases the sequence commands read.

    Over the power basis and the scaled basis (a, t, ..., t^(n-1)) eps is t,
    a random integral element, +-1 (d = 1), or t^2 in a quartic field
    (d = 2 < 4), and beta may be 0. Over the scaled basis the matrix of eps has
    denominator D = a whenever eps involves t; beta is a multiple of a, whose rows stay
    integral, or any element, whose rows may not. The quartic-power and
    quartic-full bases are built for eps = t and a nonzero beta.
    """
    kind = draw(st.sampled_from(["power", "scaled", "quartic-power", "quartic-full"]))
    if kind.startswith("quartic"):
        field = draw(st.sampled_from(QUARTICS))
        eps = field.generator
        beta = draw(integral_elements(field).filter(lambda beta: not beta.is_zero()))
        if kind == "quartic-power":
            return beta, eps, quartic_module_construct(beta, eps).basis
        try:
            return beta, eps, quartic_full_construct(field.power_basis(), beta, eps).basis
        except ValueError:
            assume(False)
    field = draw(st.sampled_from(QUADRATICS + QUARTICS))
    t = field.generator
    eps_choices = [st.just(t), integral_elements(field), st.sampled_from([field.one, -field.one])]
    if field.degree == 4:
        eps_choices.append(st.just(t * t))
    eps = draw(st.one_of(*eps_choices))
    beta = draw(st.one_of(st.just(field.from_int(0)), integral_elements(field)))
    if kind == "power":
        return beta, eps, field.power_basis()
    a = draw(st.integers(2, 5))
    if draw(st.booleans()):
        beta = beta * field.from_int(a)
    return beta, eps, ModuleBasis(field, (field.from_int(a),) + field.power_basis().vectors[1:])


class TestCertifiedPathEqualsTheStepMatrix:
    """The certified path against fraction_rows, multiplication by eps taken all the way."""

    @given(cases(), st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_every_term_and_every_error(self, case, kmax):
        beta, eps, basis = case
        want = outcome(lambda: fraction_columns(beta, eps, basis, kmax))
        assert outcome(lambda: generate(beta, eps, basis, kmax).terms) == want
        head = outcome(lambda: sequence_head(beta, eps, basis, kmax))
        d = len(min_poly(eps)) - 1
        if want[0] == "error":
            assert head == want
            # rows 0..d integral certify every later row integral
            assert int(re.search(r"k=(\d+)", want[1]).group(1)) <= d
            return
        columns, head = want[1], head[1]
        assert head.kmax == min(kmax, d)
        for i, column in enumerate(columns, 1):
            assert list(itertools.islice(coordseq.column_terms(head, i), kmax + 1)) == column
        assert decimal_columns(head, kmax) == [[str(x) for x in column] for column in columns]

    def test_eps_in_a_subfield(self):
        # t^2 over x^4 - 10x^2 + 1 has degree 2, so the head is rows 0..2 of 4 columns
        k4 = NumberField((1, 0, -10, 0, 1))
        beta, eps = k4.element([2, -1, 0, 1]), k4.generator ** 2
        head = sequence_head(beta, eps, k4.power_basis(), 40)
        assert head.charpoly == (1, -10, 1) and head.kmax == 2
        want = fraction_columns(beta, eps, k4.power_basis(), 40)
        assert generate(beta, eps, k4.power_basis(), 40).terms == want

    @pytest.mark.parametrize("sign", [1, -1])
    def test_eps_plus_minus_one(self, sign):
        k2 = NumberField((-3, 0, 1))
        beta = k2.element([5, -2])
        head = sequence_head(beta, k2.from_int(sign), k2.power_basis(), 9)
        assert head.charpoly == (-sign, 1) and head.kmax == 1
        want = [[5 * sign**k for k in range(10)], [-2 * sign**k for k in range(10)]]
        assert generate(beta, k2.from_int(sign), k2.power_basis(), 9).terms == want
        assert decimal_columns(head, 9) == [[str(x) for x in c] for c in want]

    def test_beta_zero(self):
        k4 = NumberField((1, 0, -10, 0, 1))
        head = sequence_head(k4.from_int(0), k4.generator, k4.power_basis(), 30)
        assert generate(k4.from_int(0), k4.generator, k4.power_basis(), 30).terms == [[0] * 31] * 4
        assert decimal_columns(head, 30) == [["0"] * 31] * 4

    def test_a_non_integral_row_fails_at_the_same_k(self):
        k2 = NumberField((-3, 0, 1))
        shrunk = ModuleBasis(k2, (k2.from_int(2), k2.generator))
        # t * (2 + t) = 3 + 2t is 3/2 * 2 + 2 * t
        with pytest.raises(ValueError) as exc:
            generate(k2.generator, k2.element([2, 1]), shrunk, 50)
        assert str(exc.value) == non_integral(1)
        with pytest.raises(ValueError) as exc:
            generate(k2.one, k2.element([2, 1]), shrunk, 50)
        assert str(exc.value) == non_integral(0)

    def test_a_basis_file_with_a_denominator(self, tmp_path):
        # the basis (3, t, t^2, t^3): t * t^3 = -1/3 * 3 + 10 t^2, so D = 3, and
        # beta = 3 * (2 - t + t^3) keeps every row integral
        k4 = NumberField((1, 0, -10, 0, 1))
        basis = ModuleBasis(k4, (k4.from_int(3),) + k4.power_basis().vectors[1:])
        beta = k4.element([6, -3, 0, 3])
        path = tmp_path / "basis.json"
        rows = [["3", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
                ["0", "0", "0", "1"]]
        path.write_text(json.dumps({"field": "x^4 - 10*x^2 + 1", "basis": rows}))
        rc, out, _ = run_cli(["emit-sequence", "--field", "x^4-10x^2+1", "--unit", "t",
                              "--beta", "6-3t+3t^3", "--basis-file", str(path), "--kmax", "60"])
        assert rc == 0
        want = fraction_rows(beta, k4.generator, basis, 60)
        assert json.loads(out)["terms"] == [[str(x) for x in row] for row in want]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


QUARTIC = ["--field", "x^4-10x^2+1", "--unit", "t", "--beta", "2-t+t^3"]
# x1 = (0, 1, 1, T + 1) and x2 = (0, 1, 3, T + 1), T = 9, are proved from their
# heads, a Lehmer sequence and its family member b = 3; x3 and x4 are scanned
SCANNED = ["--field", "x^4-9x^2+1", "--unit", "t", "--beta", "t+3t^2+t^3",
           "--basis", "quartic-full"]
# Decimal terms that decimal_columns computes for emit-sequence over QUARTIC at
# kmax 500 (e = 2, q = 2): each class's base through the furthest term a member
# reads, and terms 2..3 of a base that a later strand rebases; a strand that
# joins a class is compared on its head terms 0..1 alone. Rendering whole
# columns, with a column that is +- another moved down a row copied, took 994
# (two columns) and 1491 (three, 497 terms each). Over quartic-full the six
# classes hold 249 + 248 + 249 + 249 + 249 + 248 = 1492 terms, as four of the
# bases are even strands, one term longer than the odd ones, and one base was
# rebased after its terms 2..3 were made
DECIMALS = {"quartic-power": 749, "quartic-full": 1494}


@pytest.fixture
def work(monkeypatch):
    """Counts of power rows and of int and Decimal terms of the recurrence; verify_recurrence refused.

    Rows that basisforge takes for a construction's B matrix count as "basis
    rows", every other power row as "rows". Int terms count as "ints", and
    the Decimal terms that decimal_columns renders as "decimals".
    """
    counts = Counter()
    power_rows, recurrence_values = ModuleBasis.power_rows, coordseq.recurrence_values

    def counted_power_rows(self, *args):
        rows = power_rows(self, *args)
        caller = sys._getframe(1).f_globals["__name__"]
        counts["basis rows" if caller == "normlds.basisforge" else "rows"] += len(rows)
        return rows

    def counted_recurrence_values(charpoly, x):
        for value in recurrence_values(charpoly, x):
            counts["ints"] += type(value) is int
            if type(value) is Decimal:
                counts["decimals"] += 1
            yield value

    def refuse(report):
        raise AssertionError("verify_recurrence scanned the terms")

    monkeypatch.setattr(ModuleBasis, "power_rows", counted_power_rows)
    monkeypatch.setattr(coordseq, "recurrence_values", counted_recurrence_values)
    monkeypatch.setattr(coordseq, "verify_recurrence", refuse)
    return counts


def int_work(work):
    """The counts of the work fixture without its decimals."""
    return Counter({key: n for key, n in work.items() if key != "decimals"})


class TestWorkCount:
    @pytest.mark.parametrize("basis, fmt, b_rows", [("quartic-power", "json", 0),
                                                    ("quartic-full", "csv", 4)])
    def test_emit_sequence_builds_no_int_term_past_the_head(self, work, basis, fmt, b_rows):
        rc, out, _ = run_cli(["emit-sequence", *QUARTIC, "--basis", basis, "--kmax", "500",
                              "--format", fmt])
        assert rc == 0 and len(out.splitlines()) > 500
        # d + 1 = 5 rows, and the certificate's one value per column at row 4;
        # quartic-full also takes the 4 rows of B
        assert work == Counter({"rows": 5, "ints": 4, "basis rows": b_rows,
                                "decimals": DECIMALS[basis]})

    def test_emit_sequence_of_a_unit_in_a_subfield(self, work):
        rc, _, _ = run_cli(["emit-sequence", "--field", "x^4-10x^2+1", "--unit", "t^2",
                            "--kmax", "500"])
        assert rc == 0
        assert int_work(work) == {"rows": 3, "ints": 4}

    def test_verify_lds_builds_each_int_column_only_as_far_as_it_reads(self, work, tmp_path):
        rc, out, _ = run_cli(["verify-lds", *SCANNED, "--kmax", "500", "--nmax", "50"])
        report = json.loads(out)
        assert rc == 0 and len(report["terms"]) == 501
        # x1 and x2 are proved from their heads. The certificate, then terms
        # 5..m of a column whose witness is at m: no term past what verify_lds
        # reads; quartic-full takes the 4 rows of B
        assert [v["ok"] for v in report["lds"]] == [True, True, False, False]
        lasts = [v["witness"][1] for v in report["lds"][2:]]
        assert int_work(work) == {
            "rows": 5, "basis rows": 4, "ints": 4 + sum(max(m - 4, 0) for m in lasts)
        }
        # a Williams-Guy basis, lds_basis(power basis, 1, t, (0, 1, 1, 3)) over
        # x^4 - x^3 - 3x^2 - x + 1 (P = 1, B = -3, Q = 1): x1 = (0, 1, 1, 3, 7) is no
        # target of column_verdict, so it passes by a scan through kmax, and x2..x4
        # fail at (1, 4), (2, 4) and (1, 3)
        field = "x^4-x^3-3x^2-x+1"
        rows = [[0, 0, 1, 0], [-1, 0, 0, 0], [0, -1, 1, 0], [0, 0, -3, 1]]
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"field": field, "basis": [list(map(str, r)) for r in rows]}))
        before = work.copy()
        rc, out, _ = run_cli(["verify-lds", "--field", field, "--unit", "t", "--beta", "1",
                              "--basis-file", str(path), "--kmax", "200"])
        report = json.loads(out)
        assert rc == 0 and [v["witness"] for v in report["lds"]] == [None, [1, 4], [2, 4], [1, 3]]
        lasts = [200, 4, 4, 3]
        assert int_work(work - before) == {"rows": 5, "ints": 4 + sum(max(m - 4, 0) for m in lasts)}
        k4 = NumberField((1, -1, -3, -1, 1))
        basis, scale = lds_basis(k4.power_basis(), k4.one, k4.generator, (0, 1, 1, 3))
        assert scale == 1 and [list(v.coords) for v in basis.vectors] == rows

    @pytest.mark.parametrize("argv, d, proved", [
        ([*QUARTIC, "--basis", "quartic-power"], 4, 1),
        (["--field", "x^2-3", "--unit", "2+t", "--basis", "power"], 2, 2),
    ], ids=["lehmer", "lucas"])
    def test_verify_lds_builds_no_int_term_past_the_head_of_a_proved_column(
        self, work, argv, d, proved
    ):
        # x1 = (0, 1, 1, T + 1) over quartic-power, x2 = (0, 1) over the power
        # basis of Z[sqrt 3]: every other column fails at a small m, and the
        # proved one builds nothing past the certificate
        rc, out, _ = run_cli(["verify-lds", *argv, "--kmax", "500", "--nmax", "50", "--column",
                              str(proved)])
        report = json.loads(out)
        assert rc == 0 and report["lds"][proved - 1] == {"column": proved, "ok": True, "witness": None}
        failed = [v["witness"][1] for v in report["lds"] if not v["ok"]]
        assert len(failed) == d - 1
        assert int_work(work) == {"rows": d + 1, "ints": d + sum(max(m - d, 0) for m in failed)}

    @pytest.mark.parametrize("kmax", [1, 2, 5, 40, 41])
    def test_dk_scan_runs_each_stream_to_half_of_kmax(self, work, monkeypatch, kmax):
        # 1 + t has norm -1, so no half-index lemma: it is a unit of Z[t], and the x
        # and alpha^-1 streams run to ceil(kmax/2) and floor(kmax/2)
        lasts = []
        generate_ = dkseq.generate
        monkeypatch.setattr(dkseq, "generate", lambda *args: lasts.append(args[3]) or generate_(*args))
        rc, out, _ = run_cli(["dk-scan", "--field", "x^2-2", "--alpha", "1+t", "--kmax", str(kmax)])
        assert rc == 0 and len(json.loads(out)["terms"]) == kmax
        half = -(-kmax // 2)
        assert lasts == [half, kmax // 2]
        # d = 2: per stream, rows 0..min(last, 2), the certificate when row 2 is
        # taken, and terms 3..last of both columns when last > 2; a unit of norm -1
        # is refused the check of d_k, so it predicts nothing
        rows = ints = 0
        for last in (half, kmax // 2):
            rows += min(last, 2) + 1
            ints += 2 * (last >= 2) + 2 * (last - 2) * (last > 2)
        assert int_work(work) == Counter({"rows": rows, "ints": ints})

    @pytest.mark.parametrize("kmax", [1, 2, 5, 40, 41])
    @pytest.mark.parametrize("field, alpha, ring, gcds, streams", [
        # the half-index lemma: a gcd for each of d_1 and d_2 of t^2, or of 2 + t,
        # and no coordinate stream
        ("x^4-10x^2+1", "t", [], lambda kmax: 2, 0),
        ("x^2-3", "2+t", [], lambda kmax: 2, 0),
        # t of norm -1 has no lemma, but x1 of t is 0 at every odd k, so d_k = 1
        # there: the even stream alone, at every kmax, as the head x1(1), x1(3)
        # is read off t and t^3 before any stream is built
        ("x^4-3x^2-1", "t", [], lambda kmax: kmax // 2, 2),
        # x1(1) = -1 over {1, 1+t, t^2, t^3}: both streams take their gcds
        ("x^4-10x^2+1", "t", ["--module-basis", "1;1+t;t^2;t^3"], lambda kmax: kmax, 2),
        ("x^2-2", "1+t", [], lambda kmax: kmax, 2),
    ], ids=["lacunary", "pell", "lacunary norm -1", "unit t over 1, 1+t", "norm -1"])
    def test_dk_scan_takes_gcds_on_the_even_stream_alone_for_a_lacunary_unit(
        self, monkeypatch, kmax, field, alpha, ring, gcds, streams
    ):
        calls, built = [], []

        def gcd(*args):
            calls.append(args)
            return math.gcd(*args)

        generate_ = dkseq.generate
        monkeypatch.setattr(dkseq, "math", types.SimpleNamespace(gcd=gcd))
        monkeypatch.setattr(dkseq, "generate", lambda *args: built.append(args) or generate_(*args))
        argv = ["dk-scan", "--field", field, "--alpha", alpha, *ring, "--kmax", str(kmax)]
        rc, out, _ = run_cli(argv)
        assert rc == 0 and len(json.loads(out)["terms"]) == kmax
        assert len(calls) == gcds(kmax) and len(built) == streams

    @pytest.mark.parametrize("kmax", [1, 2, 5, 40, 41])
    @pytest.mark.parametrize("field, alpha", [("x^2-3", "2+t"), ("x^4-10x^2+1", "t")],
                             ids=["pell", "lacunary"])
    def test_dk_scan_runs_the_recurrence_only_to_render(self, work, monkeypatch, kmax, field,
                                                         alpha):
        # the half-index lemma's d_k are rendered from its head by decimal_columns,
        # and dkseq builds none of them as an int, nor takes a power row
        rendering, outside = [], []
        render, values = coordseq.decimal_columns, coordseq.recurrence_values

        def rendered(*args):
            rendering.append(args)
            try:
                return render(*args)
            finally:
                rendering.pop()

        def recurrence_values(*args):
            if not rendering:
                outside.append(args)
            return values(*args)

        monkeypatch.setattr(coordseq, "decimal_columns", rendered)
        monkeypatch.setattr(coordseq, "recurrence_values", recurrence_values)
        rc, out, _ = run_cli(["dk-scan", "--field", field, "--alpha", alpha, "--kmax", str(kmax)])
        assert rc == 0 and len(json.loads(out)["terms"]) == kmax
        assert outside == [] and int_work(work) == Counter()

    @pytest.mark.parametrize("kmax", [1, 2, 5, 40, 41])
    def test_dk_scan_renders_a_lacunary_unit_with_no_str_of_a_d_k(self, monkeypatch, kmax):
        class Unprintable(int):
            def __str__(self):
                raise AssertionError("str() of a d_k")

            __repr__ = __str__

        sequence, render = dkseq.dk_sequence, coordseq.decimal_columns
        renders, plain = [], []

        def unprintable(*args):
            # the lemma's record holds no int d_k: the head's column is all it has
            seq = sequence(*args)
            plain.extend(dk_ints(seq))
            column = list(map(Unprintable, seq.head.terms[0]))
            return seq._replace(head=seq.head._replace(terms=[column]))

        monkeypatch.setattr(dkseq, "dk_sequence", unprintable)
        monkeypatch.setattr(coordseq, "decimal_columns",
                            lambda *args: renders.append(args) or render(*args))
        argv = ["dk-scan", "--field", "x^4-10x^2+1", "--alpha", "t", "--kmax", str(kmax)]
        rc, out, _ = run_cli(argv)
        report = json.loads(out)
        # one render, of the even d_k from the half-index lemma's head
        # (d_0, d_2, d_4, d_6) under X^4 - 10 X^2 + 1
        assert rc == 0 and report["recurrence_ok"] is None and len(renders) == 1
        (head, last), = renders
        assert head.terms == [[0, 1, 2, 11]] and head.charpoly == (1, 0, -10, 0, 1)
        assert last == kmax // 2
        assert report["terms"] == list(map(str, plain))

    def test_family_scan_builds_x1_alone(self, work, monkeypatch):
        # per accepted m: 4 rows of B, 5 rows and the certificate's 4 values.
        # x1 = 2 (0, 1, 1, T + 1) is proved from its head, so nothing more; with
        # no target known, terms 5..200 of x1, which verify_lds reads through
        # kmax. Nothing for a rejected m
        for targets, scanned in ((coordseq.lds_targets, 0), (lambda *_: [], 196)):
            # the prover's view alone: basisforge holds the table by name, so
            # the construction still builds from it
            monkeypatch.setattr(coordseq, "lds_targets", targets)
            accepted = []
            for m in range(2, 8):
                before = work.copy()
                rc, out, _ = run_cli(["family-scan", f"--m-range={m}..{m}", "--kmax", "200"])
                (row,) = json.loads(out)["rows"]
                assert rc == 0
                if row["status"] == "ok":
                    accepted.append(m)
                    assert row["lds_ok"] and row["witness"] is None
                    assert work - before == {"basis rows": 4, "rows": 5, "ints": 4 + scanned}
                else:
                    assert work == before
            assert accepted == [2, 5, 6, 7]


class TestRecurrenceTerms:
    @given(st.data(), st.booleans())
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_each_term_is_the_termwise_sum_made_only_when_read(self, work, data, as_decimal):
        # charpolys rich in 0 and +-1; n below, at and past d; the counting
        # kernel counts int values, so its count is pinned for int heads
        d = data.draw(st.integers(1, 4))
        coefficient = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-50, 50))
        charpoly = [data.draw(coefficient) for _ in range(d)] + [1]
        first = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=d, max_size=d))
        n = data.draw(st.one_of(st.integers(0, d), st.integers(d + 1, d + 12)))
        want = list(first)
        for k in range(d, n):
            want.append(sum(-charpoly[d - j] * want[k - j] for j in range(1, d + 1)))
        before = work["ints"]
        with localcontext() as context:
            context.prec = 200
            terms = coordseq.recurrence_terms(charpoly, map(Decimal, first) if as_decimal else first)
            got = list(itertools.islice(terms, n))
        assert got == want[:n]
        if as_decimal:
            # with no nonzero s_j the kernel's values are the int 0
            assert all(type(x) is Decimal for x in got) or not any(charpoly[:-1])
        else:
            assert all(type(x) is int for x in got)
            assert work["ints"] - before == max(n - d, 0)

    def test_a_first_shorter_than_the_degree_gives_its_own_terms(self, work):
        # x^4 - 3x^2 + 1 reads x(k - 2) and x(k - 4) alone; three terms are not a head
        assert list(coordseq.recurrence_terms((1, 0, -3, 0, 1), [5, 6, 7])) == [5, 6, 7]
        assert work["ints"] == 0


class TestScansPerReport:
    # verify-lds proves x1 and x2 from their heads and scans x3 and x4, and over
    # x^4 - 10x^2 + 1 proves x1 and x4 = (0, 1, -2, T - 1) and scans x2 and x3;
    # family-scan checks m = 2, 5, 6, 7 and rejects 3 and 4, and scans x1 when no
    # target is known
    @pytest.mark.parametrize("argv, scans", [
        (["verify-lds", *SCANNED, "--kmax", "120"], 2),
        (["verify-lds", "--field", "x^4-10x^2+1", "--unit", "t", "--beta=-1-2t+t^2",
          "--basis", "quartic-full", "--kmax", "120"], 2),
        (["family-scan", "--m-range", "2..7", "--kmax", "120"], 4),
    ], ids=["verify-lds", "t-minus-one", "family-scan"])
    def test_a_report_scans_each_unproved_column_once(self, monkeypatch, argv, scans):
        if argv[0] == "family-scan":
            monkeypatch.setattr(coordseq, "lds_targets", lambda *_: [])
        assert count_scans(monkeypatch, argv) == scans

    def test_a_report_whose_every_column_is_proved_runs_no_scan(self, monkeypatch):
        # x1 of every accepted family basis is 2 (0, 1, 1, T + 1)
        assert count_scans(monkeypatch, ["family-scan", "--m-range", "2..7", "--kmax", "120"]) == 0


def count_scans(monkeypatch, argv):
    """The verify_lds calls of one CLI report, which must exit 0."""
    scans = []
    scan = coordseq.verify_lds
    monkeypatch.setattr(coordseq, "verify_lds", lambda *args: scans.append(args) or scan(*args))
    rc, _, _ = run_cli(argv)
    assert rc == 0
    return len(scans)


def traced_peak(argv):
    """The tracemalloc peak, in bytes, of one CLI report written to memory.

    The report runs once untraced first, so that the parser, which main builds
    once per process, is not counted.
    """
    run_cli(argv)
    gc.collect()
    tracemalloc.start()
    try:
        rc, _, _ = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak


class TestEmissionMemory:
    @pytest.mark.parametrize("command", ["emit-sequence", "verify-lds"])
    @pytest.mark.parametrize("basis", ["quartic-power", "quartic-full"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_is_below_three_times_the_report(self, command, basis, fmt):
        # the terms once as strings and the report's text once; a row of strings
        # per row, or a joined copy of each row, would pass 3x
        argv = [command, *QUARTIC, "--basis", basis, "--kmax", "600", "--format", fmt]
        peak = traced_peak(argv)
        _, out, _ = run_cli(argv)
        assert peak < 3 * len(out)


def int_bytes(values):
    return sum(map(sys.getsizeof, values))


class TestVerifyLdsMemory:
    ARGS = [*QUARTIC, "--basis", "quartic-power", "--kmax", "600"]

    def parent_layout_peak(self):
        """The peak of the pipeline that verify-lds replaced.

        It kept the int terms of the whole report, scanned them with
        verify_recurrence, and still held them while the report was rendered
        and written. It held them as rows, and here generate gives columns,
        which take less memory; its own decimal rendering also kept a tuple
        per column, and its terms were a list per row, built here as a
        one-column cli._Table from the columns as the deleted
        coordseq.decimal_rows built them, so this peak is at most the one it had.
        """
        k4 = NumberField((1, 0, -10, 0, 1))
        beta, unit = k4.element([2, -1, 0, 1]), k4.generator
        basis = quartic_module_construct(beta, unit).basis
        gc.collect()
        tracemalloc.start()
        try:
            report = generate(beta, unit, basis, 600)
            assert verify_recurrence(report)
            terms = [cli._Table(((None, row),), "") for row in zip(*decimal_columns(report, 600))]
            lds = [coordseq.verify_lds(column, 600).ok for column in report.terms]
            coords = [list(map(str, v.coords)) for v in basis.vectors]
            payload = {"terms": terms, "lds": lds, "basis": coords}
            out = io.StringIO()
            out.write(cli._json_text(payload))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, report

    def test_peak_is_not_above_the_parent_layout(self):
        ours = traced_peak(["verify-lds", *self.ARGS])
        parent, report = self.parent_layout_peak()
        assert ours <= parent
        # one layout: beside what emit-sequence holds, at most one int column at a time
        emit = traced_peak(["emit-sequence", *self.ARGS])
        column = max(map(int_bytes, report.terms))
        assert ours <= emit + column < emit + int_bytes(itertools.chain(*report.terms))
