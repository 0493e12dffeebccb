import contextlib
import io
import json
import sys

import pytest

from normlds import cli, dkseq
from normlds.numberfield import NumberField


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
